"""Record the stdout digest of every job at the default seed.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``.  The checks in ``run.py`` compare each
job's stdout with it on fixed-input jobs at every seed and on generated
jobs at the default seed.  Record only from a commit whose output is the
reference (the digests in the repository come from the seed commit), and
only after every job has passed the other checks.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

import checks
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    recorded = {}
    failed = 0
    with tempfile.TemporaryDirectory(dir=run.HERE) as scratch:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, run.DEFAULT_SEED)
            paths = workload.write(Path(scratch))
            recorded[name] = {}
            for job in workload.jobs:
                code, out, _ = run.run_job(run._fresh_import(), job.argv(paths))
                problems = checks.check_job(job, code, out, None)
                if problems:
                    print(f"FAILED {name} {job.id}: {'; '.join(problems)}")
                    failed += 1
                recorded[name][job.id] = checks.digest(out)
    if failed:
        print("not recorded: some jobs fail their checks", file=sys.stderr)
        return 1
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"recorded {sum(map(len, recorded.values()))} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
