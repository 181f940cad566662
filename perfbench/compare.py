"""Run the benchmark twice on the same code and compare against its bounds.

    python3 perfbench/compare.py [--runs 10] [--baseline perfbench/baseline.json]

The workloads and the length of a run are those of ``BENCHMARK.json``.
Each of two rounds runs every workload ``--runs`` times, each time with
another seed (round one uses seeds 1..runs, round two the next ``runs``
seeds), interleaving the workloads so that a slow spell of the machine
hits all of them.  For every end-to-end metric it prints, per workload and
round, the median and the spread (the distance between the first and third
quartiles as a share of the median), then checks, as the acceptance rule
of the benchmark does, that:

* every spread stays within the metric's bound, except that of
  ``setup_s``: set-up time is in seconds as measured, so its spread
  follows the host's drift as that of ``wall_s`` does (``baseline.json``
  records both), and only its medians are compared;
* the second round's median is not worse than the first's by more than
  the bound.

A spread above a third of its bound is flagged as not steady, that of
``setup_s`` too.  Exits 1
when a check fails or a run fails its output checks.  The figures in
seconds as measured that a run prints above its result line (``wall_s``,
``job_s.p50``, ``job_s.p75``, ``ref_s``, ...) get the same median and
spread, printed but not checked.

``--baseline`` also makes one traced run per workload at the default seed
and writes a summary: the machine, every end-to-end metric's median and
spread per round, the same for the figures in seconds as measured, the
fail ratio, every per-layer metric, and each layer's share of the traced
pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a line "  <name>  <value> <unit>" of the figures in seconds as measured
AS_MEASURED = re.compile(r"^  (\S+) +(\S+) (\S+)$")


def run_once(workload: str, seed: int, seconds: int, trace: int = 0):
    """One benchmark run in its own process: its result line, parsed, and
    the figures in seconds as measured, {name: (value, unit)}."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    measured = {m[1]: (float(m[2]), m[3]) for m in map(AS_MEASURED.match, lines) if m}
    return json.loads(lines[-1]), measured


def spread(values: "list[float]") -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(rounds, unit: str) -> dict:
    """Median and spread of each round's values."""
    return {"unit": unit, "median": [statistics.median(v) for v in rounds],
            "spread": [spread(v) for v in rounds]}


def write_baseline(path: Path, spec: dict, summary: dict, names, runs: int) -> None:
    workloads = {}
    for name in names:
        traced = run_once(name, 0, spec["run_seconds"], trace=1)[0]["metrics"]
        pass_s = traced["trace.pass_s"]["value"]
        workloads[name] = {
            "end_to_end": summary[name],
            "per_layer": {m: v["value"] for m, v in traced.items()},
            "layer_share_of_traced_pass": {
                m: v["value"] / pass_s for m, v in traced.items()
                if v["unit"] == "s" and not m.startswith("trace.")},
        }
    baseline = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "runs_per_round": runs,
        "workloads": workloads,
    }
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--baseline", type=Path, help="write a baseline summary here")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {name: [[], []] for name in names}
    measured = {name: [[], []] for name in names}
    ok = True
    for r in range(2):
        for k in range(args.runs):
            seed = 1 + r * args.runs + k
            for name in names:
                result, as_measured = run_once(name, seed, spec["run_seconds"])
                results[name][r].append(result)
                measured[name][r].append(as_measured)
                if not result["correct"]:
                    ok = False
                    print(f"{name} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} jobs failed")
                print(f"round {r + 1} {name} seed {seed}: " + ", ".join(
                    f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()),
                    flush=True)

    summary = {}
    print(f"\n{'workload':14} {'metric':12} {'bound':>6} "
          + " ".join(f"{'median' + str(r + 1):>12} {'spread' + str(r + 1):>8}"
                     for r in range(2)) + "  verdict")
    for name in names:
        for metric in metrics:
            m, bound = metric["name"], metric["bound"]
            rounds = [[res["metrics"][m]["value"] for res in results[name][r]]
                      for r in range(2)]
            summary.setdefault(name, {})[m] = summarise(rounds, metric["unit"])
            medians, spreads = summary[name][m]["median"], summary[name][m]["spread"]
            verdict = []
            if any(s > bound for s in spreads) and m == "setup_s":
                verdict.append("spread over bound (not checked)")
            elif any(s > bound for s in spreads):
                verdict.append("SPREAD OVER BOUND")
                ok = False
            elif any(s > bound / 3 for s in spreads):
                verdict.append("not steady (spread > bound/3)")
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                verdict.append(f"ROUND 2 WORSE BY {worse:.3f}")
                ok = False
            print(f"{name:14} {m:12} {bound:6.3f} "
                  + " ".join(f"{md:12.6g} {s:8.4f}" for md, s in zip(medians, spreads))
                  + "  " + ("; ".join(verdict) or "ok"))
    print("\nin seconds as measured (not checked):")
    for name in names:
        for m, (_, unit) in measured[name][0][0].items():
            rounds = [[run[m][0] for run in measured[name][r]] for r in range(2)]
            row = summary[name].setdefault("as_measured", {})[m] = summarise(rounds, unit)
            print(f"{name:14} {m:12} {'':6} " + " ".join(
                f"{md:12.6g} {s:8.4f}" for md, s in zip(row["median"], row["spread"])))
    for name in names:
        runs = [res for r in results[name] for res in r]
        failed = sum(res["failed"] for res in runs)
        attempted = sum(res["attempted"] for res in runs)
        print(f"{name:14} fail_ratio {failed / attempted:.6g} "
              f"({failed} of {attempted} jobs)")
        summary[name]["fail_ratio"] = failed / attempted
    if args.baseline:
        write_baseline(args.baseline, spec, summary, names, args.runs)
    print("\nresult:", "agree within bounds" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
