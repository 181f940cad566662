"""Benchmark of the poishom command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graded-batch --seed 0 --seconds 40 --trace 0

The workloads are described in ``workloads.py``.  One run:

1. generates the workload's documents from ``--seed`` into a scratch
   directory under ``perfbench/.work`` (removed at the end);
2. sets up: a fresh import of ``poishom.cli`` plus loading and validating
   every document (``SpecDocument`` parsing and ``PoissonStructure``
   construction);
3. passes over the job list, calling ``poishom.cli.main`` with the argv a
   user would type and capturing stdout, until ``--seconds`` have gone by;
   all jobs run in this one process, one after another (a closed loop with
   one client).  A user's every call starts a new process, so each job
   runs on a package imported afresh just before it, outside its timing:
   no state of the package outlives one invocation.  Between jobs the run
   sets up again whenever ``SETUP_INTERVAL_S`` has gone by, so that the
   set-ups are spread over the run;
4. checks every job's output (``checks.py``) after each pass, outside the
   timed region;
5. prints one line per metric, then the result as one JSON line.

With ``--trace 0`` the metrics are the end-to-end ones.  The speed of one
core of a shared host drifts by 10-20 % over tens of seconds, so job times
are also taken in units of a fixed reference loop, timed between
the jobs (``reference.py``, unit ``ref``), and those are the bounded metrics:

* ``wall_ref`` -- one pass over the job list, the sum of each job's median;
* ``job_ref.p50`` and ``job_ref.p75`` -- per-job latency: the quartiles of
  each pass's job times, the median over passes;
* ``work_per_ref`` -- printed table cells (so3-deep, graded-batch) or
  words reduced under both strategies (pbw-words) per ref of ``wall_ref``;
* ``setup_s`` -- seconds, the median of the set-ups: one at the start and
  then one every ``SETUP_INTERVAL_S`` or so;
* ``peak_rss_mb`` -- peak resident memory of this process.

The same figures in seconds as measured (``wall_s``, ``job_s.p50``,
``job_s.p75``, ``cells_per_s`` or ``words_per_s``, and the reference loop's
``ref_s``) and ``fail_ratio`` are printed above the result line.  With
``--trace 1`` passes alternate
between untraced and traced (``tracing.py``), and the metrics are the
per-layer ones, each the median over traced passes, plus
``trace.overhead_s`` (traced minus untraced pass time) and
``trace.coverage`` (the share of a traced pass that the layer self times
account for).

Exit codes: 0 with a result line; 2, without one, when the package source
is missing or the arguments are bad; 1, without one, when a traced run
finds a trace site missing (``tracing.py``), since that span would
silently read zero.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import reference_seconds  # noqa: E402

# seconds between two timings of the reference loop inside a pass
REF_INTERVAL_S = 0.5
# seconds between two set-ups, checked after each job
SETUP_INTERVAL_S = 2.0


# -- set-up ------------------------------------------------------------------


def _fresh_import():
    for name in [m for m in sys.modules if m == "poishom" or m.startswith("poishom.")]:
        del sys.modules[name]
    importlib.import_module("poishom.cli")
    return sys.modules["poishom"]


def timed_setup(workload, paths) -> float:
    """Seconds of one set-up: a fresh import, then every document loaded
    and validated."""
    gc.collect()
    start = perf_counter()
    package = _fresh_import()
    for doc in workload.docs:
        if doc.catalog_id is not None:
            package.get_entry(doc.catalog_id).document.to_structure()
        else:
            package.SpecDocument.load(paths[doc.name]).to_structure()
    return perf_counter() - start


class SetUps:
    """Set-up seconds: one at the start, then one whenever ``due`` is asked
    after ``SETUP_INTERVAL_S`` or more since the last."""

    def __init__(self, workload, paths):
        self.workload, self.paths = workload, paths
        self.seconds = []
        self._take()

    def _take(self) -> None:
        self.seconds.append(timed_setup(self.workload, self.paths))
        self.last = perf_counter()

    def due(self) -> None:
        if perf_counter() - self.last >= SETUP_INTERVAL_S:
            self._take()


# -- one pass over the job list -------------------------------------------------


def run_job(package, argv):
    """(exit code, stdout, seconds) of one ``poishom`` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = package.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = "crash: " + traceback.format_exc(limit=-1).strip()
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


def machine_ref() -> float:
    """Seconds of one reference loop now: the median of three."""
    return statistics.median(reference_seconds() for _ in range(3))


class Pass:
    """Timings and check results of one pass over the job list.

    Each job runs on a freshly imported package, attached to ``tracer``
    when one is given.  ``times`` holds each job's seconds.  ``refs`` holds
    the same times as multiples of the reference loop, timed before the
    first job, after the last, and between jobs whenever ``REF_INTERVAL_S``
    has gone by; a job is divided by the mean of the two reference times
    around it.  ``setups``, when given, may set up again after each job.
    """

    def __init__(self, workload, paths, recorded, setups=None, tracer=None):
        self.times, self.refs, self.ref_s = [], [], []
        self.errors = []
        self.output_bytes = 0
        outputs = []
        before = machine_ref()
        since = perf_counter()
        pending = []
        for k, job in enumerate(workload.jobs):
            package = _fresh_import()
            gc.collect()
            with tracer.attached(package) if tracer else contextlib.nullcontext():
                code, out, elapsed = run_job(package, job.argv(paths))
            self.times.append(elapsed)
            outputs.append((job, code, out))
            pending.append(elapsed)
            if k == len(workload.jobs) - 1 or perf_counter() - since >= REF_INTERVAL_S:
                after = machine_ref()
                since = perf_counter()
                self.refs.extend(t / ((before + after) / 2) for t in pending)
                self.ref_s.append(after)
                before, pending = after, []
            if setups is not None:
                setups.due()
        for job, code, out in outputs:
            self.output_bytes += len(out.encode("utf-8"))
            want = recorded(job)
            problems = ["no recorded stdout digest"] if want == "" else \
                checks.check_job(job, code, out, want)
            if problems:
                self.errors.append(f"{job.id}: {'; '.join(problems)}")

    @property
    def wall(self) -> float:
        return sum(self.times)


def _digest_lookup(workload, seed):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name, {})

    def lookup(job):
        """The job's recorded digest, None when none applies, "" when absent."""
        if not (job.fixed_input or seed == DEFAULT_SEED):
            return None
        return recorded.get(job.id, "")
    return lookup


# -- the two kinds of run ---------------------------------------------------------


class Clock:
    """Decides whether another pass fits before the deadline.

    A pass starts only while at least half of one (as long as the last)
    still fits, so a run overshoots ``--seconds`` by half a pass at most.
    """

    def __init__(self, seconds: float):
        self.deadline = perf_counter() + seconds
        self.last = 0.0

    def timed(self, make):
        start = perf_counter()
        result = make()
        self.last = perf_counter() - start
        return result

    def more(self) -> bool:
        return perf_counter() + self.last / 2 < self.deadline


def untraced_run(workload, paths, recorded, seconds):
    """Passes until the deadline, with set-ups spread between the jobs.

    Spreading the set-ups over the run lets their median see the same
    drift of the host as the passes do.
    """
    passes = []
    setups = SetUps(workload, paths)
    clock = Clock(seconds)
    while not passes or clock.more():
        passes.append(clock.timed(lambda: Pass(workload, paths, recorded, setups)))
    work = sum(job.work for job in workload.jobs)

    def summary(per_pass):
        """One pass (the sum of each job's median), and the median over
        passes of each pass's job quartiles."""
        wall = sum(statistics.median(job) for job in zip(*per_pass))
        quartiles = [statistics.quantiles(p, n=4) for p in per_pass]
        return (wall, statistics.median(q[1] for q in quartiles),
                statistics.median(q[2] for q in quartiles))

    wall_ref, p50_ref, p75_ref = summary([p.refs for p in passes])
    wall_s, p50_s, p75_s = summary([p.times for p in passes])
    metrics = {
        "wall_ref": (wall_ref, "ref"),
        "setup_s": (statistics.median(setups.seconds), "s"),
        "job_ref.p50": (p50_ref, "ref"),
        "job_ref.p75": (p75_ref, "ref"),
        "work_per_ref": (work / wall_ref, "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    ref_s = statistics.median(r for p in passes for r in p.ref_s)
    unit = workload.work_unit
    raw = [("wall_s", wall_s, "s"), ("job_s.p50", p50_s, "s"),
           ("job_s.p75", p75_s, "s"), (f"{unit}_per_s", work / wall_s, "1/s"),
           ("ref_s", ref_s, "s")]
    notes = [f"passes {len(passes)}, jobs per pass {len(workload.jobs)}, "
             f"job samples {len(passes) * len(workload.jobs)}, set-ups "
             f"{len(setups.seconds)}; work_per_ref counts {unit}",
             "pass seconds: " + " ".join(f"{p.wall:.4f}" for p in passes),
             "in seconds as measured (not bounded; the host's speed drifts):"]
    notes += [f"  {name:34} {value:>16.9g} {u}" for name, value, u in raw]
    return passes, metrics, notes


_UNITS = {"_s": "s", "_ratio": "ratio", "_bits": "bits", "_bytes": "bytes",
          ".coverage": "ratio", ".sweeps": "count"}


def _unit(name: str) -> str:
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced_run(workload, paths, recorded, seconds):
    untraced, traced, per_pass = [], [], []
    clock = Clock(seconds)
    while not (untraced and traced) or clock.more():
        if len(untraced) <= len(traced):
            untraced.append(clock.timed(lambda: Pass(workload, paths, recorded)))
            continue
        tracer = tracing.Tracer()
        p = clock.timed(lambda: Pass(workload, paths, recorded, tracer=tracer))
        if tracer.missing:
            raise SystemExit("error: trace sites not found: "
                             + ", ".join(sorted(tracer.missing)))
        traced.append(p)
        values = tracer.metrics()
        values["cli.output_bytes"] = p.output_bytes
        values["trace.coverage"] = sum(tracer.layer_seconds().values()) / p.wall
        values["trace.pass_s"] = p.wall
        per_pass.append(values)
    passes = untraced + traced
    metrics = {name: (statistics.median(v[name] for v in per_pass), _unit(name))
               for name in per_pass[0]}
    traced_wall = metrics["trace.pass_s"][0]
    untraced_wall = statistics.median(p.wall for p in untraced)
    # compared in reference units, so that the host's drift between an
    # untraced and a traced pass does not read as overhead
    extra_ref = statistics.median(sum(p.refs) for p in traced) - \
        statistics.median(sum(p.refs) for p in untraced)
    ref_s = statistics.median(r for p in passes for r in p.ref_s)
    metrics["trace.overhead_s"] = (extra_ref * ref_s, "s")
    notes = [f"passes {len(untraced)} untraced, {len(traced)} traced; "
             f"untraced pass {untraced_wall:.4f} s, traced pass {traced_wall:.4f} s"]
    shares = ", ".join(f"{name} {value / traced_wall:.3f}"
                       for name, (value, unit) in sorted(metrics.items())
                       if unit == "s" and not name.startswith("trace."))
    notes.append(f"share of traced pass: {shares}")
    return passes, metrics, notes


# -- entry point ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poishom" / "__init__.py").is_file():
        print(f"error: no poishom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.build(args.workload, args.seed)
    scratch_root = HERE / ".work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        paths = workload.write(scratch)
        recorded = _digest_lookup(workload, args.seed)
        run = traced_run if args.trace else untraced_run
        passes, metrics, notes = run(workload, paths, recorded, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()
    attempted = sum(len(p.times) for p in passes)
    errors = [e for p in passes for e in p.errors]
    failed = len(errors)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    print(f"attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.6g}")
    for error in errors[:10]:
        print(f"FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
