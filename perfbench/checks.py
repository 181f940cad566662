"""Output checks for one job.

Every check compares the program's stdout with facts the benchmark knows
on its own: the generator's invariants (weights, weight shift, unimodular,
log-canonical), chain and cochain dimensions counted here from the weights
alone, and stdout digests recorded at the seed commit.  A job that fails
any check counts toward ``failed``.
"""

from __future__ import annotations

import hashlib
import re
from itertools import combinations

from workloads import NU_SAMPLES, Job, monomial_count

__all__ = ["check_job", "digest"]

_SHIFTS = re.compile(r"^expected shift: (-?\d+); fitting shifts: (.*)$", re.M)
_ROW = re.compile(r"^\s*(\d+)\s+(-?\d+)\s+(\d+)\s+(\d+)\s+(yes|NO)$", re.M)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _chain_dim(weights, n: int, w: int) -> int:
    """dim of the chain cell (n, w): sum over |I| = n of #monomials."""
    return sum(monomial_count(weights, w - sum(weights[i] for i in index))
               for index in combinations(range(len(weights)), n))


def _cochain_dim(weights, n: int, w: int) -> int:
    return sum(monomial_count(weights, w + sum(weights[i] for i in index))
               for index in combinations(range(len(weights)), n))


def _euler_errors(table, dim, ell: int, step: int, lo: int, hi: int,
                  floor: int, what: str) -> "list[str]":
    """Compare Euler characteristics along every complete diagonal.

    A diagonal is the set of cells one differential links: along it the
    weight changes by ``step`` per unit of n.  Cells below ``floor`` are
    zero, and the table covers weights lo..hi.  A diagonal is complete when
    each of its possibly non-zero cells lies in the table.
    """
    errors = []
    anchors = {w - n * step for n in range(ell + 1) for w in range(lo, hi + 1)}
    for c in sorted(anchors):
        cells = [(n, c + n * step) for n in range(ell + 1)]
        live = [(n, w) for n, w in cells if w >= floor]
        if not live or any(not lo <= w <= hi for _, w in live):
            continue
        got = sum((-1) ** n * table[(n, w)] for n, w in live)
        want = sum((-1) ** n * dim(n, w) for n, w in live)
        if got != want:
            errors.append(f"{what} Euler characteristic {got} != {want} "
                          f"on the diagonal through {live[0]}")
    return errors


def _check_duality(job: Job, out: str) -> "list[str]":
    doc = job.doc
    ell, weights, shift = len(doc.weights), doc.weights, doc.shift
    top = int(job.flag("--max-weight"))
    s = sum(weights)
    errors = []
    m = _SHIFTS.search(out)
    if not m:
        return ["no shift line"]
    fitting = [int(v) for v in m.group(2).split(", ")] if m.group(2) != "none" else []
    if int(m.group(1)) != s:
        errors.append(f"expected shift {m.group(1)}, want {s}")
    if s not in fitting:
        errors.append(f"expected shift {s} is not among fitting shifts {fitting}")
    want_line = ("unimodular: yes (canonical homology equals twisted: yes)"
                 if doc.unimodular else "unimodular: no")
    if want_line not in out.splitlines():
        errors.append(f"missing line {want_line!r}")
    if out.rstrip("\n").splitlines()[-1] != "result: PASS":
        errors.append("verdict is not 'result: PASS'")
    rows = _ROW.findall(out)
    if len(rows) != (ell + 1) * (top + 1):
        return errors + [f"{len(rows)} table rows, want {(ell + 1) * (top + 1)}"]
    twisted, cohom = {}, {}
    for n, w, t, c, ok in rows:
        n, w = int(n), int(w)
        twisted[(n, w)] = int(t)
        cohom[(ell - n, w - s)] = int(c)
        if (ok == "yes") != (t == c):
            errors.append(f"row ({n}, {w}) marks {ok} for {t} vs {c}")
    # the boundary lowers n and adds `shift` to the weight; the coboundary
    # raises n and adds `shift`
    errors += _euler_errors(twisted, lambda n, w: _chain_dim(weights, n, w),
                            ell, -shift, 0, top, 0, "homology")
    errors += _euler_errors(cohom, lambda n, w: _cochain_dim(weights, n, w),
                            ell, shift, -s, top - s, -s, "cohomology")
    return errors


def _check_homology(job: Job, out: str) -> "list[str]":
    """Canonical homology: the grid's shape and its Euler characteristics."""
    doc = job.doc
    ell, top = len(doc.weights), int(job.flag("--max-weight"))
    lines = out.splitlines()
    want_title = f"homology dimensions (canonical), weights 0..{top}"
    if not lines or lines[0] != want_title:
        return [f"first line is not {want_title!r}"]
    grid = [line.split() for line in lines[2:]]
    if len(grid) != ell + 1 or any(len(row) != top + 2 for row in grid):
        return [f"grid is not {ell + 1} rows of {top + 1} weights"]
    table = {(int(row[0]), w): int(v) for row in grid
             for w, v in enumerate(row[1:])}
    return _euler_errors(table, lambda n, w: _chain_dim(doc.weights, n, w),
                         ell, -doc.shift, 0, top, 0, "homology")


def _check_pbw(job: Job, out: str) -> "list[str]":
    lines = out.splitlines()
    samples = int(job.flag("--samples"))
    errors = []
    if f"confluence: ok ({samples} words)" not in lines:
        errors.append("missing confluence verdict")
    if "--nu" in job.flags:
        ell = len(job.doc.weights)
        relations = ell * (ell - 1) + ell * (ell - 1) // 2
        want = f"twist: ok ({relations} relations, {NU_SAMPLES} samples)"
        if want not in lines:
            errors.append(f"missing line {want!r}")
    return errors


_CHECKS = {"duality": _check_duality, "homology": _check_homology,
           "pbw": _check_pbw}


def check_job(job: Job, code: int, out: str,
              recorded: "str | None") -> "list[str]":
    """Reasons the job's result is wrong; empty when it is right.

    ``recorded`` is the seed commit's stdout digest for this job, when one
    applies (fixed inputs, or the default seed).
    """
    if code != 0:
        return [f"exit code {code}"]
    errors = _CHECKS[job.command](job, out)
    if recorded is not None and digest(out) != recorded:
        errors.append("stdout differs from the recorded seed output")
    return errors
