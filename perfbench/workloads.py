"""Seeded inputs for the poishom benchmark.

A workload is a list of jobs.  A job is the argv a user would type after
``poishom``, together with what the generator knows about the answer before
the program runs: the variable weights, the weight shift d - 2 of the
bracket, and whether the structure is unimodular or log-canonical.  The
program only ever sees the generated JSON documents (or a ``catalog:<id>``
argument); the expectations stay on the benchmark side and feed the output
checks in ``checks.py``.

Why these workloads:

* ``so3-deep`` -- ``duality`` at weight 7 and canonical ``homology`` at
  weights 9 and 10 on catalog ``so3``.  Few, large cells (up to a few
  hundred rows), so exact rank takes about half the time and assembly most
  of the rest.  so3 is unimodular, so ``duality`` runs three sweeps and its
  canonical matrices repeat the twisted ones; it has only the weight
  grading, so splitting cells by a finer grading should leave it unchanged.
  The input is fixed: the seed only orders the jobs.  Three jobs of
  distinct cost put the latency percentiles inside a job rather than on
  the edge between two.  Higher weights (the ROADMAP's w <= 12 takes 17 s
  per duality job) would leave too few passes in a run for steady medians.
* ``graded-batch`` -- forty generated documents, each run as ``duality`` at
  a low weight bound.  Many small cells, so matrix assembly, document
  set-up and per-job latency dominate, and a job list long enough for
  latency percentiles.  The families are fixed slots (weights, bound and
  shape of every bracket entry) whose coefficients come from the seed, so
  the cost of a batch varies little from seed to seed:
    - weighted log-canonical brackets {x_i, x_j} = a_ij x_i x_j with
      rational a_ij, l = 3 and l = 4.  Every entry is non-zero, and a
      fixed share of them have zero row sums and so are unimodular.  They
      carry the full Z^l multidegree.  l = 4 gives four Jacobi triples per
      document at set-up;
    - l = 3 Jacobian brackets {x_i, x_j} = eps_ijk d(phi)/dx_k from random
      weighted-homogeneous potentials phi.  They are always Poisson and
      unimodular, have general (not monomial) entries, and carry only the
      weight grading.
* ``pbw-words`` -- ``pbw --samples N`` on catalog and generated structures,
  with ``--nu`` on the log-canonical ones.  Rewriting in the enveloping
  algebra exercises the same ``structure`` and ``polycore`` code as matrix
  assembly, on general rational polynomials instead of monomials, and
  does no ``complexes`` or ``linalg`` work: a change to rank or assembly
  should leave it unchanged.

l = 5 duality is left out: at w <= 2 one job takes over a minute with
cochain cells of dimension 1260.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

__all__ = ["WORKLOADS", "Doc", "Job", "Workload", "build", "monomial_count",
           "monomials"]

WORKLOADS = ("so3-deep", "graded-batch", "pbw-words")

# Weight bounds and sample counts, chosen so one pass over a job list takes
# a few seconds on one core and every job passes at the seed.
SO3_DUALITY_WEIGHT = 7
SO3_HOMOLOGY_WEIGHTS = (9, 10)
LC3_WEIGHT = 3
LC4_WEIGHT = 0
JACOBIAN_WEIGHT = 2
PBW_SAMPLES = 60
NU_SAMPLES = 20  # fixed inside ``nu_check``; the check reads it back

# Fixed family slots of graded-batch: (weights, unimodular) for the
# log-canonical members and (weights, potential weight, terms) for the
# Jacobian ones.  Slots fix the shape of every cell, the seed fills in
# coefficients and monomials.
# The l = 4 members are the costliest jobs; there are enough of them (12 of
# 40) that the 75th latency percentile falls inside their group rather than
# on the edge between two groups, where it would jump from seed to seed.
_LC3_SLOTS = [((1, 1, 1), False), ((1, 1, 2), False), ((1, 2, 2), True),
              ((1, 1, 1), True), ((1, 2, 3), False), ((1, 1, 2), False),
              ((1, 2, 2), False), ((1, 1, 1), False), ((1, 1, 2), True),
              ((1, 2, 3), False)]
_LC4_SLOTS = [((1, 1, 1, 1), False), ((1, 1, 1, 2), True),
              ((1, 1, 2, 2), False), ((1, 2, 2, 2), True)] * 3
_JACOBIAN_SLOTS = [((1, 1, 1), 3, 3), ((1, 1, 2), 4, 3), ((1, 1, 1), 4, 3),
                   ((1, 2, 2), 5, 3), ((1, 1, 2), 5, 4), ((1, 1, 1), 4, 4)] * 3

# The lighter Jacobian slots, so that only the two l = 4 jobs stand out
# and the 75th latency percentile falls among many jobs of similar cost.
_PBW_JACOBIAN_SLOTS = [_JACOBIAN_SLOTS[k] for k in (0, 1, 3)] * 2

_PBW_CATALOG = [("so3", False), ("potential-x2z", False),
                ("log-canonical-3", True), ("log-canonical-3u", True)]

_CATALOG_FACTS = {
    # id: (weights, weight shift, unimodular, log-canonical)
    "so3": ((1, 1, 1), -1, True, False),
    "potential-x2z": ((1, 1, 1), 0, True, False),
    "log-canonical-3": ((1, 1, 1), 0, False, True),
    "log-canonical-3u": ((1, 1, 1), 0, True, True),
}

_NAMES = ("x", "y", "z", "t")


@dataclass(frozen=True)
class Doc:
    """One structure handed to the program, with its known invariants."""

    name: str
    data: "dict | None"          # JSON document; None for a catalog entry
    weights: "tuple[int, ...]"
    shift: int                   # weight shift d - 2 of the bracket
    unimodular: bool
    log_canonical: bool

    @property
    def catalog_id(self) -> "str | None":
        return self.name if self.data is None else None


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``poishom <command> <doc> <flags...>``."""

    doc: Doc
    command: str
    flags: "tuple[str, ...]"

    @property
    def id(self) -> str:
        return " ".join((self.command, self.doc.name) + self.flags)

    @property
    def fixed_input(self) -> bool:
        """True when the input does not depend on the seed."""
        return self.doc.catalog_id is not None

    def argv(self, paths: "dict[str, str]") -> "list[str]":
        return [self.command, paths[self.doc.name], *self.flags]

    def flag(self, name: str) -> "str | None":
        if name not in self.flags:
            return None
        return self.flags[self.flags.index(name) + 1]

    @property
    def work(self) -> int:
        """Printed (n, w) table cells, or words reduced under both strategies."""
        if self.command == "pbw":
            return int(self.flag("--samples"))
        return (len(self.doc.weights) + 1) * (int(self.flag("--max-weight")) + 1)


@dataclass(frozen=True)
class Workload:
    name: str
    docs: "tuple[Doc, ...]"
    jobs: "tuple[Job, ...]"
    work_unit: str               # what ``work_per_ref`` counts

    def write(self, directory: Path) -> "dict[str, str]":
        """Write the generated documents; map each doc name to its argument."""
        paths = {}
        for doc in self.docs:
            if doc.data is None:
                paths[doc.name] = f"catalog:{doc.name}"
                continue
            path = directory / f"{doc.name}.json"
            path.write_text(json.dumps(doc.data, indent=1) + "\n", encoding="utf-8")
            paths[doc.name] = str(path)
        return paths


# -- monomial counting (independent of poishom) ------------------------------


def monomial_count(weights: "tuple[int, ...]", w: int) -> int:
    """Number of monomials of weighted degree exactly w."""
    if w < 0:
        return 0
    ways = [1] + [0] * w
    for wt in weights:
        for v in range(wt, w + 1):
            ways[v] += ways[v - wt]
    return ways[w]


def monomials(weights: "tuple[int, ...]", w: int) -> "list[tuple[int, ...]]":
    """Exponent vectors of weighted degree exactly w."""
    if not weights:
        return [()] if w == 0 else []
    out = []
    for e in range(w // weights[0] + 1):
        for rest in monomials(weights[1:], w - e * weights[0]):
            out.append((e,) + rest)
    return out


# -- generators ------------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 4))


def _scalar(c: Fraction) -> "int | str":
    return c.numerator if c.denominator == 1 else str(c)


def _vars(weights: "tuple[int, ...]") -> list:
    return [{"name": n, "weight": w} for n, w in zip(_NAMES, weights)]


def _log_canonical(rng: random.Random, name: str, weights: "tuple[int, ...]",
                   unimodular: bool) -> Doc:
    ell = len(weights)
    last = ell - 1
    pairs = list(combinations(range(ell), 2))
    while True:
        a = [[Fraction(0)] * ell for _ in range(ell)]
        for i, j in pairs:
            if j < last or not unimodular:
                a[i][j], a[j][i] = (c := _rational(rng)), -c
        if unimodular:
            # the last column absorbs every row sum; the last row then sums
            # to zero by antisymmetry
            for i in range(last):
                a[i][last] = -sum(a[i][:last], Fraction(0))
                a[last][i] = -a[i][last]
        if all(a[i][j] for i, j in pairs) and \
                unimodular == all(sum(row) == 0 for row in a):
            break
    data = {"label": name, "vars": _vars(weights),
            "matrix": [[_scalar(c) for c in row] for row in a]}
    return Doc(name, data, weights, 0, unimodular, True)


def _poly_text(terms: "dict[tuple[int, ...], Fraction]") -> str:
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        factors = [f"{n}^{e}" if e > 1 else n
                   for n, e in zip(_NAMES, exps) if e]
        parts.append("*".join([f"({c})"] + factors))
    return " + ".join(parts)


def _derivative(terms: "dict[tuple[int, ...], Fraction]", k: int):
    out = {}
    for exps, c in terms.items():
        if exps[k]:
            out[exps[:k] + (exps[k] - 1,) + exps[k + 1:]] = c * exps[k]
    return out


def _jacobian(rng: random.Random, name: str, weights: "tuple[int, int, int]",
              degree: int, nterms: int) -> Doc:
    # The support of phi is fixed per slot and only its coefficients come
    # from the seed: the support sets the size of every bracket entry and so
    # most of the cost, which would otherwise swing from seed to seed.
    pool = monomials(weights, degree)
    support_rng = random.Random(f"{name}:{weights}:{degree}:{nterms}")
    while True:
        chosen = support_rng.sample(pool, nterms)
        if all(any(m[k] for m in chosen) for k in range(3)):
            break
    phi = {m: _rational(rng) for m in sorted(chosen)}
    x, y, z = _NAMES[:3]
    bracket = {}
    for key, k in ((f"{x},{y}", 2), (f"{y},{z}", 0), (f"{z},{x}", 1)):
        d = _derivative(phi, k)
        if d:
            bracket[key] = _poly_text(d)
    data = {"label": name, "vars": _vars(weights), "bracket": bracket}
    return Doc(name, data, weights, degree - sum(weights), True, False)


def _catalog(entry_id: str) -> Doc:
    weights, shift, unimodular, log_canonical = _CATALOG_FACTS[entry_id]
    return Doc(entry_id, None, weights, shift, unimodular, log_canonical)


def _graded_batch(rng: random.Random) -> Workload:
    docs, jobs = [], []
    for k, (weights, unimodular) in enumerate(_LC3_SLOTS):
        doc = _log_canonical(rng, f"lc3-{k:02d}", weights, unimodular)
        docs.append(doc)
        jobs.append(Job(doc, "duality", ("--max-weight", str(LC3_WEIGHT))))
    for k, (weights, unimodular) in enumerate(_LC4_SLOTS):
        doc = _log_canonical(rng, f"lc4-{k:02d}", weights, unimodular)
        docs.append(doc)
        jobs.append(Job(doc, "duality", ("--max-weight", str(LC4_WEIGHT))))
    for k, (weights, degree, nterms) in enumerate(_JACOBIAN_SLOTS):
        doc = _jacobian(rng, f"jac-{k:02d}", weights, degree, nterms)
        docs.append(doc)
        jobs.append(Job(doc, "duality", ("--max-weight", str(JACOBIAN_WEIGHT))))
    return Workload("graded-batch", tuple(docs), tuple(jobs), "cells")


def _so3_deep(rng: random.Random) -> Workload:
    doc = _catalog("so3")
    jobs = [Job(doc, "duality", ("--max-weight", str(SO3_DUALITY_WEIGHT)))]
    jobs += [Job(doc, "homology", ("--max-weight", str(w)))
             for w in SO3_HOMOLOGY_WEIGHTS]
    rng.shuffle(jobs)
    return Workload("so3-deep", (doc,), tuple(jobs), "cells")


def _pbw_words(rng: random.Random) -> Workload:
    docs, jobs = [], []
    samples = ("--samples", str(PBW_SAMPLES))
    for entry_id, nu in _PBW_CATALOG:
        doc = _catalog(entry_id)
        docs.append(doc)
        jobs.append(Job(doc, "pbw", samples + (("--nu",) if nu else ())))
    generated = [
        _log_canonical(rng, f"lc3-{k:02d}", weights, unimodular)
        for k, (weights, unimodular) in enumerate(_LC3_SLOTS[:6])
    ] + [
        _log_canonical(rng, f"lc4-{k:02d}", weights, unimodular)
        for k, (weights, unimodular) in enumerate(_LC4_SLOTS[:2])
    ] + [
        _jacobian(rng, f"jac-{k:02d}", weights, degree, nterms)
        for k, (weights, degree, nterms) in enumerate(_PBW_JACOBIAN_SLOTS)
    ]
    for doc in generated:
        docs.append(doc)
        jobs.append(Job(doc, "pbw", samples + (("--nu",) if doc.log_canonical else ())))
    return Workload("pbw-words", tuple(docs), tuple(jobs), "words")


_BUILDERS = {"so3-deep": _so3_deep, "graded-batch": _graded_batch, "pbw-words": _pbw_words}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; the same seed gives the same inputs."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))
