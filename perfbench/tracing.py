"""Per-layer spans and counters, patched in from outside the package.

Nothing under ``src/`` changes: while a traced pass runs, the public
functions of each module are replaced by wrappers at every place they are
looked up, and put back afterwards.  That matters because several modules
import names directly:

* ``cli`` imports ``confluence_check``, ``gr_dimension_check``,
  ``nu_check``, ``duality_report``, ``homology_dims``, ``cohomology_dims``
  and ``dim_table_tsv`` by name;
* ``complexes``, ``structure`` and ``envelope`` import
  ``partial_derivative`` by name, and ``complexes`` and ``envelope`` import
  ``monomials_of_weight``;
* ``SparseMatrix.rank``, ``PoissonStructure.bracket`` and the rest are
  methods, so they are patched on the class.

A span patched at the wrong site would silently read zero, so every site
is listed explicitly, ``Tracer.missing`` names the ones that did not exist,
and a traced run with any missing site fails.

Each job runs on a freshly imported package (see ``run.py``), so the
tracer is attached to one package per job and accumulates over a pass.

Spans nest.  A span's self time is its duration minus the time of the
spans it contains, so a basis enumeration inside an assembly is counted
once, as basis time.  Time spent here on measuring matrices is charged to
no span (see ``_untimed``); it shows only in ``trace.overhead_s``.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["Tracer", "SPANS"]

# span name -> (module, attribute path) sites that are wrapped with it.
# The first site is the definition; the rest are by-name imports.
SPANS = {
    "cli.main": [("cli", "main")],
    "cli.render": [("complexes", "DualityReport.render_text"),
                   ("complexes", "DualityReport.render_tsv"),
                   ("complexes", "dim_table_tsv"), ("cli", "dim_table_tsv")],
    "specfile.load": [("specfile", "SpecDocument.load")],
    "structure.build": [("structure", "PoissonStructure.__init__")],
    "structure.bracket": [("structure", "PoissonStructure.bracket")],
    "complexes.duality": [("complexes", "duality_report"),
                          ("cli", "duality_report")],
    "complexes.sweep": [("complexes", "homology_dims"),
                        ("complexes", "cohomology_dims"),
                        ("cli", "homology_dims"), ("cli", "cohomology_dims")],
    "complexes.assembly": [("complexes", "boundary_matrix"),
                           ("complexes", "coboundary_matrix")],
    "complexes.basis": [("complexes", "chain_basis"),
                        ("complexes", "cochain_basis")],
    "linalg.rank": [("linalg", "SparseMatrix.rank")],
    "envelope.confluence": [("envelope", "confluence_check"),
                            ("cli", "confluence_check")],
    "envelope.gr": [("envelope", "gr_dimension_check"),
                    ("cli", "gr_dimension_check")],
    "envelope.nu": [("envelope", "nu_check"), ("cli", "nu_check")],
}

# counter name -> sites whose calls are counted without a span
COUNTED = {
    "polycore.partial_derivative_calls": [
        ("polycore", "partial_derivative"), ("complexes", "partial_derivative"),
        ("structure", "partial_derivative"), ("envelope", "partial_derivative")],
    "polycore.monomials_calls": [
        ("polycore", "monomials_of_weight"), ("complexes", "monomials_of_weight"),
        ("envelope", "monomials_of_weight")],
    "structure.omega_action_calls": [
        ("structure", "PoissonStructure.omega_h_action")],
    "envelope.reduce_calls": [("envelope", "reduce_combination")],
}

_MODULES = ("cli", "complexes", "envelope", "linalg", "polycore", "specfile",
            "structure")


def _coeff_bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    """Self times and counters for one traced pass over a job list."""

    def __init__(self):
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.calls: Counter = Counter()
        self.stats: Counter = Counter()
        self.max_stats: Counter = Counter()
        self.matrix_keys: set = set()
        self.missing: "set[str]" = set()
        self._stack: "list[list]" = []   # [name, child time] per open span

    # -- span bookkeeping ------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                self._untimed(after, args, result)
            return result
        return wrapper

    def _untimed(self, fn, *args) -> None:
        """Run measurement code and hide its time from the enclosing span."""
        start = perf_counter()
        fn(*args)
        if self._stack:
            self._stack[-1][1] += perf_counter() - start

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- measurements taken at layer boundaries -----------------------------

    def _on_rank(self, args, rank: int) -> None:
        m = args[0]
        self.stats["linalg.nnz"] += m.nnz()
        self.stats["linalg.dense_area"] += m.nrows * m.ncols
        self.stats["linalg.rank_sum"] += rank
        self.max_stats["linalg.max_dim"] = max(
            self.max_stats["linalg.max_dim"], m.nrows, m.ncols)
        bits = max((_coeff_bits(v) for v in m.entries.values()), default=0)
        self.max_stats["linalg.max_coeff_bits"] = max(
            self.max_stats["linalg.max_coeff_bits"], bits)

    def _on_assembly(self, args, cell) -> None:
        m = cell.matrix
        self.stats["complexes.columns"] += m.ncols
        self.stats["complexes.nnz"] += m.nnz()
        self.matrix_keys.add(hash((m.nrows, m.ncols, frozenset(m.entries.items()))))

    def _on_job(self, args, code) -> None:
        # repeats count within one invocation, the scope a cache could have
        self.stats["complexes.distinct_matrices"] += len(self.matrix_keys)
        self.matrix_keys.clear()

    def _on_basis(self, args, basis) -> None:
        self.stats["complexes.basis_elements"] += len(basis)

    def _on_sweep(self, args, table) -> None:
        if any(name == "complexes.duality" for name, _ in self._stack):
            self.stats["complexes.duality_sweeps"] += 1

    # -- patching ----------------------------------------------------------

    def _patch(self, modules, module: str, path: str, make, saved) -> None:
        owner = modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            self.missing.add(f"{module}.{path}")
            return
        saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    @contextlib.contextmanager
    def attached(self, package):
        """Patch every site of ``package`` while the block runs."""
        modules = {name: getattr(package, name) for name in _MODULES}
        after = {"cli.main": self._on_job,
                 "linalg.rank": self._on_rank,
                 "complexes.assembly": self._on_assembly,
                 "complexes.basis": self._on_basis,
                 "complexes.sweep": self._on_sweep}
        saved = []
        try:
            for name, sites in SPANS.items():
                for module, path in sites:
                    self._patch(modules, module, path,
                                lambda fn, n=name: self._span(n, fn, after.get(n)),
                                saved)
            for name, sites in COUNTED.items():
                for module, path in sites:
                    self._patch(modules, module, path,
                                lambda fn, n=name: self._counted(n, fn), saved)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> "dict[str, float]":
        """Per-layer metrics of the pass, by the names BENCHMARK.json uses."""
        s, c, st = self.self_s, self.calls, self.stats
        matrices = c["complexes.assembly"]
        duality_jobs = c["complexes.duality"]
        return {
            "linalg.rank_s": s["linalg.rank"],
            "linalg.rank_calls": c["linalg.rank"],
            "linalg.nnz": st["linalg.nnz"],
            "linalg.dense_area": st["linalg.dense_area"],
            "linalg.max_dim": self.max_stats["linalg.max_dim"],
            "linalg.max_coeff_bits": self.max_stats["linalg.max_coeff_bits"],
            "linalg.rank_sum": st["linalg.rank_sum"],
            "complexes.assembly_s": s["complexes.assembly"],
            "complexes.matrices": matrices,
            "complexes.columns": st["complexes.columns"],
            "complexes.nnz": st["complexes.nnz"],
            "complexes.distinct_matrix_ratio":
                st["complexes.distinct_matrices"] / matrices if matrices else 0.0,
            "complexes.sweeps":
                st["complexes.duality_sweeps"] / duality_jobs if duality_jobs else 0.0,
            "complexes.sweep_s": s["complexes.sweep"] + s["complexes.duality"],
            "complexes.basis_s": s["complexes.basis"],
            "complexes.basis_calls": c["complexes.basis"],
            "complexes.basis_elements": st["complexes.basis_elements"],
            "polycore.monomials_calls": c["polycore.monomials_calls"],
            "polycore.partial_derivative_calls": c["polycore.partial_derivative_calls"],
            "structure.bracket_s": s["structure.bracket"],
            "structure.bracket_calls": c["structure.bracket"],
            "structure.omega_action_calls": c["structure.omega_action_calls"],
            "structure.build_s": s["structure.build"],
            "specfile.load_s": s["specfile.load"],
            "envelope.confluence_s": s["envelope.confluence"],
            "envelope.reduce_calls": c["envelope.reduce_calls"],
            "envelope.gr_s": s["envelope.gr"],
            "envelope.nu_s": s["envelope.nu"],
            "cli.render_s": s["cli.render"],
            "cli.self_s": s["cli.main"],
        }

    def layer_seconds(self) -> "dict[str, float]":
        """Self time per span name, outer ``cli.main`` frame excluded."""
        return {name: t for name, t in self.self_s.items() if name != "cli.main"}
