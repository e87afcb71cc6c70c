"""Spans around the calls the benchmark's workloads make into each layer.

The tracer replaces module attributes with timing wrappers for the
duration of a ``with`` block and restores them afterwards, so nothing in
``src/`` changes.  Spans (name, start, end, parent) are kept in memory and
reduced to per-layer metrics when the traced pass ends.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

# names looked up at call time inside triring.cli, and the layer each belongs to
CLI_TARGETS = {
    "scenario": "cli.scenario",
    "run_sweep": "cli.run_sweep",
    "run_point": "cli.run_point",
    "build_hamiltonian": "model.build_hamiltonian",
    "collapse_operators": "model.collapse_operators",
    "build_liouvillian": "lindblad.build_liouvillian",
    "steady_state": "lindblad.steady_state",
    "transmission": "observables.transmission",
    "mean_occupation": "observables.mean_occupation",
    "photon_distribution": "observables.photon_distribution",
    "correlation_g_n": "observables.correlation_g_n",
    "scattering_matrix": "scattering.scattering_matrix",
    "transmission_closed_form": "scattering.transmission_closed_form",
    "emit_sweep": "cli.emit",
    "emit_table": "cli.emit",
}

# per-layer metrics a traced run reports: (name, unit, better)
LAYER_METRICS = (
    ("lindblad.gmres.s", "s", "lower"),
    ("lindblad.gmres.calls", "count", "lower"),
    ("lindblad.gmres.iterations", "count", "lower"),
    ("lindblad.refine_frac", "ratio", "lower"),
    ("lindblad.eig.s", "s", "lower"),
    ("lindblad.build_liouvillian.s", "s", "lower"),
    ("lindblad.build_liouvillian.calls", "count", "lower"),
    ("lindblad.liouvillian_nnz", "count", "lower"),
    ("lindblad.steady_state.s", "s", "lower"),
    ("lindblad.steady_state.calls", "count", "lower"),
    ("lindblad.spsolve.calls", "count", "lower"),
    ("model.build_hamiltonian.s", "s", "lower"),
    ("model.collapse_operators.s", "s", "lower"),
    ("fock.embed.s", "s", "lower"),
    ("observables.s", "s", "lower"),
    ("scattering.s", "s", "lower"),
    ("cli.self.s", "s", "lower"),
    ("cli.run_point.calls", "count", "lower"),
    ("cli.run_point.unique_frac", "ratio", "higher"),
    ("cli.emit.s", "s", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("cli.pool.child_cpu_s", "s", "lower"),
    ("cli.pool.cpu_per_point_s", "s", "lower"),
    ("cli.pool.utilization", "ratio", "higher"),
    ("cli.pool.invol_ctx_switches", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.gmres_iterations = 0
        self.liouvillian_nnz: list[int] = []
        self.point_keys: list[tuple] = []
        self.emitted_bytes = 0
        self._restore: list[tuple] = []

    def span(self, name: str, fn, on_call=None, on_result=None):
        """Return ``fn`` wrapped so each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        import numpy.linalg
        import scipy.sparse.linalg
        import triring.cli
        import triring.model

        hooks = {
            "run_point": dict(on_call=self._record_point),
            "build_liouvillian": dict(
                on_result=lambda liouv: self.liouvillian_nnz.append(liouv.data.nnz)
            ),
            "emit_sweep": dict(on_result=self._record_files),
            "emit_table": dict(on_result=self._record_files),
        }
        for attr, layer in CLI_TARGETS.items():
            fn = getattr(triring.cli, attr)
            self._patch(triring.cli, attr, self.span(layer, fn, **hooks.get(attr, {})))
        self._patch(triring.model, "embed", self.span("fock.embed", triring.model.embed))
        self._patch(numpy.linalg, "eig", self.span("lindblad.eig", numpy.linalg.eig))
        self._patch(
            scipy.sparse.linalg, "spsolve",
            self.span("lindblad.spsolve", scipy.sparse.linalg.spsolve),
        )
        self._patch(
            scipy.sparse.linalg, "gmres",
            self.span("lindblad.gmres", self._counting_gmres(scipy.sparse.linalg.gmres)),
        )
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _counting_gmres(self, gmres):
        def count(_residual_norm):
            self.gmres_iterations += 1

        @functools.wraps(gmres)
        def counted(*args, **kwargs):
            # a 'pr_norm' callback runs once per inner iteration and does
            # not alter the iteration itself
            if kwargs.get("callback") is None:
                kwargs.update(callback=count, callback_type="pr_norm")
            return gmres(*args, **kwargs)

        return counted

    def _record_point(self, args, kwargs) -> None:
        params = args[0] if args else kwargs["params"]
        dims = args[1] if len(args) > 1 else kwargs.get("dims")
        self.point_keys.append((params, None if dims is None else tuple(dims)))

    def _record_files(self, paths) -> None:
        self.emitted_bytes += sum(Path(p).stat().st_size for p in paths)

    def span_self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all spans of that name."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.span_self_times()):
            totals[span[0]] = totals.get(span[0], 0.0) + own
        return totals

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self) -> dict[str, float]:
        """The span-derived per-layer metrics (all but cli.pool.* and trace.*)."""
        self_s = self.self_times()

        def total(*names):
            return sum(self_s.get(n, 0.0) for n in names)

        solves = self.calls("lindblad.steady_state")
        gmres_calls = self.calls("lindblad.gmres")
        points = self.point_keys
        return {
            "lindblad.gmres.s": total("lindblad.gmres"),
            "lindblad.gmres.calls": gmres_calls,
            "lindblad.gmres.iterations": self.gmres_iterations,
            "lindblad.refine_frac": (gmres_calls - solves) / solves if solves else 0.0,
            "lindblad.eig.s": total("lindblad.eig"),
            "lindblad.build_liouvillian.s": total("lindblad.build_liouvillian"),
            "lindblad.build_liouvillian.calls": self.calls("lindblad.build_liouvillian"),
            "lindblad.liouvillian_nnz": (
                sum(self.liouvillian_nnz) / len(self.liouvillian_nnz)
                if self.liouvillian_nnz else 0.0
            ),
            "lindblad.steady_state.s": total("lindblad.steady_state"),
            "lindblad.steady_state.calls": solves,
            "lindblad.spsolve.calls": self.calls("lindblad.spsolve"),
            "model.build_hamiltonian.s": total("model.build_hamiltonian"),
            "model.collapse_operators.s": total("model.collapse_operators"),
            "fock.embed.s": total("fock.embed"),
            "observables.s": total(*(n for n in self_s if n.startswith("observables."))),
            "scattering.s": total(*(n for n in self_s if n.startswith("scattering."))),
            "cli.self.s": total("cli.run_point", "cli.run_sweep", "cli.scenario"),
            "cli.run_point.calls": len(points),
            "cli.run_point.unique_frac": len(set(points)) / len(points) if points else 0.0,
            "cli.emit.s": total("cli.emit"),
            "cli.emit.bytes": self.emitted_bytes,
        }
