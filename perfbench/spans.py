"""Span tracing of the package's layers, from outside the package.

``Tracer.install()`` wraps each traced function under every name that binds
it in a loaded ``spectral_intervals`` module (the modules bind names with
``from .x import y``), plus ``scipy.optimize.brentq`` / ``minimize_scalar``
and ``numpy.linalg.eigvals``, which are looked up when called.  A span is
(name, start, end, parent); spans stay in compact arrays until ``save``.
Self time is a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

from checks import root_count

PACKAGE = "spectral_intervals"

#: (module, attribute, span name); the span name of the CLI root is cli.main.
#: Spans without metrics of their own (spectral_matrix_check, probe_points,
#: ...) keep their time out of their callers' self time, cli.self_s above all.
TRACED = [
    ("cli", "main", "cli.main"),
    ("cli", "load_problem", "cli.load_problem"),
    ("spectrum", "compute_spectrum", "spectrum.compute_spectrum"),
    ("spectrum", "eigenvalue_distance", "spectrum.eigenvalue_distance"),
    ("spectrum", "nullspace_at", "spectrum.nullspace_at"),
    ("spectrum", "equal_length_spectrum", "spectrum.equal_length_spectrum"),
    ("spectrum", "spectral_matrix_check", "spectrum.spectral_matrix_check"),
    ("paths", "enumerate_paths", "paths.enumerate_paths"),
    ("paths", "cumulative_sums", "paths.cumulative_sums"),
    ("paths", "path_sum_by_end", "paths.path_sum_by_end"),
    ("paths", "local_translation_identities", "paths.local_translation_identities"),
    ("evolution", "apply_U_paths", "evolution.apply_U_paths"),
    ("evolution", "evolve_point", "evolution.evolve_point"),
    ("evolution", "local_translation_test", "evolution.local_translation_test"),
    ("evolution", "inner_product", "evolution.inner_product"),
    ("evolution", "probe_points", "evolution.probe_points"),
    ("analysis", "spectral_pair_evidence", "analysis.spectral_pair_evidence"),
    ("analysis", "exp_gram", "analysis.exp_gram"),
    ("analysis", "structure_suite", "analysis.structure_suite"),
    ("analysis", "multiplicative_spectral_suite", "analysis.multiplicative_spectral_suite"),
    ("analysis", "forelli_spectral_suite", "analysis.forelli_spectral_suite"),
    ("intervals", "gap_decomposition", "intervals.gap_decomposition"),
    ("intervals", "tiles_by_lattice", "intervals.tiles_by_lattice"),
    ("boundary", "eig_unitary", "boundary.eig_unitary"),
    ("boundary", "classify_structure", "boundary.classify_structure"),
    ("boundary", "require_unitary", "boundary.require_unitary"),
]

#: methods, patched on their class: (module, class, method, span name)
TRACED_METHODS = [("evolution", "PiecewiseExpPoly", "evaluate", "evolution.evaluate")]

#: per-layer metrics: name -> unit.  Times and counts are per CLI op.
PER_LAYER = {
    "spectrum.compute_spectrum.calls": "count/op",
    "spectrum.compute_spectrum.busy_s": "s/op",
    "spectrum.compute_spectrum.self_s": "s/op",
    "spectrum.eigenvalue_distance.calls": "count/op",
    "spectrum.eigenvalue_distance.busy_s": "s/op",
    "spectrum.eig_matrices": "count/op",
    "spectrum.refine.calls": "count/op",
    "spectrum.refine.busy_s": "s/op",
    "spectrum.refine_yield": "ratio",
    "spectrum.nullspace_at.calls": "count/op",
    "spectrum.nullspace_at.busy_s": "s/op",
    "spectrum.roots_missed": "count/op",
    "spectrum.empty_eigenspaces": "count/op",
    "paths.enumerate_paths.calls": "count/op",
    "paths.enumerate_paths.busy_s": "s/op",
    "paths.enumerate_paths.paths_out": "count/op",
    "paths.enumerate_paths.guard_trips": "count/op",
    "paths.ends_per_path": "ratio",
    "paths.cumulative_sums.busy_s": "s/op",
    "paths.cumulative_sums.sums_out": "count/op",
    "paths.path_sum_by_end.busy_s": "s/op",
    "paths.local_translation_identities.busy_s": "s/op",
    "evolution.apply_U_paths.busy_s": "s/op",
    "evolution.apply_U_paths.self_s": "s/op",
    "evolution.apply_U_paths.pieces_out": "count/op",
    "evolution.apply_U_paths.atoms_out": "count/op",
    "evolution.evolve_point.calls": "count/op",
    "evolution.evolve_point.busy_s": "s/op",
    "evolution.local_translation_test.busy_s": "s/op",
    "evolution.inner_product.calls": "count/op",
    "evolution.inner_product.busy_s": "s/op",
    "analysis.spectral_pair_evidence.busy_s": "s/op",
    "analysis.spectral_pair_evidence.self_s": "s/op",
    "analysis.exp_gram.busy_s": "s/op",
    "analysis.exp_gram.entries": "count/op",
    "analysis.structure_suite.busy_s": "s/op",
    "analysis.structure_suite.self_s": "s/op",
    "analysis.multiplicative_spectral_suite.busy_s": "s/op",
    "analysis.forelli_spectral_suite.busy_s": "s/op",
    "intervals.gap_decomposition.calls": "count/op",
    "intervals.gap_decomposition.busy_s": "s/op",
    "intervals.gap_decomposition.failures": "count/op",
    "intervals.tiles_by_lattice.busy_s": "s/op",
    "boundary.eig_unitary.calls": "count/op",
    "boundary.eig_unitary.busy_s": "s/op",
    "boundary.classify_structure.busy_s": "s/op",
    "boundary.require_unitary.busy_s": "s/op",
    "cli.load_problem.busy_s": "s/op",
    "cli.self_s": "s/op",
    "import.package_s": "s",
    "import.deps_s": "s",
    "probe.failed_ops": "count",
    "trace.overhead_share": "ratio",
}


class Tracer:
    """In-memory spans and boundary counters of the traced ops of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._spectrum_depth = 0
        self._paused = False
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None, on_error=None):
        nid = self._id(name)
        spectral = name.startswith("spectrum.")
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            if spectral:
                self._spectrum_depth += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if spectral:
                    self._spectrum_depth -= 1
            if after is not None:
                self._paused = True
                try:
                    after(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the result has another shape than at the seed: the counter reads 0
                finally:
                    self._paused = False
            return result

        return wrapper

    # -- boundary counters --------------------------------------------------

    def _after_compute_spectrum(self, args, kwargs, rep):
        omega, b = args[0], args[1]
        dims = [len(basis) for basis in rep.eigenspaces]
        self.count("roots_accepted", len(rep.eigenvalues))
        self.count("empty_eigenspaces", dims.count(0))
        n_cert = root_count(omega.lefts, omega.rights, np.asarray(b), *rep.window)
        self.count("roots_missed", max(0, round(n_cert) - sum(dims)))

    def _count_eigvals(self, fn):
        @functools.wraps(fn)
        def eigvals(a, *args, **kwargs):
            if self._spectrum_depth and not self._paused:
                shape = np.shape(a)
                self.count("eig_matrices", int(np.prod(shape[:-2], dtype=np.int64)))
            return fn(a, *args, **kwargs)

        return eigvals

    def _hooks(self):
        c = self.count
        guard = sys.modules[PACKAGE + ".errors"].GuardExceeded
        return {
            "spectrum.compute_spectrum": (self._after_compute_spectrum, None),
            "paths.enumerate_paths": (
                lambda a, k, r: c("paths_out", len(r)),
                lambda e: c("guard_trips") if isinstance(e, guard) else None,
            ),
            "paths.path_sum_by_end": (
                lambda a, k, r: (c("paths_in", len(a[0])), c("ends_out", len(r.sums))),
                None,
            ),
            "paths.cumulative_sums": (lambda a, k, r: c("sums_out", len(r)), None),
            "evolution.apply_U_paths": (
                lambda a, k, r: (
                    c("pieces_out", len(r.function.pieces)),
                    c("atoms_out", sum(len(p.atoms) for p in r.function.pieces)),
                ),
                None,
            ),
            "analysis.exp_gram": (lambda a, k, r: c("gram_entries", r.size), None),
            "intervals.gap_decomposition": (None, lambda e: c("gap_failures")),
        }

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg
        import scipy.optimize

        hooks = self._hooks()
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod, attr, name in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            orig = getattr(home, attr, None)
            if orig is None:
                continue  # the function is gone: its metrics read 0
            wrapper = self.wrap(orig, name, *hooks.get(name, (None, None)))
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, binding, wrapper)
        for mod, cls_name, method, name in TRACED_METHODS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), cls_name, None)
            if cls is not None and hasattr(cls, method):
                self._patch(cls, method, self.wrap(getattr(cls, method), name))
        for attr in ("brentq", "minimize_scalar"):
            self._patch(scipy.optimize, attr, self.wrap(getattr(scipy.optimize, attr), "spectrum.refine"))
        self._patch(numpy.linalg, "eigvals", self._count_eigvals(numpy.linalg.eigvals))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds)."""
        if not len(self.start):
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        busy = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(busy[i]), float(own[i])) for i, n in enumerate(self.names)}

    def metrics(self, ops: int) -> dict[str, float]:
        """The per-layer metrics other than import.* and trace.*."""
        agg = self.per_name()
        get = self.counters.get

        def calls(name):
            return agg.get(name, (0, 0.0, 0.0))[0]

        out: dict[str, float] = {}
        for metric in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if field in ("calls", "busy_s", "self_s") and layer != "cli":
                calls_, busy, own = agg.get(layer, (0, 0.0, 0.0))
                value = {"calls": calls_, "busy_s": busy, "self_s": own}[field]
                out[metric] = value / ops
        out["spectrum.refine_yield"] = ratio(get("roots_accepted", 0), calls("spectrum.refine"))
        out["spectrum.eig_matrices"] = get("eig_matrices", 0) / ops
        out["spectrum.roots_missed"] = get("roots_missed", 0) / ops
        out["spectrum.empty_eigenspaces"] = get("empty_eigenspaces", 0) / ops
        out["paths.enumerate_paths.paths_out"] = get("paths_out", 0) / ops
        out["paths.enumerate_paths.guard_trips"] = get("guard_trips", 0) / ops
        out["paths.ends_per_path"] = ratio(get("ends_out", 0), get("paths_in", 0))
        out["paths.cumulative_sums.sums_out"] = get("sums_out", 0) / ops
        out["evolution.apply_U_paths.pieces_out"] = get("pieces_out", 0) / ops
        out["evolution.apply_U_paths.atoms_out"] = get("atoms_out", 0) / ops
        out["analysis.exp_gram.entries"] = get("gram_entries", 0) / ops
        out["intervals.gap_decomposition.failures"] = get("gap_failures", 0) / ops
        out["cli.self_s"] = agg.get("cli.main", (0, 0.0, 0.0))[2] / ops
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
