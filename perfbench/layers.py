"""Per-layer counters and spans, recorded by wrapping bidopt's public calls.

The wrappers are installed from the benchmark's own files; the program is
not changed.  Public functions are replaced in every ``bidopt`` module that
holds them, methods on their class, and scipy's ``linprog``, ``brentq`` and
``minimize_scalar`` at the names through which ``bidopt.solver`` reaches
them (counting only calls made from that module).  A target that no longer
exists is skipped, and its metrics read zero.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (layer, module, attribute): functions replaced wherever bidopt holds them
FUNCTIONS = [
    ("model.feasibility", "bidopt.model", "check_adequate_supply"),
    ("model.parse", "bidopt.model", "instance_from_json"),
    ("solver.solve_dual", "bidopt.solver", "solve_dual"),
    ("solver.recover_primal", "bidopt.solver", "recover_primal"),
    ("solver.certify", "bidopt.solver", "certify"),
    ("solver.solution_from_json", "bidopt.solver", "solution_from_json"),
    ("curves.fit_empirical", "bidopt.curves", "fit_empirical"),
    ("simulate.simulate", "bidopt.simulate", "simulate"),
]
# (layer, module, class, method)
METHODS = [
    ("costs.conjugate", "bidopt.costs", "AcquisitionCost", "conjugate"),
    ("costs.win_probability", "bidopt.costs", "AcquisitionCost", "win_probability"),
    ("costs.bid_mapping", "bidopt.costs", "AcquisitionCost", "bid_mapping"),
    ("curves.inverse", "bidopt.curves", "SupplyCurve", "inverse"),
]
# (layer, module, attribute): scipy routines as bidopt.solver looks them up;
# linprog and minimize_scalar are imported inside solver functions at call time
SOLVER_CALLEES = [
    ("solver.lp", "scipy.optimize", "linprog"),
    ("solver.root", "bidopt.solver", "brentq"),
    ("solver.scalar_min", "scipy.optimize", "minimize_scalar"),
]
# layers whose spans are kept; the hot kernels are only counted
SPANNED = {
    "model.feasibility", "model.parse", "solver.solve_dual", "solver.recover_primal",
    "solver.certify", "solver.solution_from_json", "solver.lp", "simulate.simulate",
    "curves.fit_empirical",
}

# per_layer metric name -> (layer, field)
METRICS = {
    "model.feasibility_calls": ("model.feasibility", "calls"),
    "model.feasibility_s": ("model.feasibility", "s"),
    "model.parse_s": ("model.parse", "s"),
    "solver.solve_dual_s": ("solver.solve_dual", "s"),
    "solver.lp_calls": ("solver.lp", "calls"),
    "solver.lp_iterations": ("solver.lp", "iterations"),
    "solver.lp_rows_max": ("solver.lp", "rows_max"),
    "solver.lp_s": ("solver.lp", "s"),
    "solver.root_calls": ("solver.root", "calls"),
    "solver.root_s": ("solver.root", "s"),
    "solver.scalar_min_calls": ("solver.scalar_min", "calls"),
    "solver.scalar_min_s": ("solver.scalar_min", "s"),
    "solver.recover_primal_calls": ("solver.recover_primal", "calls"),
    "solver.recover_primal_s": ("solver.recover_primal", "s"),
    "solver.certify_s": ("solver.certify", "s"),
    "solver.solution_from_json_s": ("solver.solution_from_json", "s"),
    "costs.conjugate_calls": ("costs.conjugate", "calls"),
    "costs.conjugate_s": ("costs.conjugate", "s"),
    "costs.win_probability_calls": ("costs.win_probability", "calls"),
    "costs.win_probability_s": ("costs.win_probability", "s"),
    "costs.bid_mapping_calls": ("costs.bid_mapping", "calls"),
    "curves.inverse_calls": ("curves.inverse", "calls"),
    "curves.inverse_s": ("curves.inverse", "s"),
    "curves.fit_empirical_s": ("curves.fit_empirical", "s"),
    "simulate.simulate_s": ("simulate.simulate", "s"),
    "simulate.arrivals": ("simulate.simulate", "arrivals"),
}


def _lp_extra(stats: dict, args, kwargs, result) -> None:
    stats["iterations"] = stats.get("iterations", 0) + int(getattr(result, "nit", 0))
    rows = sum(m.shape[0] for m in (kwargs.get("A_ub"), kwargs.get("A_eq")) if m is not None)
    stats["rows_max"] = max(stats.get("rows_max", 0), rows)


def _simulate_extra(stats: dict, args, kwargs, result) -> None:
    # arrivals replayed: the horizon times the total arrival rate
    inst = args[0] if args else kwargs["inst"]
    stats["arrivals"] = stats.get("arrivals", 0) + round(float(result.horizon) * float(sum(inst.rates)))


_EXTRA = {"solver.lp": _lp_extra, "simulate.simulate": _simulate_extra}


class Tracer:
    """Installs the wrappers, accumulates per-layer totals and keeps spans."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._t0 = time.perf_counter()

    def reset(self) -> None:
        self.stats = {}

    def metrics(self) -> dict[str, float]:
        return {name: float(self.stats.get(layer, {}).get(field, 0))
                for name, (layer, field) in METRICS.items()}

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block, nested in the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[self._stack.pop()] = (name, start - self._t0, time.perf_counter() - self._t0, parent)

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        for layer, modname, attr in FUNCTIONS:
            target = getattr(importlib.import_module(modname), attr, None)
            if target is None:
                continue
            wrapper = self._wrap(layer, target)
            for mod in [m for n, m in list(sys.modules.items()) if n == "bidopt" or n.startswith("bidopt.")]:
                for name, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, name, wrapper)
        for layer, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            target = getattr(cls, attr, None) if cls is not None else None
            if target is not None:
                self._patch(cls, attr, self._wrap(layer, target))
        for layer, modname, attr in SOLVER_CALLEES:
            mod = importlib.import_module(modname)
            target = getattr(mod, attr, None)
            if target is not None:
                self._patch(mod, attr, self._wrap(layer, target, caller="bidopt.solver"))

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer: str, fn, caller: str | None = None):
        extra = _EXTRA.get(layer)
        spanned = layer in SPANNED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(*args, **kwargs)
            with tracer.span(layer) if spanned else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stats = tracer.stats.setdefault(layer, {"calls": 0, "s": 0.0})
                    stats["calls"] += 1
                    stats["s"] += time.perf_counter() - start
            if extra is not None:
                extra(stats, args, kwargs, result)
            return result

        return wrapper
