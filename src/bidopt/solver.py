"""Dual solver for steady-state contract fulfillment over repeated auctions.

The primal problem picks per-item acquisition rates ``s_j`` and an allocation
``R_ij`` of won items to contracts so every contract accumulates value at its
target rate while total expected spend ``sum_j lambda_j Lambda_j(s_j /
lambda_j)`` is minimized.  Its Lagrangian dual reduces, after eliminating the
item multipliers mu_j = max_i v_ij rho_i, to a concave problem in the N
contract pseudo-bids alone:

    D(rho) = sum_i rho_i C_i - sum_j lambda_j conjugate_j(max_i v_ij rho_i)

which this module maximizes along one path.  A per-contract warm start
launches it.  A "polish" stage detects the max-tie pattern, snaps tied
pseudo-bids to exact ratios via a spanning tree per tie component, and
root-finds the single remaining degree of freedom of all components at once.
A cutting-plane master problem (outer linearization of the smooth convex
conjugates; tangent slopes are the win rates), one LP grown by tangent rows
and re-solved warm, then positions rho globally with a certified model gap,
and a second polish snaps its vertex onto the tie pattern.  Convergence is
then *decided*, not assumed, by a transportation LP over the current win
rates: the point is stationary exactly when demand routes with no shortfall,
the routing rides exact ties (zero theta-spend), and no priced supply is left
unallocated.  When the verdict is negative the same LP supplies the move: a
line search along its starving cut, or a snap onto the tie pattern its
routing spans.  A point the routing LP never certifies raises NotConverged.
Primal recovery takes the allocation from the flows of the routing LP that
certified the point and rescales them to make fulfillment exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import AuctionKind, conj_win, win_rate
from .curves import Empirical
from .model import ProblemInstance, check_adequate_supply

try:  # scipy's vendored HiGHS binding is private; without it the master falls back to linprog
    from scipy.optimize._highspy._core import HighsLp as _HighsLp
    from scipy.optimize._highspy._core import HighsModelStatus as _HighsModelStatus
    from scipy.optimize._highspy._core import _Highs
except ImportError:  # pragma: no cover - depends on the installed scipy
    _Highs = None

__all__ = [
    "DualSolution",
    "PrimalSolution",
    "CertificateReport",
    "Solution",
    "InfeasibleInstance",
    "NotConverged",
    "PreconditionViolated",
    "solve_dual",
    "recover_primal",
    "certify",
    "solve",
    "solve_uniform_bid",
    "solution_to_json",
    "solution_from_json",
]


class InfeasibleInstance(RuntimeError):
    """The adequate-supply check failed; the dual is unbounded."""

    def __init__(self, check):
        self.check = check
        super().__init__("instance fails the adequate-supply check")


class NotConverged(RuntimeError):
    """The routing LP did not certify the best dual point as stationary."""

    def __init__(self, best, residual: float):
        self.best = best
        self.residual = residual
        super().__init__(f"dual solver did not converge: residual {residual:.3e}")


class PreconditionViolated(ValueError):
    """An operation's structural precondition does not hold."""


# ---------------------------------------------------------------------------
# solution containers


@dataclass(frozen=True)
class DualSolution:
    """Pseudo-bids rho per contract, item multipliers mu, edge slacks theta.

    ``flows`` are the edge flows of the routing LP that certified rho, set by
    solve_dual only; recover_primal reads the allocation from them.
    """

    rho: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    dual_value: float
    flows: np.ndarray | None = None


@dataclass(frozen=True)
class PrimalSolution:
    """Acquisition rates s, allocation R and mixing gamma (edge-aligned), bids x."""

    s: np.ndarray
    R: np.ndarray
    x: np.ndarray
    gamma: np.ndarray
    primal_value: float


@dataclass(frozen=True)
class CertificateReport:
    """Optimality evidence: duality gap, KKT residuals, and pass/fail flags."""

    primal_value: float
    dual_value: float
    gap: float
    max_fulfillment_residual: float
    max_capacity_violation: float
    max_comp_slack: float
    max_mu_residual: float
    max_rho_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.gap <= self.tol
            and self.max_fulfillment_residual <= self.tol
            and self.max_capacity_violation <= self.tol
            and self.max_comp_slack <= self.tol
            and self.max_mu_residual <= self.tol
            and self.max_rho_residual <= self.tol
        )

    def rows(self) -> list[tuple[str, float, bool]]:
        t = self.tol
        return [
            ("primal_value", self.primal_value, True),
            ("dual_value", self.dual_value, True),
            ("relative_gap", self.gap, self.gap <= t),
            ("max_fulfillment_residual", self.max_fulfillment_residual, self.max_fulfillment_residual <= t),
            ("max_capacity_violation", self.max_capacity_violation, self.max_capacity_violation <= t),
            ("max_complementary_slack", self.max_comp_slack, self.max_comp_slack <= t),
            ("max_mu_residual", self.max_mu_residual, self.max_mu_residual <= t),
            ("max_rho_residual", self.max_rho_residual, self.max_rho_residual <= t),
        ]

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["metric", "value", "ok"])
            for name, value, ok in self.rows():
                w.writerow([name, f"{value:.12g}", int(ok)])
            w.writerow(["passed", int(self.passed), int(self.passed)])


@dataclass(frozen=True)
class Solution:
    dual: DualSolution
    primal: PrimalSolution
    report: CertificateReport
    iterations: int
    # the largest slack theta on any edge that carries flow (0 when none
    # does): edges whose theta exceeds it carry none
    eps_active: float = 0.0


# ---------------------------------------------------------------------------
# per-item conjugates and win rates


class _ItemKernels:
    """conjugate(mu) and win(mu) of items, one ``conj_win`` call per family group.

    The items of one parametric family under one auction kind form a group
    whose formulas take arrays of their parameters; an empirical curve is a
    group of its own.  test_solver checks the grouped evaluation against
    AcquisitionCost, one curve at a time.
    """

    def __init__(self, inst: ProblemInstance):
        plist = [item.curve.formula_params() for item in inst.items]
        keys: dict = {}
        self.group = np.empty(inst.n_items, dtype=np.intp)
        self.params = np.zeros((inst.n_items, max(map(len, plist), default=0)))
        for j, (item, p) in enumerate(zip(inst.items, plist)):
            family = item.curve if isinstance(item.curve, Empirical) else type(item.curve)
            key = (family, item.auction is AuctionKind.FIRST_PRICE, len(p))
            self.group[j] = keys.setdefault(key, len(keys))
            self.params[j, : len(p)] = p
        self.keys = list(keys)
        self.all_items = self.batches(np.arange(inst.n_items))

    def batches(self, items: np.ndarray) -> list:
        """(positions in `items`, family, first price, parameter arrays) per group."""
        g = self.group[items]
        out = []
        for k in np.unique(g).tolist():
            sel = np.flatnonzero(g == k)
            family, first, n_par = self.keys[k]
            out.append((sel, family, first, tuple(self.params[items[sel], :n_par].T)))
        return out

    @staticmethod
    def evaluate(batches: list, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """conjugate and win rate of the items `batches` was built for, at `mu`."""
        conj, win = np.empty(mu.size), np.empty(mu.size)
        for sel, family, first, params in batches:
            conj[sel], win[sel] = conj_win(family, params, mu[sel], first)
        return conj, win

    @staticmethod
    def win(batches: list, mu: np.ndarray) -> np.ndarray:
        """The win rate alone of the items `batches` was built for, at `mu`."""
        win = np.empty(mu.size)
        for sel, family, first, params in batches:
            win[sel] = win_rate(family, params, mu[sel], first)
        return win

    def conj_win(self, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.evaluate(self.all_items, mu)


# ---------------------------------------------------------------------------
# dual evaluation


class _Workspace:
    """Precomputed item-major edge views and kernels for one instance."""

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.kernels = _ItemKernels(inst)
        self.by_item = inst.by_item
        self.starts = inst.item_start[:-1]
        self.nonempty = inst.item_start[:-1] < inst.item_start[1:]
        self.starts_nz = self.starts[self.nonempty]
        self.v_bi = inst.edge_v[self.by_item]
        self.i_bi = inst.edge_i[self.by_item]
        self.lam = inst.rates
        self.targets = inst.targets
        self.root_calls = self.root_evals = 0  # _tie_roots calls and their balance evaluations
        self.scale = 1.0 + float(inst.targets.sum())

    def mu_of(self, rho: np.ndarray) -> np.ndarray:
        """mu_j = max_{i in B_j} v_ij rho_i (0 for items nobody values)."""
        vals = self.v_bi * rho[self.i_bi]
        mu = np.zeros(self.inst.n_items)
        if self.starts_nz.size:
            mu[self.nonempty] = np.maximum.reduceat(vals, self.starts_nz)
        return mu

    def first_argmax(self, vals: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Item-major position of the first edge attaining each nonempty item's max."""
        inst = self.inst
        counts = np.diff(inst.item_start)[self.nonempty]
        sent = np.where(vals == np.repeat(mu[self.nonempty], counts), np.arange(vals.size), vals.size)
        return np.minimum.reduceat(sent, self.starts_nz) if self.starts_nz.size else np.array([], dtype=int)

    def value_grad(self, rho: np.ndarray):
        """D(rho), mu, a supergradient (lowest-index argmax selection), win rates."""
        inst = self.inst
        vals = self.v_bi * rho[self.i_bi]
        mu = np.zeros(inst.n_items)
        if self.starts_nz.size:
            mu[self.nonempty] = np.maximum.reduceat(vals, self.starts_nz)
        conj, win = self.kernels.conj_win(mu)
        value = float(rho @ self.targets) - float(self.lam @ conj)
        first = self.first_argmax(vals, mu)
        grad = self.targets.copy()
        take = self.lam[self.nonempty] * win[self.nonempty] * self.v_bi[first]
        np.subtract.at(grad, self.i_bi[first], take)
        return value, mu, grad, win

    def value(self, rho: np.ndarray) -> float:
        mu = self.mu_of(rho)
        conj, _ = self.kernels.conj_win(mu)
        return float(rho @ self.targets) - float(self.lam @ conj)


# ---------------------------------------------------------------------------
# tie-pattern polish


def _near_ties(ws: _Workspace, rho: np.ndarray, mu: np.ndarray, delta: float) -> np.ndarray:
    """Edges within relative slack delta of their item's max, on priced items."""
    inst = ws.inst
    mu_e = mu[inst.edge_j]
    theta = mu_e - inst.edge_v * rho[inst.edge_i]
    return np.flatnonzero((theta <= delta * (1.0 + mu_e)) & (mu_e > 1e-12 * ws.scale))


def _tie_components(ws: _Workspace, edges: np.ndarray):
    """Contracts joined through shared items over the edge index set `edges`.

    Returns (comp, beta, item_comp, slope): contract i lies in component
    comp[i] with ratio beta[i], and item j in component item_comp[j] (-1
    when no edge of the set touches it) with slope slope[j], so that within
    a component rho_i = beta_i * t and mu_j = slope_j * t.  A component is
    labelled by its lowest-index contract, whose beta is 1, and its ratios
    follow v_ij rho_i = mu_j along a depth-first spanning tree from there.
    """
    inst = ws.inst
    n, m = inst.n_contracts, inst.n_items
    ei, ej = inst.edge_i[edges], inst.edge_j[edges]
    by_j = np.argsort(ej, kind="stable")
    # `edges` ascend, so each contract's edges are one run, in item order
    c_start = np.searchsorted(ei, np.arange(n + 1)).tolist()
    j_start = np.searchsorted(ej[by_j], np.arange(m + 1)).tolist()
    ei, ej, ev, by_j = ei.tolist(), ej.tolist(), inst.edge_v[edges].tolist(), by_j.tolist()
    comp, beta = [-1] * n, [1.0] * n
    item_comp, slope = [-1] * m, [0.0] * m
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            i = stack.pop()
            for e in range(c_start[i], c_start[i + 1]):
                j = ej[e]
                if item_comp[j] >= 0:
                    continue
                item_comp[j] = root
                slope[j] = t = ev[e] * beta[i]
                for f in by_j[j_start[j] : j_start[j + 1]]:
                    i2 = ei[f]
                    if comp[i2] < 0:
                        comp[i2] = root
                        beta[i2] = t / ev[f]
                        stack.append(i2)
    return np.array(comp), np.array(beta), np.array(item_comp), np.array(slope)


_EPS = np.finfo(float).eps


def _tie_roots(ws: _Workspace, demand: np.ndarray, t0: np.ndarray, comp: np.ndarray,
               items: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Roots t_k of demand_k = sum_e lam_j m_e win_j(m_e t) for all components k at once.

    Term e joins component comp[e] through item j = items[e] with slope
    m_e = slopes[e].  The supply side rises from 0 towards its cap
    sum_e lam_j m_e mass_j, so a component whose demand reaches the cap has
    no root and gets NaN.  Brackets start by doubling from t0; then Illinois
    regula falsi (Dowell & Jarratt 1971) shrinks them all at once, bisecting
    a bracket that three steps failed to halve and keeping every step 2 eps
    inside its bracket, down to a relative width of 4 eps.
    """
    k = demand.size
    lamm = ws.lam[items] * slopes
    batches = ws.kernels.batches(items)
    cap = np.bincount(comp, slopes * ws.inst.capacities[items], minlength=k)
    ws.root_calls += 1

    def balance(t: np.ndarray) -> np.ndarray:
        ws.root_evals += 1
        win = ws.kernels.win(batches, slopes * t[comp])
        return demand - np.bincount(comp, lamm * win, minlength=k)

    a, fa = np.zeros(k), demand.copy()
    b = np.maximum(t0, 1e-9)
    fb = balance(b)
    live = demand < cap
    for _ in range(80):
        up = live & (fb > 0.0)
        if not up.any():
            break
        a[up], fa[up] = b[up], fb[up]
        b[up] *= 2.0
        fb = balance(b)
    t = np.where(live & (fb == 0.0), b, np.nan)
    todo = live & (fb < 0.0)
    side = np.zeros(k)  # +1 after a step that moved a, -1 after one that moved b
    stall = np.zeros(k, dtype=int)
    ref = b - a
    for _ in range(300):
        width = b - a
        conv = todo & (width <= 4.0 * _EPS * b)
        t[conv] = 0.5 * (a[conv] + b[conv])
        todo &= ~conv
        if not todo.any():
            break
        with np.errstate(invalid="ignore", divide="ignore"):
            x = np.where(stall >= 3, 0.5 * (a + b), (a * fb - b * fa) / (fb - fa))
        x = np.where(todo, np.clip(x, a + 2.0 * _EPS * b, b - 2.0 * _EPS * b), b)
        fx = balance(x)
        hit = todo & (fx == 0.0)
        t[hit] = x[hit]
        todo &= ~hit
        go_a, go_b = todo & (fx > 0.0), todo & (fx < 0.0)
        # Illinois: the end kept twice in a row has its value halved
        fb = np.where(go_a & (side > 0.0), 0.5 * fb, fb)
        fa = np.where(go_b & (side < 0.0), 0.5 * fa, fa)
        a, fa = np.where(go_a, x, a), np.where(go_a, fx, fa)
        b, fb = np.where(go_b, x, b), np.where(go_b, fx, fb)
        side = np.where(go_a, 1.0, np.where(go_b, -1.0, side))
        halved = b - a <= 0.5 * ref
        ref = np.where(halved, b - a, ref)
        stall = np.where(halved, 0, stall + 1)
    t[todo] = 0.5 * (a[todo] + b[todo])
    return t


_POLISH_LADDER = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6, 1e-8, 1e-10)


def _component_updates(ws: _Workspace, rho: np.ndarray, components):
    """Snapped pseudo-bids for every tie component that balances along its ray."""
    comp, beta, item_comp, slope = components
    jdx = np.flatnonzero(item_comp >= 0)
    if jdx.size == 0:
        return []
    roots, term_comp = np.unique(item_comp[jdx], return_inverse=True)
    demand = np.bincount(comp, beta * ws.targets, minlength=comp.size)[roots]
    # a component is labelled by its root contract, whose beta is 1
    t0 = np.where(rho[roots] > 0.0, rho[roots], 1.0)
    t = _tie_roots(ws, demand, t0, term_comp, jdx, slope[jdx])
    updates = []
    for k, t_star in zip(roots.tolist(), t.tolist()):
        if not math.isnan(t_star):
            idx = np.flatnonzero(comp == k)
            updates.append((idx, beta[idx] * t_star))
    return updates


def _accept_updates(ws: _Workspace, best_val: float, best_rho: np.ndarray, updates,
                    level: bool = False):
    """Value-safeguarded acceptance of component snaps.

    Components are disjoint, so at a correct tie pattern the joint snap is the
    exact maximizer over the tie manifold; a wrong union spoils the whole
    candidate, so on rejection components are retried one at a time, then a
    backtracking step toward the joint candidate is the last resort.  With
    `level`, a joint snap whose value ties the current one to rounding is
    taken as well: next to the optimum D is flat to within 1e-15, so only the
    routing LP, not the value, can rank such points.
    """
    improved = False
    tiny = 1e-15 * (1.0 + abs(best_val))
    cand = best_rho.copy()
    for idx, vals in updates:
        cand[idx] = vals
    val = ws.value(cand)
    if val > best_val + tiny:
        return val, cand, True
    if level and val >= best_val - tiny and not np.array_equal(cand, best_rho):
        return val, cand, True
    if len(updates) > 1:
        # largest moves first; cap the sweep to keep polish cheap
        updates = sorted(updates, key=lambda u: -float(np.max(np.abs(best_rho[u[0]] - u[1]))))
        for idx, vals in updates[:40]:
            trial = best_rho.copy()
            trial[idx] = vals
            v2 = ws.value(trial)
            if v2 > best_val + tiny:
                best_val, best_rho = v2, trial
                improved = True
    if not improved:
        for frac in (0.5, 0.25, 0.1, 0.03):
            trial = best_rho + frac * (cand - best_rho)
            v2 = ws.value(trial)
            if v2 > best_val + tiny:
                best_val, best_rho = v2, trial
                improved = True
                break
    return best_val, best_rho, improved


def _polish(ws: _Workspace, best_val: float, best_rho: np.ndarray):
    """Walk tie thresholds coarse to fine, keeping only ascent steps."""
    improved = False
    for delta in _POLISH_LADDER:
        for _ in range(6):  # let the pattern settle at this threshold
            ties = _near_ties(ws, best_rho, ws.mu_of(best_rho), delta)
            updates = _component_updates(ws, best_rho, _tie_components(ws, ties))
            if not updates:
                break
            best_val, best_rho, acc = _accept_updates(ws, best_val, best_rho, updates)
            if not acc:
                break
            improved = True
    return best_val, best_rho, improved


def _cut_line_search(ws: _Workspace, best_val: float, best_rho: np.ndarray, y: np.ndarray):
    """Exact concave line search along a starving-cut certificate direction.

    The routing LP's certificate guarantees a positive directional
    derivative, and moving the whole cut together walks through the
    argmax-capture kinks that block single-coordinate ascent.  Next to a
    flat optimum a shortfall s along the cut is worth only about s^2 / 2 of
    D, below what the value can rank; there the step goes where the
    directional derivative along the cut changes sign, and is taken when its
    value ties the current one to rounding, for the next routing LP to judge.
    """
    from scipy.optimize import minimize_scalar

    def phi(h: float) -> float:
        return ws.value(best_rho + h * y)

    def slope(h: float) -> float:
        return float(ws.value_grad(best_rho + h * y)[2] @ y)

    tiny = 1e-15 * (1.0 + abs(best_val))
    hs = [0.0]
    vals = [best_val]
    h = 1e-3 * (1.0 + float(np.max(best_rho, initial=0.0)))
    for _ in range(60):
        vals.append(phi(h))
        hs.append(h)
        if vals[-1] < vals[-2]:
            break
        h *= 2.0
    res = minimize_scalar(
        lambda t: -phi(t), bounds=(0.0, hs[-1]), method="bounded",
        options={"xatol": 1e-14 * (1.0 + hs[-1])},
    )
    k = int(np.argmax(vals))
    cand_val, cand_h = vals[k], hs[k]
    if res.success and -res.fun > cand_val:
        cand_val, cand_h = -float(res.fun), float(res.x)
    if cand_val > best_val + tiny and cand_h > 0.0:
        return cand_val, best_rho + cand_h * y, True
    lo, hi = 0.0, hs[-1]
    if slope(hi) >= 0.0:
        return best_val, best_rho, False
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * (1.0 + hi):
            break
    cand = best_rho + lo * y
    cand_val = ws.value(cand)
    if lo > 0.0 and cand_val >= best_val - tiny:
        return cand_val, cand, True
    return best_val, best_rho, False


# push HiGHS well below its default feasibility tolerances: model gaps and
# routing verdicts are read at the 1e-8 level, where 1e-7-feasible vertices lie
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class _MasterLP:
    """min cost.x  s.t.  rows.x <= rhs, 0 <= x <= upper, grown by row blocks.

    With scipy's vendored HiGHS binding the model is built once and each solve
    hot-starts dual simplex from the previous basis; without it, linprog
    re-solves the accumulated rows cold.  Lives for one master phase.
    """

    def __init__(self, cost: np.ndarray, upper: np.ndarray):
        self.cost, self.upper = cost, upper.copy()
        self.blocks: list = []
        self.rhs: list = []
        self.solves = self.iterations = 0
        self.highs = None if _Highs is None else _Highs()
        if self.highs is not None:
            for key, val in {"output_flag": False, **_LP_OPTIONS}.items():
                self.highs.setOptionValue(key, val)
            lp = _HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
            lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, np.zeros(cost.size), self.upper
            lp.a_matrix_.start_ = np.zeros(cost.size + 1, dtype=np.int32)
            self.highs.passModel(lp)

    def add_rows(self, rows, rhs: np.ndarray) -> None:
        if self.highs is None:
            self.blocks.append(rows)
            self.rhs.append(rhs)
            return
        self.highs.addRows(rows.shape[0], np.full(rows.shape[0], -np.inf), rhs, rows.nnz,
                           rows.indptr[:-1].astype(np.int32), rows.indices.astype(np.int32), rows.data)

    def solve(self, upper: np.ndarray):
        """(x, objective, optimal) with the column upper bounds set to `upper`."""
        from scipy import sparse
        from scipy.optimize import linprog

        self.solves += 1
        if self.highs is None:
            res = linprog(self.cost, A_ub=sparse.vstack(self.blocks, format="csr"),
                          b_ub=np.concatenate(self.rhs), method="highs", options=_LP_OPTIONS,
                          bounds=np.column_stack([np.zeros_like(upper), upper]))
            self.iterations += int(res.nit)
            return res.x, (float(res.fun) if res.success else math.nan), bool(res.success)
        cols = np.flatnonzero(upper != self.upper).astype(np.int32)
        if cols.size:
            self.highs.changeColsBounds(cols.size, cols, np.zeros(cols.size), upper[cols])
            self.upper = upper.copy()
        self.highs.run()
        info = self.highs.getInfo()
        self.iterations += int(info.simplex_iteration_count)
        ok = self.highs.getModelStatus() == _HighsModelStatus.kOptimal
        return np.asarray(self.highs.getSolution().col_value), float(info.objective_function_value), ok


def _kelley_phase(ws: _Workspace, best_val: float, best_rho: np.ndarray, tol: float,
                  rounds: int = 60, stats: dict | None = None):
    """Outer linearization of the acquisition terms (cutting planes).

    Each item's conjugate cost is convex and smooth in its multiplier, so the
    dual maximization is the LP  max C.rho - sum_j lam_j t_j  over rho >= 0,
    mu_j >= v_ij rho_i, and t_j above the accumulated tangents of the
    conjugate.  The LP is built once; each round appends the tangents at the
    last iterate's multipliers and re-solves it warm (one master LP solve per
    round, at most `rounds` solves), until the model value (an upper bound on
    the dual optimum) meets the best true value; the returned model gap is
    therefore a certified optimality bound.  The rho box only widens, in
    place, when an iterate presses against it.  Local ascent creeps through
    argmax kinks microns at a time on degenerate instances; the LP model
    jumps straight across them.  Returns (value, rho, gap, LP solves)
    and adds the master's solve and simplex-iteration counts to `stats`.
    """
    from scipy import sparse

    inst = ws.inst
    nz = np.flatnonzero(ws.nonempty)
    m2, n, d = nz.size, inst.n_contracts, inst.n_edges
    if m2 == 0 or rounds <= 0:
        return best_val, best_rho, math.inf, 0
    pos = np.full(inst.n_items, -1)
    pos[nz] = np.arange(m2)

    ar = np.arange(d)
    cost = np.concatenate([-ws.targets, np.zeros(m2), ws.lam[nz]])
    rho_cap = 1e4 * (1.0 + float(np.max(best_rho, initial=0.0)))
    upper = np.concatenate([np.full(n, rho_cap), np.full(2 * m2, np.inf)])
    lp = _MasterLP(cost, upper)
    lp.add_rows(
        sparse.csr_matrix(
            (
                np.concatenate([inst.edge_v, -np.ones(d)]),
                (np.concatenate([ar, ar]), np.concatenate([inst.edge_i, n + pos[inst.edge_j]])),
            ),
            shape=(d, n + 2 * m2),
        ),
        np.zeros(d),
    )
    rows_mu = np.arange(m2)

    def add_tangents(mu_full: np.ndarray) -> None:
        conj, win = ws.kernels.conj_win(mu_full)
        block = sparse.csr_matrix(
            (
                np.concatenate([win[nz], -np.ones(m2)]),
                (np.concatenate([rows_mu, rows_mu]), np.concatenate([n + rows_mu, n + m2 + rows_mu])),
            ),
            shape=(m2, n + 2 * m2),
        )
        lp.add_rows(block, win[nz] * mu_full[nz] - conj[nz])

    mu_w = ws.mu_of(best_rho)
    for f in (0.5, 1.0, 2.0, 8.0):
        add_tangents(f * mu_w)
    gap = math.inf
    last_model = math.inf
    for _ in range(rounds):
        x, obj, ok = lp.solve(upper)
        if not ok:
            break
        rho_hat = np.maximum(x[:n], 0.0)
        if float(np.max(rho_hat, initial=0.0)) > 0.999 * rho_cap:
            rho_cap *= 100.0
            upper[:n] = rho_cap
            continue
        val_hat = ws.value(rho_hat)
        if val_hat > best_val:
            best_val, best_rho = val_hat, rho_hat.copy()
        model = -obj
        gap = model - best_val
        if gap <= 1e-14 * (1.0 + abs(best_val)) + 0.05 * tol * ws.scale:
            break
        if model >= last_model - 1e-15 * (1.0 + abs(model)):
            # tangent violations have dropped below the LP solver's feasibility
            # tolerance; the model cannot tighten further at this scale
            break
        last_model = model
        mu_lp = np.zeros(inst.n_items)
        mu_lp[nz] = x[n : n + m2]
        add_tangents(mu_lp)
    if stats is not None:
        stats["master_solves"] = stats.get("master_solves", 0) + lp.solves
        stats["master_simplex_iterations"] = stats.get("master_simplex_iterations", 0) + lp.iterations
        stats["master_backend"] = "linprog" if lp.highs is None else "highs"
    return best_val, best_rho, gap, lp.solves


def _refine(ws: _Workspace, best_val: float, best_rho: np.ndarray, tol: float):
    """Classify the point with the routing LP, move accordingly, and certify.

    Component balance alone is a necessary condition only: a snap balances
    *any* tie pattern, right or wrong.  Stationarity is the routing LP's
    verdict: demand routes (no shortfall), the routing rides exact ties
    (no theta-spend), and every priced item's supply is consumed (no slack
    value) — the three optimality conditions measured at once.  A shortfall
    moves the point along the starving cut; otherwise it snaps onto the
    routing's own tie pattern, even when the value cannot tell the snap from
    the current point.  Returns (value, rho, converged, worst KKT violation,
    flows), where flows are the edge flows of the routing LP that certified
    rho (None when none did).
    """
    converged = False
    lim = tol * ws.scale
    kkt, flows = math.inf, None
    for _ in range(12):
        prev = best_val
        info = _routing_lp(ws, best_rho)
        if info is None:
            kkt = _dual_residual(ws, best_rho, tie_delta=max(tol, 1e-10))
            converged = kkt <= lim
            break
        shortfall, theta_cost, slack_value, cut, pat, routed = info
        kkt = max(shortfall, theta_cost, slack_value)
        if kkt <= lim:
            converged, flows = True, routed
            break
        moved = False
        if shortfall > lim:
            if cut is not None:
                best_val, best_rho, moved = _cut_line_search(ws, best_val, best_rho, cut)
        elif pat is not None:
            updates = _component_updates(ws, best_rho, pat)
            if updates:
                best_val, best_rho, moved = _accept_updates(ws, best_val, best_rho, updates, level=True)
        best_val, best_rho, _ = _polish(ws, best_val, best_rho)
        if not moved and best_val <= prev + 1e-15 * (1.0 + abs(prev)):
            break
    return best_val, best_rho, converged, kkt, flows


def _routing_lp(ws: _Workspace, rho: np.ndarray):
    """Route demand over current win rates and measure how the point fails.

    Thresholding near-ties cannot tell a true tie from a small gap; the
    transportation LP (demands C_i, supplies lambda_j q_j(mu_j), cost theta_e,
    per-contract slack u_i priced high enough that slack is used only when no
    routing exists) can.  Lexicographically it minimizes unmet demand first
    and the theta-spend of the routing second, so one solve yields the demand
    shortfall, the theta-cost of the cheapest routing, the value of supply
    left unallocated at positive multipliers, the starving-cut certificate on
    contracts, the tie pattern spanned by the routing's support, and the
    routing itself.  Returns (shortfall, theta_cost, slack_value, cut, pattern,
    flows) or None when the LP fails; stationarity is exactly shortfall =
    theta_cost = slack_value = 0 (demand routes on exact ties and every priced
    item is fully consumed), and then the flows are an optimal allocation.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    inst = ws.inst
    mu = ws.mu_of(rho)
    sigma = ws.lam * ws.kernels.win(ws.kernels.all_items, mu)
    d, n, m = inst.n_edges, inst.n_contracts, inst.n_items
    ar = np.arange(d)
    val_mat = sparse.csr_matrix((inst.edge_v, (inst.edge_i, ar)), shape=(n, d))
    cap_mat = sparse.csr_matrix((np.ones(d), (inst.edge_j, ar)), shape=(m, d))
    theta = np.maximum(mu[inst.edge_j] - inst.edge_v * rho[inst.edge_i], 0.0)
    big = 10.0 * (1.0 + float(np.max(theta / inst.edge_v, initial=0.0)))

    a_eq = sparse.hstack([val_mat, sparse.eye(n, format="csr")], format="csr")
    a_ub = sparse.hstack([cap_mat, sparse.csr_matrix((m, n))], format="csr")
    c = np.concatenate([theta, np.full(n, big)])
    r = linprog(c, A_ub=a_ub, b_ub=sigma, A_eq=a_eq, b_eq=inst.targets,
                bounds=(0.0, None), method="highs", options=_LP_OPTIONS)
    if not r.success:
        return None
    flows = r.x[:d]
    un = r.x[d:]
    shortfall = float(un.sum())
    theta_cost = float(theta @ flows)
    alloc = cap_mat @ flows
    slack_value = float(np.clip(sigma - alloc, 0.0, None) @ mu)
    y = np.clip(np.asarray(r.eqlin.marginals, dtype=float) / big, 0.0, 1.0)
    cut = y if np.any(y > 0.0) else None
    support = np.flatnonzero(flows > 1e-10 * (1.0 + float(flows.max(initial=0.0))))
    pattern = _pattern_from_support(ws, rho, mu, support) if support.size else None
    return shortfall, theta_cost, slack_value, cut, pattern, flows


def _pattern_from_support(ws: _Workspace, rho: np.ndarray, mu: np.ndarray, support: np.ndarray):
    """Tie components of the routing's support edges.

    Every priced item outside them still funds its argmax component, not
    only the items the routing uses.
    """
    comp, beta, item_comp, slope = _tie_components(ws, support)
    first = np.full(ws.inst.n_items, -1)
    first[ws.nonempty] = ws.first_argmax(ws.v_bi * rho[ws.i_bi], mu)
    loose = np.flatnonzero((item_comp < 0) & ws.nonempty & (mu > 1e-12 * ws.scale))
    i = ws.i_bi[first[loose]]
    item_comp[loose] = comp[i]
    slope[loose] = ws.v_bi[first[loose]] * beta[i]
    return comp, beta, item_comp, slope


def _warm_start(ws: _Workspace) -> np.ndarray:
    """Per-contract pseudo-bids pretending each contract has its items alone.

    Ignoring contention under-prices contested items, so this usually lands
    below the optimum — a good launch point for ascent.
    """
    inst = ws.inst
    t = _tie_roots(ws, inst.targets, np.ones(inst.n_contracts), inst.edge_i, inst.edge_j, inst.edge_v)
    return np.where(np.isnan(t), 0.0, t)


def _dual_residual(ws: _Workspace, rho: np.ndarray, tie_delta: float = 1e-9) -> float:
    """Stationarity residual treating tie components as jointly balanced."""
    _, mu, grad, win = ws.value_grad(rho)
    comp, beta, item_comp, slope = _tie_components(ws, _near_ties(ws, rho, mu, tie_delta))
    size = ws.inst.n_contracts
    has = item_comp >= 0
    demand = np.bincount(comp, beta * ws.targets, minlength=size)
    supply = np.bincount(item_comp[has], ws.lam[has] * slope[has] * win[has], minlength=size)
    funded = np.zeros(size, dtype=bool)
    funded[item_comp[has]] = True
    res = float(np.max(np.abs(demand - supply)[funded] / (1.0 + np.abs(demand[funded])), initial=0.0))
    loose = ~funded[comp]
    proj = np.where(rho[loose] > 0.0, grad[loose], np.maximum(grad[loose], 0.0))
    return max(res, float(np.max(np.abs(proj), initial=0.0)) / ws.scale)


# ---------------------------------------------------------------------------
# public solver entry points


def solve_dual(
    inst: ProblemInstance,
    tol: float = 1e-8,
    max_iter: int = 20000,
    margin: float = 1e-6,
    check_feasibility: bool = True,
    stats: dict | None = None,
) -> DualSolution:
    """Maximize the reduced dual D(rho) over rho >= 0.

    One path: warm start -> tie polish -> warm cutting-plane master -> tie
    polish -> routing-LP refine.  `max_iter` budgets the master's LP solves
    (at most 60; `max_iter=0` skips the master); the solves spent are stored
    in stats["iterations"], next to the master's solve and simplex-iteration
    counts and to the tie roots' batch calls and balance evaluations
    (stats["tie_root_calls"], stats["tie_root_evals"]).

    Raises InfeasibleInstance when adequate supply fails and NotConverged,
    carrying the best point, when the routing LP's stationarity residual
    ends above tol.
    """
    if check_feasibility:
        chk = check_adequate_supply(inst, margin)
        if not chk:
            raise InfeasibleInstance(chk)
    if stats is None:
        stats = {}
    ws = _Workspace(inst)
    best_rho = np.zeros(inst.n_contracts)
    best_val = ws.value(best_rho)
    warm = _warm_start(ws)
    warm_val = ws.value(warm)
    if warm_val > best_val:
        best_val, best_rho = warm_val, warm.copy()
    best_val, best_rho, _ = _polish(ws, best_val, best_rho)
    # global positioning: the cutting-plane model jumps across the argmax
    # kink landscape that defeats local ascent on degenerate instances
    best_val, best_rho, _, used = _kelley_phase(
        ws, best_val, best_rho, tol, rounds=min(60, max_iter), stats=stats
    )
    stats["iterations"] = used
    if used:
        best_val, best_rho, _ = _polish(ws, best_val, best_rho)
    best_val, best_rho, converged, kkt, flows = _refine(ws, best_val, best_rho, tol)
    stats["tie_root_calls"], stats["tie_root_evals"] = ws.root_calls, ws.root_evals
    if not converged:
        raise NotConverged(_finish_dual(ws, best_rho, best_val), kkt)
    return _finish_dual(ws, best_rho, best_val, flows)


def _finish_dual(ws: _Workspace, rho: np.ndarray, value: float, flows=None) -> DualSolution:
    inst = ws.inst
    mu = ws.mu_of(rho)
    theta = mu[inst.edge_j] - inst.edge_v * rho[inst.edge_i]
    rho = rho.copy()
    for arr in (rho, mu, theta, flows):
        if arr is not None:
            arr.setflags(write=False)
    return DualSolution(rho=rho, mu=mu, theta=theta, dual_value=value, flows=flows)


# ---------------------------------------------------------------------------
# primal recovery


def _bids(inst: ProblemInstance, mu: np.ndarray) -> np.ndarray:
    """Per-item bids g_j^{-1}(mu_j), each mu_j capped at the item's bid cap."""
    bids = np.zeros(inst.n_items)
    for j, cost in enumerate(inst.costs):
        bids[j] = cost.bid_mapping_inverse(min(float(mu[j]), cost.bid_cap))
    return bids


def _spend_rate(inst: ProblemInstance, s: np.ndarray) -> float:
    """Expected spend sum_j lambda_j Lambda_j(s_j / lambda_j) at acquisition rates s.

    Win rates are clamped just below the curve's total mass, where Lambda may
    be infinite.
    """
    value = 0.0
    for j, cost in enumerate(inst.costs):
        if s[j] > 0.0:
            q = min(s[j] / inst.rates[j], cost.total_mass * (1.0 - 1e-12))
            value += inst.rates[j] * float(cost.lam(q))
    return float(value)


def recover_primal(inst: ProblemInstance, dual: DualSolution) -> PrimalSolution:
    """Bids, rates, and the allocation routed by the routing LP at dual.rho.

    At optimal pseudo-bids any routing of the targets over zero-slack edges
    within the win-rate supplies is an optimal allocation (complementary
    slackness), and that transportation problem is the routing LP which
    certified the dual; its edge flows are R.  A dual without flows (read
    back from JSON, or built by hand) gets them from one routing LP at its
    rho, and NotConverged is raised when that LP fails.  Each contract's row
    is then scaled to make fulfillment exact.
    """
    flows = dual.flows
    if flows is None:
        info = _routing_lp(_Workspace(inst), np.asarray(dual.rho, dtype=float))
        if info is None:
            raise NotConverged(dual, math.inf)
        flows = info[-1]
    R = np.maximum(flows, 0.0)
    delivered = np.bincount(inst.edge_i, inst.edge_v * R, minlength=inst.n_contracts)
    R *= np.divide(inst.targets, delivered, out=np.ones(inst.n_contracts), where=delivered > 0.0)[inst.edge_i]
    s = np.bincount(inst.edge_j, R, minlength=inst.n_items)
    bids = _bids(inst, np.asarray(dual.mu, dtype=float))
    gamma = np.zeros(inst.n_edges)
    nz = s[inst.edge_j] > 0.0
    gamma[nz] = R[nz] / s[inst.edge_j[nz]]

    for arr in (s, R, bids, gamma):
        arr.setflags(write=False)
    return PrimalSolution(s=s, R=R, x=bids, gamma=gamma, primal_value=_spend_rate(inst, s))


# ---------------------------------------------------------------------------
# certification


def certify(
    inst: ProblemInstance, primal: PrimalSolution, dual: DualSolution, tol: float = 1e-6
) -> CertificateReport:
    """Duality gap and KKT residuals of a (primal, dual) pair."""
    p, d = primal.primal_value, dual.dual_value
    gap = (p - d) / (1.0 + abs(p))

    delivered = np.zeros(inst.n_contracts)
    np.add.at(delivered, inst.edge_i, inst.edge_v * primal.R)
    fulfill = float(np.max(np.abs(delivered - inst.targets) / (1.0 + inst.targets)))

    s_from_r = np.zeros(inst.n_items)
    np.add.at(s_from_r, inst.edge_j, primal.R)
    cap_viol = float(np.max(np.maximum(s_from_r - inst.capacities, 0.0) / (1.0 + inst.capacities)))

    comp = float(np.max(dual.theta * primal.R, initial=0.0)) / (1.0 + abs(p))

    ws = _Workspace(inst)
    mu_res = float(np.max(np.abs(ws.mu_of(np.asarray(dual.rho)) - dual.mu), initial=0.0))
    # at optimum every contract prices off its cheapest useful item:
    # rho_i = min over edges of contract i of mu_j / v_ij
    ratio = dual.mu[inst.edge_j] / inst.edge_v
    rho_min = np.full(inst.n_contracts, np.inf)
    np.minimum.at(rho_min, inst.edge_i, ratio)
    rho_res = float(np.max(np.abs(rho_min - dual.rho) / (1.0 + np.abs(dual.rho))))

    return CertificateReport(
        primal_value=p,
        dual_value=d,
        gap=gap,
        max_fulfillment_residual=fulfill,
        max_capacity_violation=cap_viol,
        max_comp_slack=comp,
        max_mu_residual=mu_res,
        max_rho_residual=rho_res,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# orchestration


def solve(
    inst: ProblemInstance,
    tol: float = 1e-8,
    max_iter: int = 20000,
    margin: float = 1e-6,
    certify_tol: float = 1e-6,
) -> Solution:
    """Feasibility check, dual solve, primal recovery from its routing flows, certify."""
    chk = check_adequate_supply(inst, margin)
    if not chk:
        raise InfeasibleInstance(chk)
    stats: dict = {}
    dual = solve_dual(
        inst, tol=tol, max_iter=max_iter, margin=margin, check_feasibility=False, stats=stats
    )
    primal = recover_primal(inst, dual)
    report = certify(inst, primal, dual, tol=certify_tol)
    return Solution(
        dual=dual,
        primal=primal,
        report=report,
        iterations=stats.get("iterations", 0),
        eps_active=float(np.max(dual.theta[primal.R > 0.0], initial=0.0)),
    )


def solve_uniform_bid(inst: ProblemInstance):
    """Single pseudo-bid special case: all valuations 1, complete bipartite graph.

    Bisection (tol 1e-12) on the monotone root of
    sum_j lambda_j W_j(g_j^{-1}(rho)) = sum_i C_i, then proportional fill.
    """
    if inst.n_edges != inst.n_contracts * inst.n_items:
        raise PreconditionViolated("every contract must value every item")
    if not np.allclose(inst.edge_v, 1.0, rtol=0.0, atol=0.0):
        raise PreconditionViolated("all valuations must equal 1")
    total = float(inst.targets.sum())
    lam = inst.rates
    costs = inst.costs

    def acquired(rho: float) -> float:
        return float(sum(l * c.win_probability(rho) for l, c in zip(lam, costs)))

    hi = 1.0
    for _ in range(200):
        if acquired(hi) >= total:
            break
        hi *= 2.0
    else:
        raise InfeasibleInstance(None)
    lo = 0.0
    while hi - lo > 1e-12 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if acquired(mid) >= total:
            hi = mid
        else:
            lo = mid
    rho_star = 0.5 * (lo + hi)

    bids = _bids(inst, np.full(inst.n_items, rho_star))
    s = np.array([l * c.win_probability(rho_star) for l, c in zip(lam, costs)])
    share = inst.targets / total
    R = s[inst.edge_j] * share[inst.edge_i]
    gamma = np.where(s[inst.edge_j] > 0.0, share[inst.edge_i], 0.0)
    for arr in (s, R, bids, gamma):
        arr.setflags(write=False)
    return rho_star, PrimalSolution(s=s, R=R, x=bids, gamma=gamma, primal_value=_spend_rate(inst, s))


# ---------------------------------------------------------------------------
# serialization


def solution_to_json(inst: ProblemInstance, sol: Solution) -> dict:
    entries = [
        [inst.contracts[int(inst.edge_i[e])].id, inst.items[int(inst.edge_j[e])].id, float(r)]
        for e, r in enumerate(sol.primal.R)
        if r > 0.0
    ]
    return {
        "rho": [float(v) for v in sol.dual.rho],
        "mu": [float(v) for v in sol.dual.mu],
        "bids": [float(v) for v in sol.primal.x],
        "s": [float(v) for v in sol.primal.s],
        "R": entries,
        "gap": float(sol.report.gap),
        "iters": int(sol.iterations),
        "eps_active": float(sol.eps_active),
    }


def solution_from_json(inst: ProblemInstance, obj: dict) -> Solution:
    """Rebuild a Solution from its JSON form (values recomputed, not trusted)."""
    rho = np.asarray(obj["rho"], dtype=float)
    mu = np.asarray(obj["mu"], dtype=float)
    s = np.asarray(obj["s"], dtype=float)
    bids = np.asarray(obj["bids"], dtype=float)
    if rho.shape != (inst.n_contracts,) or any(a.shape != (inst.n_items,) for a in (mu, s, bids)):
        raise ValueError("solution dimensions do not match the instance")
    theta = mu[inst.edge_j] - inst.edge_v * rho[inst.edge_i]
    ws = _Workspace(inst)
    dual = DualSolution(rho=rho, mu=mu, theta=theta, dual_value=ws.value(rho))

    pos = {
        (inst.contracts[int(inst.edge_i[e])].id, inst.items[int(inst.edge_j[e])].id): e
        for e in range(inst.n_edges)
    }
    R = np.zeros(inst.n_edges)
    for cid, iid, val in obj["R"]:
        key = (cid, iid)
        if key not in pos:
            raise ValueError(f"allocation entry {key!r} is not an instance edge")
        R[pos[key]] = float(val)
    gamma = np.zeros(inst.n_edges)
    nz = s[inst.edge_j] > 0.0
    gamma[nz] = R[nz] / s[inst.edge_j[nz]]
    primal = PrimalSolution(s=s, R=R, x=bids, gamma=gamma, primal_value=_spend_rate(inst, s))
    report = certify(inst, primal, dual)
    return Solution(
        dual=dual,
        primal=primal,
        report=report,
        iterations=int(obj.get("iters", 0)),
        eps_active=float(obj.get("eps_active", 0.0)),
    )
