"""Dual solver for steady-state contract fulfillment over repeated auctions.

The primal problem picks per-item acquisition rates ``s_j`` and an allocation
``R_ij`` of won items to contracts so every contract accumulates value at its
target rate while total expected spend ``sum_j lambda_j Lambda_j(s_j /
lambda_j)`` is minimized.  Its Lagrangian dual reduces, after eliminating the
item multipliers mu_j = max_i v_ij rho_i, to a concave problem in the N
contract pseudo-bids alone:

    D(rho) = sum_i rho_i C_i - sum_j lambda_j conjugate_j(max_i v_ij rho_i)

which this module maximizes in three stages, after a per-contract warm start.
A cutting-plane master problem (outer linearization of the smooth convex
conjugates; tangent slopes are the win rates), one LP grown by tangent rows
and re-solved warm, positions rho globally with a certified model gap.  A
"polish" stage, run before and after the master, detects the max-tie
pattern, snaps tied pseudo-bids to exact ratios via a spanning tree per tie
component, and root-finds each component's single remaining degree of
freedom.  Convergence is then *decided*, not assumed, by
a transportation LP over the current win rates: the point is stationary
exactly when demand routes with no shortfall, the routing rides exact ties
(zero theta-spend), and no priced supply is left unallocated; the same LP
supplies the starving-cut direction, pivot captures, and tie pattern used to
escape when the verdict is negative.  Projected supergradient phases with
Polyak-style level steps remain as a fallback between verdicts.  Primal
recovery converts the active-edge transportation problem into a plain
max-flow in spend units and rescales to make fulfillment exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .costs import AuctionKind
from .curves import BoundedUniform, Exponential, Hyperbolic, PowerLawDensity
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
    "ActiveEdgeInfeasible",
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
    """Iteration budget exhausted before the dual stationarity test passed."""

    def __init__(self, best, residual: float):
        self.best = best
        self.residual = residual
        super().__init__(f"dual solver did not converge: residual {residual:.3e}")


class ActiveEdgeInfeasible(RuntimeError):
    """The active-edge transportation problem cannot route all demand."""

    def __init__(self, shortfall: float, eps_active: float):
        self.shortfall = shortfall
        self.eps_active = eps_active
        super().__init__(
            f"active edges at eps={eps_active:.3e} leave demand shortfall {shortfall:.3e}"
        )


class PreconditionViolated(ValueError):
    """An operation's structural precondition does not hold."""


# ---------------------------------------------------------------------------
# solution containers


@dataclass(frozen=True)
class DualSolution:
    """Pseudo-bids rho per contract, item multipliers mu, edge slacks theta."""

    rho: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    dual_value: float

    def active_edges(self, eps: float) -> np.ndarray:
        """Boolean mask of edges with slack below eps (the A*/B* sets)."""
        return self.theta <= eps


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
    # absolute slack threshold the primal recovery ran with: edges whose
    # theta exceeds it carry no flow.  solve() escalates the relative knob
    # tenfold whenever the active-edge network cannot carry the targets, then
    # stores the mu-scaled absolute value here.
    eps_active: float = 0.0


# ---------------------------------------------------------------------------
# vectorized per-item conjugate/derivative kernels
#
# The hot loop needs conjugate_j(mu_j) and its derivative for all M items at
# once.  AcquisitionCost vectorizes over mu for one item; these kernels
# vectorize across items by grouping on (curve family, auction kind), with a
# per-item fallback for empirical curves.  test_solver cross-checks every
# kernel against AcquisitionCost, which stays the semantic authority.


def _exp_first_bid(gamma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Solve x + (e^{gamma x} - 1)/gamma = mu elementwise (guarded Newton)."""
    m = np.maximum(mu, 0.0)
    hi = np.minimum(m, np.log1p(gamma * m) / gamma)
    x = 0.5 * hi
    lo = np.zeros_like(x)
    up = hi.copy()
    for _ in range(80):
        ex = np.exp(gamma * x)
        val = x + (ex - 1.0) / gamma - m
        lo = np.where(val < 0.0, x, lo)
        up = np.where(val > 0.0, x, up)
        xn = x - val / (1.0 + ex)
        bad = (xn <= lo) | (xn >= up)
        xn = np.where(bad, 0.5 * (lo + up), xn)
        if np.all(np.abs(xn - x) <= 1e-16 * (1.0 + np.abs(x))):
            return xn
        x = xn
    return x


def _kernel_exp_second(p, mu):
    g = p["a"]
    win = -np.expm1(-g * mu)
    return mu + np.expm1(-g * mu) / g, win


def _kernel_hyp_second(p, mu):
    c = p["a"]
    return mu - c * np.log1p(mu / c), mu / (c + mu)


def _kernel_bu_second(p, mu):
    b = p["a"]
    m = np.minimum(mu, b)
    return m**2 / (2.0 * b) + np.maximum(mu - b, 0.0), m / b


def _kernel_pl_second(p, mu):
    w0, b = p["a"], p["b"]
    m = np.minimum(mu, b)
    mass = w0 * b**2 / 2.0
    return w0 * m**3 / 6.0 + mass * np.maximum(mu - b, 0.0), w0 * m**2 / 2.0


def _kernel_exp_first(p, mu):
    g = p["a"]
    x = _exp_first_bid(g, mu)
    win = -np.expm1(-g * x)
    return (mu - x) * win, win


def _kernel_hyp_first(p, mu):
    c = p["a"]
    x = c * (np.sqrt(1.0 + mu / c) - 1.0)
    win = np.where(mu > 0.0, x / (c + x), 0.0)
    return (mu - x) * win, win


def _kernel_bu_first(p, mu):
    b = p["a"]
    x = np.minimum(0.5 * mu, b)
    win = x / b
    conj = np.where(mu > 2.0 * b, mu - b, (mu - x) * win)
    return conj, win


def _kernel_pl_first(p, mu):
    w0, b = p["a"], p["b"]
    x = np.minimum(2.0 * mu / 3.0, b)
    win = w0 * x**2 / 2.0
    mass = w0 * b**2 / 2.0
    conj = np.where(mu > 1.5 * b, mass * (mu - b), (mu - x) * win)
    return conj, win


_KERNELS: dict[tuple[type, AuctionKind], Callable] = {
    (Exponential, AuctionKind.SECOND_PRICE): _kernel_exp_second,
    (Hyperbolic, AuctionKind.SECOND_PRICE): _kernel_hyp_second,
    (BoundedUniform, AuctionKind.SECOND_PRICE): _kernel_bu_second,
    (PowerLawDensity, AuctionKind.SECOND_PRICE): _kernel_pl_second,
    (Exponential, AuctionKind.FIRST_PRICE): _kernel_exp_first,
    (Hyperbolic, AuctionKind.FIRST_PRICE): _kernel_hyp_first,
    (BoundedUniform, AuctionKind.FIRST_PRICE): _kernel_bu_first,
    (PowerLawDensity, AuctionKind.FIRST_PRICE): _kernel_pl_first,
}

_PARAM_FIELDS = {
    Exponential: ("rate", None),
    Hyperbolic: ("scale", None),
    BoundedUniform: ("x_max", None),
    PowerLawDensity: ("w0", "x_max"),
}


def _scalar_exp_first_win(g: float) -> Callable[[float], float]:
    def win(mu: float) -> float:
        if mu <= 0.0:
            return 0.0
        lo, hi = 0.0, min(mu, math.log1p(g * mu) / g)
        x = 0.5 * hi
        for _ in range(80):
            ex = math.exp(g * x)
            val = x + (ex - 1.0) / g - mu
            if val < 0.0:
                lo = x
            else:
                hi = x
            xn = x - val / (1.0 + ex)
            if not lo < xn < hi:
                xn = 0.5 * (lo + hi)
            if abs(xn - x) <= 1e-16 * (1.0 + abs(x)):
                x = xn
                break
            x = xn
        return -math.expm1(-g * x)

    return win


def _scalar_win(item) -> Callable[[float], float]:
    """Fast scalar win-rate closure q_j(mu) = W_j(g_j^{-1}(mu)) for one item."""
    curve, kind = item.curve, item.auction
    second = kind is AuctionKind.SECOND_PRICE
    if isinstance(curve, Exponential):
        g = curve.rate
        if second:
            return lambda mu: -math.expm1(-g * mu) if mu > 0.0 else 0.0
        return _scalar_exp_first_win(g)
    if isinstance(curve, Hyperbolic):
        c = curve.scale
        if second:
            return lambda mu: mu / (c + mu) if mu > 0.0 else 0.0

        def win_h1(mu: float) -> float:
            if mu <= 0.0:
                return 0.0
            x = c * (math.sqrt(1.0 + mu / c) - 1.0)
            return x / (c + x)

        return win_h1
    if isinstance(curve, BoundedUniform):
        b = curve.x_max
        if second:
            return lambda mu: min(mu, b) / b if mu > 0.0 else 0.0
        return lambda mu: min(0.5 * mu, b) / b if mu > 0.0 else 0.0
    if isinstance(curve, PowerLawDensity):
        w0, b = curve.w0, curve.x_max
        if second:
            return lambda mu: w0 * min(mu, b) ** 2 / 2.0 if mu > 0.0 else 0.0
        return lambda mu: w0 * min(2.0 * mu / 3.0, b) ** 2 / 2.0 if mu > 0.0 else 0.0
    cost = item.cost
    return lambda mu: float(cost.win_probability(mu)) if mu > 0.0 else 0.0


class _ItemKernels:
    """conjugate(mu) and win(mu) for all items at once, grouped by family."""

    def __init__(self, inst: ProblemInstance):
        self.m = inst.n_items
        groups: dict[tuple[type, AuctionKind], list[int]] = {}
        fallback: list[int] = []
        for j, item in enumerate(inst.items):
            key = (type(item.curve), item.auction)
            if key in _KERNELS:
                groups.setdefault(key, []).append(j)
            else:
                fallback.append(j)
        self.groups = []
        for key, idx in groups.items():
            fa, fb = _PARAM_FIELDS[key[0]]
            params = {
                "a": np.array([getattr(inst.items[j].curve, fa) for j in idx]),
                "b": np.array([getattr(inst.items[j].curve, fb) for j in idx]) if fb else None,
            }
            self.groups.append((np.asarray(idx, dtype=np.intp), _KERNELS[key], params))
        self.fallback = [(j, inst.items[j].cost) for j in fallback]
        self.win_scalar = [_scalar_win(item) for item in inst.items]

    def conj_win(self, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        conj = np.zeros(self.m)
        win = np.zeros(self.m)
        for idx, kernel, params in self.groups:
            c, w = kernel(params, mu[idx])
            conj[idx] = c
            win[idx] = w
        for j, cost in self.fallback:
            conj[j] = cost.conjugate(float(mu[j]))
            win[j] = cost.win_probability(float(mu[j]))
        return conj, win


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
        self.j_bi = inst.edge_j[self.by_item]
        self.lam = inst.rates
        self.targets = inst.targets
        self.scale = 1.0 + float(inst.targets.sum())

    def mu_of(self, rho: np.ndarray) -> np.ndarray:
        """mu_j = max_{i in B_j} v_ij rho_i (0 for items nobody values)."""
        vals = self.v_bi * rho[self.i_bi]
        mu = np.zeros(self.inst.n_items)
        if self.starts_nz.size:
            mu[self.nonempty] = np.maximum.reduceat(vals, self.starts_nz)
        return mu

    def value_grad(self, rho: np.ndarray):
        """D(rho), mu, a supergradient (lowest-index argmax selection), win rates."""
        inst = self.inst
        vals = self.v_bi * rho[self.i_bi]
        mu = np.zeros(inst.n_items)
        if self.starts_nz.size:
            mu[self.nonempty] = np.maximum.reduceat(vals, self.starts_nz)
        conj, win = self.kernels.conj_win(mu)
        value = float(rho @ self.targets) - float(self.lam @ conj)
        # first edge attaining each item's max, in item-major order
        pos = np.arange(vals.size)
        d = vals.size
        sent = np.where(vals == np.repeat(mu[self.nonempty], np.diff(inst.item_start)[self.nonempty]), pos, d)
        first = np.minimum.reduceat(sent, self.starts_nz) if self.starts_nz.size else np.array([], dtype=int)
        grad = self.targets.copy()
        take = self.lam[self.nonempty] * win[self.nonempty] * self.v_bi[first]
        np.subtract.at(grad, self.i_bi[first], take)
        return value, mu, grad, win

    def value(self, rho: np.ndarray) -> float:
        mu = self.mu_of(rho)
        conj, _ = self.kernels.conj_win(mu)
        return float(rho @ self.targets) - float(self.lam @ conj)


def _projected_residual(rho: np.ndarray, grad: np.ndarray) -> float:
    proj = np.where(rho > 0.0, grad, np.maximum(grad, 0.0))
    return float(np.max(np.abs(proj))) if proj.size else 0.0


def _supergradient_phase(ws: _Workspace, rho, best_val, best_rho, iters: int, tol: float):
    """Polyak level ascent; returns (current rho, best value, best rho, used, residual)."""
    delta = 0.02 * (1.0 + abs(best_val))
    stall = 0
    residual = math.inf
    used = 0
    for used in range(1, iters + 1):
        val, mu, grad, _ = ws.value_grad(rho)
        residual = _projected_residual(rho, grad)
        if val > best_val + 1e-15 * (1.0 + abs(best_val)):
            best_val, best_rho = val, rho.copy()
            stall = 0
        else:
            stall += 1
            if stall >= 40:
                delta *= 0.6
                stall = 0
                if delta < 1e-13 * (1.0 + abs(best_val)):
                    break
        if residual <= tol * ws.scale:
            break
        gg = float(grad @ grad)
        if gg == 0.0:
            break
        step = (best_val + delta - val) / gg
        step = max(step, 1e-16)
        rho = np.maximum(rho + step * grad, 0.0)
    return rho, best_val, best_rho, used, residual


# ---------------------------------------------------------------------------
# tie-pattern polish


def _detect_components(ws: _Workspace, rho: np.ndarray, mu: np.ndarray, delta: float):
    """Group contracts tied through shared argmax items.

    Returns (components, comp_items) where components[k] is a dict
    contract -> ratio beta_i and comp_items[k] a dict item -> slope m_j, so
    that within component k: rho_i = beta_i * t and mu_j = m_j * t.
    """
    inst = ws.inst
    n = inst.n_contracts
    edge_i, edge_j, edge_v = inst.edge_i, inst.edge_j, inst.edge_v
    theta = mu[edge_j] - edge_v * rho[edge_i]
    act_mask = (theta <= delta * (1.0 + mu[edge_j])) & (mu[edge_j] > 1e-12 * ws.scale)
    act = np.flatnonzero(act_mask)

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    item_active: dict[int, list[int]] = {}
    contract_items: dict[int, list[int]] = {}
    for e in act.tolist():
        j = int(edge_j[e])
        i = int(edge_i[e])
        item_active.setdefault(j, []).append(e)
        contract_items.setdefault(i, []).append(j)
    for j, edges in item_active.items():
        first = find(int(edge_i[edges[0]]))
        for e in edges[1:]:
            rb = find(int(edge_i[e]))
            if rb != first:
                parent[rb] = first
                first = find(first)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    # BFS tree per component fixes the pseudo-bid ratios
    components = []
    comp_items = []
    for root in sorted(groups):
        members = groups[root]
        beta: dict[int, float] = {members[0]: 1.0}
        slope: dict[int, float] = {}
        queue = [members[0]]
        while queue:
            i = queue.pop()
            for j in contract_items.get(i, ()):
                if j in slope:
                    continue
                edges = item_active[j]
                vmax = max(float(edge_v[e]) for e in edges if int(edge_i[e]) == i)
                slope[j] = vmax * beta[i]
                for e in edges:
                    i2 = int(edge_i[e])
                    if i2 not in beta:
                        beta[i2] = slope[j] / float(edge_v[e])
                        queue.append(i2)
        components.append(beta)
        comp_items.append(slope)
    return components, comp_items


def _component_root(ws: _Workspace, idx, bet, jdx, m, t0: float) -> float | None:
    """Root of the component balance C(t) = supply(t) along the tie ray."""
    wins = [ws.kernels.win_scalar[j] for j in jdx]
    lamm = [float(ws.lam[j]) * float(mj) for j, mj in zip(jdx, m)]
    demand = float(bet @ ws.targets[idx])

    def balance(t: float) -> float:
        return demand - sum(lm * w(mj * t) for lm, w, mj in zip(lamm, wins, m))

    hi = max(t0, 1e-9)
    for _ in range(80):
        if balance(hi) < 0.0:
            break
        hi *= 2.0
    else:
        return None  # component cannot balance along this tie ray
    return brentq(balance, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


_POLISH_LADDER = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6, 1e-8, 1e-10)


def _component_updates(ws: _Workspace, rho: np.ndarray, delta: float):
    """Snapped pseudo-bids for every balanceable tie component at threshold delta."""
    mu = ws.mu_of(rho)
    components, comp_items = _detect_components(ws, rho, mu, delta)
    updates = []
    for beta, slope in zip(components, comp_items):
        if not slope:
            continue  # isolated contract with no usable items yet
        idx = np.asarray(sorted(beta), dtype=np.intp)
        bet = np.array([beta[i] for i in idx])
        jdx = sorted(slope)
        m = np.array([slope[j] for j in jdx])
        t_star = _component_root(ws, idx, bet, jdx, m, float(rho[idx[0]] / bet[0]) or 1.0)
        if t_star is None:
            continue
        updates.append((idx, bet * t_star))
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
            updates = _component_updates(ws, best_rho, delta)
            if not updates:
                break
            best_val, best_rho, acc = _accept_updates(ws, best_val, best_rho, updates)
            if not acc:
                break
            improved = True
    return best_val, best_rho, improved


def _cut_line_search(ws: _Workspace, best_val: float, best_rho: np.ndarray, y: np.ndarray):
    """Exact concave line search along a starving-cut certificate direction.

    The phase-1 certificate guarantees a positive directional derivative, and
    moving the whole cut together walks through the argmax-capture kinks that
    block single-coordinate ascent.
    """
    from scipy.optimize import minimize_scalar

    def phi(h: float) -> float:
        return ws.value(best_rho + h * y)

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
    if cand_val > best_val + 1e-15 * (1.0 + abs(best_val)) and cand_h > 0.0:
        return cand_val, best_rho + cand_h * y, True
    return best_val, best_rho, False


def _cut_kink_jump(ws: _Workspace, best_val: float, best_rho: np.ndarray, y: np.ndarray):
    """Advance along a cut direction to the next argmax-capture kinks.

    The interior optimum of the line search can sit microscopically below the
    first capture point, which leaves the tie pattern unchanged and turns the
    ascent into a creep.  The productive move is combinatorial: step exactly
    onto (and past) the nearest capture distances so new ties appear, then let
    the snap rebalance; keep whichever jump survives the value safeguard.
    """
    mu = ws.mu_of(best_rho)
    vals = ws.v_bi * best_rho[ws.i_bi]
    slopes = y[ws.i_bi] * ws.v_bi
    mu_e = mu[ws.j_bi]
    theta = mu_e - vals
    active = theta <= 1e-12 * (1.0 + mu_e)
    g = np.full(ws.inst.n_items, -np.inf)
    np.maximum.at(g, ws.j_bi[active], slopes[active])
    denom = slopes - g[ws.j_bi]
    mask = (~active) & (denom > 1e-15) & (mu_e > 1e-12 * ws.scale)
    if not np.any(mask):
        return best_val, best_rho, False
    h_first = float(np.min(theta[mask] / denom[mask]))
    if not (np.isfinite(h_first) and h_first > 0.0):
        return best_val, best_rho, False
    improved = False
    for mult in (1.0 + 1e-9, 2.0, 4.0, 8.0, 16.0, 32.0):
        cand = best_rho + (h_first * mult) * y
        cv, cr, _ = _polish(ws, ws.value(cand), cand)
        if cv > best_val + 1e-15 * (1.0 + abs(best_val)):
            best_val, best_rho = cv, cr
            improved = True
    return best_val, best_rho, improved


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
    place, when an iterate presses against it.  Supergradient steps creep
    through argmax kinks microns at a time on degenerate instances; the LP
    model jumps straight across them.  Returns (value, rho, gap, LP solves)
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
    value) — the three optimality conditions measured at once.
    Returns (value, rho, converged, worst KKT violation seen).
    """
    converged = False
    lim = tol * ws.scale
    kkt = math.inf
    for _ in range(12):
        prev = best_val
        info = _routing_lp(ws, best_rho)
        if info is None:
            kkt = _dual_residual(ws, best_rho, tie_delta=max(tol, 1e-10))
            converged = kkt <= lim
            break
        shortfall, theta_cost, slack_value, cut, pat, pivot_pat = info
        kkt = max(shortfall, theta_cost, slack_value)
        if kkt <= lim:
            converged = True
            break
        snapped = False
        if shortfall > lim:
            moved = False
            if pivot_pat is not None:
                updates = _updates_from_pattern(ws, best_rho, *pivot_pat)
                if updates:
                    best_val, best_rho, moved = _accept_updates(ws, best_val, best_rho, updates)
            if not moved and cut is not None:
                best_val, best_rho, jumped = _cut_kink_jump(ws, best_val, best_rho, cut)
                best_val, best_rho, moved = _cut_line_search(ws, best_val, best_rho, cut)
                if jumped or moved:
                    best_val, best_rho, _ = _polish(ws, best_val, best_rho)
        elif pat is not None:
            # demand routes: snap onto the routing's own tie pattern, even
            # when the value cannot tell the snap from the current point
            updates = _updates_from_pattern(ws, best_rho, *pat)
            if updates:
                best_val, best_rho, snapped = _accept_updates(
                    ws, best_val, best_rho, updates, level=True
                )
        best_val, best_rho, _ = _coordinate_refine(ws, best_val, best_rho)
        best_val, best_rho, _ = _polish(ws, best_val, best_rho)
        if not snapped and best_val <= prev + 1e-15 * (1.0 + abs(prev)):
            break
    return best_val, best_rho, converged, kkt


def _coordinate_refine(ws: _Workspace, best_val: float, best_rho: np.ndarray, top_k: int = 16):
    """Exact 1-D maximization on the worst-balanced contracts.

    D is concave in each rho_i alone but kinked where the contract captures or
    loses an item's argmax; an exact scalar search climbs through those kinks,
    which neither supergradient steps nor tie snapping can do.
    """
    from scipy.optimize import minimize_scalar

    _, _, grad, _ = ws.value_grad(best_rho)
    proj = np.where(best_rho > 0.0, grad, np.maximum(grad, 0.0))
    order = np.argsort(-np.abs(proj))
    hi_base = 4.0 * float(np.max(best_rho, initial=0.0)) + 1.0
    improved = False
    work = best_rho.copy()
    for i in order[:top_k].tolist():
        if abs(proj[i]) <= 1e-14 * ws.scale:
            break

        def along(r: float) -> float:
            work[i] = r
            return -ws.value(work)

        cur = float(best_rho[i])
        res = minimize_scalar(
            along,
            bounds=(0.0, max(hi_base, 8.0 * cur)),
            method="bounded",
            options={"xatol": 1e-13 * (1.0 + cur)},
        )
        work[i] = cur
        if res.success and -res.fun > best_val + 1e-15 * (1.0 + abs(best_val)):
            best_val = -res.fun
            best_rho = best_rho.copy()
            best_rho[i] = float(res.x)
            work = best_rho.copy()
            improved = True
    return best_val, best_rho, improved


def _routing_lp(ws: _Workspace, rho: np.ndarray):
    """Route demand over current win rates and measure how the point fails.

    Thresholding near-ties cannot tell a true tie from a small gap; the
    transportation LP (demands C_i, supplies lambda_j q_j(mu_j), cost theta_e,
    per-contract slack u_i priced high enough that slack is used only when no
    routing exists) can.  Lexicographically it minimizes unmet demand first
    and the theta-spend of the routing second, so one solve yields the demand
    shortfall, the theta-cost of the cheapest routing, the value of supply
    left unallocated at positive multipliers, the starving-cut certificate on
    contracts, and the tie pattern spanned by the routing's support.  Returns
    (shortfall, theta_cost, slack_value, cut, pattern) or None when the LP
    fails; stationarity is exactly shortfall = theta_cost = slack_value = 0
    (demand routes on exact ties and every priced item is fully consumed).
    """
    from scipy import sparse
    from scipy.optimize import linprog

    inst = ws.inst
    mu = ws.mu_of(rho)
    _, win = ws.kernels.conj_win(mu)
    sigma = ws.lam * win
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

    # a starving contract must capture its cheapest blocked edge: force that
    # edge into the support and let the snap rebalance the merged component
    pivots = []
    for i in np.flatnonzero(un > 1e-12 * (1.0 + inst.targets)).tolist():
        sl = inst.contract_edges(i)
        gaps = theta[sl] / inst.edge_v[sl]
        blocked = np.flatnonzero(gaps > 0.0)
        if blocked.size:
            pivots.append(sl.start + int(blocked[np.argmin(gaps[blocked])]))
    pivot_pattern = None
    if pivots and support.size:
        aug = np.union1d(support, np.asarray(pivots, dtype=np.intp))
        pivot_pattern = _pattern_from_support(ws, rho, mu, aug)
    return shortfall, theta_cost, slack_value, cut, pattern, pivot_pattern


def _pattern_from_support(ws: _Workspace, rho: np.ndarray, mu: np.ndarray, support: np.ndarray):
    inst = ws.inst
    n = inst.n_contracts
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    item_support: dict[int, list[int]] = {}
    contract_items: dict[int, list[int]] = {}
    for e in support.tolist():
        j, i = int(inst.edge_j[e]), int(inst.edge_i[e])
        item_support.setdefault(j, []).append(e)
        contract_items.setdefault(i, []).append(j)
    for j, edges in item_support.items():
        first = find(int(inst.edge_i[edges[0]]))
        for e in edges[1:]:
            rb = find(int(inst.edge_i[e]))
            if rb != first:
                parent[rb] = first
                first = find(first)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    components = []
    comp_items = []
    for root in sorted(groups):
        members = groups[root]
        beta: dict[int, float] = {members[0]: 1.0}
        slope: dict[int, float] = {}
        queue = [members[0]]
        while queue:
            i = queue.pop()
            for j in contract_items.get(i, ()):
                if j in slope:
                    continue
                edges = item_support[j]
                vmax = max(float(inst.edge_v[e]) for e in edges if int(inst.edge_i[e]) == i)
                slope[j] = vmax * beta[i]
                for e in edges:
                    i2 = int(inst.edge_i[e])
                    if i2 not in beta:
                        beta[i2] = slope[j] / float(inst.edge_v[e])
                        queue.append(i2)
        components.append(beta)
        comp_items.append(slope)

    # every acquired item funds its argmax component, not only supported ones
    comp_of: dict[int, int] = {}
    for k, beta in enumerate(components):
        for i in beta:
            comp_of[i] = k
    vals = ws.v_bi * rho[ws.i_bi]
    counts = np.diff(inst.item_start)
    for j in np.flatnonzero(ws.nonempty).tolist():
        if mu[j] <= 1e-12 * ws.scale:
            continue
        k = None
        for kk, slope in enumerate(comp_items):
            if j in slope:
                k = kk
                break
        if k is not None:
            continue
        start = inst.item_start[j]
        seg = vals[start : start + counts[j]]
        arg = int(np.argmax(seg))
        i = int(ws.i_bi[start + arg])
        v = float(ws.v_bi[start + arg])
        k = comp_of[i]
        comp_items[k][j] = v * components[k][i]
    return components, comp_items


def _updates_from_pattern(ws: _Workspace, rho: np.ndarray, components, comp_items):
    updates = []
    for beta, slope in zip(components, comp_items):
        if not slope:
            continue
        idx = np.asarray(sorted(beta), dtype=np.intp)
        bet = np.array([beta[i] for i in idx])
        jdx = sorted(slope)
        m = np.array([slope[j] for j in jdx])
        t_star = _component_root(ws, idx, bet, jdx, m, float(rho[idx[0]] / bet[0]) or 1.0)
        if t_star is None:
            continue
        updates.append((idx, bet * t_star))
    return updates


def _warm_start(ws: _Workspace) -> np.ndarray:
    """Per-contract pseudo-bids pretending each contract has its items alone.

    Ignoring contention under-prices contested items, so this usually lands
    below the optimum — a good launch point for ascent.
    """
    inst = ws.inst
    rho = np.zeros(inst.n_contracts)
    for i in range(inst.n_contracts):
        sl = inst.contract_edges(i)
        t = _component_root(
            ws,
            np.array([i], dtype=np.intp),
            np.array([1.0]),
            inst.edge_j[sl].tolist(),
            inst.edge_v[sl],
            1.0,
        )
        if t is not None:
            rho[i] = t
    return rho


def _dual_residual(ws: _Workspace, rho: np.ndarray, tie_delta: float = 1e-9) -> float:
    """Stationarity residual treating tie components as jointly balanced."""
    inst = ws.inst
    val, mu, grad, win = ws.value_grad(rho)
    components, comp_items = _detect_components(ws, rho, mu, tie_delta)
    res = 0.0
    in_comp = np.zeros(inst.n_contracts, dtype=bool)
    for beta, slope in zip(components, comp_items):
        idx = np.asarray(sorted(beta), dtype=np.intp)
        if slope:
            bet = np.array([beta[i] for i in idx])
            jdx = np.asarray(sorted(slope), dtype=np.intp)
            m = np.array([slope[j] for j in jdx])
            demand = float(bet @ ws.targets[idx])
            supply = float((ws.lam[jdx] * m) @ win[jdx])
            res = max(res, abs(demand - supply) / (1.0 + abs(demand)))
            in_comp[idx] = True
    loose = ~in_comp
    if loose.any():
        proj = np.where(rho[loose] > 0.0, grad[loose], np.maximum(grad[loose], 0.0))
        if proj.size:
            res = max(res, float(np.max(np.abs(proj))) / ws.scale)
    return res


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

    Phases: warm start -> tie polish -> warm cutting-plane master -> tie
    polish -> routing-LP refine, then projected supergradient / polish /
    refine rounds as a fallback until the routing LP certifies stationarity.
    `max_iter` is one budget shared by the master (one unit per master LP
    solve) and the supergradient steps; `max_iter=0` skips both.  The units
    spent are stored in stats["iterations"], next to the master's solve and
    simplex-iteration counts.

    Raises InfeasibleInstance when adequate supply fails and NotConverged
    when the budget runs out (or progress stalls) before the routing LP's
    stationarity residual drops below tol.
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
    if used:
        best_val, best_rho, _ = _polish(ws, best_val, best_rho)
    best_val, best_rho, converged, kkt = _refine(ws, best_val, best_rho, tol)
    rho = best_rho.copy()
    mark = -math.inf
    stagnant = 0
    phase_iters = max(150, min(400, max_iter // 10))
    while not converged:
        if best_val > mark + 1e-12 * (1.0 + abs(mark)):
            mark = best_val
            stagnant = 0
        else:
            stagnant += 1
        if used >= max_iter or stagnant >= 4:
            stats["iterations"] = used
            raise NotConverged(_finish_dual(ws, best_rho, best_val), kkt)
        # fallback wander for points the cutting-plane model cannot separate;
        # the ascent iterate deliberately keeps drifting across phases
        rho, best_val, best_rho, it, _ = _supergradient_phase(
            ws, rho, best_val, best_rho, min(phase_iters, max_iter - used), tol
        )
        used += it
        best_val, best_rho, _ = _polish(ws, best_val, best_rho)
        best_val, best_rho, converged, kkt = _refine(ws, best_val, best_rho, tol)
    stats["iterations"] = used
    return _finish_dual(ws, best_rho, best_val)


def _finish_dual(ws: _Workspace, rho: np.ndarray, value: float) -> DualSolution:
    inst = ws.inst
    mu = ws.mu_of(rho)
    theta = mu[inst.edge_j] - inst.edge_v * rho[inst.edge_i]
    rho = rho.copy()
    for arr in (rho, mu, theta):
        arr.setflags(write=False)
    return DualSolution(rho=rho, mu=mu, theta=theta, dual_value=value)


# ---------------------------------------------------------------------------
# primal recovery


def _dinic_max_flow(n_nodes: int, arcs: list[tuple[int, int, float]], source: int, sink: int):
    """Deterministic Dinic max-flow; returns (flow per arc, total flow)."""
    head: list[list[int]] = [[] for _ in range(n_nodes)]
    to: list[int] = []
    cap: list[float] = []

    def add(u, v, c):
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0.0)

    for u, v, c in arcs:
        add(u, v, c)

    eps = 1e-15 * (1.0 + max((c for _, _, c in arcs if math.isfinite(c)), default=1.0))
    total = 0.0
    while True:
        level = [-1] * n_nodes
        level[source] = 0
        queue = [source]
        for u in queue:
            for e in head[u]:
                if cap[e] > eps and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[sink] < 0:
            break
        it = [0] * n_nodes

        def dfs(u, pushed):
            if u == sink:
                return pushed
            while it[u] < len(head[u]):
                e = head[u][it[u]]
                v = to[e]
                if cap[e] > eps and level[v] == level[u] + 1:
                    got = dfs(v, min(pushed, cap[e]))
                    if got > 0.0:
                        cap[e] -= got
                        cap[e ^ 1] += got
                        return got
                it[u] += 1
            return 0.0

        while True:
            pushed = dfs(source, math.inf)
            if pushed <= 0.0:
                break
            total += pushed

    flows = [cap[2 * k + 1] for k in range(len(arcs))]
    return flows, total


def recover_primal(inst: ProblemInstance, dual: DualSolution, eps_active: float = 1e-6) -> PrimalSolution:
    """Bids, rates, and an allocation supported on the active edges.

    The transportation problem (supplies s_j, demands C_i, arc gains v_ij)
    becomes a pure max-flow in spend units: on active edges v_ij rho_i =
    mu_j, so routing f = mu_j R_ij against item budgets mu_j s_j and contract
    budgets rho_i C_i preserves both constraint families.  Raises
    ActiveEdgeInfeasible when the flow cannot meet total demand (retry with a
    larger eps_active).
    """
    mu = np.asarray(dual.mu, dtype=float)
    rho = np.asarray(dual.rho, dtype=float)
    n, m = inst.n_contracts, inst.n_items
    eps = eps_active * (1.0 + float(np.max(mu, initial=0.0)))

    bids = np.zeros(m)
    s_policy = np.zeros(m)
    for j, cost in enumerate(inst.costs):
        cap = cost.bid_cap
        mu_j = min(float(mu[j]), cap) if math.isfinite(cap) else float(mu[j])
        bids[j] = cost.bid_mapping_inverse(mu_j)
        s_policy[j] = inst.rates[j] * cost.win_probability(float(mu[j]))

    active = np.flatnonzero(dual.theta <= eps)
    # spend-unit max flow: source -> item (mu_j s_j) -> contract (rho_i C_i) -> sink
    source, sink = m + n, m + n + 1
    arcs: list[tuple[int, int, float]] = []
    for j in range(m):
        if mu[j] > 0.0 and s_policy[j] > 0.0:
            arcs.append((source, j, float(mu[j] * s_policy[j])))
    edge_arc: dict[int, int] = {}
    for e in active:
        i, j = int(inst.edge_i[e]), int(inst.edge_j[e])
        if mu[j] > 0.0 and s_policy[j] > 0.0 and rho[i] > 0.0:
            edge_arc[e] = len(arcs)
            arcs.append((j, m + i, math.inf))
    for i in range(n):
        arcs.append((m + i, sink, float(rho[i] * inst.targets[i])))

    flows, total = _dinic_max_flow(m + n + 2, arcs, source, sink)
    demand_total = float(rho @ inst.targets)
    shortfall = demand_total - total
    if shortfall > 1e-7 * (1.0 + demand_total):
        raise ActiveEdgeInfeasible(shortfall, eps_active)

    R = np.zeros(inst.n_edges)
    for e, a in edge_arc.items():
        j = int(inst.edge_j[e])
        R[e] = flows[a] / mu[j]
    # make fulfillment exact: distribute each contract's residual proportionally
    for i in range(n):
        sl = inst.contract_edges(i)
        delivered = float(inst.edge_v[sl] @ R[sl])
        if delivered > 0.0:
            R[sl] *= inst.targets[i] / delivered

    s = np.zeros(m)
    np.add.at(s, inst.edge_j, R)
    gamma = np.zeros(inst.n_edges)
    nz = s[inst.edge_j] > 0.0
    gamma[nz] = R[nz] / s[inst.edge_j[nz]]

    # spend rate at the realized acquisition rates
    value = 0.0
    for j, cost in enumerate(inst.costs):
        if s[j] > 0.0:
            q = min(s[j] / inst.rates[j], 1.0 - 1e-12)
            value += inst.rates[j] * float(cost.lam(q))
    for arr in (s, R, bids, gamma):
        arr.setflags(write=False)
    return PrimalSolution(s=s, R=R, x=bids, gamma=gamma, primal_value=float(value))


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
    cap_viol = float(np.max(np.maximum(s_from_r - inst.rates, 0.0) / (1.0 + inst.rates)))

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
    eps_active: float = 1e-6,
    max_iter: int = 20000,
    margin: float = 1e-6,
    certify_tol: float = 1e-6,
) -> Solution:
    """Feasibility check, dual solve, primal recovery with eps escalation, certify."""
    chk = check_adequate_supply(inst, margin)
    if not chk:
        raise InfeasibleInstance(chk)
    stats: dict = {}
    dual = solve_dual(
        inst, tol=tol, max_iter=max_iter, margin=margin, check_feasibility=False, stats=stats
    )
    eps = eps_active
    last_exc: ActiveEdgeInfeasible | None = None
    for _ in range(6):
        try:
            primal = recover_primal(inst, dual, eps_active=eps)
            break
        except ActiveEdgeInfeasible as exc:
            last_exc = exc
            eps *= 10.0
    else:
        raise last_exc
    report = certify(inst, primal, dual, tol=certify_tol)
    return Solution(
        dual=dual,
        primal=primal,
        report=report,
        iterations=stats.get("iterations", 0),
        eps_active=eps * (1.0 + float(np.max(dual.mu, initial=0.0))),
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

    m, n = inst.n_items, inst.n_contracts
    bids = np.zeros(m)
    s = np.zeros(m)
    for j, cost in enumerate(costs):
        cap = cost.bid_cap
        mu_j = min(rho_star, cap) if math.isfinite(cap) else rho_star
        bids[j] = cost.bid_mapping_inverse(mu_j)
        s[j] = lam[j] * cost.win_probability(rho_star)
    share = inst.targets / total
    R = s[inst.edge_j] * share[inst.edge_i]
    gamma = np.where(s[inst.edge_j] > 0.0, share[inst.edge_i], 0.0)
    value = 0.0
    for j, cost in enumerate(costs):
        if s[j] > 0.0:
            q = min(s[j] / lam[j], 1.0 - 1e-12)
            value += lam[j] * float(cost.lam(q))
    for arr in (s, R, bids, gamma):
        arr.setflags(write=False)
    return rho_star, PrimalSolution(s=s, R=R, x=bids, gamma=gamma, primal_value=float(value))


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
    if rho.size != inst.n_contracts or mu.size != inst.n_items:
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
    s = np.asarray(obj["s"], dtype=float)
    bids = np.asarray(obj["bids"], dtype=float)
    gamma = np.zeros(inst.n_edges)
    nz = s[inst.edge_j] > 0.0
    gamma[nz] = R[nz] / s[inst.edge_j[nz]]
    value = 0.0
    for j, cost in enumerate(inst.costs):
        if s[j] > 0.0:
            q = min(s[j] / inst.rates[j], 1.0 - 1e-12)
            value += inst.rates[j] * float(cost.lam(q))
    primal = PrimalSolution(s=s, R=R, x=bids, gamma=gamma, primal_value=float(value))
    report = certify(inst, primal, dual)
    return Solution(
        dual=dual,
        primal=primal,
        report=report,
        iterations=int(obj.get("iters", 0)),
        eps_active=float(obj.get("eps_active", 0.0)),
    )
