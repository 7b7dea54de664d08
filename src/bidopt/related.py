"""Two neighbouring problems solved with the same acquisition-cost machinery.

Budget-constrained bidding flips the contract problem around: maximize the
value of items won subject to a spend ceiling.  The optimal bid for item j is
``g_j^{-1}(v_j / theta)`` -- the shaded valuation under a second-price rule --
where the single multiplier ``theta`` makes total spend meet the budget; its
inverse is the one root of a monotone spend balance (``costs.monotone_root``).
Bids and spend are grouped cost calls (``costs.FamilyGroups``), as in the
contract solver.

The second problem prices portfolio construction against order-book depth:
buying volume V of an asset walks up the book, and the cost beyond mid-price
notional equals the second-price acquisition cost of the book's unnormalized
supply curve.  That makes transaction costs convex in volume, so a
mean-variance portfolio with realistic market-order costs is one convex
program (solved by proximal gradient) with a smooth conjugate dual in
Cholesky coordinates (solved quasi-Newton); each solve certifies the other
through the duality gap.  A book is read as one supply curve per asset in
``curve_from_json`` form (``markowitz_from_json``); a measured depth profile
is an ``Empirical`` curve through its cumulative volumes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import FamilyGroups, monotone_root
from .curves import PowerLawDensity, SupplyCurve, _json_number, _json_numbers, _json_object, curve_from_json
from .model import ItemType, _Items
from .solver import NotConverged

__all__ = [
    "BudgetInstance",
    "BudgetSlack",
    "LobMarket",
    "InsufficientDepth",
    "MarkowitzInstance",
    "NotConverged",
    "solve_budget",
    "budget_bids",
    "budget_spend",
    "lob_cost",
    "solve_markowitz_primal",
    "solve_markowitz_dual",
    "markowitz_objective",
    "markowitz_dual_objective",
    "markowitz_dual_point",
    "markowitz_from_json",
]


class BudgetSlack(Exception):
    """The budget covers bidding the maximum on everything; no multiplier binds.

    Carries the degenerate answer: ``theta = 0`` and the max-bid vector
    (entries are ``x_bar``, possibly inf for unbounded supports).
    """

    def __init__(self, bids: np.ndarray):
        self.theta = 0.0
        self.bids = bids
        super().__init__("budget exceeds the cost of maximal bids on every item")


class InsufficientDepth(ValueError):
    """A market order larger than the book's total depth cannot fill."""

    def __init__(self, volume: float, depth: float):
        self.volume = volume
        self.depth = depth
        super().__init__(f"requested volume {volume:.6g} exceeds book depth {depth:.6g}")


# ---------------------------------------------------------------------------
# budget-constrained bidding


@dataclass(frozen=True)
class BudgetInstance(_Items):
    """Value-maximizing bidder: items with per-item values and one spend cap.

    First-price items pass the 2-concavity gate when each ``ItemType`` is built.
    """

    items: tuple[ItemType, ...]
    values: np.ndarray
    budget: float

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        values = _json_numbers(self.values, "values", (len(self.items),))
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if np.any(values < 0.0):
            raise ValueError("values must be nonnegative")
        if not np.any(values > 0.0):
            raise ValueError("at least one item value must be positive")
        object.__setattr__(self, "budget", _json_number(self.budget, "budget"))

    @property
    def n_items(self) -> int:
        return len(self.items)


def budget_bids(bi: BudgetInstance, theta: float) -> np.ndarray:
    """Bids g_j^{-1}(v_j / theta); theta = 0 means bid the support maximum."""
    return bi.groups.x_bar if theta == 0.0 else bi.groups.bid(bi.values / theta)


def budget_spend(bi: BudgetInstance, theta: float) -> float:
    """Total spend rate at the bids implied by multiplier ``theta``."""
    paid, _ = bi.groups.pay(budget_bids(bi, theta))
    return float(bi.rates @ paid)


def solve_budget(bi: BudgetInstance) -> tuple[float, np.ndarray]:
    """Multiplier and bids making total spend meet the budget.

    Spend is continuous and nondecreasing in u = 1/theta (bids grow as the
    multiplier shrinks) and 0 at u = 0, so u is the root of budget - spend,
    closed to a relative width of 4 eps.  Raises BudgetSlack when even
    maximal bids cost no more than the budget, and ValueError when the root
    search finds no u up to the largest float.
    """
    if bi.budget >= budget_spend(bi, 0.0):
        raise BudgetSlack(budget_bids(bi, 0.0))
    budget = np.array([bi.budget])
    u = monotone_root(lambda u: budget - budget_spend(bi, 1.0 / u[0]), budget, np.ones(1), np.ones(1, bool))[0]
    if math.isnan(u):
        raise ValueError(f"no budget multiplier theta within the searched bracket meets budget {bi.budget:g}")
    theta = 1.0 / u
    return theta, budget_bids(bi, theta)


# ---------------------------------------------------------------------------
# limit-order-book costs


@dataclass(frozen=True)
class LobMarket:
    """Order-book depth per asset as unnormalized supply curves.

    ``curves[j]`` maps a price offset p (above mid) to the volume available
    at or below it; total mass is the book's full depth for that asset.
    ``groups`` prices them as second-price items.
    """

    curves: tuple[SupplyCurve, ...]

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        if not self.curves:
            raise ValueError("need at least one asset")

    @property
    def n_assets(self) -> int:
        return len(self.curves)

    def depth(self, j: int) -> float:
        return self.curves[j].total_mass

    @cached_property
    def groups(self) -> FamilyGroups:
        return FamilyGroups(self.curves, [False] * self.n_assets)


def lob_cost(market: LobMarket, j: int, volume):
    """Cost of a market order of size ``volume`` (or of each in an array) beyond mid-price notional.

    Walking the book up to the marginal price W^{-1}(V) costs the integral of
    the quantile -- the second-price acquisition cost of the depth curve.
    """
    volume = np.asarray(volume, dtype=float)
    if np.any(volume < 0.0):
        raise ValueError("volume must be nonnegative")
    curve = market.curves[j]
    depth = curve.total_mass
    if np.any(volume > depth * (1.0 + 1e-12)):
        raise InsufficientDepth(float(np.max(volume)), depth)
    return curve.integral_quantile(volume)


# ---------------------------------------------------------------------------
# portfolio construction against the book


@dataclass(frozen=True)
class MarkowitzInstance:
    """Mean-variance portfolio with market-order costs from ``lob``.

    ``lob=None`` is the frictionless limit: no transaction costs and no
    short-selling restriction.  With a book present, positions are long-only
    and capped by each asset's depth.
    """

    alpha: np.ndarray
    sigma: np.ndarray
    risk_aversion: float
    lob: LobMarket | None = None

    def __post_init__(self):
        alpha = _json_numbers(self.alpha, "alpha", (None,))
        m = alpha.size
        sigma = _json_numbers(self.sigma, "sigma", (m, m))
        risk = _json_number(self.risk_aversion, "risk_aversion")
        alpha.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "risk_aversion", risk)
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValueError("sigma must be symmetric")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ValueError("sigma must be positive definite") from None
        # the primal solver's step is 1 over this Lipschitz constant
        if not risk * float(np.linalg.eigvalsh(sigma)[-1]) < math.inf:
            raise ValueError("risk_aversion times the largest eigenvalue of sigma must be finite")
        if self.lob is not None and self.lob.n_assets != m:
            raise ValueError("lob must cover every asset")

    @property
    def n_assets(self) -> int:
        return int(self.alpha.size)


def markowitz_from_json(obj: dict) -> MarkowitzInstance:
    lob = obj.get("lob")
    market = None if lob is None else LobMarket(
        tuple(curve_from_json(_json_object(c, f"lob curve {k}")) for k, c in enumerate(lob)))
    return MarkowitzInstance(alpha=obj["alpha"], sigma=obj["sigma"], risk_aversion=obj["risk_aversion"], lob=market)


def markowitz_objective(mi: MarkowitzInstance, x: np.ndarray) -> float:
    """Risk plus transaction costs minus forecast returns at portfolio x."""
    x = np.asarray(x, dtype=float)
    quad = 0.5 * mi.risk_aversion * float(x @ mi.sigma @ x) - float(mi.alpha @ x)
    if mi.lob is None:
        return quad
    if np.any(x < 0.0):
        return math.inf
    return quad + sum(lob_cost(mi.lob, j, float(x[j])) for j in range(mi.n_assets))


def _volume_prox(market: LobMarket, t: float):
    """The map z -> argmin_y sum_j Lambda_j(y_j) + |y - z|^2 / (2t) over 0 <= y <= depth, all assets at once.

    Coordinate j solves y + t W_j^{-1}(y) = z_j: one ``monotone_root`` of
    z - y - t W^{-1}(y) over all assets per step.  The root lies below both
    z and the top of the book (``mass * (1 - 1e-14)`` where the support is
    unbounded), so the smaller of the two closes its bracket.  Masks take
    the rest: PowerLawDensity books have a closed form, a book whose top
    still balances below z is bought out, and one whose spread gap already
    costs t W^{-1}(0) >= z buys nothing.
    """
    groups, curves = market.groups, market.curves
    mass = np.array([c.total_mass for c in curves])
    top = np.where(np.isfinite(groups.x_bar), mass, mass * (1.0 - 1e-14))
    top_price, gap = groups.quantile(top), groups.quantile(np.zeros(mass.size))
    power = np.array([isinstance(c, PowerLawDensity) for c in curves])
    # PowerLawDensity: Lambda'(y) = sqrt(2 y / w0); quadratic in sqrt(y)
    tb = t * np.array([c.quantile_scale(*c.formula_params()) if isinstance(c, PowerLawDensity) else 0.0
                       for c in curves])

    def prox(z: np.ndarray) -> np.ndarray:
        u = 0.5 * (-tb + np.sqrt(tb * tb + 4.0 * np.maximum(z, 0.0)))
        full = z - top - t * top_price >= 0.0
        f0 = z - t * gap
        live = ~power & ~full & (f0 > 0.0)
        y = monotone_root(lambda v: z - v - t * groups.quantile(np.minimum(v, top)), f0, np.minimum(z, top), live)
        return np.where(power, np.minimum(u * u, mass), np.where(full, mass, np.where(live, y, 0.0)))

    return prox


def solve_markowitz_primal(
    mi: MarkowitzInstance, tol: float = 1e-8, max_iter: int = 20000
) -> np.ndarray:
    """Accelerated proximal gradient on the cost-aware portfolio objective.

    Momentum with gradient restarts; the fixed step is 1 over the quadratic
    term's Lipschitz constant.  Stops when the prox-gradient stationarity
    residual falls below ``tol``; raises NotConverged past ``max_iter``.
    """
    m = mi.n_assets
    risk = mi.risk_aversion
    step = 1.0 / (risk * float(np.linalg.eigvalsh(mi.sigma)[-1]))
    prox = (lambda z: z) if mi.lob is None else _volume_prox(mi.lob, step)

    def forward(x: np.ndarray) -> np.ndarray:
        return prox(x - step * (risk * (mi.sigma @ x) - mi.alpha))

    x = np.zeros(m)
    y = x
    momentum = 1.0
    residual = math.inf
    for _ in range(max_iter):
        x_new = forward(y)
        x_test = forward(x_new)
        residual = float(np.max(np.abs(x_test - x_new))) / step
        if residual <= tol:
            return x_test
        momentum_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
        y_new = x_new + ((momentum - 1.0) / momentum_new) * (x_new - x)
        if float((y_new - x_new) @ (x_new - x)) > 0.0:  # restart on overshoot
            momentum_new, y_new = 1.0, x_new
        x, y, momentum = x_new, y_new, momentum_new
    raise NotConverged(x, residual)


def _conjugate_terms(mi: MarkowitzInstance, margins: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_j Lambda_j^*(m_j) and its gradient (the book volume at each margin).

    The no-short extension makes the conjugate 0 with zero slope for m <= 0;
    above, it is the second-price ``conj_win``: the running integral of the
    depth curve, whose derivative is the cumulative volume itself -- no
    quantile inversions involved.
    """
    conj, volume = mi.lob.groups.conj_win(np.maximum(margins, 0.0))
    return float(conj.sum()), volume


def markowitz_dual_objective(mi: MarkowitzInstance, zeta: np.ndarray) -> float:
    """Conjugate-cost value at ``zeta`` (Cholesky coordinates of phi)."""
    chol = np.linalg.cholesky(mi.sigma)
    if mi.lob is None:
        margins = mi.alpha - chol @ zeta
        if np.any(np.abs(margins) > 1e-9 * (1.0 + np.abs(mi.alpha))):
            return math.inf
        total = 0.0
    else:
        total, _ = _conjugate_terms(mi, mi.alpha - chol @ zeta)
    return total + 0.5 * float(zeta @ zeta) / mi.risk_aversion


def markowitz_dual_point(mi: MarkowitzInstance, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dual point read off a portfolio x; returns (zeta, phi) with phi = L zeta.

    Stationarity of the primal puts phi at risk Sigma x, so zeta = risk L^T x
    with Sigma = L L^T.  Without a book the conjugate costs pin phi to alpha,
    and zeta = L^{-1} alpha is the one point where the dual objective is
    finite.
    """
    chol = np.linalg.cholesky(mi.sigma)
    if mi.lob is None:
        return np.linalg.solve(chol, mi.alpha), mi.alpha.copy()
    zeta = mi.risk_aversion * (chol.T @ np.asarray(x, dtype=float))
    return zeta, chol @ zeta


def solve_markowitz_dual(
    mi: MarkowitzInstance, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quasi-Newton solve of the conjugate dual; returns (zeta, phi, x).

    Minimizes ``sum_j Lambda_j^*(alpha_j - (L zeta)_j) + ||zeta||^2 / (2 risk)``
    with Sigma = L L^T.  The portfolio is recovered from stationarity: x is
    the book volume available at the margins alpha - phi, and the result is
    certified by the primal-dual objective gap (NotConverged beyond ``tol``).
    """
    from scipy.optimize import minimize  # the only scipy.optimize user; kept out of bidopt's import

    chol = np.linalg.cholesky(mi.sigma)
    risk = mi.risk_aversion

    if mi.lob is None:
        # conjugate costs collapse to an equality constraint phi = alpha
        zeta = np.linalg.solve(chol, mi.alpha)
        x = np.linalg.solve(mi.sigma, mi.alpha) / risk
        return zeta, mi.alpha.copy(), x

    def objective(zeta: np.ndarray) -> tuple[float, np.ndarray]:
        value, volume = _conjugate_terms(mi, mi.alpha - chol @ zeta)
        value += 0.5 * float(zeta @ zeta) / risk
        return value, -chol.T @ volume + zeta / risk

    res = minimize(
        objective,
        np.zeros(mi.n_assets),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-18, "gtol": 1e-12},
    )
    zeta = res.x
    phi = chol @ zeta
    _, x = _conjugate_terms(mi, mi.alpha - phi)
    primal = markowitz_objective(mi, x)
    gap = primal + float(res.fun)
    if not (gap <= tol * (1.0 + abs(primal))):
        raise NotConverged((zeta, phi, x), gap)
    return zeta, phi, x
