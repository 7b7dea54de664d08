"""Acquisition costs of winning auctions against a supply curve.

For a curve W and a bid x, the expected payment per auction is

* second price: f(x) = ∫_0^x u dW(u)   (pay the competing price), and
* first price:  f(x) = x W(x)          (pay the bid when winning).

Re-parametrizing by the win probability q = W(x) gives the acquisition cost
``lam(q) = f(W^{-1}(q))``, a strictly convex function on [0, total mass]
extended with 0 below and +inf above.  Its convex conjugate ``conjugate(mu)``
prices a marginal win, and its derivative recovers the optimal bid through
the bid mapping g (identity for second price, x + W(x)/W'(x) for first
price).  All values are exact extended reals; nothing is clamped.

Under first price the conjugate is max_x (mu - x) W(x), evaluated at the bid
each curve family computes in closed form (``SupplyCurve.bid``).  For
empirical curves that bid is an exact argmax over the segments, where the
objective is a concave quadratic, so it needs no monotone g.  ``conj_win``
composes a family's formulas into the conjugate and its derivative, the win
rate, for one curve or for a group of curves of one family at once;
``win_rate`` is that win rate alone.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curves import Empirical, SupplyCurve, _wrap, alpha_concavity_check

__all__ = [
    "AuctionKind",
    "AcquisitionCost",
    "conj_win",
    "win_rate",
    "NotTwoConcave",
    "OutOfRange",
    "NotDifferentiable",
    "DarkPoolCheck",
    "dark_pool_identity_check",
    "adaptive_simpson",
    "quadrature_integral_cdf",
    "quadrature_integral_quantile",
    "quadrature_partial_mean",
    "write_cost_grid",
]


class AuctionKind(str, Enum):
    SECOND_PRICE = "second_price"
    FIRST_PRICE = "first_price"

    @classmethod
    def parse(cls, name) -> "AuctionKind":
        if isinstance(name, AuctionKind):
            return name
        try:
            return cls(str(name))
        except ValueError:
            raise ValueError(f"unknown auction kind: {name!r}") from None


class NotTwoConcave(ValueError):
    """First-price pricing requires a 2-concave supply curve."""


class OutOfRange(ValueError):
    """Requested multiplier exceeds the largest achievable marginal price."""


class NotDifferentiable(ValueError):
    """The bid mapping needs a positive density at the requested bid."""


def conj_win(family, params, mu, first_price: bool):
    """Conjugate and win rate of an acquisition cost at marginal prices mu >= 0.

    Second price: conj(mu) = ∫_0^mu W and the win rate is W(mu).  First price:
    at the bid x maximizing (mu - x) W(x), conj(mu) = (mu - x) W(x) and the win
    rate is W(x).  ``family`` is a curve with ``params`` its
    ``formula_params()``, or a parametric family class with one parameter
    array per formula parameter, broadcasting against ``mu``.
    """
    if first_price:
        x = family.bid(mu, *params)
        win = family.w(x, *params)
        return (mu - x) * win, win
    return family.w_integral(mu, *params), family.w(mu, *params)


def win_rate(family, params, mu, first_price: bool):
    """The win rate of ``conj_win`` alone, for callers that need no conjugate."""
    return family.w(family.bid(mu, *params) if first_price else mu, *params)


class AcquisitionCost:
    """Expected-spend machinery for one supply curve under one price rule."""

    def __init__(self, curve: SupplyCurve, kind: AuctionKind | str):
        self.curve = curve
        self.kind = AuctionKind.parse(kind)
        if self.kind is AuctionKind.FIRST_PRICE:
            res = alpha_concavity_check(curve, 2.0)
            if not res.concave:
                raise NotTwoConcave(
                    f"curve fails the 2-concavity grid heuristic near x={res.witness:.6g}; "
                    "first-price bid mappings are not monotone without 2-concavity"
                )

    # ------------------------------------------------------------------
    @property
    def total_mass(self) -> float:
        return self.curve.total_mass

    @property
    def bid_cap(self) -> float:
        """g(x_bar): the largest marginal price any bid can express."""
        if self.kind is AuctionKind.SECOND_PRICE:
            return self.curve.x_bar
        if math.isinf(self.curve.x_bar):
            return math.inf
        term = self.curve.terminal_density()
        if term <= 0.0:
            return math.inf
        return self.curve.x_bar + self.curve.total_mass / term

    # ------------------------------------------------------------------
    def expected_cost(self, x):
        """f(x): expected payment per auction at bid x (0 for x <= 0)."""
        if self.kind is AuctionKind.SECOND_PRICE:
            return _wrap(x, lambda xa: np.where(xa <= 0, 0.0, self.curve.partial_mean(np.maximum(xa, 0.0))))

        def go(xa):
            with np.errstate(invalid="ignore"):
                vals = xa * np.asarray(self.curve.eval(xa))
            return np.where(xa <= 0, 0.0, vals)

        return _wrap(x, go)

    def lam(self, q):
        """Expected spend rate to win with probability (or volume) q.

        0 for q <= 0, +inf beyond the total mass, strictly convex between.
        """
        mass = self.total_mass
        second = self.kind is AuctionKind.SECOND_PRICE

        def go(qa):
            if second:
                inner = np.asarray(self.curve.integral_quantile(np.clip(qa, 0.0, mass)))
            else:
                qc = np.clip(qa, 0.0, mass)
                with np.errstate(invalid="ignore"):
                    inner = qc * np.asarray(self.curve.inverse(qc))
                inner = np.where(qc == 0.0, 0.0, inner)
            out = np.where(qa <= 0.0, 0.0, inner)
            return np.where(qa > mass, np.inf, out)

        return _wrap(q, go)

    def _formula(self, fn, ma):
        first = self.kind is AuctionKind.FIRST_PRICE
        return fn(self.curve, self.curve.formula_params(), np.maximum(ma, 0.0), first)

    def conjugate(self, mu):
        """Convex conjugate of ``lam``: sup_q (mu q - lam(q)), +inf for mu < 0."""
        return _wrap(mu, lambda ma: np.where(ma < 0.0, np.inf, self._formula(conj_win, ma)[0]))

    def win_probability(self, mu):
        """Derivative of ``conjugate``: the acquisition rate a marginal price buys."""
        return _wrap(mu, lambda ma: self._formula(win_rate, ma))

    # ------------------------------------------------------------------
    def bid_mapping(self, x):
        """g(x): the marginal acquisition price expressed by bidding x.

        Identity for second price.  For first price: 0 below the support,
        x + W(x)/W'(x) inside, the density-limit form at a finite x_bar,
        +inf beyond.
        """
        if self.kind is AuctionKind.SECOND_PRICE:
            return _wrap(x, lambda xa: xa + 0.0)

        curve = self.curve
        x_bar = curve.x_bar
        cap = self.bid_cap

        def go(xa):
            if isinstance(curve, Empirical):
                dens = curve._slope_right(xa)
            else:
                dens = np.asarray(curve.density(xa))
            w = np.asarray(curve.eval(xa))
            interior = (xa > 0.0) & (xa < x_bar)
            if np.any(interior & (dens <= 0.0)):
                raise NotDifferentiable("zero density inside the support")
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = xa + w / np.where(interior, dens, 1.0)
            vals = np.where(interior, vals, np.where(xa <= 0.0, 0.0, np.inf))
            if math.isfinite(x_bar):
                vals = np.where(xa == x_bar, cap, vals)
            return vals

        return _wrap(x, go)

    def bid_mapping_inverse(self, mu):
        """g^{-1}(mu); raises OutOfRange for mu beyond g(x_bar).

        Under first price this is the bid maximizing (mu - x) W(x).
        """
        cap = self.bid_cap
        mu_arr = np.asarray(mu, dtype=float)
        if np.any(mu_arr > cap * (1.0 + 1e-9) if math.isfinite(cap) else mu_arr > cap):
            raise OutOfRange(f"multiplier exceeds g(x_bar) = {cap:.6g}")
        if self.kind is AuctionKind.SECOND_PRICE:
            return _wrap(mu, lambda ma: np.maximum(ma, 0.0))
        if math.isfinite(cap):
            mu = np.minimum(mu_arr, cap) if mu_arr.ndim else min(float(mu_arr), cap)
        return self.curve._g_inverse(mu)

    # ------------------------------------------------------------------
    def __repr__(self):
        return f"AcquisitionCost({self.curve!r}, {self.kind.value})"


# ---------------------------------------------------------------------------
# quadrature cross-checks (adaptive Simpson)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 60) -> float:
    """Adaptive Simpson integral of a scalar function on [a, b]."""
    if b <= a:
        return 0.0

    def simpson(fa, fm, fb, h):
        return h * (fa + 4.0 * fm + fb) / 6.0

    def rec(a, fa, b, fb, m, fm, whole, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(a, fa, m, fm, lm, flm, left, depth + 1) + rec(
            m, fm, b, fb, rm, frm, right, depth + 1
        )

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return rec(a, fa, b, fb, m, fm, simpson(fa, fm, fb, b - a), 0)


def quadrature_integral_quantile(curve: SupplyCurve, q: float, tol: float = 1e-10) -> float:
    """∫_0^q W^{-1} by adaptive Simpson; independent route for cross-checks."""
    return adaptive_simpson(lambda u: float(curve.inverse(u)), 0.0, float(q), tol)


def quadrature_integral_cdf(curve: SupplyCurve, mu: float, tol: float = 1e-10) -> float:
    """∫_0^mu W by adaptive Simpson (W held at its mass beyond x_bar)."""
    return adaptive_simpson(lambda u: float(curve.eval(u)), 0.0, float(mu), tol)


def quadrature_partial_mean(curve: SupplyCurve, x: float, tol: float = 1e-10) -> float:
    """∫_0^x u dW via integration by parts: x W(x) - ∫_0^x W."""
    x = float(x)
    return x * float(curve.eval(x)) - quadrature_integral_cdf(curve, x, tol)


# ---------------------------------------------------------------------------
# dark-pool identity


@dataclass(frozen=True)
class DarkPoolCheck:
    """Monte-Carlo check of E(x - price)_+ against the conjugate value."""

    mc_value: float
    exact_value: float
    stderr: float
    n_samples: int

    @property
    def residual(self) -> float:
        return abs(self.mc_value - self.exact_value)


def dark_pool_identity_check(
    cost: AcquisitionCost, x: float, n_samples: int = 200_000, rng: np.random.Generator | None = None
) -> DarkPoolCheck:
    """Sample E(x - price)_+ and compare with ``conjugate(x)``.

    The expected saving of a partially filled order at limit x equals the
    difference between first- and second-price costs of the same bid, which
    is exactly the second-price conjugate at x.
    """
    if cost.kind is not AuctionKind.SECOND_PRICE:
        raise ValueError("the identity prices second-price savings")
    rng = np.random.default_rng(0) if rng is None else rng
    draws = cost.curve.sample(rng, n_samples)
    gains = np.maximum(float(x) - draws, 0.0)
    mc = float(np.mean(gains))
    se = float(np.std(gains, ddof=1) / math.sqrt(n_samples))
    return DarkPoolCheck(mc_value=mc, exact_value=float(cost.conjugate(x)), stderr=se, n_samples=n_samples)


def write_cost_grid(cost: AcquisitionCost, path, n: int = 257) -> None:
    """CSV grid (q, lam(q), conjugate(q)) on [0, mass] for plotting."""
    qs = np.linspace(0.0, cost.total_mass, n)
    lam = np.asarray(cost.lam(qs))
    conj = np.asarray(cost.conjugate(qs))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "lam", "conjugate"])
        for row in zip(qs, lam, conj):
            w.writerow([f"{v:.12g}" for v in row])
