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
objective is a concave quadratic, so it needs no monotone g.  Each cost is
written once over a family's formulas, for one curve or a group of curves of
one family at once: ``conj_win`` (the conjugate and its derivative, the win
rate), ``win_rate``, ``win_slope`` (the win rate and its own derivative),
``spend`` (lam) and ``pay`` (f = lam o W).  ``FamilyGroups`` groups a set of
items by family and auction kind once and offers these, plus the capped bid,
over all of them; the solver, the simulator and the related problems all
evaluate through it.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curves import Empirical, SupplyCurve, _wrap

__all__ = [
    "AuctionKind",
    "AcquisitionCost",
    "conj_win",
    "win_rate",
    "win_slope",
    "spend",
    "pay",
    "FamilyGroups",
    "monotone_root",
    "NotTwoConcave",
    "OutOfRange",
    "NotDifferentiable",
    "DarkPoolCheck",
    "dark_pool_identity_check",
    "adaptive_simpson",
    "quadrature_integral_cdf",
    "quadrature_integral_quantile",
    "quadrature_partial_mean",
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


def win_slope(family, params, mu, first_price: bool):
    """The win rate of ``win_rate``, bit for bit, and its derivative in mu below the bid cap.

    Second price: W(mu) and the density W'(mu).  First price: W(x) and
    W'(x) x'(mu) at the bid x = bid(mu), x' from the family's ``bid_slope``.
    """
    if first_price:
        x = family.bid(mu, *params)
        return family.w(x, *params), family.w_slope(x, *params) * family.bid_slope(mu, x, *params)
    return family.w(mu, *params), family.w_slope(mu, *params)


def spend(family, params, q, first_price: bool):
    """Acquisition cost lam(q) at win rates q in [0, total mass]; ``family``, ``params`` as in ``conj_win``.

    Second price: the quantile integral ∫_0^q W^{-1}.  First price: q W^{-1}(q).
    """
    if first_price:
        return q * family.quantile(q, *params)
    return family.quantile_integral(q, *params)


def pay(family, params, x, first_price: bool):
    """Expected payment per auction f(x) = lam(W(x)) at bids x >= 0; arguments as in ``spend``.

    Second price: ∫_0^x u dW(u) = ∫_0^{W(x)} W^{-1}.  First price: x W(x).
    """
    return x * family.w(x, *params) if first_price else family.price_integral(x, *params)


def _bid_cap(curve: SupplyCurve, first_price: bool) -> float:
    """g(x_bar): the largest marginal price any bid on ``curve`` can express."""
    if not first_price:
        return curve.x_bar
    term = curve.terminal_density()  # 0 when x_bar is infinite
    return curve.x_bar + curve.total_mass / term if term > 0.0 else math.inf


class FamilyGroups:
    """A set of items grouped by curve family and auction kind, built once.

    The items of one parametric family under one auction kind form a group
    whose formulas take arrays of their parameters; an empirical curve is a
    group of its own.  ``order`` lists the item positions group by group,
    groups in order of first appearance and positions ascending within one,
    and each entry of ``groups`` is (its slice of ``order``, family, first
    price, parameter arrays).  Every method below gathers its prices into
    that order once, makes one formula call per group on a slice, and
    scatters the values back.  The prices may carry leading axes: each
    method then evaluates every row of them in the same calls.
    """

    def __init__(self, curves, first_price):
        plist = [curve.formula_params() for curve in curves]
        keys: dict = {}
        self._group = np.empty(len(plist), dtype=np.intp)
        self._params = np.zeros((len(plist), max(map(len, plist), default=0)))
        for j, (curve, first, p) in enumerate(zip(curves, first_price, plist)):
            family = curve if isinstance(curve, Empirical) else type(curve)
            self._group[j] = keys.setdefault((family, bool(first), len(p)), len(keys))
            self._params[j, : len(p)] = p
        self._keys = list(keys)
        self._x_bar = np.array([curve.x_bar for curve in curves])
        self._cap = np.array([_bid_cap(curve, first) for curve, first in zip(curves, first_price)])
        self._batch(np.arange(len(plist)))

    def _batch(self, items: np.ndarray) -> None:
        """Group the entries ``items``: set ``items``, ``order``, ``rank`` (order's inverse) and ``groups``."""
        g = self._group[items]
        self.items, self.order = items, np.argsort(g, kind="stable")
        self.rank = np.argsort(self.order)
        self._item_cap = self._cap[items]
        keys, start = np.unique(g[self.order], return_index=True)
        stop = [*start[1:].tolist(), items.size]
        self.groups = []
        for k, lo, hi in zip(keys.tolist(), start.tolist(), stop):
            family, first, n_par = self._keys[k]
            params = tuple(self._params[items[self.order[lo:hi]], :n_par].T)
            self.groups.append((slice(lo, hi), family, first, params))

    def take(self, items: np.ndarray) -> "FamilyGroups":
        """The same grouping over item positions ``items`` (repeats allowed), one value per entry."""
        out = copy.copy(self)
        out._batch(items)
        return out

    @property
    def x_bar(self) -> np.ndarray:
        """The largest useful bid of each item."""
        return self._x_bar[self.items]

    def _per_group(self, fn, x: np.ndarray, outputs: int = 1) -> np.ndarray:
        """fn(family, params, x of the group, first price) per group, as rows of item-ordered values.

        The items run along the last axis of x.
        """
        xs = x.take(self.order, axis=-1)
        out = np.empty((outputs, *x.shape))
        for sl, family, first, params in self.groups:
            out[..., sl] = fn(family, params, xs[..., sl], first)
        return out.take(self.rank, axis=-1)

    def conj_win(self, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``conj_win`` of every item at its marginal price mu >= 0."""
        return tuple(self._per_group(conj_win, mu, 2))

    def win_rate(self, mu: np.ndarray) -> np.ndarray:
        """``win_rate`` of every item at its marginal price mu >= 0."""
        return self._per_group(win_rate, mu)[0]

    def win_slope(self, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``win_slope`` of every item: its win rate, bit for bit ``win_rate``'s, and the rate's slope in mu.

        The slope is 0 from the item's bid cap g(x_bar) on, where the win
        rate holds at the total mass.
        """
        win, slope = self._per_group(win_slope, mu, 2)
        return win, np.where(mu < self._item_cap, slope, 0.0)

    def spend(self, q: np.ndarray) -> np.ndarray:
        """``spend`` (lam) of every item at its win rate q in [0, total mass]."""
        return self._per_group(spend, q)[0]

    def pay(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``pay`` f(x) of every item at its bid, and the win rate W(x) that bid buys.

        Bids below 0 count as 0, and W is held at the total mass beyond x_bar.
        """
        def paid_and_won(family, params, b, first):
            return pay(family, params, b, first), family.w(b, *params)

        return tuple(self._per_group(paid_and_won, np.maximum(x, 0.0), 2))

    def quantile(self, q: np.ndarray) -> np.ndarray:
        """W^{-1}(q) of every item at q in [0, total mass]."""
        return self._per_group(lambda family, params, v, first: family.quantile(v, *params), q)[0]

    def bid(self, mu: np.ndarray) -> np.ndarray:
        """Bids g^{-1}(mu) of every item, each mu capped at the item's bid cap g(x_bar).

        The bid is the capped multiplier itself under second price and the
        family's first-price ``bid`` under first price.
        """
        return self._per_group(lambda family, params, m, first: family.bid(m, *params) if first else m,
                               np.maximum(np.minimum(mu, self._item_cap), 0.0))[0]


_EPS = np.finfo(float).eps
_HALF_MAX = np.finfo(float).max / 2.0


def _evaluate(balance, t: np.ndarray):
    """balance(t) as (values, slopes), slopes None when the balance gives none."""
    out = balance(t)
    return out if isinstance(out, tuple) else (out, None)


def monotone_root(balance, f0: np.ndarray, t0: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Roots t > 0 of k nonincreasing functions at once, to a relative width of 4 eps.

    ``balance(t)`` evaluates all k functions, the i-th at t[i], and may
    return (values, slopes) with each function's derivative; ``f0`` holds
    their values at 0, which must be positive.  Entries not ``live`` are
    known to have no root and get NaN, as does an entry whose root lies
    beyond the largest float that doubling max(t0, 1e-9) reaches, or that
    300 steps inside its bracket do not pin down.  Each entry's bracket
    starts by doubling from t0 for as long as the doubled end stays finite;
    then Illinois regula falsi (Dowell & Jarratt 1971) shrinks it, stepping
    to the midpoint of a bracket that three steps failed to halve and
    keeping every step 2 eps inside it.  Every entry takes its own steps in
    each batched evaluation, whichever stage the others are at.

    With slopes, each step is first tried as a Newton step from the last
    point evaluated, safeguarded as in rtsafe (Press et al., Numerical
    Recipes, 9.4): it is taken when it is finite, at most half as long as
    the step before it, and stays inside the bracket (while doubling: short
    of the doubled end); otherwise the doubling or Illinois step is.  A
    Newton step is at least 2 eps long, relative to the end it leaves, so
    that once the point sits on the root the next step crosses it and
    closes the bracket.  Without slopes the steps are the doubling and
    Illinois steps alone.
    """
    k = f0.size
    a, fa = np.zeros(k), f0.copy()
    b = np.maximum(t0, 1e-9)
    fb, db = _evaluate(balance, b)
    fb = fb.copy()  # the bracket's arrays are updated in place
    t = np.full(k, np.nan)
    grow, todo = live.copy(), np.zeros(k, dtype=bool)  # doubling b, and shrinking [a, b]
    side, ref = np.zeros(k), np.zeros(k)  # side: +1 after a step that moved a, -1 after one that moved b
    stall, steps = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    # the last point evaluated, its value and slope, and the length of the step that reached it
    last, f_last, d_last, step = b, fb, db, np.full(k, np.inf)
    while True:
        growing = np.count_nonzero(grow)
        if growing:
            done = grow & ~((fb > 0.0) & (b <= _HALF_MAX))
            if np.count_nonzero(done):
                grow &= ~done
                growing = np.count_nonzero(grow)
                hit = done & (fb == 0.0)
                t[hit] = b[hit]
                done &= fb < 0.0
                todo |= done
                ref[done] = b[done] - a[done]
        todo &= steps < 300
        conv = todo & (b - a <= 4.0 * _EPS * b)
        if np.count_nonzero(conv):
            t[conv] = 0.5 * (a[conv] + b[conv])
            todo &= ~conv
        moving = todo | grow
        if not np.count_nonzero(moving):
            break
        x, rest = b, moving
        with np.errstate(invalid="ignore", divide="ignore"):
            if d_last is not None:
                dn = f_last / -d_last
                size = np.abs(dn)
                n = np.copysign(np.maximum(size, 2.0 * _EPS * last), dn) + last
                inside = (n > a) & (n < b)
                if growing:
                    inside = np.where(grow, (dn > 0.0) & (dn <= b), inside)
                newton = moving & inside & (size <= 0.5 * step)
                x, rest = np.where(newton, n, b), moving & ~newton
            if np.count_nonzero(rest):
                y = np.where(stall >= 3, 0.5 * (a + b), (a * fb - b * fa) / (fb - fa))
                y = np.minimum(np.maximum(y, a + 2.0 * _EPS * b), b - 2.0 * _EPS * b)
                if growing:
                    y = np.where(grow, 2.0 * b, y)
                x = np.where(rest, y, x)
        fx, dx = _evaluate(balance, x)
        if dx is not None:
            last, f_last, d_last, step = x, fx, dx, np.abs(x - last)
        if growing:
            np.copyto(a, b, where=grow)
            np.copyto(fa, fb, where=grow)
            np.copyto(b, x, where=grow)
            np.copyto(fb, fx, where=grow)
        steps += todo
        hit = todo & (fx == 0.0)
        if np.count_nonzero(hit):
            t[hit] = x[hit]
            todo &= ~hit
        go_a, go_b = todo & (fx > 0.0), todo & (fx < 0.0)
        # Illinois: the end kept twice in a row has its value halved
        fb[go_a & (side > 0.0)] *= 0.5
        fa[go_b & (side < 0.0)] *= 0.5
        np.copyto(a, x, where=go_a)
        np.copyto(fa, fx, where=go_a)
        np.copyto(b, x, where=go_b)
        np.copyto(fb, fx, where=go_b)
        side[go_a], side[go_b] = 1.0, -1.0
        width = b - a
        halved = width <= 0.5 * ref
        np.copyto(ref, width, where=halved)
        stall += todo
        stall[halved] = 0
    return t


def _gate_first_price(curve: SupplyCurve, kind: AuctionKind) -> None:
    """Raise NotTwoConcave when a first-price `curve` is not 2-concave; the gate of every first-price item."""
    if kind is AuctionKind.FIRST_PRICE:
        res = curve.two_concave()
        if not res.concave:
            raise NotTwoConcave(
                f"curve fails the 2-concavity grid heuristic near x={res.witness:.6g}; "
                "first-price bid mappings are not monotone without 2-concavity"
            )


class AcquisitionCost:
    """Expected-spend machinery for one supply curve under one price rule."""

    def __init__(self, curve: SupplyCurve, kind: AuctionKind | str):
        self.curve = curve
        self.kind = AuctionKind.parse(kind)
        _gate_first_price(curve, self.kind)

    # ------------------------------------------------------------------
    @property
    def total_mass(self) -> float:
        return self.curve.total_mass

    @property
    def bid_cap(self) -> float:
        """g(x_bar): the largest marginal price any bid can express."""
        return _bid_cap(self.curve, self.kind is AuctionKind.FIRST_PRICE)

    # ------------------------------------------------------------------
    def expected_cost(self, x):
        """f(x): expected payment per auction at bid x (0 for x <= 0)."""
        return _wrap(x, lambda xa: np.where(xa <= 0.0, 0.0, self._formula(pay, xa)))

    def lam(self, q):
        """Expected spend rate to win with probability (or volume) q.

        0 for q <= 0, +inf beyond the total mass, strictly convex between.
        """
        mass = self.total_mass
        return _wrap(q, lambda qa: np.where(qa > mass, np.inf,
                                            np.where(qa <= 0.0, 0.0, self._formula(spend, np.minimum(qa, mass)))))

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
                dens = curve.w_slope(xa)
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
