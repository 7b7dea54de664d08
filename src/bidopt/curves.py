"""Supply curves: distribution models of the highest competing bid.

A supply curve W maps a bid x to the probability (or, for unnormalized
order-book depth profiles, the volume) of winning at that bid.  Every curve
is 0 at and below 0, strictly increasing up to a maximum useful bid ``x_bar``
(possibly infinite), and constant beyond it.  Curves are immutable; all
evaluation methods accept floats or numpy arrays.

Extension conventions used throughout:

* ``eval``     -- 0 for x <= 0, W(x_bar) (the total mass) for x >= x_bar.
* ``inverse``  -- 0 for q <= 0, inf for q > total mass, x_bar at q == mass.

Each family writes W (``w``), its running integral (``w_integral``), its
first-price bid (``bid``), its quantile, its density (``w_slope``) and the
bid's derivative in the marginal price (``bid_slope``).  One ``density``
serves every family: ``w_slope`` on (0, x_bar], 0 elsewhere, which for an
``Empirical`` curve is the right-derivative at a knot.  Each parametric
family is a scale family, W^{-1}(q; p) = scale(p) shape(q): it writes a
parameter-free shape (``quantile_shape``) and a scale (``quantile_scale``),
which ``quantile`` composes.  The quantile integral ∫_0^q W^{-1}
(``quantile_integral``) follows by Young's equality, written once in
``SupplyCurve``, and only the unbounded families (Exponential, Hyperbolic)
write it in closed form.  So does the price integral ∫_0^x u dW(u)
(``price_integral``), the quantile integral at W(x), which Hyperbolic writes
in closed form.  ``integral_cdf``, ``integral_quantile`` and
``partial_mean`` wrap ``w_integral``, ``quantile_integral`` and
``price_integral`` for one curve; ``p_bar`` is ``integral_quantile`` at the mass.

A parametric family (Exponential, Hyperbolic, BoundedUniform,
PowerLawDensity) is declared once, by its dataclass fields: they are its
parameters in formula order, each checked positive and finite, its
``params()`` and its JSON form, and ``curve_from_json`` finds the family by
its ``family`` name and builds it from exactly those fields.

Every number a JSON document gives bidopt is read here, by ``_json_number``
(one value) or ``_json_numbers`` (an array), next to ``_json_object``.
"""
from __future__ import annotations

import bisect
import math
import types
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SupplyCurve",
    "Exponential",
    "Hyperbolic",
    "BoundedUniform",
    "PowerLawDensity",
    "Empirical",
    "ConcavityResult",
    "InsufficientSamples",
    "alpha_concavity_check",
    "fit_empirical",
    "curve_from_json",
]


class InsufficientSamples(ValueError):
    """Raised when fewer than two distinct price samples are supplied."""


class _family_method:
    """A method bound to what it is looked up on: a family class (with parameter arrays) or one curve."""

    def __init__(self, fn):
        self.fn = fn

    def __get__(self, obj, owner):
        return types.MethodType(self.fn, owner if obj is None else obj)


def _wrap(x, f):
    """Apply ``f`` to ``x`` as a float array, unwrapping 0-d results."""
    arr = np.asarray(x, dtype=float)
    out = f(arr)
    if arr.ndim == 0:
        return float(out)
    return out


class SupplyCurve:
    """Common evaluation logic; families implement the raw pieces."""

    family = "abstract"

    # -- family formulas ------------------------------------------------------
    # Each family writes W, its running integral, its first-price bid, its
    # quantile, its density and its bid's slope once, as w(x, *p),
    # w_integral(mu, *p), bid(mu, *p), quantile_shape(q, out=None) (free of
    # parameters and of guards, into ``out`` when given) and
    # quantile_scale(*p), w_slope(x, *p) and bid_slope(mu, x, *p) for
    # x, mu >= 0, q in [0, total mass] and p = formula_params().  The
    # parametric families make them static methods that broadcast over arrays
    # of parameters, so that one call evaluates a whole group of curves
    # (``costs.conj_win``, ``costs.spend``).  quantile(q, *p) and
    # quantile_integral(q, *p) are derived from them below; only the
    # unbounded families write the latter.
    def formula_params(self) -> tuple:
        return tuple(self.params().values())

    def w(self, x, *params):  # pragma: no cover - abstract
        """W(x), held at the total mass beyond x_bar."""
        raise NotImplementedError

    def w_integral(self, mu, *params):  # pragma: no cover - abstract
        """∫_0^mu W(u) du."""
        raise NotImplementedError

    def bid(self, mu, *params):
        """The largest bid x maximizing (mu - x) W(x)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no first-price bid formula; implement bid for _g_inverse"
        )

    # an unbounded family's W^{-1} is inf from q = 1 on, where its shape diverges
    unbounded = False

    @_family_method
    def quantile(self, q, *params):
        """W^{-1}(q) = quantile_scale(*p) quantile_shape(q) for q in [0, total mass]."""
        if not self.unbounded:
            return self.quantile_scale(*params) * self.quantile_shape(q)
        with np.errstate(divide="ignore"):
            return np.where(q >= 1.0, np.inf, self.quantile_scale(*params) * self.quantile_shape(np.minimum(q, 1.0)))

    def w_slope(self, x, *params):  # pragma: no cover - abstract
        """W'(x) on the open support: the density, by the formula of its interior."""
        raise NotImplementedError

    def bid_slope(self, mu, x, *params):  # pragma: no cover - abstract
        """dx/dmu of the first-price bid x = bid(mu) below the bid cap."""
        raise NotImplementedError

    @_family_method
    def quantile_integral(self, q, *params):
        """∫_0^q W^{-1}(u) du for q in [0, total mass].

        Young's equality q W^{-1}(q) = ∫_0^q W^{-1} + ∫_0^{W^{-1}(q)} W with the
        family's own quantile and w_integral.  Unbounded families write it in
        closed form: as q nears the mass both terms diverge and cancel
        (Hyperbolic(1.3) is off by 0.15 absolute at q = 1 - 1e-15).
        """
        x = self.quantile(q, *params)
        return q * x - self.w_integral(x, *params)

    @_family_method
    def price_integral(self, x, *params):
        """∫_0^x u dW(u) = ∫_0^{W(x)} W^{-1} for x >= 0: the second-price payment at bid x.

        The quantile integral at W(x).  Hyperbolic writes it in closed form:
        its W(x) rounds towards 1 at large x, and the quantile integral there
        loses what W rounded away (inf from x = 1e16 at scale 1).
        """
        return self.quantile_integral(self.w(x, *params), *params)

    def _cdf(self, x):
        return self.w(x, *self.formula_params())

    def two_concave(self) -> ConcavityResult:
        """Whether 1 - 1/W is concave on the support: the first-price gate.

        Exact for the parametric families.  A concave positive W is
        2-concave, since (1/W)'' = (2 W'^2 - W W'') / W^3 >= 0; that covers
        Exponential, Hyperbolic and BoundedUniform, and PowerLawDensity has
        1/W = 2 / (w0 x^2), convex.  Empirical overrides it with the grid
        heuristic; a new family that none of this covers must too.
        """
        return ConcavityResult(True, 2.0)

    @property
    def x_bar(self) -> float:
        raise NotImplementedError

    @property
    def total_mass(self) -> float:
        return 1.0

    @property
    def is_normalized(self) -> bool:
        return self.total_mass == 1.0

    # -- point evaluation ---------------------------------------------------
    def eval(self, x):
        def go(xa):
            with np.errstate(over="ignore", invalid="ignore"):
                capped = np.minimum(xa, self.x_bar)
                vals = self._cdf(np.maximum(capped, 0.0))
            return np.where(xa <= 0.0, 0.0, vals)

        return _wrap(x, go)

    def inverse(self, q):
        mass = self.total_mass

        def go(qa):
            inner = self.quantile(np.clip(qa, 0.0, mass), *self.formula_params())
            out = np.where(qa <= 0.0, 0.0, inner)
            return np.where(qa > mass, np.inf, out)

        return _wrap(q, go)

    def density(self, x):
        """W'(x): ``w_slope`` on (0, x_bar], 0 elsewhere."""
        def go(xa):
            inside = (xa > 0.0) & (xa <= self.x_bar)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = self.w_slope(np.where(inside, xa, 1.0), *self.formula_params())
            return np.where(inside, vals, 0.0)

        return _wrap(x, go)

    def terminal_density(self) -> float:
        """lim W'(x) as x approaches x_bar from below (0 when x_bar = inf)."""
        if math.isinf(self.x_bar):
            return 0.0
        return float(self.w_slope(np.asarray(self.x_bar), *self.formula_params()))

    # -- sampling -------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-transform price draws; requires a normalized curve."""
        if not self.is_normalized:
            raise ValueError("sampling requires a normalized curve")
        return self.inverse(rng.random(size))

    # -- exact running integrals ---------------------------------------------
    def integral_cdf(self, mu):
        """∫_0^mu W(u) du with W held at its total mass beyond x_bar."""
        return _wrap(mu, lambda m: self.w_integral(np.maximum(m, 0.0), *self.formula_params()))

    def integral_quantile(self, q):
        """∫_0^q W^{-1}(u) du, with q clipped to [0, total mass]."""
        mass, params = self.total_mass, self.formula_params()
        return _wrap(q, lambda qa: self.quantile_integral(np.clip(qa, 0.0, mass), *params))

    def partial_mean(self, x):
        """∫_0^x u dW(u) = ∫_0^{W(x)} W^{-1}, the full first moment for x >= x_bar."""
        return _wrap(x, lambda xa: self.price_integral(np.maximum(xa, 0.0), *self.formula_params()))

    @property
    def p_bar(self) -> float:
        """First moment of the win price over the full support."""
        return float(self.integral_quantile(self.total_mass))

    # -- first-price bid at a marginal price --------------------------------
    def _g_inverse(self, mu):
        """The bid x maximizing (mu - x) W(x): g^{-1}(mu) where g is monotone."""
        return _wrap(mu, lambda m: self.bid(np.maximum(m, 0.0), *self.formula_params()))

    # -- serialization ---------------------------------------------------------
    def params(self) -> dict:
        return {}

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params()}

    def __repr__(self):  # params are short everywhere
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


def _omega(a):
    """Wright omega of a >= 1, the root w of w + log w = a, to 2 ulp (arrays broadcast).

    Lawrence, Corless & Jeffrey (2012, ACM TOMS 917) on the real line above
    1: start from w0 = a - a log(a) / (a + 1), a Newton step from w = a,
    then take two Fritsch-Shafer-Crowley (1973) steps; one step alone
    leaves up to 4e-10 relative error near a = 2.5.  Each step is written
    through r / (1 + w) and s = r / ((1 + w)(1 + w + 2r/3)), never
    (1 + w)^2, so that nothing overflows up to the largest float.
    """
    w = a - np.log(a) * (a / (a + 1.0))
    for _ in range(2):
        r = a - w - np.log(w)
        q = r / (1.0 + w)
        s = q / (1.0 + w + 2.0 * r / 3.0)
        w = w * (1.0 + q * (1.0 - 0.5 * s) / (1.0 - s))
    return w


def _power_sum(x, coefs: np.ndarray) -> np.ndarray:
    """sum_k coefs[k-1] x^k over k = 1, ..., coefs.size, entry by entry.

    Two numpy calls, the powers and their weighted sum, where Horner's rule
    would make two per coefficient.
    """
    return np.power(np.asarray(x, dtype=float)[..., None], np.arange(1.0, coefs.size + 1.0)).dot(coefs)


# coefficients for _power_sum: 2 / (2k + 1) for k = 1, ..., 11, the series of
# 2 (atanh(u) - u) / u in w = u^2; and (-1)^k / k! for k = 2, ..., 15 (0 at
# k = 1), the series of y + expm1(-y), its tail under half an ulp for y <= 1/2
_ATANH_TAIL = 2.0 / np.arange(3.0, 25.0, 2.0)
_EXP_TAIL = np.array([0.0, *((-1.0) ** k / math.factorial(k) for k in range(2, 16))])


def _log_tail(s):
    """-s - log(1 - s) = sum_{k>=2} s^k / k for 0 <= s < 1/3, where that difference cancels.

    With u = s / (2 - s), -log(1 - s) = 2 atanh(u) and 2u - s = s u, so it
    is u (s + 2 u^-1 (atanh(u) - u)): positive terms, and the series of the
    second one in w = u^2 <= 1/25 reaches half an ulp in 11 terms
    (-s - log1p(-s) is 1.0e-8 off relative at s = 1e-8).
    """
    u = s / (2.0 - s)
    return u * (s + _power_sum(u * u, _ATANH_TAIL))


class _Parametric(SupplyCurve):
    """A family declared by its dataclass fields: positive finite parameters in formula order.

    ``params()`` lists the fields, so ``formula_params()`` is the fields in
    field order, and ``curve_from_json`` builds a family from exactly them.
    """

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, _json_number(getattr(self, name), name))

    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True, repr=False)
class Exponential(_Parametric):
    """W(x) = 1 - exp(-rate * x); unbounded support, mean price 1/rate."""

    rate: float
    family = "exponential"
    unbounded = True

    @property
    def x_bar(self) -> float:
        return math.inf

    @staticmethod
    def w(x, rate):
        return -np.expm1(-rate * x)

    @staticmethod
    def w_integral(mu, rate):
        # mu + expm1(-y)/rate with y = rate mu cancels at small y (1.3e-8
        # relative at y = 1e-8); below y = 1/2 its series is summed instead
        y = rate * mu
        return np.where(y < 0.5, _power_sum(np.minimum(y, 0.5), _EXP_TAIL) / rate, mu + np.expm1(-y) / rate)

    @staticmethod
    def bid(mu, rate):
        """Root of x + (e^{rate x} - 1)/rate = mu in closed form, then two Newton steps.

        With a = 1 + rate mu the root is log(omega(a))/rate, omega the Wright
        omega function (omega + log omega = a), which does not cancel digits
        as the equal (a - omega(a))/rate does for huge rate mu.  Rounding
        a = 1 + rate mu loses digits of tiny rate mu; the residual is convex
        and increasing in x, so Newton steps from there restore them.
        """
        a = 1.0 + rate * mu
        x = np.log(_omega(a)) / rate
        for _ in range(2):
            em = np.expm1(rate * x)
            x = x - (x + em / rate - mu) / (2.0 + em)
        return x

    @staticmethod
    def quantile_shape(q, out=None):
        return np.negative(np.log1p(np.negative(q, out=out), out=out), out=out)

    @staticmethod
    def quantile_scale(rate):
        return 1.0 / rate

    @staticmethod
    def quantile_integral(q, rate):
        one_m = 1.0 - q
        # (1-q)ln(1-q) -> 0 as q -> 1
        term = np.where(one_m > 0.0, one_m * np.log(np.maximum(one_m, 1e-300)), 0.0)
        # q + (1-q) ln(1-q) cancels at small q (all digits at q = 1e-8); as
        # ln(1-q) = -q - L with L = _log_tail(q), it equals q^2 - (1-q) L there
        return np.where(q < 1.0 / 3.0, q * q - one_m * _log_tail(q), q + term) / rate

    @staticmethod
    def w_slope(x, rate):
        return rate * np.exp(-rate * x)

    @staticmethod
    def bid_slope(mu, x, rate):
        # (mu - x) W'(x) = W(x) differentiated: x' = W' / (2 W' - (mu - x) W'')
        return 1.0 / (2.0 + rate * (mu - x))


@dataclass(frozen=True, repr=False)
class Hyperbolic(_Parametric):
    """W(x) = x / (scale + x); unbounded support, infinite mean price.

    The infinite first moment makes the full-coverage acquisition cost
    infinite in a second-price auction, but costs and conjugates are finite
    everywhere below full coverage, which is all the optimization touches.
    """

    scale: float
    family = "hyperbolic"
    unbounded = True

    @property
    def x_bar(self) -> float:
        return math.inf

    @staticmethod
    def w(x, scale):
        with np.errstate(invalid="ignore"):
            out = x / (scale + x)
        return np.where(np.isinf(x), 1.0, out)

    @staticmethod
    def w_integral(mu, scale):
        # c (t - log1p(t)) with t = mu/c cancels at small t (9.6e-9 relative at
        # t = 1e-8).  With s = W(mu) = t/(1 + t), log1p(t) = s + _log_tail(s),
        # so below s = 1/3 it is summed as c (t s - _log_tail(s)) instead
        t = mu / scale
        s = t / (1.0 + t)
        return scale * np.where(s < 1.0 / 3.0, t * s - _log_tail(s), t - np.log1p(t))

    @staticmethod
    def bid(mu, scale):
        # g(x) = x (2c + x) / c  =>  x = c (sqrt(1 + mu/c) - 1) = mu / (1 + sqrt(1 + mu/c)),
        # the second form free of cancellation at small mu/c
        return mu / (1.0 + np.sqrt(1.0 + mu / scale))

    @staticmethod
    def quantile_shape(q, out=None):
        return np.divide(q, 1.0 - q, out=out)

    @staticmethod
    def quantile_scale(scale):
        return scale

    @staticmethod
    def quantile_integral(q, scale):
        # c (-q - log1p(-q)) cancels below q = 1/3 (1.0e-8 relative at q =
        # 1e-8), where the series _log_tail(q) is summed instead
        with np.errstate(divide="ignore"):
            out = scale * np.where(q < 1.0 / 3.0, _log_tail(q), -q - np.log1p(-q))
        return np.where(q >= 1.0, np.inf, out)

    @staticmethod
    def price_integral(x, scale):
        # c (log(1 + t) - s) with t = x/c and s = W(x) = t/(1 + t), free of
        # W(x)'s rounding towards 1.  As log(1 + t) = -log(1 - s), it equals
        # c _log_tail(s), summed below s = 1/3, where the difference cancels
        # (2.9e-9 relative at x = 1e-8 c)
        s = Hyperbolic.w(x, scale)
        return scale * np.where(s < 1.0 / 3.0, _log_tail(s), np.log1p(x / scale) - s)

    @staticmethod
    def w_slope(x, scale):
        return scale / (scale + x) ** 2

    @staticmethod
    def bid_slope(mu, x, scale):
        # x (2c + x) = c mu differentiated
        return (scale + x) / (2.0 * (scale + mu))


@dataclass(frozen=True, repr=False)
class BoundedUniform(_Parametric):
    """Uniform price on (0, x_bar]: W(x) = x / x_bar."""

    x_max: float
    family = "bounded_uniform"

    @property
    def x_bar(self) -> float:
        return self.x_max

    @staticmethod
    def w(x, x_max):
        return np.minimum(x, x_max) / x_max

    @staticmethod
    def w_integral(mu, x_max):
        return np.minimum(mu, x_max) ** 2 / (2.0 * x_max) + np.maximum(mu - x_max, 0.0)

    @staticmethod
    def bid(mu, x_max):
        return np.minimum(mu / 2.0, x_max)

    @staticmethod
    def quantile_shape(q, out=None):
        return np.positive(q, out=out)

    @staticmethod
    def quantile_scale(x_max):
        return x_max

    @staticmethod
    def w_slope(x, x_max):
        return 0.0 * x + 1.0 / x_max

    @staticmethod
    def bid_slope(mu, x, x_max):
        return 0.5


@dataclass(frozen=True, repr=False)
class PowerLawDensity(_Parametric):
    """Unnormalized depth profile with density w0 * p on (0, x_bar].

    W(p) = w0 p^2 / 2 counts cumulative volume, not probability; the total
    mass is w0 x_bar^2 / 2.  Used for limit-order-book cost models.
    """

    w0: float
    x_max: float
    family = "power_law_density"

    def __post_init__(self):
        super().__post_init__()
        # x_max**2 raises OverflowError on a float where x_max * x_max is inf
        if not 0.0 < self.w0 * (self.x_max * self.x_max) / 2.0 < math.inf:
            raise ValueError("the total mass w0 * x_max**2 / 2 must be a positive finite number")

    @property
    def x_bar(self) -> float:
        return self.x_max

    @property
    def total_mass(self) -> float:
        return self.w0 * self.x_max**2 / 2.0

    @staticmethod
    def w(x, w0, x_max):
        return w0 * np.minimum(x, x_max) ** 2 / 2.0

    @staticmethod
    def w_integral(mu, w0, x_max):
        inside = np.minimum(mu, x_max)
        # w0 first: inside**3 alone overflows beyond 5.6e102 while the mass is ordinary
        return w0 * inside * inside * inside / 6.0 + w0 * x_max**2 / 2.0 * np.maximum(mu - x_max, 0.0)

    @staticmethod
    def bid(mu, w0, x_max):
        return np.minimum(2.0 * mu / 3.0, x_max)

    @staticmethod
    def quantile_shape(q, out=None):
        return np.sqrt(q, out=out)

    @staticmethod
    def quantile_scale(w0, x_max):
        return np.sqrt(2.0 / w0)

    @staticmethod
    def w_slope(x, w0, x_max):
        return w0 * x

    @staticmethod
    def bid_slope(mu, x, w0, x_max):
        return 2.0 / 3.0


class Empirical(SupplyCurve):
    """Piecewise-linear curve through strictly increasing breakpoints.

    Breakpoints run from an anchor (x0, 0) -- x0 is 0 for fitted price
    curves, possibly positive for order-book profiles with a spread gap --
    up to (x_K, mass), all finite.  Evaluation interpolates linearly; the
    density (``w_slope``) is the piecewise-constant segment slope, the
    right-derivative at a knot.
    """

    family = "empirical"

    def __init__(self, breakpoints: Sequence[tuple[float, float]]):
        pts = _json_numbers(breakpoints, "breakpoints", (None, 2))
        if pts.size and pts[0, 1] != 0.0:
            pts = np.vstack([(0.0, 0.0), pts])
        if len(pts) < 2:
            raise ValueError("need at least one breakpoint above the anchor")
        xs, ws = pts.T.copy()
        if xs[0] < 0.0:
            raise ValueError("breakpoint positions must be nonnegative")
        if not (np.all(np.diff(xs) > 0.0) and np.all(np.diff(ws) > 0.0)):
            raise ValueError("breakpoints must be strictly increasing in both coordinates")
        self._xs = xs
        self._ws = ws
        self._xs.setflags(write=False)
        self._ws.setflags(write=False)
        dx = np.diff(xs)
        with np.errstate(all="ignore"):  # a value out of range fails the check below
            self._slopes = np.diff(ws) / dx
            self._w_per_slope = ws[:-1] / self._slopes  # the bid's segment offsets w_k / s_k
            # prefix integrals of W at the breakpoints
            self._cum_icdf = np.concatenate([[0.0], np.cumsum(ws[:-1] * dx + self._slopes * dx**2 / 2.0)])
        bad = ~(np.isfinite(self._slopes) & (self._slopes > 0.0) & np.isfinite(self._w_per_slope)
                & np.isfinite(self._cum_icdf[1:]))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"breakpoints ({xs[k]:.6g}, {ws[k]:.6g}) to ({xs[k + 1]:.6g}, {ws[k + 1]:.6g}): "
                             "the segment's slope or the running integral of W is not a positive finite number")
        self._slopes.setflags(write=False)
        # the right-derivative of W after each breakpoint, padded with the 0 below the anchor
        self._slope_after = np.concatenate([[0.0], self._slopes, [0.0]])

    @property
    def breakpoints(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._xs.tolist(), self._ws.tolist()))

    @property
    def x_bar(self) -> float:
        return float(self._xs[-1])

    @property
    def total_mass(self) -> float:
        return float(self._ws[-1])

    def formula_params(self) -> tuple:
        return ()

    def w(self, x):
        return np.interp(x, self._xs, self._ws)

    def quantile(self, q):
        return np.interp(q, self._ws, self._xs)

    def terminal_density(self) -> float:
        return float(self._slopes[-1])

    def w_slope(self, x):
        """Right-derivative of W (0 outside [x0, x_bar), as x0 >= 0)."""
        return self._slope_after[np.searchsorted(self._xs, x, side="right")]

    def bid_slope(self, mu, x):
        """1/2 where the bid is its segment's stationary point; 0 where it sits on a knot."""
        knot = self._xs[np.minimum(np.searchsorted(self._xs, x), self._xs.size - 1)]
        return np.where(knot == x, 0.0, 0.5)

    def two_concave(self) -> ConcavityResult:
        """The grid heuristic ``alpha_concavity_check`` at alpha = 2, with its witness."""
        return alpha_concavity_check(self, 2.0)

    def w_integral(self, mu):
        xs, ws, slopes = self._xs, self._ws, self._slopes
        inside = np.minimum(np.maximum(mu, xs[0]), xs[-1])  # np.clip, without its overhead
        idx = np.minimum(np.searchsorted(xs, inside, side="right") - 1, len(slopes) - 1)
        dx = inside - xs[idx]
        base = self._cum_icdf[idx] + ws[idx] * dx + slopes[idx] * dx**2 / 2.0
        return base + self.total_mass * np.maximum(mu - xs[-1], 0.0)

    def bid(self, mu):
        """Largest maximizer of (mu - x) W(x) over bids x; 0 for mu <= 0.

        On segment k the objective is a concave quadratic whose maximum over
        [x_k, x_{k+1}] is its stationary point (mu + x_k - w_k/s_k)/2 clipped
        to the segment, so the best segment gives the exact maximizer without
        the bid mapping having to be monotone.  The anchor segment (W = 0 at
        its left knot) keeps the maximum >= 0 for every mu.
        """
        lo, hi, w_lo, s = self._xs[:-1], self._xs[1:], self._ws[:-1], self._slopes
        mu = np.asarray(mu, dtype=float)
        mm = mu[..., None]
        x = np.minimum(np.maximum((mm + lo - self._w_per_slope) / 2.0, lo), hi)  # np.clip, without its overhead
        val = (mm - x) * (w_lo + s * (x - lo))
        last = s.size - 1 - np.argmax(val[..., ::-1], axis=-1)
        best = x.reshape(-1, s.size)[np.arange(last.size), last.ravel()].reshape(mu.shape)
        return np.where(mu <= 0.0, 0.0, best)

    def params(self):
        return {"breakpoints": [[float(a), float(b)] for a, b in self.breakpoints]}

    def to_json(self) -> dict:
        return {"family": self.family, "breakpoints": self.params()["breakpoints"]}

    def __repr__(self):
        return f"Empirical({len(self._xs) - 1} segments, x_bar={self.x_bar:g}, mass={self.total_mass:g})"

    def __eq__(self, other):
        return isinstance(other, Empirical) and self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)


# ---------------------------------------------------------------------------
# construction helpers


def fit_empirical(prices: Sequence[float], min_support: float) -> Empirical:
    """Fit a piecewise-linear CDF through the de-duplicated order statistics.

    Ties are merged into a single breakpoint carrying their combined count;
    clusters of distinct values closer than ``min_support`` are merged at
    their count-weighted mean.  The top breakpoint is anchored at W = 1.
    """
    if min_support <= 0:
        raise ValueError("min_support must be positive")
    arr = np.asarray(prices, dtype=float)
    if arr.ndim != 1:
        raise ValueError("prices must be a flat sequence")
    arr = np.sort(arr)
    if arr.size == 0:
        raise InsufficientSamples("no samples")
    if not np.all(arr > 0):
        raise ValueError("prices must be positive")
    values, counts = np.unique(arr, return_counts=True)
    # greedy clustering: start a new cluster at the first value v whose gap
    # v - start to the cluster's start reaches min_support.  The gap grows
    # with v, so one search per start finds it; the search compares v with
    # start + min_support, which rounds, so it then steps to the first v
    # whose gap itself reaches min_support
    v = values.tolist()
    starts = [0]
    while True:
        i = starts[-1]
        k = bisect.bisect_left(v, v[i] + min_support, i + 1)
        while k > i + 1 and v[k - 1] - v[i] >= min_support:
            k -= 1
        while k < len(v) and not v[k] - v[i] >= min_support:
            k += 1
        if k == len(v):
            break
        starts.append(k)
    if len(starts) < 2:
        raise InsufficientSamples("need at least 2 distinct samples after merging")
    # each cluster's count-weighted mean, its sum taken left to right
    weighted = values * counts
    sums = weighted[starts]
    for c, (a, b) in enumerate(zip(starts, [*starts[1:], len(v)])):
        if b - a > 1:
            sums[c] = np.cumsum(weighted[a:b])[-1]
    cn = np.add.reduceat(counts, starts)
    cum = np.cumsum(cn) / arr.size
    cum[-1] = 1.0
    return Empirical(list(zip((sums / cn).tolist(), cum.tolist())))


@dataclass(frozen=True)
class ConcavityResult:
    concave: bool
    alpha: float
    witness: float | None = None

    def __bool__(self):
        return self.concave


def _alpha_transform(w: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 1.0:
        return np.log(w)
    return (w ** (1.0 - alpha) - 1.0) / (1.0 - alpha)


def alpha_concavity_check(
    curve: SupplyCurve, alpha: float, grid_size: int = 2048
) -> ConcavityResult:
    """Grid heuristic for concavity of ell_alpha(W(x)) on the curve's support.

    ell_alpha is the scaled power transform (log at alpha = 1).  The test
    compares successive chord slopes on a logarithmic grid over (0, x_hi),
    where x_hi is x_bar for bounded curves and the 0.999-mass point
    otherwise.  Slopes must be non-increasing up to a tolerance relative to
    the largest chord slope; the witness is the grid point where the first
    violation occurs.  A pass is not a certificate: small rises between grid
    points, or below the tolerance, go unseen, so fitted empirical curves
    whose segment slopes rise at some knots can pass.
    """
    if grid_size < 8:
        raise ValueError("grid_size too small")
    mass = curve.total_mass
    x_hi = curve.x_bar if math.isfinite(curve.x_bar) else float(curve.inverse(0.999 * mass))
    x_lo = float(curve.inverse(1e-4 * mass))
    if not (0.0 < x_lo < x_hi):
        x_lo = x_hi * 1e-8
    xs = np.geomspace(x_lo, x_hi, grid_size)
    w = np.asarray(curve.eval(xs))
    y = _alpha_transform(w, alpha)
    slopes = np.diff(y) / np.diff(xs)
    scale = np.max(np.abs(slopes)) + 1e-30
    rises = np.diff(slopes)
    bad = rises > 1e-9 * scale
    if np.any(bad):
        k = int(np.argmax(bad))
        return ConcavityResult(False, alpha, witness=float(xs[k + 1]))
    return ConcavityResult(True, alpha)


# each parametric family by its ``family`` name
_PARAMETRIC = {cls.family: cls for cls in _Parametric.__subclasses__()}


def _json_object(obj, what: str) -> dict:
    """``obj`` if it is a JSON object; otherwise a ValueError that names ``what``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {obj!r:.40}")
    return obj


def _json_number(value, what: str, low: float | None = None) -> float:
    """``value`` as a finite float above 0, or at least ``low``; otherwise a ValueError that names ``what``.

    A bool, a string and an integer too large for a float are rejected, not converted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, not {value!r:.40}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        x = math.inf
    if not (math.isfinite(x) and (x > 0.0 if low is None else x >= low)):
        wanted = "a positive finite number" if low is None else f"a finite number >= {low:g}"
        raise ValueError(f"{what} must be {wanted}, not {value!r:.40}")
    return x


def _json_numbers(values, what: str, shape: tuple) -> np.ndarray:
    """``values`` as a float array of ``shape`` (None fits any length), all finite; else a ValueError naming ``what``.

    Entries are read as numpy reads them, not scanned one by one: a bool reads as 0 or 1.
    """
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be an array of numbers: {exc}") from None
    if arr.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, arr.shape)):
        raise ValueError(f"{what} has shape {arr.shape}, not {shape}")
    if not np.isfinite(arr).all():  # a JSON null reads as NaN
        raise ValueError(f"{what} has a null or non-finite entry")
    return arr


def curve_from_json(obj: dict) -> SupplyCurve:
    """Rebuild a curve from its ``to_json`` form; a parametric family takes exactly its fields."""
    family = _json_object(obj, "curve").get("family")
    if family == "empirical":
        pts = obj.get("breakpoints") or _json_object(obj.get("params", {}), "empirical curve params").get("breakpoints")
        if pts is None:
            raise ValueError("empirical curve needs breakpoints")
        return Empirical(pts)
    cls = _PARAMETRIC.get(family)
    if cls is None:
        raise ValueError(f"unknown curve family: {family!r}")
    params = _json_object(obj.get("params", {}), f"{family} curve params")
    if set(params) != cls.__dataclass_fields__.keys():
        raise ValueError(f"{family} curve takes the parameters {list(cls.__dataclass_fields__)}, not {sorted(params)}")
    return cls(**params)
