"""Supply curves: distribution models of the highest competing bid.

A supply curve W maps a bid x to the probability (or, for unnormalized
order-book depth profiles, the volume) of winning at that bid.  Every curve
is 0 at and below 0, strictly increasing up to a maximum useful bid ``x_bar``
(possibly infinite), and constant beyond it.  Curves are immutable; all
evaluation methods accept floats or numpy arrays.

Extension conventions used throughout:

* ``eval``     -- 0 for x <= 0, W(x_bar) (the total mass) for x >= x_bar.
* ``inverse``  -- 0 for q <= 0, inf for q > total mass, x_bar at q == mass.

Besides point evaluation each family provides exact running integrals
(``integral_cdf``, ``integral_quantile``, ``partial_mean``) which the cost
layer assembles into acquisition costs and their convex conjugates.
"""
from __future__ import annotations

import math
import warnings
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
    "UndifferentiableAtBreakpoint",
    "alpha_concavity_check",
    "fit_empirical",
    "curve_from_json",
]


class InsufficientSamples(ValueError):
    """Raised when fewer than two distinct price samples are supplied."""


class UndifferentiableAtBreakpoint(UserWarning):
    """Emitted when a density is requested exactly at a breakpoint.

    The right-derivative is returned; this warning is the flag that the
    two-sided derivative does not exist there.
    """


def _wrap(x, f):
    """Apply ``f`` to ``x`` as a float array, unwrapping 0-d results."""
    arr = np.asarray(x, dtype=float)
    out = f(arr)
    if arr.ndim == 0:
        return float(out)
    return out


# Newton stops once a step is within a few ulps of the iterate
_NEWTON_TOL = 4.0 * np.finfo(float).eps


def _exp_first_bid(rate, mu):
    """Solve x + (e^{rate x} - 1)/rate = mu elementwise by guarded Newton.

    The root is bracketed by [0, min(mu, log1p(rate mu)/rate)]; a step that
    leaves the (closed) bracket is replaced by bisection.  Broadcasts over
    ``rate`` and ``mu``; 0 for mu <= 0.
    """
    m = np.maximum(mu, 0.0)
    hi = np.minimum(m, np.log1p(rate * m) / rate)
    x = 0.5 * hi
    lo = np.zeros_like(x)
    for _ in range(80):
        em = np.expm1(rate * x)
        val = x + em / rate - m
        lo = np.where(val < 0.0, x, lo)
        hi = np.where(val > 0.0, x, hi)
        xn = x - val / (2.0 + em)
        xn = np.where((xn < lo) | (xn > hi), 0.5 * (lo + hi), xn)
        done = np.all(np.abs(xn - x) <= _NEWTON_TOL * (1.0 + np.abs(x)))
        x = xn
        if done:
            break
    return x


class SupplyCurve:
    """Common evaluation logic; families implement the raw pieces."""

    family = "abstract"

    # -- family-specific raw pieces (valid on the open support) ------------
    def _cdf(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def _quantile(self, q):  # pragma: no cover - abstract
        raise NotImplementedError

    def _pdf(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def x_bar(self) -> float:
        raise NotImplementedError

    @property
    def p_bar(self) -> float:
        """First moment of the win price over the full support."""
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
            inner = self._quantile(np.clip(qa, 0.0, mass))
            out = np.where(qa <= 0.0, 0.0, inner)
            return np.where(qa > mass, np.inf, out)

        return _wrap(q, go)

    def density(self, x):
        def go(xa):
            inside = (xa > 0.0) & (xa <= self.x_bar)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = self._pdf(np.where(inside, xa, 1.0))
            return np.where(inside, vals, 0.0)

        return _wrap(x, go)

    def terminal_density(self) -> float:
        """lim W'(x) as x approaches x_bar from below (0 when x_bar = inf)."""
        if math.isinf(self.x_bar):
            return 0.0
        return float(self._pdf(np.asarray(self.x_bar)))

    # -- sampling -------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-transform price draws; requires a normalized curve."""
        if not self.is_normalized:
            raise ValueError("sampling requires a normalized curve")
        return self.inverse(rng.random(size))

    # -- exact running integrals ---------------------------------------------
    def integral_cdf(self, mu):
        """∫_0^mu W(u) du with W held at its total mass beyond x_bar."""
        raise NotImplementedError

    def integral_quantile(self, q):
        """∫_0^q W^{-1}(u) du for q in [0, total mass]."""
        raise NotImplementedError

    def partial_mean(self, x):
        """∫_0^x u dW(u); the full first moment for x >= x_bar."""
        raise NotImplementedError

    # -- first-price bid at a marginal price --------------------------------
    def _g_inverse(self, mu):
        """The bid x maximizing (mu - x) W(x): g^{-1}(mu) where g is monotone."""
        raise NotImplementedError(
            f"{type(self).__name__} has no first-price bid formula; implement _g_inverse"
        )

    # -- serialization ---------------------------------------------------------
    def params(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params()}

    def __repr__(self):  # params are short everywhere
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


@dataclass(frozen=True, repr=False)
class Exponential(SupplyCurve):
    """W(x) = 1 - exp(-rate * x); unbounded support, mean price 1/rate."""

    rate: float
    family = "exponential"

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("rate must be a positive finite number")

    @property
    def x_bar(self) -> float:
        return math.inf

    @property
    def p_bar(self) -> float:
        return 1.0 / self.rate

    def _cdf(self, x):
        return -np.expm1(-self.rate * x)

    def _quantile(self, q):
        with np.errstate(divide="ignore"):
            inner = -np.log1p(-np.minimum(q, 1.0 - 1e-16)) / self.rate
        return np.where(q >= 1.0, np.inf, inner)

    def _pdf(self, x):
        return self.rate * np.exp(-self.rate * x)

    def integral_cdf(self, mu):
        g = self.rate

        def go(m):
            m = np.maximum(m, 0.0)
            return m + np.expm1(-g * m) / g

        return _wrap(mu, go)

    def integral_quantile(self, q):
        g = self.rate

        def go(qa):
            qa = np.clip(qa, 0.0, 1.0)
            one_m = 1.0 - qa
            # (1-q)ln(1-q) -> 0 as q -> 1
            term = np.where(one_m > 0.0, one_m * np.log(np.maximum(one_m, 1e-300)), 0.0)
            return (qa + term) / g

        return _wrap(q, go)

    def partial_mean(self, x):
        g = self.rate

        def go(xa):
            xa = np.maximum(xa, 0.0)
            with np.errstate(invalid="ignore"):
                tail = np.exp(-g * xa) * (1.0 + g * xa)
            tail = np.where(np.isfinite(xa), tail, 0.0)
            return (1.0 - tail) / g

        return _wrap(x, go)

    def _g_inverse(self, mu):
        return _wrap(mu, lambda m: _exp_first_bid(self.rate, m))

    def params(self):
        return {"rate": self.rate}


@dataclass(frozen=True, repr=False)
class Hyperbolic(SupplyCurve):
    """W(x) = x / (scale + x); unbounded support, infinite mean price.

    The infinite first moment makes the full-coverage acquisition cost
    infinite in a second-price auction, but costs and conjugates are finite
    everywhere below full coverage, which is all the optimization touches.
    """

    scale: float
    family = "hyperbolic"

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be a positive finite number")

    @property
    def x_bar(self) -> float:
        return math.inf

    @property
    def p_bar(self) -> float:
        return math.inf

    def _cdf(self, x):
        with np.errstate(invalid="ignore"):
            out = x / (self.scale + x)
        return np.where(np.isinf(x), 1.0, out)

    def _quantile(self, q):
        c = self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            out = c * q / (1.0 - q)
        return np.where(q >= 1.0, np.inf, out)

    def _pdf(self, x):
        c = self.scale
        return c / (c + x) ** 2

    def integral_cdf(self, mu):
        c = self.scale

        def go(m):
            m = np.maximum(m, 0.0)
            return m - c * np.log1p(m / c)

        return _wrap(mu, go)

    def integral_quantile(self, q):
        c = self.scale

        def go(qa):
            qa = np.clip(qa, 0.0, 1.0)
            with np.errstate(divide="ignore"):
                out = c * (-qa - np.log1p(-qa))
            return np.where(qa >= 1.0, np.inf, out)

        return _wrap(q, go)

    def partial_mean(self, x):
        c = self.scale

        def go(xa):
            xa = np.maximum(xa, 0.0)
            with np.errstate(invalid="ignore"):
                out = c * (np.log1p(xa / c) + c / (c + xa) - 1.0)
            return np.where(np.isinf(xa), np.inf, out)

        return _wrap(x, go)

    def _g_inverse(self, mu):
        # g(x) = x (2c + x) / c  =>  x = c (sqrt(1 + mu/c) - 1)
        c = self.scale

        def go(m):
            m = np.maximum(m, 0.0)
            return c * (np.sqrt(1.0 + m / c) - 1.0)

        return _wrap(mu, go)

    def params(self):
        return {"scale": self.scale}


@dataclass(frozen=True, repr=False)
class BoundedUniform(SupplyCurve):
    """Uniform price on (0, x_bar]: W(x) = x / x_bar."""

    x_max: float
    family = "bounded_uniform"

    def __post_init__(self):
        if not (self.x_max > 0 and math.isfinite(self.x_max)):
            raise ValueError("x_max must be a positive finite number")

    @property
    def x_bar(self) -> float:
        return self.x_max

    @property
    def p_bar(self) -> float:
        return self.x_max / 2.0

    def _cdf(self, x):
        return x / self.x_max

    def _quantile(self, q):
        return q * self.x_max

    def _pdf(self, x):
        return np.full_like(np.asarray(x, dtype=float), 1.0 / self.x_max)

    def integral_cdf(self, mu):
        b = self.x_max

        def go(m):
            m = np.maximum(m, 0.0)
            inside = np.minimum(m, b)
            return inside**2 / (2.0 * b) + np.maximum(m - b, 0.0)

        return _wrap(mu, go)

    def integral_quantile(self, q):
        b = self.x_max

        def go(qa):
            qa = np.clip(qa, 0.0, 1.0)
            return b * qa**2 / 2.0

        return _wrap(q, go)

    def partial_mean(self, x):
        b = self.x_max

        def go(xa):
            inside = np.clip(xa, 0.0, b)
            return inside**2 / (2.0 * b)

        return _wrap(x, go)

    def _g_inverse(self, mu):
        return _wrap(mu, lambda m: np.clip(m / 2.0, 0.0, self.x_max))

    def params(self):
        return {"x_max": self.x_max}


@dataclass(frozen=True, repr=False)
class PowerLawDensity(SupplyCurve):
    """Unnormalized depth profile with density w0 * p on (0, x_bar].

    W(p) = w0 p^2 / 2 counts cumulative volume, not probability; the total
    mass is w0 x_bar^2 / 2.  Used for limit-order-book cost models.
    """

    w0: float
    x_max: float
    family = "power_law_density"

    def __post_init__(self):
        if not (self.w0 > 0 and math.isfinite(self.w0)):
            raise ValueError("w0 must be a positive finite number")
        if not (self.x_max > 0 and math.isfinite(self.x_max)):
            raise ValueError("x_max must be a positive finite number")

    @property
    def x_bar(self) -> float:
        return self.x_max

    @property
    def p_bar(self) -> float:
        return self.w0 * self.x_max**3 / 3.0

    @property
    def total_mass(self) -> float:
        return self.w0 * self.x_max**2 / 2.0

    def _cdf(self, x):
        return self.w0 * x**2 / 2.0

    def _quantile(self, q):
        return np.sqrt(2.0 * q / self.w0)

    def _pdf(self, x):
        return self.w0 * x

    def integral_cdf(self, mu):
        w0, b = self.w0, self.x_max

        def go(m):
            m = np.maximum(m, 0.0)
            inside = np.minimum(m, b)
            return w0 * inside**3 / 6.0 + self.total_mass * np.maximum(m - b, 0.0)

        return _wrap(mu, go)

    def integral_quantile(self, q):
        w0 = self.w0

        def go(qa):
            qa = np.clip(qa, 0.0, self.total_mass)
            return (2.0 / 3.0) * np.sqrt(2.0 / w0) * qa**1.5

        return _wrap(q, go)

    def partial_mean(self, x):
        w0, b = self.w0, self.x_max

        def go(xa):
            inside = np.clip(xa, 0.0, b)
            return w0 * inside**3 / 3.0

        return _wrap(x, go)

    def _g_inverse(self, mu):
        return _wrap(mu, lambda m: np.clip(2.0 * m / 3.0, 0.0, self.x_max))

    def params(self):
        return {"w0": self.w0, "x_max": self.x_max}


class Empirical(SupplyCurve):
    """Piecewise-linear curve through strictly increasing breakpoints.

    Breakpoints run from an anchor (x0, 0) -- x0 is 0 for fitted price
    curves, possibly positive for order-book profiles with a spread gap --
    up to (x_K, mass).  Evaluation interpolates linearly; the density is the
    piecewise-constant segment slope, with the right-derivative returned
    (and an UndifferentiableAtBreakpoint warning emitted) exactly at knots.
    """

    family = "empirical"

    def __init__(self, breakpoints: Sequence[tuple[float, float]]):
        pts = [(float(a), float(b)) for a, b in breakpoints]
        if pts and pts[0][1] != 0.0:
            pts.insert(0, (0.0, 0.0))
        if len(pts) < 2:
            raise ValueError("need at least one breakpoint above the anchor")
        xs = np.array([p[0] for p in pts])
        ws = np.array([p[1] for p in pts])
        if xs[0] < 0.0:
            raise ValueError("breakpoint positions must be nonnegative")
        if not (np.all(np.diff(xs) > 0.0) and np.all(np.diff(ws) > 0.0)):
            raise ValueError("breakpoints must be strictly increasing in both coordinates")
        self._xs = xs
        self._ws = ws
        self._xs.setflags(write=False)
        self._ws.setflags(write=False)
        self._slopes = np.diff(ws) / np.diff(xs)
        self._slopes.setflags(write=False)
        # prefix integrals at the breakpoints
        dx = np.diff(xs)
        self._cum_icdf = np.concatenate(
            [[0.0], np.cumsum(ws[:-1] * dx + self._slopes * dx**2 / 2.0)]
        )
        dq = np.diff(ws)
        self._cum_iquant = np.concatenate(
            [[0.0], np.cumsum(xs[:-1] * dq + dq**2 / (2.0 * self._slopes))]
        )
        self._cum_pmean = np.concatenate(
            [[0.0], np.cumsum(self._slopes * (xs[1:] ** 2 - xs[:-1] ** 2) / 2.0)]
        )

    @property
    def breakpoints(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._xs.tolist(), self._ws.tolist()))

    @property
    def x_bar(self) -> float:
        return float(self._xs[-1])

    @property
    def p_bar(self) -> float:
        return float(self._cum_pmean[-1])

    @property
    def total_mass(self) -> float:
        return float(self._ws[-1])

    def _cdf(self, x):
        return np.interp(x, self._xs, self._ws)

    def _quantile(self, q):
        return np.interp(q, self._ws, self._xs)

    def density(self, x):
        xs, slopes = self._xs, self._slopes

        def go(xa):
            at_knot = np.isin(xa, xs)
            if np.any(at_knot):
                warnings.warn(
                    "density requested exactly at a breakpoint; returning the right-derivative",
                    UndifferentiableAtBreakpoint,
                    stacklevel=3,
                )
            return self._slope_right(xa)

        return _wrap(x, go)

    def _slope_right(self, xa):
        """Right-derivative of W (0 outside the open support)."""
        idx = np.searchsorted(self._xs, xa, side="right") - 1
        idx = np.clip(idx, 0, len(self._slopes) - 1)
        vals = self._slopes[idx]
        inside = (xa >= self._xs[0]) & (xa < self._xs[-1]) & (xa >= 0.0)
        return np.where(inside, vals, 0.0)

    def _pdf(self, x):  # pragma: no cover - density() is overridden
        return self._slope_right(x)

    def terminal_density(self) -> float:
        return float(self._slopes[-1])

    def integral_cdf(self, mu):
        xs, ws, slopes = self._xs, self._ws, self._slopes

        def go(m):
            m = np.maximum(m, 0.0)
            inside = np.clip(m, xs[0], xs[-1])
            idx = np.clip(np.searchsorted(xs, inside, side="right") - 1, 0, len(slopes) - 1)
            dx = inside - xs[idx]
            base = self._cum_icdf[idx] + ws[idx] * dx + slopes[idx] * dx**2 / 2.0
            return base + self.total_mass * np.maximum(m - xs[-1], 0.0)

        return _wrap(mu, go)

    def integral_quantile(self, q):
        xs, ws, slopes = self._xs, self._ws, self._slopes

        def go(qa):
            qa = np.clip(qa, 0.0, self.total_mass)
            idx = np.clip(np.searchsorted(ws, qa, side="right") - 1, 0, len(slopes) - 1)
            dq = qa - ws[idx]
            return self._cum_iquant[idx] + xs[idx] * dq + dq**2 / (2.0 * slopes[idx])

        return _wrap(q, go)

    def partial_mean(self, x):
        xs, slopes = self._xs, self._slopes

        def go(xa):
            inside = np.clip(xa, xs[0], xs[-1])
            idx = np.clip(np.searchsorted(xs, inside, side="right") - 1, 0, len(slopes) - 1)
            return self._cum_pmean[idx] + slopes[idx] * (inside**2 - xs[idx] ** 2) / 2.0

        return _wrap(x, go)

    def _g_inverse(self, mu):
        """Largest maximizer of (mu - x) W(x) over bids x; 0 for mu <= 0.

        On segment k the objective is a concave quadratic whose maximum over
        [x_k, x_{k+1}] is its stationary point (mu + x_k - w_k/s_k)/2 clipped
        to the segment, so the best segment gives the exact maximizer without
        the bid mapping having to be monotone.  The anchor segment (W = 0 at
        its left knot) keeps the maximum >= 0 for every mu.
        """
        lo, hi, w_lo, s = self._xs[:-1], self._xs[1:], self._ws[:-1], self._slopes

        def go(m):
            mm = m[..., None]
            x = np.clip((mm + lo - w_lo / s) / 2.0, lo, hi)
            val = (mm - x) * (w_lo + s * (x - lo))
            last = s.size - 1 - np.argmax(val[..., ::-1], axis=-1)
            best = np.take_along_axis(x, last[..., None], axis=-1)[..., 0]
            return np.where(m <= 0.0, 0.0, best)

        return _wrap(mu, go)

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
    arr = np.asarray(sorted(float(p) for p in prices), dtype=float)
    if arr.size == 0:
        raise InsufficientSamples("no samples")
    if np.any(arr <= 0):
        raise ValueError("prices must be positive")
    values, counts = np.unique(arr, return_counts=True)
    # greedy clustering: start a new cluster once the gap reaches min_support
    cx: list[float] = []
    cn: list[int] = []
    start = values[0]
    acc_num, acc_cnt = 0.0, 0
    for v, c in zip(values, counts):
        if v - start >= min_support and acc_cnt > 0:
            cx.append(acc_num / acc_cnt)
            cn.append(acc_cnt)
            start = v
            acc_num, acc_cnt = 0.0, 0
        acc_num += v * c
        acc_cnt += int(c)
    cx.append(acc_num / acc_cnt)
    cn.append(acc_cnt)
    if len(cx) < 2:
        raise InsufficientSamples("need at least 2 distinct samples after merging")
    n = arr.size
    cum = np.cumsum(cn) / n
    cum[-1] = 1.0
    return Empirical(list(zip(cx, cum.tolist())))


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
    """Grid test of concavity of ell_alpha(W(x)) on the curve's support.

    ell_alpha is the scaled power transform (log at alpha = 1).  The test
    compares successive chord slopes on a logarithmic grid over (0, x_hi),
    where x_hi is x_bar for bounded curves and the 0.999-mass point
    otherwise.  Slopes must be non-increasing up to a relative tolerance;
    the witness is the grid point where the first violation occurs.
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


_FAMILIES = {
    "exponential": lambda p: Exponential(rate=p["rate"]),
    "hyperbolic": lambda p: Hyperbolic(scale=p["scale"]),
    "bounded_uniform": lambda p: BoundedUniform(x_max=p["x_max"]),
    "power_law_density": lambda p: PowerLawDensity(w0=p["w0"], x_max=p["x_max"]),
}


def curve_from_json(obj: dict) -> SupplyCurve:
    """Rebuild a curve from its ``to_json`` form."""
    family = obj.get("family")
    if family == "empirical":
        pts = obj.get("breakpoints") or obj.get("params", {}).get("breakpoints")
        if pts is None:
            raise ValueError("empirical curve needs breakpoints")
        return Empirical([(float(a), float(b)) for a, b in pts])
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown curve family: {family!r}") from None
    return builder(obj.get("params", {}))
