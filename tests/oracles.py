"""Independent numerical oracles shared by the test modules.

Everything here recomputes target quantities by a route different from the
library implementation (grid suprema, Monte-Carlo, exhaustive search), so
agreement is evidence rather than tautology.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np


def grid_sup_conjugate(cost, mu: float, n: int = 4096) -> float:
    """sup_q (mu q - lam(q)) over an n-point grid on [0, total mass]."""
    qs = np.linspace(0.0, cost.total_mass, n)
    vals = mu * qs - np.asarray(cost.lam(qs))
    return float(np.max(vals[np.isfinite(vals)]))


def grid_sup_biconjugate(cost, q: float, mu_hi: float, n: int = 4096) -> float:
    """sup_mu (q mu - conjugate(mu)) over an n-point grid on [0, mu_hi]."""
    mus = np.linspace(0.0, mu_hi, n)
    vals = q * mus - np.asarray(cost.conjugate(mus))
    return float(np.max(vals[np.isfinite(vals)]))


def segment_max_first_price(curve, mu: float, rtol: float = 1e-12):
    """max over bids x of (mu - x) W(x) for a piecewise-linear curve, exactly.

    Works in rational arithmetic on the breakpoints.  On each segment the
    objective is the quadratic a x^2 + b x + c, so its maximum over the
    segment is at the vertex -b / 2a when that lies inside, else at a knot.
    Returns the maximum (as a float) and the win rates W(x) at every
    candidate within ``rtol`` of it, the first-price win probabilities that
    a maximizer may report.
    """
    m = Fraction(mu)
    pts = [(Fraction(x), Fraction(w)) for x, w in curve.breakpoints]
    # (value, W) at the knots and at x = 0
    cands = [((m - x) * w, w) for x, w in pts] + [(Fraction(0), Fraction(0))]
    for (x0, w0), (x1, w1) in zip(pts, pts[1:]):
        s = (w1 - w0) / (x1 - x0)
        a, b = -s, m * s - (w0 - s * x0)  # (m - x)(w0 + s (x - x0)) = a x^2 + b x + c
        x = -b / (2 * a)
        if x0 < x < x1:
            w = w0 + s * (x - x0)
            cands.append(((m - x) * w, w))
    best = max(v for v, _ in cands)
    near = [float(w) for v, w in cands if v >= best - abs(best) * Fraction(rtol)]
    return float(best), near


def ks_distance(curve, samples: np.ndarray, grid: int = 4096) -> float:
    """Kolmogorov-Smirnov distance between the empirical CDF of ``samples``
    and the curve, evaluated on a dense quantile grid plus the sample points."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    xs = np.concatenate([samples, np.asarray(curve.inverse(np.linspace(1e-6, 1 - 1e-6, grid)))])
    xs = np.unique(xs)
    emp = np.searchsorted(samples, xs, side="right") / n
    model = np.asarray(curve.eval(xs))
    return float(np.max(np.abs(emp - model)))
