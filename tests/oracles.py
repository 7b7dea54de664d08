"""Independent numerical oracles shared by the test modules.

Everything here recomputes target quantities by a route different from the
library implementation (grid suprema, Monte-Carlo, exhaustive search,
adaptive Simpson quadrature, dense rechecks), so agreement is evidence
rather than tautology.
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


def replay_per_arrival(inst, policy, order, counts, u_price, u_sel):
    """One batch of explicit points replayed one arrival at a time.

    ``counts[p]`` arrivals of item ``order[p]`` take the next price quantiles
    and selection coordinates in turn.  Each arrival picks its contract by a
    search over the item's own running weights, and wins when the price
    ``curve.inverse(u)`` is at most the bid.  Returns per-contract value,
    per-item wins and cost.
    """
    value = np.zeros(inst.n_contracts)
    wins = np.zeros(inst.n_items)
    cost = 0.0
    k = 0
    for j, count in zip(order.tolist(), counts.tolist()):
        item, edges, bid = inst.items[j], inst.item_edges(j), float(policy.bids[j])
        cum = np.cumsum(np.maximum(policy.gamma[edges], 0.0))
        for u, v in zip(u_price[k : k + count].tolist(), u_sel[k : k + count].tolist()):
            pick = int(np.searchsorted(cum, v, side="right"))
            price = float(item.curve.inverse(u))
            if pick == edges.size or price > bid:
                continue
            wins[j] += 1
            cost += price if item.auction.value == "second_price" else bid
            value[inst.edge_i[edges[pick]]] += inst.edge_v[edges[pick]]
        k += count
    return value, wins, cost


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


def quadrature_integral_quantile(curve, q: float, tol: float = 1e-10) -> float:
    """∫_0^q W^{-1} by adaptive Simpson over ``curve.inverse``."""
    return adaptive_simpson(lambda u: float(curve.inverse(u)), 0.0, float(q), tol)


def quadrature_integral_cdf(curve, mu: float, tol: float = 1e-10) -> float:
    """∫_0^mu W by adaptive Simpson (W held at its mass beyond x_bar)."""
    return adaptive_simpson(lambda u: float(curve.eval(u)), 0.0, float(mu), tol)


def quadrature_partial_mean(curve, x: float, tol: float = 1e-10) -> float:
    """∫_0^x u dW via integration by parts: x W(x) - ∫_0^x W."""
    x = float(x)
    return x * float(curve.eval(x)) - quadrature_integral_cdf(curve, x, tol)


def supply_certificate_holds(inst, cert, margin: float) -> bool:
    """Recheck an InfeasibilityCertificate's weighted inequality from the contracts and items themselves.

    sum_i y_i C_i > sum_j (1 - margin) lambda_j mass_j max_i v_ij y_i, with y read
    from the certificate's weights by contract id and a dense valuation matrix
    built from each contract's valuations, not from the instance's edge arrays.
    """
    col = {item.id: j for j, item in enumerate(inst.items)}
    v = np.zeros((len(inst.contracts), len(inst.items)))
    for i, contract in enumerate(inst.contracts):
        for item_id, value in contract.valuations.items():
            v[i, col[item_id]] = value
    y = np.array([cert.weights.get(contract.id, 0.0) for contract in inst.contracts])
    demand = float(y @ np.array([contract.target_rate for contract in inst.contracts]))
    capacity = np.array([(1.0 - margin) * item.arrival_rate * item.curve.total_mass for item in inst.items])
    return demand > float(capacity @ (v * y[:, None]).max(axis=0))
