"""Output checks that recompute a plan's value without trusting bidopt.

Nothing here imports bidopt.  A problem is read from the instance document
(the JSON shape `bidopt solve` takes) and a plan from the solution document
(`rho` per contract, `R` as [contract, item, rate] entries).  The spend of
the plan, sum_j lambda_j Lambda_j(s_j / lambda_j), and the dual bound

    D(rho) = rho . C - sum_j lambda_j conj_j(max_i v_ij rho_i)

are computed from closed forms of the supply curves (piecewise-exact for
empirical curves).  A plan that meets every contract, respects capacity and
has D(rho) within tolerance of its spend is optimal by weak duality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import t as student_t

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Curve:
    """W^-1(q) and the running integrals of W and W^-1 for one supply curve."""

    def __init__(self, spec: dict):
        self.family = spec["family"]
        p = spec.get("params", {})
        if self.family == "exponential":
            self.a, self.x_bar = float(p["rate"]), math.inf
        elif self.family == "hyperbolic":
            self.a, self.x_bar = float(p["scale"]), math.inf
        elif self.family == "bounded_uniform":
            self.a = self.x_bar = float(p["x_max"])
        elif self.family == "empirical":
            pts = np.asarray(spec.get("breakpoints", p.get("breakpoints")), dtype=float)
            if pts[0, 1] != 0.0:
                pts = np.vstack([[0.0, 0.0], pts])
            self.xs, self.ws = pts[:, 0], pts[:, 1]
            self.slopes = np.diff(self.ws) / np.diff(self.xs)
            self.x_bar = float(self.xs[-1])
        else:
            raise ValueError(f"no reference formulas for curve family {self.family!r}")

    def quantile(self, q: float) -> float:
        if self.family == "exponential":
            return -math.log1p(-q) / self.a if q < 1.0 else math.inf
        if self.family == "hyperbolic":
            return self.a * q / (1.0 - q) if q < 1.0 else math.inf
        if self.family == "bounded_uniform":
            return self.a * q
        return float(np.interp(q, self.ws, self.xs))

    def integral_quantile(self, q: float) -> float:
        """Integral of W^-1 over [0, q]: the second-price cost of winning rate q."""
        if self.family == "exponential":
            tail = (1.0 - q) * math.log1p(-q) if q < 1.0 else 0.0
            return (q + tail) / self.a
        if self.family == "hyperbolic":
            return self.a * (-q - math.log1p(-q)) if q < 1.0 else math.inf
        if self.family == "bounded_uniform":
            return self.a * q * q / 2.0
        # W^-1 is linear between knots: trapezoids up to q
        k = int(np.searchsorted(self.ws, q, side="right")) - 1
        k = min(max(k, 0), self.slopes.size - 1)
        dw = np.diff(self.ws[: k + 1])
        full = float(np.sum(dw * (self.xs[:k] + self.xs[1 : k + 1]) / 2.0))
        dq = q - self.ws[k]
        return full + dq * (self.xs[k] + dq / (2.0 * self.slopes[k]))

    def integral_win(self, mu: float) -> float:
        """Integral of W over [0, mu]: the second-price conjugate at mu."""
        if self.family == "exponential":
            return mu + math.expm1(-self.a * mu) / self.a
        if self.family == "hyperbolic":
            return mu - self.a * math.log1p(mu / self.a)
        if self.family == "bounded_uniform":
            inside = min(mu, self.a)
            return inside * inside / (2.0 * self.a) + max(mu - self.a, 0.0)
        # W is linear between knots and flat at its mass beyond the last one
        top = min(mu, self.x_bar)
        k = int(np.searchsorted(self.xs, top, side="right")) - 1
        k = min(max(k, 0), self.slopes.size - 1)
        dx = np.diff(self.xs[: k + 1])
        full = float(np.sum(dx * (self.ws[:k] + self.ws[1 : k + 1]) / 2.0))
        h = top - self.xs[k]
        part = h * (self.ws[k] + self.slopes[k] * h / 2.0) if top > self.xs[0] else 0.0
        return full + part + self.ws[-1] * max(mu - self.x_bar, 0.0)

    def first_price_conjugate(self, mu: float) -> float:
        """max over bids x of (mu - x) W(x) for an empirical curve.

        (mu - x) W(x) is a concave quadratic on each segment, so the maximum
        sits at a segment's stationary point or at a knot.
        """
        if mu <= 0.0:
            return 0.0
        lo, hi = self.xs[:-1], self.xs[1:]
        x = (mu + lo - self.ws[:-1] / self.slopes) / 2.0
        cand = np.concatenate([np.clip(x, lo, hi), self.xs, [mu]])
        cand = cand[(cand >= 0.0) & (cand <= mu)]
        return float(np.max((mu - cand) * np.interp(cand, self.xs, self.ws, left=0.0)))


def _param_win(family: str, a, x):
    if family == "exponential":
        return -np.expm1(-a * x)
    if family == "hyperbolic":
        return x / (a + x)
    return np.minimum(x, a) / a


def _first_price_conjugates(family: str, a: np.ndarray, x_bar: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """max over bids x of (mu - x) W(x) for items of one parametric family.

    The objective is unimodal in x for these 2-concave families, so a golden
    section search over [0, min(mu, x_bar)] finds it; 100 steps shrink the
    bracket by 1e-21.
    """
    mu = np.maximum(mu, 0.0)
    lo, hi = np.zeros_like(mu), np.minimum(mu, x_bar)
    f = lambda x: (mu - x) * _param_win(family, a, x)  # noqa: E731
    p, q = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fp, fq = f(p), f(q)
    for _ in range(100):
        left = fp >= fq
        lo, hi = np.where(left, lo, p), np.where(left, q, hi)
        p, q = np.where(left, hi - _GOLDEN * (hi - lo), q), np.where(left, p, lo + _GOLDEN * (hi - lo))
        fp, fq = np.where(left, f(p), fq), np.where(left, fp, f(q))
    return np.maximum.reduce([fp, fq, f(hi), np.zeros_like(mu)])


@dataclass
class Problem:
    """An instance document as plain arrays; edges are (contract, item, value)."""

    contract_ids: list
    item_ids: list
    rates: np.ndarray
    targets: np.ndarray
    curves: list
    first_price: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_v: np.ndarray

    @classmethod
    def from_json(cls, doc: dict) -> "Problem":
        items, contracts = doc["items"], doc["contracts"]
        item_pos = {str(it["id"]): j for j, it in enumerate(items)}
        ei, ej, ev = [], [], []
        for i, c in enumerate(contracts):
            for j, v in c["valuations"].items():
                if float(v) > 0.0:
                    ei.append(i)
                    ej.append(item_pos[str(j)])
                    ev.append(float(v))
        return cls(
            contract_ids=[str(c["id"]) for c in contracts],
            item_ids=[str(it["id"]) for it in items],
            rates=np.array([float(it["rate"]) for it in items]),
            targets=np.array([float(c["target"]) for c in contracts]),
            curves=[Curve(it["curve"]) for it in items],
            first_price=np.array([it["auction"] == "first_price" for it in items]),
            edge_i=np.array(ei, dtype=np.intp),
            edge_j=np.array(ej, dtype=np.intp),
            edge_v=np.array(ev),
        )

    def allocation(self, plan: dict) -> np.ndarray:
        """Edge-aligned R from the plan's [contract, item, rate] entries."""
        pos = {(self.contract_ids[i], self.item_ids[j]): e
               for e, (i, j) in enumerate(zip(self.edge_i.tolist(), self.edge_j.tolist()))}
        R = np.zeros(self.edge_v.size)
        for cid, iid, r in plan["R"]:
            R[pos[(str(cid), str(iid))]] += float(r)
        return R

    def spend(self, s: np.ndarray) -> float:
        """sum_j lambda_j Lambda_j(s_j / lambda_j) at acquisition rates s."""
        total = 0.0
        for j, curve in enumerate(self.curves):
            if s[j] <= 0.0:
                continue
            q = s[j] / self.rates[j]
            lam = q * curve.quantile(q) if self.first_price[j] else curve.integral_quantile(q)
            total += self.rates[j] * lam
        return total

    def dual_bound(self, rho: np.ndarray) -> float:
        """D(rho) = rho . C - sum_j lambda_j conj_j(max_i v_ij rho_i)."""
        mu = np.zeros(self.rates.size)
        np.maximum.at(mu, self.edge_j, self.edge_v * rho[self.edge_i])
        conj = np.zeros(self.rates.size)
        groups: dict[str, list[int]] = {}
        for j, curve in enumerate(self.curves):
            if not self.first_price[j]:
                conj[j] = curve.integral_win(mu[j])
            elif curve.family == "empirical":
                conj[j] = curve.first_price_conjugate(mu[j])
            else:
                groups.setdefault(curve.family, []).append(j)
        for family, idx in groups.items():
            a = np.array([self.curves[j].a for j in idx])
            x_bar = np.array([self.curves[j].x_bar for j in idx])
            conj[idx] = _first_price_conjugates(family, a, x_bar, mu[idx])
        return float(rho @ self.targets) - float(self.rates @ conj)


@dataclass(frozen=True)
class PlanCheck:
    spend: float
    dual_bound: float
    gap: float
    fulfillment: float
    capacity: float
    min_rate: float
    min_rho: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            abs(self.gap) <= self.tol
            and self.fulfillment <= self.tol
            and self.capacity <= self.tol
            and self.min_rate >= 0.0
            and self.min_rho >= 0.0
        )


def check_plan(problem: Problem, plan: dict, tol: float) -> PlanCheck:
    """Feasibility of R and the relative gap between spend and D(rho)."""
    R = problem.allocation(plan)
    rho = np.asarray(plan["rho"], dtype=float)
    delivered = np.zeros(problem.targets.size)
    np.add.at(delivered, problem.edge_i, problem.edge_v * R)
    s = np.zeros(problem.rates.size)
    np.add.at(s, problem.edge_j, R)
    spend = problem.spend(s)
    bound = problem.dual_bound(rho)
    return PlanCheck(
        spend=spend,
        dual_bound=bound,
        gap=(spend - bound) / (1.0 + abs(spend)),
        fulfillment=float(np.max(np.abs(delivered - problem.targets) / (1.0 + problem.targets))),
        capacity=float(np.max(np.maximum(s - problem.rates, 0.0) / (1.0 + problem.rates))),
        min_rate=float(np.min(R, initial=0.0)),
        min_rho=float(np.min(rho, initial=0.0)),
        tol=tol,
    )


# family-wise false-alarm rate of one replay check over all its comparisons
REPLAY_ALPHA = 1e-3


def replay_limit(n_comparisons: int, n_batches: int) -> float:
    """Two-sided Bonferroni bound, in standard errors, for batch-mean rates."""
    return float(student_t.ppf(1.0 - REPLAY_ALPHA / (2.0 * n_comparisons), n_batches - 1))


def check_replay(problem: Problem, report: dict, spend: float) -> float:
    """Largest standard-error distance of the replayed rates from their targets.

    Each contract's value rate is compared with its target and the cost rate
    with the plan's spend.  Returns the distance divided by the Bonferroni
    limit, so the replay lands on target when the result is at most 1.
    """
    value = np.asarray(report["value_rate"], dtype=float)
    value_se = np.asarray(report["value_rate_se"], dtype=float)
    dev = np.append(np.abs(value - problem.targets), abs(float(report["cost_rate"]) - spend))
    se = np.append(value_se, float(report["cost_rate_se"]))
    z = np.divide(dev, se, out=np.where(dev > 0.0, np.inf, 0.0), where=se > 0.0)
    return float(np.max(z)) / replay_limit(z.size, int(report["n_batches"]))
