"""Grid-search oracle for tiny instances (at most three edges).

The solver is cross-checked by direct enumeration of the bid-form problem.
Bids are gridded per item through the win-probability transform -- a uniform
grid on q with bids W^{-1}(q) covers the decision space evenly, which a
uniform bid grid does not -- mixing weights run over an exhaustive simplex
grid, and the reported value is the cheapest feasible grid point.
Everything here is deliberately naive: no duality, no optimality conditions,
no reuse of the solver, so agreement is evidence rather than circularity.

Supported shapes (by total edge count d <= 3):
  one contract with 1-3 items, each item on one edge;
  two contracts on a single shared item;
  two contracts on two items where exactly one item is shared.
"""

import numpy as np

from bidopt.costs import AcquisitionCost

__all__ = ["brute_force_value"]


def _q_grids(inst, n_bid):
    """Per-item win-probability grids with their cost rates."""
    qs, costs = [], []
    for j, item in enumerate(inst.items):
        q = np.linspace(0.0, (1.0 - 1e-9) * item.curve.total_mass, n_bid)
        qs.append(q)
        costs.append(inst.rates[j] * np.asarray(AcquisitionCost(item.curve, item.auction).lam(q)))
    return qs, costs


def _single_contract(inst, n_bid):
    qs, costs = _q_grids(inst, n_bid)
    v = np.zeros(inst.n_items)
    v[inst.edge_j] = inst.edge_v  # one edge per item in this shape
    vals = [inst.rates[j] * v[j] * qs[j] for j in range(inst.n_items)]
    target = float(inst.targets[0])

    if inst.n_items == 1:
        feas = vals[0] >= target
        return float(np.min(costs[0][feas])) if feas.any() else np.inf

    if inst.n_items == 2:
        total_v = vals[0][:, None] + vals[1][None, :]
        total_c = costs[0][:, None] + costs[1][None, :]
        feas = total_v >= target
        return float(np.min(total_c[feas])) if feas.any() else np.inf

    # three items: pool the last two, sort by delivered value, and keep the
    # cheapest cost among pool entries at or above each value (suffix min);
    # the first item's grid is then a single vectorized scan
    pool_v = (vals[1][:, None] + vals[2][None, :]).ravel()
    pool_c = (costs[1][:, None] + costs[2][None, :]).ravel()
    order = np.argsort(pool_v, kind="stable")
    pool_v = pool_v[order]
    suffix = np.minimum.accumulate(pool_c[order][::-1])[::-1]
    ks = np.searchsorted(pool_v, target - vals[0], side="left")
    ok = ks < pool_v.size
    if not ok.any():
        return np.inf
    return float(np.min(costs[0][ok] + suffix[ks[ok]]))


def _shared_single_item(inst, n_bid, n_gamma):
    """Both contracts draw from one item; the mixing weight is gridded."""
    qs, costs = _q_grids(inst, n_bid)
    supply = inst.rates[0] * qs[0]
    v = np.zeros(inst.n_contracts)
    v[inst.edge_i] = inst.edge_v
    w = np.linspace(0.0, 1.0, n_gamma)[None, :]  # share sent to contract 0
    ok0 = supply[:, None] * w * v[0] >= inst.targets[0]
    ok1 = supply[:, None] * (1.0 - w) * v[1] >= inst.targets[1]
    feas = (ok0 & ok1).any(axis=1)
    return float(np.min(costs[0][feas])) if feas.any() else np.inf


def _shared_two_items(inst, n_bid, n_gamma):
    """One exclusive and one shared item; share grid resolved analytically.

    For fixed win probabilities the feasible shares w (fraction of the
    shared item sent to the contract that owns only it) form an interval,
    so a grid point exists iff ceil(K w_min) <= floor(K w_max).
    """
    counts = np.bincount(inst.edge_j, minlength=inst.n_items)
    s = int(np.argmax(counts == 2))  # shared item
    e = 1 - s  # exclusive item
    (a,) = [int(inst.edge_i[k]) for k in range(inst.n_edges) if inst.edge_j[k] == e]
    b = 1 - a  # the contract living on the shared item alone
    v = np.zeros((inst.n_contracts, inst.n_items))
    v[inst.edge_i, inst.edge_j] = inst.edge_v

    qs, costs = _q_grids(inst, n_bid)
    sup_e = inst.rates[e] * qs[e]  # axis 0 below
    sup_s = inst.rates[s] * qs[s]  # axis 1
    K = n_gamma - 1

    with np.errstate(divide="ignore", invalid="ignore"):
        w_min = inst.targets[b] / (sup_s * v[b, s])  # need w >= this for b
        need_a = inst.targets[a] - sup_e[:, None] * v[a, e]
        w_max = 1.0 - need_a / (sup_s[None, :] * v[a, s])
    w_min = np.where(np.isfinite(w_min), w_min, np.inf)
    w_max = np.where(need_a <= 0.0, 1.0, np.where(np.isfinite(w_max), w_max, -np.inf))

    k_lo = np.maximum(np.ceil(K * w_min[None, :] - 1e-9), 0.0)
    k_hi = np.minimum(np.floor(K * w_max + 1e-9), float(K))
    feas = k_lo <= k_hi
    if not feas.any():
        return np.inf
    total_c = costs[e][:, None] + costs[s][None, :]
    return float(np.min(total_c[feas]))


def brute_force_value(inst, n_bid=1000, n_gamma=100):
    """Cheapest feasible cost over the bid/share grids (inf if none)."""
    if inst.n_contracts == 1:
        if inst.n_items > 3:
            raise NotImplementedError("oracle handles at most three items")
        return _single_contract(inst, n_bid)
    if inst.n_contracts == 2 and inst.n_items == 1:
        return _shared_single_item(inst, n_bid, n_gamma)
    if inst.n_contracts == 2 and inst.n_items == 2 and inst.n_edges == 3:
        return _shared_two_items(inst, n_bid, n_gamma)
    raise NotImplementedError("oracle handles at most three edges")
