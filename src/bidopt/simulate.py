"""Monte-Carlo replay of bid policies on synthetic auction streams.

The optimizer lives in a fluid model -- arrival rates, win probabilities,
expected payments.  This module checks that picture against a discrete-event
simulation.  Arrivals of each item type form independent Poisson processes
matching the model rates (a deterministic-arrival mode exists for
variance-free smoke tests); each arrival draws a clearing price from the
item's supply curve by inverse transform; the policy picks a contract to bid
for -- or abstains -- according to its per-arrival mixing weights.  A bid at
or above the price wins (ties win) and pays the price on second-price items
or the bid itself on first-price items.

Each batch is a handful of array operations per (family, auction) group of
items, not a loop over items.  Items take a fixed order that depends only on
the instance: grouped by family and auction kind, an empirical curve a group
of its own.  An arrival carries a price quantile u and a selection uniform,
and it wins when u <= W(b) -- the same event as W^{-1}(u) <= b under inverse
transform -- and its selection uniform is below the item's total weight.  So
a batch draws only the arrivals inside that box: by Poisson thinning they
form a Poisson process of rate lambda W(b) m (a binomial count under
deterministic arrivals), uniform on the box, laid out item-contiguous in
that order.  Prices are computed only for second-price winners, one quantile
call per group, and an item whose positive weight sits on one contract
credits it without a search.  Drawing only the box changed the random
stream again: a given seed now gives a different, equally distributed,
replay than before it.

Batches use RNG streams spawned from one seed, so runs are reproducible
bit-for-bit, batches are independent (they could run in parallel; sums over
batches are order-independent), and batch means give honest standard errors.
``simulate`` and ``ab_compare`` share one replay loop, ``_replay``: each
batch draws once in the union of its policies' boxes and replays every
policy against the *same* points, each with its own win test (common random
numbers).  ``simulate`` is its one-policy case, whose union is the policy's
own box, so the draws depend on the policy and two ``simulate`` calls with
different policies do not share them.  In ``ab_compare`` identical policies
produce exactly zero cost difference, a policy that bids higher with the
same weights wins a superset of the points, and small true differences are
not drowned in Monte-Carlo noise.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .curves import Empirical
from .model import ProblemInstance
from .solver import PrimalSolution

__all__ = [
    "BidPolicy",
    "SimulationReport",
    "ABComparison",
    "policy_from_primal",
    "simulate",
    "ab_compare",
]


@dataclass(frozen=True)
class BidPolicy:
    """Stationary bidding rule: one bid per item plus per-arrival mixing weights.

    ``gamma`` is edge-aligned with the instance (the order of ``edge_i`` /
    ``edge_j``): ``gamma[e]`` is the probability that an arrival of item
    ``edge_j[e]`` is bid on for contract ``edge_i[e]``.  An item's weights may
    sum to less than 1; the remainder abstains from the auction.
    """

    bids: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bids", np.asarray(self.bids, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))

    def check(self, inst: ProblemInstance) -> None:
        """Validate shapes and mixing invariants against an instance."""
        if self.bids.shape != (inst.n_items,):
            raise ValueError(
                f"policy has {self.bids.shape} bids; instance has {inst.n_items} items"
            )
        if self.gamma.shape != (inst.n_edges,):
            raise ValueError(
                f"policy has {self.gamma.shape} mixing weights; instance has {inst.n_edges} edges"
            )
        if not np.all(np.isfinite(self.bids)) or np.any(self.bids < 0.0):
            raise ValueError("bids must be finite and nonnegative")
        if np.any(self.gamma < -1e-12) or not np.all(np.isfinite(self.gamma)):
            raise ValueError("mixing weights must be nonnegative")
        mass = np.zeros(inst.n_items)
        np.add.at(mass, inst.edge_j, np.maximum(self.gamma, 0.0))
        if np.any(mass > 1.0 + 1e-9):
            j = int(np.argmax(mass))
            raise ValueError(
                f"item {inst.items[j].id!r}: mixing weights sum to {mass[j]:.12g} > 1"
            )


def policy_from_primal(inst: ProblemInstance, primal: PrimalSolution) -> BidPolicy:
    """Executable policy that realizes a primal solution's acquisition rates.

    ``primal.gamma`` says how wins split between contracts; the per-arrival
    weight also folds in the probability of bidding at all,
    ``s_j / (lambda_j W_j(x_j))``, so the realized win rate matches ``s_j``
    even when the solution leaves some win capacity unused.
    """
    _, win = inst.groups.pay(primal.x)
    lam_w = inst.rates * win
    bid_prob = np.zeros(inst.n_items)
    np.divide(primal.s, lam_w, out=bid_prob, where=(lam_w > 0.0) & (primal.s > 0.0))
    np.minimum(bid_prob, 1.0, out=bid_prob)
    return BidPolicy(bids=primal.x.copy(), gamma=primal.gamma * bid_prob[inst.edge_j])


# ---------------------------------------------------------------------------
# reports


def _covers(value_rate, value_se, targets, n_se):
    """Whether realized value rates cover their targets within ``n_se`` standard errors (per row)."""
    return np.all(value_rate + n_se * value_se >= targets, axis=-1)


class _Report:
    """A frozen dataclass of numbers and arrays that serializes from its own fields."""

    def to_json(self) -> dict:
        """Every field in field order, arrays as lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


@dataclass(frozen=True)
class SimulationReport(_Report):
    """Realized rates next to the fluid-model predictions, with standard errors.

    Predictions are policy-implied: win rate ``lambda_j m_j W_j(x_j)`` and
    cost rate ``sum_j lambda_j m_j f_j(x_j)`` where ``m_j`` is the item's
    total mixing weight and ``f_j`` the expected payment per auction.  For a
    policy built from a certified optimum these coincide with the convex
    program's rates and objective.
    """

    horizon: float
    n_batches: int
    seed: int
    arrival_model: str
    targets: np.ndarray
    value_rate: np.ndarray
    value_rate_se: np.ndarray
    predicted_value_rate: np.ndarray
    win_rate: np.ndarray
    win_rate_se: np.ndarray
    predicted_win_rate: np.ndarray
    cost_rate: float
    cost_rate_se: float
    predicted_cost_rate: float

    def fulfillment_ok(self, n_se: float = 3.0) -> bool:
        """True when every contract's realized rate covers its target within n_se errors."""
        return bool(_covers(self.value_rate, self.value_rate_se, self.targets, n_se))


@dataclass(frozen=True)
class ABComparison(_Report):
    """Common-random-number comparison of several policies on one instance.

    Policy 0 is the baseline: ``delta_cost[p] = cost_rate[p] - cost_rate[0]``
    with the standard error of the *paired* per-batch differences, which is
    what shared draws buy.  ``feasible[p]`` flags whether policy p covered
    every contract target within ``n_se`` standard errors.
    """

    horizon: float
    n_batches: int
    seed: int
    arrival_model: str
    n_se: float
    cost_rate: np.ndarray
    cost_rate_se: np.ndarray
    delta_cost: np.ndarray
    delta_cost_se: np.ndarray
    value_rate: np.ndarray
    value_rate_se: np.ndarray
    feasible: np.ndarray


# ---------------------------------------------------------------------------
# the event loop


def _batch_rngs(seed, n_batches: int) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_batches)]


class _Layout:
    """The order in which a batch lays out its arrivals, fixed by the instance.

    Items take positions group by group -- the (family, auction) groups of
    ``inst.groups``, where an empirical curve is a group of its own -- in
    instance order within a group, and a batch's arrivals lie
    item-contiguous in position order.  Edges follow their items' positions,
    in ``item_edges`` order within an item.
    """

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        groups = inst.groups.groups
        self.order = np.concatenate([sel for sel, *_ in groups])
        self.rank = np.empty(inst.n_items, dtype=np.intp)
        self.rank[self.order] = np.arange(inst.n_items)
        self.rates = inst.rates[self.order]
        # second-price groups by their position slices; an empirical group
        # prices through its curve's inverse, which also maps u = 0 to 0 when
        # the support starts above 0
        self.priced, stop = [], 0
        for sel, family, first, params in groups:
            stop += sel.size
            if not first:
                quantile = family.inverse if isinstance(family, Empirical) else family.quantile
                self.priced.append((slice(stop - sel.size, stop), quantile, params))
        edges = np.argsort(self.rank[inst.edge_j], kind="stable")
        self.edge_pos = self.rank[inst.edge_j[edges]]
        self.edge_start = np.searchsorted(self.edge_pos, np.arange(inst.n_items + 1))
        self.edges = edges
        self.edge_contract = inst.edge_i[edges]
        self.edge_value = inst.edge_v[edges]


def _draw_batch(rng: np.random.Generator, layout: _Layout, t_batch: float, deterministic: bool, box):
    """One batch's arrivals inside the box ``box = (thr, mix)`` of each position.

    An arrival carries a price quantile and a selection uniform, each uniform
    on [0, 1); a policy can win it only when the quantile is at most W(b) and
    the selection uniform is below the item's total weight.  Only the points
    of [0, thr[p]) x [0, mix[p]) are drawn: those of a Poisson process form a
    Poisson process, so position p gets Poisson(lambda t thr mix) of them
    (Binomial(round(lambda t), thr mix) under deterministic arrivals), each
    uniform on the box.  Returns the counts in position order, each point's
    position, and its two uniforms, item-contiguous in position order.
    """
    thr, mix = box
    if deterministic:
        counts = rng.binomial(np.round(layout.rates * t_batch).astype(np.int64), thr * mix)
    else:
        counts = rng.poisson(layout.rates * t_batch * thr * mix)
    pos = np.repeat(np.arange(counts.size), counts)
    u_price = rng.random(pos.size)
    u_price *= np.repeat(thr, counts)
    u_sel = rng.random(pos.size)
    u_sel *= np.repeat(mix, counts)
    return counts, pos, u_price, u_sel


class _Plan:
    """A policy against a layout: the per-position arrays every batch reads.

    An arrival of position p bids when its selection uniform is below the
    item's total weight ``mix[p]`` and wins when its price quantile is at most
    ``thr[p] = W(b)``: under inverse transform that is the event
    W^{-1}(u) <= b, so ties win.  The contract is the first edge whose
    running weight exceeds the selection uniform.  A position whose positive
    weight sits on one edge always picks that edge; the others search the
    complex keys position + 1j * running weight, which numpy orders
    lexicographically.  A zero-weight edge repeats the running weight before
    it, so the search never picks it either.
    """

    def __init__(self, layout: _Layout, policy: BidPolicy):
        self.layout = layout
        self.gamma = np.maximum(policy.gamma, 0.0)
        self.pay, self.win = layout.inst.groups.pay(policy.bids)
        # each item's running weights, summed left to right as np.cumsum sums
        # them item by item: the k-th sum of every item at once
        first, deg = layout.edge_start[:-1], np.diff(layout.edge_start)
        weight = self.gamma[layout.edges]
        cum = weight.copy()
        for k in range(1, int(deg.max(initial=0))):
            at = first[deg > k] + k
            cum[at] += cum[at - 1]
        self.keys = layout.edge_pos + 1j * cum
        self.mix = np.zeros(deg.size)
        self.mix[deg > 0] = cum[layout.edge_start[1:][deg > 0] - 1]
        self.thr = self.win[layout.order]
        # per position, the quantile and selection bounds of every winnable arrival
        self.box = np.minimum(self.thr, 1.0), np.minimum(self.mix, 1.0)
        # positions by their count of positive-weight edges
        live = np.flatnonzero(weight > 0.0)
        n_live = np.bincount(layout.edge_pos[live], minlength=deg.size)
        self.split = n_live > 1
        lone = n_live[layout.edge_pos[live]] == 1
        self.lone_pos, self.lone_edge = layout.edge_pos[live[lone]], live[lone]
        self.first_bid = policy.bids[layout.order]
        for sl, _, _ in layout.priced:
            self.first_bid[sl] = 0.0

    def replay(self, draws) -> tuple[np.ndarray, np.ndarray, float]:
        """Run one batch of draws; returns value/win/cost totals.

        Points outside the policy's own box, drawn for another policy of an
        ``ab_compare``, are dropped.
        """
        counts, pos, u_price, u_sel = draws
        lay = self.layout
        won = (u_sel < np.repeat(self.mix, counts)) & (u_price <= np.repeat(self.thr, counts))
        if not won.all():
            pos, u_price, u_sel = pos[won], u_price[won], u_sel[won]
            counts = np.bincount(pos, minlength=counts.size)
        hits = np.zeros(lay.edges.size)
        hits[self.lone_edge] = counts[self.lone_pos]
        split = np.flatnonzero(np.repeat(self.split, counts))
        if split.size:
            keys = pos.take(split) + 1j * u_sel.take(split)
            hits += np.bincount(np.searchsorted(self.keys, keys, side="right"), minlength=hits.size)
        value = np.bincount(lay.edge_contract, weights=lay.edge_value * hits, minlength=lay.inst.n_contracts)
        cost = float(self.first_bid @ counts)
        start = np.concatenate(([0], np.cumsum(counts)))
        for sl, quantile, params in lay.priced:
            u = u_price[start[sl.start] : start[sl.stop]]
            cost += float(np.sum(quantile(u, *(np.repeat(p, counts[sl]) for p in params))))
        return value, counts[lay.rank], cost

    def predictions(self):
        """Fluid-model rates implied by the policy: per-contract value, per-item wins, cost."""
        inst = self.layout.inst
        mix = self.mix[self.layout.rank]
        edge_rate = (inst.rates * self.win)[inst.edge_j] * self.gamma
        value = np.zeros(inst.n_contracts)
        np.add.at(value, inst.edge_i, edge_rate * inst.edge_v)
        return value, inst.rates * mix * self.win, float(np.sum(inst.rates * mix * self.pay))


def _mean_se(batch_rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = batch_rates.mean(axis=0)
    se = batch_rates.std(axis=0, ddof=1) / math.sqrt(batch_rates.shape[0])
    return mean, se


def _write_fulfillment_csv(path, inst: ProblemInstance, t_batch: float, batch_value: np.ndarray) -> None:
    """Cumulative value-delivery rate per contract at each batch boundary."""
    cum = np.cumsum(batch_value, axis=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time"] + [str(c.id) for c in inst.contracts])
        for b in range(cum.shape[0]):
            t = (b + 1) * t_batch
            w.writerow([f"{t:.10g}"] + [f"{x / t:.10g}" for x in cum[b]])


def _replay(inst: ProblemInstance, policies, horizon: float, seed, n_batches: int, deterministic: bool):
    """Check the arguments before any work, then replay every policy against one draw per batch.

    Each batch draws once in the union of the policies' boxes (per item the
    largest W(b) and the largest total weight; for one policy its own box)
    and replays the points under every policy, each keeping the points of
    its own box.  Returns the plans, the batch length and the per-batch
    value, win and cost totals, of shapes (policies, batches, contracts),
    (policies, batches, items) and (policies, batches).
    """
    for policy in policies:
        policy.check(inst)
    for it in inst.items:
        if it.curve.total_mass > 1.0 + 1e-12:
            raise ValueError(
                f"item {it.id!r}: supply curve carries mass {it.curve.total_mass:.6g} > 1 "
                "and is not a price distribution"
            )
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    if n_batches < 2:
        raise ValueError("need at least 2 batches for standard errors")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, not {seed!r}")
    layout = _Layout(inst)
    plans = [_Plan(layout, policy) for policy in policies]
    box = tuple(np.maximum.reduce(bounds) for bounds in zip(*(plan.box for plan in plans)))
    t_batch = horizon / n_batches
    value = np.zeros((len(plans), n_batches, inst.n_contracts))
    wins = np.zeros((len(plans), n_batches, inst.n_items))
    cost = np.zeros((len(plans), n_batches))
    for b, rng in enumerate(_batch_rngs(seed, n_batches)):
        draws = _draw_batch(rng, layout, t_batch, deterministic, box)
        for p, plan in enumerate(plans):
            value[p, b], wins[p, b], cost[p, b] = plan.replay(draws)
    return plans, t_batch, value, wins, cost


def simulate(
    inst: ProblemInstance,
    policy: BidPolicy,
    horizon: float,
    seed,
    *,
    n_batches: int = 20,
    deterministic_arrivals: bool = False,
    csv_path=None,
    json_path=None,
) -> SimulationReport:
    """Replay ``policy`` for ``horizon`` time units and aggregate realized rates.

    The horizon splits into ``n_batches`` equal batches with independent RNG
    streams spawned from ``seed``, a nonnegative integer; standard errors
    come from the spread of the batch means.  Each batch draws only the
    arrivals the policy can win, so the draws depend on the policy.
    ``csv_path`` dumps the cumulative fulfillment-rate time series per
    contract, ``json_path`` the full report.
    """
    (plan,), t_batch, value, wins, cost = _replay(inst, [policy], horizon, seed, n_batches, deterministic_arrivals)
    value_rate, value_se = _mean_se(value[0] / t_batch)
    win_rate, win_se = _mean_se(wins[0] / t_batch)
    cost_rate, cost_se = _mean_se(cost[0] / t_batch)
    pred_value, pred_win, pred_cost = plan.predictions()

    for arr in (value_rate, value_se, pred_value, win_rate, win_se, pred_win):
        arr.setflags(write=False)
    report = SimulationReport(
        horizon=float(horizon),
        n_batches=int(n_batches),
        seed=int(seed),
        arrival_model="deterministic" if deterministic_arrivals else "poisson",
        targets=inst.targets,
        value_rate=value_rate,
        value_rate_se=value_se,
        predicted_value_rate=pred_value,
        win_rate=win_rate,
        win_rate_se=win_se,
        predicted_win_rate=pred_win,
        cost_rate=float(cost_rate),
        cost_rate_se=float(cost_se),
        predicted_cost_rate=pred_cost,
    )
    if csv_path is not None:
        _write_fulfillment_csv(csv_path, inst, t_batch, value[0])
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
    return report


def ab_compare(
    inst: ProblemInstance,
    policies,
    horizon: float,
    seed,
    *,
    n_batches: int = 20,
    deterministic_arrivals: bool = False,
    n_se: float = 3.0,
) -> ABComparison:
    """Compare policies under common random numbers (policy 0 is the baseline).

    Every policy replays the same points (``_replay``), so cost differences
    are paired: identical policies differ by exactly zero, and the
    difference of two good policies carries far less variance than two
    independent runs would.
    """
    policies = list(policies)
    if len(policies) < 2:
        raise ValueError("need at least two policies to compare")
    _, t_batch, value, _, cost = _replay(inst, policies, horizon, seed, n_batches, deterministic_arrivals)
    cost_rates = cost / t_batch
    cost_rate, cost_se = _mean_se(cost_rates.T)
    delta, delta_se = _mean_se((cost_rates - cost_rates[0]).T)
    value_rate = np.zeros((len(policies), inst.n_contracts))
    value_se = np.zeros((len(policies), inst.n_contracts))
    for p in range(len(policies)):
        value_rate[p], value_se[p] = _mean_se(value[p] / t_batch)
    feasible = _covers(value_rate, value_se, inst.targets, n_se)

    for arr in (cost_rate, cost_se, delta, delta_se, value_rate, value_se, feasible):
        arr.setflags(write=False)
    return ABComparison(
        horizon=float(horizon),
        n_batches=int(n_batches),
        seed=int(seed),
        arrival_model="deterministic" if deterministic_arrivals else "poisson",
        n_se=float(n_se),
        cost_rate=cost_rate,
        cost_rate_se=cost_se,
        delta_cost=delta,
        delta_cost_se=delta_se,
        value_rate=value_rate,
        value_rate_se=value_se,
        feasible=feasible,
    )
