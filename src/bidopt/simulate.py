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

An arrival is a point (u, v) of the unit square: u is its price quantile
and v selects the contract.  A policy wins it when u <= W(b) -- the same
event as W^{-1}(u) <= b under inverse transform -- and v is below the
item's total weight m, and it credits the first edge whose running weight
exceeds v.  So the points a policy can win lie in the box [0, W(b)) x
[0, m), and cutting that box at the running weights leaves one cell per
positive-weight edge, in which every point wins that edge.  By Poisson
splitting (Kingman 1993) the cells hold independent Poisson counts of mean
lambda t times their area, so a batch draws one count per cell (under
deterministic arrivals, Binomial(round(lambda t), W(b) m) per item split
over its cells by one multinomial), and hits, wins and value are sums of
counts.  Only second-price cost needs single points: each winning point of
a second-price cell draws its price quantile uniform on the cell's price
stratum, one quantile call per (family, auction) group and batch.  Items
take a fixed order that depends only on the instance: grouped by family and
auction kind, an empirical curve a group of its own.  Drawing counts on
cells changed the random stream again: a given seed now gives a different,
equally distributed, replay than before it.

Batches use RNG streams spawned from one seed, so runs are reproducible
bit-for-bit, batches are independent (they could run in parallel; sums over
batches are order-independent), and batch means give honest standard errors.
``simulate`` and ``ab_compare`` share one replay loop, ``_replay``: the union
of the policies' boxes is cut at every policy's W(b) and running weights,
so that in each cell every policy bids for one fixed edge or abstains and
wins every point or none; each batch draws the cells' counts and prices
once, and each policy sums the cells it wins (common random numbers).
``simulate`` is its one-policy case, whose union is the policy's own box,
so the draws depend on the policy and two ``simulate`` calls with different
policies do not share them.  In ``ab_compare`` identical policies produce
exactly zero cost difference, a policy that bids higher with the same
weights wins a superset of the points, and small true differences are not
drowned in Monte-Carlo noise.
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
    """The order of a batch's item positions, fixed by the instance.

    Items take positions group by group -- the (family, auction) groups of
    ``inst.groups``, where an empirical curve is a group of its own -- in
    instance order within a group.  Edges follow their items' positions, in
    ``item_edges`` order within an item.
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


class _Plan:
    """A policy against a layout: its box and its cuts at each position.

    An arrival of position p carries a price quantile u and a selection
    coordinate v, each uniform on [0, 1).  The policy bids when v is below
    the item's total weight ``mix[p]``, for the first edge whose running
    weight exceeds v, and wins when u is at most W(b): under inverse
    transform that is the event W^{-1}(u) <= b, so ties win.  A
    zero-weight edge repeats the running weight before it, so no v picks it.
    """

    def __init__(self, layout: _Layout, policy: BidPolicy):
        self.layout = layout
        self.gamma = np.maximum(policy.gamma, 0.0)
        self.pay, self.win = layout.inst.groups.pay(policy.bids)
        # each item's running weights, summed left to right as np.cumsum sums
        # them item by item: the k-th sum of every item at once
        first, deg = layout.edge_start[:-1], np.diff(layout.edge_start)
        cum = self.gamma[layout.edges]
        for k in range(1, int(deg.max(initial=0))):
            at = first[deg > k] + k
            cum[at] += cum[at - 1]
        self.mix = np.zeros(deg.size)
        self.mix[deg > 0] = cum[layout.edge_start[1:][deg > 0] - 1]
        # per position the box [0, W(b)) x [0, mix) of the winnable arrivals,
        # and the running weights that cut its selection side
        self.box = np.minimum(self.win[layout.order], 1.0), np.minimum(self.mix, 1.0)
        self.cum = np.minimum(cum, 1.0)
        self.first_bid = policy.bids[layout.order]
        for sl, _, _ in layout.priced:
            self.first_bid[sl] = 0.0

    def predictions(self):
        """Fluid-model rates implied by the policy: per-contract value, per-item wins, cost."""
        inst = self.layout.inst
        mix = self.mix[self.layout.rank]
        edge_rate = (inst.rates * self.win)[inst.edge_j] * self.gamma
        value = np.zeros(inst.n_contracts)
        np.add.at(value, inst.edge_i, edge_rate * inst.edge_v)
        return value, inst.rates * mix * self.win, float(np.sum(inst.rates * mix * self.pay))


def _strata(n: int, pos: np.ndarray, cuts: np.ndarray):
    """Each position's intervals between consecutive distinct cuts, 0 included.

    ``cuts[k]`` cuts position ``pos[k]``.  Returns the intervals' positions,
    lower ends and upper ends, by position and then lower end.
    """
    pos = np.concatenate([np.arange(n), pos])
    cuts = np.concatenate([np.zeros(n), cuts])
    at = np.lexsort((cuts, pos))
    pos, cuts = pos[at], cuts[at]
    keep = (pos[1:] == pos[:-1]) & (cuts[1:] > cuts[:-1])
    return pos[:-1][keep], cuts[:-1][keep], cuts[1:][keep]


class _Cells:
    """The union of some plans' boxes, cut into cells that every plan treats alike.

    Per position the price side [0, max W(b)) is cut at every plan's W(b)
    and the selection side [0, max mix) at every plan's running weights; a
    cell is one price stratum times one selection stratum.  No cut of a plan
    crosses a cell, so in each cell a plan bids for one fixed edge or
    abstains, and wins every point or none.  Cells lie by position, then
    price stratum, then selection stratum; one plan's cells are its
    positive-weight edges.  A cell is ``priced`` when it sits at a
    second-price position and some plan wins it.
    """

    def __init__(self, layout: _Layout, plans: list[_Plan]):
        inst, k = layout.inst, len(plans)
        n = inst.n_items
        self.n_contracts, self.rank = inst.n_contracts, layout.rank
        u_pos, u_lo, u_hi = _strata(n, np.tile(np.arange(n), k), np.concatenate([p.box[0] for p in plans]))
        v_pos, v_lo, v_hi = _strata(n, np.tile(layout.edge_pos, k), np.concatenate([p.cum for p in plans]))
        n_u, n_v = np.bincount(u_pos, minlength=n), np.bincount(v_pos, minlength=n)
        size = n_u * n_v
        self.pos = pos = np.repeat(np.arange(n), size)
        rank = np.arange(pos.size) - np.repeat(np.cumsum(size) - size, size)
        iu = (np.cumsum(n_u) - n_u)[pos] + rank // n_v[pos]
        iv = (np.cumsum(n_v) - n_v)[pos] + rank % n_v[pos]
        self.u_lo, self.u_hi, self.v_lo, self.v_hi = u_lo[iu], u_hi[iu], v_lo[iv], v_hi[iv]
        self.area = (self.u_hi - self.u_lo) * (self.v_hi - self.v_lo)
        self.rates = layout.rates[pos] * self.area
        # deterministic arrivals: per position the union box's share of the
        # arrivals, and each cell's share of the box, the position's last
        # cell in the last column
        self.arrival_rates = layout.rates
        self.box = np.maximum.reduce([p.box[0] for p in plans]) * np.maximum.reduce([p.box[1] for p in plans])
        width = int(size.max(initial=1))
        self.column = rank + (width - size)[pos]
        self.shares = np.zeros((n, width))
        box = self.box[pos]
        self.shares[pos, self.column] = np.divide(self.area, box, out=np.zeros(pos.size), where=box > 0.0)
        # each plan's edge per cell (-1: abstains) and the cells it wins;
        # the edge is the first whose running weight exceeds the cell's lower
        # selection end, which is one of the cuts
        self.edge, self.plans = [], []
        won_any = np.zeros(pos.size, dtype=bool)
        for plan in plans:
            at = np.searchsorted(layout.edge_pos + 1j * plan.cum, pos + 1j * self.v_lo, side="right")
            bids = at < layout.edges.size
            bids[bids] = layout.edge_pos[at[bids]] == pos[bids]
            edge = np.full(pos.size, -1)
            edge[bids] = layout.edges[at[bids]]
            won = np.flatnonzero(bids & (self.u_hi <= plan.box[0][pos]))
            won_any[won] = True
            self.edge.append(edge)
            self.plans.append((won, pos[won], inst.edge_i[edge[won]], inst.edge_v[edge[won]],
                               plan.first_bid[pos[won]]))
        second = np.zeros(n, dtype=bool)
        for sl, _, _ in layout.priced:
            second[sl] = True
        self.priced = np.flatnonzero(second[pos] & won_any)
        priced_pos = pos[self.priced]
        self.groups = []
        for sl, quantile, params in layout.priced:
            a, b = np.searchsorted(priced_pos, [sl.start, sl.stop])
            self.groups.append((a, b, quantile, tuple(p[priced_pos[a:b] - sl.start] for p in params)))

    def price(self, counts: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Each cell's sum of second-price payments, one quantile call per group.

        ``u`` holds the price quantiles of the priced cells' points, cell by
        cell in order.
        """
        n = counts[self.priced]
        start = np.concatenate(([0], np.cumsum(n)))
        paid = np.empty(u.size)
        for a, b, quantile, params in self.groups:
            paid[start[a] : start[b]] = quantile(u[start[a] : start[b]], *(np.repeat(p, n[a:b]) for p in params))
        price = np.zeros(counts.size)
        live = np.flatnonzero(n)
        if live.size:
            price[self.priced[live]] = np.add.reduceat(paid, start[live])
        return price

    def replay(self, k: int, counts: np.ndarray, price: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Plan k's value/win/cost totals: sums over the cells it wins."""
        won, pos, contract, value, bid = self.plans[k]
        hits = counts[won]
        wins = np.bincount(pos, weights=hits, minlength=self.rank.size)
        value = np.bincount(contract, weights=hits * value, minlength=self.n_contracts)
        return value, wins[self.rank], float(hits @ bid) + float(price[won].sum())


def _draw_batch(rng: np.random.Generator, cells: _Cells, t_batch: float, deterministic: bool):
    """One batch's point counts per cell, then the price quantiles of the priced cells' points.

    Each cell's points form a Poisson process of rate lambda times the
    cell's area (Poisson splitting), so their count is Poisson.  Under
    deterministic arrivals a position's round(lambda t) arrivals put
    Binomial(round(lambda t), W(b) mix) in the union box, split over its
    cells by one multinomial draw.  A priced cell's points then take price
    quantiles uniform on its price stratum, in position order.  Returns the
    counts and the quantiles.
    """
    if deterministic:
        arrivals = np.round(cells.arrival_rates * t_batch).astype(np.int64)
        counts = rng.multinomial(rng.binomial(arrivals, cells.box), cells.shares)[cells.pos, cells.column]
    else:
        counts = rng.poisson(cells.rates * t_batch)
    n = counts[cells.priced]
    u = rng.random(n.sum())
    lo = cells.u_lo[cells.priced]
    u *= np.repeat(cells.u_hi[cells.priced] - lo, n)
    u += np.repeat(lo, n)
    return counts, u


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


# the most points one batch may draw in expectation; each second-price point
# takes a float64 price quantile, so 2**26 of them take 512 MiB
_MAX_BATCH_POINTS = 2**26


def _replay(inst: ProblemInstance, policies, horizon: float, seed, n_batches: int, deterministic: bool):
    """Check the arguments before any draw, then replay every policy against one draw per batch.

    The union of the policies' boxes (per item the largest W(b) and the
    largest total weight; for one policy its own box) is cut into cells
    once; each batch draws their counts and second-price payments once, and
    every policy sums the cells it wins.  A batch that would draw more than
    _MAX_BATCH_POINTS points in expectation raises ValueError: Poisson
    arrivals draw only the points in the union box, deterministic arrivals
    count every arrival.  Returns the plans, the batch
    length and the per-batch value, win and cost totals, of shapes
    (policies, batches, contracts), (policies, batches, items) and
    (policies, batches).
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
    cells = _Cells(layout, plans)
    t_batch = horizon / n_batches
    points = t_batch * float(np.sum(cells.arrival_rates if deterministic else cells.rates))
    if not points <= _MAX_BATCH_POINTS:
        raise ValueError(f"horizon {horizon:g} puts {points:.3g} expected points in each of its {n_batches} "
                         f"batches, above the {_MAX_BATCH_POINTS} a batch may draw")
    value = np.zeros((len(plans), n_batches, inst.n_contracts))
    wins = np.zeros((len(plans), n_batches, inst.n_items))
    cost = np.zeros((len(plans), n_batches))
    for b, rng in enumerate(_batch_rngs(seed, n_batches)):
        counts, u = _draw_batch(rng, cells, t_batch, deterministic)
        price = cells.price(counts, u)
        for p in range(len(plans)):
            value[p, b], wins[p, b], cost[p, b] = cells.replay(p, counts, price)
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
    come from the spread of the batch means.  Each batch draws counts only
    on the cells of the policy's own box, so the draws depend on the policy.
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
