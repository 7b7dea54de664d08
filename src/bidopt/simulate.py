"""Monte-Carlo replay of a bid policy on a synthetic auction stream.

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
and v selects the contract.  The policy wins it when u <= W(b) -- the same
event as W^{-1}(u) <= b under inverse transform -- and v is below the
item's total weight m, and it credits the first edge whose running weight
exceeds v.  So the points the policy can win lie in the box [0, W(b)) x
[0, m), and cutting that box at the running weights leaves one cell per
positive-weight edge, in which every point wins that edge.  By Poisson
splitting (Kingman 1993) the cells hold independent Poisson counts of mean
lambda t times their area, so a batch draws one count per cell (under
deterministic arrivals, Binomial(round(lambda t), W(b) m) per item split
over its cells by one multinomial), and hits, wins and value are sums of
counts.  Only second-price cost needs single points: each winning point of
a second-price cell draws its price quantile uniform on [0, W(b)), one
quantile call per (family, auction) group and batch.  Items take a fixed
order that depends only on the instance: grouped by family and auction
kind, an empirical curve a group of its own.  The cells, and so the draws,
depend on the policy: two policies replayed with one seed do not share
their draws.

Batches use RNG streams spawned from one seed, so runs are reproducible
bit-for-bit, batches are independent (they could run in parallel; sums over
batches are order-independent), and batch means give honest standard errors.
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
    "policy_from_primal",
    "simulate",
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
# the report


@dataclass(frozen=True)
class SimulationReport:
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
        return bool(np.all(self.value_rate + n_se * self.value_rate_se >= self.targets))

    def to_json(self) -> dict:
        """Every field in field order, arrays as lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


# ---------------------------------------------------------------------------
# the event loop


def _batch_rngs(seed, n_batches: int) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_batches)]


class _Cells:
    """A policy's winnable box, cut into one cell per edge it can win.

    Items take positions group by group -- the (family, auction) groups of
    ``inst.groups``, where an empirical curve is a group of its own -- in
    instance order within a group.  An arrival of position p carries a price
    quantile u and a selection coordinate v, each uniform on [0, 1).  The
    policy bids when v is below the item's total weight ``mix[p]``, for the
    first edge whose running weight exceeds v, and wins when u is at most
    W(b): under inverse transform that is the event W^{-1}(u) <= b, so ties
    win.  With W(b) and the running weights clipped at 1, a cell is an edge
    at an item with W(b) > 0 whose running weight rises above the one before
    it, and its area is W(b) times that rise; a zero-weight edge repeats the
    running weight before it, so it has no cell.  Cells lie by position,
    then in ``item_edges`` order.
    """

    def __init__(self, inst: ProblemInstance, policy: BidPolicy):
        self.inst, self.order, self.rank = inst, inst.groups.order, inst.groups.rank
        self.gamma = np.maximum(policy.gamma, 0.0)
        self.pay, self.win = inst.groups.pay(policy.bids)
        edges = np.argsort(self.rank[inst.edge_j], kind="stable")
        edge_pos = self.rank[inst.edge_j[edges]]
        start = np.searchsorted(edge_pos, np.arange(inst.n_items + 1))
        # each item's running weights, summed left to right as np.cumsum sums
        # them item by item: the k-th sum of every item at once
        first, deg = start[:-1], np.diff(start)
        cum = self.gamma[edges]
        for k in range(1, int(deg.max(initial=0))):
            at = first[deg > k] + k
            cum[at] += cum[at - 1]
        self.mix = np.zeros(inst.n_items)
        self.mix[deg > 0] = cum[start[1:][deg > 0] - 1]
        thr = np.minimum(self.win[self.order], 1.0)
        cum = np.minimum(cum, 1.0)
        rise = np.diff(cum, prepend=0.0)
        rise[first[deg > 0]] = cum[first[deg > 0]]
        live = (rise > 0.0) & (thr[edge_pos] > 0.0)
        self.pos, self.edge = edge_pos[live], edges[live]
        self.area = thr[self.pos] * rise[live]
        self.arrival_rates = inst.rates[self.order]
        self.rates = self.arrival_rates[self.pos] * self.area
        # deterministic arrivals: per position the box's share of the
        # arrivals, and each cell's share of the box, the position's last
        # cell in the last column
        self.box = thr * np.minimum(self.mix, 1.0)
        size = np.bincount(self.pos, minlength=inst.n_items)
        width = int(size.max(initial=1))
        nth = np.arange(self.pos.size) - np.repeat(np.cumsum(size) - size, size)
        self.column = nth + (width - size)[self.pos]
        self.shares = np.zeros((inst.n_items, width))
        box = self.box[self.pos]
        self.shares[self.pos, self.column] = np.divide(self.area, box, out=np.zeros(self.pos.size), where=box > 0.0)
        # second-price cells pay a drawn price, first-price cells the bid; an
        # empirical group prices through its curve's inverse, which also maps
        # u = 0 to 0 when the support starts above 0
        priced = [(sl, family.inverse if isinstance(family, Empirical) else family.quantile, params)
                  for sl, family, first_price, params in inst.groups.groups if not first_price]
        second = np.zeros(inst.n_items, dtype=bool)
        for sl, _, _ in priced:
            second[sl] = True
        self.bid = np.where(second, 0.0, policy.bids[self.order])[self.pos]
        self.contract, self.value = inst.edge_i[self.edge], inst.edge_v[self.edge]
        self.priced = np.flatnonzero(second[self.pos])
        priced_pos = self.pos[self.priced]
        # a priced cell's points take price quantiles uniform on [0, u_hi)
        self.u_hi = thr[priced_pos]
        self.groups = []
        for sl, quantile, params in priced:
            a, b = np.searchsorted(priced_pos, [sl.start, sl.stop])
            self.groups.append((a, b, quantile, tuple(p[priced_pos[a:b] - sl.start] for p in params)))

    def predictions(self):
        """Fluid-model rates implied by the policy: per-contract value, per-item wins, cost."""
        inst = self.inst
        mix = self.mix[self.rank]
        edge_rate = (inst.rates * self.win)[inst.edge_j] * self.gamma
        value = np.zeros(inst.n_contracts)
        np.add.at(value, inst.edge_i, edge_rate * inst.edge_v)
        return value, inst.rates * mix * self.win, float(np.sum(inst.rates * mix * self.pay))

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

    def replay(self, counts: np.ndarray, price: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """One batch's value per contract, wins per item and cost: sums over the cells."""
        wins = np.bincount(self.pos, weights=counts, minlength=self.rank.size)
        value = np.bincount(self.contract, weights=counts * self.value, minlength=self.inst.n_contracts)
        return value, wins[self.rank], float(counts @ self.bid) + float(price.sum())


def _draw_batch(rng: np.random.Generator, cells: _Cells, t_batch: float, deterministic: bool):
    """One batch's point counts per cell, then the price quantiles of the priced cells' points.

    Each cell's points form a Poisson process of rate lambda times the
    cell's area (Poisson splitting), so their count is Poisson.  Under
    deterministic arrivals a position's round(lambda t) arrivals put
    Binomial(round(lambda t), W(b) mix) in the box, split over its cells by
    one multinomial draw.  A priced cell's points then take price quantiles
    uniform on [0, W(b)), in position order.  Returns the counts and the
    quantiles.
    """
    if deterministic:
        arrivals = np.round(cells.arrival_rates * t_batch).astype(np.int64)
        counts = rng.multinomial(rng.binomial(arrivals, cells.box), cells.shares)[cells.pos, cells.column]
    else:
        counts = rng.poisson(cells.rates * t_batch)
    n = counts[cells.priced]
    u = rng.random(n.sum())
    u *= np.repeat(cells.u_hi, n)
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

    The arguments are checked before any draw.  The horizon splits into
    ``n_batches`` equal batches with independent RNG streams spawned from
    ``seed``, a nonnegative integer; standard errors come from the spread of
    the batch means.  Each batch draws counts on the cells of the policy's
    box.  A batch that would draw more than _MAX_BATCH_POINTS points in
    expectation raises ValueError: Poisson arrivals draw only the points in
    the box, deterministic arrivals count every arrival.  ``csv_path`` dumps
    the cumulative fulfillment-rate time series per contract, ``json_path``
    the full report.
    """
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
    cells = _Cells(inst, policy)
    t_batch = horizon / n_batches
    points = t_batch * float(np.sum(cells.arrival_rates if deterministic_arrivals else cells.rates))
    if not points <= _MAX_BATCH_POINTS:
        raise ValueError(f"horizon {horizon:g} puts {points:.3g} expected points in each of its {n_batches} "
                         f"batches, above the {_MAX_BATCH_POINTS} a batch may draw")
    value = np.zeros((n_batches, inst.n_contracts))
    wins = np.zeros((n_batches, inst.n_items))
    cost = np.zeros(n_batches)
    for b, rng in enumerate(_batch_rngs(seed, n_batches)):
        counts, u = _draw_batch(rng, cells, t_batch, deterministic_arrivals)
        value[b], wins[b], cost[b] = cells.replay(counts, cells.price(counts, u))
    value_rate, value_se = _mean_se(value / t_batch)
    win_rate, win_se = _mean_se(wins / t_batch)
    cost_rate, cost_se = _mean_se(cost / t_batch)
    pred_value, pred_win, pred_cost = cells.predictions()

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
        _write_fulfillment_csv(csv_path, inst, t_batch, value)
    if json_path is not None:
        with open(json_path, "w") as fh:
            # json.dumps without indent runs json's C encoder; json.dump never does
            fh.write(json.dumps(report.to_json(), sort_keys=True))
    return report
