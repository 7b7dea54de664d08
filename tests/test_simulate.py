import importlib
import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidopt.costs import AcquisitionCost, FamilyGroups
from bidopt.model import Contract, ItemType, build_instance, random_sparse_instance
from bidopt.curves import (
    BoundedUniform,
    Empirical,
    Exponential,
    Hyperbolic,
    PowerLawDensity,
    alpha_concavity_check,
    fit_empirical,
)
from bidopt.simulate import BidPolicy, policy_from_primal, simulate
from bidopt.solver import solution_from_json, solution_to_json, solve
from oracles import replay_per_arrival

# the package's ``simulate`` function shadows its module of that name
simulate_module = importlib.import_module("bidopt.simulate")


def scalar_instance():
    item = ItemType("a", 1.0, Exponential(1.0), "second_price")
    return build_instance([item], [Contract("x", 0.5, {"a": 1.0})])


def mixed_instance():
    # every curve normalized: the simulator samples prices from them
    items = [
        ItemType("e", 2.0, Exponential(2.0), "second_price"),
        ItemType("h", 1.0, Hyperbolic(0.5), "first_price"),
        ItemType("b", 1.5, BoundedUniform(3.0), "second_price"),
        ItemType("p", 1.2, PowerLawDensity(0.5, 2.0), "first_price"),
    ]
    contracts = [
        Contract("c0", 0.8, {"e": 1.0, "h": 0.7}),
        Contract("c1", 0.6, {"h": 1.0, "b": 0.4}),
        Contract("c2", 0.9, {"e": 0.3, "b": 1.0, "p": 0.5}),
    ]
    return build_instance(items, contracts)


def test_grouping_is_built_once_per_instance(monkeypatch):
    # solve, reading the plan back, the policy and the replay all share the
    # instance's one family grouping
    builds = []
    init = FamilyGroups.__init__

    def counting(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(FamilyGroups, "__init__", counting)
    inst = mixed_instance()
    sol = solve(inst)
    back = solution_from_json(inst, solution_to_json(inst, sol))
    assert back.report.passed
    rep = simulate(inst, policy_from_primal(inst, back.primal), horizon=200.0, seed=3)
    assert rep.fulfillment_ok()
    assert len(builds) == 1


def item_costs(inst):
    """Each item's own cost object, in item order."""
    return [AcquisitionCost(it.curve, it.auction) for it in inst.items]


# ---------------------------------------------------------------------------
# fluid-model identities (no Monte-Carlo noise)


def test_policy_from_primal_realizes_the_solution():
    inst = mixed_instance()
    sol = solve(inst, tol=1e-10)
    policy = policy_from_primal(inst, sol.primal)
    policy.check(inst)
    # per-arrival weights of an item never exceed 1
    mass = np.zeros(inst.n_items)
    np.add.at(mass, inst.edge_j, policy.gamma)
    assert np.all(mass <= 1.0 + 1e-12)
    # the policy's implied rates are the program's rates
    report = simulate(inst, policy, horizon=10.0, seed=0, n_batches=2)
    assert np.allclose(report.predicted_value_rate, inst.targets, atol=1e-8)
    assert np.allclose(report.predicted_win_rate, sol.primal.s, atol=1e-8)
    assert report.predicted_cost_rate == pytest.approx(sol.primal.primal_value, abs=1e-8)


def test_zero_bids_win_nothing():
    inst = mixed_instance()
    policy = BidPolicy(bids=np.zeros(inst.n_items), gamma=np.full(inst.n_edges, 0.3))
    report = simulate(inst, policy, horizon=200.0, seed=7)
    assert np.all(report.win_rate == 0.0)
    assert np.all(report.value_rate == 0.0)
    assert report.cost_rate == 0.0
    assert report.predicted_cost_rate == 0.0


# ---------------------------------------------------------------------------
# realized vs predicted, scalar oracle


def test_scalar_realized_rates_within_three_sigma():
    inst = scalar_instance()
    sol = solve(inst, tol=1e-12)
    policy = policy_from_primal(inst, sol.primal)
    assert policy.bids[0] == pytest.approx(math.log(2.0), abs=1e-9)
    report = simulate(inst, policy, horizon=1e5, seed=42)
    # ~1e5 arrivals, each won with probability 1/2
    assert abs(report.win_rate[0] - 0.5) <= 3.0 * report.win_rate_se[0]
    assert abs(report.value_rate[0] - 0.5) <= 3.0 * report.value_rate_se[0]
    # expected payment per auction at bid ln 2 for exp(1) prices
    pred = item_costs(inst)[0].lam(0.5)
    assert report.predicted_cost_rate == pytest.approx(float(pred), rel=1e-12)
    assert abs(report.cost_rate - report.predicted_cost_rate) <= 3.0 * report.cost_rate_se
    # binomial sanity: the batch SE should be near sqrt(p(1-p)/T)
    assert report.win_rate_se[0] == pytest.approx(math.sqrt(0.25 / 1e5), rel=0.6)


def test_mixed_optimal_policy_tracks_model():
    inst = mixed_instance()
    sol = solve(inst, tol=1e-10)
    policy = policy_from_primal(inst, sol.primal)
    report = simulate(inst, policy, horizon=2e4, seed=3)
    assert np.all(np.abs(report.value_rate - inst.targets) <= 3.0 * report.value_rate_se)
    assert np.all(np.abs(report.win_rate - report.predicted_win_rate) <= 3.0 * report.win_rate_se)
    assert abs(report.cost_rate - report.predicted_cost_rate) <= 3.0 * report.cost_rate_se
    assert report.fulfillment_ok()


# ---------------------------------------------------------------------------
# determinism and outputs


def test_same_seed_bitwise_identical():
    inst = mixed_instance()
    sol = solve(inst, tol=1e-10)
    policy = policy_from_primal(inst, sol.primal)
    a = simulate(inst, policy, horizon=500.0, seed=11)
    b = simulate(inst, policy, horizon=500.0, seed=11)
    assert a.to_json() == b.to_json()
    c = simulate(inst, policy, horizon=500.0, seed=12)
    assert c.cost_rate != a.cost_rate


def test_report_files(tmp_path):
    inst = mixed_instance()
    sol = solve(inst, tol=1e-10)
    policy = policy_from_primal(inst, sol.primal)
    csv_path = tmp_path / "fulfillment.csv"
    report = simulate(inst, policy, horizon=400.0, seed=2, csv_path=csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "time,c0,c1,c2"
    assert len(lines) == 1 + report.n_batches
    # the last cumulative row is the whole-run average rate
    tail = [float(tok) for tok in lines[-1].split(",")]
    assert tail[0] == pytest.approx(400.0)
    assert np.allclose(tail[1:], report.value_rate, atol=1e-9)


def test_policy_validation():
    inst = mixed_instance()
    good = BidPolicy(bids=np.ones(inst.n_items), gamma=np.full(inst.n_edges, 0.2))
    good.check(inst)
    with pytest.raises(ValueError):
        BidPolicy(bids=np.ones(3), gamma=np.full(inst.n_edges, 0.2)).check(inst)
    with pytest.raises(ValueError):
        BidPolicy(bids=np.ones(inst.n_items), gamma=np.full(5, 0.2)).check(inst)
    with pytest.raises(ValueError):
        BidPolicy(bids=-np.ones(inst.n_items), gamma=np.full(inst.n_edges, 0.2)).check(inst)
    with pytest.raises(ValueError):
        bad = np.full(inst.n_edges, 0.2)
        bad[0] = -0.5
        BidPolicy(bids=np.ones(inst.n_items), gamma=bad).check(inst)
    with pytest.raises(ValueError):
        # item "e" feeds two contracts; 0.6 each oversubscribes it
        BidPolicy(bids=np.ones(inst.n_items), gamma=np.full(inst.n_edges, 0.6)).check(inst)


def test_unnormalized_curve_rejected():
    # depth profiles with mass > 1 are fine to optimize but have no price
    # law; the error names the first such item
    items = [
        ItemType("a", 1.0, Exponential(1.0), "second_price"),
        ItemType("d", 1.0, PowerLawDensity(0.8, 2.0), "second_price"),
        ItemType("e", 1.0, PowerLawDensity(0.9, 2.0), "second_price"),
    ]
    inst = build_instance(items, [Contract("x", 0.5, {"a": 1.0, "d": 1.0, "e": 1.0})])
    policy = BidPolicy(bids=np.ones(3), gamma=np.full(3, 0.5))
    message = "item 'd': supply curve carries mass 1.6 > 1 and is not a price distribution"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        simulate(inst, policy, horizon=10.0, seed=0)


@pytest.mark.parametrize("horizon", [1e17, 1e19, 1e300])
def test_a_horizon_beyond_the_batch_cap_is_rejected_before_any_draw(horizon):
    # each batch would draw far more than 2**26 points; numpy's own errors
    # were a failed allocation, "lam value too large", "array is too big" and
    # an invalid cast
    inst = mixed_instance()
    policy = BidPolicy(bids=np.ones(inst.n_items), gamma=np.full(inst.n_edges, 0.3))
    with pytest.raises(ValueError, match="^" + re.escape(f"horizon {horizon:g} puts")):
        simulate(inst, policy, horizon=horizon, seed=0)


def test_the_batch_cap_counts_the_points_a_batch_draws(monkeypatch):
    # a batch draws only the points in the box [0, W(b)) x [0, mix), here
    # 0.5 x 0.5 of the arrivals
    inst = scalar_instance()
    policy = BidPolicy(bids=np.array([math.log(2.0)]), gamma=np.array([0.5]))
    monkeypatch.setattr(simulate_module, "_MAX_BATCH_POINTS", 1000)
    simulate(inst, policy, horizon=6e4, seed=0)  # 750 points per batch
    with pytest.raises(ValueError, match="^horizon 100000 puts 1.25e"):
        simulate(inst, policy, horizon=1e5, seed=0)


# ---------------------------------------------------------------------------
# cheap structural properties


@given(bid=st.floats(0.0, 3.0), weight=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_replay_bounds(bid, weight, seed):
    inst = scalar_instance()
    policy = BidPolicy(bids=np.array([bid]), gamma=np.array([weight]))
    report = simulate(inst, policy, horizon=40.0, seed=seed, n_batches=2)
    assert report.cost_rate >= 0.0
    # single edge with unit value: every win credits the one contract
    assert report.value_rate[0] == pytest.approx(report.win_rate[0])


# ---------------------------------------------------------------------------
# the flat replay against a per-arrival oracle


def fitted_curve(seed, first_price):
    """An empirical curve fitted to exponential prices, 2-concave for first price."""
    prices = np.random.default_rng(seed).exponential(1.2, size=2000)
    for clusters in (16, 8, 4):
        curve = fit_empirical(prices, min_support=float(np.quantile(prices, 0.9)) / clusters)
        if not first_price or alpha_concavity_check(curve, 2.0):
            return curve
    raise AssertionError("no 2-concave fit")


def oracle_instance():
    """Every family under both auctions, edge cases included; returns (instance, policy)."""
    spec = [  # id, rate, curve, auction, bid
        ("e2", 3.0, Exponential(1.5), "second_price", 0.9),
        ("e1", 2.0, Exponential(0.8), "first_price", 0.7),
        ("h2", 2.5, Hyperbolic(0.7), "second_price", 1.1),
        ("h1", 2.0, Hyperbolic(1.2), "first_price", 0.0),  # bids 0: never wins
        ("u2", 2.0, BoundedUniform(2.0), "second_price", 3.0),  # above x_bar
        ("u1", 1.5, BoundedUniform(1.5), "first_price", 0.6),
        ("p2", 2.0, PowerLawDensity(0.5, 1.5), "second_price", 2.0),  # mass 0.5625, above x_bar
        ("p1", 1.0, PowerLawDensity(2.0, 1.0), "first_price", 0.5),
        ("f2", 2.5, fitted_curve(0, False), "second_price", 1.4),
        ("f1", 2.0, fitted_curve(1, True), "first_price", 0.8),
        ("gap", 1.5, Empirical([(0.2, 0.0), (1.0, 0.6), (2.0, 1.0)]), "second_price", 1.2),
        ("lone", 1.0, Exponential(1.0), "second_price", 1.0),  # no edges
        ("rare", 1e-9, Exponential(1.0), "second_price", 1.0),  # no arrivals
    ]
    items = [ItemType(i, r, c, a) for i, r, c, a, _ in spec]
    contracts = [
        Contract("c0", 1.0, {"e2": 1.0, "h2": 0.5, "u2": 0.7, "p2": 1.0, "f2": 0.4, "rare": 1.0}),
        Contract("c1", 1.0, {"e2": 0.6, "e1": 1.0, "h1": 1.0, "u1": 0.8, "f1": 1.0, "gap": 0.9}),
        Contract("c2", 1.0, {"e2": 0.3, "e1": 0.5, "h2": 1.2, "u2": 0.2, "p1": 1.0, "f2": 1.0, "f1": 0.5}),
    ]
    inst = build_instance(items, contracts)
    # per item, in contract order: weights summing to exactly 1 with a zero
    # between (e2), a leading zero (e1), a negative weight clipped to 0 (h2)
    weights = {
        "e2": [0.25, 0.0, 0.75], "e1": [0.0, 0.8], "h2": [-1e-13, 0.6], "h1": [0.8],
        "u2": [0.5, 0.5], "u1": [0.9], "p2": [0.6], "p1": [1.0], "f2": [0.3, 0.4],
        "f1": [0.5, 0.5], "gap": [0.7], "rare": [1.0],
    }
    gamma = np.zeros(inst.n_edges)
    for j, item in enumerate(inst.items):
        gamma[inst.item_edges(j)] = weights.get(item.id, [])
    return inst, BidPolicy(bids=np.array([b for *_, b in spec]), gamma=gamma)


def per_item_predictions(inst, policy):
    """Fluid rates through each item's own curve.eval and expected_cost."""
    g = np.maximum(policy.gamma, 0.0)
    win = np.array([float(it.curve.eval(float(b))) for it, b in zip(inst.items, policy.bids)])
    pay = np.array([float(c.expected_cost(float(b))) for c, b in zip(item_costs(inst), policy.bids)])
    mix = np.zeros(inst.n_items)
    np.add.at(mix, inst.edge_j, g)
    value = np.zeros(inst.n_contracts)
    np.add.at(value, inst.edge_i, (inst.rates * win)[inst.edge_j] * g * inst.edge_v)
    return value, inst.rates * mix * win, float(np.sum(inst.rates * mix * pay))


def other_policy(inst):
    """Against ``oracle_instance``'s policy: higher bids on some items, lower
    weights on others, and e1's weight split onto its first edge."""
    spec = {  # id: (bid, weights)
        "e2": (1.4, [0.1, 0.2, 0.3]), "e1": (0.4, [0.5, 0.3]), "h2": (2.0, [0.2, 0.3]),
        "h1": (0.5, [0.4]), "u2": (1.0, [0.25, 0.75]), "u1": (1.2, [0.3]), "p2": (0.5, [1.0]),
        "p1": (0.9, [0.4]), "f2": (0.6, [0.5, 0.5]), "f1": (1.5, [0.2, 0.3]), "gap": (0.5, [1.0]),
        "lone": (1.0, []), "rare": (1.0, [0.5]),
    }
    gamma = np.zeros(inst.n_edges)
    for j, item in enumerate(inst.items):
        gamma[inst.item_edges(j)] = spec[item.id][1]
    return BidPolicy(bids=np.array([spec[it.id][0] for it in inst.items]), gamma=gamma)


def box_of(inst, policy):
    """Per item W(b) through curve.eval and the total weight, each clipped to 1."""
    thr = np.array([float(it.curve.eval(float(x))) for it, x in zip(inst.items, policy.bids)])
    mix = np.zeros(inst.n_items)
    np.add.at(mix, inst.edge_j, np.maximum(policy.gamma, 0.0))
    return np.minimum(thr, 1.0), np.minimum(mix, 1.0)


def cell_bounds(inst, policy, cells):
    """Each cell's rectangle of its item's box: the price side [q_lo, q_hi)
    as the cells lay it out, and the selection side [v_lo, v_hi) between its
    edge's running weight and the one before it, summed by np.cumsum over
    the item's own edges."""
    item = cells.order[cells.pos]
    v_lo, v_hi = np.zeros(item.size), np.zeros(item.size)
    for c, (j, e) in enumerate(zip(item.tolist(), cells.edge.tolist())):
        edges = inst.item_edges(j)
        cum = np.minimum(np.cumsum(np.maximum(policy.gamma[edges], 0.0)), 1.0)
        k = int(np.flatnonzero(edges == e)[0])
        v_lo[c], v_hi[c] = (cum[k - 1] if k else 0.0), cum[k]
    return cells.q_lo, cells.q_hi, v_lo, v_hi


def knots_of(curve):
    """An empirical curve's knot quantiles w_k, from its breakpoints."""
    return np.array([w for _, w in curve.breakpoints])


def test_cells_tile_the_box():
    inst, first = oracle_instance()
    ids = [it.id for it in inst.items]
    zero = [inst.item_edges(ids.index("e2"))[1], inst.item_edges(ids.index("e1"))[0],
            inst.item_edges(ids.index("h2"))[0]]
    for policy in (first, other_policy(inst)):
        cells = simulate_module._Cells(inst, policy)
        item = cells.order[cells.pos]
        thr, mix = box_of(inst, policy)
        # cells on every positive-weight edge of an item the policy can win,
        # and on no other
        live = np.flatnonzero((policy.gamma > 0.0) & (thr[inst.edge_j] > 0.0))
        assert np.array_equal(np.unique(cells.edge), live)
        assert np.all(inst.edge_j[cells.edge] == item)
        q_lo, q_hi, v_lo, v_hi = cell_bounds(inst, policy, cells)
        assert np.all(v_lo < v_hi) and np.all(q_lo < q_hi)
        # each edge's cells tile its strip [0, W(b)) x [lo, hi): they share
        # its selection side and cut its price side end to end; a
        # second-price empirical edge has one cell per segment below W(b),
        # every other edge one cell
        cut = 0
        for e in live.tolist():
            at = np.flatnonzero(cells.edge == e)
            j = int(inst.edge_j[e])
            assert np.all(v_lo[at] == v_lo[at[0]]) and np.all(v_hi[at] == v_hi[at[0]])
            lo, hi = np.sort(q_lo[at]), np.sort(q_hi[at])
            assert lo[0] == 0.0 and np.array_equal(lo[1:], hi[:-1])
            assert hi[-1] == pytest.approx(thr[j], rel=1e-12, abs=0.0)
            curve = inst.items[j].curve
            if isinstance(curve, Empirical) and inst.items[j].auction.value == "second_price":
                assert at.size == np.count_nonzero(knots_of(curve) < thr[j])
                cut += at.size > 1
            else:
                assert at.size == 1
        assert cut > 0
        # every linear cell -- a second-price empirical or BoundedUniform
        # one -- lies inside one segment of its curve
        for c in cells.priced.tolist():
            curve = inst.items[int(item[c])].curve
            if isinstance(curve, Empirical):
                ws = knots_of(curve)
                k = int(np.searchsorted(ws, q_lo[c], side="right")) - 1
                assert ws[k] == q_lo[c] and q_hi[c] <= ws[k + 1]
            elif isinstance(curve, BoundedUniform):
                assert q_lo[c] == 0.0 and q_hi[c] <= curve.total_mass
        # the cells lie by position, then by price side, then by selection
        # side without overlap, and their areas sum to the box
        same = cells.pos[1:] == cells.pos[:-1]
        assert np.all(cells.pos[1:] >= cells.pos[:-1]) and np.all(q_lo[1:][same] >= q_lo[:-1][same])
        flat = same & (q_lo[1:] == q_lo[:-1])
        assert np.all(v_hi[:-1][flat] <= v_lo[1:][flat])
        assert cells.area == pytest.approx((q_hi - q_lo) * (v_hi - v_lo), rel=1e-12, abs=0.0)
        area = np.bincount(item, weights=cells.area, minlength=inst.n_items)
        assert area == pytest.approx(thr * mix, rel=1e-12, abs=0.0)
    # the first policy's zero weights: between two edges (e2), leading (e1)
    # and clipped from below 0 (h2)
    assert not set(zero) & set(simulate_module._Cells(inst, first).edge.tolist())


def expand_cells(cells, bounds, counts, u, rng):
    """A batch's cells as explicit points, item-contiguous in position order.

    A priced cell's points take the batch's own uniforms U, at price
    quantiles q_lo + (q_hi - q_lo) U; every other quantile and every
    selection coordinate is uniform on the point's cell, whose ``bounds``
    come from ``cell_bounds``.  Returns the point counts per position, the
    quantiles and the selection coordinates, as ``replay_per_arrival`` reads
    them.
    """
    q_lo, q_hi, v_lo, v_hi = bounds
    lo, hi = np.repeat(q_lo, counts), np.repeat(q_hi, counts)
    u_all = rng.uniform(lo, hi)
    priced = np.zeros(counts.size, dtype=bool)
    priced[cells.priced] = True
    at = np.repeat(priced, counts)
    u_all[at] = lo[at] + (hi[at] - lo[at]) * u
    v_all = rng.uniform(np.repeat(v_lo, counts), np.repeat(v_hi, counts))
    per_pos = np.bincount(cells.pos, weights=counts, minlength=cells.rank.size).astype(int)
    return per_pos, u_all, v_all


def draws(cells, seed, t_batch, n_batches):
    """The replay's draws for one seed: yields each block's slice of batches,
    its counts (one row per batch) and each of its batches' own uniforms."""
    for block, counts, u in simulate_module._draw(np.random.default_rng(seed), cells, t_batch, n_batches):
        assert u.size == counts[:, cells.priced].sum()
        yield block, counts, np.split(u, np.cumsum(counts[:, cells.priced].sum(axis=1))[:-1])


def replay_against_oracle(inst, policy, horizon, n_batches, seed):
    """Replay each block's cells and, batch by batch and point by point, the
    per-arrival oracle.

    Checks that they agree and that the policy wins every drawn point, all
    of which lie in its box [0, W(b)) x [0, mix); returns the cost rate per
    batch and the number of batches in each block.
    """
    cells = simulate_module._Cells(inst, policy)
    bounds = cell_bounds(inst, policy, cells)
    item = cells.order[cells.pos]
    t_batch = horizon / n_batches
    costs = np.zeros(n_batches)
    blocks = []
    points = np.random.default_rng(seed + 1)
    for block, counts, us in draws(cells, seed, t_batch, n_batches):
        # price overwrites its quantiles
        values, wins, cost = cells.replay(counts, cells.price(counts, np.concatenate(us)))
        blocks.append(len(us))
        for r, b in enumerate(range(n_batches)[block]):
            per_pos, u_all, v_all = expand_cells(cells, bounds, counts[r], us[r], points)
            o_value, o_wins, o_cost = replay_per_arrival(inst, policy, cells.order, per_pos, u_all, v_all)
            assert np.array_equal(wins[r], o_wins)
            # the replay sums per-cell totals, the oracle one point at a time:
            # equal up to the summation order
            assert values[r] == pytest.approx(o_value, rel=1e-12)
            assert cost[r] == pytest.approx(o_cost, rel=1e-12)
            assert np.array_equal(wins[r], np.bincount(item, weights=counts[r], minlength=inst.n_items))
            costs[b] = o_cost / t_batch
    assert sum(blocks) == n_batches
    return costs, blocks


def test_flat_replay_matches_per_arrival_oracle():
    inst, first = oracle_instance()
    # every branch is exercised: the winning items are exactly those with a
    # positive bid, weight and W(b) on some edge
    for policy, losers in ((first, ("h1", "lone", "rare")), (other_policy(inst), ("lone", "rare"))):
        costs, _ = replay_against_oracle(inst, policy, horizon=450.0, n_batches=3, seed=5)
        report = simulate(inst, policy, horizon=450.0, seed=5, n_batches=3)
        assert report.cost_rate == pytest.approx(costs.mean(), rel=1e-12)
        assert set(np.flatnonzero(report.win_rate)) == {
            j for j, it in enumerate(inst.items) if it.id not in losers
        }
    cells = simulate_module._Cells(inst, first)
    p2 = [it.id for it in inst.items].index("p2")
    assert np.bincount(cells.order[cells.pos], weights=cells.area)[p2] == inst.items[p2].curve.total_mass * 0.6


def test_the_block_budget_leaves_the_report_bit_identical(monkeypatch):
    # the stream is drawn batch by batch whatever the blocks, and each batch
    # sums in its own order: blocks of one batch, of a few and of all twelve
    # give one report, bit for bit
    inst, policy = oracle_instance()
    blocks = counting_draws(monkeypatch)

    def report(points, seed=11):
        monkeypatch.setattr(simulate_module, "_BLOCK_POINTS", points)
        blocks.clear()
        return simulate(inst, policy, horizon=600.0, seed=seed, n_batches=12).to_json()

    one = report(1)
    assert len(blocks) == 12
    some = int(sum(points for _, _, points in blocks[:3]))
    assert report(some) == one and 1 < len(blocks) < 12
    assert report(2**26) == one and len(blocks) == 1
    # one seed, one report; another seed, another
    assert report(2**26) == one
    assert report(2**26, seed=12)["cost_rate"] != one["cost_rate"]
    # a block of twelve batches against the per-arrival oracle, batch by batch
    costs, sizes = replay_against_oracle(inst, policy, horizon=600.0, n_batches=12, seed=11)
    assert sizes == [12]
    assert one["cost_rate"] == pytest.approx(costs.mean(), rel=1e-12)


def per_point_prices(inst, cells, counts, u):
    """Each priced cell's points priced by their own curve's inverse at the
    quantiles q_lo + (q_hi - q_lo) U, summed per cell."""
    item = cells.order[cells.pos[cells.priced]]
    n = counts[cells.priced]
    start = np.concatenate(([0], np.cumsum(n)))
    q_lo, q_hi = cells.q_lo[cells.priced], cells.q_hi[cells.priced]
    q = np.repeat(q_lo, n) + np.repeat(q_hi - q_lo, n) * u
    return [inst.items[j].curve.inverse(q[a:b]).sum() for j, a, b in zip(item, start[:-1], start[1:])]


def test_price_matches_the_per_point_inverse():
    # each cell's price sum, against every point priced by its own curve's
    # inverse and summed per cell: all four families, the fitted curve whose
    # support starts at 0, and the gap curve whose support starts above 0
    inst, first = oracle_instance()
    ids = np.array([it.id for it in inst.items])
    for policy in (first, other_policy(inst)):
        cells = simulate_module._Cells(inst, policy)
        item = cells.order[cells.pos[cells.priced]]
        for _, counts, us in draws(cells, 3, 200.0, 4):
            price = cells.price(counts, np.concatenate(us))
            for r, u in enumerate(us):
                n = counts[r, cells.priced]
                assert set(ids[item[n > 0]]) == {"e2", "h2", "u2", "p2", "f2", "gap"}
                np.testing.assert_allclose(price[r, cells.priced], per_point_prices(inst, cells, counts[r], u),
                                           rtol=1e-13, atol=0.0)
            assert np.all(np.delete(price, cells.priced, axis=1) == 0.0)


def test_items_sharing_an_empirical_curve_are_each_cut():
    # equal empirical curves under one auction share a group: each item's
    # strips are still cut at the knots below its own W(b), and each cell
    # prices on its own segment
    curve = Empirical([(0.2, 0.0), (1.0, 0.6), (1.5, 0.8), (2.0, 1.0)])
    items = [ItemType(i, 2.0, curve, "second_price") for i in ("a", "b")]
    inst = build_instance(items, [Contract("x", 0.5, {"a": 1.0, "b": 0.5}), Contract("y", 0.5, {"b": 1.0})])
    assert len(inst.groups.groups) == 1
    gamma = np.zeros(inst.n_edges)
    gamma[inst.item_edges(0)] = [0.8]
    gamma[inst.item_edges(1)] = [0.3, 0.6]
    policy = BidPolicy(bids=np.array([1.8, 1.1]), gamma=gamma)
    cells = simulate_module._Cells(inst, policy)
    thr, _ = box_of(inst, policy)
    for e in range(inst.n_edges):
        assert np.count_nonzero(cells.edge == e) == np.count_nonzero(knots_of(curve) < thr[inst.edge_j[e]])
    for _, counts, us in draws(cells, 4, 50.0, 3):
        price = cells.price(counts, np.concatenate(us))
        for r, u in enumerate(us):
            np.testing.assert_allclose(price[r, cells.priced], per_point_prices(inst, cells, counts[r], u),
                                       rtol=1e-13, atol=0.0)


def test_ab_policies_win_their_own_sub_boxes():
    # on the points drawn in one policy's cells, the per-arrival oracle of
    # the other policy wins exactly those in its own box [0, W(b)) x [0, mix),
    # a proper subset of them
    inst, first = oracle_instance()
    policies = (first, other_policy(inst))
    horizon, n_batches, seed = 300.0, 4, 17
    for policy, rival in (policies, policies[::-1]):
        cells = simulate_module._Cells(inst, policy)
        bounds = cell_bounds(inst, policy, cells)
        item = cells.order[cells.pos]
        thr, mix = box_of(inst, rival)
        points = np.random.default_rng(seed + 1)
        for _, rows, us in draws(cells, seed, horizon / n_batches, n_batches):
            for counts, u in zip(rows, us, strict=True):
                per_pos, u_all, v_all = expand_cells(cells, bounds, counts, u, points)
                _, wins, _ = replay_per_arrival(inst, rival, cells.order, per_pos, u_all, v_all)
                j_all = np.repeat(item, counts)
                inside = (u_all < thr[j_all]) & (v_all < mix[j_all])
                assert np.array_equal(wins, np.bincount(j_all[inside], minlength=inst.n_items))
                assert 0 < inside.sum() < inside.size


def test_box_draws_are_calibrated():
    # per item and run, wins are Poisson(lambda t W(b) mix): over S seeded
    # runs the sample mean has standard deviation sqrt(mu / S) and the
    # sample variance about sqrt((mu + 2 mu^2) / S)
    inst, policy = oracle_instance()
    horizon, runs = 8.0, 300
    wins = np.array([
        simulate(inst, policy, horizon=horizon, seed=seed, n_batches=2).win_rate * horizon
        for seed in range(runs)
    ])
    assert np.allclose(wins, np.round(wins), rtol=0.0, atol=1e-9)
    mu = simulate(inst, policy, horizon=horizon, seed=0, n_batches=2).predicted_win_rate * horizon
    assert np.all(np.abs(wins.mean(axis=0) - mu) <= 4.0 * np.sqrt(mu / runs))
    assert np.all(np.abs(wins.var(axis=0, ddof=1) - mu) <= 4.0 * np.sqrt((mu + 2.0 * mu**2) / runs))


def test_edge_hits_are_calibrated():
    # per edge and run, hits are Poisson(lambda t W(b) gamma_e): over S
    # seeded runs the sample mean has standard deviation sigma / sqrt(S) and
    # the sample variance about sqrt((mu_4 - sigma^4) / S)
    inst, policy = oracle_instance()
    cells = simulate_module._Cells(inst, policy)
    t_batch, runs = 4.0, 300
    edge = cells.edge
    hits = np.zeros((runs, inst.n_edges))
    for block, counts, _ in draws(cells, 29, t_batch, runs):
        for r, row in zip(range(runs)[block], counts, strict=True):
            hits[r] = np.bincount(edge, weights=row, minlength=inst.n_edges)
    thr, _ = box_of(inst, policy)
    p = thr[inst.edge_j] * np.maximum(policy.gamma, 0.0)
    mean = var = inst.rates[inst.edge_j] * t_batch * p
    mu_4 = var + 3.0 * var**2
    assert np.all(np.abs(hits.mean(axis=0) - mean) <= 4.0 * np.sqrt(var / runs))
    assert np.all(np.abs(hits.var(axis=0, ddof=1) - var) <= 4.0 * np.sqrt((mu_4 - var**2) / runs))
    # the zero weights never hit
    assert np.all(hits[:, policy.gamma <= 0.0] == 0.0)


def test_grouped_predictions_match_per_item_route():
    inst, policy = oracle_instance()
    report = simulate(inst, policy, horizon=10.0, seed=0, n_batches=2)
    value, win, cost = per_item_predictions(inst, policy)
    assert np.array_equal(report.predicted_value_rate, value)
    assert np.array_equal(report.predicted_win_rate, win)
    assert report.predicted_cost_rate == pytest.approx(cost, rel=1e-12)


class CountingRng:
    """A replay's generator that counts the uniforms it draws."""

    def __init__(self, rng):
        self.rng, self.uniforms = rng, 0

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, *args, **kwargs):
        out = self.rng.random(*args, **kwargs)
        self.uniforms += np.size(out)
        return out

    def uniform(self, *args, **kwargs):
        out = self.rng.uniform(*args, **kwargs)
        self.uniforms += np.size(out)
        return out


def counting_draws(monkeypatch):
    """Spies on the replay's draws: returns a list that gets, per block, its
    slice of batches, the uniforms it drew and its counts at priced cells."""
    blocks = []
    draw = simulate_module._draw

    def counted(rng, cells, t_batch, n_batches):
        rng = CountingRng(rng)
        for block, counts, u in draw(rng, cells, t_batch, n_batches):
            blocks.append((block, rng.uniforms, counts[:, cells.priced].sum()))
            rng.uniforms = 0
            yield block, counts, u

    monkeypatch.setattr(simulate_module, "_draw", counted)
    return blocks


def test_replay_work_is_one_quantile_call_per_group_and_batch(monkeypatch):
    inst = random_sparse_instance(np.random.default_rng(1), 60, 400)
    rng = np.random.default_rng(2)
    gamma = rng.uniform(0.0, 1.0, inst.n_edges)
    mass = np.zeros(inst.n_items)
    np.add.at(mass, inst.edge_j, gamma)
    policy = BidPolicy(bids=rng.uniform(0.0, 2.0, inst.n_items), gamma=gamma / mass[inst.edge_j])
    calls = []
    shape = Exponential.quantile_shape

    def counted(q, out=None):
        calls.append(q.size)
        return shape(q, out)

    monkeypatch.setattr(Exponential, "quantile_shape", staticmethod(counted))
    blocks = counting_draws(monkeypatch)
    horizon = 1e5 / float(inst.rates.sum())
    # a budget of one point makes each block one batch
    for points, n_blocks in ((1, 20), (simulate_module._BLOCK_POINTS, 1)):
        monkeypatch.setattr(simulate_module, "_BLOCK_POINTS", points)
        calls.clear()
        blocks.clear()
        report = simulate(inst, policy, horizon=horizon, seed=2026, n_batches=20)
        # one (exponential, second price) group, one shape pass per batch: the
        # per-item replay made 7,965 inverse calls here
        assert len(calls) == 20
        assert sum(calls) == pytest.approx(report.win_rate.sum() * horizon)
        # each block draws a uniform only for a second-price win's price, none
        # to select a contract
        assert len(blocks) == n_blocks
        assert [b for block, _, _ in blocks for b in range(20)[block]] == list(range(20))
        assert all(uniforms <= sum(calls[block]) for block, uniforms, _ in blocks)
    value, win, cost = per_item_predictions(inst, policy)
    assert np.array_equal(report.predicted_value_rate, value)
    assert np.array_equal(report.predicted_win_rate, win)
    assert report.predicted_cost_rate == pytest.approx(cost, rel=1e-12)


def test_linear_cells_are_priced_without_a_quantile_call(monkeypatch):
    # second-price empirical and BoundedUniform cells price from their sums
    # of uniforms: once the batches start, neither family evaluates a
    # quantile, each nonlinear group makes one shape pass per batch, and a
    # block draws one uniform per second-price win at most
    inst, policy = oracle_instance()
    shapes = {Exponential: 0, Hyperbolic: 0, PowerLawDensity: 0}
    linear = []
    blocks = counting_draws(monkeypatch)  # filled once the first block is drawn

    def counting(family, fn):
        def counted(q, out=None):
            if blocks:
                shapes[family] += 1
            return fn(q, out)

        return staticmethod(counted)

    def forbidden(name, fn):
        def called(*args, **kwargs):
            if blocks:
                linear.append(name)
            return fn(*args, **kwargs)

        return called

    for family in shapes:
        monkeypatch.setattr(family, "quantile_shape", counting(family, family.quantile_shape))
    monkeypatch.setattr(BoundedUniform, "quantile_shape",
                        staticmethod(forbidden("BoundedUniform.quantile_shape", BoundedUniform.quantile_shape)))
    monkeypatch.setattr(Empirical, "quantile", forbidden("Empirical.quantile", Empirical.quantile))
    n_batches = 12
    # a budget of one point makes each block one batch
    for points, n_blocks in ((1, n_batches), (simulate_module._BLOCK_POINTS, 1)):
        monkeypatch.setattr(simulate_module, "_BLOCK_POINTS", points)
        blocks.clear()
        shapes = dict.fromkeys(shapes, 0)
        report = simulate(inst, policy, horizon=600.0, seed=2026, n_batches=n_batches)
        assert len(blocks) == n_blocks and linear == []
        assert [b for block, _, _ in blocks for b in range(n_batches)[block]] == list(range(n_batches))
        assert shapes == {Exponential: n_batches, Hyperbolic: n_batches, PowerLawDensity: n_batches}
        assert all(0 < uniforms <= wins for _, uniforms, wins in blocks)
        assert report.cost_rate > 0.0


def test_demo_script_certifies_and_replays(capsys):
    # scripts/demo_solve.py runs to its last line, and every certificate row it prints is ok
    runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "demo_solve.py"), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    top = out.index("certificate:") + 1
    rows = out[top : out.index("", top)]
    assert any(row.split()[0] == "relative_gap" for row in rows)
    assert all(row.split()[-1] == "ok" for row in rows)
    assert out[-4].startswith("replayed 20000 time units") and out[-1].startswith("  spend rate: realized")


@pytest.mark.parametrize("seed", [None, [1, 2], -1, 1.0, True, "7"])
def test_bad_seed_rejected_before_any_batch(monkeypatch, seed):
    inst = mixed_instance()
    policy = BidPolicy(bids=np.ones(inst.n_items), gamma=np.full(inst.n_edges, 0.3))

    def no_batches(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(simulate_module, "_draw", no_batches)
    with pytest.raises(ValueError, match="seed"):
        simulate(inst, policy, horizon=1e5, seed=seed)


@pytest.mark.parametrize("horizon", [5e-324, 1e-323])
def test_a_horizon_of_zero_length_batches_is_rejected_before_any_batch(monkeypatch, horizon):
    # horizon / n_batches underflows to 0 although the horizon is positive
    inst = mixed_instance()
    policy = BidPolicy(bids=np.ones(inst.n_items), gamma=np.full(inst.n_edges, 0.3))

    def no_batches(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(simulate_module, "_draw", no_batches)
    with pytest.raises(ValueError, match=re.escape(f"horizon {horizon!r} splits into 20 batches of length 0")):
        simulate(inst, policy, horizon=horizon, seed=1)


def test_numpy_integer_seed_accepted():
    inst = mixed_instance()
    policy = BidPolicy(bids=np.ones(inst.n_items), gamma=np.full(inst.n_edges, 0.3))
    a = simulate(inst, policy, horizon=50.0, seed=np.int64(4))
    assert a.to_json() == simulate(inst, policy, horizon=50.0, seed=4).to_json()
    assert simulate(inst, policy, horizon=50.0, seed=np.uint32(4)).seed == 4
