import dataclasses
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bidopt.costs import AcquisitionCost
from bidopt.curves import BoundedUniform, Empirical, Exponential, Hyperbolic, PowerLawDensity
from bidopt import model, solver
from bidopt.model import Contract, ItemType, build_instance, random_instance, random_sparse_instance
from bidopt.solver import (
    DualSolution,
    InfeasibleInstance,
    NotConverged,
    certify,
    recover_primal,
    solution_from_json,
    solution_to_json,
    solve,
    solve_dual,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from oracles import supply_certificate_holds  # noqa: E402
from perfbench.workloads import mixed_pipeline  # noqa: E402


def item_cost(item):
    """The per-item cost object of an item: the reference the grouped kernels are checked against."""
    return AcquisitionCost(item.curve, item.auction)


def scalar_instance():
    item = ItemType("a", 1.0, Exponential(1.0), "second_price")
    return build_instance([item], [Contract("x", 0.5, {"a": 1.0})])


def mixed_instance():
    items = [
        ItemType("e", 2.0, Exponential(2.0), "second_price"),
        ItemType("h", 1.0, Hyperbolic(0.5), "first_price"),
        ItemType("b", 1.5, BoundedUniform(3.0), "second_price"),
        ItemType("p", 1.2, PowerLawDensity(0.8, 2.0), "first_price"),
    ]
    contracts = [
        Contract("c0", 0.8, {"e": 1.0, "h": 0.7}),
        Contract("c1", 0.6, {"h": 1.0, "b": 0.4}),
        Contract("c2", 0.9, {"e": 0.3, "b": 1.0, "p": 0.5}),
    ]
    return build_instance(items, contracts)


# ---------------------------------------------------------------------------
# closed-form oracle: one exp(1) item, one contract


def test_scalar_closed_form():
    # balance C = W(rho) gives rho* = ln 2; D* = C rho* - conj(rho*) = (1 - ln 2)/2
    sol = solve(scalar_instance(), tol=1e-12)
    assert sol.dual.rho[0] == pytest.approx(math.log(2.0), abs=1e-10)
    assert sol.dual.dual_value == pytest.approx(0.5 * (1.0 - math.log(2.0)), abs=1e-12)
    assert sol.report.passed
    # second price: the bid equals the multiplier
    assert sol.primal.x[0] == pytest.approx(math.log(2.0), abs=1e-10)
    assert sol.primal.s[0] == pytest.approx(0.5, abs=1e-10)


def test_scalar_first_price_against_grid():
    item = ItemType("a", 1.0, Hyperbolic(1.0), "first_price")
    inst = build_instance([item], [Contract("x", 0.4, {"a": 1.0})])
    sol = solve(inst, tol=1e-12)
    # brute force: spend b*W(b) over a fine bid grid subject to W(b) >= C
    grid = np.linspace(1e-6, 50.0, 10**4)
    win = grid / (1.0 + grid)
    feasible = win >= 0.4
    spend = np.where(feasible, grid * win, np.inf)
    assert sol.primal.primal_value <= spend.min() + 1e-6
    assert sol.report.passed


def test_mixed_instance_certifies():
    inst = mixed_instance()
    sol = solve(inst, tol=1e-10)
    assert sol.report.passed
    assert sol.report.gap == pytest.approx(0.0, abs=1e-9)
    # every contract fulfilled exactly
    delivered = np.zeros(3)
    np.add.at(delivered, inst.edge_i, inst.edge_v * sol.primal.R)
    assert np.allclose(delivered, [0.8, 0.6, 0.9], atol=1e-9)


# ---------------------------------------------------------------------------
# duality and optimality structure


@given(st.integers(0, 2**32 - 1))
@example(1973774220)  # flat optimum: the snap lowers D by rounding only and is kept for the routing LP
@settings(max_examples=15, deadline=None)
def test_weak_duality(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_contracts=int(rng.integers(2, 8)), n_items=int(rng.integers(2, 5)))
    sol = solve(inst, tol=1e-9)
    for _ in range(5):
        rho = rng.exponential(1.0, inst.n_contracts)
        assert solver._dual_value(inst, rho) <= sol.primal.primal_value + 1e-7 * (1.0 + abs(sol.primal.primal_value))
    assert sol.dual.dual_value <= sol.primal.primal_value + 1e-9 * (1.0 + abs(sol.primal.primal_value))


def test_multiplier_consistency_at_optimum():
    # mu_j = max_i v_ij rho_i and rho_i = min_j mu_j / v_ij at the solution
    sol = solve(mixed_instance(), tol=1e-10)
    assert sol.report.max_mu_residual <= 1e-10
    assert sol.report.max_rho_residual <= 1e-8


def test_binary_valuations_bid_at_pseudo_bid():
    # with v in {0,1} and second-price items, every priced item's bid equals
    # the highest pseudo-bid among its bidders
    rng = np.random.default_rng(3)
    items = [ItemType(f"i{j}", 1.0, Exponential(1.0 + j), "second_price") for j in range(4)]
    contracts = []
    for i in range(3):
        vals = {f"i{j}": 1.0 for j in range(4) if rng.random() < 0.7 or j == i}
        contracts.append(Contract(f"c{i}", 0.2 + 0.1 * i, vals))
    inst = build_instance(items, contracts)
    sol = solve(inst, tol=1e-10)
    assert sol.report.passed
    for j in range(inst.n_items):
        edges = inst.item_edges(j)
        if edges.size == 0:
            continue
        top = max(sol.dual.rho[inst.edge_i[e]] for e in edges)
        assert sol.primal.x[j] == pytest.approx(min(top, item_cost(inst.items[j]).bid_cap), rel=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_single_bid_mixing_never_beats_curve_cost(seed):
    # mixing several bids is never cheaper than one bid at the mixed win rate
    rng = np.random.default_rng(seed)
    curve = [Exponential(0.5 + rng.random()), BoundedUniform(1.0 + rng.random()),
             Hyperbolic(0.3 + rng.random())][int(rng.integers(3))]
    cost = AcquisitionCost(curve, "second_price")
    bids = rng.uniform(0.05, 3.0, 3)
    w = rng.dirichlet(np.ones(3))
    q_mix = float(sum(wk * cost.win_probability(b) for wk, b in zip(w, bids)))
    mix_cost = float(sum(wk * cost.expected_cost(b) for wk, b in zip(w, bids)))
    assert cost.lam(q_mix) <= mix_cost + 1e-10 * (1.0 + mix_cost)


def test_scale_invariance():
    # scaling (C, lambda) together leaves rho, mu, bids unchanged; s, R scale
    inst = mixed_instance()
    kappa = 2.7
    items = [
        ItemType(it.id, kappa * it.arrival_rate, it.curve, it.auction) for it in inst.items
    ]
    contracts = [
        Contract(c.id, kappa * c.target_rate, dict(c.valuations)) for c in inst.contracts
    ]
    scaled = build_instance(items, contracts)
    a = solve(inst, tol=1e-11)
    b = solve(scaled, tol=1e-11)
    assert np.allclose(b.dual.rho, a.dual.rho, atol=1e-7)
    assert np.allclose(b.dual.mu, a.dual.mu, atol=1e-7)
    assert np.allclose(b.primal.x, a.primal.x, atol=1e-6)
    assert np.allclose(b.primal.s, kappa * a.primal.s, rtol=1e-6)
    assert b.primal.primal_value == pytest.approx(kappa * a.primal.primal_value, rel=1e-8)


# ---------------------------------------------------------------------------
# uniform-bid special case


def test_uniform_valuations_collapse_to_one_pseudo_bid():
    # all valuations 1 on a complete bipartite graph: one bid rho* for every
    # contract, whose win rates exactly buy the total target
    items = [
        ItemType("e", 1.0, Exponential(1.5), "second_price"),
        ItemType("h", 2.0, Hyperbolic(1.0), "first_price"),
        ItemType("b", 1.0, BoundedUniform(2.0), "second_price"),
    ]
    contracts = [
        Contract("c0", 0.5, {"e": 1.0, "h": 1.0, "b": 1.0}),
        Contract("c1", 0.7, {"e": 1.0, "h": 1.0, "b": 1.0}),
    ]
    inst = build_instance(items, contracts)
    sol = solve(inst, tol=1e-11)
    rho_star = sol.dual.rho[0]
    assert np.allclose(sol.dual.rho, rho_star, atol=1e-7)
    mu = np.full(inst.n_items, rho_star)  # every item's best valuation times rho* is rho*
    assert inst.rates @ inst.groups.win_rate(mu) == pytest.approx(inst.targets.sum(), rel=1e-8)
    assert np.allclose(sol.primal.x, inst.groups.bid(mu), atol=1e-7)


# ---------------------------------------------------------------------------
# failure modes


def test_infeasible_instance_raises():
    item = ItemType("a", 1.0, BoundedUniform(1.0), "second_price")
    inst = build_instance([item], [Contract("x", 5.0, {"a": 1.0})])
    with pytest.raises(InfeasibleInstance) as exc:
        solve(inst)
    assert exc.value.check is not None and not exc.value.check


def _one_item(curve, target):
    item = ItemType("a", 1.0, curve, "second_price")
    return build_instance([item], [Contract("x", target, {"a": 1.0})])


def test_supply_below_unit_mass_is_infeasible():
    # mass 0.5: winning every auction buys 0.5 per unit time, short of 0.8
    inst = _one_item(PowerLawDensity(1.0, 1.0), 0.8)
    with pytest.raises(InfeasibleInstance) as exc:
        solve(inst)
    assert supply_certificate_holds(inst, exc.value.check.certificate, 1e-6)


def test_supply_above_unit_mass_is_usable():
    # mass 2.25 covers a target of 1.5 from one arrival per unit time
    inst = _one_item(PowerLawDensity(0.5, 3.0), 1.5)
    sol = solve(inst)
    assert sol.report.passed
    assert sol.primal.s[0] == pytest.approx(1.5, rel=1e-12)
    assert sol.primal.primal_value == pytest.approx(float(item_cost(inst.items[0]).lam(1.5)), rel=1e-12)


def test_not_converged_carries_best_iterate(monkeypatch):
    # with no master there is no snap, so the solve stays at the warm start,
    # which ignores the contention for shared items; the routing LP's one
    # verdict on it fails the solve
    verdicts = []
    routing_lp = solver._routing_lp

    def recording(inst, rho, mu, win, tol):
        verdicts.append(routing_lp(inst, rho, mu, win, tol))
        return verdicts[-1]

    def no_master(inst, best_val, best_rho, tol, stats=None):
        _, _, residual, routed = solver._snap_verdict(inst, best_val, best_rho, None, tol, stats)
        return best_val, best_rho, math.inf, residual, routed

    inst = mixed_instance()
    monkeypatch.setattr(solver, "_routing_lp", recording)
    monkeypatch.setattr(solver, "_kelley_phase", no_master)
    with pytest.raises(NotConverged) as exc:
        solve_dual(inst)
    monkeypatch.undo()
    assert len(verdicts) == 1
    assert exc.value.residual == max(verdicts[0][:3])
    best = exc.value.best
    assert isinstance(best, DualSolution)
    assert best.rho.shape == (3,)
    assert math.isfinite(best.dual_value)
    assert exc.value.residual > 0.0
    # the carried iterate is still a valid dual point: its value under an
    # independent evaluation matches, and weak duality holds against a solve
    assert solver._dual_value(inst, np.asarray(best.rho)) == pytest.approx(best.dual_value, rel=1e-12)
    ref = solve(inst, tol=1e-10)
    assert best.dual_value <= ref.primal.primal_value + 1e-9


def test_failed_routing_lp_leaves_the_solve_uncertified(monkeypatch):
    # without the routing LP's verdict no point is certified
    monkeypatch.setattr(solver, "_routing_lp", lambda inst, rho, mu, win, tol: None)
    with pytest.raises(NotConverged) as exc:
        solve_dual(mixed_instance())
    assert exc.value.best.flows is None
    assert exc.value.residual == math.inf


def test_perturbed_dual_fails_certification():
    inst = mixed_instance()
    sol = solve(inst, tol=1e-10)
    rho = sol.dual.rho.copy()
    rho[0] += 0.05
    mu = inst.mu_of(rho)
    theta = mu[inst.edge_j] - inst.edge_v * rho[inst.edge_i]
    fake = DualSolution(rho=rho, mu=mu, theta=theta, dual_value=solver._dual_value(inst, rho))
    report = certify(inst, sol.primal, fake, tol=1e-6)
    assert not report.passed


def test_tolerance_self_consistency():
    inst = mixed_instance()
    a = solve(inst, tol=1e-8)
    b = solve(inst, tol=1e-10)
    scale = 1.0 + abs(b.dual.dual_value)
    assert abs(a.dual.dual_value - b.dual.dual_value) <= 1e-7 * scale


# ---------------------------------------------------------------------------
# single solve path: draws that pin its parts


def _certifies_edgewise(sol):
    assert sol.report.passed
    assert sol.report.gap <= 1e-6
    # complementary slackness edge by edge
    assert np.max(sol.dual.theta * sol.primal.R) <= 1e-6 * (1.0 + abs(sol.primal.primal_value))


def _fuzz_instance(seed):
    """Draw `seed` of the fuzz corpus: up to 40 x 120, sparse to dense, slack down to 0.002."""
    rng = np.random.default_rng(seed)
    return random_instance(
        rng, int(rng.integers(2, 41)), int(rng.integers(2, 121)),
        edge_prob=float(rng.uniform(0.05, 0.9)), slack_margin=float(rng.uniform(0.002, 0.05)),
    )


def _test04_instance(seed):
    """Draw `seed` of test_04 (seeds 7000-7049): up to 10 x 50, edge probability 0.6."""
    rng = np.random.default_rng(seed)
    return random_instance(rng, n_contracts=int(rng.integers(1, 11)), n_items=int(rng.integers(2, 51)))


def _fresh_draw(seed):
    """A draw of the fresh-draw generator: up to 29 x 79, sparse to dense, slack down to 0.002."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 30)), int(rng.integers(2, 80))
    edge_prob, slack = float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.002, 0.05))
    return random_instance(rng, n, m, edge_prob=edge_prob, slack_margin=slack)


@pytest.mark.parametrize("seed, shape", [(30027449, (26, 40, 401)), (2979142920, (23, 35, 585))])
def test_master_goes_on_past_a_failed_gap_verdict(seed, shape, monkeypatch):
    # both draws take the lazy edge path, and their master closes its model
    # gap at a snap whose verdict fails (residuals 8.7e-5 and 0.27); the
    # master adds its tangents and goes on, in one run, until a verdict
    # certifies, without ever holding every edge column
    inst = _fresh_draw(seed)
    assert (inst.n_contracts, inst.n_items, inst.n_edges) == shape
    phases = []
    kelley = solver._kelley_phase

    def counting(*args, **kwargs):
        phases.append(args)
        return kelley(*args, **kwargs)

    monkeypatch.setattr(solver, "_kelley_phase", counting)
    sol = solve(inst)
    monkeypatch.undo()
    assert len(phases) == 1
    assert sol.stats["routing_lps"] >= 2
    assert sol.stats["master_solves"] <= 17
    assert sol.stats["master_edge_rows"] < inst.n_edges
    _certifies_edgewise(sol)


def test_fuzz_draw_84_certifies():
    # fuzz draw 84 (27 x 89, 1949 edges): its tie pattern comes from the
    # flows on the master's edge columns alone
    inst = _fuzz_instance(84)
    assert (inst.n_contracts, inst.n_items, inst.n_edges) == (27, 89, 1949)
    _certifies_edgewise(solve(inst))


@pytest.mark.slow
def test_fuzz_corpus_certifies():
    for seed in range(150):
        sol = solve(_fuzz_instance(seed))
        assert sol.report.passed, f"fuzz seed {seed}: {sol.report}"
        assert np.max(sol.dual.theta * sol.primal.R) <= 1e-6 * (1.0 + abs(sol.primal.primal_value)), seed


# ---------------------------------------------------------------------------
# cutting-plane master


def _solve_recording_master(inst, monkeypatch, tol=1e-8):
    """solve() plus its master phase's (returned value, gap, scale, model value, flows handed to
    its last snap, stop reason) in a list, the solve's stats, and its master solves and routing
    verdicts in order: "solve" per master LP solve and True or False per verdict, as it
    certified or not."""
    runs, events, stats, snapped = [], [], [], []
    kelley, routing_lp, master_solve, snap = solver._kelley_phase, solver._routing_lp, solver._MasterLP.solve, solver._snap

    def recording(inst, *args, **kwargs):
        out = kelley(inst, *args, **kwargs)
        stats.append(kwargs["stats"])  # solve_dual's own dict, which it goes on filling
        runs.append((out[0], out[2], solver._scale(inst), out[0] + out[2], snapped[-1] if snapped else None,
                     stats[-1]["master_stop"]))
        return out

    def snapping(inst, rho, flows, stats):
        snapped.append(flows)
        return snap(inst, rho, flows, stats)

    def counting(inst, rho, mu, win, tol):
        info = routing_lp(inst, rho, mu, win, tol)
        events.append(info is not None and max(info[:3]) <= tol * solver._scale(inst))
        return info

    def solving(lp, cap):
        events.append("solve")
        return master_solve(lp, cap)

    monkeypatch.setattr(solver, "_kelley_phase", recording)
    monkeypatch.setattr(solver, "_routing_lp", counting)
    monkeypatch.setattr(solver._MasterLP, "solve", solving)
    monkeypatch.setattr(solver, "_snap", snapping)
    sol = solve(inst, tol=tol, certify_tol=1e-5)
    monkeypatch.undo()
    return sol, runs, stats[-1], events


SPARSE_60X400 = pytest.param(lambda: random_sparse_instance(np.random.default_rng(1), 60, 400), id="sparse-60x400")


@pytest.mark.parametrize("make", [pytest.param(mixed_instance, id="mixed"), SPARSE_60X400])
def test_warm_master_meets_its_gap(make, monkeypatch):
    inst = make()
    tol = 1e-8
    sol, runs, _, _ = _solve_recording_master(inst, monkeypatch, tol)
    assert sol.report.passed
    assert runs
    for value, gap, scale, _, flows, stop in runs:
        assert stop in ("support", "gap", "stall")
        if stop == "gap":
            # the phase's stopping rule: model bound within reach of the best value
            assert gap <= 1e-14 * (1.0 + abs(value)) + 0.05 * tol * scale
        # the master hands its edge columns' flows to the snap
        assert flows is not None and flows.shape == (inst.n_edges,)
    # a verdict stop returns the certified point: its model value bounds that D
    _assert_model_bounds_dual(sol, runs)


def _assert_model_bounds_dual(sol, runs):
    # lazy edge cuts only relax the master LP, so its model value stays an
    # upper bound on the certified dual optimum
    d = sol.dual.dual_value
    for _, _, _, bound, _, _ in runs:
        assert bound >= d - 1e-12 * (1.0 + abs(d))


def test_lazy_master_model_bounds_the_fuzz_duals(monkeypatch):
    for seed in range(0, 150, 10):
        sol, runs, stats, events = _solve_recording_master(_fuzz_instance(seed), monkeypatch)
        assert sol.report.passed, seed
        _assert_model_bounds_dual(sol, runs)
        verdicts = [e for e in events if e != "solve"]
        assert len(verdicts) == stats["routing_lps"] >= 1, seed
        # a verdict decides, it does not search: a failed one only lets the
        # master go on, and the solve ends on the verdict that certifies
        assert events[-1] is True, seed
        for e, after in zip(events, events[1:]):
            if e is False:
                assert after == "solve", seed


def test_draws_judged_more_than_once_certify(monkeypatch):
    # a failed verdict inside the master costs one routing LP and the master
    # goes on: test_04's draw 7001 (census index 1) takes 2 verdicts
    inst = _test04_instance(7001)
    sol, _, stats, events = _solve_recording_master(inst, monkeypatch)
    assert stats["routing_lps"] >= 2
    assert stats["master_stop"] in ("support", "gap", "stall")
    assert events.count(False) == stats["routing_lps"] - 1
    _certifies_edgewise(sol)


def test_a_snap_below_the_point_it_left_is_judged_and_certifies(monkeypatch):
    # a snap is judged by the routing LP whatever its D: on test_04's draw
    # 7024 (census index 24) some snap lands below the value of the point it
    # was handed, and the solve still certifies
    inst = _test04_instance(7024)
    drops = []
    snap = solver._snap

    def snapping(inst, rho, flows, stats):
        value, snapped, mu, win = snap(inst, rho, flows, stats)
        handed = solver._dual_value(inst, rho)
        drops.append((handed - value) / (1.0 + abs(handed)))
        return value, snapped, mu, win

    monkeypatch.setattr(solver, "_snap", snapping)
    sol = solve(inst)
    monkeypatch.undo()
    assert max(drops) > 1e-12
    _certifies_edgewise(sol)


def test_near_tight_routing_lp_matches_the_full_one():
    # at a certified point the routing LP over the near-tight edges reaches
    # the shortfall, theta-cost and slack value of the one over every edge
    for seed in range(0, 150, 10):
        inst = _fuzz_instance(seed)
        rho = np.asarray(solve_dual(inst).rho, dtype=float)
        mu = inst.mu_of(rho)
        win = inst.groups.win_rate(mu)
        tight = solver._routing_lp(inst, rho, mu, win, 1e-8)
        full = solver._routing_lp(inst, rho, mu, win, math.inf)
        for a, b in zip(tight[:3], full[:3]):
            assert abs(a - b) <= 1e-12, seed


@pytest.mark.parametrize("seed", [1, 18, 19, 20, 29])
def test_box_pressing_rounds_add_tangents(seed, monkeypatch):
    # from the raw warm start the master's first iterates press the rho box;
    # a round that only widens the box must still add the tangents at the
    # LP's point, or the box widens x100 a round until HiGHS finds the model
    # unbounded and the phase ends with gap = inf.  No verdict certifies
    # here, and a failed one only lets the master add its tangents and go
    # on, so the phase runs its whole budget with no LP failure, its model
    # gap closed
    inst = _fuzz_instance(seed)
    warm = solver._warm_start(inst, {})
    monkeypatch.setattr(solver, "_snap_verdict", lambda inst, val, rho, flows, tol, stats: (val, rho, math.inf, None))
    stats = {}
    value, _, gap, *_ = solver._kelley_phase(inst, solver._dual_value(inst, warm), warm, 1e-8, stats)
    assert stats["master_solves"] == solver._MASTER_SOLVES
    assert stats["master_stop"] == "budget"
    assert math.isfinite(gap) and gap <= 1e-6 * (1.0 + abs(value))


@pytest.mark.parametrize("seed", [1, 18, 19, 20, 29])
def test_box_pressing_master_stops_on_a_certifying_verdict(seed):
    # the same phases with their verdicts: each ends on one that certifies
    # its snap, whose value the master's model value still bounds
    inst = _fuzz_instance(seed)
    warm = solver._warm_start(inst, {})
    stats = {}
    value, _, gap, residual, routed = solver._kelley_phase(inst, solver._dual_value(inst, warm), warm, 1e-8, stats)
    assert stats["master_solves"] > 0
    assert stats["master_stop"] in ("support", "gap", "stall")
    assert residual <= 1e-8 * solver._scale(inst) and routed is not None
    assert math.isfinite(gap) and gap >= -1e-12 * (1.0 + abs(value))


def _kelley_recording_solves(inst, monkeypatch, deleted=None):
    """_kelley_phase from the warm start, per optimal master solve (rho, box,
    model rows, model columns, cuts, column values, model value), and the
    flows handed to the phase's last snap.

    Each column the master deletes is appended to `deleted` as (its kind:
    "z", "edge" or "tangent", the reduced costs it had at the solves it was
    in, oldest first).
    """
    solved, snapped = [], []
    kinds, history = [], []  # per column of the model, its kind and its reduced costs
    master, snap = solver._MasterLP, solver._snap
    master_solve, add_cols, prune = master.solve, master.add_cols, master.prune

    def adding(lp, cost, rows, vals, edges):
        if not kinds:
            kinds.extend(["z"] * lp.n)
            history.extend([] for _ in range(lp.n))
        kinds.extend(np.where(edges >= 0, "edge", "tangent").tolist())
        history.extend([] for _ in edges)
        return add_cols(lp, cost, rows, vals, edges)

    def pruning(lp, nonbasic):
        for past, d in zip(history, lp.highs.getSolution().col_dual):
            past.append(d)
        gone = prune(lp, nonbasic)
        for c in gone[::-1].tolist():
            if deleted is not None:
                deleted.append((kinds[c], history[c]))
            del kinds[c], history[c]
        return gone

    def recording(lp, cap):
        dual, model, ok = master_solve(lp, cap)
        if ok:
            solved.append((dual[: inst.n_contracts].copy(), cap, lp.highs.getNumRow(), lp.highs.getNumCol(),
                           lp.cuts, lp.col_value, model))
        return dual, model, ok

    def snapping(inst, rho, flows, stats):
        snapped.append(flows)
        return snap(inst, rho, flows, stats)

    monkeypatch.setattr(master, "solve", recording)
    monkeypatch.setattr(solver, "_snap", snapping)
    monkeypatch.setattr(master, "add_cols", adding)
    monkeypatch.setattr(master, "prune", pruning)
    warm = solver._warm_start(inst, {})
    out = solver._kelley_phase(inst, solver._dual_value(inst, warm), warm, 1e-8, {})
    monkeypatch.undo()
    return out, solved, snapped[-1]


@pytest.mark.parametrize("make", [pytest.param(mixed_instance, id="mixed"), SPARSE_60X400])
def test_master_edge_columns_route_the_targets(make, monkeypatch):
    # Dantzig-Wolfe reading of the master: a contract whose pseudo-bid (its
    # row's dual) is strictly inside the box has a binding row, so the flows
    # on the edge columns deliver exactly its target
    inst = make()
    _, solved, flows = _kelley_recording_solves(inst, monkeypatch)
    rho, cap, *_ = solved[-1]
    assert np.all(flows >= 0.0)
    delivered = np.bincount(inst.edge_i, inst.edge_v * flows, minlength=inst.n_contracts)
    inner = (rho > 0.0) & (rho < cap)
    assert inner.any()
    assert np.all(np.abs(delivered - inst.targets)[inner] <= 1e-9 * (1.0 + inst.targets[inner]))


@pytest.mark.parametrize("make", [pytest.param(lambda: _test04_instance(7007), id="draw-7007"), SPARSE_60X400])
def test_master_holds_cuts_as_columns(make, monkeypatch):
    # the master's rows are fixed: n contract rows and two rows per item with
    # an edge; every tangent and edge cut is a column, besides one z_i per
    # contract.  test_04's draw 7007 (6 x 7, both auctions, 27 edges) starts
    # from every edge column and the 60 x 400 draw generates them lazily;
    # both delete tangents
    inst = make()
    m2 = int(inst.item_major[2].sum())
    deleted = []
    _, solved, flows = _kelley_recording_solves(inst, monkeypatch, deleted)
    assert len(solved) >= 2
    for _, _, rows, cols, cuts, x, _ in solved:
        assert rows == inst.n_contracts + 2 * m2
        assert cols == inst.n_contracts + cuts == x.size
        # every column value, the flows among them, is nonnegative
        assert np.all(x >= 0.0)
    # columns are only added or deleted at weight 0, so at a fixed box the
    # model value never rises from one solve to the next
    for (_, cap, *_, model), (_, next_cap, *_, next_model) in zip(solved, solved[1:]):
        if next_cap == cap:
            assert next_model <= model + 1e-13 * (1.0 + abs(model))
    # only tangent columns are deleted, each after its last solves found it nonbasic
    assert deleted
    for kind, reduced in deleted:
        assert kind == "tangent"
        assert len(reduced) >= solver._PRUNE_AFTER >= 2 and min(reduced[-solver._PRUNE_AFTER:]) > 0.0
    # the flows handed to the snap are the last optimal solve's column values, copied
    assert flows.any() and np.all(np.isin(flows[flows > 0.0], solved[-1][5]))


def test_master_box_is_the_contract_columns_cost():
    # with no cut yet a contract is priced only by its z column, so its
    # pseudo-bid sits on the box, and widening the box reprices that column
    lp = solver._MasterLP(np.array([0.5, 2.0]), np.array([1.0]), 10.0)
    for cap in (10.0, 1000.0):
        dual, model, ok = lp.solve(cap)
        assert ok
        assert np.array_equal(dual[:2], [cap, cap])
        assert model == pytest.approx(2.5 * cap, rel=1e-15)


def test_master_widens_a_box_its_iterates_press(monkeypatch):
    # two contracts share one Hyperbolic(1) item and together ask for
    # 0.99998 of its wins: the pseudo-bid W^{-1}(0.99998) = 49,999 lies far
    # above the first box (1e4 (1 + the warm start's largest rho)), so the
    # master presses it and widens it by 100, twice, before the solve certifies
    inst = build_instance([ItemType("a", 1.0, Hyperbolic(1.0), "second_price")],
                          [Contract("c1", 0.49999, {"a": 1.0}), Contract("c2", 0.49999, {"a": 1.0})])
    caps = []
    master_solve = solver._MasterLP.solve

    def recording(lp, cap):
        caps.append(cap)
        return master_solve(lp, cap)

    monkeypatch.setattr(solver._MasterLP, "solve", recording)
    sol = solve(inst)
    assert sol.report.passed
    assert caps == sorted(caps)  # the box only widens
    widths = sorted(set(caps))
    assert len(widths) == 3 and 1e4 < widths[0] < 1e5
    assert widths[1:] == pytest.approx([100.0 * widths[0], 1e4 * widths[0]], rel=1e-12)
    # W^{-1}(0.99998) = 0.99998 / (1 - 0.99998), a difference that keeps about 11 digits
    assert sol.dual.rho == pytest.approx(np.full(2, 49_999.0), rel=1e-10)


def test_master_generates_few_edge_rows():
    # delayed column generation: most of the 3661 edge cuts never bind, so
    # their columns never enter the master LP
    inst = random_sparse_instance(np.random.default_rng(1), 60, 400)
    stats = {}
    dual = solve_dual(inst, stats=stats)
    assert stats["master_edge_rows"] <= inst.n_edges // 2
    # 4.26 edges per master row: above _ALL_EDGES_PER_ROW, so the lazy path
    assert inst.n_edges > solver._ALL_EDGES_PER_ROW * (inst.n_contracts + 2 * int(inst.item_major[2].sum()))
    assert (stats["master_edge_rows"], stats["master_solves"]) == (940, 11)
    assert dual.dual_value == 3.5856545039489536
    # every solve holds the edge cuts plus at most one tangent block of 400 cuts per round
    assert stats["master_rows_max"] < inst.n_edges + 400 * stats["master_solves"]


def test_master_starts_from_every_edge_on_mixed_pipeline():
    # the benchmark's mixed-pipeline instances have 1.56, 1.84 and 2.27 edges
    # per master row, so the master holds every edge column from its first
    # solve and spends no solve finding edges
    solves = 0
    for _, inst in mixed_pipeline():
        stats = {}
        solve_dual(inst, stats=stats)
        assert stats["master_edge_rows"] == inst.n_edges
        solves += stats["master_solves"]
    assert solves <= 13  # 21 with the edge columns generated lazily


def test_master_deletes_tangents_that_stay_nonbasic(monkeypatch):
    # without deletion the 60 x 400 master grows to 7,340 cuts over its 13
    # solves; deleting the tangents that stay nonbasic holds it under half that
    inst = random_sparse_instance(np.random.default_rng(1), 60, 400)
    stats = {}
    solve_dual(inst, stats=stats)
    monkeypatch.setattr(solver, "_PRUNE_AFTER", solver._MASTER_SOLVES + 1)
    unpruned = {}
    solve_dual(inst, stats=unpruned)
    assert unpruned["master_cols_pruned"] == 0 < stats["master_cols_pruned"]
    assert stats["master_rows_max"] <= unpruned["master_rows_max"] // 2


def test_fuzz_draw_137_certifies_with_a_pruned_master():
    # fuzz draw 137 (21 x 104) snaps onto a wrong tie pattern (residual
    # 1.5e-3) when tangents are deleted after two nonbasic solves
    inst = _fuzz_instance(137)
    stats = {}
    solve_dual(inst, stats=stats)
    assert stats["master_cols_pruned"] > 0
    _certifies_edgewise(solve(inst))


def test_installed_scipy_uses_warm_master():
    stats = {}
    solve_dual(mixed_instance(), stats=stats)
    assert stats["master_solves"] >= 1


@pytest.mark.parametrize("make", [pytest.param(mixed_instance, id="mixed"), SPARSE_60X400])
def test_stats_count_every_lp(make):
    # the HiGHS layer counts every LP of the solve: each solve of the priced
    # feasibility LP, each master solve and each routing verdict
    stats = {}
    solve_dual(make(), stats=stats)
    assert stats["master_solves"] >= 1 and stats["supply_lp_rounds"] >= 1
    assert stats["lp_solves"] == stats["master_solves"] + stats["routing_lps"] + stats["supply_lp_rounds"]
    assert stats["lp_simplex_iterations"] >= stats["master_simplex_iterations"]


def test_stats_count_tie_roots():
    # every batch of tie components evaluates its balance at least once
    stats = {}
    solve_dual(mixed_instance(), stats=stats)
    assert stats["tie_root_calls"] >= 1
    assert stats["tie_root_evals"] >= stats["tie_root_calls"]


def test_tie_roots_take_newton_steps_on_mixed_pipeline():
    # the warm start and the snap each take one batched root: 13, 13 and 11
    # balance evaluations per solve with Newton steps, 19, 21 and 19 with
    # doubling and Illinois steps alone
    for _, inst in mixed_pipeline():
        stats = {}
        solve_dual(inst, stats=stats)
        assert stats["tie_root_calls"] == 2
        assert stats["tie_root_evals"] <= 13


def test_solution_keeps_the_solve_counters_read_only():
    inst = mixed_instance()
    stats = {}
    solve_dual(inst, stats=stats)
    sol = solve(inst)
    assert dict(sol.stats) == stats
    assert sol.iterations == sol.stats["master_solves"]
    with pytest.raises(TypeError):
        sol.stats["master_solves"] = 0
    # the JSON document does not carry them, so a solution read back has none
    doc = solution_to_json(inst, sol)
    assert set(doc) == {"rho", "mu", "bids", "s", "R", "gap", "iters", "eps_active"}
    assert dict(solution_from_json(inst, doc).stats) == {}


# ---------------------------------------------------------------------------
# kernels against the reference cost objects (dual-route check)


KERNEL_CASES = [
    (Exponential(0.7), "second_price"),
    (Exponential(1.3), "first_price"),
    (Hyperbolic(0.6), "second_price"),
    (Hyperbolic(0.6), "first_price"),
    (BoundedUniform(2.5), "second_price"),
    (BoundedUniform(2.5), "first_price"),
    (PowerLawDensity(0.9, 1.8), "second_price"),
    (PowerLawDensity(0.9, 1.8), "first_price"),
    (Empirical([(0.5, 0.4), (1.5, 0.8), (3.0, 1.0)]), "second_price"),
    (Empirical([(0.5, 0.4), (1.5, 0.8), (3.0, 1.0)]), "first_price"),
]


@pytest.mark.parametrize("curve,kind", KERNEL_CASES)
def test_vectorized_kernels_match_cost_objects(curve, kind):
    item = ItemType("a", 1.0, curve, kind)
    inst = build_instance([item], [Contract("x", 0.1, {"a": 1.0})])
    groups = inst.groups
    cost = item_cost(item)
    for mu in [0.0, 0.05, 0.3, 0.9, 1.7, 4.0, 25.0]:
        conj, win = groups.conj_win(np.array([mu]))
        assert conj[0] == pytest.approx(cost.conjugate(mu), rel=1e-10, abs=1e-12)
        assert win[0] == pytest.approx(cost.win_probability(mu), rel=1e-10, abs=1e-12)
        # the win-only evaluation is the same arithmetic, bit for bit
        assert groups.win_rate(np.array([mu]))[0] == win[0]


@pytest.mark.parametrize("curve,kind", KERNEL_CASES)
def test_win_slope_pass_is_the_win_rate_and_its_derivative(curve, kind):
    # one pass gives the win rate, bit for bit, and its derivative in mu,
    # against a central difference wherever the two one-sided differences
    # agree (away from the kinks: bounded supports, empirical knots and the
    # jumps of an empirical first-price win rate)
    mu = np.geomspace(0.01, 30.0, 241)
    inst = build_instance([ItemType("a", 1.0, curve, kind)], [Contract("x", 0.1, {"a": 1.0})])
    groups = inst.groups.take(np.zeros(mu.size, dtype=int))  # the one item at every price
    win, slope = groups.win_slope(mu)
    assert np.array_equal(win, groups.win_rate(mu))
    h = 1e-6 * mu
    up, down = groups.win_rate(mu + h), groups.win_rate(mu - h)
    noise = 8.0 * np.finfo(float).eps * (up + down) / h  # rounding of W, carried into the differences
    smooth = np.abs((up - win) - (win - down)) <= 1e-3 * (up - down) + noise
    assert smooth.sum() >= 0.8 * mu.size
    central = (up - down) / (2.0 * h)
    assert np.all(np.abs(central - slope)[smooth] <= (1e-6 * np.abs(slope) + noise)[smooth])


@pytest.mark.parametrize("make", [pytest.param(mixed_instance, id="mixed"),
                                  pytest.param(lambda: mixed_pipeline()[0][1], id="mixed-11")])
def test_grouped_kernels_take_every_row_of_a_price_array(make):
    # the master's starting tangent ladder, f mu for four f, in one pass:
    # the same values, bit for bit, as one pass per row
    inst = make()
    mu = np.multiply.outer([0.5, 1.0, 2.0, 8.0], inst.mu_of(np.linspace(0.5, 2.0, inst.n_contracts)))
    conj, win = inst.groups.conj_win(mu)
    for row, c, w in zip(mu, conj, win):
        assert all(map(np.array_equal, (c, w), inst.groups.conj_win(row)))


def test_tie_roots_match_brentq_per_component():
    # one batch of components mixing every family under both auctions and an
    # empirical curve, each root against a scalar brentq over the cost
    # objects; the last component's demand meets its supply cap, so it gets
    # no update
    emp = Empirical([(0.5, 0.4), (1.5, 0.8), (3.0, 1.0)])
    parts = [
        [(Exponential(0.7), "second_price", 1.0), (Hyperbolic(0.6), "first_price", 0.8),
         (BoundedUniform(2.5), "second_price", 1.3)],
        [(Hyperbolic(1.4), "second_price", 0.9), (PowerLawDensity(0.9, 1.8), "first_price", 1.1),
         (emp, "first_price", 0.7)],
        [(Exponential(1.3), "first_price", 1.2), (BoundedUniform(1.5), "first_price", 0.6),
         (PowerLawDensity(0.4, 2.0), "second_price", 1.0), (emp, "second_price", 0.5)],
        [(BoundedUniform(2.0), "second_price", 1.0), (Exponential(2.0), "first_price", 0.4)],
    ]
    items, contracts, item_comp, slope = [], [], [], []
    for k, part in enumerate(parts):
        vals, cap = {}, 0.0
        for curve, kind, v in part:
            j = len(items)
            items.append(ItemType(f"i{j}", 1.0 + 0.1 * j, curve, kind))
            vals[f"i{j}"] = v
            cap += (1.0 + 0.1 * j) * v * curve.total_mass
            item_comp.append(k)
            slope.append(v)
        contracts.append(Contract(f"c{k}", cap if k == 3 else 0.6 * cap, vals))
    inst = build_instance(items, contracts)
    comps = (np.arange(4), np.ones(4), np.array(item_comp), np.array(slope))
    updates = solver._component_updates(inst, np.ones(4), comps, {})
    assert [idx.tolist() for idx, _ in updates] == [[0], [1], [2]]
    for idx, vals in updates:
        k = int(idx[0])
        terms = [(it.arrival_rate * v, item_cost(it), v)
                 for it, v, c in zip(inst.items, slope, item_comp) if c == k]

        def balance(t):
            return inst.targets[k] - sum(lv * cost.win_probability(v * t) for lv, cost, v in terms)

        hi = 1.0
        while balance(hi) >= 0.0:
            hi *= 2.0
        ref = brentq(balance, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
        assert vals[0] == pytest.approx(ref, rel=1e-13)


NEWTON_RATES = [0.05, 0.3, 1.0, 1.3, 2.0, 3.0, 7.5, 40.0]
NEWTON_MUS = [1e-9, 1e-6, 1e-3, 0.1, 0.7, 1.0, 2.5, 10.0, 100.0, 1e4, 1e8, 1e12, 1e16, 1e20, 1e30, 1e50]


def _exp_first_bid_60_digits(rate, mu):
    """Root of x + (e^{rate x} - 1)/rate = mu to 60 digits, rounded to a float.

    The residual is taken relative to mu, so the root is pinned to 60 digits
    at every scale of mu.
    """
    with mpmath.workdps(60):
        g, m = mpmath.mpf(rate), mpmath.mpf(mu)
        x0 = mpmath.log(mpmath.lambertw(mpmath.exp(1 + g * m)).real) / g
        return float(mpmath.findroot(lambda x: (x + mpmath.expm1(g * x) / g) / m - 1, x0))


def test_vectorized_exponential_newton_stops_at_the_root(monkeypatch):
    # all (rate, mu) pairs in one formula call, as for a group of items: the
    # closed form plus its two Newton steps
    rate, mu = (a.ravel() for a in np.meshgrid(NEWTON_RATES, NEWTON_MUS))
    calls = []
    exp, expm1 = np.exp, np.expm1
    monkeypatch.setattr(np, "exp", lambda v: calls.append(1) or exp(v))
    monkeypatch.setattr(np, "expm1", lambda v: calls.append(1) or expm1(v))
    x = Exponential.bid(mu, rate)
    monkeypatch.undo()
    assert len(calls) <= 2
    ref = [_exp_first_bid_60_digits(r, m) for r, m in zip(rate, mu)]
    np.testing.assert_array_max_ulp(x, ref, maxulp=2)


def test_vectorized_hyperbolic_bid_keeps_its_digits():
    # c (sqrt(1 + mu/c) - 1) cancels at small mu/c (8e-4 relative at
    # mu = 1e-12); the bid formula must not
    scale, mu = (a.ravel() for a in np.meshgrid([0.05, 0.4, 1.0, 2.5, 40.0], [1e-12, 1e-9, *NEWTON_MUS[1:]]))
    x = Hyperbolic.bid(mu, scale)
    with mpmath.workdps(50):
        ref = [float(mpmath.mpf(c) * (mpmath.sqrt(1 + mpmath.mpf(m) / c) - 1)) for c, m in zip(scale, mu)]
    np.testing.assert_array_max_ulp(x, ref, maxulp=2)


def test_empirical_curve_goes_through_fallback():
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(0.1, 2.0, 40))
    emp = Empirical(list(zip(xs, np.linspace(1.0 / 40, 1.0, 40))))
    items = [
        ItemType("m", 1.0, emp, "second_price"),
        ItemType("e", 1.0, Exponential(1.0), "second_price"),
    ]
    contracts = [Contract("c", 0.6, {"m": 1.0, "e": 0.8})]
    inst = build_instance(items, contracts)
    sol = solve(inst, tol=1e-9)
    assert sol.report.passed


# ---------------------------------------------------------------------------
# recovery and serialization


def test_recover_primal_without_flows():
    # a dual that carries no flows (read back from JSON, built by hand) is
    # routed by one routing LP at its rho: the same LP that certified it
    inst = mixed_instance()
    dual = solve_dual(inst, tol=1e-10)
    assert dual.flows is not None
    with_flows = recover_primal(inst, dual)
    primal = recover_primal(inst, dataclasses.replace(dual, flows=None))
    np.testing.assert_array_equal(primal.R, with_flows.R)
    assert certify(inst, primal, dual).passed
    assert np.all(primal.R >= 0.0)
    # gamma sums to at most one per item
    g = np.zeros(inst.n_items)
    np.add.at(g, inst.edge_j, primal.gamma)
    assert np.all(g <= 1.0 + 1e-9)


grouped_cases = pytest.mark.parametrize("make", [
    mixed_instance,
    lambda: build_instance(
        [ItemType("m", 1.0, Empirical([(0.5, 0.4), (1.5, 0.8), (3.0, 1.0)]), "first_price"),
         ItemType("e", 1.0, Exponential(1.3), "first_price")],
        [Contract("c", 0.5, {"m": 1.0, "e": 0.6})],
    ),
], ids=["mixed", "empirical-first-price"])


@grouped_cases
def test_grouped_bids_match_per_item_inverse(make):
    inst = make()
    for mu in np.geomspace(1e-3, 50.0, 25):
        mus = mu * np.linspace(0.5, 1.5, inst.n_items)
        ref = [cost.bid_mapping_inverse(min(m, cost.bid_cap)) for m, cost in zip(mus, map(item_cost, inst.items))]
        np.testing.assert_array_max_ulp(inst.groups.bid(mus), ref, maxulp=1)


@grouped_cases
def test_grouped_spend_matches_per_item_lam(make):
    # the per-item reference: lambda_j lam_j(q_j) summed over items with
    # s_j > 0, each q_j clamped just below the curve's mass
    inst = make()
    ramp = np.linspace(0.1, 0.9, inst.n_items)
    for s in (np.zeros(inst.n_items), ramp * inst.capacities, np.where(ramp < 0.5, -ramp, 1.5) * inst.capacities):
        ref = sum(lam * float(cost.lam(min(sj / lam, cost.total_mass * (1.0 - 1e-12))))
                  for sj, lam, cost in zip(s, inst.rates, map(item_cost, inst.items)) if sj > 0.0)
        assert solver._spend_rate(inst, s) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_recover_primal_without_flows_fails_when_routing_fails(monkeypatch):
    inst = mixed_instance()
    dual = dataclasses.replace(solve_dual(inst, tol=1e-10), flows=None)
    monkeypatch.setattr(solver, "_routing_lp", lambda inst, rho, mu, win, tol: None)
    with pytest.raises(NotConverged):
        recover_primal(inst, dual)


def test_recover_primal_reuses_the_certifying_flows(monkeypatch):
    # solve_dual's dual carries the flows of the LP that certified it, so
    # recovery solves no LP of its own
    inst = mixed_instance()
    dual = solve_dual(inst, tol=1e-10)

    def no_lp(*args, **kwargs):
        raise AssertionError("recover_primal solved an LP")

    monkeypatch.setattr(solver, "_transport_lp", no_lp)
    solves = model._lp_work["solves"]
    assert certify(inst, recover_primal(inst, dual), dual).passed
    assert model._lp_work["solves"] == solves


def test_solution_json_round_trip(tmp_path):
    inst = mixed_instance()
    sol = solve(inst, tol=1e-10)
    blob = json.dumps(solution_to_json(inst, sol))
    back = solution_from_json(inst, json.loads(blob))
    assert back.report.gap == pytest.approx(sol.report.gap, abs=1e-12)
    assert back.report.passed
    assert np.allclose(back.primal.s, sol.primal.s, atol=1e-12)
    assert back.dual.dual_value == pytest.approx(sol.dual.dual_value, rel=1e-12)


def test_solution_json_recomputes_eps_active():
    # a document's eps_active is derived, so a tampered one is not read back
    inst = random_instance(np.random.default_rng(3), 4, 6)
    sol = solve(inst)
    obj = solution_to_json(inst, sol)
    obj["eps_active"] = 123.0
    back = solution_from_json(inst, obj)
    assert back.report.passed
    assert back.eps_active == sol.eps_active == float(np.max(back.dual.theta[back.primal.R > 0.0], initial=0.0))


def test_solution_json_rejects_foreign_edges():
    inst = mixed_instance()
    sol = solve(inst, tol=1e-9)
    obj = solution_to_json(inst, sol)
    obj["R"].append(["c0", "p", 0.1])  # c0 does not value item p
    with pytest.raises(ValueError):
        solution_from_json(inst, obj)


def test_certificate_csv(tmp_path):
    inst = scalar_instance()
    sol = solve(inst, tol=1e-10)
    path = tmp_path / "report.csv"
    sol.report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "metric"
    # header + metric rows + trailing overall "passed" row
    assert len(lines) == 2 + len(sol.report.rows())
    assert lines[-1].startswith("passed,1")


# ---------------------------------------------------------------------------
# randomized end-to-end


@given(st.integers(0, 2**32 - 1))
@example(2497590332)  # the master's vertex is 9e-7 off stationarity; the snap from its duals certifies
@example(100150)  # the master's vertex is 7e-7 off stationarity; the snap from its duals certifies
@settings(max_examples=10, deadline=None)
def test_random_instances_certify(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n_contracts=int(rng.integers(2, 12)), n_items=int(rng.integers(2, 6))
    )
    _certifies_edgewise(solve(inst, tol=1e-9))
