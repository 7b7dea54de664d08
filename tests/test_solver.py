import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bidopt.costs import AcquisitionCost
from bidopt.curves import BoundedUniform, Empirical, Exponential, Hyperbolic, PowerLawDensity
from bidopt import solver
from bidopt.model import Contract, ItemType, build_instance, random_instance, random_sparse_instance
from bidopt.solver import (
    DualSolution,
    InfeasibleInstance,
    NotConverged,
    PreconditionViolated,
    _ItemKernels,
    _Workspace,
    certify,
    recover_primal,
    solution_from_json,
    solution_to_json,
    solve,
    solve_dual,
    solve_uniform_bid,
)


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
@example(1973774220)  # flat optimum: the cut step is placed by the directional derivative
@settings(max_examples=15, deadline=None)
def test_weak_duality(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_contracts=int(rng.integers(2, 8)), n_items=int(rng.integers(2, 5)))
    sol = solve(inst, tol=1e-9)
    ws = _Workspace(inst)
    for _ in range(5):
        rho = rng.exponential(1.0, inst.n_contracts)
        assert ws.value(rho) <= sol.primal.primal_value + 1e-7 * (1.0 + abs(sol.primal.primal_value))
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
        assert sol.primal.x[j] == pytest.approx(min(top, inst.items[j].cost.bid_cap), rel=1e-9)


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


def test_uniform_bid_matches_general_solver():
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
    rho_star, primal = solve_uniform_bid(inst)
    sol = solve(inst, tol=1e-11)
    # all pseudo-bids collapse to the single root
    assert np.allclose(sol.dual.rho, rho_star, atol=1e-7)
    assert sol.primal.primal_value == pytest.approx(primal.primal_value, rel=1e-8)
    assert np.allclose(primal.x, sol.primal.x, atol=1e-7)


def test_uniform_bid_preconditions():
    inst = mixed_instance()  # not complete bipartite, valuations != 1
    with pytest.raises(PreconditionViolated):
        solve_uniform_bid(inst)


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
    assert exc.value.check.certificate.verify(inst, 1e-6)


def test_supply_above_unit_mass_is_usable():
    # mass 2.25 covers a target of 1.5 from one arrival per unit time
    inst = _one_item(PowerLawDensity(0.5, 3.0), 1.5)
    sol = solve(inst)
    assert sol.report.passed
    assert sol.primal.s[0] == pytest.approx(1.5, rel=1e-12)
    assert sol.primal.primal_value == pytest.approx(float(inst.items[0].cost.lam(1.5)), rel=1e-12)


def test_not_converged_carries_best_iterate(monkeypatch):
    # with every move refused and no master, the solve stays at the warm
    # start, which ignores the contention for shared items
    def refuse(ws, best_val, best_rho, *args, **kwargs):
        return best_val, best_rho, False

    inst = mixed_instance()
    monkeypatch.setattr(solver, "_accept_updates", refuse)
    monkeypatch.setattr(solver, "_cut_line_search", refuse)
    with pytest.raises(NotConverged) as exc:
        solve_dual(inst, max_iter=0)
    monkeypatch.undo()
    best = exc.value.best
    assert isinstance(best, DualSolution)
    assert best.rho.shape == (3,)
    assert math.isfinite(best.dual_value)
    assert exc.value.residual > 0.0
    # the carried iterate is still a valid dual point: its value under an
    # independent evaluation matches, and weak duality holds against a solve
    ws = _Workspace(inst)
    assert ws.value(np.asarray(best.rho)) == pytest.approx(best.dual_value, rel=1e-12)
    ref = solve(inst, tol=1e-10)
    assert best.dual_value <= ref.primal.primal_value + 1e-9


def test_perturbed_dual_fails_certification():
    inst = mixed_instance()
    sol = solve(inst, tol=1e-10)
    rho = sol.dual.rho.copy()
    rho[0] += 0.05
    ws = _Workspace(inst)
    mu = ws.mu_of(rho)
    theta = mu[inst.edge_j] - inst.edge_v * rho[inst.edge_i]
    fake = DualSolution(rho=rho, mu=mu, theta=theta, dual_value=ws.value(rho))
    report = certify(inst, sol.primal, fake, tol=1e-6)
    assert not report.passed


def test_tolerance_self_consistency():
    inst = mixed_instance()
    a = solve(inst, tol=1e-8)
    b = solve(inst, tol=1e-10)
    scale = 1.0 + abs(b.dual.dual_value)
    assert abs(a.dual.dual_value - b.dual.dual_value) <= 1e-7 * scale


def test_max_iter_budgets_the_master():
    # each master LP solve spends one unit of max_iter; the unbudgeted
    # master takes more than two solves on this instance
    full, capped = {}, {}
    solve_dual(mixed_instance(), stats=full)
    solve_dual(mixed_instance(), max_iter=2, stats=capped)
    assert full["master_solves"] > 2
    assert full["iterations"] == full["master_solves"]
    assert capped["master_solves"] == capped["iterations"] == 2


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


def test_pre_master_polish_draw_certifies():
    # fuzz draw 84 (27 x 89, 1949 edges) needs the tie polish before the master
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
# cutting-plane master: warm HiGHS model against the linprog fallback


def _solve_recording_master(inst, monkeypatch, tol=1e-8):
    """solve() plus the gap and best value of every master phase it ran."""
    runs = []
    kelley = solver._kelley_phase

    def recording(ws, *args, **kwargs):
        out = kelley(ws, *args, **kwargs)
        runs.append((out[0], out[2], ws.scale))
        return out

    monkeypatch.setattr(solver, "_kelley_phase", recording)
    sol = solve(inst, tol=tol, certify_tol=1e-5)
    monkeypatch.setattr(solver, "_kelley_phase", kelley)
    return sol, runs


@pytest.mark.parametrize("make", [
    mixed_instance,
    lambda: random_sparse_instance(np.random.default_rng(1), 60, 400),
], ids=["mixed", "sparse-60x400"])
def test_master_backends_agree(make, monkeypatch):
    inst = make()
    tol = 1e-8
    warm, warm_runs = _solve_recording_master(inst, monkeypatch, tol)
    monkeypatch.setattr(solver, "_Highs", None)
    cold, cold_runs = _solve_recording_master(inst, monkeypatch, tol)
    assert warm.report.passed and cold.report.passed
    assert warm.dual.dual_value == pytest.approx(cold.dual.dual_value, rel=1e-9)
    assert warm_runs and cold_runs
    for value, gap, scale in warm_runs + cold_runs:
        # the phase's stopping rule: model bound within reach of the best value
        assert gap <= 1e-14 * (1.0 + abs(value)) + 0.05 * tol * scale


def test_installed_scipy_uses_warm_master():
    # scipy's HiGHS binding is private API; a scipy that drops it would
    # silently bring back the cold linprog solves
    assert solver._Highs is not None
    stats = {}
    solve_dual(mixed_instance(), stats=stats)
    assert stats["master_backend"] == "highs"
    assert stats["master_solves"] >= 1
    assert stats["iterations"] >= stats["master_solves"]


def test_stats_count_tie_roots():
    # every batch of tie components evaluates its balance at least once
    stats = {}
    solve_dual(mixed_instance(), stats=stats)
    assert stats["tie_root_calls"] >= 1
    assert stats["tie_root_evals"] >= stats["tie_root_calls"]


# ---------------------------------------------------------------------------
# kernels against the reference cost objects (dual-route check)


@pytest.mark.parametrize("curve,kind", [
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
])
def test_vectorized_kernels_match_cost_objects(curve, kind):
    item = ItemType("a", 1.0, curve, kind)
    inst = build_instance([item], [Contract("x", 0.1, {"a": 1.0})])
    kern = _ItemKernels(inst)
    cost = item.cost
    for mu in [0.0, 0.05, 0.3, 0.9, 1.7, 4.0, 25.0]:
        conj, win = kern.conj_win(np.array([mu]))
        assert conj[0] == pytest.approx(cost.conjugate(mu), rel=1e-10, abs=1e-12)
        assert win[0] == pytest.approx(cost.win_probability(mu), rel=1e-10, abs=1e-12)
        # the win-only evaluation is the same arithmetic, bit for bit
        assert kern.win(kern.all_items, np.array([mu]))[0] == win[0]


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
    ws = _Workspace(inst)
    comps = (np.arange(4), np.ones(4), np.array(item_comp), np.array(slope))
    updates = solver._component_updates(ws, np.ones(4), comps)
    assert [idx.tolist() for idx, _ in updates] == [[0], [1], [2]]
    for idx, vals in updates:
        k = int(idx[0])
        terms = [(it.arrival_rate * v, it.cost, v)
                 for it, v, c in zip(inst.items, slope, item_comp) if c == k]

        def balance(t):
            return inst.targets[k] - sum(lv * cost.win_probability(v * t) for lv, cost, v in terms)

        hi = 1.0
        while balance(hi) >= 0.0:
            hi *= 2.0
        ref = brentq(balance, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
        assert vals[0] == pytest.approx(ref, rel=1e-13)


NEWTON_RATES = [0.05, 0.3, 1.0, 1.3, 2.0, 7.5, 40.0]
NEWTON_MUS = [1e-9, 1e-6, 1e-3, 0.1, 0.7, 1.0, 2.5, 10.0, 100.0, 1e4, 1e8]


def _exp_first_bid_40_digits(rate, mu):
    """Root of x + (e^{rate x} - 1)/rate = mu to 40 digits, rounded to a float."""
    with mpmath.workdps(40):
        g, m = mpmath.mpf(rate), mpmath.mpf(mu)
        a = 1 + g * m
        x0 = (a - mpmath.lambertw(mpmath.exp(a)).real) / g
        return float(mpmath.findroot(lambda x: x + mpmath.expm1(g * x) / g - m, x0))


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
    ref = [_exp_first_bid_40_digits(r, m) for r, m in zip(rate, mu)]
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


def test_recover_primal_without_flows_fails_when_routing_fails(monkeypatch):
    inst = mixed_instance()
    dual = dataclasses.replace(solve_dual(inst, tol=1e-10), flows=None)
    monkeypatch.setattr(solver, "_routing_lp", lambda ws, rho: None)
    with pytest.raises(NotConverged):
        recover_primal(inst, dual)


def test_recover_primal_reuses_the_certifying_flows(monkeypatch):
    # solve_dual's dual carries the flows of the LP that certified it, so
    # recovery solves no LP of its own
    inst = mixed_instance()
    dual = solve_dual(inst, tol=1e-10)

    def no_lp(*args, **kwargs):
        raise AssertionError("recover_primal solved an LP")

    monkeypatch.setattr("scipy.optimize.linprog", no_lp)
    assert certify(inst, recover_primal(inst, dual), dual).passed


def test_solution_json_round_trip(tmp_path):
    inst = mixed_instance()
    sol = solve(inst, tol=1e-10)
    blob = json.dumps(solution_to_json(inst, sol))
    back = solution_from_json(inst, json.loads(blob))
    assert back.report.gap == pytest.approx(sol.report.gap, abs=1e-12)
    assert back.report.passed
    assert np.allclose(back.primal.s, sol.primal.s, atol=1e-12)
    assert back.dual.dual_value == pytest.approx(sol.dual.dual_value, rel=1e-12)


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
@example(2497590332)  # flat optimum: the cut step is placed by the directional derivative
@example(100150)  # needs the line search along the routing LP's starving cut
@settings(max_examples=10, deadline=None)
def test_random_instances_certify(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n_contracts=int(rng.integers(2, 12)), n_items=int(rng.integers(2, 6))
    )
    _certifies_edgewise(solve(inst, tol=1e-9))
