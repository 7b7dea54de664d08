"""Release gate: ten end-to-end checks, one test each, with hard tolerances.

These are the checks a release must pass before shipping.  Each test prints a
single ``PASS`` line with the measured deviation (visible under ``pytest -s``
or in captured output), and several carry wall-clock budgets so performance
regressions fail loudly instead of rotting quietly.

Everything here goes through public entry points only; independent reference
values come from closed forms, grid suprema, exhaustive search over bid
grids, and Monte-Carlo replay, so agreement is evidence rather than
tautology.
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from bruteforce import brute_force_value

from bidopt.cli import bifurcation_cost_sweep, bifurcation_supply_sweep
from bidopt.costs import AcquisitionCost, AuctionKind, dark_pool_identity_check
from bidopt.curves import (
    BoundedUniform,
    Empirical,
    Exponential,
    Hyperbolic,
    PowerLawDensity,
    alpha_concavity_check,
)
from bidopt.model import Contract, ItemType, build_instance, random_instance, random_sparse_instance
from bidopt.related import (
    BudgetInstance,
    LobMarket,
    MarkowitzInstance,
    budget_spend,
    lob_cost,
    markowitz_dual_objective,
    markowitz_objective,
    solve_budget,
    solve_markowitz_dual,
    solve_markowitz_primal,
)
from bidopt.simulate import policy_from_primal, simulate
from bidopt.solver import solve


# ---------------------------------------------------------------------------
# helpers


def sup_on_grid(f, grid):
    """max of f over grid, polished by a bounded scalar search at the argmax."""
    vals = f(grid)
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    if hi > lo:
        res = minimize_scalar(
            lambda t: -f(np.array([t]))[0],
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-13},
        )
        return max(float(vals[k]), -float(res.fun))
    return float(vals[k])


def rand_curve(rng):
    k = int(rng.integers(3))
    if k == 0:
        return Exponential(rate=float(rng.uniform(0.5, 2.5)))
    if k == 1:
        return Hyperbolic(scale=float(rng.uniform(0.4, 1.5)))
    return BoundedUniform(x_max=float(rng.uniform(1.0, 3.0)))


def rand_kind(rng):
    return "first_price" if rng.random() < 0.4 else "second_price"


def tiny_instance(rng, shape):
    """Random instance small enough for exhaustive bid-grid search.

    Shapes: "1x1"/"2x1"/"3x1" are single-contract over 1-3 items; "2x2" is
    two contracts sharing one item (the second contract bids only on the
    shared item, so the mixing weight matters).
    """
    m = {"1x1": 1, "2x1": 2, "3x1": 3, "2x2": 2}[shape]
    items = [
        ItemType(f"i{j}", float(rng.uniform(0.5, 2.0)), rand_curve(rng), rand_kind(rng))
        for j in range(m)
    ]
    lam = [it.arrival_rate for it in items]
    if shape != "2x2":
        v = rng.uniform(0.5, 1.5, m)
        cap = sum(l * w for l, w in zip(lam, v))
        contracts = [
            Contract("c", float(rng.uniform(0.3, 0.6) * cap), {f"i{j}": float(v[j]) for j in range(m)})
        ]
    else:
        v_ae, v_as, v_bs = rng.uniform(0.5, 1.5, 3)
        cb = float(rng.uniform(0.2, 0.45) * lam[1] * v_bs)
        ca = float(rng.uniform(0.3, 0.6) * (lam[0] * v_ae + 0.45 * lam[1] * v_as))
        contracts = [
            Contract("a", ca, {"i0": float(v_ae), "i1": float(v_as)}),
            Contract("b", cb, {"i1": float(v_bs)}),
        ]
    return build_instance(items, contracts)


# ---------------------------------------------------------------------------
# the gate


def test_01_exponential_closed_forms():
    # unit-rate exponential curve, second price: the acquisition cost and its
    # conjugate both have elementary closed forms.
    t0 = time.perf_counter()
    cost = AcquisitionCost(Exponential(1.0), AuctionKind.SECOND_PRICE)
    q = np.linspace(0.0, 1.0 - 1e-6, 256)
    dev_lam = float(np.max(np.abs(np.asarray(cost.lam(q)) - (q + (1.0 - q) * np.log1p(-q)))))
    mu = np.linspace(0.0, 12.0, 256)
    dev_conj = float(np.max(np.abs(np.asarray(cost.conjugate(mu)) - (mu - 1.0 + np.exp(-mu)))))
    elapsed = time.perf_counter() - t0
    assert dev_lam <= 1e-9
    assert dev_conj <= 1e-9
    assert elapsed < 1.0
    print(f"PASS 01 closed forms: worst dev {max(dev_lam, dev_conj):.2e} in {elapsed:.3f}s")


def test_02_conjugate_matches_grid_supremum():
    # conjugate and double conjugate against a polished grid supremum, for
    # every curve family under both auction kinds (first price only where the
    # curve passes the 2-concavity certificate it requires).
    curves = {
        "exponential": Exponential(1.3),
        "hyperbolic": Hyperbolic(0.8),
        "bounded_uniform": BoundedUniform(2.0),
        "power_law": PowerLawDensity(0.5, 2.0),
        "empirical": Empirical([(x, 1.0 - np.exp(-x)) for x in np.linspace(0.25, 3.0, 12)]),
    }
    t0 = time.perf_counter()
    tested = []
    worst_conj = worst_double = 0.0
    for name, curve in curves.items():
        mass = curve.total_mass
        for kind in (AuctionKind.SECOND_PRICE, AuctionKind.FIRST_PRICE):
            if kind is AuctionKind.FIRST_PRICE and not alpha_concavity_check(curve, 2.0):
                continue
            cost = AcquisitionCost(curve, kind)
            qgrid = np.linspace(0.0, 0.97 * mass, 6001)
            mu_hi = float(cost.bid_mapping(float(curve.inverse(0.85 * mass))))
            for mu in np.linspace(0.0, mu_hi, 100):
                num = sup_on_grid(lambda q: mu * q - np.asarray(cost.lam(q)), qgrid)
                worst_conj = max(worst_conj, abs(num - float(cost.conjugate(mu))))
            mu_grid = np.linspace(
                0.0, float(cost.bid_mapping(float(curve.inverse(0.92 * mass)))) + 1.0, 6001
            )
            for qq in np.linspace(0.0, 0.85 * mass, 100):
                num = sup_on_grid(lambda m: qq * m - np.asarray(cost.conjugate(m)), mu_grid)
                worst_double = max(worst_double, abs(num - float(cost.lam(qq))))
            tested.append((name, kind.value))
    elapsed = time.perf_counter() - t0
    assert len(tested) == 10  # all five families pass the first-price gate here
    assert worst_conj <= 1e-6
    assert worst_double <= 1e-5
    assert elapsed < 30.0
    print(
        f"PASS 02 conjugates vs grid sup: conj {worst_conj:.2e}, "
        f"double {worst_double:.2e}, {len(tested)} combos in {elapsed:.1f}s"
    )


def test_03_solver_matches_brute_force_grid():
    # 20 random small instances against exhaustive search over a 1000-point
    # bid grid per item and a 100-point mixing-weight grid.
    shapes = ("1x1", "2x1", "3x1", "2x2")
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(900 + k)
        inst = tiny_instance(rng, shapes[k % 4])
        grid_value = brute_force_value(inst, n_bid=1000, n_gamma=100)
        sol = solve(inst)
        rel = abs(grid_value - sol.report.primal_value) / max(abs(sol.report.primal_value), 1e-12)
        assert rel <= 1e-2, f"instance {k} ({shapes[k % 4]}): rel dev {rel:.3e}"
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS 03 brute-force grid: worst rel dev {worst:.2e} over 20 instances in {elapsed:.1f}s")


def test_04_random_instances_certify_optimality():
    # 50 random feasible instances, mixed auction kinds: duality gap,
    # complementary slackness, and both dual-consequence equalities within
    # 1e-6.
    worst = {"gap": 0.0, "comp": 0.0, "mu": 0.0, "rho": 0.0}
    for k in range(50):
        rng = np.random.default_rng(7000 + k)
        inst = random_instance(
            rng, n_contracts=int(rng.integers(1, 11)), n_items=int(rng.integers(2, 51))
        )
        rep = solve(inst).report
        worst["gap"] = max(worst["gap"], abs(rep.gap))
        worst["comp"] = max(worst["comp"], rep.max_comp_slack)
        worst["mu"] = max(worst["mu"], rep.max_mu_residual)
        worst["rho"] = max(worst["rho"], rep.max_rho_residual)
        assert rep.passed, f"seed {7000 + k}: certificate failed: {rep}"
    assert worst["gap"] <= 1e-6
    assert worst["comp"] <= 1e-6
    assert worst["mu"] <= 1e-6
    assert worst["rho"] <= 1e-6
    print(
        "PASS 04 certificates on 50 instances: "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    )


def test_05_pseudo_bid_bifurcation():
    # the two contract pseudo-bids merge or separate as supply and cost
    # asymmetry vary; endpoints of both sweeps pin the qualitative picture.
    def rel_gap(row):
        rho = np.asarray(row["rho"])
        return abs(rho[0] - rho[1]) / float(np.max(np.abs(rho)))

    supply = bifurcation_supply_sweep(np.array([0.1, 0.99]))
    scarce, ample = supply[0], supply[1]
    assert rel_gap(scarce) >= 0.1
    assert rel_gap(ample) <= 1e-3
    assert float(np.max(np.asarray(ample["bids"]))) > 10.0  # merged regime bids large

    cost_rows = bifurcation_cost_sweep(np.array([1.0 / 16.0, 32.0]))
    assert rel_gap(cost_rows[0]) >= 0.1  # cheap middle item keeps the contracts apart
    assert rel_gap(cost_rows[1]) <= 1e-6  # expensive middle item fuses them
    print(
        f"PASS 05 bifurcation endpoints: supply gaps ({rel_gap(scarce):.3f}, {rel_gap(ample):.1e}), "
        f"cost gaps ({rel_gap(cost_rows[0]):.3f}, {rel_gap(cost_rows[1]):.1e})"
    )


def test_06_large_sparse_instance():
    # 1200 items x 200 contracts: certified gap at 1e-5 inside the time
    # budget, and the recovered plan is supported on few edges, none of them
    # priced out by the reported slack threshold.
    rng = np.random.default_rng(0)
    inst = random_sparse_instance(rng)
    assert inst.n_items == 1200 and inst.n_contracts == 200
    t0 = time.perf_counter()
    sol = solve(inst, certify_tol=1e-5)
    elapsed = time.perf_counter() - t0
    d = inst.n_edges
    d_star = int(np.count_nonzero(sol.primal.R > 0.0))
    slack_edges = sol.dual.theta > sol.eps_active
    leaked = float(np.max(sol.primal.R[slack_edges], initial=0.0))
    assert elapsed < 120.0
    assert abs(sol.report.gap) <= 1e-5
    assert d_star <= d
    assert leaked == 0.0  # no flow on edges the duals price out
    assert sol.report.max_comp_slack <= 1e-8
    assert sol.eps_active == float(np.max(sol.dual.theta[sol.primal.R > 0.0]))
    print(
        f"PASS 06 sparse instance: gap {sol.report.gap:.2e}, "
        f"support {d_star}/{d} edges, {elapsed:.1f}s"
    )


def test_07_simulation_matches_fluid_predictions():
    # replay the certified plan over >=1e5 expected arrivals; realized
    # fulfillment and spend must sit within 3 standard errors of the fluid
    # predictions.
    items = [
        ItemType("news", 1.1, Exponential(1.0), "second_price"),
        ItemType("video", 0.7, Exponential(0.6), "second_price"),
        ItemType("social", 0.9, BoundedUniform(1.8), "second_price"),
        ItemType("search", 0.8, PowerLawDensity(0.5, 2.0), "second_price"),
        ItemType("display", 1.0, Hyperbolic(0.8), "second_price"),
    ]
    contracts = [
        Contract("brand", 0.9, {"news": 1.0, "video": 0.8, "social": 0.6}),
        Contract("retail", 1.1, {"social": 0.9, "search": 1.2, "display": 0.7}),
    ]
    inst = build_instance(items, contracts)
    horizon = 25000.0
    assert horizon * sum(it.arrival_rate for it in items) >= 1e5
    sol = solve(inst)
    assert sol.report.passed
    t0 = time.perf_counter()
    rep = simulate(inst, policy_from_primal(inst, sol.primal), horizon, seed=2026)
    elapsed = time.perf_counter() - t0
    # targets and the certified objective, not the policy-implied predictions:
    # the realized rates must land on what the contracts demand and what the
    # convex program says the plan costs.
    value_dev = np.abs(rep.value_rate - inst.targets) / rep.value_rate_se
    cost_dev = abs(rep.cost_rate - sol.report.primal_value) / rep.cost_rate_se
    assert float(np.max(value_dev)) <= 3.0
    assert cost_dev <= 3.0
    assert elapsed < 60.0
    print(
        f"PASS 07 simulation: value devs {np.round(value_dev, 2).tolist()} se, "
        f"cost dev {cost_dev:.2f} se, {elapsed:.1f}s"
    )


def test_08_budget_pacing_closed_forms():
    # budgeted bidding: first-price hyperbolic books shade by an explicit
    # square-root formula; second-price books bid value over the multiplier
    # exactly; either way the binding budget is spent to within 1e-8 of B.
    rng = np.random.default_rng(42)
    items_fp = tuple(
        ItemType(
            f"f{j}",
            float(rng.uniform(0.5, 1.5)),
            Hyperbolic(scale=float(rng.uniform(0.4, 1.2))),
            "first_price",
        )
        for j in range(4)
    )
    values_fp = rng.uniform(0.4, 1.5, 4)
    bi_fp = BudgetInstance(items=items_fp, values=values_fp, budget=0.5)
    theta_fp, bids_fp = solve_budget(bi_fp)
    worst_bid = 0.0
    for bid, v, it in zip(bids_fp, values_fp, items_fp):
        c = it.curve.scale
        worst_bid = max(worst_bid, abs(bid - c * (math.sqrt(1.0 + v / (c * theta_fp)) - 1.0)))
    spend_fp = abs(budget_spend(bi_fp, theta_fp) - bi_fp.budget)
    assert worst_bid <= 1e-8
    assert spend_fp <= 1e-8 * bi_fp.budget

    items_sp = tuple(
        ItemType(f"s{j}", 1.0, Exponential(float(rng.uniform(0.5, 2.0))), "second_price")
        for j in range(3)
    )
    values_sp = rng.uniform(0.5, 1.5, 3)
    bi_sp = BudgetInstance(items=items_sp, values=values_sp, budget=0.6)
    theta_sp, bids_sp = solve_budget(bi_sp)
    assert all(bid == v / theta_sp for bid, v in zip(bids_sp, values_sp))  # exact, not approx
    spend_sp = abs(budget_spend(bi_sp, theta_sp) - bi_sp.budget)
    assert spend_sp <= 1e-8 * bi_sp.budget
    print(
        f"PASS 08 budget pacing: shading dev {worst_bid:.1e}, "
        f"spend devs ({spend_fp:.1e}, {spend_sp:.1e}), second-price bids exact"
    )


def test_09_portfolio_routes_agree():
    # 20 random SPD portfolio instances against order-book depth: proximal
    # primal and conjugate dual land on the same position with a vanishing
    # objective gap; the book's market-impact cost obeys a 3/2-power law.
    worst_x = worst_gap = 0.0
    for k in range(20):
        rng = np.random.default_rng(3000 + k)
        m = int(rng.integers(2, 11))
        a = rng.normal(0.0, 1.0, (m, m)) / np.sqrt(m)
        sigma = a @ a.T + np.diag(rng.uniform(0.3, 1.0, m))
        lob = LobMarket(
            tuple(
                PowerLawDensity(float(rng.uniform(0.5, 3.0)), float(rng.uniform(2.0, 6.0)))
                for _ in range(m)
            )
        )
        mi = MarkowitzInstance(
            alpha=rng.uniform(0.1, 1.2, m),
            sigma=sigma,
            risk_aversion=float(rng.uniform(0.8, 3.0)),
            lob=lob,
        )
        xp = solve_markowitz_primal(mi)
        zeta, _, xd = solve_markowitz_dual(mi)
        worst_x = max(worst_x, float(np.max(np.abs(xp - xd))))
        worst_gap = max(worst_gap, abs(markowitz_objective(mi, xp) + markowitz_dual_objective(mi, zeta)))
    assert worst_x <= 1e-6
    assert worst_gap <= 1e-8

    market = LobMarket((PowerLawDensity(2.0, 1.5),))
    vols = np.geomspace(1e-3, 1.0, 200)
    costs = np.array([lob_cost(market, 0, v) for v in vols])
    slope = float(np.polyfit(np.log(vols), np.log(costs), 1)[0])
    assert abs(slope - 1.5) <= 0.01
    print(
        f"PASS 09 portfolio duality: |x_p - x_d| {worst_x:.1e}, gap {worst_gap:.1e}, "
        f"impact slope {slope:.4f}"
    )


def test_10_concavity_and_dark_pool_identity():
    # every built-in family the grid check certifies log-concave must also
    # pass the 2-concavity check on the same grid; and the midpoint-auction
    # identity (first-price minus second-price cost equals the conjugate at
    # the bid) holds in Monte-Carlo within 3 standard errors.
    families = [
        ("exponential", Exponential(1.0)),
        ("hyperbolic", Hyperbolic(1.0)),
        ("bounded_uniform", BoundedUniform(2.0)),
        ("power_law", PowerLawDensity(0.5, 2.0)),
        ("empirical", Empirical([(x, 1.0 - np.exp(-x)) for x in np.linspace(0.25, 3.0, 12)])),
    ]
    for name, curve in families:
        if alpha_concavity_check(curve, 1.0):
            assert alpha_concavity_check(curve, 2.0), f"{name}: log-concave but failed alpha=2"

    makers = [
        lambda r: Exponential(float(r.uniform(0.5, 2.0))),
        lambda r: Hyperbolic(float(r.uniform(0.4, 1.5))),
        lambda r: BoundedUniform(float(r.uniform(1.0, 3.0))),
        lambda r: PowerLawDensity(0.5, 2.0),
    ]
    worst_sigma = worst_twin = 0.0
    for k in range(10):
        rng = np.random.default_rng(500 + k)
        curve = makers[k % 4](rng)
        second = AcquisitionCost(curve, AuctionKind.SECOND_PRICE)
        x = float(rng.uniform(0.2, 2.0))
        chk = dark_pool_identity_check(second, x, rng=rng)
        assert chk.residual <= 3.0 * chk.stderr, f"pair {k}: {chk.residual:.2e} vs 3se {3 * chk.stderr:.2e}"
        worst_sigma = max(worst_sigma, chk.residual / chk.stderr)
        if alpha_concavity_check(curve, 2.0):
            first = AcquisitionCost(curve, AuctionKind.FIRST_PRICE)
            twin = float(first.expected_cost(x) - second.expected_cost(x))
            worst_twin = max(worst_twin, abs(twin - chk.exact_value))
    assert worst_twin <= 1e-12  # cost-difference route must agree with the conjugate route
    print(
        f"PASS 10 concavity + dark pool: worst MC residual {worst_sigma:.2f} se, "
        f"twin-route dev {worst_twin:.1e}"
    )
