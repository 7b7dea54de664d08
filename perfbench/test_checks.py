"""Tests of the benchmark's own output checks.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
checker must accept a certified plan and reject the same plan perturbed.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bidopt  # noqa: E402
from checks import Curve, PlanCheck, Problem, check_plan, check_replay  # noqa: E402
from layers import METRICS  # noqa: E402
from workloads import REPLAY_SEED, _fitted_curve  # noqa: E402

TOL = 1e-6


@pytest.fixture(scope="module")
def solved():
    """A small mixed instance: all three parametric families, both auctions,
    and fitted empirical curves under first and second price."""
    rng = np.random.default_rng(5)
    base = bidopt.random_instance(rng, 4, 9, edge_prob=0.6)
    items = list(base.items)
    for j, auction in enumerate(("first_price", "second_price")):
        items[j] = bidopt.ItemType(items[j].id, items[j].arrival_rate, _fitted_curve(rng, auction == "first_price"), auction)
    inst = bidopt.build_instance(items, base.contracts)
    sol = bidopt.solve(inst)
    assert sol.report.passed
    return inst, sol, Problem.from_json(inst.to_json()), bidopt.solution_to_json(inst, sol)


def _with_rates(plan, scale):
    return dict(plan, R=[[c, i, r * scale] for c, i, r in plan["R"]])


def test_certified_plan_passes(solved):
    _, sol, problem, plan = solved
    check = check_plan(problem, plan, TOL)
    assert check.passed, check
    assert check.spend == pytest.approx(sol.report.primal_value, rel=1e-9)


def test_scaled_allocation_fails_fulfillment(solved):
    _, _, problem, plan = solved
    check = check_plan(problem, _with_rates(plan, 0.99), TOL)
    assert check.fulfillment > TOL and not check.passed


def test_nudged_pseudo_bid_opens_gap(solved):
    _, _, problem, plan = solved
    rho = list(plan["rho"])
    rho[0] *= 1.001
    check = check_plan(problem, dict(plan, rho=rho), TOL)
    assert check.gap > TOL and not check.passed


def test_negative_rate_or_pseudo_bid_fails(solved):
    _, _, problem, plan = solved
    c, i, r = plan["R"][0]
    assert not check_plan(problem, dict(plan, R=plan["R"] + [[c, i, -r]]), TOL).passed
    assert not check_plan(problem, dict(plan, rho=[-1e-3] + list(plan["rho"][1:])), TOL).passed


def test_overdrawn_capacity_fails():
    doc = {
        "items": [{"id": "a", "rate": 1.0, "curve": {"family": "bounded_uniform", "params": {"x_max": 1.0}},
                   "auction": "second_price"}],
        "contracts": [{"id": "c", "target": 1.2, "valuations": {"a": 1.0}}],
    }
    check = check_plan(Problem.from_json(doc), {"rho": [1.0], "R": [["c", "a", 1.2]]}, TOL)
    assert check.capacity > TOL and not check.passed


@pytest.mark.parametrize("field, value", [
    ("gap", 2 * TOL), ("gap", -2 * TOL), ("fulfillment", 2 * TOL), ("capacity", 2 * TOL),
    ("min_rate", -1e-12), ("min_rho", -1e-12),
])
def test_each_condition_alone_fails_the_plan(field, value):
    ok = dict(spend=1.0, dual_bound=1.0, gap=0.0, fulfillment=0.0, capacity=0.0, min_rate=0.0, min_rho=0.0, tol=TOL)
    assert PlanCheck(**ok).passed
    assert not PlanCheck(**dict(ok, **{field: value})).passed


@pytest.mark.parametrize("auction", ["second_price", "first_price"])
@pytest.mark.parametrize("curve", [
    bidopt.Exponential(1.3), bidopt.Hyperbolic(0.7), bidopt.BoundedUniform(2.2),
    bidopt.fit_empirical(np.random.default_rng(0).exponential(1.0, 4000), 0.2),
])
def test_reference_costs_agree_with_bidopt(curve, auction):
    ref = Curve(curve.to_json())
    cost = bidopt.AcquisitionCost(curve, auction)
    problem = Problem(["c"], ["a"], np.ones(1), np.ones(1), [ref], np.array([auction == "first_price"]),
                      np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.ones(1))
    for q in (0.01, 0.3, 0.7, 0.95):
        assert problem.spend(np.array([q])) == pytest.approx(float(cost.lam(q)), rel=1e-12, abs=1e-15)
    for mu in (0.05, 0.5, 1.0, 3.0, 10.0):
        # D(rho) with one unit-valued edge and unit target is rho - conj(rho)
        conj = mu - problem.dual_bound(np.array([mu]))
        assert conj == pytest.approx(float(cost.conjugate(mu)), rel=1e-12, abs=1e-14)


def test_replay_check_flags_missed_targets(solved):
    inst, sol, problem, _ = solved
    horizon = 1e5 / float(problem.rates.sum())
    report = bidopt.simulate(inst, bidopt.policy_from_primal(inst, sol.primal), horizon, seed=REPLAY_SEED).to_json()
    spend = sol.report.primal_value
    assert check_replay(problem, report, spend) <= 1.0
    short = dict(report, value_rate=[v - 10.0 * se for v, se in zip(report["value_rate"], report["value_rate_se"])])
    assert check_replay(problem, short, spend) > 1.0
    assert check_replay(problem, report, spend + 10.0 * report["cost_rate_se"]) > 1.0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in METRICS}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
