"""End-to-end checks of the command-line interface.

Commands run in-process through ``main`` (fast, same interpreter, easy to
assert on exit codes); one test drives ``python -m bidopt.cli`` as a real
subprocess to cover the module entry point.
"""

import csv
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import bidopt.cli
from bidopt.cli import main
from bidopt.model import instance_from_json
from bidopt.solver import NotConverged, solve

SCALAR = {
    "items": [
        {
            "id": "p",
            "rate": 1.0,
            "curve": {"family": "exponential", "params": {"rate": 1.0}},
            "auction": "second_price",
        }
    ],
    "contracts": [{"id": "c", "target": 0.5, "valuations": {"p": 1.0}}],
}

MIXED = {
    "items": [
        {
            "id": "a",
            "rate": 1.2,
            "curve": {"family": "exponential", "params": {"rate": 1.0}},
            "auction": "second_price",
        },
        {
            "id": "b",
            "rate": 0.8,
            "curve": {"family": "hyperbolic", "params": {"scale": 1.0}},
            "auction": "first_price",
        },
        {
            "id": "c",
            "rate": 1.0,
            "curve": {"family": "bounded_uniform", "params": {"x_max": 2.0}},
            "auction": "second_price",
        },
    ],
    "contracts": [
        {"id": "u", "target": 0.4, "valuations": {"a": 1.0, "b": 0.6}},
        {"id": "v", "target": 0.5, "valuations": {"b": 0.9, "c": 1.3}},
    ],
}


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# solve / certify


def test_solve_writes_log2_pseudo_bid(tmp_path):
    inp = write_json(tmp_path / "inst.json", SCALAR)
    out = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["solution"]["rho"][0] == pytest.approx(math.log(2.0), abs=1e-9)
    assert doc["certificate"]["relative_gap"] <= 1e-8
    assert "instance" in doc  # self-contained: certify needs no second file


def test_solve_prints_to_stdout_without_output(tmp_path, capsys):
    inp = write_json(tmp_path / "inst.json", SCALAR)
    assert main(["solve", "--input", inp]) == 0
    doc = json.loads(capsys.readouterr().out)
    # second price: the bid is the item multiplier itself
    assert doc["solution"]["bids"][0] == pytest.approx(math.log(2.0), abs=1e-9)


def test_round_trip_certificate_matches_in_memory(tmp_path):
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    cert = tmp_path / "cert.csv"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    assert main(["certify", "--input", str(solved), "--output", str(cert)]) == 0

    sol = solve(instance_from_json(MIXED), tol=1e-8)
    rows = {r["metric"]: r for r in csv.DictReader(cert.read_text().splitlines())}
    assert abs(float(rows["relative_gap"]["value"]) - sol.report.gap) <= 1e-12
    assert rows["passed"]["value"] == "1"


def test_certify_rejects_tampering(tmp_path):
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    doc["solution"]["rho"][0] *= 1.5
    write_json(solved, doc)
    assert main(["certify", "--input", str(solved)]) == 3


# ---------------------------------------------------------------------------
# exit codes


def test_parse_failures_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert main(["solve", "--input", str(bad)]) == 1
    assert main(["solve", "--input", str(tmp_path / "missing.json")]) == 1
    assert main(["solve"]) == 1  # no --input at all
    schema = write_json(tmp_path / "schema.json", {"items": "nope"})
    assert main(["solve", "--input", schema]) == 1


def test_infeasible_exits_2(tmp_path):
    doc = {
        "items": SCALAR["items"],
        "contracts": [{"id": "c", "target": 5.0, "valuations": {"p": 1.0}}],
    }
    inp = write_json(tmp_path / "inst.json", doc)
    assert main(["solve", "--input", inp]) == 2
    out = tmp_path / "feas.json"
    assert main(["feasibility", "--input", inp, "--output", str(out)]) == 2
    feas = json.loads(out.read_text())
    assert feas["feasible"] is False
    assert feas["certificate"]["demand"] > feas["certificate"]["reachable_supply"]


def test_failed_certificate_exits_3_after_writing(tmp_path, monkeypatch):
    # a negative tolerance fails every certificate row
    def failing_solve(inst, **kwargs):
        sol = solve(inst, **kwargs)
        return dataclasses.replace(sol, report=dataclasses.replace(sol.report, tol=-1.0))

    monkeypatch.setattr(bidopt.cli, "solve", failing_solve)
    inp = write_json(tmp_path / "inst.json", SCALAR)
    out = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["solution"]["rho"][0] == pytest.approx(math.log(2.0), abs=1e-9)


def test_not_converged_exits_3(tmp_path, monkeypatch, capsys):
    def never_converges(inst, **kwargs):
        raise NotConverged(None, 1e-3)

    monkeypatch.setattr(bidopt.cli, "solve", never_converges)
    inp = write_json(tmp_path / "inst.json", SCALAR)
    assert main(["solve", "--input", inp]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("bidopt: ")


def test_eps_active_is_deprecated_and_ignored(tmp_path, capsys):
    inp = write_json(tmp_path / "inst.json", SCALAR)
    out = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(out), "--eps-active", "1e-3"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err.count("bidopt: --eps-active is deprecated and ignored") == 1
    assert json.loads(out.read_text())["certificate"]["relative_gap"] <= 1e-6


def test_feasibility_accepts_good_instance(tmp_path):
    inp = write_json(tmp_path / "inst.json", SCALAR)
    out = tmp_path / "feas.json"
    assert main(["feasibility", "--input", inp, "--output", str(out)]) == 0
    feas = json.loads(out.read_text())
    assert feas["feasible"] is True
    assert feas["slack"] == 0.0


def test_usage_error_exits_1():
    # argparse wants to exit 2 on usage errors; 2 is reserved for infeasibility
    with pytest.raises(SystemExit) as err:
        main(["solve", "--bogus"])
    assert err.value.code == 1


# ---------------------------------------------------------------------------
# simulate


def test_simulate_needs_seed(tmp_path):
    inp = write_json(tmp_path / "inst.json", SCALAR)
    assert main(["simulate", "--input", inp]) == 1


def test_simulate_deterministic_and_on_target(tmp_path):
    inp = write_json(tmp_path / "inst.json", SCALAR)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    args = ["simulate", "--input", str(solved), "--seed", "11", "--horizon", "4000"]
    sims = [tmp_path / "sim1.json", tmp_path / "sim2.json"]
    for out in sims:
        assert main(args + ["--output", str(out)]) == 0
    assert sims[0].read_bytes() == sims[1].read_bytes()
    assert (tmp_path / "sim1.csv").exists()  # fulfillment series alongside

    report = json.loads(sims[0].read_text())
    half = report["win_rate"][0]
    assert abs(half - 0.5) <= 5.0 * report["win_rate_se"][0]


def test_simulate_accepts_explicit_policy(tmp_path, capsys):
    doc = {"instance": SCALAR, "policy": {"bids": [0.7], "gamma": [0.8]}}
    inp = write_json(tmp_path / "doc.json", doc)
    assert main(["simulate", "--input", inp, "--seed", "5", "--horizon", "3000"]) == 0
    report = json.loads(capsys.readouterr().out)
    want = 0.8 * (1.0 - math.exp(-0.7))
    assert abs(report["win_rate"][0] - want) <= 5.0 * report["win_rate_se"][0]


def test_simulate_bad_policy_exits_1(tmp_path):
    doc = {"instance": SCALAR, "policy": {"bids": [0.7], "gamma": [0.5, 0.5]}}
    inp = write_json(tmp_path / "doc.json", doc)
    assert main(["simulate", "--input", inp, "--seed", "5"]) == 1


@pytest.mark.parametrize("field", ["s", "bids"])
@pytest.mark.parametrize("command", [["certify"], ["simulate", "--seed", "5", "--horizon", "100"]],
                         ids=["certify", "simulate"])
def test_short_solution_lists_exit_1(tmp_path, capsys, field, command):
    # a per-item list shorter than the instance's item count is a parse
    # failure: one message line, no traceback, and never "certified"
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    doc["solution"][field] = doc["solution"][field][:-1]
    write_json(solved, doc)
    capsys.readouterr()
    assert main(command[:1] + ["--input", str(solved)] + command[1:]) == 1
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    assert captured.err.startswith("bidopt: ") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# budget / markowitz


def test_budget_second_price_shading(tmp_path):
    doc = {
        "items": [
            {
                "id": "a",
                "rate": 1.0,
                "curve": {"family": "exponential", "params": {"rate": 1.0}},
                "auction": "second_price",
            },
            {
                "id": "b",
                "rate": 1.0,
                "curve": {"family": "exponential", "params": {"rate": 0.5}},
                "auction": "second_price",
            },
        ],
        "values": [1.0, 0.7],
        "budget": 0.8,
    }
    inp = write_json(tmp_path / "budget.json", doc)
    out = tmp_path / "plan.json"
    assert main(["budget", "--input", inp, "--output", str(out)]) == 0
    plan = json.loads(out.read_text())
    assert plan["binding"] is True
    theta = plan["theta"]
    assert theta > 0.0
    for bid, value in zip(plan["bids"], doc["values"]):
        assert bid == pytest.approx(value / theta, rel=1e-10)
    assert plan["spend"] == pytest.approx(0.8, abs=1e-7)


def test_budget_slack_reports_max_bids(tmp_path):
    doc = {
        "items": [
            {
                "id": "a",
                "rate": 1.0,
                "curve": {"family": "bounded_uniform", "params": {"x_max": 2.0}},
                "auction": "second_price",
            }
        ],
        "values": [1.0],
        "budget": 10.0,
    }
    inp = write_json(tmp_path / "budget.json", doc)
    out = tmp_path / "plan.json"
    assert main(["budget", "--input", inp, "--output", str(out)]) == 0
    plan = json.loads(out.read_text())
    assert plan["binding"] is False
    assert plan["theta"] == 0.0
    assert plan["bids"] == [2.0]
    assert plan["spend"] == pytest.approx(1.0, abs=1e-12)  # mean price, always won


def test_markowitz_routes_agree(tmp_path):
    doc = {
        "alpha": [1.0, 0.8],
        "sigma": [[1.0, 0.2], [0.2, 0.5]],
        "risk_aversion": 2.0,
        "lob": [
            {"family": "power_law_density", "params": {"w0": 2.0, "x_max": 4.0}},
            {"family": "power_law_density", "params": {"w0": 1.0, "x_max": 4.0}},
        ],
    }
    inp = write_json(tmp_path / "marko.json", doc)
    out = tmp_path / "portfolio.json"
    assert main(["markowitz", "--input", inp, "--output", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["max_disagreement"] <= 1e-6
    assert len(res["position"]) == 2
    assert math.isfinite(res["objective"])


# ---------------------------------------------------------------------------
# figures


@pytest.fixture(scope="module")
def figdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    for subset in ("curves", "bifurcation-cost", "bifurcation-supply"):
        assert main(["figures", subset, "--output", str(out)]) == 0
    return out


def test_curve_grid_closed_forms(figdir):
    rows = list(csv.DictReader((figdir / "curve_grids.csv").read_text().splitlines()))
    assert len(rows) == 256
    for r in rows[1::37]:
        q = float(r["q"])
        assert float(r["acquisition_cost"]) == pytest.approx(
            q + (1.0 - q) * math.log1p(-q), abs=1e-9
        )
        mu = float(r["mu"])
        assert float(r["conjugate"]) == pytest.approx(mu - 1.0 + math.exp(-mu), abs=1e-9)


def test_supply_sweep_pseudo_bids_meet(figdir):
    rows = {r["target_1"]: r for r in csv.DictReader((figdir / "bifurcation_supply.csv").read_text().splitlines())}
    assert float(rows["0.99"]["rho_gap_rel"]) <= 1e-3
    assert float(rows["0.1"]["rho_gap_rel"]) >= 0.1
    assert float(rows["0.99"]["bid_2"]) > 10.0  # equal *and* large near capacity


def test_cost_sweep_pseudo_bids_meet(figdir):
    rows = list(csv.DictReader((figdir / "bifurcation_cost.csv").read_text().splitlines()))
    assert float(rows[0]["rho_gap_rel"]) >= 0.1  # pricey shared item: separate
    assert float(rows[-1]["rho_gap_rel"]) <= 1e-6  # cheap shared item: together


def test_figures_deterministic(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["figures", "curves", "--output", str(d)]) == 0
    assert (dirs[0] / "curve_grids.csv").read_bytes() == (dirs[1] / "curve_grids.csv").read_bytes()


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point(tmp_path):
    inp = write_json(tmp_path / "inst.json", SCALAR)
    proc = subprocess.run(
        [sys.executable, "-m", "bidopt.cli", "solve", "--input", inp],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["solution"]["rho"][0] == pytest.approx(math.log(2.0), abs=1e-9)
