"""End-to-end checks of the command-line interface.

Commands run in-process through ``main`` (fast, same interpreter, easy to
assert on exit codes); one test drives ``python -m bidopt.cli`` as a real
subprocess to cover the module entry point.
"""

import copy
import csv
import dataclasses
import functools
import json
import math
import operator
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bidopt.cli
from bidopt.cli import main
from bidopt.costs import AcquisitionCost
from bidopt.curves import PowerLawDensity, alpha_concavity_check
from bidopt.model import instance_from_json, max_scalable_target, random_instance, random_sparse_instance
from bidopt.related import markowitz_from_json, solve_markowitz_dual
from bidopt.solver import NotConverged, solution_to_json, solve
from oracles import supply_certificate_holds

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


def test_compact_solve_document_round_trips(tmp_path):
    # solve and simulate write one line of JSON with sorted keys (json's C
    # encoder), and certify and simulate read the solved document back; the
    # simulate report is the one the in-memory replay gives
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved, sim = tmp_path / "solved.json", tmp_path / "sim.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    text = solved.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert main(["certify", "--input", str(solved)]) == 0
    assert main(["simulate", "--input", str(solved), "--seed", "3", "--horizon", "50", "--output", str(sim)]) == 0
    text = sim.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    doc = json.loads(solved.read_text())
    inst = instance_from_json(doc["instance"])
    primal = bidopt.solver.solution_from_json(inst, doc["solution"]).primal
    assert json.loads(text) == bidopt.simulate(inst, bidopt.policy_from_primal(inst, primal), 50.0, 3).to_json()


def test_certify_rejects_tampering(tmp_path):
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    doc["solution"]["rho"][0] *= 1.5
    write_json(solved, doc)
    assert main(["certify", "--input", str(solved)]) == 3


def test_certify_rejects_bids_off_the_bid_map(tmp_path, capsys):
    # halved bids buy about half of each planned rate, while rho, mu, s and R
    # still read as optimal: only the bid row can fail them
    inp = write_json(tmp_path / "inst.json", random_instance(np.random.default_rng(3), 4, 8).to_json())
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    doc["solution"]["bids"] = [bid / 2.0 for bid in doc["solution"]["bids"]]
    write_json(solved, doc)
    capsys.readouterr()
    assert main(["certify", "--input", str(solved)]) == 3
    failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.endswith("FAIL")]
    assert failed == ["max_bid_residual"]


def test_subnormal_valuation_solves_and_certifies(tmp_path):
    # v_a rho underflows to mu_a = 0, so mu_a / v_a = 0 is no price of
    # contract c's item a; the rho row reads the edge slack
    # (mu_a - v_a rho) / v_a = 0 instead
    curve = {"family": "exponential", "params": {"rate": 1.0}}
    doc = {"items": [{"id": j, "rate": 1.0, "curve": curve, "auction": "second_price"} for j in "ab"],
           "contracts": [{"id": "c", "target": 0.1, "valuations": {"a": 5e-324, "b": 1.0}}]}
    inp = write_json(tmp_path / "inst.json", doc)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    assert main(["certify", "--input", str(solved)]) == 0


def test_certify_rho_row_fails_a_raised_rho(tmp_path, capsys):
    # the rho row stays as tight as mu_j / v_ij: one pseudo-bid raised by
    # 1e-3 of itself, with mu as solved, fails it
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    doc["solution"]["rho"][1] *= 1.0 + 1e-3
    write_json(solved, doc)
    capsys.readouterr()
    assert main(["certify", "--input", str(solved)]) == 3
    failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.endswith("FAIL")]
    assert "max_rho_residual" in failed


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


@pytest.mark.parametrize("command", ["solve", "feasibility"])
def test_instance_without_contracts_exits_1(tmp_path, capsys, command):
    inp = write_json(tmp_path / "inst.json", {"items": SCALAR["items"], "contracts": []})
    assert main([command, "--input", inp]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bidopt: ") and err.count("\n") == 1 and "no contracts" in err


@pytest.mark.parametrize("command", ["solve", "feasibility"])
def test_feasibility_lp_without_optimum_exits_3(tmp_path, capsys, command):
    # rates and targets x 1e-10 sit below HiGHS's feasibility tolerance, and
    # the supply check's LP on this draw ends at no optimum
    doc = random_instance(np.random.default_rng(5), 4, 8, families=("exponential", "hyperbolic")).to_json()
    for rec, key in [*((it, "rate") for it in doc["items"]), *((c, "target") for c in doc["contracts"])]:
        rec[key] *= 1e-10
    inp = write_json(tmp_path / "inst.json", doc)
    assert main([command, "--input", inp]) == 3
    err = capsys.readouterr().err
    assert err == "bidopt: feasibility LP found no optimum\n"


def test_feasibility_accepts_good_instance(tmp_path):
    inp = write_json(tmp_path / "inst.json", SCALAR)
    out = tmp_path / "feas.json"
    assert main(["feasibility", "--input", inp, "--output", str(out)]) == 0
    feas = json.loads(out.read_text())
    assert feas["feasible"] is True
    assert feas["slack"] == 0.0


def test_feasibility_certificate_of_a_boosted_sparse_draw_holds(tmp_path):
    # targets at 1.01 times the largest satisfiable level: the priced supply
    # LP runs to the end, and the weights of its last duals certify
    inst = random_sparse_instance(np.random.default_rng(0), 30, 180)
    doc = inst.to_json()
    boost = 1.01 * max_scalable_target(inst, 1e-6)
    for contract in doc["contracts"]:
        contract["target"] *= boost
    inp = write_json(tmp_path / "inst.json", doc)
    out = tmp_path / "feas.json"
    assert main(["feasibility", "--input", inp, "--output", str(out)]) == 2
    cert = json.loads(out.read_text())["certificate"]
    assert supply_certificate_holds(instance_from_json(doc), types.SimpleNamespace(weights=cert["weights"]), 1e-6)


HUGE_TARGET = {**SCALAR, "contracts": [{"id": "c", "target": 1e300, "valuations": {"p": 1.0}}]}


@pytest.mark.parametrize(
    "argv",
    [["solve", "--bogus"], ["solve", "--eps-active", "1e-3"], ["feasibility", "--input"], ["solve", "--input"],
     ["solve", "--tol", "0"], ["feasibility", "--margin=-1e-6"], ["simulate", "--horizon", "nan"],
     ["solve", "--tol", "abc"], ["simulate", "--seed", "1", "--horizon", "5e-324", "--input"]],
    ids=["bogus", "eps-active", "feasibility-huge-target", "solve-huge-target",
         "zero-tol", "negative-margin", "nan-horizon", "non-numeric-tol", "subnormal-horizon"],
)
def test_usage_error_exits_1(argv, tmp_path, capsys, monkeypatch):
    if argv[-1] == "--input":
        # HiGHS reads a row bound of 1e20 or more as infinite; a horizon of
        # 5e-324 splits into batches of length 0, refused before any draw
        if argv[0] == "simulate":
            doc, message = {"instance": SCALAR, "policy": {"bids": [0.7], "gamma": [0.8]}}, "bidopt: horizon 5e-324 "
        else:
            doc, message = HUGE_TARGET, "bidopt: contract target 1e+300"
        monkeypatch.setattr(sys.modules["bidopt.simulate"], "_draw", None)
        out = tmp_path / "sim.json"
        assert main([*argv, write_json(tmp_path / "inst.json", doc), "--output", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists()
        return
    # argparse wants to exit 2 on usage errors; 2 is reserved for infeasibility
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1


MARKOWITZ = {"alpha": [1.0, 0.8], "sigma": [[1.0, 0.2], [0.2, 0.5]], "risk_aversion": 2.0, "lob": None}
MISSPELT = {"family": "exponential", "params": {"rate": 1.0, "scael": 2.0}}


@pytest.mark.parametrize("command, doc", [
    pytest.param("solve", [SCALAR], id="top-level-array"),
    pytest.param("certify", SCALAR, id="certify-without-solution"),
    pytest.param("markowitz", {k: v for k, v in MARKOWITZ.items() if k != "sigma"}, id="markowitz-without-sigma"),
    pytest.param("solve", {**SCALAR, "items": [{**SCALAR["items"][0], "curve": MISSPELT}]},
                 id="unknown-curve-parameter"),
    pytest.param("budget", {"items": [{"rate": 1.0, "curve": MISSPELT, "auction": "second_price"}],
                            "values": [1.0], "budget": 0.5}, id="budget-unknown-curve-parameter"),
    # a JSON list where an object belongs
    pytest.param("solve", {**SCALAR, "items": [{**SCALAR["items"][0], "curve": [1]}]}, id="curve-list"),
    pytest.param("solve", {**SCALAR, "items": [{**SCALAR["items"][0], "curve": {"family": "empirical",
                                                                               "params": [1]}}]},
                 id="empirical-params-list"),
    pytest.param("solve", {**SCALAR, "contracts": [{**SCALAR["contracts"][0], "valuations": [1]}]},
                 id="valuations-list"),
    pytest.param("budget", {"items": [{"rate": 1.0, "curve": [1], "auction": "second_price"}],
                            "values": [1.0], "budget": 0.5}, id="budget-curve-list"),
    pytest.param("markowitz", {**MARKOWITZ, "lob": [[1], [1]]}, id="markowitz-lob-list"),
    # a solution entry that is not an object
    *(pytest.param("certify", {"instance": SCALAR, "solution": value}, id=f"certify-solution-{value!r}")
      for value in (0, "x", [], None, True)),
    # a bool or a string where a number belongs
    *(pytest.param("solve", doc(value), id=f"{name}-{value!r}")
      for value in (True, "1.5")
      for name, doc in (
          ("rate", lambda v: {**SCALAR, "items": [{**SCALAR["items"][0], "rate": v}]}),
          ("target", lambda v: {**SCALAR, "contracts": [{**SCALAR["contracts"][0], "target": v}]}),
          ("valuation", lambda v: {**SCALAR, "contracts": [{**SCALAR["contracts"][0], "valuations": {"p": v}}]}))),
    *(pytest.param("budget", {"items": [SCALAR["items"][0]], "values": [1.0], "budget": value},
                   id=f"budget-{value!r}") for value in (True, "1.5")),
])
def test_malformed_document_exits_1(tmp_path, capsys, command, doc):
    # one message line, no traceback
    assert main([command, "--input", write_json(tmp_path / "doc.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("bidopt: ") and captured.err.count("\n") == 1


# each command's options besides --output, which every command takes
READS = {
    "solve": {"--input", "--tol", "--margin"},
    "certify": {"--input", "--tol"},
    "simulate": {"--input", "--seed", "--horizon", "--tol", "--margin"},
    "feasibility": {"--input", "--margin"},
    "budget": {"--input"},
    "markowitz": {"--input", "--tol"},
    "figures": {"--tol", "--seed", "--margin"},
}
FLAG_VALUES = {"--input": ("in.json", "in.json"), "--output": ("out", "out"), "--tol": ("1e-6", 1e-6),
               "--seed": ("3", 3), "--horizon": ("10", 10.0), "--margin": ("1e-3", 1e-3)}


@pytest.mark.parametrize("flag", list(FLAG_VALUES))
@pytest.mark.parametrize("command", list(READS))
def test_commands_take_only_the_options_they_read(command, flag, capsys):
    text, value = FLAG_VALUES[flag]
    with pytest.raises(SystemExit) as help_exit:
        main([command, "--help"])
    assert help_exit.value.code == 0
    listed = flag in capsys.readouterr().out
    if flag == "--output" or flag in READS[command]:
        assert listed
        args = bidopt.cli.build_parser().parse_args([command, flag, text])
        assert getattr(args, flag[2:]) == value
    else:
        # an option the command would ignore is a usage error
        assert not listed
        with pytest.raises(SystemExit) as err:
            main([command, flag, text])
        assert err.value.code == 1


def test_main_parses_each_call_as_a_fresh_parser_would(monkeypatch):
    # the parser is built once per process, so no option or default of one
    # call may leak into the next
    cli = bidopt.cli
    seen = []
    for name in ("solve", "certify"):
        monkeypatch.setitem(cli._COMMANDS, name, (lambda args: seen.append(vars(args)) or 0, *cli._COMMANDS[name][1:]))
    argvs = [["solve", "--input", "a.json", "--tol", "1e-7", "--margin", "1e-3"], ["certify", "--input", "b.json"],
             ["solve", "--input", "c.json"]]
    for argv in argvs:
        assert main(argv) == 0
    assert cli.build_parser() is cli.build_parser()
    assert seen == [vars(cli.build_parser.__wrapped__().parse_args(argv)) for argv in argvs]


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


def test_simulate_output_named_like_its_csv_exits_1(tmp_path, capsys, monkeypatch):
    # the fulfillment CSV takes the output's name with the suffix .csv: an
    # --output ending in .csv would be written twice, so it is refused
    # before any draw
    inp = write_json(tmp_path / "inst.json", SCALAR)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys.modules["bidopt.simulate"], "_draw", None)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--input", str(solved), "--seed", "11", "--output", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"bidopt: --output {out}:")
    assert not out.exists()


def test_simulate_solves_a_bare_instance_first(tmp_path, capsys, monkeypatch):
    solved = []

    def recording(inst, **kwargs):
        solved.append(kwargs)
        return solve(inst, **kwargs)

    monkeypatch.setattr(bidopt.cli, "solve", recording)
    inp = write_json(tmp_path / "inst.json", SCALAR)
    argv = ["simulate", "--input", inp, "--seed", "11", "--horizon", "4000", "--tol", "1e-9", "--margin", "1e-3"]
    assert main(argv) == 0
    assert solved == [{"tol": 1e-9, "margin": 1e-3}]
    report = json.loads(capsys.readouterr().out)
    assert abs(report["win_rate"][0] - 0.5) <= 5.0 * report["win_rate_se"][0]


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


def test_simulate_reads_the_plan_without_evaluating_d_or_certifying(tmp_path, capsys, monkeypatch):
    # the replay needs only the primal plan: D(rho) and the certificate of the
    # stored solution are never computed, and the report is the one the
    # certified Solution's policy gives
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    inst = instance_from_json(doc["instance"])
    sol = bidopt.solver.solution_from_json(inst, doc["solution"])
    want = bidopt.simulate(inst, bidopt.policy_from_primal(inst, sol.primal), 500.0, 5).to_json()
    calls = []

    def counting(name):
        real = getattr(bidopt.solver, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in ("_dual_value", "certify"):
        monkeypatch.setattr(bidopt.solver, name, counting(name))
    capsys.readouterr()
    assert main(["simulate", "--input", str(solved), "--seed", "5", "--horizon", "500"]) == 0
    assert calls == []
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(want))


@pytest.mark.parametrize("horizon", ["1e17", "1e300"])
def test_simulate_beyond_the_batch_cap_exits_1(tmp_path, capsys, horizon):
    # one message line, no traceback, no allocation of the batch
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--input", str(solved), "--seed", "5", "--horizon", horizon]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"bidopt: horizon {float(horizon):g} puts")


def _shortened(values):
    return values[:-1]


def _nulled(values):
    return [None, *values[1:]]


@pytest.mark.parametrize("field, damage", [
    pytest.param("s", _shortened, id="s"),
    pytest.param("bids", _shortened, id="bids"),
    *(pytest.param(field, _nulled, id=f"null-{field}") for field in ("rho", "mu", "s", "bids")),
])
@pytest.mark.parametrize("command", [["certify"], ["simulate", "--seed", "5", "--horizon", "100"]],
                         ids=["certify", "simulate"])
def test_short_solution_lists_exit_1(tmp_path, capsys, field, damage, command):
    # a per-item list shorter than the instance's item count, or a null
    # entry in any list, is a parse failure: one message line, no
    # traceback, and never "certified"
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    doc["solution"][field] = damage(doc["solution"][field])
    write_json(solved, doc)
    capsys.readouterr()
    assert main(command[:1] + ["--input", str(solved)] + command[1:]) == 1
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    assert captured.err.startswith("bidopt: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("entry", [["u", "c", 0.1], ["v", "a", 0.1], ["w", "a", 0.1], ["u", "z", 0.1]],
                         ids=["unvalued-pair", "unvalued-pair-wrapping", "unknown-contract", "unknown-item"])
def test_allocation_off_the_edges_exits_1(tmp_path, capsys, entry):
    # an allocation entry must name an instance edge; contract u values a
    # and b, contract v values b and c
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    doc["solution"]["R"].append(entry)
    write_json(solved, doc)
    capsys.readouterr()
    assert main(["certify", "--input", str(solved)]) == 1
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    assert captured.err.startswith("bidopt: ") and "is not an instance edge" in captured.err
    assert repr((entry[0], entry[1])) in captured.err


@pytest.mark.parametrize("entry", [lambda c, j, r: [c, j, None], lambda c, j, r: [c, j, r, 0.0],
                                   lambda c, j, r: [c, j]], ids=["null-flow", "four-fields", "two-fields"])
def test_malformed_allocation_entry_exits_1(tmp_path, capsys, entry):
    # an allocation entry is [contract, item, flow] with a number for the flow
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    doc["solution"]["R"][0] = entry(*doc["solution"]["R"][0])
    write_json(solved, doc)
    capsys.readouterr()
    assert main(["certify", "--input", str(solved)]) == 1
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    assert captured.err.startswith("bidopt: ") and captured.err.count("\n") == 1


# a JSON integer too large for a float: float() raises OverflowError on it
HUGE = 10**400


def _with_huge_rate(doc: dict) -> dict:
    return {**doc, "items": [{**doc["items"][0], "rate": HUGE}, *doc["items"][1:]]}


def _with_huge_flow(doc: dict) -> dict:
    return {**doc, "R": [[*doc["R"][0][:2], HUGE], *doc["R"][1:]]}


def _with_infinite_iters(doc: dict) -> dict:
    return {**doc, "iters": math.inf}  # json writes it as Infinity


@pytest.mark.parametrize("command, part, damage", [
    *(pytest.param(c, "instance", _with_huge_rate, id=f"huge-rate-{c}")
      for c in ("solve", "feasibility", "certify", "simulate")),
    *(pytest.param(c, "solution", _with_huge_flow, id=f"huge-flow-{c}") for c in ("certify", "simulate")),
    pytest.param("certify", "solution", _with_infinite_iters, id="infinite-iters-certify"),
])
def test_numbers_no_float_holds_exit_1(tmp_path, capsys, command, part, damage):
    # one message line that names the document, no traceback
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    doc[part] = damage(doc[part])
    path = write_json(tmp_path / "damaged.json", doc if command in ("certify", "simulate") else doc["instance"])
    capsys.readouterr()
    argv = [command, "--input", path] + (["--seed", "5", "--horizon", "100"] if command == "simulate" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    assert captured.err.startswith(f"bidopt: {path}: ") and captured.err.count("\n") == 1


def _solved_with_flow(value):
    def damage(solved: dict) -> dict:
        sol = solved["solution"]
        return {**solved, "solution": {**sol, "R": [[*sol["R"][0][:2], value], *sol["R"][1:]]}}
    return damage


def _with_infinite_breakpoint(solved: dict) -> dict:
    curve = {"family": "empirical", "breakpoints": [[0.0, 0.0], [1.0, 0.5], [math.inf, 1.0]]}
    return {**MIXED, "items": [{**MIXED["items"][0], "curve": curve}, *MIXED["items"][1:]]}


def _portfolio(alpha, sigma):
    return lambda solved: {"alpha": alpha, "sigma": sigma, "risk_aversion": 2.0, "lob": None}


# json reads the literals NaN and Infinity, so each reader checks that its numbers are finite
@pytest.mark.parametrize("command, damage", [
    pytest.param("certify", _solved_with_flow(math.nan), id="nan-flow-certify"),
    pytest.param("certify", _solved_with_flow(math.inf), id="infinite-flow-certify"),
    pytest.param("markowitz", _portfolio([math.nan, 0.5], [[1.0, 0.0], [0.0, 1.0]]), id="nan-alpha-markowitz"),
    pytest.param("markowitz", _portfolio([1.0, 0.5], [[1.0, 0.0], [0.0, math.inf]]), id="infinite-sigma-markowitz"),
    pytest.param("solve", _with_infinite_breakpoint, id="infinite-breakpoint-solve"),
    # finite, but risk_aversion times sigma's largest eigenvalue overflows: the primal step would be 0
    pytest.param("markowitz", _portfolio([1.0, 0.5], [[1e308, 0.0], [0.0, 1.0]]), id="overflowing-sigma-markowitz"),
    # finite, but alpha is not a vector
    pytest.param("markowitz", _portfolio([[1.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]]), id="two-dimensional-alpha-markowitz"),
])
def test_non_finite_numbers_exit_1(tmp_path, capsys, command, damage):
    inp = write_json(tmp_path / "inst.json", MIXED)
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", inp, "--output", str(solved)]) == 0
    path = write_json(tmp_path / "damaged.json", damage(json.loads(solved.read_text())))
    capsys.readouterr()
    assert main([command, "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bidopt: {path}: ") and captured.err.count("\n") == 1


def power_law_doc(params, auction="first_price") -> dict:
    item = {"rate": 1.0, "curve": {"family": "power_law_density", "params": params}, "auction": auction}
    return {"items": [{"id": "p", **item}, {"id": "q", **item}],
            "contracts": [{"id": "c", "target": 0.5, "valuations": {"p": 1.0, "q": 1.0}}]}


@pytest.mark.parametrize("params", [{"w0": 1.0, "x_max": 1e6}, {"w0": 1e12, "x_max": 1.0}])
def test_first_price_power_law_is_two_concave(tmp_path, capsys, params):
    # 1 - 2/(w0 x^2) is concave, though the grid heuristic rejects both curves
    curve = PowerLawDensity(**params)
    assert not alpha_concavity_check(curve, 2.0)
    assert curve.two_concave()
    AcquisitionCost(curve, "first_price")
    assert main(["solve", "--input", write_json(tmp_path / "inst.json", power_law_doc(params))]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["relative_gap"] <= 1e-12


def test_second_price_power_law_keeps_its_running_integral_finite(tmp_path, capsys):
    # mass 0.5 each, but x_max^3 overflows: w0 must enter the running integral
    # before the cube; exit 0 means the certificate passed
    doc = power_law_doc({"w0": 1e-300, "x_max": 1e150}, "second_price")
    assert main(["solve", "--input", write_json(tmp_path / "inst.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["relative_gap"] <= 1e-12


def test_power_law_mass_overflow_exits_1(tmp_path, capsys):
    # w0 x_max^2 / 2 overflows in x_max^2
    doc = power_law_doc({"w0": 1e-300, "x_max": 1e200})
    assert main(["solve", "--input", write_json(tmp_path / "inst.json", doc)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("bidopt: ") and "total mass" in err[0]


@pytest.mark.parametrize("breakpoints", [[[1e308, 0.5], [1.5e308, 1.0]], [[5e-324, 0.5], [1e-323, 1.0]]])
def test_empirical_breakpoints_out_of_range_exit_1(tmp_path, capsys, breakpoints):
    # the slope or the running integral of W overflows: one bidopt: line and no numpy warning
    curve = {"family": "empirical", "breakpoints": breakpoints}
    doc = {**SCALAR, "items": [{**SCALAR["items"][0], "curve": curve}]}
    assert main(["solve", "--input", write_json(tmp_path / "inst.json", doc)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("bidopt: ") and "breakpoints (0, 0) to" in err[0]


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


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_budget_writes_unbounded_bids_as_null(tmp_path, capsys):
    # a slack budget bids the support maximum, which is unbounded here
    doc = {
        "items": [{"id": "a", "rate": 1.0, "curve": {"family": "exponential", "params": {"rate": 1.0}},
                   "auction": "second_price"}],
        "values": [1.0],
        "budget": 5.0,
    }
    assert main(["budget", "--input", write_json(tmp_path / "budget.json", doc)]) == 0
    plan = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert plan["binding"] is False
    assert plan["bids"] == [None]
    assert plan["spend"] == pytest.approx(1.0, rel=1e-12)


def test_budget_with_a_tiny_multiplier_exits_0(tmp_path, capsys):
    # theta ~ e^-100 meets this budget: the root search must reach it
    doc = {
        "items": [{"id": "a", "rate": 1.0, "curve": {"family": "exponential", "params": {"rate": 1.0}},
                   "auction": "first_price"}],
        "values": [1.0],
        "budget": 100.0,
    }
    assert main(["budget", "--input", write_json(tmp_path / "budget.json", doc)]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["binding"] is True
    assert plan["theta"] == pytest.approx(math.exp(-100.0), rel=1e-6)
    assert plan["spend"] == pytest.approx(100.0, rel=1e-12)


def test_budget_first_price_without_2_concavity_exits_1(tmp_path, capsys):
    doc = {
        "items": [{"id": "a", "rate": 1.0, "curve": {"family": "empirical", "breakpoints": [[1.0, 0.2], [2.0, 0.8]]},
                   "auction": "first_price"}],
        "values": [1.0],
        "budget": 0.1,
    }
    assert main(["budget", "--input", write_json(tmp_path / "budget.json", doc)]) == 1
    assert "2-concavity" in capsys.readouterr().err


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
    # the gap bounds the position's distance from the optimum by
    # sqrt(2 gap (1 + |P|) / mu), mu = risk * the least eigenvalue of sigma
    # (0.86 here): a gap of 1e-13 keeps it below 1e-6
    assert set(res) == {"position", "objective", "margins", "zeta", "relative_gap"}
    assert abs(res["relative_gap"]) <= 1e-13
    assert len(res["position"]) == 2
    assert math.isfinite(res["objective"])
    # the dual route, which the command no longer runs, lands on the same position
    _, _, x_dual = solve_markowitz_dual(markowitz_from_json(doc))
    assert np.max(np.abs(np.array(res["position"]) - x_dual)) <= 1e-6


def test_markowitz_exits_3_on_a_gap_above_tol(tmp_path, monkeypatch):
    # a position far from the optimum: its own dual point leaves a gap, which
    # the document carries and the exit code reports
    inp = write_json(tmp_path / "marko.json", PORTFOLIO)
    monkeypatch.setattr(bidopt.cli, "solve_markowitz_primal", lambda mi, tol: np.zeros(mi.n_assets))
    out = tmp_path / "portfolio.json"
    assert main(["markowitz", "--input", inp, "--output", str(out)]) == 3
    res = json.loads(out.read_text())
    assert res["position"] == [0.0, 0.0] and res["relative_gap"] > 1e-8


# ---------------------------------------------------------------------------
# mutation fuzz: no document a command reads ends in a traceback

EMPIRICAL_MIXED = {**MIXED, "items": [
    {**MIXED["items"][0], "curve": {"family": "empirical", "breakpoints": [[0.0, 0.0], [0.5, 0.4], [1.5, 0.8],
                                                                          [3.0, 1.0]]}},
    *MIXED["items"][1:]]}
BUDGET = {"items": [{"rate": 1.0, "curve": {"family": "exponential", "params": {"rate": 1.0}},
                     "auction": "second_price"},
                    {"rate": 0.5, "curve": {"family": "power_law_density", "params": {"w0": 2.0, "x_max": 1.0}},
                     "auction": "first_price"}],
          "values": [1.0, 0.8], "budget": 0.3}
PORTFOLIO = {**MARKOWITZ, "lob": [{"family": "power_law_density", "params": {"w0": 2.0, "x_max": 1.5}},
                                  {"family": "empirical", "breakpoints": [[0.5, 0.0], [1.0, 0.6], [2.0, 1.4]]}]}
# the commands that read each document kind
MUTATED_COMMANDS = {
    "instance": (["solve"], ["feasibility"]),
    "solved": (["certify"], ["simulate", "--seed", "1", "--horizon", "20"]),
    "budget": (["budget"],),
    "portfolio": (["markowitz"],),
}
ODD_VALUES = (None, True, False, 0, -1, 0.5, 1e308, -1e308, 5e-324, HUGE, -HUGE, math.nan, math.inf, -math.inf,
              "x", "1.5", [], [1.0, 2.0], {}, {"a": 1})
DELETED = object()


def _paths(node, prefix=()):
    """Every path into a JSON document, the root's () first."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    """``doc`` with the node at ``path`` set to ``value``, or removed for DELETED."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = functools.reduce(operator.getitem, parents, doc)
    if value is DELETED:
        del node[last]
    else:
        node[last] = value
    return doc


@functools.cache
def _mutation_document(kind: str) -> dict:
    if kind != "solved":
        return {"instance": EMPIRICAL_MIXED, "budget": BUDGET, "portfolio": PORTFOLIO}[kind]
    inst = instance_from_json(EMPIRICAL_MIXED)
    return {"instance": inst.to_json(), "solution": solution_to_json(inst, solve(inst))}


@pytest.mark.parametrize("kind", list(MUTATED_COMMANDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_documents_exit_cleanly(tmp_path, capsys, kind, data):
    # any one node set to an odd value or deleted: exit 0-3 and never a
    # traceback, and exit 1 prints one `bidopt: ` line; numpy's RuntimeWarnings
    # are recorded, not raised, and only an exit 1 must be free of them
    doc = _mutation_document(kind)
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(st.sampled_from(ODD_VALUES + (DELETED,) if path else ODD_VALUES), label="value")
    inp = write_json(tmp_path / "doc.json", _mutated(doc, path, value))
    for command in MUTATED_COMMANDS[kind]:
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code = main(command[:1] + ["--input", inp] + command[1:])
        assert code in (0, 1, 2, 3)
        if code == 1:
            err = capsys.readouterr().err
            assert err.startswith("bidopt: ") and err.count("\n") == 1 and not caught


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


def test_figures_sparsity(tmp_path):
    # the 1200 x 200 sparse draw of seed 0, certified at 1e-5: its optimum
    # routes over a strict subset of the edges
    assert main(["figures", "sparsity", "--output", str(tmp_path)]) == 0
    (row,) = csv.DictReader((tmp_path / "sparsity.csv").read_text().splitlines())
    assert (int(row["n_items"]), int(row["n_contracts"]), int(row["d"])) == (1200, 200, 38_095)
    assert 0 < int(row["d_star"]) < int(row["d"])
    assert abs(float(row["relative_gap"])) <= 1e-5


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
