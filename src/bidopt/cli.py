"""Command-line front end: solve, certify, simulate, and export figure data.

Every command reads plain JSON and writes JSON or CSV so runs can be
scripted, diffed, and replayed.  JSON is written compact with sorted keys
(``python -m json.tool`` indents it).  Artifacts are deterministic given
(input, seed, tol).  ``budget`` writes an unbounded bid (a slack budget on a
curve with no largest useful bid) as null.

Input shapes by command::

    solve / feasibility   {"items": [...], "contracts": [...]}
    certify / simulate    the document `solve` writes (instance + solution);
                          simulate also accepts {"instance": ..., "policy":
                          {"bids": [...], "gamma": [...]}} with gamma in the
                          instance's edge order
    budget                {"items": [...], "values": [...], "budget": B}
    markowitz             {"alpha": [...], "sigma": [[...]],
                           "risk_aversion": r, "lob": [curve, ...] | null}
    figures               no input; writes CSVs into --output (a directory)

Every command takes ``--output``; besides it each takes only the options it
reads, and any other option is a usage error::

    solve          --input --tol --margin
    certify        --input --tol
    simulate       --input --seed --horizon, and --tol --margin to solve a
                   bare instance first
    feasibility    --input --margin
    budget         --input
    markowitz      --input --tol
    figures        --tol --seed --margin, and the subset to regenerate

``--tol``, ``--margin`` and ``--horizon`` must be positive.

Exit codes: 0 success; 1 unreadable or malformed input (an instance with no
contracts, a solution with a null entry or an ``iters`` that is not a
nonnegative integer, a bool or a string where a number belongs, a
non-finite number wherever a number is read, or a JSON integer too large
for a float, included); 2 infeasible instance; 3 non-convergence (a
feasibility LP that ends at no optimum included), a certificate that misses
tolerance, or a ``markowitz`` relative gap (at the dual point read off its
one primal solve) above ``--tol``.  The entries of an array (a solution's lists,
breakpoints, budget values, ``alpha`` and ``sigma``, a policy's bids and
weights) are read as numpy reads them, not one by one: a bool there reads
as 0 or 1 and a numeric string as its number.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .costs import AcquisitionCost, AuctionKind
from .curves import Exponential, _json_object
from .model import (
    Contract,
    ItemType,
    LPFailure,
    ProblemInstance,
    build_instance,
    check_adequate_supply,
    instance_from_json,
    item_from_json,
    random_sparse_instance,
)
from .related import (
    BudgetInstance,
    BudgetSlack,
    budget_spend,
    markowitz_dual_objective,
    markowitz_dual_point,
    markowitz_from_json,
    markowitz_objective,
    solve_budget,
    solve_markowitz_primal,
)
from .simulate import BidPolicy, policy_from_primal, simulate
from .solver import (
    InfeasibleInstance,
    NotConverged,
    primal_from_json,
    solution_from_json,
    solution_to_json,
    solve,
)

__all__ = [
    "ParseError",
    "main",
    "build_parser",
    "bifurcation_cost_sweep",
    "bifurcation_supply_sweep",
]


class ParseError(ValueError):
    """Input file missing, unreadable, or not matching the expected shape."""


# what a document reader raises on a document of the wrong shape
_BAD_INPUT = (KeyError, TypeError, ValueError)


def _status(msg: str) -> None:
    # keep stdout clean for JSON; progress goes to stderr
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# input parsing


def _load_json(path) -> dict:
    if path is None:
        raise ParseError("this command needs --input")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return obj


def _parse(path, what: str, read, *args):
    """``read(*args)``, with a malformed document's error as one ParseError that names ``path`` and ``what``."""
    try:
        return read(*args)
    except _BAD_INPUT as exc:
        raise ParseError(f"{path}: bad {what}: {exc}") from exc


def _parse_instance(obj: dict, path) -> ProblemInstance:
    return _parse(path, "instance", instance_from_json, obj.get("instance", obj))


def _parse_solution(inst: ProblemInstance, obj: dict, path, read=solution_from_json):
    """`read` of the document's solution entry: `solution_from_json`, or `primal_from_json` for the plan alone."""
    if "solution" not in obj:
        raise ParseError(f"{path}: no 'solution' entry; run `solve` first")
    return _parse(path, "solution", read, inst, obj["solution"])


def _budget_from_json(obj: dict) -> BudgetInstance:
    items = tuple(item_from_json({"id": f"item{k}", **_json_object(rec, f"item {k}")})
                  for k, rec in enumerate(obj["items"]))
    return BudgetInstance(items=items, values=obj["values"], budget=obj["budget"])


def _emit_json(doc: dict, output) -> None:
    """Write `doc` compact, with sorted keys, to `output` or stdout: json's C encoder runs only without indent."""
    text = json.dumps(doc, sort_keys=True)
    if output is None:
        print(text)
    else:
        Path(output).write_text(text + "\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(args: argparse.Namespace) -> int:
    obj = _load_json(args.input)
    inst = _parse_instance(obj, args.input)
    sol = solve(inst, tol=args.tol, margin=args.margin)
    doc = {
        "instance": inst.to_json(),
        "solution": solution_to_json(inst, sol),
        "certificate": {name: float(value) for name, value, _ in sol.report.rows()},
    }
    _emit_json(doc, args.output)
    passed = sol.report.passed
    _status(
        f"solved {inst.n_items} items / {inst.n_contracts} contracts: "
        f"primal {sol.report.primal_value:.10g}, gap {sol.report.gap:.3e}"
        + ("" if passed else f"; certificate FAILED at tol {sol.report.tol:g}")
    )
    return 0 if passed else 3


def _cmd_certify(args: argparse.Namespace) -> int:
    obj = _load_json(args.input)
    inst = _parse_instance(obj, args.input)
    sol = _parse_solution(inst, obj, args.input)
    # parsing recomputed the certificate; only the tolerance it is read at changes
    report = replace(sol.report, tol=args.tol)
    if args.output is not None:
        report.to_csv(args.output)
    for name, value, ok in report.rows():
        print(f"{name:>28s}  {value: .12e}  {'ok' if ok else 'FAIL'}")
    print(f"{'certified' if report.passed else 'FAILED'} at tol {args.tol:g}")
    return 0 if report.passed else 3


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ParseError("simulate needs --seed so runs are reproducible")
    # the fulfillment CSV takes the report's name with the suffix .csv
    csv_path = None if args.output is None else Path(args.output).with_suffix(".csv")
    if csv_path is not None and csv_path == Path(args.output):
        raise ParseError(f"--output {args.output}: the fulfillment CSV is written beside the report "
                         "under the suffix .csv, so the report needs another suffix")
    obj = _load_json(args.input)
    inst = _parse_instance(obj, args.input)
    if "policy" in obj:
        policy = _parse(args.input, "policy", lambda rec: BidPolicy(rec["bids"], rec["gamma"]), obj["policy"])
    elif "solution" in obj:
        # the replay needs only the plan: neither D(rho) nor the certificate
        *_, primal = _parse_solution(inst, obj, args.input, primal_from_json)
        policy = policy_from_primal(inst, primal)
    else:
        sol = solve(inst, tol=args.tol, margin=args.margin)
        policy = policy_from_primal(inst, sol.primal)
    _parse(args.input, "policy", policy.check, inst)
    report = simulate(inst, policy, args.horizon, args.seed, csv_path=csv_path)
    _emit_json(report.to_json(), args.output)
    ok = report.fulfillment_ok()
    _status(
        f"simulated horizon {args.horizon:g} over {report.n_batches} batches: "
        f"cost rate {report.cost_rate:.6g}, fulfillment {'ok' if ok else 'SHORT'}"
    )
    return 0


def _cmd_feasibility(args: argparse.Namespace) -> int:
    obj = _load_json(args.input)
    inst = _parse_instance(obj, args.input)
    chk = check_adequate_supply(inst, margin=args.margin)
    doc: dict = {"feasible": bool(chk), "slack": float(chk.slack), "margin": args.margin}
    if chk.certificate is not None:
        cert = chk.certificate
        doc["certificate"] = {
            "contracts": [str(c) for c in cert.contract_ids],
            "weights": {str(k): float(v) for k, v in cert.weights.items()},
            "demand": float(cert.demand),
            "reachable_supply": float(cert.reachable_supply),
            "weighted_shortfall": float(cert.weighted_shortfall),
        }
    _emit_json(doc, args.output)
    return 0 if chk else 2


def _cmd_budget(args: argparse.Namespace) -> int:
    obj = _load_json(args.input)
    bi = _parse(args.input, "budget problem", _budget_from_json, obj)
    try:
        theta, bids = solve_budget(bi)
        binding = True
    except BudgetSlack as slack:
        theta, bids, binding = 0.0, slack.bids, False
    doc = {
        "theta": float(theta),
        "bids": [float(b) if np.isfinite(b) else None for b in bids],
        "binding": binding,
        "spend": float(budget_spend(bi, theta)),
        "budget": bi.budget,
    }
    _emit_json(doc, args.output)
    return 0


def _cmd_markowitz(args: argparse.Namespace) -> int:
    obj = _load_json(args.input)
    mi = _parse(args.input, "portfolio problem", markowitz_from_json, obj)
    x = solve_markowitz_primal(mi, tol=args.tol)
    # the primal's own certificate: the gap at the dual point read off it
    zeta, phi = markowitz_dual_point(mi, x)
    objective = float(markowitz_objective(mi, x))
    gap = (objective + markowitz_dual_objective(mi, zeta)) / (1.0 + abs(objective))
    doc = {
        "position": [float(v) for v in x],
        "objective": objective,
        "margins": [float(v) for v in phi],
        "zeta": [float(v) for v in zeta],
        "relative_gap": float(gap),
    }
    _emit_json(doc, args.output)
    if not gap <= args.tol:
        _status(f"relative gap {gap:.3g} above tol {args.tol:g}")
        return 3
    return 0


# ---------------------------------------------------------------------------
# figure data

_SUBSETS = ("all", "curves", "bifurcation-cost", "bifurcation-supply", "sparsity")


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return path


def _chain_instance(rates, targets) -> ProblemInstance:
    """Two contracts sharing the middle of three exponential-priced items."""
    items = [
        ItemType(
            id=f"p{j + 1}",
            arrival_rate=1.0,
            curve=Exponential(rate=float(r)),
            auction=AuctionKind.SECOND_PRICE,
        )
        for j, r in enumerate(rates)
    ]
    contracts = [
        Contract(id="c1", target_rate=float(targets[0]), valuations={"p1": 1.0, "p2": 1.0}),
        Contract(id="c2", target_rate=float(targets[1]), valuations={"p2": 1.0, "p3": 1.0}),
    ]
    return build_instance(items, contracts)


def _chain_sweep(key: str, grid, chain, tol: float) -> list[dict]:
    """Solve ``_chain_instance(*chain(v))`` at each grid value v; one row per solve."""
    rows = []
    for v in np.asarray(grid, dtype=float):
        sol = solve(_chain_instance(*chain(float(v))), tol=tol)
        dual = sol.dual
        rows.append({key: float(v), "rho": dual.rho.copy(), "mu": dual.mu.copy(), "bids": sol.primal.x.copy()})
    return rows


def bifurcation_cost_sweep(rate2_grid, targets=(0.3, 0.3), tol=1e-8) -> list[dict]:
    """Sweep the shared item's price scale through the three-item chain.

    Items 1 and 3 are exclusive to contracts 1 and 2 (exponential price
    rates 1/2 and 2); item 2 is shared and its rate sweeps the grid.  A
    large rate makes the shared item cheap, both contracts fill from it,
    and their pseudo-bids rho collapse onto one value; a small rate splits
    the contracts onto their private items and the pseudo-bids separate.
    """
    return _chain_sweep("rate_2", rate2_grid, lambda r2: ((0.5, r2, 2.0), targets), tol)


def bifurcation_supply_sweep(target1_grid, tol=1e-8) -> list[dict]:
    """Scale the chain's targets (C, 2C) toward full capacity.

    Price rates are fixed at (1/10, 1, 10), so item 1 is expensive and item
    3 cheap.  Small targets let each contract buy only its cheapest reachable
    item and the pseudo-bids sit far apart; as C approaches 1 the demand
    2C + C presses against the total arrival rate 3, every item is needed,
    the shared item binds for both contracts, and the pseudo-bids meet while
    the bids grow.
    """
    return _chain_sweep("target_1", target1_grid, lambda c1: ((0.1, 1.0, 10.0), (c1, 2.0 * c1)), tol)


def _sweep_rows(key: str, rows: list[dict]):
    for r in rows:
        rho = r["rho"]
        rel = abs(float(rho[0] - rho[1])) / max(float(np.max(np.abs(rho))), 1e-300)
        yield [r[key], float(rho[0]), float(rho[1]), rel, *map(float, r["mu"]), *map(float, r["bids"])]


_SWEEP_HEADER = ["rho_1", "rho_2", "rho_gap_rel", "mu_1", "mu_2", "mu_3", "bid_1", "bid_2", "bid_3"]


def _figure_curves(outdir: Path) -> Path:
    """Grids of W, f, acquisition cost, and conjugate for a unit-rate price."""
    cost = AcquisitionCost(Exponential(rate=1.0), AuctionKind.SECOND_PRICE)
    x = np.linspace(0.0, 5.0, 256)
    q = np.linspace(0.0, 0.999, 256)
    mu = np.linspace(0.0, 5.0, 256)
    rows = zip(
        map(float, x),
        map(float, np.asarray(cost.win_probability(x))),
        map(float, np.asarray(cost.expected_cost(x))),
        map(float, q),
        map(float, np.asarray(cost.lam(q))),
        map(float, mu),
        map(float, np.asarray(cost.conjugate(mu))),
    )
    header = ["x", "win_prob", "expected_cost", "q", "acquisition_cost", "mu", "conjugate"]
    return _write_csv(outdir / "curve_grids.csv", header, rows)


def _write_sweep(path: Path, key: str, rows: list[dict]) -> Path:
    return _write_csv(path, [key] + _SWEEP_HEADER, _sweep_rows(key, rows))


def _figure_sparsity(outdir: Path, args: argparse.Namespace) -> Path:
    """Solve one large random instance and record how sparse the optimum is.

    d counts the instance's edges, d_star the edges carrying allocation at
    the optimum; the certificate is computed at a looser bar than the small
    commands because the instance has a quarter-million edges.
    """
    rng = np.random.default_rng(0 if args.seed is None else args.seed)
    inst = random_sparse_instance(rng)
    sol = solve(inst, tol=args.tol, margin=args.margin, certify_tol=1e-5)
    d = inst.n_edges
    d_star = int(np.count_nonzero(sol.primal.R > 0.0))
    row = [
        inst.n_items,
        inst.n_contracts,
        d,
        d_star,
        float(sol.report.primal_value),
        float(sol.report.dual_value),
        float(sol.report.gap),
    ]
    header = ["n_items", "n_contracts", "d", "d_star", "primal_value", "dual_value", "relative_gap"]
    return _write_csv(outdir / "sparsity.csv", header, [row])


def _cmd_figures(args: argparse.Namespace) -> int:
    outdir = Path(args.output) if args.output is not None else Path("figures")
    outdir.mkdir(parents=True, exist_ok=True)
    chosen = args.subset
    written = []
    if chosen in ("all", "curves"):
        written.append(_figure_curves(outdir))
    if chosen in ("all", "bifurcation-cost"):
        rows = bifurcation_cost_sweep(np.geomspace(1.0 / 16.0, 32.0, 41), tol=args.tol)
        written.append(_write_sweep(outdir / "bifurcation_cost.csv", "rate_2", rows))
    if chosen in ("all", "bifurcation-supply"):
        rows = bifurcation_supply_sweep(np.concatenate([np.linspace(0.05, 0.95, 19), [0.99]]), tol=args.tol)
        written.append(_write_sweep(outdir / "bifurcation_supply.csv", "target_1", rows))
    if chosen in ("all", "sparsity"):
        written.append(_figure_sparsity(outdir, args))
    for p in written:
        _status(f"wrote {p}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


_OPTIONS = {
    "input": {"help": "path to the command's JSON input"},
    "tol": {"type": _positive, "default": 1e-8, "help": "solver / certificate tolerance"},
    "seed": {"type": int, "default": None, "help": "RNG seed (required to simulate)"},
    "horizon": {"type": _positive, "default": 1000.0, "help": "simulated time span"},
    "margin": {"type": _positive, "default": 1e-6, "help": "capacity margin for feasibility"},
}

# each command with its help line and the options it reads besides --output
_COMMANDS = {
    "solve": (_cmd_solve, "solve an instance; write instance + solution + certificate JSON",
              ("input", "tol", "margin")),
    "certify": (_cmd_certify, "recheck a solved document's optimality certificate", ("input", "tol")),
    "simulate": (_cmd_simulate, "replay a solved document or explicit policy through the simulator",
                 ("input", "seed", "horizon", "tol", "margin")),
    "feasibility": (_cmd_feasibility, "run the adequate-supply check; report witness or certificate",
                    ("input", "margin")),
    "budget": (_cmd_budget, "solve the budget-capped bidder; report multiplier and bids", ("input",)),
    "markowitz": (_cmd_markowitz, "solve the cost-aware portfolio and check its duality gap",
                  ("input", "tol")),
    "figures": (_cmd_figures, "regenerate the CSV data sets behind the standard plots",
                ("tol", "seed", "margin")),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, but 2 means "infeasible" here;
    # route usage problems to 1 with every other bad input
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `bidopt` argument parser, built once per process and shared by every call."""
    parser = _Parser(prog="bidopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        p.add_argument("--output", help="result path (directory for figures); stdout if omitted")
        if name == "figures":
            p.add_argument("subset", nargs="?", default="all", choices=_SUBSETS,
                           help="which data set to regenerate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ParseError as exc:
        print(f"bidopt: {exc}", file=sys.stderr)
        return 1
    except InfeasibleInstance as exc:
        print(f"bidopt: infeasible: {exc}", file=sys.stderr)
        return 2
    except (NotConverged, LPFailure) as exc:
        print(f"bidopt: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"bidopt: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
