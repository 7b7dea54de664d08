"""Command-line front end: solve, certify, simulate, and export figure data.

Every command reads plain JSON and writes JSON or CSV so runs can be
scripted, diffed, and replayed.  Artifacts are deterministic given
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

Exit codes: 0 success; 1 unreadable or malformed input; 2 infeasible
instance; 3 non-convergence or a certificate that misses tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import related
from .costs import AcquisitionCost, AuctionKind
from .curves import Exponential, curve_from_json
from .model import (
    Contract,
    ItemType,
    ProblemInstance,
    build_instance,
    check_adequate_supply,
    instance_from_json,
    random_sparse_instance,
)
from .related import (
    BudgetInstance,
    BudgetSlack,
    budget_spend,
    markowitz_from_json,
    markowitz_objective,
    solve_budget,
    solve_markowitz_dual,
    solve_markowitz_primal,
)
from .simulate import BidPolicy, policy_from_primal, simulate
from .solver import (
    InfeasibleInstance,
    NotConverged,
    solution_from_json,
    solution_to_json,
    solve,
)

__all__ = [
    "ParseError",
    "RunConfig",
    "run",
    "main",
    "build_parser",
    "bifurcation_cost_sweep",
    "bifurcation_supply_sweep",
]


class ParseError(ValueError):
    """Input file missing, unreadable, or not matching the expected shape."""


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: a command plus the shared knobs."""

    command: str
    input: str | None = None
    output: str | None = None
    tol: float = 1e-8
    seed: int | None = None
    horizon: float = 1000.0
    margin: float = 1e-6
    subset: str = "all"

    def __post_init__(self):
        for name in ("tol", "margin", "horizon"):
            if not float(getattr(self, name)) > 0.0:
                raise ParseError(f"{name} must be positive")
        if self.command == "simulate" and self.seed is None:
            raise ParseError("simulate needs --seed so runs are reproducible")


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
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return obj


def _parse_instance(obj: dict, path) -> ProblemInstance:
    doc = obj.get("instance", obj)
    try:
        return instance_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad instance: {exc}") from exc


def _parse_solution(inst: ProblemInstance, obj: dict, path):
    if "solution" not in obj:
        raise ParseError(f"{path}: no 'solution' entry; run `solve` first")
    try:
        return solution_from_json(inst, obj["solution"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad solution: {exc}") from exc


def _parse_budget(obj: dict, path) -> BudgetInstance:
    try:
        items = tuple(
            ItemType(
                id=rec.get("id", f"item{k}"),
                arrival_rate=rec["rate"],
                curve=curve_from_json(rec["curve"]),
                auction=AuctionKind.parse(rec["auction"]),
            )
            for k, rec in enumerate(obj["items"])
        )
        return BudgetInstance(
            items=items,
            values=np.asarray(obj["values"], dtype=float),
            budget=float(obj["budget"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad budget problem: {exc}") from exc


def _emit_json(doc: dict, output) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if output is None:
        print(text)
    else:
        Path(output).write_text(text + "\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(cfg: RunConfig) -> int:
    obj = _load_json(cfg.input)
    inst = _parse_instance(obj, cfg.input)
    sol = solve(inst, tol=cfg.tol, margin=cfg.margin)
    doc = {
        "instance": inst.to_json(),
        "solution": solution_to_json(inst, sol),
        "certificate": {name: float(value) for name, value, _ in sol.report.rows()},
    }
    _emit_json(doc, cfg.output)
    passed = sol.report.passed
    _status(
        f"solved {inst.n_items} items / {inst.n_contracts} contracts: "
        f"primal {sol.report.primal_value:.10g}, gap {sol.report.gap:.3e}"
        + ("" if passed else f"; certificate FAILED at tol {sol.report.tol:g}")
    )
    return 0 if passed else 3


def _cmd_certify(cfg: RunConfig) -> int:
    obj = _load_json(cfg.input)
    inst = _parse_instance(obj, cfg.input)
    sol = _parse_solution(inst, obj, cfg.input)
    # parsing recomputed the certificate; only the tolerance it is read at changes
    report = replace(sol.report, tol=cfg.tol)
    if cfg.output is not None:
        report.to_csv(cfg.output)
    for name, value, ok in report.rows():
        print(f"{name:>28s}  {value: .12e}  {'ok' if ok else 'FAIL'}")
    print(f"{'certified' if report.passed else 'FAILED'} at tol {cfg.tol:g}")
    return 0 if report.passed else 3


def _cmd_simulate(cfg: RunConfig) -> int:
    obj = _load_json(cfg.input)
    inst = _parse_instance(obj, cfg.input)
    if "policy" in obj:
        rec = obj["policy"]
        try:
            policy = BidPolicy(
                bids=np.asarray(rec["bids"], dtype=float),
                gamma=np.asarray(rec["gamma"], dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{cfg.input}: bad policy: {exc}") from exc
    elif "solution" in obj:
        sol = _parse_solution(inst, obj, cfg.input)
        policy = policy_from_primal(inst, sol.primal)
    else:
        sol = solve(inst, tol=cfg.tol, margin=cfg.margin)
        policy = policy_from_primal(inst, sol.primal)
    try:
        policy.check(inst)
    except ValueError as exc:
        raise ParseError(f"{cfg.input}: policy does not fit the instance: {exc}") from exc

    csv_path = None if cfg.output is None else str(Path(cfg.output).with_suffix(".csv"))
    report = simulate(
        inst, policy, cfg.horizon, cfg.seed, csv_path=csv_path, json_path=cfg.output
    )
    if cfg.output is None:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    ok = report.fulfillment_ok()
    _status(
        f"simulated horizon {cfg.horizon:g} over {report.n_batches} batches: "
        f"cost rate {report.cost_rate:.6g}, fulfillment {'ok' if ok else 'SHORT'}"
    )
    return 0


def _cmd_feasibility(cfg: RunConfig) -> int:
    obj = _load_json(cfg.input)
    inst = _parse_instance(obj, cfg.input)
    chk = check_adequate_supply(inst, margin=cfg.margin)
    doc: dict = {"feasible": bool(chk), "slack": float(chk.slack), "margin": cfg.margin}
    if chk.certificate is not None:
        cert = chk.certificate
        doc["certificate"] = {
            "contracts": [str(c) for c in cert.contract_ids],
            "weights": {str(k): float(v) for k, v in cert.weights.items()},
            "demand": float(cert.demand),
            "reachable_supply": float(cert.reachable_supply),
            "weighted_shortfall": float(cert.weighted_shortfall),
        }
    _emit_json(doc, cfg.output)
    return 0 if chk else 2


def _cmd_budget(cfg: RunConfig) -> int:
    obj = _load_json(cfg.input)
    bi = _parse_budget(obj, cfg.input)
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
    _emit_json(doc, cfg.output)
    return 0


def _cmd_markowitz(cfg: RunConfig) -> int:
    obj = _load_json(cfg.input)
    try:
        mi = markowitz_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{cfg.input}: bad portfolio problem: {exc}") from exc
    x_primal = solve_markowitz_primal(mi, tol=cfg.tol)
    zeta, phi, x_dual = solve_markowitz_dual(mi, tol=cfg.tol)
    doc = {
        "position": [float(v) for v in x_primal],
        "position_from_dual": [float(v) for v in x_dual],
        "objective": float(markowitz_objective(mi, x_primal)),
        "margins": [float(v) for v in phi],
        "zeta": [float(v) for v in zeta],
        "max_disagreement": float(np.max(np.abs(x_primal - x_dual))),
    }
    _emit_json(doc, cfg.output)
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


def bifurcation_cost_sweep(rate2_grid, targets=(0.3, 0.3), tol=1e-8) -> list[dict]:
    """Sweep the shared item's price scale through the three-item chain.

    Items 1 and 3 are exclusive to contracts 1 and 2 (exponential price
    rates 1/2 and 2); item 2 is shared and its rate sweeps the grid.  A
    large rate makes the shared item cheap, both contracts fill from it,
    and their pseudo-bids rho collapse onto one value; a small rate splits
    the contracts onto their private items and the pseudo-bids separate.
    """
    rows = []
    for r2 in np.asarray(rate2_grid, dtype=float):
        inst = _chain_instance((0.5, float(r2), 2.0), targets)
        sol = solve(inst, tol=tol)
        rows.append(
            {
                "rate_2": float(r2),
                "rho": sol.dual.rho.copy(),
                "mu": sol.dual.mu.copy(),
                "bids": sol.primal.x.copy(),
            }
        )
    return rows


def bifurcation_supply_sweep(target1_grid, tol=1e-8) -> list[dict]:
    """Scale the chain's targets (C, 2C) toward full capacity.

    Price rates are fixed at (1/10, 1, 10), so item 1 is expensive and item
    3 cheap.  Small targets let each contract buy only its cheapest reachable
    item and the pseudo-bids sit far apart; as C approaches 1 the demand
    2C + C presses against the total arrival rate 3, every item is needed,
    the shared item binds for both contracts, and the pseudo-bids meet while
    the bids grow.
    """
    rows = []
    for c1 in np.asarray(target1_grid, dtype=float):
        inst = _chain_instance((0.1, 1.0, 10.0), (float(c1), 2.0 * float(c1)))
        sol = solve(inst, tol=tol)
        rows.append(
            {
                "target_1": float(c1),
                "rho": sol.dual.rho.copy(),
                "mu": sol.dual.mu.copy(),
                "bids": sol.primal.x.copy(),
            }
        )
    return rows


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


def _figure_bifurcation_cost(outdir: Path, cfg: RunConfig) -> Path:
    grid = np.geomspace(1.0 / 16.0, 32.0, 41)
    rows = bifurcation_cost_sweep(grid, tol=cfg.tol)
    return _write_csv(
        outdir / "bifurcation_cost.csv", ["rate_2"] + _SWEEP_HEADER, _sweep_rows("rate_2", rows)
    )


def _figure_bifurcation_supply(outdir: Path, cfg: RunConfig) -> Path:
    grid = np.concatenate([np.linspace(0.05, 0.95, 19), [0.99]])
    rows = bifurcation_supply_sweep(grid, tol=cfg.tol)
    return _write_csv(
        outdir / "bifurcation_supply.csv", ["target_1"] + _SWEEP_HEADER, _sweep_rows("target_1", rows)
    )


def _figure_sparsity(outdir: Path, cfg: RunConfig) -> Path:
    """Solve one large random instance and record how sparse the optimum is.

    d counts the instance's edges, d_star the edges carrying allocation at
    the optimum; the certificate is computed at a looser bar than the small
    commands because the instance has a quarter-million edges.
    """
    rng = np.random.default_rng(0 if cfg.seed is None else cfg.seed)
    inst = random_sparse_instance(rng)
    sol = solve(inst, tol=cfg.tol, margin=cfg.margin, certify_tol=1e-5)
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


def _cmd_figures(cfg: RunConfig) -> int:
    outdir = Path(cfg.output) if cfg.output is not None else Path("figures")
    outdir.mkdir(parents=True, exist_ok=True)
    chosen = cfg.subset
    if chosen not in _SUBSETS:
        raise ParseError(f"unknown figure set {chosen!r}; pick one of {', '.join(_SUBSETS)}")
    written = []
    if chosen in ("all", "curves"):
        written.append(_figure_curves(outdir))
    if chosen in ("all", "bifurcation-cost"):
        written.append(_figure_bifurcation_cost(outdir, cfg))
    if chosen in ("all", "bifurcation-supply"):
        written.append(_figure_bifurcation_supply(outdir, cfg))
    if chosen in ("all", "sparsity"):
        written.append(_figure_sparsity(outdir, cfg))
    for p in written:
        _status(f"wrote {p}")
    return 0


# ---------------------------------------------------------------------------
# wiring

_COMMANDS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "feasibility": _cmd_feasibility,
    "budget": _cmd_budget,
    "markowitz": _cmd_markowitz,
    "figures": _cmd_figures,
}


def run(config: RunConfig) -> int:
    """Dispatch one configured command; returns the process exit status."""
    return _COMMANDS[config.command](config)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, but 2 means "infeasible" here;
    # route usage problems to 1 with every other bad input
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bidopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "solve": "solve an instance; write instance + solution + certificate JSON",
        "certify": "recheck a solved document's optimality certificate",
        "simulate": "replay a solved document or explicit policy through the simulator",
        "feasibility": "run the adequate-supply check; report witness or certificate",
        "budget": "solve the budget-capped bidder; report multiplier and bids",
        "markowitz": "solve the cost-aware portfolio by primal and dual routes",
        "figures": "regenerate the CSV data sets behind the standard plots",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", help="path to the command's JSON input")
        p.add_argument("--output", help="result path (directory for figures); stdout if omitted")
        p.add_argument("--tol", type=float, default=1e-8, help="solver / certificate tolerance")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (required to simulate)")
        p.add_argument("--horizon", type=float, default=1000.0, help="simulated time span")
        p.add_argument("--margin", type=float, default=1e-6, help="capacity margin for feasibility")
        if name == "figures":
            p.add_argument("subset", nargs="?", default="all", choices=_SUBSETS,
                           help="which data set to regenerate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            input=args.input,
            output=args.output,
            tol=args.tol,
            seed=args.seed,
            horizon=args.horizon,
            margin=args.margin,
            subset=getattr(args, "subset", "all"),
        )
        return run(config)
    except ParseError as exc:
        print(f"bidopt: {exc}", file=sys.stderr)
        return 1
    except InfeasibleInstance as exc:
        print(f"bidopt: infeasible: {exc}", file=sys.stderr)
        return 2
    except (NotConverged, related.NotConverged) as exc:
        print(f"bidopt: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"bidopt: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
