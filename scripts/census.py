#!/usr/bin/env python3
"""Certificate census: solve 868 fixed instances, then save or compare the results.

The draws of test_04 (50), test_random_instances_certify (302), test_weak_duality
(301) and the fuzz corpus (150), the 4 benchmark instances and the 61 bifurcation
points.  About a minute: `--save FILE.npz` on one checkout, `--compare FILE.npz` on another.
Each instance's master LP solves (`Solution.iterations`), LP solves of every kind (the master's,
the supply check's and each routing verdict's), HiGHS simplex iterations and `solve` wall seconds
are saved too, and `--compare` prints their census totals: the counts are what wall time on a busy
host cannot blur.  Each replay's wall seconds are saved as well, and `--compare` prints their total.
The primal value P (the plan's expected spend) is saved as well, and `--compare` prints the
largest |dP| / (1 + |P|).
Each certified plan is also replayed (1e5 expected arrivals, 20 batches, seeded with the
instance's index, so the replays are independent); the largest |value - target| / se over
contracts and |cost - primal value| / se are saved, and `--compare` prints how many replays
exceed 3 standard errors next to the count expected by chance: sum_k 1 - (1 - p)^n_k over the
replays, with n_k comparisons in replay k (its contracts, or 1 for the cost) and p the
two-sided tail of Student's t with 19 degrees of freedom beyond 3.
Each plan's bids (`primal.x`) and each replay's cost rate are saved too, and `--compare` prints
how many instances' bids, replay z-scores and replay costs differ bitwise from the saved ones, and
for the costs the largest relative difference among those that differ (`n/a` for a save without
them).
Each instance's edge count and master LP rows (n contracts + 2 per item with an edge) are saved,
and `--compare` splits the master LP solves, simplex iterations and solve seconds at
`_ALL_EDGES_PER_ROW` edges per master row, where the master starts from every edge column
(`n/a` for a save without the sizes).
Each solve's tie-root work (`Solution.stats`: `tie_root_calls` batched root calls and
`tie_root_evals` balance evaluations) and its priced supply check (`supply_lp_rounds` LP solves
and `supply_lp_columns` final model columns) are saved too, and `--compare` prints their totals
(`n/a` for a save without them).
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import t as student_t

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bidopt import NotConverged, policy_from_primal, random_instance, simulate, solve  # noqa: E402
from bidopt.cli import _chain_instance  # noqa: E402
from bidopt.model import _lp_work  # noqa: E402
from bidopt.solver import _ALL_EDGES_PER_ROW  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def corpus():
    """Yield (instance, solve keyword arguments) in a fixed order."""
    # the property tests' 300 drawn seeds each, plus their pinned examples
    drawn = {b: np.random.default_rng(b).integers(0, 2**32, 300).tolist() for b in (12345, 54321)}
    for seeds, contracts, items, kw in ((range(7000, 7050), (1, 11), (2, 51), {}),
                                        ([*drawn[12345], 2497590332, 100150], (2, 12), (2, 6), {"tol": 1e-9}),
                                        ([*drawn[54321], 1973774220], (2, 8), (2, 5), {"tol": 1e-9})):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            yield random_instance(rng, int(rng.integers(*contracts)), int(rng.integers(*items))), kw
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n, m, p, s = rng.integers(2, 41), rng.integers(2, 121), rng.uniform(0.05, 0.9), rng.uniform(0.002, 0.05)
        yield random_instance(rng, int(n), int(m), edge_prob=float(p), slack_margin=float(s)), {}
    yield from ((inst, {"certify_tol": w.tol}) for w in WORKLOADS.values() for _, inst in w.build())
    chains = [((0.5, r, 2.0), (0.3, 0.3)) for r in np.geomspace(1.0 / 16.0, 32.0, 41)]
    chains += [((0.1, 1.0, 10.0), (c, 2.0 * c)) for c in [*np.linspace(0.05, 0.95, 19), 0.99]]
    yield from ((_chain_instance(rates, targets), {}) for rates, targets in chains)


REPLAY_BATCHES = 20
# the counters of `Solution.stats` saved per instance
STATS = ("tie_root_calls", "tie_root_evals", "supply_lp_rounds", "supply_lp_columns")


def replay_z(inst, sol, seed: int) -> tuple[float, float, float]:
    """Largest standard-error distance of a replay from the targets, that of its cost from the plan's, and the cost."""
    rep = simulate(inst, policy_from_primal(inst, sol.primal), 1e5 / float(inst.rates.sum()), seed=seed,
                   n_batches=REPLAY_BATCHES)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.abs(rep.value_rate - inst.targets) / rep.value_rate_se
        cost = abs(rep.cost_rate - sol.report.primal_value) / rep.cost_rate_se
    return float(np.max(value)), float(cost), float(rep.cost_rate)


def run() -> dict:
    rows = []
    for index, (inst, kw) in enumerate(corpus()):
        size = inst.n_edges, inst.n_contracts + 2 * np.count_nonzero(inst.item_major[2])
        before, start = dict(_lp_work), time.perf_counter()
        try:
            sol = solve(inst, **kw)
        except NotConverged:
            sol = None
        work = (_lp_work["solves"] - before["solves"], _lp_work["simplex_iterations"] - before["simplex_iterations"],
                time.perf_counter() - start)
        if sol is None:
            rows.append((np.full(inst.n_contracts, np.nan), np.full(inst.n_items, np.nan), *[np.nan] * 4, False,
                         np.nan, *work, np.nan, np.nan, np.nan, np.nan, *size, *[np.nan] * len(STATS)))
            continue
        rep = sol.report
        start = time.perf_counter()
        z = replay_z(inst, sol, index) if rep.passed else (np.nan, np.nan, np.nan)
        replay_s = time.perf_counter() - start if rep.passed else np.nan
        rows.append((sol.dual.rho, sol.primal.x, rep.dual_value, rep.primal_value, rep.gap, rep.max_comp_slack,
                     rep.passed, sol.iterations, *work, *z, replay_s, *size,
                     *(sol.stats[key] for key in STATS)))
    rho, bids, *rest = zip(*rows)
    names = ("D", "P", "gap", "comp", "certified", "master_solves", "lp_solves", "lp_iterations", "solve_s",
             "replay_value_z", "replay_cost_z", "replay_cost", "replay_s", "n_edges", "master_rows", *STATS)
    out = dict(zip(names, map(np.asarray, rest)))
    return dict(out, rho=np.concatenate(rho), rho_len=np.array([r.size for r in rho]),
                bids=np.concatenate(bids), bids_len=np.array([b.size for b in bids]))


def differ_bitwise(now: dict, old: dict, key: str) -> int:
    """How many instances' `key` entries (NaN included) are not bit-identical to the saved ones."""
    if f"{key}_len" in now:
        split = np.cumsum(now[f"{key}_len"])[:-1]
        pairs = zip(np.split(now[key], split), np.split(old[key], split))
    else:
        pairs = zip(now[key], old[key])
    return sum(not np.array_equal(a, b, equal_nan=True) for a, b in pairs)


def largest_relative_difference(now: np.ndarray, old: np.ndarray) -> float:
    """The largest |now - old| / |old| over the entries that differ (NaN where both are NaN counts as equal)."""
    differ = (now != old) & ~(np.isnan(now) & np.isnan(old))
    return float(np.max(np.abs(now[differ] - old[differ]) / np.abs(old[differ])))


def all_edges(run: dict):
    """Which instances have at most _ALL_EDGES_PER_ROW edges per master row (None for a save without sizes)."""
    if "n_edges" not in run:
        return None
    return run["n_edges"] <= _ALL_EDGES_PER_ROW * run["master_rows"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--save", metavar="FILE.npz")
    group.add_argument("--compare", metavar="FILE.npz")
    args = ap.parse_args()
    now = run()
    if args.save:
        np.savez(args.save, **now)
        return print(f"saved {now['D'].size} instances, {int(now['certified'].sum())} certified")
    old = dict(np.load(args.compare))
    split = np.cumsum(now["rho_len"])[:-1]
    same = [np.array_equal(a, b) for a, b in zip(np.split(now["rho"], split), np.split(old["rho"], split))]
    moved = np.flatnonzero(~(np.array(same) & (now["D"] == old["D"])))
    d_rho = np.where(now["rho"] == old["rho"], 0.0, np.abs(now["rho"] / old["rho"] - 1.0))
    print(f"certified: {int(now['certified'].sum())} of {now['D'].size} (saved {int(old['certified'].sum())})")
    more = f" and {moved.size - 10} more" if moved.size > 10 else ""
    print(f"rho and D bit-identical: {now['D'].size - moved.size}; differ at {moved.size}: {moved[:10].tolist()}{more}")
    print(f"max |dD|/(1+|D|): {np.nanmax(np.abs(now['D'] - old['D']) / (1 + np.abs(old['D']))):.3g}, "
          f"max relative d rho: {np.nanmax(d_rho):.3g}")
    if "P" in old:
        print(f"max |dP|/(1+|P|): {np.nanmax(np.abs(now['P'] - old['P']) / (1 + np.abs(old['P']))):.3g}")
    print(", ".join(f"max |{k}|: {np.nanmax(np.abs(now[k])):.3g} (saved {np.nanmax(np.abs(old[k])):.3g})"
                    for k in ("gap", "comp")))
    for key, what, fmt in (("master_solves", "master LP solves", ".0f"), ("lp_solves", "LP solves", ".0f"),
                           ("lp_iterations", "simplex iterations", ".0f"), ("solve_s", "solve seconds", ".1f"),
                           ("replay_s", "replay seconds", ".1f"), ("tie_root_calls", "tie-root calls", ".0f"),
                           ("tie_root_evals", "tie-root balance evaluations", ".0f"),
                           ("supply_lp_rounds", "supply LP solves", ".0f"),
                           ("supply_lp_columns", "supply LP columns", ".0f")):
        total = [f"{np.nansum(run[key]):{fmt}}" if key in run else "n/a" for run in (now, old)]
        print(f"{what}: {total[0]} (saved {total[1]})")
    sides = [(side, all_edges(side)) for side in (now, old)]
    split = [f"{few.sum()} of {few.size}" if few is not None else "n/a" for _, few in sides]
    print(f"instances with <= {_ALL_EDGES_PER_ROW} edges per master row: {split[0]} (saved {split[1]})")
    for key, what, fmt in (("master_solves", "master LP solves", ".0f"), ("lp_iterations", "simplex iterations", ".0f"),
                           ("solve_s", "solve seconds", ".1f")):
        total = [f"{np.nansum(side[key][few]):{fmt}} / {np.nansum(side[key][~few]):{fmt}}"
                 if few is not None and key in side else "n/a" for side, few in sides]
        print(f"{what} at <= / > {_ALL_EDGES_PER_ROW} edges per master row: {total[0]} (saved {total[1]})")
    tail = 2.0 * float(student_t.sf(3.0, REPLAY_BATCHES - 1))
    for k, comparisons in (("value", now["rho_len"]), ("cost", np.ones_like(now["rho_len"]))):
        z = [run.get(f"replay_{k}_z") for run in (now, old)]
        beyond = [f"{int(np.sum(v > 3.0))}, largest {np.nanmax(v):.3g}" if v is not None else "n/a" for v in z]
        replayed = ~np.isnan(z[0])
        expected = float(np.sum(1.0 - (1.0 - tail) ** comparisons[replayed]))
        print(f"replays with {k} beyond 3 se: {beyond[0]}, {expected:.1f} expected (saved {beyond[1]})")
    for key, what in (("bids", "instances' bids"), ("replay_value_z", "replay value z-scores"),
                      ("replay_cost_z", "replay cost z-scores"), ("replay_cost", "replay costs")):
        count = differ_bitwise(now, old, key) if key in old else "n/a"
        if count and key == "replay_cost":
            count = f"{count}, largest relative difference {largest_relative_difference(now[key], old[key]):.3g}"
        print(f"{what} that differ bitwise: {count}")


if __name__ == "__main__":
    main()
