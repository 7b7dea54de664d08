"""The benchmark's workloads: which instances each one solves, and how.

Every instance comes from a fixed generator seed, so each run does the same
work; the run's ``--seed`` only orders the instances within a pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import bidopt

# simulate seed of every replay; fixed so that each replay check has one outcome
REPLAY_SEED = 2026


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], list]  # -> [(case name, ProblemInstance)]
    tol: float  # certificate tolerance of the solve and of the recheck
    arrivals: float  # arrivals replayed per instance
    cli: bool  # run through `bidopt solve/certify/simulate` and JSON files


def sparse_large() -> list:
    # the release-gate generator at a size that still reaches the
    # cutting-plane master (29 LP solves) and repeats within a run
    rng = np.random.default_rng(1)
    return [("sparse-60x400-seed1", bidopt.random_sparse_instance(rng, n_contracts=60, n_items=400))]


def _fitted_curve(rng, first_price: bool):
    """An empirical curve fitted to exponential price samples.

    First-price items need a 2-concave curve; coarser clusters smooth the fit
    until it passes the same check `bidopt` applies.
    """
    prices = rng.exponential(1.0 / rng.uniform(0.5, 2.0), size=4000)
    for clusters in (16, 8, 4):
        curve = bidopt.fit_empirical(prices, min_support=float(np.quantile(prices, 0.9)) / clusters)
        if not first_price or bidopt.alpha_concavity_check(curve, 2.0):
            return curve
    raise RuntimeError("no 2-concave fit for a first-price item")


# (seed, contracts, items, auctions of the empirical items)
MIXED = [
    (11, 6, 16, ("first_price", "second_price")),
    (12, 8, 24, ("second_price", "second_price")),
    (13, 10, 30, ("second_price",)),
]


def mixed_pipeline() -> list:
    cases = []
    for seed, n, m, auctions in MIXED:
        rng = np.random.default_rng(seed)
        base = bidopt.random_instance(rng, n, m, edge_prob=0.5, slack_margin=0.02)
        items = list(base.items)
        for j, auction in enumerate(auctions):
            it = items[j]
            items[j] = bidopt.ItemType(it.id, it.arrival_rate, _fitted_curve(rng, auction == "first_price"), auction)
        cases.append((f"mixed-{seed}-{n}x{m}", bidopt.build_instance(items, base.contracts)))
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse-large", sparse_large, tol=1e-5, arrivals=1e6, cli=False),
        Workload("mixed-pipeline", mixed_pipeline, tol=1e-6, arrivals=3e6, cli=True),
    )
}
