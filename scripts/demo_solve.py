#!/usr/bin/env python3
"""Solve, certify, and replay a small mixed-auction instance end to end."""
import numpy as np

from bidopt import (
    BoundedUniform,
    Contract,
    Exponential,
    Hyperbolic,
    ItemType,
    build_instance,
    policy_from_primal,
    simulate,
    solve,
)


def main() -> None:
    items = [
        ItemType("news", 1.2, Exponential(1.0), "second_price"),
        ItemType("video", 0.8, Hyperbolic(1.0), "first_price"),
        ItemType("social", 1.0, BoundedUniform(2.0), "second_price"),
    ]
    contracts = [
        Contract("brand", 0.45, {"news": 1.0, "video": 0.6}),
        Contract("retail", 0.55, {"video": 0.9, "social": 1.3}),
    ]
    inst = build_instance(items, contracts)

    sol = solve(inst)
    print("bids per item type:", np.round(sol.primal.x, 6))
    print("pseudo-bids per contract:", np.round(sol.dual.rho, 6))
    print()
    print("certificate:")
    for name, value, ok in sol.report.rows():
        print(f"  {name:<26} {value: .3e}  {'ok' if ok else 'FAIL'}")
    print()

    rep = simulate(inst, policy_from_primal(inst, sol.primal), horizon=20000.0, seed=7)
    print(f"replayed {rep.horizon:g} time units (Poisson arrivals, seed {rep.seed})")
    for i, cid in enumerate(c.id for c in contracts):
        print(
            f"  {cid}: realized {rep.value_rate[i]:.4f} +- {rep.value_rate_se[i]:.4f}"
            f"  (target {rep.targets[i]:.4f})"
        )
    print(
        f"  spend rate: realized {rep.cost_rate:.4f} +- {rep.cost_rate_se:.4f}"
        f"  (predicted {rep.predicted_cost_rate:.4f})"
    )


if __name__ == "__main__":
    main()
