"""Bid optimization for guaranteed-delivery contracts over auction supply.

Core pipeline: describe supply curves per item type (`curves`), wrap them in
per-auction acquisition costs (`costs`), assemble contracts into a problem
instance (`model`), solve and certify the bidding plan (`solver`), and replay
it against sampled auctions (`simulate`).  `related` carries the adjacent
formulations (budget pacing, order-book portfolios); `cli` the command-line
front end.

The names below are the standard surface; anything else is reachable from
its submodule.  `NotConverged` is one class, raised by the contract solver
and by `related`'s portfolio solvers alike.
"""

from .costs import AcquisitionCost, AuctionKind, DarkPoolCheck, dark_pool_identity_check
from .curves import (
    BoundedUniform,
    Empirical,
    Exponential,
    Hyperbolic,
    PowerLawDensity,
    SupplyCurve,
    alpha_concavity_check,
    curve_from_json,
    fit_empirical,
)
from .model import (
    Contract,
    ItemType,
    ProblemInstance,
    SupplyCheck,
    build_instance,
    check_adequate_supply,
    instance_from_json,
    random_instance,
    random_sparse_instance,
)
from .simulate import BidPolicy, SimulationReport, ab_compare, policy_from_primal, simulate
from .solver import (
    CertificateReport,
    DualSolution,
    InfeasibleInstance,
    NotConverged,
    PrimalSolution,
    Solution,
    certify,
    recover_primal,
    solution_from_json,
    solution_to_json,
    solve,
    solve_dual,
)

__all__ = [
    "AcquisitionCost",
    "AuctionKind",
    "BidPolicy",
    "BoundedUniform",
    "CertificateReport",
    "Contract",
    "DarkPoolCheck",
    "DualSolution",
    "Empirical",
    "Exponential",
    "Hyperbolic",
    "InfeasibleInstance",
    "ItemType",
    "NotConverged",
    "PowerLawDensity",
    "PrimalSolution",
    "ProblemInstance",
    "SimulationReport",
    "Solution",
    "SupplyCheck",
    "SupplyCurve",
    "ab_compare",
    "alpha_concavity_check",
    "build_instance",
    "certify",
    "check_adequate_supply",
    "curve_from_json",
    "dark_pool_identity_check",
    "fit_empirical",
    "instance_from_json",
    "policy_from_primal",
    "random_instance",
    "random_sparse_instance",
    "recover_primal",
    "simulate",
    "solution_from_json",
    "solution_to_json",
    "solve",
    "solve_dual",
]
