"""Problem instances: item types, contracts, and the adequate-supply check.

An instance couples M item types (arrival rate, supply curve, auction kind)
with N contracts (target value rate, sparse positive valuations).  The
valuation sparsity pattern is compiled once into flat edge arrays -- the
solver and the feasibility check both run off these, never off dense N x M
matrices.

Edges are stored contract-major (sorted by contract position, then item
position), with a precomputed item-major permutation so per-item reductions
are contiguous-slice operations.

The adequate-supply check returns a witness allocation, or an
:class:`InfeasibilityCertificate`: plain data (the LP duals y and a Hall-type
ratio) that can be rechecked from the targets and capacities alone.

Every LP in bidopt is built and solved here, on scipy's private HiGHS
binding: one transportation LP over the edges backs the adequate-supply
check, :func:`max_scalable_target` and the solver's routing LP, and the
solver's cutting-plane master is a persistent model on the same layer.
The supply check's LP is priced: it starts from each contract's 10 best
edges and brings in edges by reduced cost, re-solving warm, until a witness
appears or none prices out.  On 2 cores the check takes 2.4 ms instead of
12 ms on the 60 x 400 benchmark draw (660 of 3,721 columns, one solve), and
7 ms instead of 110 ms on the 200 x 1200 draw; at 1.01 times that draw's
largest satisfiable targets it takes 0.24 s instead of 2.8 s.
:func:`max_scalable_target` stays over every edge: it is off the solve's
path, and its objective moves with every column, so pricing runs to the
end (10 and 34 rounds on those draws).  The routing LP's near-tight edges
are its whole model.
The binding is loaded straight from its file, without running the
``scipy.optimize`` package (see :func:`_load_highs`).
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .costs import AuctionKind, FamilyGroups, _gate_first_price
from .curves import SupplyCurve, _json_number, _json_object, curve_from_json

__all__ = [
    "ItemType",
    "Contract",
    "ProblemInstance",
    "SupplyCheck",
    "InfeasibilityCertificate",
    "DuplicateId",
    "EmptyUsefulSet",
    "LPFailure",
    "build_instance",
    "check_adequate_supply",
    "max_scalable_target",
    "instance_from_json",
    "item_from_json",
    "random_instance",
    "random_sparse_instance",
]


class LPFailure(RuntimeError):
    """HiGHS ended an LP of the supply check or the target scaling at no optimum."""


class DuplicateId(ValueError):
    """Two items (or two contracts) share an id."""


class EmptyUsefulSet(ValueError):
    """A contract values no item positively."""

    def __init__(self, contract_id):
        self.contract_id = contract_id
        super().__init__(f"contract {contract_id!r} has no positive valuation")


@dataclass(frozen=True)
class ItemType:
    """One auctioned item type: arrivals at ``arrival_rate`` priced by ``curve``.

    A first-price item is checked for 2-concavity when it is built, and
    raises NotTwoConcave when its curve fails.
    """

    id: str | int
    arrival_rate: float
    curve: SupplyCurve
    auction: AuctionKind

    def __post_init__(self):
        object.__setattr__(self, "auction", AuctionKind.parse(self.auction))
        object.__setattr__(self, "arrival_rate", _json_number(self.arrival_rate, f"item {self.id!r}: arrival_rate"))
        _gate_first_price(self.curve, self.auction)


@dataclass(frozen=True)
class Contract:
    """A fulfillment contract: accumulate value at rate ``target_rate``.

    ``valuations`` maps item ids to strictly positive per-item values; zero
    entries are dropped on construction, negatives are rejected.
    """

    id: str | int
    target_rate: float
    valuations: Mapping[str | int, float]

    def __post_init__(self):
        object.__setattr__(self, "target_rate", _json_number(self.target_rate, f"contract {self.id!r}: target_rate"))
        kept = {}
        for j, v in self.valuations.items():
            v = _json_number(v, f"contract {self.id!r}: valuation for {j!r}", low=0.0)
            if v > 0.0:
                kept[j] = v
        object.__setattr__(self, "valuations", kept)


class _Items:
    """What a collection of ``ItemType``s, ``self.items``, gives every model built on it."""

    @cached_property
    def rates(self) -> np.ndarray:
        """Arrival rates per item position."""
        out = np.array([it.arrival_rate for it in self.items])
        out.setflags(write=False)
        return out

    @cached_property
    def groups(self) -> FamilyGroups:
        """The items grouped by curve family and auction kind: every grouped cost call goes through it."""
        return FamilyGroups([it.curve for it in self.items],
                            [it.auction is AuctionKind.FIRST_PRICE for it in self.items])


@dataclass(frozen=True)
class ProblemInstance(_Items):
    """Validated instance with a compiled sparse edge index.

    Edge k connects contract position ``edge_i[k]`` to item position
    ``edge_j[k]`` with valuation ``edge_v[k]``; edges are contract-major.
    ``contract_start`` slices edges per contract; ``by_item``/``item_start``
    give the item-major view (``by_item[item_start[j]:item_start[j+1]]`` are
    the edge indices into item j).
    """

    items: tuple[ItemType, ...]
    contracts: tuple[Contract, ...]
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_v: np.ndarray
    contract_start: np.ndarray
    by_item: np.ndarray
    item_start: np.ndarray

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_contracts(self) -> int:
        return len(self.contracts)

    @property
    def n_edges(self) -> int:
        return int(self.edge_v.size)

    @cached_property
    def masses(self) -> np.ndarray:
        """Total mass of each item's supply curve: its largest win rate per auction."""
        out = np.array([it.curve.total_mass for it in self.items])
        out.setflags(write=False)
        return out

    @cached_property
    def capacities(self) -> np.ndarray:
        """Most wins per unit time each item can supply: arrival rate times curve mass."""
        out = self.rates * self.masses
        out.setflags(write=False)
        return out

    @cached_property
    def targets(self) -> np.ndarray:
        """Target value rates per contract position."""
        out = np.array([c.target_rate for c in self.contracts])
        out.setflags(write=False)
        return out

    @cached_property
    def item_major(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(edge_v, edge_i) in item-major order, the items with edges, and where each one's run starts."""
        nonempty = self.item_start[:-1] < self.item_start[1:]
        return self.edge_v[self.by_item], self.edge_i[self.by_item], nonempty, self.item_start[:-1][nonempty]

    @cached_property
    def positions(self) -> tuple[dict, dict]:
        """(contract id -> contract position, item id -> item position)."""
        return {c.id: k for k, c in enumerate(self.contracts)}, {it.id: k for k, it in enumerate(self.items)}

    def mu_of(self, rho: np.ndarray) -> np.ndarray:
        """mu_j = max_{i in B_j} v_ij rho_i per item (0 for items no contract values)."""
        v, i, nonempty, starts = self.item_major
        mu = np.zeros(self.n_items)
        if starts.size:
            mu[nonempty] = np.maximum.reduceat(v * rho[i], starts)
        return mu

    def first_argmax(self, rho: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Item-major position of the first edge attaining mu_j = mu_of(rho)_j, per item with edges."""
        v, i, nonempty, starts = self.item_major
        counts = np.diff(self.item_start)[nonempty]
        sent = np.where(v * rho[i] == np.repeat(mu[nonempty], counts), np.arange(v.size), v.size)
        return np.minimum.reduceat(sent, starts) if starts.size else np.array([], dtype=int)

    def contract_edges(self, i: int) -> slice:
        return slice(int(self.contract_start[i]), int(self.contract_start[i + 1]))

    def item_edges(self, j: int) -> np.ndarray:
        return self.by_item[int(self.item_start[j]) : int(self.item_start[j + 1])]

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "items": [
                {
                    "id": it.id,
                    "rate": it.arrival_rate,
                    "curve": it.curve.to_json(),
                    "auction": it.auction.value,
                }
                for it in self.items
            ],
            "contracts": [
                {
                    "id": c.id,
                    "target": c.target_rate,
                    "valuations": {str(j): v for j, v in c.valuations.items()},
                }
                for c in self.contracts
            ],
        }


def build_instance(items: Sequence[ItemType], contracts: Sequence[Contract]) -> ProblemInstance:
    """Validate ids and compile the edge index; ValueError when there is no contract."""
    items = tuple(items)
    contracts = tuple(contracts)
    if not contracts:
        raise ValueError("the instance has no contracts")
    item_pos: dict = {}
    for pos, it in enumerate(items):
        if it.id in item_pos:
            raise DuplicateId(f"item id {it.id!r} appears twice")
        item_pos[it.id] = pos
    seen = set()
    for c in contracts:
        if c.id in seen:
            raise DuplicateId(f"contract id {c.id!r} appears twice")
        seen.add(c.id)

    ei, ej, ev = [], [], []
    for pos, c in enumerate(contracts):
        if not c.valuations:
            raise EmptyUsefulSet(c.id)
        cols = []
        for j, v in c.valuations.items():
            if j not in item_pos:
                raise ValueError(f"contract {c.id!r} values unknown item {j!r}")
            cols.append((item_pos[j], v))
        cols.sort()
        for jpos, v in cols:
            ei.append(pos)
            ej.append(jpos)
            ev.append(v)

    edge_i = np.asarray(ei, dtype=np.intp)
    edge_j = np.asarray(ej, dtype=np.intp)
    edge_v = np.asarray(ev, dtype=float)
    contract_start = np.searchsorted(edge_i, np.arange(len(contracts) + 1))
    by_item = np.argsort(edge_j, kind="stable")
    item_start = np.searchsorted(edge_j[by_item], np.arange(len(items) + 1))
    for arr in (edge_i, edge_j, edge_v, contract_start, by_item, item_start):
        arr.setflags(write=False)

    return ProblemInstance(
        items=items,
        contracts=contracts,
        edge_i=edge_i,
        edge_j=edge_j,
        edge_v=edge_v,
        contract_start=contract_start,
        by_item=by_item,
        item_start=item_start,
    )


def item_from_json(spec: dict) -> ItemType:
    """Rebuild an item from its entry in ``ProblemInstance.to_json``: id, rate, curve and auction."""
    curve = curve_from_json(_json_object(spec["curve"], f"item {spec['id']!r}: curve"))
    return ItemType(id=spec["id"], arrival_rate=spec["rate"], curve=curve, auction=spec["auction"])


def instance_from_json(obj: dict) -> ProblemInstance:
    """Rebuild an instance from its ``to_json`` form."""
    specs = enumerate(_json_object(obj, "instance")["items"])
    items = [item_from_json(_json_object(spec, f"item {k}")) for k, spec in specs]
    by_str = {str(it.id): it.id for it in items}
    contracts = []
    for k, spec in enumerate(obj["contracts"]):
        spec = _json_object(spec, f"contract {k}")
        valuations = _json_object(spec["valuations"], f"contract {spec['id']!r}: valuations")
        contracts.append(Contract(id=spec["id"], target_rate=spec["target"],
                                  valuations={by_str.get(str(j), j): v for j, v in valuations.items()}))
    return build_instance(items, contracts)


# ---------------------------------------------------------------------------
# adequate supply


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """A contract set whose demand provably exceeds the supply it can reach.

    ``weights`` is the full dual certificate y: the instance is infeasible at
    the given margin because

        sum_i y_i C_i  >  sum_j (1-margin) lambda_j mass_j max_{i in B_j} v_ij y_i

    where mass_j is the total mass of item j's supply curve
    (``weighted_shortfall`` is the difference).  ``contract_ids`` is the
    shortest prefix of the support, by descending weight, that violates the
    coarser Hall-type ratio ``demand / best_valuation > reachable_supply``
    (the capacity lambda_j mass_j it can reach), or the whole support when
    none does; the ratio fields describe it.
    """

    contract_ids: tuple
    weights: dict
    demand: float
    best_valuation: float
    reachable_supply: float
    weighted_shortfall: float


@dataclass(frozen=True)
class SupplyCheck:
    """Outcome of the adequate-supply feasibility check."""

    feasible: bool
    slack: float
    witness: np.ndarray | None = None
    certificate: InfeasibilityCertificate | None = field(default=None, repr=False)
    # the priced LP's solves and its final column count (edges and slacks)
    rounds: int = 0
    columns: int = 0

    def __bool__(self) -> bool:
        return self.feasible


# ---------------------------------------------------------------------------
# the HiGHS layer


_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _highs_spec(scipy_dirs: Sequence[str]) -> importlib.machinery.ModuleSpec:
    """Spec of scipy's HiGHS extension, looked up in ``optimize/_highspy`` under each of ``scipy_dirs``.

    That is where scipy >= 1.17 puts it; ImportError names the installed
    scipy and the module searched for when it is not there.
    """
    spec = importlib.machinery.PathFinder.find_spec(
        _HIGHS_MODULE, [os.path.join(d, "optimize", "_highspy") for d in scipy_dirs])
    if spec is None:
        from importlib.metadata import PackageNotFoundError, version

        try:
            installed = f"scipy {version('scipy')}"
        except PackageNotFoundError:
            installed = "no scipy"
        raise ImportError(f"bidopt needs scipy's HiGHS extension {_HIGHS_MODULE} (scipy >= 1.17); "
                          f"searched {list(scipy_dirs)} with {installed} installed")
    return spec


def _load_highs():
    """scipy's HiGHS extension, registered under its full name so a later ``import scipy.optimize`` reuses it.

    Running ``scipy.optimize/__init__.py`` to reach it would cost most of
    bidopt's import time, so the module is executed from its spec directly.
    """
    module = sys.modules.get(_HIGHS_MODULE)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = _highs_spec(scipy.submodule_search_locations if scipy is not None else [])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_HIGHS_MODULE] = module
    return module


_highs = _load_highs()
HighsLp, HighsModelStatus, HighsStatus, _Highs = (
    _highs.HighsLp, _highs.HighsModelStatus, _highs.HighsStatus, _highs._Highs)


# push HiGHS well below its default feasibility tolerances: model gaps and
# routing verdicts are read at the 1e-8 level, where 1e-7-feasible vertices lie
_LP_OPTIONS = {"output_flag": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# HiGHS reads bounds of 1e20 or more as infinite and rejects matrix values above 1e15
_INFINITE_BOUND, _LARGE_VALUE = 1e20, 1e15
# LP solves and simplex iterations over every HiGHS run in this process
_lp_work = {"solves": 0, "simplex_iterations": 0}


def _highs_status(status: HighsStatus, what: str) -> None:
    """Raise ValueError when HiGHS rejected a model or rows; run() would still report kOk."""
    if status == HighsStatus.kError:
        raise ValueError(f"HiGHS rejected {what}")


def _highs_model(cost, upper, row_lower, row_upper, start, index, value) -> _Highs:
    """HiGHS holding  min cost.x  s.t.  row_lower <= A x <= row_upper, 0 <= x <= upper; A in CSC form."""
    highs = _Highs()
    for key, val in _LP_OPTIONS.items():
        highs.setOptionValue(key, val)
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
    lp.num_row_ = lp.a_matrix_.num_row_ = row_lower.size
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, np.zeros(cost.size), upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    lp.a_matrix_.start_, lp.a_matrix_.index_ = start.astype(np.int32), index.astype(np.int32)
    lp.a_matrix_.value_ = value
    _highs_status(highs.passModel(lp), "the LP")
    return highs


def _run_lp(highs: _Highs) -> bool:
    """Solve (warm from the previous basis, if any); True when the model is optimal."""
    status = highs.run()
    _lp_work["solves"] += 1
    _lp_work["simplex_iterations"] += int(highs.getInfo().simplex_iteration_count)
    return status != HighsStatus.kError and highs.getModelStatus() == HighsModelStatus.kOptimal


def _slack_columns(n: int, price: float):
    """Extra columns for :func:`_transport_lp`: one slack per demand row at `price`."""
    return np.full(n, price), np.arange(n + 1), np.arange(n), np.ones(n)


def _transport_lp(inst: ProblemInstance, edge_cost, supply, demand, extra, edges=None, start=None,
                  enough: float = -np.inf):
    """min edge_cost.R + extra_cost.z  s.t.  lower <= V R + B z <= upper, S R <= supply, R, z >= 0.

    Edge column e has v_e in demand row ``edge_i[e]`` (V) and 1 in supply
    row ``n + edge_j[e]`` (S); with ``edges``, an index array, only those
    edges are columns, in that order, and ``edge_cost`` is theirs.
    ``demand`` is (lower, upper) and ``extra`` is (extra_cost, column
    starts, row indices, values), B in CSC form over the demand rows.

    Priced (delayed column generation; Ford & Fulkerson 1958, Dantzig &
    Wolfe 1960): the model starts from the edges at positions ``start`` in
    that list (all of them when None) and the extra columns.  After each
    optimal solve every edge outside the model is priced at
    c_e - v_e y_i - p_j under the demand-row duals y and the supply-row
    duals p; those below -1e-12 are appended to the live model, which is
    re-solved warm from its basis, until none prices out -- the last
    restricted optimum is then the full one.  The loop also stops once the
    objective is at most ``enough``.

    Returns (x, objective, row_dual, rounds, columns) with x = (R, z), R
    over the edge list with zeros off the model, the demand rows' duals
    before the supply rows', the solves made and the model's final column
    count; None when HiGHS ends a solve at no optimum.  Raises ValueError
    naming an input outside the range HiGHS accepts.
    """
    n = inst.n_contracts
    ei, ej, ev = inst.edge_i, inst.edge_j, inst.edge_v
    if edges is not None:
        ei, ej, ev = ei[edges], ej[edges], ev[edges]
    d = ev.size
    lower, upper = demand
    extra_cost, extra_start, extra_index, extra_value = extra
    for name, vals, limit, kind in (
        ("valuation", ev, _LARGE_VALUE, "matrix values"),
        ("contract target", extra_value, _LARGE_VALUE, "matrix values"),
        ("contract target", np.concatenate([lower, upper[np.isfinite(upper)]]), _INFINITE_BOUND, "row bounds"),
        ("item supply", supply, _INFINITE_BOUND, "row bounds"),
    ):
        bad = vals[~(np.abs(vals) < limit)]
        if bad.size:
            raise ValueError(f"{name} {bad[0]:g} is outside the range HiGHS accepts ({kind} below {limit:g})")
    cols = np.arange(d) if start is None else np.asarray(start)
    out = np.ones(d, dtype=bool)
    out[cols] = False
    k = cols.size
    cost = np.concatenate([edge_cost[cols], extra_cost])
    highs = _highs_model(
        cost, np.full(cost.size, np.inf),
        np.concatenate([lower, np.full(supply.size, -np.inf)]), np.concatenate([upper, supply]),
        np.concatenate([2 * np.arange(k), 2 * k + extra_start]),
        np.concatenate([np.column_stack([ei[cols], n + ej[cols]]).ravel(), extra_index]),
        np.concatenate([np.column_stack([ev[cols], np.ones(k)]).ravel(), extra_value]),
    )
    # each model column's place in x: the start edges, the extra columns, then the priced edges
    where = np.concatenate([cols, d + np.arange(extra_cost.size)])
    rounds = 0
    while True:
        rounds += 1
        if not _run_lp(highs):
            return None
        sol = highs.getSolution()
        objective = float(highs.getInfo().objective_function_value)
        row_dual = np.array(sol.row_dual)
        if objective <= enough:
            break
        rest = np.flatnonzero(out)
        reduced = edge_cost[rest] - ev[rest] * row_dual[ei[rest]] - row_dual[n + ej[rest]]
        new = rest[reduced < -1e-12]
        if not new.size:
            break
        k = new.size
        _highs_status(highs.addCols(k, edge_cost[new], np.zeros(k), np.full(k, np.inf), 2 * k,
                                    2 * np.arange(k, dtype=np.int32),
                                    np.column_stack([ei[new], n + ej[new]]).astype(np.int32).ravel(),
                                    np.column_stack([ev[new], np.ones(k)]).ravel()), "the priced edge columns")
        # new columns keep the basis primal feasible: re-solve from it by primal simplex
        highs.setOptionValue("simplex_strategy", 4)
        out[new] = False
        where = np.concatenate([where, new])
    x = np.zeros(d + extra_cost.size)
    x[where] = sol.col_value
    return x, objective, row_dual, rounds, where.size


def _weighted_shortfall(inst: ProblemInstance, y: np.ndarray, margin: float) -> float:
    """sum_i y_i C_i - sum_j (1-margin) lambda_j mass_j max_{i in B_j} v_ij y_i (edgeless items add 0)."""
    return float(y @ inst.targets) - float(((1.0 - margin) * inst.capacities) @ inst.mu_of(y))


# the supply LP starts from each contract's this many best edges by valuation
_SUPPLY_START = 10


def _best_edges(inst: ProblemInstance, k: int) -> np.ndarray:
    """Each contract's k best edges by valuation, in edge order; ties go to the lower item position.

    One stable sort of i_e - v_e / (2 max v) keeps each contract's edges
    together, ordered by falling valuation (valuations that round to one
    key count as tied); it is ten times faster than a lexsort.
    """
    order = np.argsort(inst.edge_i - 0.5 * (inst.edge_v / inst.edge_v.max()), kind="stable")
    rank = np.empty(inst.n_edges, dtype=np.intp)
    rank[order] = np.arange(inst.n_edges) - inst.contract_start[inst.edge_i]  # edges are contract-major
    return np.flatnonzero(rank < k)


def _supply_lp(inst: ProblemInstance, demand: np.ndarray, margin: float):
    """The supply check's LP with the contracts asking for `demand`, priced from each contract's best edges.

    Returns (x, slack, row_dual, met, rounds, columns) with x = (R,
    per-contract slacks priced 1), slack their least total over the model,
    met when it is within 1e-9 (1 + total demand), and the priced LP's
    solves and final column count; None when HiGHS ends at no optimum.
    Pricing stops as soon as the slack is met, since a witness over some
    edges is one over all; otherwise it runs until no edge prices out, so
    slack and duals are the full LP's.
    """
    enough = 1e-9 * (1.0 + float(demand.sum()))
    res = _transport_lp(inst, np.zeros(inst.n_edges), (1.0 - margin) * inst.capacities,
                        (demand, demand), _slack_columns(inst.n_contracts, 1.0),
                        start=_best_edges(inst, _SUPPLY_START), enough=enough)
    if res is None:
        return None
    x, slack, row_dual, rounds, columns = res
    return x, slack, row_dual, slack <= enough, rounds, columns


def check_adequate_supply(inst: ProblemInstance, margin: float = 1e-6) -> SupplyCheck:
    """Phase-1 LP for: R >= 0, sum_j in A_i v_ij R_ij = C_i, sum_i R_ij <= (1-margin) lambda_j mass_j.

    mass_j is the total mass of item j's supply curve: winning every auction
    acquires lambda_j mass_j per unit time.

    Feasible outcomes carry an explicit witness R (edge-aligned, zero off
    the priced model).  Infeasible outcomes carry an
    :class:`InfeasibilityCertificate` built from the priced LP's last duals,
    which price every edge nonnegative.  Raises LPFailure when HiGHS ends
    the LP at no optimum.
    """
    if not (0.0 <= margin < 1.0):
        raise ValueError("margin must lie in [0, 1)")
    n, d = inst.n_contracts, inst.n_edges
    res = _supply_lp(inst, inst.targets, margin)
    if res is None:
        raise LPFailure("feasibility LP found no optimum")
    x, slack, row_dual, met, rounds, columns = res
    if met:
        witness = x[:d]
        witness.setflags(write=False)
        return SupplyCheck(feasible=True, slack=0.0, witness=witness, rounds=rounds, columns=columns)

    y = np.clip(row_dual[:n], 0.0, 1.0)
    shortfall = _weighted_shortfall(inst, y, margin)

    # the Hall numbers of every top-k-by-weight prefix of the support at once: running demand, running
    # best valuation, and the capacity of the items reached, each item counted from the first
    # contract in the prefix that values it
    order = np.argsort(-y, kind="stable")
    support = order[y[order] > 1e-12]
    if not support.size:
        support = order[:1]
    k = support.size
    demand = np.cumsum(inst.targets[support])
    best_v = np.maximum.accumulate(np.maximum.reduceat(inst.edge_v, inst.contract_start[:-1])[support])
    rank = np.full(n, k)
    rank[support] = np.arange(k)
    _, edge_i, nonempty, starts = inst.item_major
    first = np.full(inst.n_items, k)
    if starts.size:
        first[nonempty] = np.minimum.reduceat(rank[edge_i], starts)
    reach = np.cumsum(np.bincount(first, inst.capacities, minlength=k + 1)[:k])
    # the smallest prefix that violates the Hall-type ratio, else the whole support
    violated = np.flatnonzero(demand / best_v > reach)
    last = int(violated[0]) if violated.size else k - 1
    cert = InfeasibilityCertificate(
        contract_ids=tuple(inst.contracts[c].id for c in support[: last + 1]),
        weights={inst.contracts[c].id: float(y[c]) for c in support},
        demand=float(demand[last]),
        best_valuation=float(best_v[last]),
        reachable_supply=float(reach[last]),
        weighted_shortfall=shortfall,
    )
    return SupplyCheck(feasible=False, slack=slack, certificate=cert, rounds=rounds, columns=columns)


def max_scalable_target(inst: ProblemInstance, margin: float = 1e-6) -> float:
    """Largest t such that targets t*C_i are simultaneously satisfiable.

    Solved as one LP: maximize t subject to sum v_ij R_ij >= t C_i and the
    margin-tightened item capacities.
    """
    n, d = inst.n_contracts, inst.n_edges
    # edge rates R, then t with -C_i in every demand row: minimize -t
    res = _transport_lp(inst, np.zeros(d), (1.0 - margin) * inst.capacities,
                        (np.zeros(n), np.full(n, np.inf)),
                        (np.array([-1.0]), np.array([0, n]), np.arange(n), -inst.targets))
    if res is None:
        raise LPFailure("target-scaling LP found no optimum")
    return -res[1]


# ---------------------------------------------------------------------------
# generators


_FAMILY_SAMPLERS = {
    "exponential": lambda rng: {"family": "exponential", "params": {"rate": float(rng.uniform(0.4, 2.5))}},
    "hyperbolic": lambda rng: {"family": "hyperbolic", "params": {"scale": float(rng.uniform(0.4, 2.5))}},
    "bounded_uniform": lambda rng: {"family": "bounded_uniform", "params": {"x_max": float(rng.uniform(0.5, 3.0))}},
}


def random_instance(
    rng: np.random.Generator,
    n_contracts: int,
    n_items: int,
    *,
    edge_prob: float = 0.6,
    kinds: Sequence[str] = ("second_price", "first_price"),
    families: Sequence[str] = ("exponential", "hyperbolic", "bounded_uniform"),
    slack_margin: float = 0.05,
) -> ProblemInstance:
    """Random feasible instance: targets are set strictly inside capacity.

    A reference allocation splitting ``(1 - 2*slack_margin) lambda_j`` evenly
    over each item's contracts is costed out, and each target is a random
    fraction of the value that allocation delivers, so adequate supply holds
    at any margin below ``slack_margin`` by construction.
    """
    items = [
        ItemType(
            id=f"item{j}",
            arrival_rate=float(rng.uniform(0.5, 2.0)),
            curve=curve_from_json(_FAMILY_SAMPLERS[rng.choice(list(families))](rng)),
            auction=str(rng.choice(list(kinds))),
        )
        for j in range(n_items)
    ]
    mask = rng.random((n_contracts, n_items)) < edge_prob
    for i in range(n_contracts):
        if not mask[i].any():
            mask[i, rng.integers(n_items)] = True
    values = np.where(mask, rng.uniform(0.5, 2.0, size=mask.shape), 0.0)
    degree = np.maximum(mask.sum(axis=0), 1)
    ref_rate = np.array([it.arrival_rate for it in items]) * (1.0 - 2.0 * slack_margin) / degree
    delivered = values @ ref_rate
    frac = rng.uniform(0.4, 0.95, size=n_contracts)
    contracts = [
        Contract(
            id=f"contract{i}",
            target_rate=float(delivered[i] * frac[i]),
            valuations={f"item{j}": float(values[i, j]) for j in range(n_items) if mask[i, j]},
        )
        for i in range(n_contracts)
    ]
    return build_instance(items, contracts)


def random_sparse_instance(
    rng: np.random.Generator, n_contracts: int = 200, n_items: int = 1200
) -> ProblemInstance:
    """Large sparse instance: exp(1) rates/curve-rates/targets, clipped-Gaussian values.

    Valuations are standard normals shifted down by 1 and clipped at 0, so
    roughly 16% of pairs carry an edge.  Targets are rescaled to 80% of the
    maximum simultaneously satisfiable level whenever the raw draw is not
    comfortably feasible, keeping the instance usable at small margins.
    """
    lam = rng.exponential(1.0, size=n_items) + 1e-3
    gam = rng.exponential(1.0, size=n_items) + 1e-3
    items = [
        ItemType(id=f"item{j}", arrival_rate=float(lam[j]),
                 curve=curve_from_json({"family": "exponential", "params": {"rate": float(gam[j])}}),
                 auction="second_price")
        for j in range(n_items)
    ]
    targets = rng.exponential(1.0, size=n_contracts) + 1e-3
    values = np.clip(rng.normal(0.0, 1.0, size=(n_contracts, n_items)) - 1.0, 0.0, None)
    for i in range(n_contracts):
        if not (values[i] > 0.0).any():
            values[i, rng.integers(n_items)] = float(rng.uniform(0.5, 1.0))
    contracts = [
        Contract(
            id=f"contract{i}",
            target_rate=float(targets[i]),
            valuations={f"item{j}": float(v) for j, v in enumerate(values[i]) if v > 0.0},
        )
        for i in range(n_contracts)
    ]
    inst = build_instance(items, contracts)
    # a draw that meets 1.25 times its targets is kept as it is; that priced
    # supply LP is far cheaper than max_scalable_target, which stays over every
    # edge and is needed only otherwise
    at_125 = _supply_lp(inst, 1.25 * inst.targets, 1e-3)
    if at_125 is not None and at_125[3]:
        return inst
    t_max = max_scalable_target(inst, margin=1e-3)
    if t_max < 1.25:  # raw draw is infeasible or too close to the boundary
        scale = 0.8 * t_max
        contracts = [
            Contract(id=c.id, target_rate=c.target_rate * scale, valuations=c.valuations)
            for c in contracts
        ]
        inst = build_instance(items, contracts)
    return inst
