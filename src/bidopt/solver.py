"""Dual solver for steady-state contract fulfillment over repeated auctions.

The primal problem picks per-item acquisition rates ``s_j`` and an allocation
``R_ij`` of won items to contracts so every contract accumulates value at its
target rate while total expected spend ``sum_j lambda_j Lambda_j(s_j /
lambda_j)`` is minimized.  Its Lagrangian dual reduces, after eliminating the
item multipliers mu_j = max_i v_ij rho_i, to a concave problem in the N
contract pseudo-bids alone:

    D(rho) = sum_i rho_i C_i - sum_j lambda_j conjugate_j(max_i v_ij rho_i)

which this module maximizes along one straight path.  A per-contract warm
start launches a cutting-plane master problem (outer linearization of the
smooth convex conjugates; tangent slopes are the win rates), one LP held in
its Dantzig-Wolfe column form, grown by tangent and edge columns and
re-solved warm, which positions rho globally with a certified model gap.
The flows on the master's edge columns are an optimal allocation of its
model, so the edges they load give the max-tie pattern: a snap puts the
tied pseudo-bids on exact ratios via a spanning tree per tie component and
root-finds the single remaining degree of freedom of all components at
once.  Each snap is judged as it lands, whatever its D: convergence is
*decided*, not assumed, by a transportation LP over the win rates at the
snapped point, which is stationary exactly when demand routes with no
shortfall, the routing rides exact ties (zero theta-spend), and no priced
supply is left unallocated.  The master asks for that verdict each time
the support of its flows repeats from one solve to the next, and the first
verdict that certifies ends the solve; a master that stops on its gap,
stall or round budget instead gets one snap and one verdict at its end, and
a point that verdict does not certify raises NotConverged.  Primal recovery
takes the allocation from the flows of the routing LP that certified the
point and rescales them to make fulfillment exact.

Both LPs run on the HiGHS layer of :mod:`bidopt.model`; the routing LP is
its transportation LP with supplies lambda_j q_j(mu_j) and edge costs theta,
over the edges whose theta is small enough to pass the verdict.
Every per-item conjugate, win rate, spend and bid is one call per family
group on the instance's grouping (``ProblemInstance.groups``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .costs import monotone_root
from .curves import _json_number, _json_numbers, _json_object
from .model import (ProblemInstance, _highs_model, _highs_status, _lp_work, _run_lp, _slack_columns,
                    _transport_lp, check_adequate_supply)

__all__ = [
    "DualSolution",
    "PrimalSolution",
    "CertificateReport",
    "Solution",
    "InfeasibleInstance",
    "NotConverged",
    "solve_dual",
    "recover_primal",
    "certify",
    "solve",
    "solution_to_json",
    "solution_from_json",
    "primal_from_json",
]


class InfeasibleInstance(RuntimeError):
    """The adequate-supply check failed; the dual is unbounded."""

    def __init__(self, check):
        self.check = check
        super().__init__("instance fails the adequate-supply check")


class NotConverged(RuntimeError):
    """A solve ended above its residual or gap bound; `best` is the point it reached.

    Raised by the dual solver and by `related`'s portfolio solvers.
    """

    def __init__(self, best, residual: float):
        self.best = best
        self.residual = residual
        super().__init__(f"did not converge: residual {residual:.3e}")


# ---------------------------------------------------------------------------
# solution containers


@dataclass(frozen=True)
class DualSolution:
    """Pseudo-bids rho per contract, item multipliers mu, edge slacks theta.

    ``flows`` are the edge flows of the routing LP that certified rho, set by
    solve_dual only; recover_primal reads the allocation from them.
    """

    rho: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    dual_value: float
    flows: np.ndarray | None = None


@dataclass(frozen=True)
class PrimalSolution:
    """Acquisition rates s, allocation R and mixing gamma (edge-aligned), bids x."""

    s: np.ndarray
    R: np.ndarray
    x: np.ndarray
    gamma: np.ndarray
    primal_value: float


@dataclass(frozen=True)
class CertificateReport:
    """Optimality evidence: duality gap, KKT residuals, and pass/fail flags."""

    primal_value: float
    dual_value: float
    gap: float
    max_fulfillment_residual: float
    max_capacity_violation: float
    max_comp_slack: float
    max_mu_residual: float
    max_rho_residual: float
    max_bid_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.rows())

    def rows(self) -> list[tuple[str, float, bool]]:
        t = self.tol
        return [
            ("primal_value", self.primal_value, True),
            ("dual_value", self.dual_value, True),
            ("relative_gap", self.gap, self.gap <= t),
            ("max_fulfillment_residual", self.max_fulfillment_residual, self.max_fulfillment_residual <= t),
            ("max_capacity_violation", self.max_capacity_violation, self.max_capacity_violation <= t),
            ("max_complementary_slack", self.max_comp_slack, self.max_comp_slack <= t),
            ("max_mu_residual", self.max_mu_residual, self.max_mu_residual <= t),
            ("max_rho_residual", self.max_rho_residual, self.max_rho_residual <= t),
            ("max_bid_residual", self.max_bid_residual, self.max_bid_residual <= t),
        ]

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["metric", "value", "ok"])
            for name, value, ok in self.rows():
                w.writerow([name, f"{value:.12g}", int(ok)])
            w.writerow(["passed", int(self.passed), int(self.passed)])


@dataclass(frozen=True)
class Solution:
    dual: DualSolution
    primal: PrimalSolution
    report: CertificateReport
    iterations: int
    # the largest slack theta on any edge that carries flow (0 when none
    # does): edges whose theta exceeds it carry none
    eps_active: float = 0.0
    # solve_dual's counters (its `stats`), read-only; empty for a solution
    # read back from JSON, whose document does not carry them
    stats: Mapping = field(default_factory=lambda: MappingProxyType({}))


# ---------------------------------------------------------------------------
# dual evaluation


def _dual_value(inst: ProblemInstance, rho: np.ndarray, conj: np.ndarray | None = None) -> float:
    """D(rho) = C.rho - sum_j lambda_j conjugate_j(mu_j(rho)); `conj` are the conjugates at mu(rho), when known."""
    if conj is None:
        conj, _ = inst.groups.conj_win(inst.mu_of(rho))
    return float(rho @ inst.targets) - float(inst.rates @ conj)


def _scale(inst: ProblemInstance) -> float:
    """1 + total target: the scale tolerances on dual values and residuals are read at."""
    return 1.0 + float(inst.targets.sum())


# ---------------------------------------------------------------------------
# tie-pattern snap


def _tie_components(inst: ProblemInstance, edges: np.ndarray):
    """Contracts joined through shared items over the edge index set `edges`.

    Returns (comp, beta, item_comp, slope): contract i lies in component
    comp[i] with ratio beta[i], and item j in component item_comp[j] (-1
    when no edge of the set touches it) with slope slope[j], so that within
    a component rho_i = beta_i * t and mu_j = slope_j * t.  A component is
    labelled by its lowest-index contract, whose beta is 1, and its ratios
    follow v_ij rho_i = mu_j along a depth-first spanning tree from there.
    """
    n, m = inst.n_contracts, inst.n_items
    ei, ej = inst.edge_i[edges], inst.edge_j[edges]
    by_j = np.argsort(ej, kind="stable")
    # `edges` ascend, so each contract's edges are one run, in item order
    c_start = np.searchsorted(ei, np.arange(n + 1)).tolist()
    j_start = np.searchsorted(ej[by_j], np.arange(m + 1)).tolist()
    ei, ej, ev, by_j = ei.tolist(), ej.tolist(), inst.edge_v[edges].tolist(), by_j.tolist()
    comp, beta = [-1] * n, [1.0] * n
    item_comp, slope = [-1] * m, [0.0] * m
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            i = stack.pop()
            for e in range(c_start[i], c_start[i + 1]):
                j = ej[e]
                if item_comp[j] >= 0:
                    continue
                item_comp[j] = root
                slope[j] = t = ev[e] * beta[i]
                for f in by_j[j_start[j] : j_start[j + 1]]:
                    i2 = ei[f]
                    if comp[i2] < 0:
                        comp[i2] = root
                        beta[i2] = t / ev[f]
                        stack.append(i2)
    return np.array(comp), np.array(beta), np.array(item_comp), np.array(slope)


def _tie_roots(inst: ProblemInstance, demand: np.ndarray, t0: np.ndarray, comp: np.ndarray,
               items: np.ndarray, slopes: np.ndarray, stats: dict) -> np.ndarray:
    """Roots t_k of demand_k = sum_e lam_j m_e win_j(m_e t) for all components k at once.

    Term e joins component comp[e] through item j = items[e] with slope
    m_e = slopes[e].  The supply side rises from 0 towards its cap
    sum_e lam_j m_e mass_j, so a component whose demand reaches the cap has
    no root and gets NaN.  Each balance evaluation is one
    ``FamilyGroups.win_slope`` pass, which gives the supply's derivative
    sum_e lam_j m_e^2 win_j'(m_e t) too, so `monotone_root` takes
    safeguarded Newton steps: from a t0 near the roots (the snap starts
    from the master's rho) they close every bracket in about four
    evaluations.  stats["tie_root_calls"] and stats["tie_root_evals"] count
    the calls and the balance evaluations.
    """
    k = demand.size
    lamm = inst.rates[items] * slopes
    lamm2 = lamm * slopes
    groups = inst.groups.take(items)
    cap = np.bincount(comp, slopes * inst.capacities[items], minlength=k)
    stats["tie_root_calls"] = stats.get("tie_root_calls", 0) + 1

    def balance(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        stats["tie_root_evals"] = stats.get("tie_root_evals", 0) + 1
        win, slope = groups.win_slope(slopes * t[comp])
        return demand - np.bincount(comp, lamm * win, minlength=k), -np.bincount(comp, lamm2 * slope, minlength=k)

    return monotone_root(balance, demand, t0, demand < cap)


def _component_updates(inst: ProblemInstance, rho: np.ndarray, components, stats: dict):
    """Snapped pseudo-bids for every tie component that balances along its ray."""
    comp, beta, item_comp, slope = components
    jdx = np.flatnonzero(item_comp >= 0)
    if jdx.size == 0:
        return []
    roots, term_comp = np.unique(item_comp[jdx], return_inverse=True)
    demand = np.bincount(comp, beta * inst.targets, minlength=comp.size)[roots]
    # a component is labelled by its root contract, whose beta is 1
    t0 = np.where(rho[roots] > 0.0, rho[roots], 1.0)
    t = _tie_roots(inst, demand, t0, term_comp, jdx, slope[jdx], stats)
    updates = []
    for k, t_star in zip(roots.tolist(), t.tolist()):
        if not math.isnan(t_star):
            idx = np.flatnonzero(comp == k)
            updates.append((idx, beta[idx] * t_star))
    return updates


def _support(flows: np.ndarray) -> np.ndarray:
    """The edges an allocation loads: its flows above 1e-9 (1 + the largest flow)."""
    return np.flatnonzero(flows > 1e-9 * (1.0 + float(flows.max(initial=0.0))))


def _snap(inst: ProblemInstance, rho: np.ndarray, flows: np.ndarray, stats: dict):
    """Snap rho onto the tie pattern of an allocation's loaded edges, once.

    Returns D, the snapped rho, and mu and the win rates there, all from
    one pass of the group formulas (`conj_win`).

    Components are disjoint, so at the right tie pattern the joint snap is
    the exact maximizer over the tie manifold.  Its value is not compared
    with rho's: D may fall, and only the routing LP that judges the snap
    (`_snap_verdict`) decides whether the point is stationary.
    """
    snapped = rho.copy()
    for idx, vals in _component_updates(inst, rho, _tie_components(inst, _support(flows)), stats):
        snapped[idx] = vals
    mu = inst.mu_of(snapped)
    conj, win = inst.groups.conj_win(mu)
    return _dual_value(inst, snapped, conj), snapped, mu, win


# a tangent column is deleted once it has been nonbasic at this many optimal
# solves in a row: the 868 instances of scripts/census.py take 3,366 master
# solves at 3, 3,371 at 2 and 3,417 at 1, all of them certified
_PRUNE_AFTER = 3


class _MasterLP:
    """min rhs.y + cap sum z  s.t.  V f + z >= C, W y - S f >= 0, item sums of y <= lambda.

    The LP dual of the cutting-plane master, over f, y, z >= 0: n contract
    rows and 2 m2 item rows, one column f_e per edge cut, y_k per tangent
    cut (W: its win rate, rhs: its right-hand side) and z_i per contract
    (cost: the rho box).  Its row duals are (rho, mu, -t) and its value is
    the model value.  New columns keep the last basis primal feasible, so
    each solve hot-starts primal simplex from it.

    After each optimal solve, every tangent column that has been nonbasic
    (reduced cost > 0) at the last _PRUNE_AFTER optimal solves is deleted
    (cut deletion, Topkis 1970; bundle compression, Kiwiel 1985).  Such a
    column weighs 0 at the optimum, so the optimum stays optimal, the basis
    stays primal feasible and the model value cannot rise at a fixed box;
    edge and z columns are never deleted.
    `col_edge` holds each column's edge (-1 on z and tangent columns) and
    `col_value` the column values of the last optimal solve (None before
    one), both compacted with the columns, so that the first
    `col_value.size` entries of `col_edge` are that solve's columns.  Lives
    for one master phase.
    """

    def __init__(self, targets: np.ndarray, rates: np.ndarray, cap: float):
        self.n = n = targets.size
        m2 = rates.size
        self.cap, self.col_value = cap, None
        self.col_edge = np.full(n, -1)
        self.idle = np.zeros(n, dtype=int)  # per column, the optimal solves in a row it was nonbasic at
        self.solves = self.iterations = self.cuts = self.cuts_max = self.pruned = 0
        self.highs = _highs_model(np.full(n, cap), np.full(n, np.inf),
                                  np.concatenate([targets, np.zeros(m2), np.full(m2, -np.inf)]),
                                  np.concatenate([np.full(n + m2, np.inf), rates]),
                                  np.arange(n + 1), np.arange(n), np.ones(n))
        self.highs.setOptionValue("simplex_strategy", 4)  # primal simplex

    def add_cols(self, cost: np.ndarray, rows: np.ndarray, vals: np.ndarray, edges: np.ndarray) -> None:
        """Append columns: column c has cost cost[c], vals[c, k] in row rows[c, k] (k = 0, 1) and edge edges[c]."""
        k = cost.size
        self.cuts += k
        _highs_status(self.highs.addCols(k, cost, np.zeros(k), np.full(k, np.inf), 2 * k,
                                         2 * np.arange(k, dtype=np.int32), rows.astype(np.int32).ravel(),
                                         vals.ravel()), "the cutting-plane master's columns")
        self.col_edge = np.concatenate([self.col_edge, edges])
        self.idle = np.concatenate([self.idle, np.zeros(k, dtype=int)])

    def solve(self, cap: float):
        """(row duals, model value, optimal) with the contracts' box at cap; prunes when optimal."""
        self.solves += 1
        self.cuts_max = max(self.cuts_max, self.cuts)
        if cap != self.cap:
            self.highs.changeColsCost(self.n, np.arange(self.n, dtype=np.int32), np.full(self.n, cap))
            self.cap = cap
        ok = _run_lp(self.highs)
        info = self.highs.getInfo()
        self.iterations += int(info.simplex_iteration_count)
        sol = self.highs.getSolution()
        if ok:
            self.col_value = np.array(sol.col_value, dtype=float)
            self.prune(np.asarray(sol.col_dual) > 0.0)
        return np.asarray(sol.row_dual), float(info.objective_function_value), ok

    def edge_flows(self, n_edges: int) -> np.ndarray:
        """The edge columns' values of the last optimal solve, spread over all edges (zero off the model)."""
        edge = self.col_edge[: self.col_value.size]
        flows = np.zeros(n_edges)
        flows[edge[edge >= 0]] = self.col_value[edge >= 0]
        return flows

    def prune(self, nonbasic: np.ndarray) -> np.ndarray:
        """Count the solves each column has stayed `nonbasic`, and delete the tangent columns due.

        Returns the positions the deleted columns had.
        """
        self.idle = np.where(nonbasic, self.idle + 1, 0)
        drop = (self.idle >= _PRUNE_AFTER) & (self.col_edge < 0)
        drop[: self.n] = False
        cols = np.flatnonzero(drop).astype(np.int32)
        if cols.size:
            _highs_status(self.highs.deleteCols(cols.size, cols), "the deletion of master columns")
            keep = ~drop
            self.idle, self.col_edge, self.col_value = self.idle[keep], self.col_edge[keep], self.col_value[keep]
            self.cuts -= cols.size
            self.pruned += cols.size
        return cols


# the master starts from every edge column when the instance has at most this
# many edges per master row (n contracts + 2 m2 items with edges); each wave
# of lazily found edges costs a master solve, while a column present from the
# start costs only pricing.  Over the 868 instances of scripts/census.py,
# seeding every instance with all edges cuts master LP solves from 4,902 to
# 3,254 but slows the cold first solve of large ones (the 60 x 400 benchmark
# draw, 4.26 edges per row: 1,641 -> 2,022 simplex iterations, 22 -> 57 ms on
# 2 cores); at 3 the census takes 3,366 master solves, and that draw and
# test_06 (14.7 edges per row) keep the lazy path
_ALL_EDGES_PER_ROW = 3


def _lazy_edges(inst: ProblemInstance) -> bool:
    """Whether the master generates its edge columns lazily: above _ALL_EDGES_PER_ROW edges per master row."""
    return inst.n_edges > _ALL_EDGES_PER_ROW * (inst.n_contracts + 2 * int(np.count_nonzero(inst.item_major[2])))


# a termination guard: the master stops on a verdict, its gap or its stall
# test well before it (at most 17 solves over the 868 instances of
# scripts/census.py)
_MASTER_SOLVES = 60


def _kelley_phase(inst: ProblemInstance, best_val: float, best_rho: np.ndarray, tol: float,
                  stats: dict | None = None, every_edge: bool = False):
    """Outer linearization of the acquisition terms (cutting planes).

    Each item's conjugate cost is convex and smooth in its multiplier, so the
    dual maximization is the LP  max C.rho - sum_j lam_j t_j  over rho >= 0,
    mu_j >= v_ij rho_i, and t_j above the accumulated tangents of the
    conjugate.  HiGHS holds that LP's dual (`_MasterLP`), built once, whose
    columns are the cuts; each round appends the tangents at mu(rho) of the
    LP's last rho and re-solves it warm (one master LP solve per round, at
    most _MASTER_SOLVES), until the routing LP certifies the snap of its
    flows or the model value meets the best true value; the LP model jumps
    straight across the argmax kinks of degenerate instances.  Tangents that
    stay slack are deleted (`_MasterLP`): their columns weigh 0 at the LP
    optimum, so deleting them keeps that optimum, and the model value still
    never rises at a fixed box (the stall test below stays sound) and stays
    an upper bound on the dual optimum.

    The edge cuts mu_j >= v_ij rho_i enter the model as columns.  With
    `every_edge`, or on an instance with at most _ALL_EDGES_PER_ROW edges per
    master row, the model starts with all of them; otherwise they are
    generated lazily (delayed column generation): the model starts with the
    edges within 5% of their item's max at the incoming point, and after
    every solve each item's first argmax edge at the LP's rho joins it when
    the LP's mu_j violates that edge's cut.  Dropping cuts only enlarges the feasible set of rho, so the
    model value stays an upper bound on the dual optimum and the returned
    model gap stays a certified optimality bound.  The rho box only widens,
    in place, when an iterate presses against it and no edge was added: a
    contract with no edge yet is unbounded in the model until its argmax
    edges join; an iterate that presses it still adds its tangents.

    The edge columns are flows f_e >= 0 (the Dantzig-Wolfe reading): a
    contract with 0 < rho_i below the box has a binding row, C_i = sum_e v_e
    f_e, so the flows allocate the targets over the edges whose cuts bind,
    and their support is the tie pattern the snap needs.  That pattern is
    identified long before the model gap closes (Wright 1993), so whenever
    a solve's support repeats the previous optimal solve's, the best point
    is snapped onto it and the routing LP judges the snap
    (`_snap_verdict`); a point it certifies ends the phase, and a failed
    verdict only lets the master go on.

    A phase that stops on its gap, stall or budget instead snaps onto the
    flows of its last optimal solve (none when no solve was optimal) and
    has that point judged.  Returns (value, rho, gap, LP solves, residual,
    routing flows) of the last point judged: gap is the last model value
    less that point's value (inf before any model value), and residual and
    flows are its verdict's (`_snap_verdict`).  Adds the master's solve,
    simplex iteration and cut counts, its routing verdicts and its stop
    reason (verdict, gap, stall, budget or lp_failure) to `stats`.
    """
    if stats is None:
        stats = {}
    # the items with edges; never none, as every instance has a contract and every contract an edge
    nz = np.flatnonzero(inst.item_major[2])
    m2, n = nz.size, inst.n_contracts
    row = np.full(inst.n_items, -1)
    row[nz] = n + np.arange(m2)

    rho_cap = 1e4 * (1.0 + float(np.max(best_rho, initial=0.0)))
    lp = _MasterLP(inst.targets, inst.rates[nz], rho_cap)
    in_model = np.zeros(inst.n_edges, dtype=bool)

    def add_edge_cols(edges: np.ndarray) -> None:
        lp.add_cols(np.zeros(edges.size), np.column_stack([inst.edge_i[edges], row[inst.edge_j[edges]]]),
                    np.column_stack([inst.edge_v[edges], -np.ones(edges.size)]), edges)
        in_model[edges] = True

    def add_tangents(mu_full: np.ndarray, conj: np.ndarray, win: np.ndarray) -> None:
        """One tangent column per item with edges at each row of mu_full (conj, win: the values there)."""
        win = win[..., nz]
        lp.add_cols((win * mu_full[..., nz] - conj[..., nz]).ravel(),
                    np.tile(np.column_stack([row[nz], m2 + row[nz]]), (win.size // m2, 1)),
                    np.column_stack([win.ravel(), np.ones(win.size)]), np.full(win.size, -1))

    mu_w = inst.mu_of(best_rho)
    if every_edge or not _lazy_edges(inst):
        add_edge_cols(np.arange(inst.n_edges))
    else:
        mu_e = mu_w[inst.edge_j]
        add_edge_cols(np.flatnonzero(mu_e - inst.edge_v * best_rho[inst.edge_i] <= 0.05 * mu_e))
    # the starting tangent ladder, f mu(warm) for f in 0.5, 1, 2, 8: one pass over the four rows
    ladder = np.multiply.outer([0.5, 1.0, 2.0, 8.0], mu_w)
    add_tangents(ladder, *inst.groups.conj_win(ladder))
    bound = last_model = math.inf
    flows = support = None
    stop = "budget"
    for _ in range(_MASTER_SOLVES):
        dual, model, ok = lp.solve(rho_cap)
        if not ok:
            stop = "lp_failure"
            break
        flows, last_support = lp.edge_flows(inst.n_edges), support
        support = _support(flows)
        rho_hat, mu_lp = np.maximum(dual[:n], 0.0), dual[n : n + m2]
        # each item's first argmax edge whose cut the LP's point violates
        mu_hat = inst.mu_of(rho_hat)
        top = inst.by_item[inst.first_argmax(rho_hat, mu_hat)]
        new = top[(mu_hat[nz] - mu_lp > 1e-12 * (1.0 + mu_lp)) & ~in_model[top]]
        if new.size:
            add_edge_cols(new)
        conj, win = inst.groups.conj_win(mu_hat)
        if float(np.max(rho_hat, initial=0.0)) > 0.999 * rho_cap:
            # add edges before widening the box: a contract without edges presses it
            if not new.size:
                rho_cap *= 100.0
            add_tangents(mu_hat, conj, win)
            continue
        val_hat = _dual_value(inst, rho_hat, conj)
        if val_hat > best_val:
            best_val, best_rho = val_hat, rho_hat.copy()
        bound = model
        if model - best_val <= 1e-14 * (1.0 + abs(best_val)) + 0.05 * tol * _scale(inst):
            stop = "gap"
            break
        if not new.size and model >= last_model - 1e-15 * (1.0 + abs(model)):
            # tangent violations have dropped below the LP solver's feasibility
            # tolerance; the model cannot tighten further at this scale
            stop = "stall"
            break
        last_model = model
        if np.array_equal(support, last_support):
            judged = _snap_verdict(inst, best_val, best_rho, flows, tol, stats)
            if judged[2] <= tol * _scale(inst):
                stop = "verdict"
                break
        add_tangents(mu_hat, conj, win)
    stats["master_solves"] = stats.get("master_solves", 0) + lp.solves
    stats["master_simplex_iterations"] = stats.get("master_simplex_iterations", 0) + lp.iterations
    stats["master_edge_rows"] = int(in_model.sum())
    stats["master_rows_max"] = max(stats.get("master_rows_max", 0), lp.cuts_max)
    stats["master_cols_pruned"] = stats.get("master_cols_pruned", 0) + lp.pruned
    stats["master_stop"] = stop
    if stop != "verdict":
        judged = _snap_verdict(inst, best_val, best_rho, flows, tol, stats)
    value, rho, residual, routed = judged
    return value, rho, bound - value, lp.solves, residual, routed


def _snap_verdict(inst: ProblemInstance, value: float, rho: np.ndarray, flows, tol: float, stats: dict):
    """Snap onto the tie pattern of `flows` (when not None), then judge the point by the routing LP.

    Returns (value, rho, residual, routing flows): residual is the routing
    LP's max(shortfall, theta_cost, slack_value), and the point is
    certified when it is at most tol * _scale(inst); residual is inf and
    the flows None when the routing LP fails.  stats["routing_lps"] counts
    the verdicts.
    """
    if flows is None:
        mu = inst.mu_of(rho)
        win = inst.groups.win_rate(mu)
    else:
        value, rho, mu, win = _snap(inst, rho, flows, stats)
    info = _routing_lp(inst, rho, mu, win, tol)
    stats["routing_lps"] = stats.get("routing_lps", 0) + 1
    if info is None:
        return value, rho, math.inf, None
    return value, rho, max(info[:3]), info[3]


def _routing_lp(inst: ProblemInstance, rho: np.ndarray, mu: np.ndarray, win: np.ndarray, tol: float):
    """Route demand over the win rates ``win`` at rho (mu = mu(rho)) and measure how the point fails.

    Component balance alone is a necessary condition only: a snap balances
    *any* tie pattern, right or wrong, and thresholding near-ties cannot tell
    a true tie from a small gap.  The transportation LP (demands C_i,
    supplies sigma_j = lambda_j q_j(mu_j), cost theta_e, per-contract slack
    u_i priced high enough that slack is used only when no routing exists)
    can.  Lexicographically it minimizes unmet demand first and the
    theta-spend of the routing second, so one solve yields the demand
    shortfall, the theta-cost of the cheapest routing, the value of supply
    left unallocated at positive multipliers, and the routing itself.
    Returns (shortfall, theta_cost, slack_value, flows) or None when the LP
    fails; stationarity is exactly shortfall = theta_cost = slack_value = 0
    (demand routes on exact ties and every priced item is fully consumed),
    and then the flows are an optimal allocation.

    Only the near-tight edges, theta_e <= tol (1 + sum C) / (1 + sum sigma),
    are columns: any routing over them spends at most tol (1 + sum C) on
    theta, so the theta-cost test holds by construction and the verdict
    rests on the shortfall and the slack value; leaving the other edges out
    can only raise the shortfall.  tol = inf routes over every edge.
    """
    sigma = inst.rates * win
    d, n = inst.n_edges, inst.n_contracts
    theta = np.maximum(mu[inst.edge_j] - inst.edge_v * rho[inst.edge_i], 0.0)
    edges = np.flatnonzero(theta <= tol * _scale(inst) / (1.0 + float(sigma.sum())))
    theta_in = theta[edges]
    big = 10.0 * (1.0 + float(np.max(theta_in / inst.edge_v[edges], initial=0.0)))
    res = _transport_lp(inst, theta_in, sigma, (inst.targets, inst.targets), _slack_columns(n, big), edges)
    if res is None:
        return None
    x = res[0]
    flows = np.zeros(d)
    flows[edges] = x[: edges.size]
    slack_value = float(np.clip(sigma - np.bincount(inst.edge_j, flows, minlength=inst.n_items), 0.0, None) @ mu)
    return float(x[edges.size :].sum()), float(theta_in @ x[: edges.size]), slack_value, flows


def _warm_start(inst: ProblemInstance, stats: dict) -> np.ndarray:
    """Per-contract pseudo-bids pretending each contract has its items alone.

    Ignoring contention under-prices contested items, so this usually lands
    below the optimum; it places the master's first edge and tangent columns.
    """
    t = _tie_roots(inst, inst.targets, np.ones(inst.n_contracts), inst.edge_i, inst.edge_j, inst.edge_v, stats)
    return np.where(np.isnan(t), 0.0, t)


# ---------------------------------------------------------------------------
# public solver entry points


def solve_dual(
    inst: ProblemInstance,
    tol: float = 1e-8,
    margin: float = 1e-6,
    stats: dict | None = None,
) -> DualSolution:
    """Maximize the reduced dual D(rho) over rho >= 0.

    One path: warm start -> warm cutting-plane master, which snaps onto the
    tie pattern of its edge columns' flows and asks the routing LP for a
    verdict each time that pattern repeats, and stops once a verdict
    certifies -> otherwise one snap and one routing-LP verdict at the
    master's end.  The master starts from the warm start itself, and each
    snap is judged as it lands: the routing LP decides it, with no
    comparison of its D against the point it came from.  A master that held
    only some of the edge columns and whose last verdict fails runs once
    more from the point that verdict judged, with every edge column from
    the start.  Keys it sets in `stats`:

    - iterations, master_solves: the master's LP solves (both runs);
    - master_simplex_iterations: the master's simplex iterations;
    - master_edge_rows: edge cuts in the final master model;
    - master_rows_max: the most cuts (edge and tangent) any master solve held;
    - master_cols_pruned: the tangent cuts the master deleted;
    - master_stop: why the master stopped: verdict (a routing LP certified
      its snap), gap, stall, budget (_MASTER_SOLVES) or lp_failure;
    - master_fallbacks: 1 when the master ran again with every edge column;
    - routing_lps: the routing-LP verdicts run;
    - tie_root_calls, tie_root_evals: the tie roots' batch calls and balance
      evaluations;
    - supply_lp_rounds, supply_lp_columns: the priced supply check's LP
      solves and its final model columns (edges and slacks);
    - lp_solves, lp_simplex_iterations: solves and simplex iterations of
      every LP of the solve.

    Raises InfeasibleInstance when adequate supply fails and NotConverged,
    carrying the last point judged, when the routing LP's stationarity
    residual there is above tol or the routing LP fails.
    """
    if stats is None:
        stats = {}
    work = dict(_lp_work)
    chk = check_adequate_supply(inst, margin)
    if not chk:
        raise InfeasibleInstance(chk)
    stats["supply_lp_rounds"], stats["supply_lp_columns"] = chk.rounds, chk.columns
    stats["tie_root_calls"] = stats["tie_root_evals"] = stats["routing_lps"] = 0
    warm = _warm_start(inst, stats)
    value, rho, _, used, kkt, routed = _kelley_phase(inst, _dual_value(inst, warm), warm, tol, stats=stats)
    stats["master_fallbacks"] = 0
    if kkt > tol * _scale(inst) and _lazy_edges(inst):
        # the lazy edge columns can miss an edge the tie pattern needs
        stats["master_fallbacks"] = 1
        value, rho, _, more, kkt, routed = _kelley_phase(inst, value, rho, tol, stats, every_edge=True)
        used += more
    stats["iterations"] = used
    stats.update({f"lp_{key}": _lp_work[key] - start for key, start in work.items()})
    if kkt > tol * _scale(inst):
        raise NotConverged(_finish_dual(inst, rho, value), kkt)
    return _finish_dual(inst, rho, value, routed)


def _finish_dual(inst: ProblemInstance, rho: np.ndarray, value: float, flows=None) -> DualSolution:
    mu = inst.mu_of(rho)
    theta = mu[inst.edge_j] - inst.edge_v * rho[inst.edge_i]
    rho = rho.copy()
    for arr in (rho, mu, theta, flows):
        if arr is not None:
            arr.setflags(write=False)
    return DualSolution(rho=rho, mu=mu, theta=theta, dual_value=value, flows=flows)


# ---------------------------------------------------------------------------
# primal recovery


def _spend_rate(inst: ProblemInstance, s: np.ndarray) -> float:
    """Expected spend sum_j lambda_j Lambda_j(s_j / lambda_j) at acquisition rates s.

    Win rates are clamped to [0, mass (1 - 1e-12)]: Lambda is 0 at 0 and may
    be infinite at the mass.
    """
    q = np.clip(s / inst.rates, 0.0, inst.masses * (1.0 - 1e-12))
    return float(inst.rates @ inst.groups.spend(q))


def _mixing(inst: ProblemInstance, s: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Mixing weights gamma_e = R_e / s_j of each edge's item j (0 where s_j = 0, infinite on overflow)."""
    gamma = np.zeros(inst.n_edges)
    nz = s[inst.edge_j] > 0.0
    with np.errstate(over="ignore"):
        gamma[nz] = R[nz] / s[inst.edge_j[nz]]
    return gamma


def _eps_active(dual: DualSolution, primal: PrimalSolution) -> float:
    """The largest slack theta over the edges that carry allocation (0 when none does)."""
    return float(np.max(dual.theta[primal.R > 0.0], initial=0.0))


def recover_primal(inst: ProblemInstance, dual: DualSolution) -> PrimalSolution:
    """Bids, rates, and the allocation routed by the routing LP at dual.rho.

    At optimal pseudo-bids any routing of the targets over zero-slack edges
    within the win-rate supplies is an optimal allocation (complementary
    slackness), and that transportation problem is the routing LP which
    certified the dual; its edge flows are R.  A dual without flows (read
    back from JSON, or built by hand) gets them from one routing LP at its
    rho, and NotConverged is raised when that LP fails.  Each contract's row
    is then scaled to make fulfillment exact.
    """
    flows = dual.flows
    if flows is None:
        rho = np.asarray(dual.rho, dtype=float)
        mu = inst.mu_of(rho)
        info = _routing_lp(inst, rho, mu, inst.groups.win_rate(mu), math.inf)
        if info is None:
            raise NotConverged(dual, math.inf)
        flows = info[-1]
    R = np.maximum(flows, 0.0)
    delivered = np.bincount(inst.edge_i, inst.edge_v * R, minlength=inst.n_contracts)
    R *= np.divide(inst.targets, delivered, out=np.ones(inst.n_contracts), where=delivered > 0.0)[inst.edge_i]
    s = np.bincount(inst.edge_j, R, minlength=inst.n_items)
    bids = inst.groups.bid(np.asarray(dual.mu, dtype=float))
    gamma = _mixing(inst, s, R)
    for arr in (s, R, bids, gamma):
        arr.setflags(write=False)
    return PrimalSolution(s=s, R=R, x=bids, gamma=gamma, primal_value=_spend_rate(inst, s))


# ---------------------------------------------------------------------------
# certification


def certify(
    inst: ProblemInstance, primal: PrimalSolution, dual: DualSolution, tol: float = 1e-6
) -> CertificateReport:
    """Duality gap, KKT residuals and the bids' distance from the bid map at mu, of a (primal, dual) pair."""
    p, d = primal.primal_value, dual.dual_value
    gap = (p - d) / (1.0 + abs(p))

    delivered = np.bincount(inst.edge_i, inst.edge_v * primal.R, minlength=inst.n_contracts)
    fulfill = float(np.max(np.abs(delivered - inst.targets) / (1.0 + inst.targets)))

    s_from_r = np.bincount(inst.edge_j, primal.R, minlength=inst.n_items)
    cap_viol = float(np.max(np.maximum(s_from_r - inst.capacities, 0.0) / (1.0 + inst.capacities)))

    comp = float(np.max(dual.theta * primal.R, initial=0.0)) / (1.0 + abs(p))

    mu_res = float(np.max(np.abs(inst.mu_of(np.asarray(dual.rho)) - dual.mu), initial=0.0))
    # at optimum every contract prices off its cheapest useful item:
    # rho_i = min over edges of contract i of mu_j / v_ij
    ratio = dual.mu[inst.edge_j] / inst.edge_v
    rho_min = np.minimum.reduceat(ratio, inst.contract_start[:-1])  # every contract has an edge
    rho_res = float(np.max(np.abs(rho_min - dual.rho) / (1.0 + np.abs(dual.rho))))

    # the plan ships the bid map at mu, x_j = g_j^{-1}(mu_j); a bid off it buys other rates than s
    bid = inst.groups.bid(np.asarray(dual.mu, dtype=float))
    miss = np.abs(primal.x - bid)
    off = miss > 0.0
    bid_res = 0.0
    if off.any():
        with np.errstate(divide="ignore", over="ignore"):  # where the map bids 0, any other bid reads as inf
            bid_res = float(np.max(miss[off] / bid[off]))

    return CertificateReport(
        primal_value=p,
        dual_value=d,
        gap=gap,
        max_fulfillment_residual=fulfill,
        max_capacity_violation=cap_viol,
        max_comp_slack=comp,
        max_mu_residual=mu_res,
        max_rho_residual=rho_res,
        max_bid_residual=bid_res,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# orchestration


def solve(
    inst: ProblemInstance,
    tol: float = 1e-8,
    margin: float = 1e-6,
    certify_tol: float = 1e-6,
) -> Solution:
    """Feasibility check, dual solve, primal recovery from its routing flows, certify."""
    stats: dict = {}
    dual = solve_dual(inst, tol=tol, margin=margin, stats=stats)
    primal = recover_primal(inst, dual)
    report = certify(inst, primal, dual, tol=certify_tol)
    return Solution(
        dual=dual,
        primal=primal,
        report=report,
        iterations=stats.get("iterations", 0),
        eps_active=_eps_active(dual, primal),
        stats=MappingProxyType(stats),
    )


# ---------------------------------------------------------------------------
# serialization


def solution_to_json(inst: ProblemInstance, sol: Solution) -> dict:
    entries = [
        [inst.contracts[int(inst.edge_i[e])].id, inst.items[int(inst.edge_j[e])].id, float(r)]
        for e, r in enumerate(sol.primal.R)
        if r > 0.0
    ]
    return {
        "rho": [float(v) for v in sol.dual.rho],
        "mu": [float(v) for v in sol.dual.mu],
        "bids": [float(v) for v in sol.primal.x],
        "s": [float(v) for v in sol.primal.s],
        "R": entries,
        "gap": float(sol.report.gap),
        "iters": int(sol.iterations),
        "eps_active": float(sol.eps_active),
    }


def primal_from_json(inst: ProblemInstance, obj: dict) -> tuple[np.ndarray, np.ndarray, PrimalSolution]:
    """Read a Solution's JSON form: (rho, mu, primal solution), every entry checked.

    The mixing weights and the primal value are recomputed, not trusted.
    Neither D(rho) nor the certificate is evaluated (`solution_from_json`
    adds both), so a replay reads its plan without them.
    """
    obj = _json_object(obj, "solution")
    rho = _json_numbers(obj["rho"], "solution rho", (inst.n_contracts,))
    mu, s, bids = (_json_numbers(obj[key], f"solution {key}", (inst.n_items,)) for key in ("mu", "s", "bids"))

    # each entry's edge by the contract-major key edge_i * n_items + edge_j, strictly increasing
    c_pos, j_pos = inst.positions
    entries = obj["R"]
    contract, item, val = zip(*entries, strict=True) if entries else ((), (), ())
    k = len(val)
    i = np.fromiter(map(c_pos.get, contract, repeat(-1)), np.intp, k)
    j = np.fromiter(map(j_pos.get, item, repeat(-1)), np.intp, k)
    key = i * inst.n_items + j
    edge_key = inst.edge_i * inst.n_items + inst.edge_j
    e = np.minimum(np.searchsorted(edge_key, key), inst.n_edges - 1)
    bad = np.flatnonzero((np.minimum(i, j) < 0) | (edge_key[e] != key))
    if bad.size:
        raise ValueError(f"allocation entry {(contract[bad[0]], item[bad[0]])!r} is not an instance edge")
    R = np.zeros(inst.n_edges)
    R[e] = _json_numbers(val, "solution R", (k,))
    return rho, mu, PrimalSolution(s=s, R=R, x=bids, gamma=_mixing(inst, s, R), primal_value=_spend_rate(inst, s))


def solution_from_json(inst: ProblemInstance, obj: dict) -> Solution:
    """Rebuild a Solution from its JSON form (read by `primal_from_json`).

    Every derived value (dual and primal value, mixing weights, eps_active
    and the certificate) is recomputed, not trusted; only the iteration
    count is read as written, and it must be a nonnegative integer.
    """
    rho, mu, primal = primal_from_json(inst, obj)
    iters = _json_number(obj.get("iters", 0), "solution iters", low=0.0)
    if not iters.is_integer():
        raise ValueError(f"solution iters must be an integer, not {iters!r}")
    theta = mu[inst.edge_j] - inst.edge_v * rho[inst.edge_i]
    dual = DualSolution(rho=rho, mu=mu, theta=theta, dual_value=_dual_value(inst, rho))
    return Solution(
        dual=dual,
        primal=primal,
        report=certify(inst, primal, dual),
        iterations=int(iters),
        eps_active=_eps_active(dual, primal),
    )
