import importlib.metadata
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidopt.costs import AuctionKind, NotTwoConcave
from bidopt.curves import BoundedUniform, Empirical, Exponential, Hyperbolic
from bidopt import model
from bidopt.model import (
    Contract,
    DuplicateId,
    EmptyUsefulSet,
    ItemType,
    build_instance,
    check_adequate_supply,
    random_sparse_instance,
    instance_from_json,
    max_scalable_target,
    random_instance,
)
from oracles import supply_certificate_holds, supply_slack_every_edge


def scalar_instance(target=1.0, rate=2.0):
    item = ItemType("a", rate, Exponential(1.0), "second_price")
    return build_instance([item], [Contract("x", target, {"a": 1.0})])


def stress_instance(c1=0.99):
    # three unit-rate items with very different price scales, two overlapping contracts
    items = [
        ItemType(f"i{k}", 1.0, Exponential(g), "second_price")
        for k, g in enumerate([0.1, 1.0, 10.0])
    ]
    contracts = [
        Contract("c1", c1, {"i0": 1.0, "i1": 1.0}),
        Contract("c2", 2.0 * c1, {"i1": 1.0, "i2": 1.0}),
    ]
    return build_instance(items, contracts)


# ---------------------------------------------------------------------------
# construction


def test_edge_index_shape():
    inst = stress_instance()
    assert (inst.n_contracts, inst.n_items, inst.n_edges) == (2, 3, 4)
    assert inst.edge_i.tolist() == [0, 0, 1, 1]
    assert inst.edge_j.tolist() == [0, 1, 1, 2]
    # item-major view groups edges per item
    assert inst.item_edges(1).tolist() == [1, 2]
    assert inst.item_edges(0).tolist() == [0]
    assert inst.contract_edges(1) == slice(2, 4)


def test_zero_valuations_dropped():
    item = ItemType("a", 1.0, Exponential(1.0), "second_price")
    other = ItemType("b", 1.0, Exponential(1.0), "second_price")
    c = Contract("x", 1.0, {"a": 1.0, "b": 0.0})
    inst = build_instance([item, other], [c])
    assert inst.n_edges == 1
    assert "b" not in c.valuations


def test_empty_useful_set():
    item = ItemType("a", 1.0, Exponential(1.0), "second_price")
    with pytest.raises(EmptyUsefulSet) as exc:
        build_instance([item], [Contract("x", 1.0, {"a": 0.0})])
    assert exc.value.contract_id == "x"


def test_duplicate_ids():
    item = ItemType("a", 1.0, Exponential(1.0), "second_price")
    with pytest.raises(DuplicateId):
        build_instance([item, item], [Contract("x", 1.0, {"a": 1.0})])
    with pytest.raises(DuplicateId):
        build_instance([item], [Contract("x", 1.0, {"a": 1.0}), Contract("x", 2.0, {"a": 1.0})])


def test_unknown_item_rejected():
    item = ItemType("a", 1.0, Exponential(1.0), "second_price")
    with pytest.raises(ValueError, match="unknown item"):
        build_instance([item], [Contract("x", 1.0, {"zzz": 1.0})])


def test_validation_of_scalars():
    with pytest.raises(ValueError):
        ItemType("a", 0.0, Exponential(1.0), "second_price")
    with pytest.raises(ValueError):
        Contract("x", -1.0, {"a": 1.0})
    with pytest.raises(ValueError):
        Contract("x", 1.0, {"a": -0.5})


def test_first_price_gate_fires_at_build():
    kinked = Empirical([(1.0, 0.2), (2.0, 0.8)])
    with pytest.raises(NotTwoConcave):
        ItemType("a", 1.0, kinked, "first_price")


def test_json_round_trip(tmp_path):
    inst = stress_instance()
    back = instance_from_json(json.loads(json.dumps(inst.to_json())))
    assert back.n_edges == inst.n_edges
    assert np.array_equal(back.edge_v, inst.edge_v)
    assert back.items[2].curve == Exponential(10.0)
    assert back.items[0].auction is AuctionKind.SECOND_PRICE
    assert back.contracts[1].target_rate == pytest.approx(1.98)


# ---------------------------------------------------------------------------
# adequate supply


def test_feasible_scalar():
    chk = check_adequate_supply(scalar_instance(target=1.0, rate=2.0), margin=0.1)
    assert chk
    assert chk.witness[0] == pytest.approx(1.0)


def test_infeasible_scalar_certificate():
    chk = check_adequate_supply(scalar_instance(target=3.0, rate=2.0), margin=0.1)
    assert not chk
    cert = chk.certificate
    assert cert.contract_ids == ("x",)
    assert cert.demand / cert.best_valuation > cert.reachable_supply  # 3.0 / 1.0 > 2.0
    assert cert.demand == pytest.approx(3.0)
    assert cert.reachable_supply == pytest.approx(2.0)
    assert cert.weighted_shortfall > 0.0
    assert supply_certificate_holds(scalar_instance(target=3.0, rate=2.0), cert, 0.1)


def test_stress_instance_feasible_at_zero_margin():
    # total demand 0.99 * 3 = 2.97 < 3 = total arrival rate
    assert check_adequate_supply(stress_instance(0.99), margin=0.0)


def test_stress_instance_infeasible_beyond_capacity():
    chk = check_adequate_supply(stress_instance(1.01), margin=0.0)
    assert not chk
    cert = chk.certificate
    assert cert.demand / cert.best_valuation > cert.reachable_supply  # uniform valuations: set certificate exists
    assert supply_certificate_holds(stress_instance(1.01), cert, 0.0)


def test_weighted_certificate_when_ratio_test_cannot_fire():
    # one item, two contracts with different valuations: infeasible overall,
    # yet no subset passes the coarse ratio check -- the weighted certificate must
    item = ItemType("j", 1.0, Exponential(1.0), "second_price")
    contracts = [Contract("a", 0.6, {"j": 1.0}), Contract("b", 0.9, {"j": 2.0})]
    inst = build_instance([item], contracts)
    chk = check_adequate_supply(inst, margin=0.0)
    assert not chk
    cert = chk.certificate
    assert cert.demand / cert.best_valuation <= cert.reachable_supply
    assert cert.weighted_shortfall == pytest.approx(0.05, abs=1e-9)
    assert supply_certificate_holds(inst, cert, 0.0)


def test_margin_monotonicity():
    # feasible at margin m stays feasible at every smaller margin
    inst = scalar_instance(target=1.8, rate=2.0)
    assert check_adequate_supply(inst, margin=0.1)
    assert check_adequate_supply(inst, margin=0.05)
    assert check_adequate_supply(inst, margin=0.0)
    assert not check_adequate_supply(inst, margin=0.2)


def test_margin_validation():
    with pytest.raises(ValueError):
        check_adequate_supply(scalar_instance(), margin=1.0)
    with pytest.raises(ValueError):
        check_adequate_supply(scalar_instance(), margin=-0.1)


def test_max_scalable_target():
    inst = scalar_instance(target=1.0, rate=2.0)
    assert max_scalable_target(inst, margin=0.1) == pytest.approx(1.8, abs=1e-9)


def _scaled_targets(inst, t):
    return build_instance(list(inst.items), [Contract(c.id, c.target_rate * t, c.valuations) for c in inst.contracts])


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda s=s: random_instance(np.random.default_rng(s), 8, 20, edge_prob=0.3), id=f"random-{s}")
     for s in range(3)]
    + [pytest.param(lambda s=s: random_sparse_instance(np.random.default_rng(s), 30, 180), id=f"sparse-{s}")
       for s in range(2)],
)
def test_max_scalable_target_is_the_supply_checks_threshold(make):
    # both LPs go through the one transportation-LP layer: targets just
    # below t* pass the supply check with a witness, just above it they fail
    # with a certificate
    margin = 1e-3
    inst = make()
    t = max_scalable_target(inst, margin)
    below = _scaled_targets(inst, t * (1.0 - 1e-6))
    chk = check_adequate_supply(below, margin)
    assert chk
    R = chk.witness
    assert np.all(R >= 0.0)
    delivered = np.bincount(below.edge_i, below.edge_v * R, minlength=below.n_contracts)
    assert np.all(np.abs(delivered - below.targets) <= 1e-9 * (1.0 + below.targets.sum()))
    used = np.bincount(below.edge_j, R, minlength=below.n_items)
    assert np.all(used <= (1.0 - margin) * below.capacities * (1.0 + 1e-9))
    above = _scaled_targets(inst, t * (1.0 + 1e-6))
    chk = check_adequate_supply(above, margin)
    assert not chk
    assert supply_certificate_holds(above, chk.certificate, margin)


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda s=s: random_instance(np.random.default_rng(s), 8, 60, edge_prob=0.5), id=f"random-{s}")
     for s in range(3)]
    + [pytest.param(lambda s=s: random_sparse_instance(np.random.default_rng(s), 30, 180), id=f"sparse-{s}")
       for s in range(2)],
)
@pytest.mark.parametrize("boost", [None, 1.01, 3.0], ids=["drawn", "1.01-tmax", "3-tmax"])
def test_priced_supply_check_matches_the_every_edge_oracle(make, boost):
    # these draws hold about 30 edges per contract, so the priced LP starts
    # from a third of them; its verdict and least slack are the whole LP's
    margin = 1e-3
    inst = make()
    if boost is not None:
        inst = _scaled_targets(inst, boost * max_scalable_target(inst, margin))
    chk = check_adequate_supply(inst, margin)
    slack = supply_slack_every_edge(inst, margin)
    tol = 1e-9 * (1.0 + inst.targets.sum())
    assert bool(chk) == (slack <= tol) == (boost is None)
    assert abs(chk.slack - slack) <= tol
    assert chk.columns < inst.n_edges + inst.n_contracts
    if not chk:
        assert supply_certificate_holds(inst, chk.certificate, margin)


def test_supply_check_prices_in_the_edges_its_start_set_misses():
    # the contract's 10 best-valued items supply a fifth of its target and
    # the two worse-valued ones the rest: only pricing brings them in
    items = [ItemType(f"i{k}", 0.01 if k < 10 else 1.0, Exponential(1.0), "second_price") for k in range(12)]
    inst = build_instance(items, [Contract("c", 1.0, {f"i{k}": 2.0 if k < 10 else 1.0 for k in range(12)})])
    chk = check_adequate_supply(inst, margin=1e-3)
    assert chk and chk.rounds > 1
    R = chk.witness
    assert np.all(R >= 0.0) and np.any(R[10:] > 0.0)
    assert np.bincount(inst.edge_i, inst.edge_v * R)[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.bincount(inst.edge_j, R) <= (1.0 - 1e-3) * inst.capacities * (1.0 + 1e-9))


def test_supply_check_meets_sparse_60x400_from_its_start_set():
    # the benchmark draw's 10 best edges per contract (600 of 3661) and its
    # 60 slacks meet the targets in one solve
    chk = check_adequate_supply(random_sparse_instance(np.random.default_rng(1), 60, 400))
    assert chk and (chk.rounds, chk.columns) == (1, 660)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_random_instances_feasible_with_uniform_certificates(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_contracts=3, n_items=5, slack_margin=0.05)
    assert check_adequate_supply(inst, margin=0.01)
    # push every target far beyond total capacity: certificate must verify
    boosted = build_instance(
        list(inst.items),
        [
            Contract(c.id, c.target_rate + 100.0, c.valuations)
            for c in inst.contracts
        ],
    )
    chk = check_adequate_supply(boosted, margin=0.01)
    assert not chk
    assert supply_certificate_holds(boosted, chk.certificate, 0.01)


def test_random_sparse_instance_shape():
    inst = random_sparse_instance(np.random.default_rng(11), n_contracts=30, n_items=180)
    assert inst.n_contracts == 30
    assert inst.n_items == 180
    # clipped-Gaussian valuations keep the graph sparse
    assert inst.n_edges < 0.35 * 30 * 180
    assert check_adequate_supply(inst, margin=1e-3)


def _sparse_draws(monkeypatch, seed, n, m):
    """random_sparse_instance's draw, and the same draw with max_scalable_target called on it every time."""
    fast = random_sparse_instance(np.random.default_rng(seed), n, m)
    monkeypatch.setattr(model, "_supply_lp", lambda *args: None)
    slow = random_sparse_instance(np.random.default_rng(seed), n, m)
    monkeypatch.undo()
    return fast, slow


@pytest.mark.parametrize("seed,n,m", [(1, 60, 400), (0, 200, 1200), (0, 30, 180), (1, 30, 180), (11, 30, 180)])
def test_random_sparse_instance_keeps_its_draws(monkeypatch, seed, n, m):
    # the draws of the benchmark, test_06 and the model, solver and simulate
    # tests meet 1.25 times their targets, so the one supply LP at 1.25 C
    # keeps them as they are, as max_scalable_target's t >= 1.25 did
    fast, slow = _sparse_draws(monkeypatch, seed, n, m)
    assert fast.to_json() == slow.to_json()


def test_random_sparse_instance_rescales_a_tight_draw(monkeypatch):
    # this draw cannot meet 1.25 C, so its targets go to 80% of the largest
    # satisfiable level, which max_scalable_target then reads as 1.25
    fast, slow = _sparse_draws(monkeypatch, 0, 20, 60)
    assert fast.to_json() == slow.to_json()
    assert max_scalable_target(fast, 1e-3) == pytest.approx(1.25, rel=1e-9)
    assert not model._supply_lp(fast, 1.25 * (1.0 + 1e-6) * fast.targets, 1e-3)[3]


def test_instance_arrays_read_only():
    inst = stress_instance()
    with pytest.raises(ValueError):
        inst.edge_v[0] = 5.0
    with pytest.raises(ValueError):
        inst.rates[0] = 5.0


# ---------------------------------------------------------------------------
# the HiGHS extension, loaded without running scipy.optimize


def _python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy_subpackage():
    loaded = set(_python("import sys, bidopt, bidopt.cli; print(*sys.modules)").split())
    assert "scipy.optimize._highspy._core" in loaded
    assert not loaded & {"scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse"}


@pytest.mark.parametrize("first", ["bidopt", "scipy.optimize"])
def test_highs_extension_is_shared_with_scipy_optimize(first):
    # either import order leaves one extension module: the same _Highs class,
    # and linprog still solves
    out = _python(f"""
import importlib
importlib.import_module({first!r})
import scipy.optimize
from bidopt import model
from scipy.optimize._highspy._core import _Highs
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
print(model._Highs is _Highs, res.status, res.fun)
""")
    assert out.split() == ["True", "0", "1.0"]


def test_highs_lookup_names_scipy_and_the_module(tmp_path):
    with pytest.raises(ImportError) as exc:
        model._highs_spec([str(tmp_path)])
    assert f"scipy {importlib.metadata.version('scipy')}" in str(exc.value)
    assert "scipy.optimize._highspy._core" in str(exc.value)
