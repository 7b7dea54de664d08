import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidopt.curves import (
    BoundedUniform,
    ConcavityResult,
    Empirical,
    Exponential,
    Hyperbolic,
    InsufficientSamples,
    PowerLawDensity,
    SupplyCurve,
    UndifferentiableAtBreakpoint,
    alpha_concavity_check,
    curve_from_json,
    fit_empirical,
)
from oracles import ks_distance

LN2 = math.log(2.0)


def normalized_curves():
    return [
        Exponential(1.0),
        Exponential(0.37),
        Hyperbolic(1.0),
        Hyperbolic(2.5),
        BoundedUniform(1.0),
        BoundedUniform(3.0),
        Empirical([(0.25, 0.25), (0.75, 0.5), (2.0, 0.75), (4.0, 1.0)]),
    ]


def all_curves():
    return normalized_curves() + [PowerLawDensity(2.0, 1.0), PowerLawDensity(0.5, 4.0)]


# ---------------------------------------------------------------------------
# point evaluation


def test_eval_known_points():
    assert Exponential(1.0).eval(LN2) == pytest.approx(0.5, abs=1e-15)
    assert Exponential(1.0).eval(0.0) == 0.0
    assert Exponential(1.0).eval(-2.0) == 0.0
    assert Hyperbolic(2.0).eval(2.0) == pytest.approx(0.5, abs=1e-15)
    assert BoundedUniform(4.0).eval(5.0) == 1.0
    assert PowerLawDensity(2.0, 1.0).eval(0.5) == pytest.approx(0.25)
    # beyond the cap the mass saturates
    assert PowerLawDensity(2.0, 1.0).eval(9.0) == pytest.approx(1.0)


def test_inverse_known_points():
    e = Exponential(1.0)
    assert e.inverse(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
    assert e.inverse(0.0) == 0.0
    assert e.inverse(-0.5) == 0.0
    assert e.inverse(1.5) == math.inf
    assert e.inverse(1.0) == math.inf
    assert BoundedUniform(2.0).inverse(1.0) == pytest.approx(2.0)
    # unnormalized curves invert volumes up to their total depth
    p = PowerLawDensity(2.0, 1.0)
    assert p.inverse(p.total_mass) == pytest.approx(1.0)
    assert p.inverse(p.total_mass * 1.01) == math.inf


def test_density_known_points():
    assert Exponential(2.0).density(0.5) == pytest.approx(2.0 * math.exp(-1.0))
    assert Hyperbolic(1.0).density(1.0) == pytest.approx(0.25)
    assert BoundedUniform(4.0).density(2.0) == pytest.approx(0.25)
    assert BoundedUniform(4.0).density(5.0) == 0.0
    assert Exponential(1.0).density(-1.0) == 0.0


def test_empirical_density_warns_at_knot():
    emp = Empirical([(1.0, 0.5), (3.0, 1.0)])
    with pytest.warns(UndifferentiableAtBreakpoint):
        d = emp.density(1.0)
    assert d == pytest.approx(0.25)  # right-derivative
    assert emp.density(0.5) == pytest.approx(0.5)
    assert emp.density(2.0) == pytest.approx(0.25)


def test_moments():
    assert Exponential(2.0).p_bar == pytest.approx(0.5)
    assert Hyperbolic(1.0).p_bar == math.inf
    assert BoundedUniform(3.0).p_bar == pytest.approx(1.5)
    emp = Empirical([(1.0, 0.5), (2.0, 1.0)])
    # mass splits evenly over (0,1] and (1,2]: mean = 0.5/2*1 + 0.5/2*3 = 1.0
    assert emp.p_bar == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# fitting


def test_fit_empirical_counts_and_ties():
    emp = fit_empirical([1, 1, 2, 3], min_support=1e-9)
    assert emp.breakpoints == ((0.0, 0.0), (1.0, 0.5), (2.0, 0.75), (3.0, 1.0))


def test_fit_empirical_interpolates():
    emp = fit_empirical([1, 2], min_support=1e-9)
    assert emp.eval(1.5) == pytest.approx(0.75)
    assert emp.eval(0.5) == pytest.approx(0.25)
    assert emp.x_bar == 2.0
    assert emp.total_mass == 1.0


def test_fit_empirical_insufficient():
    with pytest.raises(InsufficientSamples):
        fit_empirical([5.0], min_support=1e-9)
    with pytest.raises(InsufficientSamples):
        fit_empirical([5.0, 5.0, 5.0], min_support=1e-9)
    # distinct but closer than min_support collapses to one cluster
    with pytest.raises(InsufficientSamples):
        fit_empirical([1.0, 1.0 + 1e-12], min_support=1e-6)


def test_fit_empirical_min_support_merges():
    emp = fit_empirical([1.0, 1.001, 5.0], min_support=0.01)
    xs = [x for x, _ in emp.breakpoints]
    assert len(xs) == 3  # anchor + merged cluster + 5.0
    assert xs[1] == pytest.approx(1.0005)
    assert emp.breakpoints[1][1] == pytest.approx(2.0 / 3.0)


def test_fit_empirical_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_empirical([0.0, 1.0], min_support=1e-9)


def test_fit_empirical_ks_convergence():
    rng = np.random.default_rng(1653)
    true = Exponential(1.0)
    n = 100_000
    emp = fit_empirical(true.sample(rng, n), min_support=1e-12)
    grid = np.asarray(emp.inverse(np.linspace(1e-4, 1.0 - 1e-4, 2001)))
    gap = np.max(np.abs(np.asarray(emp.eval(grid)) - np.asarray(true.eval(grid))))
    # DKW-style bound at roughly the 0.2% level, plus interpolation slack
    assert gap <= 1.63 / math.sqrt(n) + 1e-3


# ---------------------------------------------------------------------------
# sampling


def test_inverse_transform_midpoint():
    assert Exponential(1.0).inverse(0.5) == pytest.approx(LN2, rel=1e-14)


def test_sample_matches_curve_ks():
    rng = np.random.default_rng(99)
    n = 100_000
    for curve in [Exponential(1.0), Hyperbolic(1.0), BoundedUniform(2.0)]:
        d = ks_distance(curve, curve.sample(rng, n))
        assert d <= 1.63 / math.sqrt(n), curve


def test_sample_requires_normalized():
    with pytest.raises(ValueError):
        PowerLawDensity(1.0, 1.0).sample(np.random.default_rng(0), 4)


def test_sample_deterministic_given_seed():
    c = Exponential(0.7)
    a = c.sample(np.random.default_rng(5), 16)
    b = c.sample(np.random.default_rng(5), 16)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# round trips and invariants


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), st.sampled_from(range(7)))
def test_eval_inverse_identity(q, idx):
    curve = normalized_curves()[idx]
    x = curve.inverse(q)
    assert curve.eval(x) == pytest.approx(q, abs=1e-10)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_inverse_eval_identity_unnormalized(frac):
    p = PowerLawDensity(1.7, 2.0)
    v = frac * p.total_mass
    assert p.eval(p.inverse(v)) == pytest.approx(v, rel=1e-12)


def test_eval_monotone_and_bounded():
    for curve in all_curves():
        xs = np.linspace(0.0, curve.x_bar if math.isfinite(curve.x_bar) else 50.0, 300)
        w = np.asarray(curve.eval(xs))
        assert np.all(np.diff(w) >= -1e-15)
        assert w[0] == 0.0
        assert w[-1] <= curve.total_mass + 1e-12


def test_immutability():
    e = Exponential(1.0)
    with pytest.raises(Exception):
        e.rate = 2.0
    emp = Empirical([(1.0, 1.0)])
    with pytest.raises(ValueError):
        emp._xs[0] = 3.0


def test_empirical_requires_strict_increase():
    with pytest.raises(ValueError):
        Empirical([(1.0, 0.5), (1.0, 0.7)])
    with pytest.raises(ValueError):
        Empirical([(1.0, 0.5), (2.0, 0.5)])
    with pytest.raises(ValueError):
        Empirical([(2.0, 0.5), (1.0, 1.0)])


def test_json_round_trip():
    for curve in all_curves():
        clone = curve_from_json(curve.to_json())
        assert type(clone) is type(curve)
        for q in (0.1, 0.45, 0.9):
            v = q * curve.total_mass
            assert clone.inverse(v) == pytest.approx(curve.inverse(v), rel=1e-14)


def test_json_unknown_family():
    with pytest.raises(ValueError):
        curve_from_json({"family": "cauchy", "params": {}})


# ---------------------------------------------------------------------------
# concavity checks


def test_alpha_concavity_standard_families():
    for curve in all_curves():
        assert alpha_concavity_check(curve, 2.0).concave, curve
    for curve in [Exponential(1.0), Hyperbolic(1.0), BoundedUniform(2.0), PowerLawDensity(1.0, 1.0)]:
        assert alpha_concavity_check(curve, 1.0).concave, curve


def test_alpha_concavity_detects_convex_kink():
    bad = Empirical([(1.0, 0.2), (2.0, 0.8)])  # slope rises 0.2 -> 0.6
    res = alpha_concavity_check(bad, 2.0)
    assert not res.concave
    assert res.witness == pytest.approx(1.0, abs=0.05)
    assert isinstance(res, ConcavityResult)
    assert not alpha_concavity_check(bad, 1.0).concave


@given(
    st.floats(min_value=0.5, max_value=1.9),
    st.floats(min_value=0.05, max_value=1.5),
    st.sampled_from(range(7)),
)
@settings(max_examples=30)
def test_alpha_concavity_monotone_in_alpha(alpha, gap, idx):
    # concavity at a lower alpha implies it at any higher alpha
    curve = normalized_curves()[idx]
    lo = alpha_concavity_check(curve, alpha, grid_size=512)
    hi = alpha_concavity_check(curve, alpha + gap, grid_size=512)
    if lo.concave:
        assert hi.concave


def test_param_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Hyperbolic(-1.0)
    with pytest.raises(ValueError):
        BoundedUniform(math.inf)
    with pytest.raises(ValueError):
        PowerLawDensity(1.0, -2.0)


def test_first_price_bid_needs_a_family_formula():
    # no generic fallback: a family without _g_inverse cannot price first price
    with pytest.raises(NotImplementedError, match="_g_inverse"):
        SupplyCurve()._g_inverse(1.0)
