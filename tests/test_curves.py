import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wrightomega

from bidopt.curves import (
    BoundedUniform,
    ConcavityResult,
    Empirical,
    Exponential,
    Hyperbolic,
    InsufficientSamples,
    PowerLawDensity,
    SupplyCurve,
    _omega,
    alpha_concavity_check,
    curve_from_json,
    fit_empirical,
)
from oracles import fit_empirical_knots, ks_distance

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import bidopt  # noqa: E402
from perfbench.workloads import mixed_pipeline  # noqa: E402

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


def test_empirical_density_is_the_right_derivative_at_a_knot():
    emp = Empirical([(1.0, 0.5), (3.0, 1.0)])
    assert emp.density(1.0) == pytest.approx(0.25)
    assert emp.density(0.5) == pytest.approx(0.5)
    assert emp.density(2.0) == pytest.approx(0.25)


def test_moments():
    assert Exponential(2.0).p_bar == pytest.approx(0.5)
    assert Hyperbolic(1.0).p_bar == math.inf
    assert BoundedUniform(3.0).p_bar == pytest.approx(1.5)
    # unnormalized volume profile: ∫_0^1 p * 2p dp
    assert PowerLawDensity(2.0, 1.0).p_bar == pytest.approx(2.0 / 3.0)
    emp = Empirical([(1.0, 0.5), (2.0, 1.0)])
    # mass splits evenly over (0,1] and (1,2]: mean = 0.5/2*1 + 0.5/2*3 = 1.0
    assert emp.p_bar == pytest.approx(1.0)


@pytest.mark.parametrize("curve,price,exact", [
    (Exponential(0.7), 1 / 0.7, lambda x: (1 - mpmath.exp(-0.7 * x) * (1 + 0.7 * x)) / 0.7),
    (Hyperbolic(1.3), 1.3, lambda x: 1.3 * (mpmath.log1p(x / 1.3) + 1.3 / (1.3 + x) - 1)),
])
def test_partial_mean_matches_mpmath(curve, price, exact):
    # small bids are where the partial mean cancels most: it falls like x^2
    with mpmath.workdps(40):
        for x in np.geomspace(1e-3, 1e3, 61) * price:
            ref = float(exact(mpmath.mpf(float(x))))
            assert curve.partial_mean(x) == pytest.approx(ref, rel=1e-9), x


_QUANTILES = np.concatenate([np.geomspace(1e-12, 0.5, 161), 1.0 - np.geomspace(0.5, 1e-15, 81)[1:]])


@pytest.mark.parametrize("param", [3e-5, 0.7, 1.0, 2.5, 2e4])
@pytest.mark.parametrize("formula,exact,unit", [
    pytest.param(Exponential.w_integral, lambda mu, r: mu + mpmath.expm1(-r * mu) / r, lambda r: 1.0 / r,
                 id="exponential-w_integral"),
    pytest.param(Exponential.quantile_integral, lambda q, r: (q + (1 - q) * mpmath.log1p(-q)) / r, None,
                 id="exponential-quantile_integral"),
    pytest.param(Hyperbolic.w_integral, lambda mu, c: mu - c * mpmath.log1p(mu / c), lambda c: c,
                 id="hyperbolic-w_integral"),
    pytest.param(Hyperbolic.quantile_integral, lambda q, c: c * (-q - mpmath.log1p(-q)), None,
                 id="hyperbolic-quantile_integral"),
])
def test_family_integrals_keep_small_arguments_digits(formula, exact, unit, param):
    # each closed form subtracts two numbers near the argument, so at small
    # arguments it cancels (1e-8 relative at 1e-8, and all digits of the
    # exponential quantile integral there); below a threshold a series is
    # summed instead, within 8 ulp of 50 digits from 1e-12 to 1e6 price units
    # and over the whole quantile range
    args = _QUANTILES if unit is None else np.geomspace(1e-12, 1e6, 241) * unit(param)
    with mpmath.workdps(50):
        ref = [float(exact(mpmath.mpf(float(a)), mpmath.mpf(param))) for a in args]
    np.testing.assert_array_max_ulp(formula(args, np.full(args.size, param)), np.array(ref), maxulp=8)


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
    with pytest.raises(ValueError, match="positive"):
        fit_empirical([1.0, math.nan, 2.0], min_support=1e-9)


def loop_fit(prices, min_support):
    """The loop reference's knots, as an Empirical curve."""
    return Empirical(fit_empirical_knots(prices, min_support))


def test_fit_empirical_matches_the_loop_on_the_mixed_pipeline_draws(monkeypatch):
    # every fit the mixed-pipeline benchmark makes, bit for bit
    fits = []
    fit = bidopt.fit_empirical

    def checked(prices, min_support):
        curve = fit(prices, min_support)
        assert curve.breakpoints == loop_fit(prices, min_support).breakpoints
        fits.append(min_support)
        return curve

    monkeypatch.setattr(bidopt, "fit_empirical", checked)
    mixed_pipeline()
    assert len(fits) >= 5


@pytest.mark.parametrize("prices, min_support, xs", [
    # ties merge, then each distinct value is its own cluster
    ([3.0, 1.0, 1.0, 2.0, 3.0, 3.0, 7.0], 1e-9, [1.0, 2.0, 3.0, 7.0]),
    # a gap exactly min_support wide starts a new cluster
    ([1.0, 1.5, 2.0, 2.25], 0.5, [1.0, 1.5, 2.125]),
    ([0.25, 0.5, 0.5, 0.75], 0.25, [0.25, 0.5, 0.75]),
    # 1.3866145483714679e-12 < 4.0807628368646937e-13 + 9.785382646849986e-13
    # as rounded, yet their difference rounds up to min_support
    ([4.0807628368646937e-13, 1.3866145483714679e-12], 9.785382646849986e-13,
     [4.0807628368646937e-13, 1.3866145483714679e-12]),
])
def test_fit_empirical_knots_match_the_loop(prices, min_support, xs):
    curve = fit_empirical(prices, min_support)
    assert curve.breakpoints == loop_fit(prices, min_support).breakpoints
    assert [x for x, _ in curve.breakpoints[1:]] == xs


@pytest.mark.parametrize("prices, min_support", [
    ([2.0, 2.0, 2.0], 1e-9),
    ([1.0, 1.25, 1.4999999999999998], 0.5),
    # 0.4 - 0.30000000000000004 rounds below 0.1, though 0.4 is their
    # rounded sum
    ([0.30000000000000004, 0.4], 0.1),
])
def test_fit_empirical_single_cluster_is_insufficient(prices, min_support):
    with pytest.raises(ValueError):
        loop_fit(prices, min_support)
    with pytest.raises(InsufficientSamples):
        fit_empirical(prices, min_support)


@given(ks=st.lists(st.integers(1, 40), min_size=1, max_size=60),
       min_support=st.sampled_from([1e-9, 0.1, 0.2, 0.3, 0.7, 1.1]))
def test_fit_empirical_matches_the_loop_on_decimal_grids(ks, min_support):
    # tenths rounded to doubles: ties, and gaps that round on either side of
    # min_support
    prices = [k * 0.1 for k in ks]
    try:
        knots = loop_fit(prices, min_support).breakpoints
    except ValueError:
        with pytest.raises(InsufficientSamples):
            fit_empirical(prices, min_support)
        return
    assert fit_empirical(prices, min_support).breakpoints == knots


def test_fit_empirical_rejects_prices_that_are_not_flat():
    with pytest.raises(ValueError, match="flat"):
        fit_empirical([[1.0, 2.0], [3.0, 4.0]], min_support=1e-9)


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


@pytest.mark.parametrize("breakpoints", [
    [(1e308, 0.5), (1.5e308, 1.0)],  # the running integral overflows in dx**2
    [(5e-324, 0.5), (1e-323, 1.0)],  # the slope overflows
    [(1e300, 1e-300), (2e300, 2e-300)],  # the slope underflows to 0
])
def test_empirical_rejects_slopes_and_integrals_out_of_range(breakpoints):
    # with no numpy warning on the way: the suite turns warnings into errors
    with pytest.raises(ValueError, match=r"^breakpoints \(0, 0\) to .* not a positive finite number"):
        Empirical(breakpoints)


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


@pytest.mark.parametrize("params", [{"rate": 1.0, "scael": 2.0}, {}, {"scale": 1.0}],
                         ids=["unknown", "missing", "another-family's"])
def test_json_takes_exactly_the_family_fields(params):
    with pytest.raises(ValueError, match="exponential curve takes the parameters"):
        curve_from_json({"family": "exponential", "params": params})


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
    with pytest.raises(ValueError, match="rate must be a positive finite number"):
        Exponential(0.0)
    with pytest.raises(ValueError, match="scale must be a positive finite number"):
        Hyperbolic(-1.0)
    with pytest.raises(ValueError, match="x_max must be a positive finite number"):
        BoundedUniform(math.inf)
    with pytest.raises(ValueError, match="x_max must be a positive finite number"):
        PowerLawDensity(1.0, -2.0)
    with pytest.raises(ValueError, match="w0 must be a positive finite number"):
        PowerLawDensity(math.nan, 2.0)


def test_first_price_bid_needs_a_family_formula():
    # no generic fallback: a family without _g_inverse cannot price first price
    with pytest.raises(NotImplementedError, match="_g_inverse"):
        SupplyCurve()._g_inverse(1.0)


def test_omega_matches_scipy_wrightomega():
    # the numpy Wright omega behind Exponential.bid, from a = 1 to the top of
    # the float range; an overflow on the way would raise here as a warning
    a = np.concatenate([[1.0, 2.0, 1.7e308, np.finfo(float).max], np.logspace(0.0, np.log10(1.7e308), 200001)])
    np.testing.assert_array_max_ulp(_omega(a), wrightomega(a), maxulp=2)
