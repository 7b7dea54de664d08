import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidopt.costs import (
    AcquisitionCost,
    AuctionKind,
    NotTwoConcave,
    OutOfRange,
    adaptive_simpson,
    dark_pool_identity_check,
    pay,
    quadrature_integral_cdf,
    quadrature_integral_quantile,
    quadrature_partial_mean,
    spend,
)
from bidopt.curves import (
    BoundedUniform,
    Empirical,
    Exponential,
    Hyperbolic,
    PowerLawDensity,
    alpha_concavity_check,
    fit_empirical,
)
from bidopt.model import random_instance
from oracles import grid_sup_biconjugate, grid_sup_conjugate, segment_max_first_price

LN2 = math.log(2.0)

EMP = Empirical([(0.25, 0.25), (0.75, 0.5), (2.0, 0.75), (4.0, 1.0)])


def second_price_battery():
    # mu ranges keep the grid-sup argmax comfortably inside [0, mass]
    return [
        (AcquisitionCost(Exponential(1.0), "second_price"), [0.3, 1.0, 1.85]),
        (AcquisitionCost(Hyperbolic(1.0), "second_price"), [0.4, 1.0, 2.0]),
        (AcquisitionCost(BoundedUniform(1.0), "second_price"), [0.3, 0.9, 2.0]),
        (AcquisitionCost(PowerLawDensity(2.0, 1.0), "second_price"), [0.3, 0.85, 2.0]),
        (AcquisitionCost(EMP, "second_price"), [0.5, 1.0, 3.0, 6.0]),
    ]


def first_price_battery():
    return [
        (AcquisitionCost(Exponential(1.0), "first_price"), [0.3, 1.0, 2.5]),
        (AcquisitionCost(Hyperbolic(1.0), "first_price"), [0.4, 1.0, 1.5]),
        (AcquisitionCost(BoundedUniform(1.0), "first_price"), [0.5, 1.0, 3.0]),
        (AcquisitionCost(PowerLawDensity(2.0, 1.0), "first_price"), [0.5, 0.9, 2.0]),
        (AcquisitionCost(EMP, "first_price"), [0.4, 1.25, 4.0, 9.0]),
    ]


# ---------------------------------------------------------------------------
# frozen closed-form values


def test_second_price_frozen_values():
    c = AcquisitionCost(Exponential(1.0), AuctionKind.SECOND_PRICE)
    assert c.lam(0.5) == pytest.approx(0.5 - 0.5 * LN2, abs=1e-15)
    assert c.conjugate(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert c.expected_cost(1.0) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=1e-15)
    assert c.win_probability(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    h = AcquisitionCost(Hyperbolic(1.0), "second_price")
    assert h.conjugate(1.0) == pytest.approx(1.0 - LN2, abs=1e-15)
    assert h.lam(0.5) == pytest.approx(LN2 - 0.5, abs=1e-15)
    # expected cost at the bid matching q = 1/2 agrees with lam there
    assert h.expected_cost(1.0) == pytest.approx(h.lam(0.5), abs=1e-15)

    b = AcquisitionCost(BoundedUniform(1.0), "second_price")
    assert b.lam(0.5) == pytest.approx(0.125, abs=1e-15)
    assert b.conjugate(0.5) == pytest.approx(0.125, abs=1e-15)
    # beyond the support the conjugate grows linearly with slope = mass,
    # anchored at mu = x_bar with value x_bar - p_bar
    assert b.conjugate(2.0) == pytest.approx(1.5, abs=1e-15)

    e = AcquisitionCost(EMP, "second_price")
    assert e.lam(0.375) == pytest.approx(0.078125, abs=1e-15)
    assert e.conjugate(1.0) == pytest.approx(0.35, abs=1e-15)
    assert e.conjugate(6.0) == pytest.approx(6.0 - EMP.p_bar, abs=1e-12)


@pytest.mark.parametrize("x", [1e6, 1e12, 1e14, 1e16])
def test_hyperbolic_second_price_payment_keeps_its_digits(x):
    # c (log1p(x/c) - x/(c+x)) in closed form: read as the quantile integral at
    # W(x), which rounds towards 1, it was 2.6e-5 off at 1e14 and inf at 1e16
    with mpmath.workdps(50):
        ref = float(mpmath.log1p(mpmath.mpf(x)) - mpmath.mpf(x) / (1 + mpmath.mpf(x)))
    assert AcquisitionCost(Hyperbolic(1.0), "second_price").expected_cost(x) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("scale", [3e-5, 0.7, 1.0, 2e4])
def test_hyperbolic_second_price_payment_small_bids(scale):
    # at small t = x/c the closed form's log1p(t) - t/(1+t) cancels (2.9e-9
    # off at x = 1e-8 c); the series sum_{k>=2} s^k / k in s = W(x) does not
    xs = np.geomspace(1e-12, 1e6, 721) * scale
    with mpmath.workdps(50):
        ref = []
        for x in xs:
            t = mpmath.mpf(x) / scale
            ref.append(float(scale * (mpmath.log1p(t) - t / (1 + t))))
    got = Hyperbolic.price_integral(xs, np.full(xs.size, scale))
    assert np.all(np.abs(got / np.array(ref) - 1.0) <= 8.0 * np.finfo(float).eps)


def test_first_price_frozen_values():
    c = AcquisitionCost(Exponential(1.0), "first_price")
    assert c.bid_mapping(1.0) == pytest.approx(math.e, rel=1e-14)
    assert c.lam(0.5) == pytest.approx(0.5 * LN2, abs=1e-15)
    assert c.expected_cost(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    h = AcquisitionCost(Hyperbolic(1.0), "first_price")
    assert h.conjugate(1.0) == pytest.approx((math.sqrt(2.0) - 1.0) ** 2, rel=1e-13)
    assert h.bid_mapping_inverse(1.0) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)

    b = AcquisitionCost(BoundedUniform(1.0), "first_price")
    assert b.bid_cap == pytest.approx(2.0)
    assert b.conjugate(1.0) == pytest.approx(0.25, abs=1e-15)
    assert b.conjugate(3.0) == pytest.approx(2.0, abs=1e-15)

    p = AcquisitionCost(PowerLawDensity(2.0, 1.0), "first_price")
    assert p.bid_cap == pytest.approx(1.5)
    assert p.conjugate(0.9) == pytest.approx(4.0 * 0.9**3 / 27.0, rel=1e-13)
    assert p.conjugate(1.5) == pytest.approx(0.5, rel=1e-13)

    e = AcquisitionCost(EMP, "first_price")
    assert e.bid_cap == pytest.approx(12.0)
    assert e.bid_mapping(0.5) == pytest.approx(1.25, abs=1e-14)
    assert e.conjugate(1.25) == pytest.approx(0.75 * 0.375, abs=1e-12)


def test_extended_values():
    for cost, _ in second_price_battery() + first_price_battery():
        assert cost.lam(0.0) == 0.0
        assert cost.lam(-1.0) == 0.0
        assert cost.lam(cost.total_mass * 1.0000001) == math.inf
        assert cost.conjugate(-1e-9) == math.inf
        assert cost.conjugate(0.0) == 0.0
        assert cost.expected_cost(-2.0) == 0.0


# ---------------------------------------------------------------------------
# conjugacy against the grid-sup oracle


def test_conjugate_matches_grid_sup():
    for cost, mus in second_price_battery() + first_price_battery():
        for mu in mus:
            assert cost.conjugate(mu) == pytest.approx(
                grid_sup_conjugate(cost, mu), abs=1e-6
            ), (cost, mu)


def test_lam_matches_grid_biconjugate():
    cases = [
        (AcquisitionCost(Exponential(1.0), "second_price"), [0.2, 0.5, 0.8], 3.0),
        (AcquisitionCost(Hyperbolic(1.0), "second_price"), [0.2, 0.5, 0.8], 6.0),
        (AcquisitionCost(BoundedUniform(1.0), "second_price"), [0.2, 0.5, 0.8], 2.0),
        (AcquisitionCost(EMP, "second_price"), [0.2, 0.5, 0.8], 6.0),
        (AcquisitionCost(Exponential(1.0), "first_price"), [0.2, 0.6], 5.0),
        (AcquisitionCost(Hyperbolic(1.0), "first_price"), [0.2, 0.5], 6.0),
        (AcquisitionCost(EMP, "first_price"), [0.3, 0.6, 0.9], 11.0),
    ]
    for cost, qs, mu_hi in cases:
        for q in qs:
            assert cost.lam(q) == pytest.approx(
                grid_sup_biconjugate(cost, q, mu_hi), abs=1e-5
            ), (cost, q)


def test_win_probability_is_conjugate_derivative():
    # central differences away from kinks of the conjugate
    cases = [
        (AcquisitionCost(Exponential(1.0), "second_price"), [0.5, 1.0, 2.0]),
        (AcquisitionCost(Hyperbolic(1.0), "second_price"), [0.5, 1.5]),
        (AcquisitionCost(BoundedUniform(1.0), "second_price"), [0.3, 0.8]),
        (AcquisitionCost(EMP, "second_price"), [0.5, 1.0, 3.0]),
        (AcquisitionCost(Exponential(1.0), "first_price"), [0.5, 1.5, 2.5]),
        (AcquisitionCost(Hyperbolic(1.0), "first_price"), [0.5, 1.2]),
        (AcquisitionCost(PowerLawDensity(2.0, 1.0), "first_price"), [0.4, 1.2]),
        # mu values chosen inside the smooth bands between knot images
        (AcquisitionCost(EMP, "first_price"), [0.4, 1.25, 4.0, 9.0]),
    ]
    for cost, mus in cases:
        for mu in mus:
            h = 1e-5 * (1.0 + mu)
            fd = (cost.conjugate(mu + h) - cost.conjugate(mu - h)) / (2.0 * h)
            assert cost.win_probability(mu) == pytest.approx(fd, abs=2e-6), (cost, mu)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(range(8)),
)
@settings(max_examples=60)
def test_fenchel_young_inequality(mu, frac, case):
    costs = [c for c, _ in second_price_battery() + first_price_battery()]
    cost = costs[case]
    q = frac * cost.total_mass
    lam, conj = cost.lam(q), cost.conjugate(mu)
    if math.isfinite(lam) and math.isfinite(conj):
        assert lam + conj >= mu * q - 1e-9


def test_fenchel_young_equality_at_pairing():
    for cost, mus in second_price_battery() + first_price_battery():
        for mu in mus:
            q = cost.win_probability(mu)
            assert mu * q - cost.lam(q) == pytest.approx(cost.conjugate(mu), abs=1e-8), (cost, mu)


def test_lam_strictly_convex():
    for cost, _ in second_price_battery() + first_price_battery():
        mass = cost.total_mass
        for a, b in [(0.1, 0.5), (0.2, 0.8), (0.55, 0.95)]:
            qa, qb = a * mass, b * mass
            mid = cost.lam(0.5 * (qa + qb))
            avg = 0.5 * (cost.lam(qa) + cost.lam(qb))
            assert mid < avg - 1e-12, cost


# ---------------------------------------------------------------------------
# bid mappings


def test_second_price_bid_mapping_is_identity():
    c = AcquisitionCost(Exponential(1.0), "second_price")
    assert c.bid_mapping(1.3) == 1.3
    assert c.bid_mapping_inverse(0.7) == 0.7
    assert c.bid_mapping_inverse(-0.5) == 0.0
    assert c.bid_mapping_inverse(1e9) == 1e9  # unbounded support never caps


def test_first_price_bid_round_trip():
    cases = [
        (AcquisitionCost(Exponential(1.0), "first_price"), [0.1, 0.5, 1.5, 3.0]),
        (AcquisitionCost(Hyperbolic(1.0), "first_price"), [0.1, 0.5, 1.5, 3.0]),
        (AcquisitionCost(BoundedUniform(1.0), "first_price"), [0.1, 0.5, 0.9]),
        (AcquisitionCost(PowerLawDensity(2.0, 1.0), "first_price"), [0.1, 0.5, 0.9]),
        (AcquisitionCost(EMP, "first_price"), [0.1, 0.5, 1.2, 3.0]),
    ]
    for cost, xs in cases:
        for x in xs:
            mu = cost.bid_mapping(x)
            back = cost.bid_mapping_inverse(mu)
            assert back == pytest.approx(x, rel=1e-9, abs=1e-12), (cost, x)


def test_bid_mapping_monotone():
    for cost, _ in first_price_battery():
        hi = cost.curve.x_bar if math.isfinite(cost.curve.x_bar) else 20.0
        xs = np.linspace(1e-3, hi, 200)
        g = np.asarray(cost.bid_mapping(xs))
        assert np.all(np.diff(g) > 0.0), cost


def test_bid_mapping_inverse_out_of_range():
    b = AcquisitionCost(BoundedUniform(1.0), "first_price")
    with pytest.raises(OutOfRange):
        b.bid_mapping_inverse(2.1)
    s = AcquisitionCost(BoundedUniform(1.0), "second_price")
    with pytest.raises(OutOfRange):
        s.bid_mapping_inverse(1.5)
    e = AcquisitionCost(EMP, "first_price")
    with pytest.raises(OutOfRange):
        e.bid_mapping_inverse(12.5)
    # at the cap itself the maximal useful bid comes back
    assert e.bid_mapping_inverse(12.0) == pytest.approx(4.0, rel=1e-9)


def test_first_price_requires_two_concavity():
    kinked = Empirical([(1.0, 0.2), (2.0, 0.8)])
    with pytest.raises(NotTwoConcave):
        AcquisitionCost(kinked, "first_price")
    AcquisitionCost(kinked, "second_price")  # fine without a bid mapping


def test_auction_kind_parse():
    assert AuctionKind.parse("first_price") is AuctionKind.FIRST_PRICE
    assert AuctionKind.parse(AuctionKind.SECOND_PRICE) is AuctionKind.SECOND_PRICE
    with pytest.raises(ValueError):
        AuctionKind.parse("dutch")


# ---------------------------------------------------------------------------
# quadrature cross-checks


def test_adaptive_simpson_polynomial():
    assert adaptive_simpson(lambda u: u**3, 0.0, 2.0) == pytest.approx(4.0, rel=1e-12)
    assert adaptive_simpson(lambda u: u, 1.0, 1.0) == 0.0


def test_exact_integrals_match_quadrature():
    curves = [
        Exponential(0.7),
        Hyperbolic(1.3),
        BoundedUniform(1.0),
        PowerLawDensity(2.0, 1.0),
        PowerLawDensity(0.8, 2.0),  # unnormalized: mass 1.6
        EMP,
        Empirical([(0.3, 0.0), (0.5, 0.2), (1.0, 0.9)]),  # spread gap below 0.3
    ]
    for curve in curves:
        mass = curve.total_mass
        for mu in (0.35, 1.7):
            assert curve.integral_cdf(mu) == pytest.approx(
                quadrature_integral_cdf(curve, mu), abs=1e-8
            ), curve
        for frac in (0.3, 0.77):
            q = frac * mass
            assert curve.integral_quantile(q) == pytest.approx(
                quadrature_integral_quantile(curve, q), abs=1e-8
            ), curve
        hi = curve.x_bar if math.isfinite(curve.x_bar) else 1.6
        for x in (0.4 * hi, 0.9 * hi):
            assert curve.partial_mean(x) == pytest.approx(
                quadrature_partial_mean(curve, x), abs=1e-8
            ), curve

    # grouped spend and pay, one call per family group, under both auctions:
    # q from 0 to the mass and x from 0 to beyond x_bar, where W is held at
    # the mass; then AcquisitionCost's conventions at q beyond the mass and x <= 0
    groups = [
        [Exponential(0.7), Exponential(1.9)],
        [Hyperbolic(1.3), Hyperbolic(0.5)],
        [BoundedUniform(1.0), BoundedUniform(2.5)],
        [PowerLawDensity(2.0, 1.0), PowerLawDensity(0.8, 2.0)],
        [EMP],
        [curves[-1]],  # spread gap below 0.3
    ]
    for group in groups:
        family = group[0] if isinstance(group[0], Empirical) else type(group[0])
        params = tuple(np.array(col) for col in zip(*(c.formula_params() for c in group)))
        mass = np.array([c.total_mass for c in group])
        hi = np.array([c.x_bar if math.isfinite(c.x_bar) else 1.6 for c in group])
        for frac in (0.0, 0.3, 0.77, 1.0):
            q = frac * mass
            second, first = spend(family, params, q, False), spend(family, params, q, True)
            for k, curve in enumerate(group):
                bounded = math.isfinite(curve.x_bar)
                ref = quadrature_integral_quantile(curve, q[k]) if frac < 1.0 or bounded else curve.p_bar
                assert second[k] == pytest.approx(ref, abs=1e-8), (curve, frac)
                assert first[k] == pytest.approx(q[k] * float(curve.inverse(q[k])), abs=1e-12), (curve, frac)
        for frac in (0.0, 0.4, 0.9, 1.5):
            x = frac * hi
            second, first = pay(family, params, x, False), pay(family, params, x, True)
            for k, curve in enumerate(group):
                ref = quadrature_partial_mean(curve, x[k])
                assert second[k] == pytest.approx(ref, abs=1e-8), (curve, frac)
                assert first[k] == pytest.approx(x[k] * float(curve.eval(x[k])), abs=1e-12), (curve, frac)
        for k, curve in enumerate(group):
            for kind in AuctionKind:
                if kind is AuctionKind.FIRST_PRICE and not alpha_concavity_check(curve, 2.0):
                    continue
                cost = AcquisitionCost(curve, kind)
                assert cost.lam(np.array([-0.5, 0.0, 1.5 * mass[k]])).tolist() == [0.0, 0.0, math.inf]
                assert cost.expected_cost(np.array([-0.5, 0.0])).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# dark-pool identity


def test_dark_pool_identity_exponential():
    cost = AcquisitionCost(Exponential(1.0), "second_price")
    res = dark_pool_identity_check(cost, 1.0, rng=np.random.default_rng(7))
    assert res.exact_value == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert res.residual <= 3.5 * res.stderr
    assert res.n_samples == 200_000


def test_dark_pool_identity_empirical():
    cost = AcquisitionCost(EMP, "second_price")
    res = dark_pool_identity_check(cost, 1.0, rng=np.random.default_rng(21))
    assert res.exact_value == pytest.approx(0.35, abs=1e-12)
    assert res.residual <= 3.5 * res.stderr


def test_dark_pool_rejects_first_price():
    with pytest.raises(ValueError):
        dark_pool_identity_check(AcquisitionCost(Exponential(1.0), "first_price"), 1.0)


# ---------------------------------------------------------------------------
# first price on piecewise-linear curves: exact against the segment-max oracle


def _fitted_two_concave(rng):
    """An empirical curve fitted to exponential prices, coarsened until it
    passes the 2-concavity check first-price pricing requires."""
    prices = rng.exponential(1.0 / rng.uniform(0.5, 2.0), size=4000)
    for clusters in (16, 8, 4):
        curve = fit_empirical(prices, min_support=float(np.quantile(prices, 0.9)) / clusters)
        if alpha_concavity_check(curve, 2.0):
            return curve
    return None


@functools.lru_cache(maxsize=1)
def fitted_first_price_curves():
    # the first-price item of the 6x16 seed-11 mixed instance, drawn after
    # the instance itself, then fits from fresh seeds
    rng = np.random.default_rng(11)
    random_instance(rng, 6, 16, edge_prob=0.5, slack_margin=0.02)
    curves = [_fitted_two_concave(rng)]
    curves += [_fitted_two_concave(np.random.default_rng(seed)) for seed in range(6)]
    return curves


def test_fitted_curves_have_non_monotone_bid_mappings():
    # the case the exact kernel exists for: slopes rise at some knots, so
    # g = x + W/W' is not monotone although the grid check passes
    curves = fitted_first_price_curves()
    assert all(c is not None for c in curves)
    rising = [int(np.sum(np.diff(c._slopes) > 0.0)) for c in curves]
    assert min(rising) > 0 and rising[0] >= 10


@pytest.mark.parametrize("k", range(7))
def test_first_price_empirical_matches_segment_max(k):
    cost = AcquisitionCost(fitted_first_price_curves()[k], "first_price")
    x_bar = cost.curve.x_bar
    mus = np.concatenate([
        np.linspace(0.0, 2.5 * x_bar, 61)[1:],
        np.asarray(cost.bid_mapping(np.linspace(0.02, 0.98, 13) * x_bar)),
        [cost.bid_cap, 1.5 * cost.bid_cap],
    ])
    conj = np.asarray(cost.conjugate(mus))
    win = np.asarray(cost.win_probability(mus))
    for mu, c, w in zip(mus, conj, win):
        best, wins = segment_max_first_price(cost.curve, mu)
        assert c == pytest.approx(best, rel=1e-12), (k, mu)
        assert any(w == pytest.approx(v, rel=1e-12, abs=1e-15) for v in wins), (k, mu, w, wins)
        # scalar calls (the solver's per-item fallback) agree with the vector path
        assert cost.conjugate(float(mu)) == c


def test_first_price_spread_gap_curve():
    # W = 0 below the first knot: bids under 0.5 win nothing, and the bid
    # mapping has no density there, yet the conjugate is still exact
    cost = AcquisitionCost(Empirical([(0.5, 0.0), (1.0, 0.5), (2.0, 1.0)]), "first_price")
    assert cost.conjugate(0.3) == 0.0
    assert cost.win_probability(0.3) == 0.0
    assert cost.conjugate(0.6) == pytest.approx(0.0025, rel=1e-12)  # bid 0.55, W = 0.05
    assert cost.win_probability(0.6) == pytest.approx(0.05, rel=1e-12)
    assert cost.conjugate(np.array([0.3, 0.6])) == pytest.approx([0.0, 0.0025], rel=1e-12)
