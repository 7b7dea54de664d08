import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bidopt.costs import AcquisitionCost, NotTwoConcave
from bidopt.curves import BoundedUniform, Empirical, Exponential, Hyperbolic, PowerLawDensity
from bidopt.model import ItemType
from bidopt.related import (
    BudgetInstance,
    BudgetSlack,
    InsufficientDepth,
    LobMarket,
    MarkowitzInstance,
    NotConverged,
    budget_bids,
    budget_spend,
    lob_cost,
    markowitz_dual_objective,
    markowitz_from_json,
    markowitz_objective,
    solve_budget,
    solve_markowitz_dual,
    solve_markowitz_primal,
)
from bidopt.related import _volume_prox

# ---------------------------------------------------------------------------
# budget-constrained bidding


def budget_instance(budget=1.0):
    items = [
        ItemType("a", 1.0, Exponential(1.0), "second_price"),
        ItemType("b", 2.0, Exponential(0.5), "second_price"),
        ItemType("c", 1.5, BoundedUniform(2.0), "second_price"),
    ]
    return BudgetInstance(items=items, values=np.array([1.0, 0.7, 0.4]), budget=budget)


def test_budget_second_price_bids_are_shaded_valuations():
    bi = budget_instance(0.8)
    theta, bids = solve_budget(bi)
    assert theta > 0.0
    # second price: g is the identity, so the bid is exactly v / theta
    for j in range(bi.n_items):
        expected = min(bi.values[j] / theta, bi.items[j].curve.x_bar)
        assert bids[j] == pytest.approx(expected, rel=1e-12)
    assert budget_spend(bi, theta) == pytest.approx(0.8, abs=1e-8)


def test_budget_and_proximal_roots_keep_their_bits():
    # neither balance gives slopes, so monotone_root takes the doubling and
    # Illinois steps alone and finds the same floats as without Newton steps
    values = np.array([1.0, 0.7, 0.4])
    thetas = [solve_budget(BudgetInstance(items=budget_instance().items, values=values, budget=b))[0]
              for b in (0.3, 0.8, 2.0)]
    assert [t.hex() for t in thetas] == ["0x1.6490ac7ce1819p+0", "0x1.840356032f3f1p-1", "0x1.9371df24f84b5p-2"]
    first = [ItemType("h", 1.0, Hyperbolic(0.7), "first_price"), ItemType("e", 1.3, Exponential(1.2), "first_price")]
    theta, _ = solve_budget(BudgetInstance(items=first, values=np.array([2.0, 1.1]), budget=0.3))
    assert theta.hex() == "0x1.a66ac5161c298p+0"
    books = (Exponential(1.5), Hyperbolic(0.8), BoundedUniform(2.0), Empirical([(0.3, 0.0), (0.8, 0.5), (2.0, 1.2)]))
    y = _volume_prox(LobMarket(books), 0.7)(np.array([0.4, 0.9, 1.3, 2.5]))
    assert [v.hex() for v in y] == ["0x1.09ea86c29b2a5p-2", "0x1.c9da022d8ea49p-2", "0x1.1555555555555p-1",
                                    "0x1.27904a7904a79p+0"]


def test_budget_first_price_hyperbolic_closed_form():
    c = 0.7
    items = [ItemType("h", 1.0, Hyperbolic(c), "first_price")]
    bi = BudgetInstance(items=items, values=np.array([2.0]), budget=0.3)
    theta, bids = solve_budget(bi)
    v = 2.0
    assert bids[0] == pytest.approx(c * (math.sqrt(1.0 + v / (c * theta)) - 1.0), rel=1e-10)


def test_budget_slack_returns_max_bids():
    # bounded uniform second price: maximal spend is lambda * x_bar / 2
    items = [ItemType("u", 1.0, BoundedUniform(2.0), "second_price")]
    bi = BudgetInstance(items=items, values=np.array([1.0]), budget=5.0)
    with pytest.raises(BudgetSlack) as exc:
        solve_budget(bi)
    assert exc.value.theta == 0.0
    assert exc.value.bids[0] == pytest.approx(2.0)


def test_budget_multiplier_monotone_in_budget():
    thetas = []
    for budget in [0.2, 0.4, 0.8, 1.6]:
        theta, bids = solve_budget(budget_instance(budget))
        thetas.append(theta)
        spent = sum(
            it.arrival_rate * float(AcquisitionCost(it.curve, it.auction).expected_cost(x))
            for it, x in zip(budget_instance(budget).items, bids)
        )
        assert spent == pytest.approx(budget, rel=1e-7)
    assert all(a > b for a, b in zip(thetas, thetas[1:]))


def test_budget_zero_value_item_gets_zero_bid():
    items = [
        ItemType("a", 1.0, Exponential(1.0), "second_price"),
        ItemType("z", 1.0, Exponential(1.0), "second_price"),
    ]
    bi = BudgetInstance(items=items, values=np.array([1.0, 0.0]), budget=0.2)
    theta, bids = solve_budget(bi)
    assert bids[1] == 0.0
    assert bids[0] > 0.0


@pytest.mark.parametrize("curve,budget", [
    pytest.param(Exponential(1.0), 5.0, id="exponential-5"),
    pytest.param(Exponential(1.0), 50.0, id="exponential-50"),
    # spend ~ log(1/theta) here, so this budget needs theta ~ e^-100: far
    # below 2^-80, where the root search's bracket once stopped growing
    pytest.param(Exponential(1.0), 100.0, id="exponential-100"),
    pytest.param(Hyperbolic(1.0), 50.0, id="hyperbolic-50"),
    pytest.param(Hyperbolic(1.0), 500.0, id="hyperbolic-500"),
])
def test_budget_multiplier_meets_the_budget(curve, budget):
    # one unit-value first-price item: the spend at the returned multiplier
    # is the budget to rounding, with no warning on the way
    bi = BudgetInstance(items=[ItemType("a", 1.0, curve, "first_price")], values=np.array([1.0]), budget=budget)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta, bids = solve_budget(bi)
        assert abs(budget_spend(bi, theta) - budget) <= 1e-12 * budget
    assert bids[0] == budget_bids(bi, theta)[0]


def test_budget_instance_gates_first_price_curves():
    kinked = Empirical([(1.0, 0.2), (2.0, 0.8)])
    with pytest.raises(NotTwoConcave):
        BudgetInstance(items=[ItemType("a", 1.0, kinked, "first_price")], values=np.array([1.0]), budget=0.1)


def test_budget_validation():
    items = [ItemType("a", 1.0, Exponential(1.0), "second_price")]
    with pytest.raises(ValueError):
        BudgetInstance(items=items, values=np.array([0.0]), budget=1.0)
    with pytest.raises(ValueError):
        BudgetInstance(items=items, values=np.array([1.0]), budget=0.0)
    with pytest.raises(ValueError):
        BudgetInstance(items=items, values=np.array([1.0, 2.0]), budget=1.0)


# ---------------------------------------------------------------------------
# order-book market orders


def test_lob_cost_square_root_law():
    # linear depth density: cost of volume V is (2/3) sqrt(2/w0) V^(3/2)
    w0 = 2.0
    market = LobMarket((PowerLawDensity(w0, 1.5),))
    for V in [0.01, 0.3, 1.0, 2.0]:
        assert lob_cost(market, 0, V) == pytest.approx(
            (2.0 / 3.0) * math.sqrt(2.0 / w0) * V**1.5, rel=1e-12
        )
    assert lob_cost(market, 0, 0.0) == 0.0


def test_lob_cost_loglog_slope():
    market = LobMarket((PowerLawDensity(2.0, 1.5),))
    vols = np.geomspace(1e-3, 1.0, 200)
    costs = np.array([lob_cost(market, 0, v) for v in vols])
    slope = np.polyfit(np.log(vols), np.log(costs), 1)[0]
    assert abs(slope - 1.5) <= 0.01


def test_lob_cost_uniform_density_against_quadrature():
    # constant density w0 on (0, P]: quantile V/w0, cost V^2 / (2 w0)
    w0, P = 1.6, 2.0
    curve = Empirical([(0.0, 0.0), (P, w0 * P)])
    market = LobMarket((curve,))
    for V in [0.1, 0.9, 2.5]:
        oracle = quad(lambda q: q / w0, 0.0, V)[0]
        got = lob_cost(market, 0, V)
        assert got == pytest.approx(V**2 / (2.0 * w0), rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-9)


def test_lob_cost_depth_limit():
    market = LobMarket((PowerLawDensity(2.0, 1.0),))  # depth = 1
    with pytest.raises(InsufficientDepth):
        lob_cost(market, 0, 1.5)
    with pytest.raises(ValueError):
        lob_cost(market, 0, -0.1)


def test_lob_cost_convex_in_volume():
    market = LobMarket(
        (
            PowerLawDensity(1.3, 2.0),
            Empirical([(0.0, 0.0), (0.5, 0.4), (1.0, 1.5), (2.0, 1.9)]),
        )
    )
    for j in range(market.n_assets):
        grid = np.linspace(0.0, market.depth(j), 400)
        vals = np.array([lob_cost(market, j, v) for v in grid])
        assert np.all(np.diff(vals, 2) >= -1e-12)


def test_lob_cost_of_a_constant_density_book():
    # density 1.6 on [0, 2] integrates to a straight line of slope 1.6
    curve = Empirical([(0.0, 0.0), (1.0, 1.6), (2.0, 3.2)])
    assert curve.total_mass == pytest.approx(3.2)
    assert float(curve.eval(1.5)) == pytest.approx(2.4)
    market = LobMarket((curve,))
    assert lob_cost(market, 0, 1.0) == pytest.approx(1.0 / (2.0 * 1.6), rel=1e-12)


def test_lob_book_with_a_spread_gap():
    # density 2 on [0.5, 1.5]: no volume below the first offset
    curve = Empirical([(0.5, 0.0), (1.5, 2.0)])
    assert float(curve.eval(0.5)) == 0.0
    assert float(curve.eval(1.5)) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# portfolio construction


def spd_matrix(rng, m):
    a = rng.normal(size=(m, m))
    return a @ a.T + m * np.eye(m)


def lob_for(rng, m):
    return LobMarket(
        tuple(PowerLawDensity(float(rng.uniform(0.5, 3.0)), float(rng.uniform(1.0, 3.0))) for _ in range(m))
    )


def test_markowitz_frictionless_closed_form():
    rng = np.random.default_rng(5)
    sigma = spd_matrix(rng, 4)
    alpha = rng.normal(size=4)
    mi = MarkowitzInstance(alpha=alpha, sigma=sigma, risk_aversion=2.0, lob=None)
    x = solve_markowitz_primal(mi, tol=1e-10)
    expected = np.linalg.solve(sigma, alpha) / 2.0
    assert np.allclose(x, expected, atol=1e-8)
    zeta, phi, x_dual = solve_markowitz_dual(mi)
    assert np.allclose(phi, alpha, atol=1e-12)
    assert np.allclose(x_dual, expected, atol=1e-10)


def test_markowitz_no_alpha_means_no_position():
    rng = np.random.default_rng(6)
    mi = MarkowitzInstance(
        alpha=np.zeros(3), sigma=spd_matrix(rng, 3), risk_aversion=1.0, lob=lob_for(rng, 3)
    )
    x = solve_markowitz_primal(mi, tol=1e-10)
    assert np.allclose(x, 0.0, atol=1e-12)


def test_markowitz_two_asset_grid_search():
    sigma = np.array([[1.0, 0.3], [0.3, 1.5]])
    alpha = np.array([0.9, 1.2])
    lob = LobMarket((PowerLawDensity(2.0, 2.0), PowerLawDensity(1.0, 2.0)))
    mi = MarkowitzInstance(alpha=alpha, sigma=sigma, risk_aversion=1.0, lob=lob)
    x = solve_markowitz_primal(mi, tol=1e-10)

    hi = 1.5
    grid = np.linspace(0.0, hi, 10**4)
    a0 = (2.0 / 3.0) * math.sqrt(2.0 / 2.0)
    a1 = (2.0 / 3.0) * math.sqrt(2.0 / 1.0)
    col = (
        0.5 * sigma[1, 1] * grid**2 - alpha[1] * grid + a1 * grid**1.5
    )  # x1-only terms, one row of the objective
    best = (math.inf, None, None)
    row_terms = 0.5 * sigma[0, 0] * grid**2 - alpha[0] * grid + a0 * grid**1.5
    for k in range(0, grid.size, 128):
        chunk = grid[k : k + 128]
        total = (
            row_terms[k : k + 128, None]
            + col[None, :]
            + sigma[0, 1] * chunk[:, None] * grid[None, :]
        )
        flat = int(np.argmin(total))
        val = float(total.flat[flat])
        if val < best[0]:
            best = (val, chunk[flat // grid.size], grid[flat % grid.size])
    step = hi / (grid.size - 1)
    assert abs(x[0] - best[1]) <= 3 * step
    assert abs(x[1] - best[2]) <= 3 * step
    assert markowitz_objective(mi, x) <= best[0] + 1e-9


# order books of the other families: their proximal steps take the
# root-finding branch of the volume prox
BOOKS = {
    "empirical_spread_gap": lambda rng: Empirical(list(zip(np.cumsum(rng.uniform(0.2, 1.0, 5)).tolist(),
                                                           [0.0, *np.cumsum(rng.uniform(0.2, 1.0, 4)).tolist()]))),
    "bounded_uniform": lambda rng: BoundedUniform(float(rng.uniform(1.0, 3.0))),
    "exponential": lambda rng: Exponential(float(rng.uniform(0.5, 3.0))),
    "hyperbolic": lambda rng: Hyperbolic(float(rng.uniform(0.5, 3.0))),
}


@pytest.mark.parametrize("book", ["power_law", *BOOKS])
def test_markowitz_dual_matches_primal_random(book):
    rng = np.random.default_rng(11)
    for m in [2, 3, 5]:
        sigma = spd_matrix(rng, m)
        alpha = rng.normal(size=m) * 2.0
        lob = lob_for(rng, m) if book == "power_law" else LobMarket(tuple(BOOKS[book](rng) for _ in range(m)))
        mi = MarkowitzInstance(alpha=alpha, sigma=sigma, risk_aversion=1.5, lob=lob)
        x_p = solve_markowitz_primal(mi, tol=1e-10)
        zeta, phi, x_d = solve_markowitz_dual(mi, tol=1e-8)
        assert np.allclose(x_p, x_d, atol=1e-6)
        # strong duality: objective values meet
        gap = markowitz_objective(mi, x_p) + markowitz_dual_objective(mi, zeta)
        assert abs(gap) <= 1e-7 * (1.0 + abs(markowitz_objective(mi, x_p)))


def test_markowitz_diagonal_sigma_separates():
    rng = np.random.default_rng(3)
    diag = np.array([0.8, 1.7, 2.4])
    alpha = np.array([0.6, 1.1, 0.2])
    lob = lob_for(rng, 3)
    mi = MarkowitzInstance(alpha=alpha, sigma=np.diag(diag), risk_aversion=1.0, lob=lob)
    zeta, phi, x = solve_markowitz_dual(mi)
    for j in range(3):
        # scalar problem: minimize 0.5 d x^2 - a x + Lambda(x) over [0, depth]
        grid = np.linspace(0.0, lob.depth(j), 200001)
        vals = 0.5 * diag[j] * grid**2 - alpha[j] * grid
        vals += lob_cost(lob, j, grid)
        assert abs(x[j] - grid[np.argmin(vals)]) <= 2e-5 * (1.0 + lob.depth(j))


def test_markowitz_depth_cap_binds():
    # a tiny book with huge alpha: the position should saturate the depth
    lob = LobMarket((PowerLawDensity(2.0, 0.5),))  # depth 0.25
    mi = MarkowitzInstance(
        alpha=np.array([50.0]), sigma=np.array([[1.0]]), risk_aversion=1.0, lob=lob
    )
    x = solve_markowitz_primal(mi, tol=1e-10)
    assert x[0] == pytest.approx(0.25, abs=1e-9)


def test_markowitz_primal_not_converged_carries_best():
    rng = np.random.default_rng(9)
    mi = MarkowitzInstance(
        alpha=np.array([1.0, 0.5]),
        sigma=spd_matrix(rng, 2),
        risk_aversion=1.0,
        lob=lob_for(rng, 2),
    )
    with pytest.raises(NotConverged) as exc:
        solve_markowitz_primal(mi, tol=1e-14, max_iter=3)
    assert exc.value.best.shape == (2,)
    assert exc.value.residual > 0.0


def test_markowitz_json_round_trip():
    doc = {
        "alpha": [0.4, 0.9],
        "sigma": [[1.5, 0.3], [0.3, 0.8]],
        "risk_aversion": 2.5,
        "lob": [
            {"family": "power_law_density", "params": {"w0": 2.0, "x_max": 1.5}},
            {"family": "empirical", "breakpoints": [[0.5, 0.0], [1.0, 0.6], [2.0, 1.4]]},
        ],
    }
    mi = markowitz_from_json(doc)
    assert mi.alpha.tolist() == doc["alpha"]
    assert mi.sigma.tolist() == doc["sigma"]
    assert mi.risk_aversion == doc["risk_aversion"]
    assert [c.to_json() for c in mi.lob.curves] == doc["lob"]
    assert [c.total_mass for c in mi.lob.curves] == pytest.approx([2.25, 1.4])
    direct = MarkowitzInstance(
        alpha=np.array(doc["alpha"]),
        sigma=np.array(doc["sigma"]),
        risk_aversion=2.5,
        lob=LobMarket((PowerLawDensity(2.0, 1.5), Empirical([(0.5, 0.0), (1.0, 0.6), (2.0, 1.4)]))),
    )
    x_a = solve_markowitz_primal(direct, tol=1e-10)
    x_b = solve_markowitz_primal(mi, tol=1e-10)
    assert np.allclose(x_a, x_b, atol=1e-12)


def test_markowitz_validation():
    with pytest.raises(ValueError):
        MarkowitzInstance(alpha=np.ones(2), sigma=-np.eye(2), risk_aversion=1.0)
    with pytest.raises(ValueError):
        MarkowitzInstance(alpha=np.ones(2), sigma=np.eye(3), risk_aversion=1.0)
    with pytest.raises(ValueError):
        MarkowitzInstance(alpha=np.ones(2), sigma=np.eye(2), risk_aversion=-1.0)
    with pytest.raises(ValueError):
        MarkowitzInstance(
            alpha=np.ones(2),
            sigma=np.eye(2),
            risk_aversion=1.0,
            lob=LobMarket((PowerLawDensity(1.0, 1.0),)),
        )


# ---------------------------------------------------------------------------
# properties


@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
@settings(max_examples=20, deadline=None)
def test_budget_theta_decreasing_property(b_lo, b_hi):
    if b_lo > b_hi:
        b_lo, b_hi = b_hi, b_lo
    if b_hi - b_lo < 1e-3:
        b_hi = b_lo + 1e-3
    t_lo, _ = solve_budget(budget_instance(b_lo))
    t_hi, _ = solve_budget(budget_instance(b_hi))
    assert t_lo >= t_hi - 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_markowitz_dual_weakly_below_primal(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    mi = MarkowitzInstance(
        alpha=rng.normal(size=m),
        sigma=spd_matrix(rng, m),
        risk_aversion=float(rng.uniform(0.5, 3.0)),
        lob=lob_for(rng, m),
    )
    zeta = rng.normal(size=m)
    x = np.array([float(rng.uniform(0.0, mi.lob.depth(j))) for j in range(m)])
    # any dual point lower-bounds any primal point
    assert -markowitz_dual_objective(mi, zeta) <= markowitz_objective(mi, x) + 1e-9
