"""Tests for link functions and their curvature/KL parameters."""

import dataclasses
import itertools
import math
import re
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit, log_ndtr, ndtr

from ranktopo.models import (
    LinkFunction,
    ModelParams,
    MWiseLink,
    _grid_extremes,
    make_link,
    model_params,
    plackett_luce,
    softmax,
)

from oracles import box_points, choice_prob_gradient, fd_gradient, fd_hessian, softmax_hessian


def smooth_custom_cdf(x):
    """A symmetric strongly log-concave CDF that is neither builtin."""
    return expit(np.asarray(x, dtype=float) * 1.5)


def cubic_warp_cdf(x):
    """Symmetric and monotone but not log-concave near the origin."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + np.tanh(x**3 / (1.0 + x * x)))


SQRT_2PI = math.sqrt(2.0 * math.pi)


def thurstone_curvature(t):
    """(-log Phi)''(t) = m (m + t) with m = phi/Phi, the inverse Mills ratio."""
    mills = np.exp(-0.5 * t * t - math.log(SQRT_2PI) - log_ndtr(t))
    return mills * (mills + t)


def density(link, t):
    """F' from the link's own callables, as F'/F times F."""
    t = np.asarray(t, dtype=float)
    return link.pdf_over_cdf(t, link.log_cdf(t)) * link.cdf(t)


class TestLinkBasics:
    @pytest.mark.parametrize("family", ["btl", "thurstone"])
    def test_symmetry_on_grid(self, family):
        """F(x) + F(-x) = 1 to 1e-10 across [-10, 10]."""
        link = make_link(family, 1.0)
        grid = np.linspace(-10, 10, 2001)
        total = link.cdf(grid) + link.cdf(-grid)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("family", ["btl", "thurstone"])
    def test_monotone_and_interior(self, family):
        # Near 1.0, float64 resolves Phi increments only while the density
        # exceeds the ulp over a grid step, so the strictness check is
        # confined to the range where consecutive values are distinguishable.
        link = make_link(family, 1.0)
        hi = 7.0 if family == "thurstone" else 10.0
        grid = np.linspace(-hi, hi, 2001)
        vals = link.cdf(grid)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals > 0) and np.all(vals < 1)

    @pytest.mark.parametrize("family", ["btl", "thurstone"])
    def test_derivative_matches_finite_differences(self, family):
        """F' = (F'/F) F vs central differences, 1e-6 relative on the grid.

        For x > 0 the difference F(x+h) - F(x-h) is evaluated at -x via
        symmetry (F' is even), where the CDF is small and the subtraction
        is free of float cancellation near 1.
        """
        link = make_link(family, 1.0)
        grid = np.linspace(-10, 10, 401)
        h = 1e-6
        stable = -np.abs(grid)
        fd = (link.cdf(stable + h) - link.cdf(stable - h)) / (2 * h)
        np.testing.assert_allclose(density(link, grid), fd, rtol=1e-6)

    def test_btl_values(self):
        link = make_link("btl", 1.0)
        assert abs(float(link.cdf(np.float64(0.0))) - 0.5) < 1e-12
        assert abs(float(link.cdf(np.float64(2.0))) - 0.8807971) < 1e-7

    def test_thurstone_density_at_zero(self):
        link = make_link("thurstone", 1.0)
        assert abs(float(density(link, 0.0)) - 0.3989423) < 1e-7

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            make_link("btl", 0.0)
        with pytest.raises(ValueError):
            make_link("btl", -2.0)
        with pytest.raises(ValueError):
            make_link("cauchyish", 1.0)

    def test_every_link_carries_its_extremes(self):
        """extremes is a required field, the one route to zeta and gamma; a
        custom CDF's is the grid search over its finite-difference F' and
        (-log F)''.  For F(t) = expit(1.5 t) on [-2, 2]: F'(0) = 0.375 and
        the least curvature is 2.25 F(3) F(-3)."""
        fields = dataclasses.fields(LinkFunction)
        assert [f.name for f in fields] == ["name", "sigma", "cdf", "log_cdf", "pdf_over_cdf",
                                            "neg_log_second_pair", "extremes"]
        assert all(f.default is dataclasses.MISSING for f in fields)
        peak, gamma = make_link(smooth_custom_cdf, 1.0).extremes(2.0)
        assert peak == pytest.approx(0.375, rel=1e-6)
        assert gamma == pytest.approx(2.25 * expit(3.0) * expit(-3.0), rel=1e-4)

    def test_custom_link_screens(self):
        link = make_link(smooth_custom_cdf, 1.0)
        grid = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(link.cdf(grid) + link.cdf(-grid), 1.0, atol=1e-10)
        fd = (smooth_custom_cdf(grid + 1e-6) - smooth_custom_cdf(grid - 1e-6)) / 2e-6
        np.testing.assert_allclose(density(link, grid), fd, rtol=1e-6)
        with pytest.raises(ValueError):
            make_link(lambda x: expit(np.asarray(x) + 0.3), 1.0)  # asymmetric
        with pytest.raises(ValueError):
            make_link(lambda x: np.clip(np.asarray(x), 0.0, 1.0), 1.0)  # hits 0/1


class TestZeta:
    def test_btl_zero_bound(self):
        """The B -> 0 limit, at B = 1e-9: 4 F'(0) = 1."""
        assert abs(model_params(make_link("btl", 1.0), 1e-9).zeta - 1.0) < 1e-12

    def test_btl_unit_bound(self):
        value = model_params(make_link("btl", 1.0), 1.0).zeta
        f2 = float(expit(2.0))
        assert abs(value - 0.25 / (f2 * (1 - f2))) < 1e-9
        assert abs(value - 2.38110) < 1e-4

    def test_thurstone_zero_bound(self):
        """The B -> 0 limit, at B = 1e-9: 4 phi(0)."""
        value = model_params(make_link("thurstone", 1.0), 1e-9).zeta
        assert abs(value - 1.595769) < 1e-6

    def test_sigma_rescaling(self):
        # 2B/sigma is all that matters: (B=2, sigma=2) matches (B=1, sigma=1)
        assert abs(model_params(make_link("btl", 2.0), 2.0).zeta
                   - model_params(make_link("btl", 1.0), 1.0).zeta) < 1e-9

    def test_dominates_four_fprime0(self):
        """zeta >= 4 F'(0) for every bound, since F(1-F) <= 1/4."""
        for family in ("btl", "thurstone"):
            link = make_link(family, 1.0)
            fp0 = float(density(link, 0.0))
            for bound in (1e-9, 0.3, 1.0, 2.5, 5.0):
                assert model_params(link, bound).zeta >= 4 * fp0 - 1e-9

    def test_negative_bound_rejected(self):
        for bound in (-0.5, 0.0):
            with pytest.raises(ValueError, match="B must be positive"):
                model_params(make_link("btl", 1.0), bound)


class TestGamma:
    def test_btl_matches_analytic(self):
        """For BTL the curvature minimum is F(2B/s)(1 - F(2B/s))."""
        link = make_link("btl", 1.0)
        for bound in (1e-9, 0.5, 1.0, 2.0):
            f = float(expit(2.0 * bound))
            assert abs(model_params(link, bound).gamma - f * (1 - f)) < 1e-9

    def test_btl_unit_value(self):
        assert abs(model_params(make_link("btl", 1.0), 1.0).gamma - 0.104994) < 1e-6

    def test_thurstone_vs_finite_difference_scan(self):
        """gamma matches a 1e-5-step finite-difference scan of -log Phi."""
        link = make_link("thurstone", 1.0)
        value = model_params(link, 1.0).gamma
        grid = np.linspace(-2, 2, 4001)
        h = 1e-5
        neglog = lambda t: -np.log(ndtr(t))
        fd_scan = (neglog(grid + h) - 2 * neglog(grid) + neglog(grid - h)) / h**2
        assert value > 0
        assert abs(value - fd_scan.min()) < 1e-5

    def test_non_log_concave_rejected(self):
        link = make_link(cubic_warp_cdf, 1.0)
        with pytest.raises(ValueError, match="not strongly log-concave on \\[-2.0, 2.0\\]"):
            model_params(link, 1.0)

    # The exact F' and (-log F)'' of the named links, for the grid search a
    # custom link gets.  The BTL curvature is written F(t) F(-t), whose
    # digits survive far out.
    EXACT = {
        "thurstone": (lambda t: np.exp(-0.5 * t * t) / SQRT_2PI, thurstone_curvature),
        "btl": (lambda t: expit(t) * (1.0 - expit(t)), lambda t: expit(t) * expit(-t)),
    }

    @pytest.mark.parametrize("family", ["thurstone", "btl"])
    def test_closed_forms_match_the_grid_search(self, family):
        """Both named links carry their extremes in closed form; the grid
        search a custom link gets, run on their exact F' and (-log F)'',
        finds the same peak and curvature within 4e-15, the same zeta and
        gamma, and raises alike where F(1-F) underflows."""
        for sigma, B in itertools.product(np.geomspace(0.3, 5.0, 5), np.geomspace(0.01, 10.0, 7)):
            link = make_link(family, float(sigma))
            grid = dataclasses.replace(link, extremes=_grid_extremes(*self.EXACT[family]))
            h = 2.0 * float(B) / link.sigma
            assert link.extremes(h) == pytest.approx(grid.extremes(h), rel=4e-15, abs=0)
            try:
                want = model_params(grid, float(B))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    model_params(link, float(B))
                continue
            got = model_params(link, float(B))
            assert (got.zeta, got.gamma) == pytest.approx((want.zeta, want.gamma),
                                                          rel=4e-15, abs=0)

    @pytest.mark.parametrize("h", [6.0, 20.0, 33.0])
    def test_btl_gamma_keeps_its_digits_far_out(self, h):
        """gamma = F(h) F(-h) at h = 2B/sigma.  Written F(h)(1 - F(h)), it
        keeps only the digits of 1 - F(h) that survive rounding F(h) near 1:
        off by 4.8e-14 relative at h = 6, 3.6e-8 at 20 and 8.7e-4 at 33."""
        assert model_params(make_link("btl", 1.0), h / 2).gamma == pytest.approx(
            math.exp(-h) / (1.0 + math.exp(-h)) ** 2, rel=1e-15, abs=0)

    @pytest.mark.parametrize("B", [1.0, 2.0, 3.0, 4.0])
    def test_custom_gamma_keeps_its_digits(self, B):
        """A custom link's gamma, from finite differences of -log F, is the
        exact 2.25 F(1.5 h) F(-1.5 h) of F(t) = expit(1.5 t) within 1e-5, h = 2B.
        One second difference at step 1e-5 was 23% low at B = 3 and refused
        B = 4, its rounding swamping a curvature of 1.4e-5."""
        h = 2.0 * B
        assert model_params(make_link(smooth_custom_cdf, 1.0), B).gamma == pytest.approx(
            2.25 * expit(1.5 * h) * expit(-1.5 * h), rel=1e-5, abs=0)

    def test_model_params_bundle(self):
        link = make_link("btl", 1.0)
        params = model_params(link, 1.0)
        assert params.sigma == 1.0
        assert params.B == 1.0
        assert abs(params.gamma - 0.104994) < 1e-6
        assert abs(params.zeta - 2.381098) < 1e-6

    def test_model_params_names_underflow(self):
        """At 2B/sigma = 40, F(1-F) underflows; the Gaussian CDF is still
        log-concave, so the error names the interval, not the curvature."""
        with pytest.raises(ValueError, match="too wide: F\\(1-F\\) underflows"):
            model_params(make_link("thurstone", 0.05), 1.0)

    def test_model_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(B=1.0, gamma=0.0, zeta=1.0, sigma=1.0)
        with pytest.raises(ValueError):
            ModelParams(B=-1.0, gamma=0.1, zeta=1.0, sigma=1.0)


class TestPlackettLuce:
    def test_choice_prob_examples(self):
        pl2 = plackett_luce(2)
        assert abs(pl2.position_probs(np.zeros(2))[0] - 0.5) < 1e-12
        pl3 = plackett_luce(3)
        assert abs(pl3.position_probs(np.array([1.0, 0, 0]))[0] - math.e / (math.e + 2)) < 1e-9

    def test_m2_equals_btl(self):
        """Two-item softmax choice equals the logistic link at sigma = 1."""
        pl2 = plackett_luce(2)
        btl = make_link("btl", 1.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-3, 3, size=2)
            assert abs(pl2.position_probs(x)[0] - float(btl.cdf(np.float64(x[0] - x[1])))) < 1e-12

    def test_m_validation(self):
        with pytest.raises(ValueError):
            plackett_luce(1)

    def test_shift_invariance(self):
        pl = plackett_luce(4)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=4)
            t = rng.uniform(-5, 5)
            assert abs(pl.position_probs(x)[0] - pl.position_probs(x + t)[0]) < 1e-10

    def test_shift_probabilities_sum_to_one(self):
        """The position probabilities enumerate the choices: they sum to one."""
        pl = plackett_luce(5)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=5)
            assert abs(pl.position_probs(x).sum() - 1.0) < 1e-10

    def test_shifts_put_each_position_first(self):
        """Position j is chosen as often as the first item of x rotated by j."""
        pl = plackett_luce(4)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=4)
            rotated = [pl.position_probs(np.roll(x, -j))[0] for j in range(4)]
            np.testing.assert_allclose(pl.position_probs(x), rotated, rtol=0, atol=1e-15)

    def test_hessian_matches_finite_differences(self):
        pl = plackett_luce(3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=3)
            neg_log = lambda z: -math.log(pl.position_probs(z)[0])
            np.testing.assert_allclose(softmax_hessian(x), fd_hessian(neg_log, x),
                                       atol=1e-5)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_hessian_spectral_structure(self, m):
        """Exact Hessian: PSD, ones in nullspace, positive second eigenvalue."""
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=m)
            hess = softmax_hessian(x)
            vals = np.linalg.eigvalsh(hess)
            assert vals[0] >= -1e-10
            assert vals[1] > 0
            assert np.linalg.norm(hess @ np.ones(m)) <= 1e-10

    def test_gradient_orthogonal_to_ones(self):
        """<grad F(x), 1> = 0 and grad F = p_0 (e_0 - p), checked against finite differences."""
        pl = plackett_luce(4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=4)
            grad = fd_gradient(lambda z: pl.position_probs(z)[0], x)
            assert abs(grad @ np.ones(4)) < 1e-8
            np.testing.assert_allclose(choice_prob_gradient(x), grad, atol=1e-8)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_curvature_lower_bounds_hessian(self, m):
        """beta (I - 11^T/m) <= Hessian of -log F over the box."""
        pl = plackett_luce(m, B=1.0)
        assert pl.beta > 0
        floor = pl.beta * (np.eye(m) - np.ones((m, m)) / m)
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.uniform(-1, 1, size=m)
            gap = np.linalg.eigvalsh(softmax_hessian(x) - floor)
            assert gap[0] >= -1e-9

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_beta_is_box_sample_minimum(self, m):
        """beta equals the least lambda_2 over the box sample, to the eigvalsh
        rounding of about eps |H|."""
        for B in (0.25, 0.7, 1.0, 2.0):
            p = softmax(box_points(m, B), axis=1)
            hess = p[:, None, :] * np.eye(m) - p[:, :, None] * p[:, None, :]
            box_min = float(np.min(np.linalg.eigvalsh(hess)[:, 1]))
            assert abs(plackett_luce(m, B).beta - box_min) <= 3e-14 * box_min

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_no_box_point_below_beta(self, m):
        """A bounded multistart optimiser finds no lambda_2 below beta."""
        rng = np.random.default_rng(m)
        for B in (0.5, 1.0, 2.0):
            pl = plackett_luce(m, B)
            lam2 = lambda x: float(np.linalg.eigvalsh(softmax_hessian(x))[1])
            found = [minimize(lam2, x0, method="L-BFGS-B", bounds=[(-B, B)] * m).fun
                     for x0 in rng.uniform(-B, B, size=(12, m))]
            assert min(found) >= pl.beta - 1e-12
            assert min(found) <= pl.beta + 1e-6  # the search does reach the minimum

    def test_beta_m2_closed_form(self):
        # lambda_2 of the 2x2 Hessian is 2p(1-p), minimised at the corner
        # score difference -2B.
        pl = plackett_luce(2, B=1.0)
        p = float(expit(-2.0))
        assert pl.beta == pytest.approx(2 * p * (1 - p), rel=1e-15, abs=0)


    @staticmethod
    def decimal_corner_beta(m: int, B: float) -> Decimal:
        """The least lambda_2 over every corner spectrum, in 50 digits: with k
        items at +B, p takes a = 1/Z and b = q/Z, Z = k + (m-k) q, and
        diag(p) - p p^T has eigenvalues 0, a (k-1 times), b (m-k-1 times)
        and m a b; k = 0 and k = m give 1/m."""
        with localcontext() as ctx:
            ctx.prec = 50
            q = (-2 * Decimal(B)).exp()
            values = [Decimal(1) / m]
            for k in range(1, m):
                a, b = 1 / (k + (m - k) * q), q / (k + (m - k) * q)
                values += [m * a * b] + [a] * (k >= 2) + [b] * (m - k >= 2)
            return min(values)

    @pytest.mark.parametrize("m", [2, 3, 4, 8, 16, 64])
    def test_beta_matches_decimal_corner_spectrum(self, m):
        for B in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0):
            want = self.decimal_corner_beta(m, B)
            assert abs(Decimal(plackett_luce(m, B).beta) - want) <= Decimal("1e-15") * want

    @pytest.mark.parametrize("m", range(2, 11))
    def test_beta_is_least_corner_eigenvalue(self, m):
        """Against eigvalsh over all 2^m corners, to its rounding (at most
        2.4e-14 relative here, at m = 9 and B = 2)."""
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
        for B in (0.05, 0.3, 1.0, 1.5, 2.0):
            lam2 = float(np.min(np.linalg.eigvalsh(softmax_hessian(B * corners))[:, 1]))
            assert plackett_luce(m, B).beta == pytest.approx(lam2, rel=5e-14, abs=0)

    def test_link_stores_m_and_B_only(self):
        """beta is a property, evaluated in closed form at any m."""
        assert [f.name for f in dataclasses.fields(MWiseLink)] == ["name", "m", "B"]
        start = time.perf_counter()
        beta = plackett_luce(64, 2.0).beta
        assert time.perf_counter() - start < 0.01
        assert 0 < beta < 1 / 64
        for B in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="B must be positive"):
                plackett_luce(3, B)

    @pytest.mark.parametrize("m", [2, 3, 5, 7])
    def test_position_axis_is_a_layout_choice(self, m):
        """Positions down the columns give the row-wise probabilities, bit
        for bit, up to m = 7; from m = 8 numpy sums a contiguous row
        pairwise, and the last bit can differ."""
        pl = plackett_luce(m)
        x = np.random.default_rng(m).uniform(-4, 4, size=(m, 500))
        np.testing.assert_array_equal(pl.position_probs(x, axis=0),
                                      pl.position_probs(x.T).T)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-5, 5, size=(40, 6))
        np.testing.assert_allclose(softmax(x, axis=1).sum(axis=1), 1.0, atol=1e-12)

    def test_overflow_safe(self):
        probs = softmax(np.array([1000.0, 0.0]))
        assert abs(probs[0] - 1.0) < 1e-12
