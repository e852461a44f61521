"""Tests for the MLE solvers, closed-form estimators and error metrics."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import ndtri

import ranktopo.cli as cli
import ranktopo.estimate as estimate
import ranktopo.synth as synth
from ranktopo import graph
from ranktopo.estimate import (
    SolverOptions,
    _ordinal_closures,
    error_metrics,
    ls_paired_cardinal,
    mean_cardinal,
    mle_mwise,
    mle_ordinal,
    project_feasible,
)
from ranktopo.graph import ComparisonDesign, HyperDesign, build_topology, complete_hyper, spectrum
from ranktopo.models import make_link, plackett_luce
from ranktopo.synth import (
    CardinalModel,
    ObservationBatch,
    QualityVector,
    even_allocation,
    gen_quality,
    sample_comparisons,
    sample_outcomes,
)

from likelihood import batch_likelihood
from oracles import (
    exact_projection,
    fd_gradient,
    fd_hessian,
    project_feasible_formula,
)

SINGLE_EDGE = ComparisonDesign(2, ((0, 1, 1.0),))


def ordinal_batch(entries, outcomes):
    return ObservationBatch("ordinal_pair", np.asarray(entries, dtype=np.intp),
                            np.asarray(outcomes))


class TestProjection:
    def test_matches_kkt_oracle(self):
        """The breakpoint projection agrees with the KKT bisection oracle."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-3, 3, size=6)
            b = float(rng.uniform(0.1, 2.0))
            ours = project_feasible(x, b)
            exact = exact_projection(x, b)
            np.testing.assert_allclose(ours, exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x, b", [
        ([1.0, 1.0, -2.0, 0.5, 0.5, 3.0], 0.7),        # ties
        ([2.0, 2.0, 2.0, -1.0, -1.0, -1.0], 1.0),      # tied at both bounds
        ([0.3, -1.2], 0.5),                            # d = 2
        ([5.0, -3.0], 10.0),                           # d = 2, box inactive
        ([0.4, 2.0, -1.1, 0.9, 3.3], 50.0),            # large B: just recentre
        ([1.0, -1.0, 1.0, -1.0], 1.0),                 # feasible, on the box
    ])
    def test_edge_cases_match_oracle(self, x, b):
        x = np.asarray(x)
        np.testing.assert_allclose(project_feasible(x, b), exact_projection(x, b),
                                   rtol=0, atol=1e-12)

    def test_matches_generic_qp_solver(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=6)
            res = minimize(
                lambda v: 0.5 * np.sum((v - x) ** 2), np.zeros(6),
                jac=lambda v: v - x, method="SLSQP",
                bounds=[(-0.5, 0.5)] * 6,
                constraints={"type": "eq", "fun": lambda v: np.sum(v)},
                options={"ftol": 1e-14, "maxiter": 500},
            )
            np.testing.assert_allclose(project_feasible(x, 0.5), res.x, atol=1e-6)

    def test_feasible_output(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            out = project_feasible(rng.uniform(-10, 10, size=9), 1.0)
            assert abs(np.sum(out)) < 1e-9
            assert np.max(np.abs(out)) <= 1.0 + 1e-12

    def test_matches_reference_formula_bitwise(self):
        """Ufunc calls in place of np.diff, np.clip and a concatenated cumsum
        leave every bit of the projection unchanged, ties included."""
        rng = np.random.default_rng(17)
        for _ in range(5000):
            d = int(rng.integers(1, 70))
            x = rng.integers(-6, 7, size=d) / 4.0 if rng.random() < 0.5 \
                else rng.normal(scale=2.0, size=d)
            b = float(rng.choice([0.25, 0.5, 1.0, rng.uniform(0.05, 3.0)]))
            assert project_feasible(x, b).tobytes() == project_feasible_formula(x, b).tobytes()

    def test_identity_on_feasible_points(self):
        x = np.array([0.5, -0.2, -0.3])
        np.testing.assert_allclose(project_feasible(x, 0.6), x, atol=1e-10)


class TestGradients:
    def _feasible_points(self, d, bound, count, seed):
        rng = np.random.default_rng(seed)
        return [exact_projection(rng.uniform(-bound, bound, size=d), bound)
                for _ in range(count)]

    @pytest.mark.parametrize("family", ["btl", "thurstone"])
    def test_ordinal_gradient(self, family):
        """Analytic gradient vs central differences at 20 feasible points."""
        design = build_topology("complete", 5)
        link = make_link(family, 1.0)
        rng = np.random.default_rng(3)
        comps = sample_comparisons(design, 400, rng)
        batch = sample_outcomes(link, gen_quality("uniform", 5, 1.0, rng), design,
                                comps, rng)
        nll, gradient, _ = batch_likelihood(batch, design, link)
        for w in self._feasible_points(5, 1.0, 20, 4):
            analytic = gradient(w)
            numeric = fd_gradient(nll, w)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_mwise_gradient(self, m):
        d = 6
        hyper = HyperDesign(d, m, tuple(itertools.combinations(range(d), m)))
        link = plackett_luce(m)
        rng = np.random.default_rng(5)
        comps = sample_comparisons(hyper, 300, rng)
        batch = sample_outcomes(link, gen_quality("uniform", d, 1.0, rng), hyper,
                                comps, rng)
        nll, gradient, _ = batch_likelihood(batch, hyper, link)
        for w in self._feasible_points(d, 1.0, 20, 6):
            analytic = gradient(w)
            numeric = fd_gradient(nll, w)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("family", ["btl", "thurstone"])
    def test_ordinal_hessian(self, family):
        """The Laplacian Hessian vs central differences of the objective."""
        design = build_topology("cycle", 5)
        link = make_link(family, 1.0)
        rng = np.random.default_rng(11)
        comps = sample_comparisons(design, 400, rng)
        batch = sample_outcomes(link, gen_quality("uniform", 5, 1.0, rng), design,
                                comps, rng)
        nll, _, hessian = batch_likelihood(batch, design, link)
        for w in self._feasible_points(5, 1.0, 5, 12):
            np.testing.assert_allclose(hessian(w), fd_hessian(nll, w), atol=1e-5)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_mwise_hessian(self, m):
        """The clique-Laplacian Hessian vs central differences."""
        d = 6
        hyper = HyperDesign(d, m, tuple(itertools.combinations(range(d), m)))
        link = plackett_luce(m)
        rng = np.random.default_rng(13)
        comps = sample_comparisons(hyper, 300, rng)
        batch = sample_outcomes(link, gen_quality("uniform", d, 1.0, rng), hyper,
                                comps, rng)
        nll, _, hessian = batch_likelihood(batch, hyper, link)
        for w in self._feasible_points(d, 1.0, 5, 14):
            np.testing.assert_allclose(hessian(w), fd_hessian(nll, w), atol=1e-5)

    def test_shift_invariance_of_likelihood(self):
        """The likelihood never reacts to constant shifts of w."""
        design = build_topology("cycle", 6)
        link = make_link("btl", 1.0)
        rng = np.random.default_rng(7)
        comps = sample_comparisons(design, 200, rng)
        batch = sample_outcomes(link, gen_quality("gaussian", 6, 1.0, rng), design,
                                comps, rng)
        nll, _, _ = batch_likelihood(batch, design, link)
        for _ in range(20):
            w = rng.uniform(-2, 2, size=6)
            t = float(rng.uniform(-4, 4))
            assert abs(nll(w) - nll(w + t)) < 1e-10


class TestOrdinalMLE:
    def test_btl_d2_logit_closed_form(self):
        batch = ordinal_batch([0, 0, 0, 0], [1, 1, 1, -1])
        result = mle_ordinal(batch, SINGLE_EDGE, make_link("btl", 1.0), 1.0)
        expected = 0.5 * math.log(3.0)
        np.testing.assert_allclose(result.w_hat.values, [expected, -expected],
                                   atol=1e-6)
        assert result.converged

    def test_thurstone_d2_probit_closed_form(self):
        batch = ordinal_batch([0, 0, 0, 0], [1, 1, 1, -1])
        result = mle_ordinal(batch, SINGLE_EDGE, make_link("thurstone", 1.0), 1.0)
        expected = 0.5 * float(ndtri(0.75))
        np.testing.assert_allclose(result.w_hat.values, [expected, -expected],
                                   atol=1e-6)

    def test_balanced_data_gives_zero(self):
        batch = ordinal_batch([0, 0, 0, 0], [1, 1, -1, -1])
        result = mle_ordinal(batch, SINGLE_EDGE, make_link("btl", 1.0), 1.0)
        np.testing.assert_allclose(result.w_hat.values, 0.0, atol=1e-9)

    def test_one_sided_data_hits_box(self):
        """All-wins data is clipped by the box constraint, not an error."""
        batch = ordinal_batch([0] * 4, [1] * 4)
        result = mle_ordinal(batch, SINGLE_EDGE, make_link("btl", 1.0), 0.3)
        np.testing.assert_allclose(result.w_hat.values, [0.3, -0.3], atol=1e-9)
        assert result.converged
        assert result.grad_norm <= 1e-8  # KKT: projected gradient vanishes

    def test_monotone_descent_and_feasibility(self):
        design = build_topology("complete", 6)
        link = make_link("thurstone", 1.0)
        rng = np.random.default_rng(8)
        w_star = gen_quality("uniform", 6, 1.0, rng)
        comps = sample_comparisons(design, 800, rng)
        batch = sample_outcomes(link, w_star, design, comps, rng)
        trace = []
        mle_ordinal(batch, design, link, 1.0,
                    callback=lambda w, f: trace.append((w.copy(), f)))
        assert len(trace) > 2
        objectives = [f for _, f in trace]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        for w, _ in trace:
            assert abs(np.sum(w)) < 1e-8
            assert np.max(np.abs(w)) <= 1.0 + 1e-8

    def test_matches_generic_solver(self):
        """Projected gradient agrees with SLSQP on a small instance."""
        design = build_topology("star", 4)
        link = make_link("btl", 1.0)
        rng = np.random.default_rng(9)
        comps = sample_comparisons(design, 300, rng)
        batch = sample_outcomes(link, gen_quality("uniform", 4, 0.6, rng), design,
                                comps, rng)
        ours = mle_ordinal(batch, design, link, 0.6)
        nll, gradient, _ = batch_likelihood(batch, design, link)
        ref = minimize(
            nll, np.zeros(4), jac=gradient,
            method="SLSQP", bounds=[(-0.6, 0.6)] * 4,
            constraints={"type": "eq", "fun": lambda w: np.sum(w)},
            options={"ftol": 1e-14, "maxiter": 1000},
        )
        np.testing.assert_allclose(ours.w_hat.values, ref.x, atol=1e-5)

    def test_disconnected_design_rejected(self):
        design = ComparisonDesign(4, ((0, 1, 0.5), (2, 3, 0.5)))
        batch = ordinal_batch([0, 1], [1, -1])
        with pytest.raises(ValueError):
            mle_ordinal(batch, design, make_link("btl", 1.0), 1.0)

    def test_wrong_batch_kind_rejected(self):
        batch = ObservationBatch("cardinal_pair", np.zeros(2, dtype=np.intp),
                                 np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            mle_ordinal(batch, SINGLE_EDGE, make_link("btl", 1.0), 1.0)

    def test_self_consistency_at_scale(self):
        """A million samples on the complete 5-graph pin w* tightly."""
        design = build_topology("complete", 5)
        link = make_link("btl", 1.0)
        rng = np.random.default_rng(10)
        w_star = gen_quality("uniform", 5, 1.0, rng)
        comps = sample_comparisons(design, 1_000_000, rng)
        batch = sample_outcomes(link, w_star, design, comps, rng)
        result = mle_ordinal(batch, design, link, 1.0)
        metrics = error_metrics(result.w_hat, w_star, design)
        assert metrics.sq_l2 < 0.01


def capture_mle(monkeypatch) -> list:
    """Record ((batch, design, link, B, opts), result) of every MLE the CLI
    makes, ordinal and m-wise."""
    calls = []

    def recorder(mle):
        def recording(batch, design, link, B, opts=SolverOptions()):
            result = mle(batch, design, link, B, opts)
            calls.append(((batch, design, link, B, opts), result))
            return result
        return recording

    monkeypatch.setattr(cli, "mle_ordinal", recorder(mle_ordinal))
    monkeypatch.setattr(cli, "mle_mwise", recorder(mle_mwise))
    return calls


def oracle_residual(args, result) -> float:
    """|P(w - grad) - w| with the KKT bisection projection."""
    batch, design, link, B, _ = args
    w = result.w_hat.values
    _, gradient, _ = batch_likelihood(batch, design, link)
    grad = gradient(w)
    return float(np.linalg.norm(exact_projection(w - grad, B) - w))


class TestIllConditionedDesigns:
    """Designs with small lambda_2, where a fixed-step solver stalls."""

    @pytest.mark.parametrize("kind, d, n, family", [
        ("path", 64, 20000, "thurstone"),
        ("cycle", 64, 20000, "thurstone"),
        ("barbell", 64, 20000, "thurstone"),
        ("path", 16, 4000, "btl"),
        ("cycle", 16, 4000, "btl"),
    ])
    def test_converges_to_optimum(self, monkeypatch, kind, d, n, family):
        calls = capture_mle(monkeypatch)
        row = cli.run_trial(kind, d, n, family, 1.0, 1.0, 2, "uniform", 1509)
        assert row["converged"]
        (args, result), = calls
        assert result.iterations < SolverOptions().max_iters
        assert oracle_residual(args, result) <= 1e-8

    def test_cvo_estimates_all_converge(self, monkeypatch, capsys):
        calls = capture_mle(monkeypatch)
        assert cli.main(["cvo", "--sigma-ord", "1", "--sigma-card", "2", "--B", "1",
                         "--empirical", "--d", "6", "--n", "600", "--trials", "10",
                         "--seed", "245314831"]) == 0
        assert len(calls) == 10
        for args, result in calls:
            assert result.converged
            assert oracle_residual(args, result) <= 1e-8

    def test_complete_d256_needs_few_iterations(self):
        """On the complete graph the Hessian scales like a Laplacian with
        eigenvalues 2/(d-1), so a unit step needs O(d) iterations; a step
        adapted to the curvature needs a handful."""
        row = cli.run_trial("complete", 256, 100_000, "thurstone", 1.0, 1.0, 2,
                            "uniform", 1509)
        assert row["converged"]
        assert row["iterations"] <= 50


def count_projections(monkeypatch) -> list:
    projections = []

    def counting(x, B):
        projections.append(1)
        return project_feasible(x, B)

    monkeypatch.setattr(estimate, "project_feasible", counting)
    return projections


class TestOneProjectionSolver:
    """Each iteration projects once, for z = P(w - g), which fixes the held
    coordinates and the stopping test; Newton steps on the face reach the
    KKT oracle's optimum in a few iterations whatever lambda_2 is."""

    @pytest.mark.parametrize("kind, d, n, family, m", [
        ("path", 64, 20000, "thurstone", 2),
        ("cycle", 64, 20000, "thurstone", 2),
        ("barbell", 64, 20000, "thurstone", 2),
        ("star", 64, 20000, "thurstone", 2),
        ("path", 16, 4000, "btl", 2),
        ("cycle", 16, 4000, "btl", 2),
        ("complete", 6, 3000, "plackett_luce", 3),
        ("complete", 6, 3000, "plackett_luce", 4),
    ])
    def test_trial_matches_oracle(self, monkeypatch, kind, d, n, family, m):
        """Spectral projected gradient took 466, 181, 88, 59, 111, 48, 11 and
        13 iterations on these cells."""
        calls = capture_mle(monkeypatch)
        cli.run_trial(kind, d, n, family, 1.0, 1.0, m, "uniform", 1509)
        (args, result), = calls
        assert result.converged and result.iterations <= 10
        assert oracle_residual(args, result) <= 1e-8

    def test_cvo_matches_oracle(self, monkeypatch, capsys):
        calls = capture_mle(monkeypatch)
        assert cli.main(["cvo", "--sigma-ord", "1", "--sigma-card", "2", "--B", "1",
                         "--empirical", "--d", "6", "--n", "600", "--trials", "10",
                         "--seed", "245314831"]) == 0
        assert len(calls) == 10
        for args, result in calls:
            assert result.converged and result.iterations <= 10
            assert oracle_residual(args, result) <= 1e-8

    def test_iteration_cap_matches_oracle(self, monkeypatch):
        """On a max_iters exit grad_norm is the unit-step residual at the
        start of the final iteration, as the oracle measures it."""
        calls = capture_mle(monkeypatch)
        record = cli.mle_ordinal
        monkeypatch.setattr(cli, "mle_ordinal", lambda batch, design, link, B: record(
            batch, design, link, B, SolverOptions(max_iters=3)))
        cli.run_trial("path", 64, 20000, "thurstone", 1.0, 1.0, 2, "uniform", 1509)
        ((batch, design, link, B, opts), result), = calls
        assert not result.converged and result.iterations == 3
        iterates = []
        replay = mle_ordinal(batch, design, link, B, opts,
                             callback=lambda w, f: iterates.append(w.copy()))
        assert replay.w_hat.values.tobytes() == result.w_hat.values.tobytes()
        assert len(iterates) == 4 and iterates[-1].tobytes() == replay.w_hat.values.tobytes()
        start = iterates[-2]
        _, gradient, _ = batch_likelihood(batch, design, link)
        grad = gradient(start)
        expected = float(np.linalg.norm(exact_projection(start - grad, B) - start))
        assert result.grad_norm == pytest.approx(expected, rel=1e-9)

    def test_one_projection_per_iteration(self, monkeypatch):
        """Without a fallback step a run projects once per iteration and
        once more for the final stopping test."""
        calls = capture_mle(monkeypatch)
        projections = count_projections(monkeypatch)
        cli.run_trial("path", 64, 20000, "thurstone", 1.0, 1.0, 2, "uniform", 1509)
        (_, result), = calls
        assert result.converged
        assert len(projections) == result.iterations + 1

    @pytest.mark.parametrize("family", ["btl", "thurstone"])
    def test_unsampled_edges_singular_system(self, monkeypatch, family):
        """Star edges 2 and 3 carry no samples, so items 3 and 4 leave the
        Hessian and the Newton system is singular; its least-squares step
        converges with no fallback step (the gradient method took 13 and 10
        iterations)."""
        design = build_topology("star", 5)
        batch = ordinal_batch([0] * 6 + [1] * 5, [1, -1, 1, 1, -1, 1, -1, 1, 1, -1, 1])
        link = make_link(family, 1.0)
        projections = count_projections(monkeypatch)
        result = mle_ordinal(batch, design, link, 1.0)
        assert result.converged and result.iterations <= 5
        assert len(projections) == result.iterations + 1
        assert oracle_residual((batch, design, link, 1.0, None), result) <= 1e-8

    @pytest.mark.parametrize("kind, d, n, B, sigma", [
        ("path", 32, 30, 3.0, 1.0),     # most edges unsampled
        ("complete", 4, 5000, 3.0, 0.5),  # |t| up to 12
    ])
    def test_converges_where_gradient_method_stalled(self, kind, d, n, B, sigma):
        """The gradient method stopped at max_iters on both, with residuals
        4.3e-8 and 1.1e-7."""
        design, link = build_topology(kind, d), make_link("thurstone", sigma)
        rng = np.random.default_rng(2)
        w_star = gen_quality("uniform", d, B, rng, design=design)
        batch = sample_outcomes(link, w_star, design, sample_comparisons(design, n, rng), rng)
        result = mle_ordinal(batch, design, link, B)
        assert result.converged and result.iterations <= 50
        assert oracle_residual((batch, design, link, B, None), result) <= 1e-8

    def test_fallback_step_on_unforced_data(self, monkeypatch):
        """On this sharp, wide-box barbell trial some Newton steps are not
        accepted, so spectral projected-gradient steps run, each with one
        more projection, and the solver still reaches the KKT optimum."""
        calls = capture_mle(monkeypatch)
        projections = count_projections(monkeypatch)
        cli.run_trial("barbell", 8, 200, "thurstone", 0.05, 3.0, 2, "uniform",
                      2343566436574844362)
        (args, result), = calls
        assert result.converged
        assert len(projections) > result.iterations + 1
        assert oracle_residual(args, result) <= 1e-8

    def test_fallback_step_alone_converges(self, monkeypatch):
        """With a Hessian that yields no finite Newton step, every iteration
        takes the spectral projected-gradient step, with its own projection."""
        def no_hessian(*args):
            point, objective, gradient, hessian = _ordinal_closures(*args)
            return point, objective, gradient, lambda t: np.full((6, 6), np.nan)

        monkeypatch.setattr(estimate, "_ordinal_closures", no_hessian)
        design, link = build_topology("cycle", 6), make_link("btl", 1.0)
        rng = np.random.default_rng(15)
        batch = sample_outcomes(link, gen_quality("uniform", 6, 1.0, rng), design,
                                sample_comparisons(design, 600, rng), rng)
        projections = count_projections(monkeypatch)
        result = mle_ordinal(batch, design, link, 1.0)
        assert result.converged and result.iterations > 0
        assert len(projections) == 2 * result.iterations + 1
        assert oracle_residual((batch, design, link, 1.0, None), result) <= 1e-8


class TestMWiseMLE:
    def test_m2_matches_ordinal_btl(self):
        """An m=2 choice batch solves to the BTL ordinal MLE."""
        d = 5
        pairs = tuple(itertools.combinations(range(d), 2))
        hyper = HyperDesign(d, 2, pairs)
        pl2 = plackett_luce(2)
        rng = np.random.default_rng(11)
        w_star = gen_quality("uniform", d, 1.0, rng)
        comps = sample_comparisons(hyper, 2000, rng)
        mbatch = sample_outcomes(pl2, w_star, hyper, comps, 12)
        m_result = mle_mwise(mbatch, hyper, pl2, 1.0)

        design = ComparisonDesign(d, tuple((j, k, 1 / len(pairs)) for j, k in pairs))
        outcomes = np.where(np.asarray(mbatch.outcomes) == 0, 1, -1)
        obatch = ordinal_batch(mbatch.entry_indices, outcomes)
        o_result = mle_ordinal(obatch, design, make_link("btl", 1.0), 1.0)
        np.testing.assert_allclose(m_result.w_hat.values, o_result.w_hat.values,
                                   atol=1e-6)

    def test_uniform_winners_give_zero(self):
        hyper = HyperDesign(3, 3, ((0, 1, 2),))
        entries = np.zeros(9, dtype=np.intp)
        outcomes = np.array([0, 1, 2] * 3)
        batch = ObservationBatch("mwise", entries, outcomes)
        result = mle_mwise(batch, hyper, plackett_luce(3), 1.0)
        np.testing.assert_allclose(result.w_hat.values, 0.0, atol=1e-8)

    def test_single_subset_log_counts(self):
        """One full subset: the PL MLE is the recentred log of the counts."""
        hyper = HyperDesign(3, 3, ((0, 1, 2),))
        counts = (5, 3, 2)
        outcomes = np.repeat(np.arange(3), counts)
        entries = np.zeros(10, dtype=np.intp)
        batch = ObservationBatch("mwise", entries, outcomes)
        result = mle_mwise(batch, hyper, plackett_luce(3, B=10.0), 10.0)
        expected = np.log(np.array(counts, dtype=float))
        expected -= expected.mean()
        np.testing.assert_allclose(result.w_hat.values, expected, atol=1e-6)

    def test_disconnected_hypergraph_rejected(self):
        hyper = HyperDesign(6, 3, ((0, 1, 2), (3, 4, 5)))
        batch = ObservationBatch("mwise", np.zeros(2, dtype=np.intp),
                                 np.array([0, 1]))
        with pytest.raises(ValueError):
            mle_mwise(batch, hyper, plackett_luce(3), 1.0)

    def test_m_mismatch_rejected(self):
        hyper = HyperDesign(4, 3, ((0, 1, 2), (1, 2, 3)))
        batch = ObservationBatch("mwise", np.zeros(2, dtype=np.intp),
                                 np.array([0, 1]))
        with pytest.raises(ValueError):
            mle_mwise(batch, hyper, plackett_luce(2), 1.0)


class TestPairedCardinal:
    def test_d2_hand_computed(self):
        batch = ObservationBatch("cardinal_pair", np.zeros(2, dtype=np.intp),
                                 np.array([1.0, 3.0]))
        result = ls_paired_cardinal(batch, SINGLE_EDGE)
        np.testing.assert_allclose(result.w_hat.values, [1.0, -1.0], atol=1e-12)

    def test_zero_observations(self):
        batch = ObservationBatch("cardinal_pair", np.zeros(3, dtype=np.intp),
                                 np.zeros(3))
        result = ls_paired_cardinal(batch, SINGLE_EDGE)
        np.testing.assert_allclose(result.w_hat.values, 0.0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["complete", "star", "path", "barbell"])
    def test_noiseless_recovery(self, kind):
        """y = X w* inverts exactly through the linear solve."""
        design = build_topology(kind, 8)
        rng = np.random.default_rng(13)
        w_star = gen_quality("uniform", 8, 1.0, rng)
        comps = sample_comparisons(design, 600, rng)
        batch = sample_outcomes(CardinalModel("pair", 0.0), w_star, design, comps, 0)
        result = ls_paired_cardinal(batch, design)
        np.testing.assert_allclose(result.w_hat.values, w_star.values, atol=1e-10)

    def test_result_sums_to_zero(self):
        design = build_topology("complete", 5)
        rng = np.random.default_rng(14)
        comps = sample_comparisons(design, 100, rng)
        batch = sample_outcomes(CardinalModel("pair", 1.0),
                                gen_quality("uniform", 5, 1.0, rng), design, comps, 1)
        result = ls_paired_cardinal(batch, design)
        assert abs(float(np.sum(result.w_hat.values))) < 1e-10

    def test_disconnected_sample_rejected(self):
        design = build_topology("path", 4)
        # only the first edge ever sampled: items 2, 3 unidentifiable
        batch = ObservationBatch("cardinal_pair", np.zeros(5, dtype=np.intp),
                                 np.ones(5))
        with pytest.raises(ValueError):
            ls_paired_cardinal(batch, design)


    def test_unsampled_edges_match_the_sampled_design(self):
        """An unsampled edge scatters weight 0 into the design's Laplacian:
        the result has the bytes of the same samples on the design cut to
        its sampled edges."""
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(80):
            d = int(rng.integers(3, 10))
            num = int(rng.integers(d, 3 * d))
            j = rng.integers(0, d, num)
            k = (j + rng.integers(1, d, num)) % d
            w = rng.random(num)
            design = ComparisonDesign.from_arrays(d, j, k, w / w.sum())
            entries = rng.integers(0, num, int(rng.integers(num // 2 + 1, 2 * num)))
            y = rng.standard_normal(entries.size)
            sampled = np.bincount(entries, minlength=num) > 0
            try:
                full = ls_paired_cardinal(ObservationBatch("cardinal_pair", entries, y), design)
            except ValueError:  # the sample is disconnected
                continue
            cut = ComparisonDesign.from_arrays(d, j[sampled], k[sampled],
                                               w[sampled] / w[sampled].sum())
            renumbered = (np.cumsum(sampled) - 1)[entries]
            part = ls_paired_cardinal(ObservationBatch("cardinal_pair", renumbered, y), cut)
            assert full.w_hat.values.tobytes() == part.w_hat.values.tobytes()
            assert (full.objective, full.w_hat.B) == (part.objective, part.w_hat.B)
            checked += not sampled.all()
        assert checked >= 20


class TestMeanCardinal:
    def test_noiseless_single_pass(self):
        w = QualityVector(np.array([0.5, -0.2, -0.3]), 0.5)
        batch = sample_outcomes(CardinalModel("item", 0.0), w, None,
                                even_allocation(3, 3), 0)
        result = mean_cardinal(batch, 3)
        np.testing.assert_allclose(result.w_hat.values, w.values, atol=1e-12)

    def test_d2_example(self):
        batch = ObservationBatch("cardinal_item", np.array([0, 1], dtype=np.intp),
                                 np.array([2.0, 0.0]))
        result = mean_cardinal(batch, 2)
        np.testing.assert_allclose(result.w_hat.values, [1.0, -1.0], atol=1e-12)

    def test_repeated_observations_average(self):
        batch = ObservationBatch("cardinal_item",
                                 np.array([0, 0, 1, 1], dtype=np.intp),
                                 np.array([1.0, 3.0, -1.0, 1.0]))
        result = mean_cardinal(batch, 2)
        np.testing.assert_allclose(result.w_hat.values, [1.0, -1.0], atol=1e-12)

    def test_unobserved_item_rejected(self):
        batch = ObservationBatch("cardinal_item", np.zeros(2, dtype=np.intp),
                                 np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            mean_cardinal(batch, 3)

    def test_item_out_of_range_rejected(self):
        """An item index >= d is an error, not a longer estimate."""
        batch = ObservationBatch("cardinal_item", np.array([0, 1, 2], dtype=np.intp),
                                 np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="item index 2 out of range for d=2"):
            mean_cardinal(batch, 2)


class TestTallyChecks:
    """Every estimator tallies its samples through one checked helper: an
    entry or winner past its bound used to land in another cell of the
    tally, or to fail with a message that named neither."""

    def test_ordinal_entry_past_the_edges(self):
        """Entry 9 of complete d=4 (6 edges), won, was tallied as a loss on
        edge 3, and the MLE reported that aliased batch as converged."""
        design = build_topology("complete", 4)
        batch = ordinal_batch([0, 1, 9], [1, -1, 1])
        with pytest.raises(ValueError, match="edge index 9 out of range for E=6"):
            mle_ordinal(batch, design, make_link("btl", 1.0), 1.0)

    def test_negative_entry(self):
        design = build_topology("complete", 4)
        with pytest.raises(ValueError, match="edge index -1 out of range for E=6"):
            mle_ordinal(ordinal_batch([0, -1], [1, 1]), design, make_link("btl", 1.0), 1.0)

    def test_mwise_entry_past_the_subsets(self):
        """Entry 5 of complete_hyper(4, 3) (4 subsets), won by position 0,
        was tallied as a win for position 1 on subset 1."""
        batch = ObservationBatch("mwise", np.array([0, 2, 5]), np.array([1, 2, 0]))
        with pytest.raises(ValueError, match="subset index 5 out of range for S=4"):
            mle_mwise(batch, complete_hyper(4, 3), plackett_luce(3), 1.0)

    def test_mwise_winner_past_m(self):
        batch = ObservationBatch("mwise", np.array([0, 1, 2]), np.array([0, 3, 1]))
        with pytest.raises(ValueError, match="winner position 3 out of range for m=3"):
            mle_mwise(batch, complete_hyper(4, 3), plackett_luce(3), 1.0)

    def test_paired_cardinal_entry_past_the_edges(self):
        batch = ObservationBatch("cardinal_pair", np.arange(10), np.ones(10))
        with pytest.raises(ValueError, match="edge index 9 out of range for E=6"):
            ls_paired_cardinal(batch, build_topology("complete", 4))

    @pytest.mark.parametrize("kind", ["ordinal_pair", "mwise", "cardinal_pair",
                                      "cardinal_item"])
    def test_float_entries(self, kind):
        outcomes = {"ordinal_pair": [1, -1], "mwise": [0, 1]}.get(kind, [0.5, -0.5])
        batch = ObservationBatch(kind, np.array([0.0, 1.0]), np.array(outcomes))
        estimator = {
            "ordinal_pair": lambda: mle_ordinal(batch, SINGLE_EDGE, make_link("btl", 1.0), 1.0),
            "mwise": lambda: mle_mwise(batch, complete_hyper(4, 3), plackett_luce(3), 1.0),
            "cardinal_pair": lambda: ls_paired_cardinal(batch, SINGLE_EDGE),
            "cardinal_item": lambda: mean_cardinal(batch, 2),
        }[kind]
        with pytest.raises(ValueError, match="index must be an integer, got dtype float64"):
            estimator()


class TestSharedScatter:
    """A design builds its Laplacian's scatter indices once, on first use,
    and its Laplacian, every MLE and the paired least squares read them."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        builds = []
        build = graph._laplacian

        def spy(d, j, k):
            builds.append(d)
            return build(d, j, k)

        # Wherever a package module binds the name, so that a module that
        # imported the builder is counted too.
        for module in (graph, estimate, synth):
            if hasattr(module, "_laplacian"):
                monkeypatch.setattr(module, "_laplacian", spy)
        return builds

    def test_design_builds_once(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        design = build_topology("cycle", 8)
        link = make_link("btl", 1.0)
        w_star = gen_quality("uniform", 8, 1.0, 0)
        for seed in (1, 2):
            comps = sample_comparisons(design, 400, seed)
            batch = sample_outcomes(link, w_star, design, comps, seed)
            assert mle_ordinal(batch, design, link, 1.0).converged
        comps = sample_comparisons(design, 400, 3)
        ls_paired_cardinal(sample_outcomes(CardinalModel("pair", 1.0), w_star, design, comps, 3),
                           design)
        assert design.laplacian.trace() == pytest.approx(2.0)
        assert builds == [8]

    def test_hyper_design_builds_once(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        hyper = complete_hyper(6, 3)
        link = plackett_luce(3, 1.0)
        w_star = gen_quality("uniform", 6, 1.0, 0)
        for seed in (1, 2):
            comps = sample_comparisons(hyper, 600, seed)
            batch = sample_outcomes(link, w_star, hyper, comps, seed)
            assert mle_mwise(batch, hyper, link, 1.0).converged
        assert hyper.laplacian.trace() == pytest.approx(6.0)
        assert builds == [6]


class TestErrorMetrics:
    def test_identical_vectors(self):
        design = build_topology("complete", 4)
        metrics = error_metrics(np.ones(4) * 0.1, np.ones(4) * 0.1, design)
        assert metrics.sq_l2 == 0.0 and metrics.sq_lap == 0.0

    def test_constant_difference_in_nullspace(self):
        design = build_topology("star", 5)
        metrics = error_metrics(np.ones(5), np.zeros(5), design)
        assert abs(metrics.sq_l2 - 5.0) < 1e-12
        assert metrics.sq_lap < 1e-12

    def test_rayleigh_lower_bound(self):
        """sq_lap >= lambda2 sq_l2 for mean-zero differences."""
        design = build_topology("path", 7)
        summary = spectrum(design)
        rng = np.random.default_rng(15)
        for _ in range(100):
            delta = rng.standard_normal(7)
            delta -= delta.mean()
            metrics = error_metrics(delta, np.zeros(7), design)
            assert metrics.sq_lap >= summary.lambda2 * metrics.sq_l2 - 1e-10

    def test_seminorm_is_laplacian_quadratic_form(self):
        """sq_lap equals delta^T L delta on random designs, and is 0 along 1."""
        rng = np.random.default_rng(16)
        for _ in range(100):
            d = int(rng.integers(2, 12))
            pairs = np.array(list(itertools.combinations(range(d), 2)))
            pairs = pairs[rng.permutation(len(pairs))[:int(rng.integers(1, len(pairs) + 1))]]
            w = rng.random(len(pairs))
            design = ComparisonDesign(d, np.column_stack([pairs, w / w.sum()]))
            delta = rng.standard_normal(d)
            metrics = error_metrics(delta, np.zeros(d), design)
            assert metrics.sq_lap == pytest.approx(delta @ design.laplacian @ delta,
                                                   rel=1e-12, abs=1e-15)
            assert error_metrics(np.full(d, rng.normal()), np.zeros(d), design).sq_lap == 0.0

    def test_length_mismatch(self):
        design = build_topology("complete", 4)
        with pytest.raises(ValueError):
            error_metrics(np.zeros(3), np.zeros(4), design)


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(grad_tolerance=0.0)

    @pytest.mark.parametrize("name", ["initial_step", "step_shrink", "sufficient_decrease"])
    def test_line_search_constants_not_settable(self, name):
        """A backtracking factor of 1 never shrinks the step, so the line
        search cannot end; the line-search constants are not options."""
        with pytest.raises(TypeError):
            SolverOptions(**{name: 1.0})

    def test_iteration_cap_reported(self):
        batch = ordinal_batch([0] * 40, [1] * 30 + [-1] * 10)
        opts = SolverOptions(max_iters=2, grad_tolerance=1e-14)
        result = mle_ordinal(batch, SINGLE_EDGE, make_link("btl", 1.0), 1.0, opts)
        assert not result.converged
        assert result.iterations == 2
