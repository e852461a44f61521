"""Tests for KL divergences, packings, the Fano machinery and bound reports."""

import hashlib
import itertools
import json
import math
import re
import time

import numpy as np
import pytest
from scipy.special import expit

from ranktopo import graph
from ranktopo.bounds import (
    BoundReport,
    PackingSet,
    cvo_decision,
    fano_bound,
    fano_pipeline,
    gv_packing,
    gv_target,
    kl_exact,
    kl_upper,
    minimax_bounds,
    mwise_prefactors,
)
from ranktopo.estimate import error_metrics, mean_cardinal
from ranktopo.graph import (
    ComparisonDesign,
    HyperDesign,
    build_topology,
    design_from_json,
    spectrum,
)
from ranktopo.models import make_link, model_params, plackett_luce, softmax
from ranktopo.synth import CardinalModel, even_allocation, gen_quality, sample_outcomes

from oracles import (box_points, choice_grad_sq, choice_prob_gradient, exact_projection,
                     fano_dense_laplacian, fd_gradient, gv_distance_packing, gv_distinct_packing,
                     mwise_sups_multistart)

SINGLE_EDGE = ComparisonDesign(2, ((0, 1, 1.0),))


class TestKLExact:
    def test_identical_vectors(self):
        link = make_link("btl", 1.0)
        w = np.array([0.3, -0.3])
        assert kl_exact(w, w, SINGLE_EDGE, link, 10) == 0.0

    def test_hand_computed_value(self):
        link = make_link("btl", 1.0)
        value = kl_exact(np.array([0.1, -0.1]), np.zeros(2), SINGLE_EDGE, link, 1)
        assert abs(value - 0.004975) < 1e-6

    def test_asymmetric_but_nonnegative(self):
        link = make_link("thurstone", 1.0)
        w1 = np.array([0.4, -0.4])
        w2 = np.array([-0.2, 0.2])
        forward = kl_exact(w1, w2, SINGLE_EDGE, link, 5)
        backward = kl_exact(w2, w1, SINGLE_EDGE, link, 5)
        assert forward > 0 and backward > 0
        assert abs(forward - backward) > 1e-6

    def test_scales_linearly_in_n(self):
        link = make_link("btl", 1.0)
        w1, w2 = np.array([0.2, -0.2]), np.zeros(2)
        one = kl_exact(w1, w2, SINGLE_EDGE, link, 1)
        assert abs(kl_exact(w1, w2, SINGLE_EDGE, link, 7) - 7 * one) < 1e-12

    def test_mwise_categorical(self):
        hyper = HyperDesign(3, 3, ((0, 1, 2),))
        pl = plackett_luce(3)
        w1 = np.array([0.5, 0.0, -0.5])
        w2 = np.zeros(3)
        assert kl_exact(w1, w1, hyper, pl, 4) == 0.0
        value = kl_exact(w1, w2, hyper, pl, 4)
        p = np.exp(w1) / np.sum(np.exp(w1))
        expected = 4 * float(np.sum(p * np.log(p * 3)))
        assert abs(value - expected) < 1e-12

    def test_link_design_mismatch(self):
        hyper = HyperDesign(3, 3, ((0, 1, 2),))
        with pytest.raises(ValueError):
            kl_exact(np.zeros(3), np.zeros(3), hyper, make_link("btl", 1.0), 1)
        with pytest.raises(ValueError):
            kl_exact(np.zeros(2), np.zeros(2), SINGLE_EDGE, plackett_luce(2), 1)


class TestKLSandwich:
    def test_upper_bound_example(self):
        link = make_link("btl", 1.0)
        params = model_params(link, 0.1)
        value = kl_upper(np.array([0.1, -0.1]), np.zeros(2), SINGLE_EDGE, params, 1)
        assert abs(value - 0.040401) < 1e-6
        assert value >= kl_exact(np.array([0.1, -0.1]), np.zeros(2), SINGLE_EDGE,
                                 link, 1)

    @pytest.mark.parametrize("family", ["btl", "thurstone"])
    def test_dominates_exact_on_random_pairs(self, family):
        """kl_exact <= kl_upper over 1000 random feasible pairs."""
        design = build_topology("complete", 6)
        link = make_link(family, 1.0)
        bound = 0.8
        params = model_params(link, bound)
        rng = np.random.default_rng(17)
        for _ in range(1000):
            w1 = exact_projection(rng.uniform(-bound, bound, size=6), bound)
            w2 = exact_projection(rng.uniform(-bound, bound, size=6), bound)
            exact = kl_exact(w1, w2, design, link, 50)
            upper = kl_upper(w1, w2, design, params, 50)
            assert exact <= upper + 1e-12
            delta = w1 - w2  # the dense quadratic form kl_upper used to take
            dense = 50 * params.zeta / params.sigma**2 * (delta @ design.laplacian @ delta)
            assert upper == pytest.approx(dense, rel=1e-12, abs=0)

    def test_domain_enforced(self):
        params = model_params(make_link("btl", 1.0), 0.5)
        with pytest.raises(ValueError):
            kl_upper(np.array([0.9, -0.9]), np.zeros(2), SINGLE_EDGE, params, 1)

    def test_mwise_seminorm_bound(self):
        """Categorical KL <= zeta_m lambda_m(H) n |w1-w2|^2 over the hypergraph."""
        d = 5
        hyper = HyperDesign(d, 3, tuple(itertools.combinations(range(d), 3)))
        pl = plackett_luce(3, B=0.7)
        pre = mwise_prefactors(pl)
        lap = hyper.laplacian
        rng = np.random.default_rng(18)
        for _ in range(300):
            w1 = exact_projection(rng.uniform(-0.7, 0.7, size=d), 0.7)
            w2 = exact_projection(rng.uniform(-0.7, 0.7, size=d), 0.7)
            exact = kl_exact(w1, w2, hyper, pl, 20)
            delta = w1 - w2
            upper = pre.zeta * pre.lambda_m_h * 20 * float(delta @ lap @ delta)
            assert exact <= upper + 1e-10


class TestGVPacking:
    def test_targets(self):
        assert gv_target(10, 0.01) == 19
        assert gv_target(3, 0.01) == 2
        assert gv_target(50, 0.01) == 2892702

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            gv_target(10, 0.3)
        with pytest.raises(ValueError):
            gv_target(10, 0.0)

    def test_d10_reaches_target_with_exact_invariants(self):
        packing = gv_packing(10, 0.01, seed=0)
        assert packing.M == 19 and not packing.shortfall
        z = packing.vectors.astype(int)
        assert np.all(z[:, 0] == 0)
        assert set(np.unique(z)) <= {0, 1}
        for i in range(packing.M):
            for j in range(i + 1, packing.M):
                dist = int(np.sum(z[i] != z[j]))
                assert dist >= math.ceil(0.01 * 10)
                assert dist <= 10

    def test_distance_branch(self):
        """alpha d > 1 exercises the real Hamming-distance screening."""
        packing = gv_packing(30, 0.1, seed=1)
        assert packing.target == gv_target(30, 0.1)
        assert not packing.shortfall
        z = packing.vectors.astype(int)
        gram = z @ z.T
        sq = np.diag(gram)
        dist = sq[:, None] + sq[None, :] - 2 * gram
        off = ~np.eye(packing.M, dtype=bool)
        assert dist[off].min() >= 3  # ceil(0.1 * 30)

    def test_determinism(self):
        a = gv_packing(12, 0.05, seed=9)
        b = gv_packing(12, 0.05, seed=9)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("d, alpha", [(20, 0.1), (64, 0.1), (70, 0.1), (130, 0.2)])
    def test_words_are_the_stored_form(self, d, alpha):
        """A packing holds its read-only packed words; the 0/1 vectors are
        unpacked on first read, read-only, and are the words' bits."""
        packing = gv_packing(d, alpha, seed=2)
        assert "vectors" not in vars(packing)
        words = packing.words
        assert words.dtype == np.uint64 and words.shape == (packing.M, (d + 63) // 64)
        assert not (words[:, 0] & np.uint64(1)).any()
        if d % 64:
            assert not (words[:, -1] >> np.uint64(d % 64)).any()  # padding bits clear
        bits = np.arange(d)
        expected = (words[:, bits // 64] >> (bits % 64).astype(np.uint64)) & np.uint64(1)
        vectors = packing.vectors
        assert "vectors" in vars(packing) and packing.vectors is vectors
        assert vectors.dtype == np.uint8 and vectors.shape == (packing.M, d)
        np.testing.assert_array_equal(vectors, expected)
        for array in (words, vectors):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_shortfall_flag(self, monkeypatch):
        """A degenerate draw stream exhausts the reject budget honestly."""
        class ConstantRows:
            def integers(self, low, high, size=None, dtype=None):
                return np.zeros(size, dtype=dtype)

        monkeypatch.setattr("ranktopo.bounds.np.random.default_rng",
                            lambda seed=None: ConstantRows())
        packing = gv_packing(30, 0.1, seed=0, max_rejects=50)
        assert packing.shortfall
        assert packing.M < packing.target
        small = gv_packing(10, 0.01, seed=0, max_rejects=10)
        assert small.shortfall and small.M == 1

    def test_distinctness_branch_matches_sequential_scan(self):
        """The batched distinctness screen keeps exactly what a one-at-a-time
        scan keeps, shortfalls included."""
        shortfalls = 0
        for d in (2, 3, 5, 7, 9, 14, 24):
            for seed in range(3):
                for max_rejects in (0, 2, 30, 1_000_000):
                    packing = gv_packing(d, 0.01, seed=seed, max_rejects=max_rejects)
                    expected = gv_distinct_packing(d, packing.target, seed, max_rejects)
                    np.testing.assert_array_equal(packing.vectors, expected)
                    assert packing.shortfall == (len(expected) < packing.target)
                    shortfalls += packing.shortfall
        assert shortfalls > 0

    def test_distinctness_branch_across_batches(self, monkeypatch):
        """Draws with only 8 distinct rows: the screen carries kept keys and
        rejects from batch to batch until the reject budget runs out."""
        real_rng = np.random.default_rng

        class EightRows:
            def __init__(self, seed=None):
                self.rng = real_rng(seed)

            def integers(self, low, high, size=None, dtype=None):
                words = self.rng.integers(low, high, size=size, dtype=dtype)
                return words & np.uint64(0b1111)  # only coordinates 1-3 vary

        monkeypatch.setattr("ranktopo.bounds.np.random.default_rng", EightRows)
        packing = gv_packing(12, 0.05, seed=3, max_rejects=6000)
        assert packing.target == 9 and packing.M == 8 and packing.shortfall
        expected = gv_distinct_packing(12, packing.target, 3, 6000)
        np.testing.assert_array_equal(packing.vectors, expected)

    def test_distinctness_branch_with_several_words(self, monkeypatch):
        """Leading words take only four values, so the exact comparison decides
        every row, and rows that tie on their leading word can still differ
        in later words.  A small target lets alpha*d <= 1 run at d >= 64, and
        alpha*d reach 2 and 3 at d = 140 and 200, where every key range is
        wider than 64 bits: rows whose 64-bit key prefix ties can still
        differ further on in the range."""
        real_rng = np.random.default_rng

        class FewLeadingWords:
            def __init__(self, seed=None):
                self.rng = real_rng(seed)

            def integers(self, low, high, size=None, dtype=None):
                words = self.rng.integers(low, high, size=size, dtype=dtype)
                return words & np.uint64(0b111)  # bits 0-2 of every word vary

        monkeypatch.setattr("ranktopo.bounds.np.random.default_rng", FewLeadingWords)
        monkeypatch.setattr("ranktopo.bounds.gv_target", lambda d, alpha: 20)
        shortfalls = []
        for d in (64, 65, 100, 128, 140, 200):
            for seed in range(2):
                for max_rejects in (0, 7, 5000):
                    for need in (1, 2, 3):
                        alpha = 1.0 / d if need == 1 else (need - 0.5) / d
                        packing = gv_packing(d, alpha, seed=seed, max_rejects=max_rejects)
                        expected = gv_distinct_packing(d, 20, seed, max_rejects) if need == 1 \
                            else gv_distance_packing(d, alpha, 20, seed, max_rejects)
                        np.testing.assert_array_equal(packing.vectors, expected)
                        assert packing.shortfall == (len(expected) < 20)
                        shortfalls.append(packing.shortfall)
        assert any(shortfalls) and not all(shortfalls)

    @pytest.mark.parametrize("free_bits", [None, slice(1, 11), slice(1, 13)])
    def test_distance_branch_matches_sequential_scan(self, monkeypatch, free_bits):
        """The packed-word distance screen keeps exactly what a one-at-a-time
        scan keeps, for one- and two-word vectors.  Plain draws are almost
        never rejected; draws with only a few free bits force rejects across
        batches, stops inside a batch at the reject limit, and shortfalls."""
        real_rng = np.random.default_rng

        class FewBits:
            def __init__(self, seed=None):
                self.rng = real_rng(seed)

            def integers(self, low, high, size=None, dtype=None):
                words = self.rng.integers(low, high, size=size, dtype=dtype)
                if free_bits is not None:
                    # d is the loop's dimension at the time of the draw; the
                    # last word of a two-word vector varies too.
                    mask = np.zeros(size[1], dtype=np.uint64)
                    for i in (*range(d)[free_bits], d - 3, d - 2, d - 1):
                        mask[i // 64] |= np.uint64(1 << (i % 64))
                    words &= mask
                return words

        monkeypatch.setattr("ranktopo.bounds.np.random.default_rng", FewBits)
        shortfalls = []
        for d, alpha in ((24, 0.05), (40, 0.05), (64, 0.1), (70, 0.1), (100, 0.12)):
            for seed in range(2):
                for max_rejects in (0, 7, 2500) if free_bits else (0,):
                    packing = gv_packing(d, alpha, seed=seed, max_rejects=max_rejects)
                    assert packing.target == gv_target(d, alpha)
                    expected = gv_distance_packing(d, alpha, packing.target, seed, max_rejects)
                    np.testing.assert_array_equal(packing.vectors, expected)
                    assert packing.shortfall == (len(expected) < packing.target)
                    shortfalls.append(packing.shortfall)
        if free_bits is None:
            assert not any(shortfalls)
        else:
            assert any(shortfalls) and not all(shortfalls)

    @pytest.mark.parametrize("d, need", [(70, 2), (100, 2), (100, 3), (128, 3)])
    def test_key_ranges_across_the_word_boundary(self, monkeypatch, d, need):
        """A key range that crosses bit 64 is read from both words, and from
        its own bits only.  Ten bits vary: in every range, on both sides of
        bit 64, and at the first bit after the straddling range (bit 67 at
        d=100 and bit 85 at d=128 when need=3).  So pairs that agree on
        nothing but the straddling range turn up, and a key that took in
        the next range's first bit would miss them.  A small target lets
        alpha*d stay at 1.5 and 2.5."""
        real_rng = np.random.default_rng
        free = np.zeros((d + 63) // 64, dtype=np.uint64)
        for i in (1, 2, *range(62, 68), 84, 85):
            if i < d:
                free[i // 64] |= np.uint64(1 << (i % 64))

        class FewBits:
            def __init__(self, seed=None):
                self.rng = real_rng(seed)

            def integers(self, low, high, size=None, dtype=None):
                return self.rng.integers(low, high, size=size, dtype=dtype) & free

        monkeypatch.setattr("ranktopo.bounds.np.random.default_rng", FewBits)
        monkeypatch.setattr("ranktopo.bounds.gv_target", lambda d, alpha: 20)
        alpha = (need - 0.5) / d
        shortfalls = []
        for seed in range(3):
            for max_rejects in (0, 7, 5000):
                packing = gv_packing(d, alpha, seed=seed, max_rejects=max_rejects)
                expected = gv_distance_packing(d, alpha, 20, seed, max_rejects)
                np.testing.assert_array_equal(packing.vectors, expected)
                assert packing.shortfall == (len(expected) < 20)
                shortfalls.append(packing.shortfall)
        assert any(shortfalls) and not all(shortfalls)

    def test_distance_branch_is_near_linear(self):
        """62,437 vectors at d=60 took 5.4 s when every candidate was compared
        with every kept vector; the vectors are pinned by their SHA-256."""
        start = time.perf_counter()
        packing = gv_packing(60, 0.05, seed=3)
        elapsed = time.perf_counter() - start
        assert packing.M == 62437 and not packing.shortfall
        assert hashlib.sha256(packing.vectors.tobytes()).hexdigest() == (
            "e66638817e5bdacdb28b2a257c07d6bec5343a4d159ddfa7d3e6341b1e5b4dff")
        assert elapsed < 2.0

    # SHA-256 of the vectors at (d, alpha, seed).  The draw stream and the
    # scan fix every vector, whatever the key a screen sorts by or how kept
    # rows leave a batch.  At (10, 0.01, 7) a draw is rejected before the
    # last kept one, so the kept rows are gathered; elsewhere they open
    # their batches.
    GV_PINS = {
        (46, 0.01, 0): "7802c381678d2acf98e65b5a79e6cf1ee13092181ee1a46385b2346e94381226",
        (48, 0.05, 0): "ac4112de866140244272671d1f95680954b29d7685969985937fc120a8b3e261",
        (20, 0.1, 0): "969abc034a8934e57b56fa50619a78ceee09fdcf07b1f3da74b5d0e9c6eae05a",
        (130, 0.2, 0): "b7a90930aee98a3d7141b46fe08ae3a6e8d626155460c88f8664579c345a0866",
        (10, 0.01, 7): "b099ab646defcaf7096204161bcd48014475e1b647701870448491b1653682e0",
    }

    @pytest.mark.parametrize("d, alpha, seed", list(GV_PINS))
    def test_vectors_are_pinned(self, d, alpha, seed):
        packing = gv_packing(d, alpha, seed)
        assert packing.M == packing.target
        assert hashlib.sha256(packing.vectors.tobytes()).hexdigest() == (
            self.GV_PINS[d, alpha, seed])


class TestFanoBound:
    def test_boundary_exactly_zero(self):
        assert fano_bound(1.0, 0.0, 2) == 0.0

    def test_reference_value(self):
        value = fano_bound(1.0, 0.0, int(math.exp(10)))
        assert abs(value - 0.46534) < 1e-3

    def test_huge_beta_clamps(self):
        assert fano_bound(1.0, 1e9, 100) == 0.0

    def test_monotone_in_beta_and_m(self):
        betas = np.linspace(0, 3, 30)
        values = [fano_bound(1.0, float(b), 50) for b in betas]
        assert all(a >= b for a, b in zip(values, values[1:]))
        sizes = [2, 3, 10, 100, 10000]
        by_m = [fano_bound(1.0, 0.5, m) for m in sizes]
        assert all(a <= b for a, b in zip(by_m, by_m[1:]))

    def test_m_validation(self):
        with pytest.raises(ValueError):
            fano_bound(1.0, 0.0, 1)


class TestMinimaxBounds:
    def test_t3_closed_value(self):
        design = build_topology("complete", 4)
        params = model_params(make_link("btl", 1.0), 1.0)
        report = minimax_bounds("T3_paired", design, params, 100)
        assert abs(report.lower - 0.045) < 1e-12
        assert abs(report.upper - 0.045) < 1e-12
        assert report.applicable

    def test_t2_statistic_takes_d_squared(self):
        design = build_topology("complete", 10)
        params = model_params(make_link("btl", 1.0), 1.0)
        report = minimax_bounds("T2_l2", design, params, 1e4)
        assert abs(report.context["lb_statistic"] - 100.0) < 1e-9
        assert abs(report.lower - 100.0 / 1e4) < 1e-12

    def test_t2_upper_value(self):
        design = build_topology("complete", 10)
        link = make_link("btl", 1.0)
        params = model_params(link, 1.0)
        report = minimax_bounds("T2_l2", design, params, 1e4)
        f2 = float(expit(2.0))
        gamma = f2 * (1 - f2)
        zeta = 0.25 / gamma
        expected = (zeta / gamma) * 10 / ((2 / 9) * 1e4)
        assert abs(report.upper - expected) < 1e-9
        assert abs(expected - 0.102053) < 1e-5

    def test_t2_dominates_d2_over_n(self):
        params = model_params(make_link("btl", 1.0), 1.0)
        for kind in ("complete", "star", "path", "cycle"):
            design = build_topology(kind, 12)
            report = minimax_bounds("T2_l2", design, params, 1000)
            assert report.lower >= 144.0 / 1000 - 1e-12

    def test_t1_readings(self):
        design = build_topology("complete", 8)
        params = model_params(make_link("thurstone", 1.0), 1.0)
        base = minimax_bounds("T1_lap", design, params, 500)
        assert abs(base.lower - 1.0 / (params.zeta * 500)) < 1e-12
        assert abs(base.upper - (params.zeta / params.gamma) * 8 / 500) < 1e-12

    def test_applicability_threshold(self):
        design = build_topology("complete", 10)  # trace_pinv = 40.5
        params = model_params(make_link("btl", 1.0), 1.0)
        floor = params.sigma**2 * 40.5 / (params.zeta * 1.0)
        low = minimax_bounds("T1_lap", design, params, math.floor(floor) - 1)
        high = minimax_bounds("T1_lap", design, params, math.ceil(floor) + 1)
        assert not low.applicable
        assert high.applicable

    def test_t4_shapes_and_scalings(self):
        d = 6
        hyper = HyperDesign(d, 3, tuple(itertools.combinations(range(d), 3)))
        pl = plackett_luce(3, B=1.0)
        lap = minimax_bounds("T4_mwise_lap", hyper, pl, 1000)
        l2 = minimax_bounds("T4_mwise_l2", hyper, pl, 1000)
        assert 0 < lap.lower <= lap.upper
        assert 0 < l2.lower <= l2.upper
        # the Euclidean lower bound carries the extra dimension factor
        assert abs(l2.lower - d * lap.lower) < 1e-12
        summary = spectrum(hyper)
        assert abs(l2.upper - lap.upper / summary.lambda2) < 1e-12

    @staticmethod
    def count_eigvalsh(monkeypatch) -> list:
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_one_eigensolve_per_design(self, monkeypatch):
        """A design with no closed-form spectrum is solved once for T1-T3."""
        ends = np.arange(64)
        design = ComparisonDesign.from_arrays(64, ends, (ends + 1) % 64, np.full(64, 1 / 64),
                                              kind="cycle")
        params = model_params(make_link("btl", 1.0), 1.0)
        calls = self.count_eigvalsh(monkeypatch)
        for theorem in ("T1_lap", "T2_l2", "T3_paired"):
            minimax_bounds(theorem, design, params, 1e4)
        assert calls == [(64, 64)]
        eigenvalues = spectrum(design).eigenvalues
        assert not eigenvalues.flags.writeable
        with pytest.raises(ValueError):
            eigenvalues[0] = 1.0
        assert len(calls) == 1

    def test_canonical_kinds_run_no_eigensolve(self, monkeypatch):
        """A built cycle's closed form serves T1-T3: no eigvalsh, no d x d Laplacian."""
        def no_laplacian(*args):
            raise AssertionError("a canonical kind must not build its Laplacian")

        monkeypatch.setattr(graph, "_laplacian", no_laplacian)
        with pytest.raises(AssertionError, match="must not build"):
            build_topology("cycle", 8).laplacian  # every Laplacian comes from the spied builder
        design = build_topology("cycle", 64)
        params = model_params(make_link("btl", 1.0), 1.0)
        calls = self.count_eigvalsh(monkeypatch)
        for theorem in ("T1_lap", "T2_l2", "T3_paired"):
            minimax_bounds(theorem, design, params, 1e4)
        assert spectrum(design).lambda2 > 0
        assert calls == []

    @pytest.mark.parametrize("make", [
        lambda: design_from_json(build_topology("path", 64).to_json()),
        lambda: build_topology("expander", 49),
    ], ids=["path_from_json", "expander"])
    def test_designs_without_closed_form_use_eigvalsh(self, make, monkeypatch):
        design = make()
        calls = self.count_eigvalsh(monkeypatch)
        spectrum(design)
        assert calls == [(design.d, design.d)]

    def test_one_eigensolve_per_hyper_design(self, monkeypatch):
        hyper = HyperDesign(8, 3, tuple(itertools.combinations(range(8), 3)))
        pl = plackett_luce(3, B=1.0)
        calls = self.count_eigvalsh(monkeypatch)
        for theorem in ("T4_mwise_lap", "T4_mwise_l2"):
            minimax_bounds(theorem, hyper, pl, 1000)
        assert calls == [(8, 8)]
        assert not spectrum(hyper).eigenvalues.flags.writeable

    def test_complete_hyper_bounds_run_no_eigensolve(self, monkeypatch, capsys):
        from ranktopo.cli import main

        calls = self.count_eigvalsh(monkeypatch)
        for theorem in ("T4_mwise_lap", "T4_mwise_l2"):
            assert main(["bounds", "--theorem", theorem, "--kind", "complete", "--d", "12",
                         "--m", "4", "--n", "1e4"]) == 0
            assert json.loads(capsys.readouterr().out)["upper"] > 0
        # beta is closed-form and the spectrum too: no eigensolve at all
        assert calls == []

    def test_theorem_design_mismatch(self):
        design = build_topology("complete", 4)
        params = model_params(make_link("btl", 1.0), 1.0)
        hyper = HyperDesign(4, 3, ((0, 1, 2), (1, 2, 3)))
        with pytest.raises(ValueError):
            minimax_bounds("T4_mwise_lap", design, params, 100)
        with pytest.raises(ValueError):
            minimax_bounds("T2_l2", hyper, plackett_luce(3), 100)
        with pytest.raises(ValueError):
            minimax_bounds("T9_zeta", design, params, 100)

    def test_disconnected_rejected(self):
        design = ComparisonDesign(4, ((0, 1, 0.5), (2, 3, 0.5)))
        params = model_params(make_link("btl", 1.0), 1.0)
        with pytest.raises(ValueError):
            minimax_bounds("T3_paired", design, params, 100)

    def test_report_serialization(self):
        design = build_topology("complete", 4)
        params = model_params(make_link("btl", 1.0), 1.0)
        payload = json.loads(minimax_bounds("T3_paired", design, params, 100).to_json())
        assert payload["formula"] == "T3_paired"
        assert payload["applicable"] is True
        assert "constants" not in payload
        with pytest.raises(ValueError):
            BoundReport(-1.0, 1.0, True, "T1_lap")


class TestMWisePrefactors:
    def test_pl_structure(self):
        pl = plackett_luce(3, B=1.0)
        pre = mwise_prefactors(pl)
        assert 0 < pre.inf_choice_prob < 1 / 3
        assert pre.lambda2_h == pytest.approx(pl.beta)
        assert pre.lambda_m_h == pytest.approx(pl.beta)
        assert pre.sup_grad_hdag_sq > 0
        assert pre.sup_grad_log_sq > 0
        # the minimum of the first-item choice probability sits at the
        # corner (-B, B, ..., B)
        expected_inf = math.exp(-1) / (math.exp(-1) + 2 * math.e)
        assert pre.inf_choice_prob == pytest.approx(expected_inf, rel=1e-6)

    def test_grad_hdag_is_scaled_euclidean(self):
        # grad F is orthogonal to the ones vector, so the H-dagger norm is
        # the Euclidean norm divided by beta.
        pl = plackett_luce(3, B=0.5)
        pre = mwise_prefactors(pl)
        rng = np.random.default_rng(20)
        xs = rng.uniform(-0.5, 0.5, size=(500, 3))
        best = 0.0
        for x in xs:
            g = choice_prob_gradient(x)
            best = max(best, float(g @ g) / pl.beta)
        assert pre.sup_grad_hdag_sq >= best - 1e-9


    PREFACTOR_BS = (0.25, 0.5, 1.0, 2.0, 3.0)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 8])
    def test_sups_match_multistart_optimiser(self, m):
        """Both sups are the box maxima a 150-start L-BFGS-B ascent finds, to
        1e-10 below and 1e-7 above; a box sample falls short of them (at
        m=4, B=1 the 4,016-point sample gives 0.099731, the sup is 0.099903)."""
        for B in self.PREFACTOR_BS:
            pre = mwise_prefactors(plackett_luce(m, B))
            sups = (pre.sup_grad_hdag_sq * pre.lambda2_h, pre.sup_grad_log_sq)
            for got, best in zip(sups, mwise_sups_multistart(m, B)):
                assert best * (1 - 1e-10) <= got <= best * (1 + 1e-7)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 8])
    def test_inf_is_closed_form(self, m):
        for B in self.PREFACTOR_BS:
            pre = mwise_prefactors(plackett_luce(m, B))
            assert pre.inf_choice_prob == 1.0 / (1.0 + (m - 1) * math.exp(2.0 * B))
            sample = softmax(box_points(m, B), axis=1)[:, 0]
            assert pre.inf_choice_prob <= sample.min() * (1 + 1e-12)

    def test_m3_sups_reach_the_box_grid(self):
        """Where a maximiser is a grid point, as (-B, B, -B) is for S at B = 1,
        the two routes round differently, so 'at least' allows 1e-15 relative."""
        for B in self.PREFACTOR_BS:
            pre = mwise_prefactors(plackett_luce(3, B))
            p = softmax(box_points(3, B), axis=1)
            s = (1.0 - p[:, 0]) ** 2 + np.sum(p[:, 1:] ** 2, axis=1)
            grid_sups = (float(np.max(p[:, 0] ** 2 * s)), float(np.max(s)))
            sups = (pre.sup_grad_hdag_sq * pre.lambda2_h, pre.sup_grad_log_sq)
            for got, grid in zip(sups, grid_sups):
                assert got >= grid * (1 - 1e-15)

    @pytest.mark.parametrize("B", [0.1, 1.0, 20.0, 100.0, 180.0, 185.0])
    def test_m2_sups_in_closed_form(self, B):
        """At m=2, S = 2 (1-p_0)^2: sup p_0^2 S = 1/8 at p_0 = 1/2, and
        sup S = 2/(1 + e^{-2B})^2 at x_0 = -B, x_1 = +B, each within 4 ulp."""
        pre = mwise_prefactors(plackett_luce(2, B))
        sups = (pre.sup_grad_hdag_sq * pre.lambda2_h, pre.sup_grad_log_sq)
        for got, exact in zip(sups, (0.125, 2.0 / (1.0 + math.exp(-2.0 * B)) ** 2)):
            assert abs(got - exact) <= 4 * math.ulp(exact)

    def test_sups_within_hard_bounds(self):
        """sum_{i>=1} p_i^2 <= (1-p_0)^2, so S <= 2 (1-p_0)^2: sup S <= 2 and
        sup p_0^2 S <= 2 max (p_0 (1-p_0))^2 = 1/8, for every m and B."""
        eps = np.finfo(float).eps
        for m in range(2, 13):
            for B in (0.1, 1.0, 3.0, 20.0, 100.0, 177.0, 180.0, 185.0):
                pre = mwise_prefactors(plackett_luce(m, B))
                assert pre.sup_grad_hdag_sq * pre.lambda2_h <= 0.125 * (1 + 4 * eps)
                assert pre.sup_grad_log_sq <= 2.0 * (1 + 4 * eps)

    def test_interior_stationarity_formulas(self):
        """For i >= 1, d(p_0^2 S)/dx_i = 2 p_0^2 p_i (p_i - S - Q + p_0 (1 - p_0)) and
        dS/dx_i = 2 p_i (p_i - Q + p_0 (1 - p_0)), S = |e_0 - p|^2, Q = sum_{i>=1} p_i^2:
        each vanishes at one p_i, shared by every item inside the box."""
        rng = np.random.default_rng(30)
        for m in (3, 5, 8):
            for x in rng.uniform(-2, 2, size=(20, m)):
                p = softmax(x)
                q = float(np.sum(p[1:] ** 2))
                s = (1 - p[0]) ** 2 + q
                grad_f_sq = fd_gradient(lambda y: choice_grad_sq(y)[0], x)
                grad_s = fd_gradient(lambda y: choice_grad_sq(y)[1], x)
                np.testing.assert_allclose(
                    grad_f_sq[1:], 2 * p[0] ** 2 * p[1:] * (p[1:] - s - q + p[0] * (1 - p[0])),
                    rtol=0, atol=1e-8)
                np.testing.assert_allclose(grad_s[1:], 2 * p[1:] * (p[1:] - q + p[0] * (1 - p[0])),
                                           rtol=0, atol=1e-8)


class TestCvoDecision:
    def test_limit_regimes(self):
        assert cvo_decision(1.0, 20.0, 1.0).decision == "ordinal_better"
        assert cvo_decision(10.0, 0.1, 1.0).decision == "cardinal_better"

    def test_underflowing_interval_named(self):
        with pytest.raises(ValueError, match="too wide: F\\(1-F\\) underflows"):
            cvo_decision(0.05, 1.0, 1.0)

    def test_equal_scales_pinned(self):
        report = cvo_decision(1.0, 1.0, 1.0)
        assert report.decision == "indeterminate"
        assert report.b_l == pytest.approx(0.0557288, rel=1e-5)
        assert report.b_u == pytest.approx(158.0305, rel=1e-5)
        assert report.b == 1

    def test_threshold_consistency(self):
        """The decision reproduces the b_u/b_l comparisons exactly."""
        for sc in (0.5, 1.0, 5.0, 13.0, 40.0):
            report = cvo_decision(1.0, sc, 1.0)
            if report.b_u < sc**2:
                assert report.decision == "ordinal_better"
            elif report.b_l > sc**2:
                assert report.decision == "cardinal_better"
            else:
                assert report.decision == "indeterminate"

    def test_validation(self):
        with pytest.raises(ValueError):
            cvo_decision(0.0, 1.0, 1.0)

    def test_serialization(self):
        payload = json.loads(cvo_decision(1.0, 2.0, 1.0).to_json())
        assert set(payload) == {"decision", "b_l", "b_u", "b", "sigma_ord",
                                "sigma_card", "B"}


def weighted_complete(d: int) -> ComparisonDesign:
    """Every pair, at uneven weights; a custom design runs through eigvalsh."""
    j, k = np.triu_indices(d, 1)
    w = np.random.default_rng(d).uniform(0.1, 1.0, j.size)
    return ComparisonDesign.from_arrays(d, j, k, w / w.sum())


FANO_DESIGNS = [build_topology(kind, d) for kind, d in (
    ("complete", 6), ("star", 9), ("path", 12), ("cycle", 14), ("barbell", 14),
    ("complete_bipartite", 13), ("lattice2d", 12), ("hypercube", 16), ("expander", 25))]
FANO_DESIGNS += [weighted_complete(7), weighted_complete(12)]


class TestFanoPipeline:
    @pytest.mark.parametrize("alpha", [0.01, 0.1])
    @pytest.mark.parametrize("variant", ["lap", "l2"])
    @pytest.mark.parametrize("design", FANO_DESIGNS, ids=lambda g: f"{g.kind}-{g.d}")
    def test_matches_dense_laplacian_route(self, design, variant, alpha):
        """Distances from eigen-coordinates equal those read back through L."""
        params = model_params(make_link("btl", 1.0), 1.0)
        want = fano_dense_laplacian(design, params, 1e6, alpha, variant, seed=1)
        assert want > 0
        assert fano_pipeline(design, params, 1e6, alpha, variant, seed=1) == pytest.approx(
            want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [5, 6, 7, 8, 9, 12, 20, 40, 46, 48])
    @pytest.mark.parametrize("kind", ["complete", "star", "path", "cycle"])
    def test_counts_match_dense_distances(self, kind, d):
        """Minimum and mean from Hamming and column counts match the M x M
        dense-Laplacian distances to 1e-12, and at n = 1, where some packings
        leave the bound set, both routes raise the same error."""
        design = build_topology(kind, d)
        params = model_params(make_link("btl", 1.0), 1.0)
        for variant, seed, n in itertools.product(("lap", "l2"), range(3), (1e6, 1.0)):
            try:
                want = fano_dense_laplacian(design, params, n, 0.05, variant, seed)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    fano_pipeline(design, params, n, 0.05, variant, seed)
                continue
            got = fano_pipeline(design, params, n, 0.05, variant, seed)
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("variant", ["lap", "l2"])
    @pytest.mark.parametrize("d, alpha, cap", [(20, 0.1, 512), (46, 0.01, 512), (48, 0.05, 40)])
    def test_reads_packed_words_only(self, monkeypatch, d, alpha, cap, variant):
        """The pipeline takes its counts, coordinates and Hamming minimum
        from at most packing_cap rows of packed words and never unpacks the
        whole packing: reading ``PackingSet.vectors`` fails here, and the
        bound still equals the dense route's, which reads them."""
        design = build_topology("complete", d)
        params = model_params(make_link("btl", 1.0), 1.0)
        want = fano_dense_laplacian(design, params, 1e6, alpha, variant, 3, packing_cap=cap)

        def unread(packing):
            raise AssertionError("fano_pipeline read PackingSet.vectors")

        monkeypatch.setattr(PackingSet, "vectors", property(unread))
        got = fano_pipeline(design, params, 1e6, alpha, variant, 3, packing_cap=cap)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [0.25, 0.49, 0.0, -3.0, float("nan")])
    def test_alpha_checked_at_every_d(self, alpha):
        """The d <= 9 proof set draws no packing, but alpha outside (0, 1/4)
        is refused there as the GV packing refuses it at d = 12."""
        params = model_params(make_link("btl", 1.0), 1.0)
        for d in (8, 12):
            with pytest.raises(ValueError, match=re.escape("alpha must lie in (0, 1/4)")):
                fano_pipeline(build_topology("complete", d), params, 1e4, alpha=alpha)

    def test_positive_on_reference_instance(self):
        design = build_topology("complete", 10)
        params = model_params(make_link("btl", 1.0), 1.0)
        assert fano_pipeline(design, params, 1e4) > 0

    def test_small_d_branch(self):
        design = build_topology("complete", 6)
        params = model_params(make_link("btl", 1.0), 1.0)
        assert fano_pipeline(design, params, 1e4) > 0
        assert fano_pipeline(design, params, 1e4, variant="l2") > 0

    def test_delta_scaling_halves_with_doubled_n(self):
        """n -> 2n halves delta^2 while leaving the Fano bracket unchanged."""
        design = build_topology("complete", 12)
        params = model_params(make_link("btl", 1.0), 1.0)
        base = fano_pipeline(design, params, 2e4, seed=3)
        doubled = fano_pipeline(design, params, 4e4, seed=3)
        assert base > 0
        assert doubled == pytest.approx(base / 2, rel=1e-9)

    def test_l2_variant_positive(self):
        design = build_topology("complete", 12)
        params = model_params(make_link("btl", 1.0), 1.0)
        assert fano_pipeline(design, params, 1e5, variant="l2", seed=2) > 0

    def test_membership_violation_raises(self):
        design = build_topology("complete", 10)
        link = make_link("btl", 1.0)
        tight = model_params(link, 1e-4)
        with pytest.raises(ValueError, match="bound set"):
            fano_pipeline(design, tight, 100)

    def test_packing_shortfall_raises(self, monkeypatch):
        class ConstantRows:
            def integers(self, low, high, size=None, dtype=None):
                return np.zeros(size, dtype=dtype)

        monkeypatch.setattr("ranktopo.bounds.np.random.default_rng",
                            lambda seed=None: ConstantRows())
        design = build_topology("complete", 10)
        params = model_params(make_link("btl", 1.0), 1.0)
        with pytest.raises(ValueError, match="shortfall"):
            fano_pipeline(design, params, 1e4)

    def test_disconnected_rejected(self):
        design = ComparisonDesign(4, ((0, 1, 0.5), (2, 3, 0.5)))
        params = model_params(make_link("btl", 1.0), 1.0)
        with pytest.raises(ValueError):
            fano_pipeline(design, params, 1e4)

    def test_unknown_variant(self):
        design = build_topology("complete", 10)
        params = model_params(make_link("btl", 1.0), 1.0)
        with pytest.raises(ValueError):
            fano_pipeline(design, params, 1e4, variant="spectral")


class TestCardinalRiskIdentity:
    def test_normal_location_risk(self):
        """Monte-Carlo mean_cardinal risk matches sigma_c^2 d / n within 3%.

        At d = 2 the recentred-means risk is exactly sigma_c^2 d/n under
        even allocation, so the Monte-Carlo average must land on it.
        """
        from ranktopo.cli import row_seed

        d, n, sigma_c, trials = 2, 50, 1.0, 5000
        design = build_topology("complete", d)
        items = even_allocation(d, n)
        total = 0.0
        for t in range(trials):
            rng = np.random.default_rng(row_seed(0, 0, t))
            w = gen_quality("uniform", d, 1.0, rng)
            batch = sample_outcomes(CardinalModel("item", sigma_c), w, None,
                                    items, rng)
            est = mean_cardinal(batch, d)
            total += error_metrics(est.w_hat, w, design).sq_l2
        target = sigma_c**2 * d / n
        assert abs(total / trials - target) / target < 0.03
