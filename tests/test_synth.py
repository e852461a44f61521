"""Tests for quality-vector generation and observation sampling."""

import math

import numpy as np
import pytest
from scipy.special import expit

from oracles import choice_draws, mwise_winners_row_major, ordinal_outcomes_per_sample
from ranktopo.graph import (PAIRWISE_KINDS, ComparisonDesign, HyperDesign, build_topology,
                            complete_hyper, spectrum)
from ranktopo.models import make_link, plackett_luce
from ranktopo.synth import (
    CardinalModel,
    ObservationBatch,
    QualityVector,
    _search_cdf,
    even_allocation,
    gen_quality,
    packing_sign_vector,
    sample_comparisons,
    sample_outcomes,
)


def _draw_designs():
    """Every canonical kind at d = 16, 64 and 256 where it builds (the
    expander at d = 25, 49 and 289), then hand-made designs with zero
    weights first, in the middle and last, and Pareto-weighted paths of 2
    to 3,000 edges."""
    for kind in PAIRWISE_KINDS:
        for d in (25, 49, 289) if kind == "expander" else (16, 64, 256):
            yield pytest.param(build_topology(kind, d), id=f"{kind}-{d}")
    ends = np.arange(5)
    for name, w in (("zero-first", [0.0, 0.0, 0.25, 0.25, 0.5]),
                    ("zero-middle", [0.25, 0.0, 0.0, 0.25, 0.5]),
                    ("zero-last", [0.25, 0.25, 0.5, 0.0, 0.0]),
                    ("zero-everywhere", [0.0, 0.5, 0.0, 0.5, 0.0])):
        yield pytest.param(ComparisonDesign.from_arrays(6, ends, ends + 1, w), id=name)
    rng = np.random.default_rng(23)
    for edges in (2, 3, 10, 100, 1000, 3000):
        w = rng.pareto(1.0, edges)
        ends = np.arange(edges)
        yield pytest.param(ComparisonDesign.from_arrays(edges + 1, ends, ends + 1, w / w.sum()),
                           id=f"pareto-{edges}")


class TestQualityVector:
    def test_membership_enforced(self):
        QualityVector(np.array([0.5, -0.5]), 0.5)
        with pytest.raises(ValueError):
            QualityVector(np.array([0.5, -0.4]), 0.5)  # not mean zero
        with pytest.raises(ValueError):
            QualityVector(np.array([0.6, -0.6]), 0.5)  # exceeds bound

    @pytest.mark.parametrize("values, B, message", [
        ([np.nan, np.nan], 1.0, "finite"),
        ([np.inf, -np.inf], 1.0, "finite"),
        ([0.0, 0.0, 0.0], np.nan, "B must be nonnegative"),
        ([0.0, 0.0], -1.0, "B must be nonnegative"),
    ])
    def test_non_finite_input_refused(self, values, B, message):
        """NaN entries and a NaN B used to pass every check, and infinite
        entries raised a RuntimeWarning before the box error.  B = 0 stays
        valid: mean_cardinal on constant data returns that bound."""
        assert QualityVector(np.zeros(len(values)), 0.0).B == 0.0
        with pytest.raises(ValueError, match=message):
            QualityVector(np.array(values), B)

    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "packing"])
    def test_generated_vectors_in_bound_set(self, kind):
        design = build_topology("complete", 7)
        for seed in range(25):
            w = gen_quality(kind, 7, 0.8, seed, design=design)
            assert abs(float(np.sum(w.values))) < 1e-9
            assert abs(float(np.max(np.abs(w.values))) - 0.8) < 1e-12

    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "packing"])
    def test_d2_is_antisymmetric_pair(self, kind):
        design = ComparisonDesign(2, ((0, 1, 1.0),))
        w = gen_quality(kind, 2, 1.5, 3, design=design)
        np.testing.assert_allclose(np.sort(w.values), [-1.5, 1.5], atol=1e-12)

    def test_packing_requires_connected_design(self):
        design = ComparisonDesign(4, ((0, 1, 0.5), (2, 3, 0.5)))
        with pytest.raises(ValueError):
            gen_quality("packing", 4, 1.0, 0, design=design)
        with pytest.raises(ValueError):
            gen_quality("packing", 4, 1.0, 0, design=None)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_quality("cauchy", 4, 1.0, 0)

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_unknown_variant_refused_for_every_kind(self, kind):
        """The packing draw already refused it; the other kinds ignored it."""
        with pytest.raises(ValueError, match="unknown packing variant 'bogus'"):
            gen_quality(kind, 4, 1.0, 0, variant="bogus")

    def test_sign_vector_composition(self):
        rng = np.random.default_rng(0)
        for d in (2, 5, 6, 9):
            z = packing_sign_vector(d, rng)
            assert z[0] == 0.0
            assert int(np.sum(z == -1)) == d // 2
            assert int(np.sum(z == 1)) == d - 1 - d // 2

    @pytest.mark.parametrize("variant", ["pinv", "sqrt_pinv"])
    def test_packing_matches_bruteforce_transform(self, variant):
        """The eigen-map agrees with an index-level reimplementation."""
        design = build_topology("complete", 6)
        seed = 7
        w = gen_quality("packing", 6, 1.0, seed, design=design, variant=variant)

        summary = spectrum(design)
        z = packing_sign_vector(6, np.random.default_rng(seed))
        scale = summary.pinv_diag if variant == "pinv" else np.sqrt(summary.pinv_diag)
        raw = np.zeros(6)
        for a in range(6):
            for i in range(6):
                # w = U^T diag(scale) z with eigenvectors as rows of U
                raw[a] += summary.eigenvectors[i, a] * scale[i] * z[i]
        raw -= raw.mean()
        raw /= np.max(np.abs(raw))
        np.testing.assert_allclose(w.values, raw, atol=1e-12)

    def test_packing_variants_differ(self):
        design = build_topology("path", 6)
        w1 = gen_quality("packing", 6, 1.0, 5, design=design, variant="pinv")
        w2 = gen_quality("packing", 6, 1.0, 5, design=design, variant="sqrt_pinv")
        assert np.max(np.abs(w1.values - w2.values)) > 1e-3


class TestSampleComparisons:
    def test_single_edge(self):
        design = ComparisonDesign(2, ((0, 1, 1.0),))
        np.testing.assert_array_equal(sample_comparisons(design, 5, 0), np.zeros(5))

    def test_determinism(self):
        design = build_topology("complete", 5)
        a = sample_comparisons(design, 1000, 42)
        b = sample_comparisons(design, 1000, 42)
        np.testing.assert_array_equal(a, b)
        c = sample_comparisons(design, 1000, 43)
        assert np.any(a != c)

    def test_frequencies_match_weights(self):
        """Edge frequencies land within 3 binomial sigmas of 1/3 each."""
        design = build_topology("complete", 3)
        n = 30000
        draws = sample_comparisons(design, n, 1)
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        for edge in range(3):
            freq = float(np.mean(draws == edge))
            assert abs(freq - 1 / 3) < 3 * sigma

    def test_weighted_design(self):
        design = ComparisonDesign(3, ((0, 1, 0.9), (1, 2, 0.1)))
        draws = sample_comparisons(design, 20000, 2)
        freq = float(np.mean(draws == 0))
        assert abs(freq - 0.9) < 3 * math.sqrt(0.9 * 0.1 / 20000)

    def test_hyper_uniform(self):
        hyper = HyperDesign(5, 3, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
        draws = sample_comparisons(hyper, 15000, 3)
        for s in range(3):
            assert abs(float(np.mean(draws == s)) - 1 / 3) < 0.02

    def test_n_validation(self):
        design = build_topology("complete", 3)
        with pytest.raises(ValueError):
            sample_comparisons(design, 0, 0)

    @pytest.mark.parametrize("design", list(_draw_designs()))
    def test_draws_equal_generator_choice(self, design):
        """Draw for draw, and in the generator state they leave, the draws
        are those of Generator.choice with the design's weights."""
        weights = design.edge_arrays[2]
        for seed in range(20):
            n = 1 + seed * 157
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_comparisons(design, n, ours)
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, choice_draws(weights, n, theirs))
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("weights", [
        [1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0, 0.3, 0.0, 0.7, 0.0, 0.0],
        np.full(7, 1 / 7), np.random.default_rng(4).pareto(1.0, 3000)])
    def test_guide_search_at_bucket_and_cdf_edges(self, weights):
        """u at every bucket edge b/k of the table the search builds, at
        every cdf value and at both its float neighbours."""
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        k = 1 << (2 * len(cdf)).bit_length()
        n = k - len(cdf)  # the search sizes its table to n + len(cdf): k
        u = np.concatenate([np.arange(k) / k, cdf, np.nextafter(cdf, 0.0),
                            np.nextafter(cdf, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        pad = np.random.default_rng(0).random(-len(u) % n)
        for chunk in np.concatenate([u, pad]).reshape(-1, n):
            np.testing.assert_array_equal(_search_cdf(cdf, chunk),
                                          np.searchsorted(cdf, chunk, side="right"))

    def test_even_allocation(self):
        alloc = even_allocation(3, 7)
        np.testing.assert_array_equal(alloc, [0, 1, 2, 0, 1, 2, 0])

    @pytest.mark.parametrize("num_entries", [0, -2])
    def test_even_allocation_needs_an_entry(self, num_entries):
        """No entries used to give zeros after a divide-by-zero warning."""
        with pytest.raises(ValueError, match="need num_entries >= 1"):
            even_allocation(num_entries, 5)


class TestSampleOutcomes:
    def test_zero_vector_is_fair_coin(self):
        design = build_topology("complete", 4)
        link = make_link("btl", 1.0)
        n = 40000
        comps = sample_comparisons(design, n, 0)
        batch = sample_outcomes(link, np.zeros(4), design, comps, 1)
        rate = float(np.mean(batch.outcomes == 1))
        assert abs(rate - 0.5) < 3 * 0.5 / math.sqrt(n)

    def test_d2_btl_win_rate(self):
        """Win rate of the strong item approaches F(2B/sigma)."""
        design = ComparisonDesign(2, ((0, 1, 1.0),))
        link = make_link("btl", 1.0)
        n = 50000
        comps = sample_comparisons(design, n, 0)
        w = QualityVector(np.array([1.0, -1.0]), 1.0)
        batch = sample_outcomes(link, w, design, comps, 2)
        target = float(expit(2.0))
        rate = float(np.mean(batch.outcomes == 1))
        assert abs(rate - target) < 3 * math.sqrt(target * (1 - target) / n)

    def test_ordinal_outcomes_are_signs(self):
        design = build_topology("star", 5)
        link = make_link("thurstone", 2.0)
        comps = sample_comparisons(design, 500, 1)
        batch = sample_outcomes(link, np.zeros(5), design, comps, 1)
        assert batch.kind == "ordinal_pair"
        assert set(np.unique(batch.outcomes)) <= {-1, 1}

    @pytest.mark.parametrize("family", ["thurstone", "btl", "custom"])
    def test_ordinal_outcomes_equal_per_sample_formula(self, family):
        """Win probabilities taken per edge give the outcomes, and leave the
        generator, exactly as the per-sample formula does."""
        link = make_link(family if family != "custom"
                         else lambda x: 0.5 + np.arctan(x) / np.pi, 0.7)
        for kind, d in (("complete", 16), ("star", 64), ("barbell", 16), ("path", 9)):
            design = build_topology(kind, d)
            for seed in range(5):
                w = gen_quality("gaussian", d, 1.3, seed)
                comps = sample_comparisons(design, 2000, seed)
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                batch = sample_outcomes(link, w, design, comps, ours)
                np.testing.assert_array_equal(
                    batch.outcomes,
                    ordinal_outcomes_per_sample(link, w.values, design, comps, theirs))
                assert ours.random() == theirs.random()

    def test_mwise_winner_distribution(self):
        hyper = HyperDesign(3, 3, ((0, 1, 2),))
        pl = plackett_luce(3)
        w = QualityVector(np.array([1.0, 0.0, -1.0]), 1.0)
        n = 60000
        comps = sample_comparisons(hyper, n, 0)
        batch = sample_outcomes(pl, w, hyper, comps, 3)
        assert set(np.unique(batch.outcomes)) <= {0, 1, 2}
        expected = np.exp(w.values) / np.sum(np.exp(w.values))
        for pos in range(3):
            rate = float(np.mean(batch.outcomes == pos))
            assert abs(rate - expected[pos]) < 3 * math.sqrt(expected[pos] / n)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_mwise_winners_equal_row_major_reference(self, m):
        """Column-major sampling gives each sample the winner, and leaves the
        generator, exactly as probabilities taken row by row do."""
        hyper, link = complete_hyper(8, m), plackett_luce(m, 1.3)
        for n in (1, 7, 3000):
            for seed in range(3):
                w = gen_quality("gaussian", 8, 1.3, seed)
                comps = sample_comparisons(hyper, n, seed)
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                batch = sample_outcomes(link, w, hyper, comps, ours)
                assert batch.outcomes.shape == (n,)
                np.testing.assert_array_equal(
                    batch.outcomes,
                    mwise_winners_row_major(link, w.values, hyper, comps, theirs))
                assert ours.random() == theirs.random()

    def test_cardinal_item_noiseless(self):
        w = QualityVector(np.array([0.4, -0.1, -0.3]), 0.4)
        items = even_allocation(3, 9)
        batch = sample_outcomes(CardinalModel("item", 0.0), w, None, items, 0)
        np.testing.assert_array_equal(batch.outcomes, w.values[items])

    def test_cardinal_pair_noiseless(self):
        design = ComparisonDesign(2, ((0, 1, 1.0),))
        w = QualityVector(np.array([0.7, -0.7]), 0.7)
        batch = sample_outcomes(CardinalModel("pair", 0.0), w, design,
                                np.zeros(4, dtype=np.intp), 0)
        np.testing.assert_allclose(batch.outcomes, 1.4)

    def test_model_design_mismatch(self):
        design = build_topology("complete", 4)
        hyper = HyperDesign(4, 3, ((0, 1, 2), (1, 2, 3)))
        comps = np.zeros(5, dtype=np.intp)
        with pytest.raises(ValueError):
            sample_outcomes(make_link("btl", 1.0), np.zeros(4), hyper, comps, 0)
        with pytest.raises(ValueError):
            sample_outcomes(plackett_luce(3), np.zeros(4), design, comps, 0)
        with pytest.raises(ValueError):
            sample_outcomes(plackett_luce(2), np.zeros(4), hyper, comps, 0)

    def test_bitwise_determinism(self):
        design = build_topology("cycle", 6)
        link = make_link("thurstone", 1.0)
        w = gen_quality("gaussian", 6, 1.0, 0)
        comps = sample_comparisons(design, 2000, 5)
        one = sample_outcomes(link, w, design, comps, 9)
        two = sample_outcomes(link, w, design, comps, 9)
        np.testing.assert_array_equal(one.outcomes, two.outcomes)

    def test_generator_chaining_reproducible(self):
        """A single Generator drives w, comparisons and outcomes in order."""
        design = build_topology("complete", 5)
        link = make_link("btl", 1.0)

        def chain():
            rng = np.random.default_rng(1234)
            w = gen_quality("uniform", 5, 1.0, rng)
            comps = sample_comparisons(design, 300, rng)
            return sample_outcomes(link, w, design, comps, rng)

        a, b = chain(), chain()
        np.testing.assert_array_equal(a.entry_indices, b.entry_indices)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)


class TestBatchSerialization:
    def test_batch_validation(self):
        with pytest.raises(ValueError):
            ObservationBatch("bogus", np.zeros(2, dtype=np.intp), np.array([1, -1]))
        with pytest.raises(ValueError, match="equal length"):
            ObservationBatch("ordinal_pair", np.zeros(3, dtype=np.intp), np.array([1, -1]))
        assert ObservationBatch("mwise", np.zeros(3, dtype=np.intp), np.zeros(3)).n == 3
        for bad in (0, 2, -2):  # only +-1 enter the ordinal likelihood
            with pytest.raises(ValueError, match="ordinal outcomes"):
                ObservationBatch("ordinal_pair", np.zeros(2, dtype=np.intp),
                                 np.array([1, bad]))
