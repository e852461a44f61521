"""Tests for comparison-graph construction and spectral analysis."""

import itertools
import json
import math
import pickle
import re

import numpy as np
import pytest
import scipy.linalg

from ranktopo import graph
from ranktopo.cli import main
from ranktopo.estimate import (design_digest, error_metrics, ls_paired_cardinal, mle_mwise,
                               mle_ordinal)
from ranktopo.graph import (
    PAIRWISE_KINDS,
    ComparisonDesign,
    HyperDesign,
    build_topology,
    complete_hyper,
    design_from_json,
    _laplacian,
    hypergraph_laplacian,
    lower_bound_statistic,
    optimality_report,
    spectrum,
)
from ranktopo.models import make_link, plackett_luce
from ranktopo.synth import CardinalModel, gen_quality, sample_comparisons, sample_outcomes

from oracles import (
    closed_form_spectrum,
    laplacian_four_entry,
    lower_bound_statistic_loop,
    measurement_matrix,
    unweighted_edge_arrays,
)

# (kind, smallest valid d >= 4, a larger valid d)
TOPOLOGY_CASES = [
    ("complete", 4, 12),
    ("star", 4, 12),
    ("path", 4, 12),
    ("cycle", 4, 12),
    ("barbell", 4, 12),
    ("complete_bipartite", 4, 12),
    ("lattice2d", 4, 12),
    ("hypercube", 4, 16),
    ("expander", 4, 25),
]

# Every d up to 129 and three powers of two: each kind meets every size it builds at.
BUILD_SWEEP = [*range(2, 130), 256, 512, 1024]

# The Margulis-Gabber-Galil expander has no closed-form spectrum, so its
# algebraic connectivity is pinned after a cross-solver computation.
EXPANDER_LAMBDA2 = {4: 0.5, 9: 0.1414353635223338, 25: 0.03343268884465986,
                    49: 0.013231752043790146}


def _split(kind, d):
    if kind == "complete_bipartite":
        return d - d // 2, d // 2
    if kind == "lattice2d":
        for m1 in range(int(math.isqrt(d)), 1, -1):
            if d % m1 == 0 and d // m1 >= 2:
                return m1, d // m1
    return None, None


# Every inline split with d <= 36: m1 + m2 = d for the bipartite graph, m1 * m2 = d
# with both sides >= 2 for the lattice.
INLINE_SPLITS = {d: [("complete_bipartite", m1, d - m1) for m1 in range(1, d)]
                 + [("lattice2d", m1, d // m1) for m1 in range(2, d // 2 + 1) if d % m1 == 0]
                 for d in range(2, 37)}


class TestTopologySpectra:
    @pytest.mark.parametrize("kind,d_small,d_large", TOPOLOGY_CASES)
    def test_closed_form_match(self, kind, d_small, d_large):
        """Numeric eigensolve agrees with the closed-form catalog to 1e-8."""
        for d in (d_small, d_large):
            design = build_topology(kind, d)
            summary = spectrum(design)
            m1, m2 = _split(kind, d)
            reference = closed_form_spectrum(kind, d, m1, m2)
            if reference is None:
                np.testing.assert_allclose(
                    summary.lambda2, EXPANDER_LAMBDA2[d], rtol=0, atol=1e-10)
                continue
            np.testing.assert_allclose(summary.eigenvalues, reference,
                                       rtol=0, atol=1e-8)

    def test_complete_d4_spectrum(self):
        summary = spectrum(build_topology("complete", 4))
        np.testing.assert_allclose(summary.eigenvalues, [0, 2 / 3, 2 / 3, 2 / 3],
                                   atol=1e-12)
        assert abs(summary.trace_pinv - 4.5) < 1e-10

    def test_star_d4_spectrum(self):
        summary = spectrum(build_topology("star", 4))
        np.testing.assert_allclose(summary.eigenvalues, [0, 1 / 3, 1 / 3, 4 / 3],
                                   atol=1e-12)

    def test_cycle_d4_spectrum(self):
        summary = spectrum(build_topology("cycle", 4))
        np.testing.assert_allclose(summary.eigenvalues, [0, 0.5, 0.5, 1.0],
                                   atol=1e-12)

    def test_hypercube_d8_lambda2(self):
        assert abs(spectrum(build_topology("hypercube", 8)).lambda2 - 1 / 6) < 1e-12

    def test_bipartite_2_2_spectrum(self):
        summary = spectrum(build_topology("complete_bipartite(2,2)", 4))
        np.testing.assert_allclose(summary.eigenvalues, [0, 0.5, 0.5, 1.0],
                                   atol=1e-12)

    def test_expander_cross_solver(self):
        """numpy and scipy eigensolvers agree on the expander spectrum."""
        for d in (9, 25):
            design = build_topology("expander", d)
            ours = spectrum(design).eigenvalues
            theirs = np.sort(scipy.linalg.eigh(design.laplacian, eigvals_only=True))
            theirs[np.abs(theirs) < 1e-12] = 0.0
            np.testing.assert_allclose(ours, theirs, atol=1e-10)

    def test_kind_string_parsing(self):
        design = build_topology("complete_bipartite(3,5)", 8)
        assert design.kind == "complete_bipartite(3,5)"
        summary = spectrum(design)
        np.testing.assert_allclose(
            summary.eigenvalues, closed_form_spectrum("complete_bipartite", 8, 3, 5),
            atol=1e-10)

    @pytest.mark.parametrize("d", sorted(INLINE_SPLITS))
    def test_every_inline_split(self, d):
        """An inline split is built as named, with its closed-form spectrum,
        which is also the spectrum of its Laplacian."""
        for name, m1, m2 in INLINE_SPLITS[d]:
            kind = f"{name}({m1},{m2})"
            design = build_topology(kind, d)
            assert design.kind == kind
            eigenvalues = spectrum(design).eigenvalues
            np.testing.assert_allclose(eigenvalues, closed_form_spectrum(name, d, m1, m2),
                                       rtol=0, atol=1e-10, err_msg=kind)
            np.testing.assert_allclose(eigenvalues, np.linalg.eigvalsh(design.laplacian),
                                       rtol=0, atol=1e-10, err_msg=kind)

    @pytest.mark.parametrize("kind,d", [
        ("hypercube", 6), ("barbell", 7), ("expander", 16), ("expander", 10),
        ("lattice2d", 7), ("complete", 1), ("unknown_kind", 4),
    ])
    def test_dimension_errors(self, kind, d):
        with pytest.raises(ValueError):
            build_topology(kind, d)


class TestDesignInvariants:
    def _valid_dims(self, kind):
        dims = []
        for d in range(4, 65):
            try:
                build_topology(kind, d)
            except ValueError:
                continue
            dims.append(d)
        return dims

    @pytest.mark.parametrize("kind", [c[0] for c in TOPOLOGY_CASES])
    def test_trace_psd_nullspace(self, kind):
        """trace(L) = 2, PSD, ones-nullspace and tr(L+) >= d^2/4 throughout."""
        dims = self._valid_dims(kind)
        assert dims, f"no valid dimensions for {kind}"
        for d in dims[:: max(len(dims) // 8, 1)]:
            design = build_topology(kind, d)
            lap = design.laplacian
            assert abs(np.trace(lap) - 2.0) < 1e-9
            summary = spectrum(design)
            assert np.all(summary.eigenvalues >= 0)
            assert np.linalg.norm(lap @ np.ones(d)) < 1e-9
            assert design.connected
            assert summary.lambda2 > 0
            assert summary.trace_pinv >= d * d / 4 - 1e-9

    def test_weights_sum_to_one(self):
        for kind, d, _ in TOPOLOGY_CASES:
            design = build_topology(kind, d)
            assert abs(sum(w for _, _, w in design.edges) - 1.0) < 1e-12
            assert all(w >= 0 for _, _, w in design.edges)

    def test_large_uniform_designs_build(self, capsys):
        """A running float sum of the equal weights drifts past the 1e-12
        weight-sum tolerance at these sizes; the check must not."""
        for d in range(275, 401):
            assert build_topology("complete", d).d == d
        for d in range(416, 1101, 2):
            assert build_topology("barbell", d).d == d
        assert main(["spectrum", "--kind", "complete", "--d", "292"]) == 0
        assert json.loads(capsys.readouterr().out)["d"] == 292

    @pytest.mark.parametrize("build", ["rows", "arrays"])
    def test_weight_sum_tolerance(self, build):
        """Sums 2e-12 off one are rejected, 5e-13 off accepted (tolerance 1e-12)."""
        def make(excess):
            w = np.array([0.25, 0.75 + excess])
            if build == "rows":
                return ComparisonDesign(3, np.column_stack([[0, 1], [1, 2], w]))
            return ComparisonDesign.from_arrays(3, [0, 1], [1, 2], w)
        assert make(5e-13).d == 3
        with pytest.raises(ValueError, match="edge weights sum to 1.000000000002"):
            make(2e-12)

    def test_connectivity_flag_matches_lambda2(self):
        two_cliques = ComparisonDesign(
            4, ((0, 1, 0.5), (2, 3, 0.5)), "disconnected")
        assert not two_cliques.connected
        assert spectrum(two_cliques).lambda2 == 0.0

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="need at least 2 items, got d=1"):
            ComparisonDesign(1, ((0, 0, 1.0),))
        with pytest.raises(ValueError, match="edge weights sum to 0.5, expected 1"):
            ComparisonDesign(2, ((0, 1, 0.5),))

    @pytest.mark.parametrize("edges,message", [
        pytest.param(edges, message, id=f"edges{i}") for i, (edges, message) in enumerate([
            (((0, 1, 0.5), (0, 2, math.nan), (1, 2, math.nan)),
             "non-finite edge (0.0, 2.0, nan)"),
            (((0, 1, math.inf), (0, 1, -math.inf)), "non-finite edge (0.0, 1.0, inf)"),
            (((0, 1, 0.5), (0.5, 1, 0.25), (1.5, 2, 0.25)),
             "non-integer item index in edge (0.5, 1.0, 0.25)"),
            (((0, math.nan, 1.0),), "non-finite edge (0.0, nan, 1.0)"),
            (((0, 1),), "edges must be (j, k, w) rows, got shape (1, 2)"),
            ((), "design has no edges"),
            (((0, 1, 0.5), (0, 3, 0.25), (4, 1, 0.25)), "out of range for d=3: edge (0.0, 3.0, 0.25)"),
            (((0, 1, 0.5), (-1, 1, 0.25), (0, 4, 0.25)),
             "out of range for d=3: edge (-1.0, 1.0, 0.25)"),
            (((0, 1, 0.5), (2, 2, 0.25), (1, 1, 0.25)),
             "self-comparison is not a valid edge (2.0, 2.0, 0.25)"),
            (((0, 1, 2.0), (0, 2, -0.5), (1, 2, -0.5)), "negative weight in edge (0.0, 2.0, -0.5)"),
        ])
    ])
    def test_malformed_edges_rejected(self, edges, message):
        """Each check names the first row that fails it."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ComparisonDesign(3, edges)
        rows = np.asarray(edges, dtype=float)
        if rows.ndim == 2 and rows.shape[1] == 3 and np.all(rows[:, :2] % 1 == 0):
            j, k, w = rows.T
            with pytest.raises(ValueError, match=re.escape(message)):
                ComparisonDesign.from_arrays(3, j.astype(int), k.astype(int), w)

    @pytest.mark.parametrize("j,k,w,message", [
        ([0, 1.0], [1, 2], [0.5, 0.5], "item indices must be integers, got dtype float64"),
        ([0, 1], [1.5, 2.0], [0.5, 0.5], "item indices must be integers, got dtype float64"),
        ([0, 1], [1, 2], [1.0], "1-D and of equal length, got shapes (2,), (2,), (1,)"),
        ([0], [1, 2], [0.5, 0.5], "1-D and of equal length, got shapes (1,), (2,), (2,)"),
        ([[0, 1]], [[1, 2]], [[0.5, 0.5]], "1-D and of equal length, got shapes (1, 2)"),
        ([], [], [], "design has no edges"),
        ([0, 2], [1, 3], [0.5, 0.5], "out of range for d=3: edge (2.0, 3.0, 0.5)"),
    ])
    def test_from_arrays_rejects_malformed(self, j, k, w, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ComparisonDesign.from_arrays(3, np.array(j), np.array(k), np.array(w))

    def test_from_arrays_copies_and_matches_rows(self):
        j, k = np.array([0, 1], dtype=np.int32), np.array([1, 2], dtype=np.uint8)
        w = np.array([0.25, 0.75])
        design = ComparisonDesign.from_arrays(3, j, k, w, "path3")
        assert design == ComparisonDesign(3, ((0, 1, 0.25), (1, 2, 0.75)), "path3")
        j[0], w[0] = 2, 0.5
        assert design.edges == ((0, 1, 0.25), (1, 2, 0.75))
        assert [a.dtype for a in design.edge_arrays] == [np.intp, np.intp, np.float64]
        assert not any(a.flags.writeable for a in design.edge_arrays)

    def test_json_nan_weight_rejected(self):
        with pytest.raises(ValueError):
            design_from_json('{"d": 2, "kind": "custom", "edges": [[0, 1, NaN]]}')

    def test_array_edges_equal_tuple_edges(self):
        rows = ((0, 1, 0.25), (1, 2, 0.75))
        design = ComparisonDesign(3, np.array(rows))
        assert design == ComparisonDesign(3, rows)
        assert design.edges == rows
        assert all(type(j) is int and type(k) is int for j, k, _ in design.edges)
        j, k, w = design.edge_arrays
        assert j.dtype == k.dtype == np.intp and w.dtype == float
        assert not any(a.flags.writeable for a in design.edge_arrays)


class TestClosedFormSpectra:
    """build_topology's closed forms against eigvalsh of the built Laplacian."""

    @pytest.mark.parametrize("kind", [k for k in PAIRWISE_KINDS if k != "expander"])
    def test_agree_with_eigvalsh(self, kind):
        checked = 0
        for d in BUILD_SWEEP:
            try:
                design = build_topology(kind, d)
            except ValueError:
                continue
            closed = spectrum(design)
            dense = spectrum(ComparisonDesign.from_arrays(d, *design.edge_arrays))
            lam_max = closed.eigenvalues[-1]
            np.testing.assert_allclose(closed.eigenvalues, np.linalg.eigvalsh(design.laplacian),
                                       rtol=0, atol=1e-12 * lam_max)
            # eigvalsh's error is absolute, so its relative error on quantities
            # led by small eigenvalues grows as lambda_max / lambda_2
            rel = 1e-12 * lam_max / closed.lambda2
            for got, want in ((closed.lambda2, dense.lambda2),
                              (closed.trace_pinv, dense.trace_pinv),
                              (lower_bound_statistic(closed), lower_bound_statistic(dense))):
                assert got == pytest.approx(want, rel=rel, abs=0)
            checked += 1
        assert checked

    def test_pickled_design_keeps_its_closed_form(self, monkeypatch):
        design = pickle.loads(pickle.dumps(build_topology("lattice2d", 12)))

        def no_eig(*args, **kwargs):
            raise AssertionError("a canonical kind must not run an eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eig)
        np.testing.assert_allclose(spectrum(design).eigenvalues,
                                   closed_form_spectrum("lattice2d", 12, 3, 4),
                                   rtol=0, atol=1e-15)


def pseudo_inverse(summary) -> np.ndarray:
    """L^dagger = U^T diag(pinv_diag) U from the summary's eigensystem."""
    u = summary.eigenvectors
    return u.T @ np.diag(summary.pinv_diag) @ u


class TestSpectralSummary:
    def test_reconstruction(self):
        for kind in ("complete", "path", "barbell"):
            design = build_topology(kind, 8)
            summary = spectrum(design)
            u = summary.eigenvectors
            err = np.linalg.norm(u.T @ np.diag(summary.eigenvalues) @ u - design.laplacian,
                                 "fro")
            assert err < 1e-8

    def test_laplacians_are_read_only(self):
        """A write into a design's Laplacian raises, so its cached spectrum stays true."""
        designs = (build_topology("path", 6), HyperDesign(4, 3, ((0, 1, 2), (1, 2, 3))))
        for design in designs:
            spectrum(design)
            with pytest.raises(ValueError):
                design.laplacian[0, 0] = 5.0
            summary = spectrum(design)
            u = summary.eigenvectors
            np.testing.assert_allclose(u.T @ np.diag(summary.eigenvalues) @ u,
                                       design.laplacian, rtol=0, atol=1e-12)

    def test_zero_clamping(self):
        summary = spectrum(build_topology("complete", 6))
        assert summary.eigenvalues[0] == 0.0
        assert summary.pinv_diag[0] == 0.0

    def test_pinv_identity_on_range(self):
        design = build_topology("star", 6)
        summary = spectrum(design)
        product = pseudo_inverse(summary) @ design.laplacian
        centering = np.eye(6) - np.ones((6, 6)) / 6
        np.testing.assert_allclose(product, centering, atol=1e-10)


class TestSeminorm:
    """The squared Laplacian semi-norm, as ``error_metrics`` reports it."""

    def test_zero_cases(self):
        design = build_topology("complete", 5)
        u = np.arange(5.0)
        assert error_metrics(u, u, design).sq_lap == 0.0
        assert error_metrics(u + 1.0, u, design).sq_lap < 1e-24

    def test_single_edge_value(self):
        design = ComparisonDesign(2, ((0, 1, 1.0),), "single")
        value = error_metrics(np.array([0.2, 0.0]), np.zeros(2), design).sq_lap
        assert abs(math.sqrt(value) - 0.2) < 1e-12

    def test_length_mismatch(self):
        design = build_topology("complete", 4)
        with pytest.raises(ValueError):
            error_metrics(np.zeros(3), np.zeros(4), design)

    def test_matches_direct_quadratic_form(self):
        design = build_topology("path", 7)
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.standard_normal(7)
            v = rng.standard_normal(7)
            direct = math.sqrt((u - v) @ design.laplacian @ (u - v))
            value = math.sqrt(error_metrics(u, v, design).sq_lap)
            assert abs(value - direct) < 1e-10


class TestHypergraph:
    def test_m2_reduces_to_pairwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(3, 9))
            n_sub = int(rng.integers(d, 3 * d))
            subsets = []
            for _ in range(n_sub):
                pair = rng.choice(d, size=2, replace=False)
                subsets.append(tuple(int(v) for v in pair))
            hyper = HyperDesign(d, 2, tuple(subsets))
            from collections import Counter
            counts = Counter((min(s), max(s)) for s in subsets)
            edges = tuple((j, k, c / n_sub) for (j, k), c in sorted(counts.items()))
            pairwise = ComparisonDesign(d, edges)
            np.testing.assert_allclose(hyper.laplacian, pairwise.laplacian,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_trace(self, m):
        import itertools
        hyper = HyperDesign(6, m, tuple(itertools.combinations(range(6), m)))
        assert abs(np.trace(hyper.laplacian) - m * (m - 1)) < 1e-9

    def test_single_full_subset(self):
        hyper = HyperDesign(3, 3, ((0, 1, 2),))
        expected = 3 * np.eye(3) - np.ones((3, 3))
        np.testing.assert_allclose(hypergraph_laplacian(hyper), expected, atol=1e-12)

    def test_nullspace_and_connectivity(self):
        hyper = HyperDesign(6, 3, ((0, 1, 2), (2, 3, 4), (3, 4, 5)))
        assert hyper.connected
        summary = spectrum(hyper)
        assert summary.lambda2 > 0
        assert np.linalg.norm(hyper.laplacian @ np.ones(6)) < 1e-12
        split = HyperDesign(6, 3, ((0, 1, 2), (3, 4, 5)))
        assert not split.connected
        assert spectrum(split).lambda2 == 0.0

    @pytest.mark.parametrize("d, m", [(12, 4), (8, 3), (6, 2)])
    def test_complete_hyper_closed_form(self, d, m):
        """lambda = d C(d-2, m-2) / C(d, m), d-1 times, with no eigensolve."""
        hyper = complete_hyper(d, m)
        closed = spectrum(hyper).eigenvalues
        lam = d * math.comb(d - 2, m - 2) / math.comb(d, m)
        np.testing.assert_allclose(closed, np.linalg.eigvalsh(hyper.laplacian),
                                   rtol=0, atol=1e-12 * lam)
        assert closed[0] == 0.0 and np.all(closed[1:] == lam)
        assert hyper == HyperDesign(d, m, tuple(itertools.combinations(range(d), m)))
        if (d, m) == (12, 4):
            assert lam == pytest.approx(1.0909090909090908, rel=1e-15)

    HYPER_READERS = {
        "subsets": lambda hyper: hyper.subsets,
        "laplacian": lambda hyper: hyper.laplacian,
        "connected": lambda hyper: hyper.connected,
        "hash": hash,
        "eq": lambda hyper: hyper == hyper,
        "pickle": lambda hyper: pickle.loads(pickle.dumps(hyper)),
    }

    def test_complete_hyper_builds_subsets_on_first_read(self, monkeypatch, capsys):
        """bounds --theorem T4_* at d=60, m=5 (5.5e6 subsets, 218 MB) runs with
        any subset build raising; whichever reader comes first later, every
        reader sees the eager design."""
        def no_subsets(*args):
            raise AssertionError("T4 bounds must not build subsets")

        monkeypatch.setattr(graph, "_lexicographic_subsets", no_subsets)
        for theorem in ("T4_mwise_lap", "T4_mwise_l2"):
            assert main(["bounds", "--theorem", theorem, "--kind", "complete", "--d", "60",
                         "--m", "5", "--n", "1e6"]) == 0
            assert json.loads(capsys.readouterr().out)["upper"] > 0
        monkeypatch.undo()
        with pytest.raises(ValueError, match="need 2 <= m <= d"):
            complete_hyper(3, 5)
        for d, m in ((9, 4), (7, 2)):
            eager = HyperDesign(d, m, tuple(itertools.combinations(range(d), m)))
            for name, read in self.HYPER_READERS.items():
                hyper = complete_hyper(d, m)
                assert "subsets" not in vars(hyper)
                first = read(hyper)
                if name == "pickle":  # pickled before any read, compared after
                    hyper = first
                assert hyper.subsets.dtype == eager.subsets.dtype
                assert hyper.subsets.tobytes() == eager.subsets.tobytes()
                assert not hyper.subsets.flags.writeable
                assert hyper == eager and hash(hyper) == hash(eager)
                assert hyper.laplacian.tobytes() == eager.laplacian.tobytes()

    @pytest.mark.parametrize("read", ["laplacian", "sample", "mle"])
    @pytest.mark.parametrize("make", [
        lambda: complete_hyper(6, 3),
        lambda: HyperDesign(6, 3, ((0, 1, 2), (2, 3, 4), (3, 4, 5), (5, 0, 3), (1, 4, 2))),
    ])
    def test_pickles_after_any_read(self, make, read):
        """Pickled after a read that keeps its column-major subsets and clique
        scatter, the copy equals the design, and samples and estimates alike."""
        link = plackett_luce(3, 1.0)
        fresh = make()
        w_star = gen_quality("uniform", 6, 1.0, 0)
        comps = sample_comparisons(fresh, 600, 1)
        batch = sample_outcomes(link, w_star, fresh, comps, 1)
        readers = {
            "laplacian": lambda hyper: hyper.laplacian,
            "sample": lambda hyper: sample_outcomes(link, w_star, hyper, comps, 1),
            "mle": lambda hyper: mle_mwise(batch, hyper, link, 1.0),
        }
        hyper = make()
        readers[read](hyper)
        copy = pickle.loads(pickle.dumps(hyper))
        for array in (copy.subsets, copy.laplacian, spectrum(copy).eigenvalues):
            assert not array.flags.writeable
        assert copy == hyper and hyper == fresh and hash(copy) == hash(fresh)
        assert copy.laplacian.tobytes() == fresh.laplacian.tobytes()
        assert readers["sample"](copy).outcomes.tobytes() == batch.outcomes.tobytes()
        got, want = (readers["mle"](h).w_hat.values for h in (copy, fresh))
        assert got.tobytes() == want.tobytes()

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            HyperDesign(4, 3, ((0, 1, 1),))
        with pytest.raises(ValueError):
            HyperDesign(4, 3, ((0, 1, 9),))
        with pytest.raises(ValueError):
            HyperDesign(4, 5, ((0, 1, 2, 3, 4),))
        # A repeated item, a negative index or a wrong length anywhere in the
        # list rejects the design, naming the offending subset where it can.
        with pytest.raises(ValueError, match=r"subset \(1, 3, 1\) is not 3 distinct items"):
            HyperDesign(4, 3, ((0, 1, 2), (1, 3, 1)))
        with pytest.raises(ValueError, match=r"subset \(0, -1, 3\) out of range for d=4"):
            HyperDesign(4, 3, ((0, 1, 2), (0, -1, 3)))
        for subsets in (((0, 1, 2), (1, 2)), ((0, 1, 2, 3),)):
            with pytest.raises(ValueError, match="subsets are not all 3 items"):
                HyperDesign(4, 3, subsets)

    def test_non_integer_indices_rejected(self):
        """Float indices are refused, not truncated to a design never written."""
        with pytest.raises(ValueError, match="item indices must be integers"):
            HyperDesign(4, 3, ((0.5, 1, 2), (1, 2, 3.9)))
        with pytest.raises(ValueError, match="item indices must be integers"):
            HyperDesign(4, 3, np.array([[0.0, 1.0, 2.0]]))

    def test_tuple_list_and_array_inputs_agree(self):
        rows = ((0, 1, 2), (1, 2, 3), (0, 1, 2))
        source = np.array(rows, dtype=np.int32)
        designs = [HyperDesign(4, 3, rows), HyperDesign(4, 3, [list(r) for r in rows]),
                   HyperDesign(4, 3, source)]
        source[0, 0] = 3  # the design keeps its own copy
        for design in designs:
            assert design == designs[0] and hash(design) == hash(designs[0])
            assert design.subsets.dtype == np.intp
            assert design.subsets.tolist() == [list(r) for r in rows]
            assert not design.subsets.flags.writeable
        assert designs[0] != HyperDesign(4, 3, rows[:2])
        assert designs[0] != HyperDesign(5, 3, rows)


def _expander_multiset(q):
    """Margulis-Gabber-Galil incidences, self-loops dropped, one per row."""
    pairs = []
    for x in range(q):
        for y in range(q):
            for u, v in (((x + 2 * y) % q, y), ((x + 2 * y + 1) % q, y),
                         (x, (y + 2 * x) % q), (x, (y + 2 * x + 1) % q)):
                if x * q + y != u * q + v:
                    pairs.append((x * q + y, u * q + v))
    return np.array(pairs)


class TestSharedBuilders:
    @pytest.mark.parametrize("kind,d", [(c[0], c[2]) for c in TOPOLOGY_CASES])
    def test_laplacian_matches_dense_oracle(self, kind, d):
        """L = X^T diag(w) X with one differencing row per design edge."""
        design = build_topology(kind, d)
        x = measurement_matrix(design)
        w = np.array([e[2] for e in design.edges])
        np.testing.assert_allclose(design.laplacian, x.T @ (w[:, None] * x),
                                   rtol=0, atol=1e-15)

    def test_expander_multi_edges_accumulate(self):
        """Repeated pairs add up: X^T X / n over the raw incidence multiset."""
        pairs = _expander_multiset(5)
        n = len(pairs)
        assert len(np.unique(np.sort(pairs, axis=1), axis=0)) < n  # multi-edges
        x = np.zeros((n, 25))
        x[np.arange(n), pairs[:, 0]] = 1.0
        x[np.arange(n), pairs[:, 1]] = -1.0
        oracle = x.T @ x / n
        direct = _laplacian(25, pairs[:, 0], pairs[:, 1])(np.full(n, 1.0 / n))
        np.testing.assert_allclose(direct, oracle, rtol=0, atol=1e-15)
        np.testing.assert_allclose(build_topology("expander", 25).laplacian, oracle,
                                   rtol=0, atol=1e-15)

    def test_hyper_laplacian_matches_per_subset_formula(self):
        """Average of E_i (m I - 11^T) E_i^T over a repeated, non-complete multiset."""
        d, m = 7, 3
        subsets = ((0, 1, 2), (2, 3, 4), (0, 1, 2), (4, 6, 5), (6, 0, 3), (2, 3, 4))
        expected = np.zeros((d, d))
        for subset in subsets:
            sel = np.zeros((d, m))
            sel[list(subset), range(m)] = 1.0
            expected += sel @ (m * np.eye(m) - np.ones((m, m))) @ sel.T
        expected /= len(subsets)
        np.testing.assert_allclose(hypergraph_laplacian(HyperDesign(d, m, subsets)),
                                   expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", PAIRWISE_KINDS)
    def test_build_matches_float_row_oracle(self, kind, monkeypatch):
        """Edge arrays (values and dtypes) and Laplacian bytes equal those of
        the float-row route, on the edge multiset each kind generates."""
        multisets = []
        unweighted = graph._unweighted

        def spy(d, j, k):
            multisets.append((j, k))
            return unweighted(d, j, k)

        monkeypatch.setattr(graph, "_unweighted", spy)
        built = 0
        for d in BUILD_SWEEP:
            try:
                design = build_topology(kind, d)
            except ValueError:
                continue
            edge_arrays = design.edge_arrays  # a canonical kind merges its multiset here
            want = unweighted_edge_arrays(d, *multisets.pop())
            for got, ref in zip(edge_arrays, want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert design.laplacian.tobytes() == laplacian_four_entry(d, *want).tobytes()
            built += 1
        assert built

    def test_laplacian_bit_equal_on_repeated_pairs(self):
        """Entries sum their terms in edge order, repeats and zero weights included."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            d, num = int(rng.integers(2, 30)), int(rng.integers(1, 200))
            j = rng.integers(0, d, size=num)
            k = (j + rng.integers(1, d, size=num)) % d
            w = rng.random(num) * (rng.random(num) < 0.9)
            assert _laplacian(d, j, k)(w).tobytes() == laplacian_four_entry(d, j, k, w).tobytes()

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_hyper_laplacian_bit_equal(self, m):
        rng = np.random.default_rng(m)
        d = 9
        subsets = tuple(tuple(int(v) for v in rng.choice(d, size=m, replace=False))
                        for _ in range(40))
        pairs = np.array([p for s in subsets for p in itertools.combinations(s, 2)])
        want = laplacian_four_entry(d, pairs[:, 0], pairs[:, 1], np.ones(len(pairs)))
        got = hypergraph_laplacian(HyperDesign(d, m, subsets))
        assert got.tobytes() == (want / len(subsets)).tobytes()

    def test_connectivity_agrees_with_lambda2(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(300):
            d = int(rng.integers(2, 40))
            num = int(rng.integers(1, 2 * d))
            j = rng.integers(0, d, size=num)
            k = (j + rng.integers(1, d, size=num)) % d
            design = ComparisonDesign(d, np.column_stack([j, k, np.full(num, 1.0 / num)]))
            connected = spectrum(design).lambda2 > 0
            assert design.connected == connected
            seen.add(connected)
            subsets = tuple(tuple(int(v) for v in rng.choice(d, size=2, replace=False))
                            for _ in range(num))
            hyper = HyperDesign(d, 2, subsets)
            assert hyper.connected == (spectrum(hyper).lambda2 > 0)
        assert seen == {True, False}

    def test_connectivity_of_long_relabelled_paths(self):
        """A path under a random labelling joins up; cutting one edge splits it."""
        rng = np.random.default_rng(6)
        for d in (2, 3, 50, 1000):
            order = rng.permutation(d)
            j, k = order[:-1], order[1:]
            path = ComparisonDesign(d, np.column_stack([j, k, np.full(d - 1, 1.0 / (d - 1))]))
            assert path.connected
            if d > 2:
                cut = int(rng.integers(0, d - 1))
                keep = np.arange(d - 1) != cut
                split = ComparisonDesign(d, np.column_stack(
                    [j[keep], k[keep], np.full(d - 2, 1.0 / (d - 2))]))
                assert not split.connected


class TestLazyEdges:
    """A canonical kind builds its edge arrays on first read, and no reader
    can tell: whichever reads first, every reader sees the eager design."""

    READERS = {
        "edge_arrays": lambda design: design.edge_arrays,
        "laplacian": lambda design: design.laplacian,
        "edges": lambda design: design.edges,
        "connected": lambda design: design.connected,
        "hash": hash,
        "eq": lambda design: design == design,
        "pickle": lambda design: pickle.loads(pickle.dumps(design)),
    }

    @pytest.mark.parametrize("kind", [k for k in PAIRWISE_KINDS if k != "expander"])
    def test_every_reader_sees_the_eager_design(self, kind):
        built = 0
        for d in BUILD_SWEEP:
            try:
                probe = build_topology(kind, d)
            except ValueError:
                continue
            assert "edge_arrays" not in vars(probe)
            eager = ComparisonDesign.from_arrays(d, *probe.edge_arrays, kind=probe.kind)
            for name, read in self.READERS.items():
                design = build_topology(kind, d)
                first = read(design)
                if name == "pickle":  # pickled before any read, compared after
                    design = first
                for got, want in zip(design.edge_arrays, eager.edge_arrays):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    assert not got.flags.writeable
                assert design.laplacian.tobytes() == eager.laplacian.tobytes()
                assert design.edges == eager.edges
                assert design == eager and eager == design
                assert hash(design) == hash(eager)
                assert design.connected
            # the closed-form edge count scales the closed-form spectrum: trace 2
            assert spectrum(probe).eigenvalues.sum() == pytest.approx(2.0, rel=1e-12)
            if d <= 64:
                assert build_topology(kind, d).to_json() == eager.to_json()
            built += 1
        assert built

    @pytest.mark.parametrize("read", ["laplacian", "spectrum", "mle", "ls_paired_cardinal"])
    @pytest.mark.parametrize("kind,d", [("cycle", 8), ("lattice2d", 12), ("expander", 25)])
    def test_pickles_after_any_read(self, kind, d, read):
        """Pickled after a read that caches on the design (its Laplacian
        scatter among them), the copy equals the design and estimates alike."""
        link = make_link("btl", 1.0)
        fresh = build_topology(kind, d)
        w_star = gen_quality("uniform", d, 1.0, 0)
        comps = sample_comparisons(fresh, 60 * d, 1)
        ordinal = sample_outcomes(link, w_star, fresh, comps, 1)
        cardinal = sample_outcomes(CardinalModel("pair", 1.0), w_star, fresh, comps, 2)
        readers = {
            "laplacian": lambda design: design.laplacian,
            "spectrum": spectrum,
            "mle": lambda design: mle_ordinal(ordinal, design, link, 1.0),
            "ls_paired_cardinal": lambda design: ls_paired_cardinal(cardinal, design),
        }
        design = build_topology(kind, d)
        readers[read](design)
        copy = pickle.loads(pickle.dumps(design))
        for array in (*copy.edge_arrays, copy.laplacian, spectrum(copy).eigenvalues):
            assert not array.flags.writeable
        assert copy == design and design == fresh and hash(copy) == hash(fresh)
        assert copy.laplacian.tobytes() == fresh.laplacian.tobytes()
        for estimator in ("mle", "ls_paired_cardinal"):
            got, want = (readers[estimator](x).w_hat.values for x in (copy, fresh))
            assert got.tobytes() == want.tobytes()

    def test_pickles_hold_no_cache(self):
        """After an MLE and every cached read, a canonical design and a
        complete hyper-design pickle as the call that made them; a summary
        loads as its loaded design's own summary."""
        link = make_link("btl", 1.0)
        design = build_topology("complete", 64)
        w_star = gen_quality("uniform", 64, 1.0, 0)
        batch = sample_outcomes(link, w_star, design, sample_comparisons(design, 4000, 1), 1)
        mle_ordinal(batch, design, link, 1.0)
        hyper = complete_hyper(8, 3)
        mwise = plackett_luce(3, 1.0)
        w_star = gen_quality("uniform", 8, 1.0, 0)
        batch = sample_outcomes(mwise, w_star, hyper, sample_comparisons(hyper, 600, 1), 1)
        mle_mwise(batch, hyper, mwise, 1.0)
        large = build_topology("complete", 256)
        assert len(large.edges) == 256 * 255 // 2
        for cached in (design, hyper, large):
            assert spectrum(cached).eigenvectors.shape == cached.laplacian.shape
            assert len(pickle.dumps(cached)) < 200
        for made in (design, hyper, large, build_topology("expander", 25),
                     HyperDesign(5, 3, ((0, 1, 2), (2, 3, 4), (4, 0, 1)))):
            summary = pickle.loads(pickle.dumps(spectrum(made)))
            assert summary is spectrum(summary.design) and summary.design == made
            assert summary.eigenvalues.tobytes() == spectrum(made).eigenvalues.tobytes()

    def test_analysis_path_builds_no_edges(self, monkeypatch, capsys):
        """design, spectrum, T1-T3 and campaign validation run at d = 2^14 for
        every canonical kind, and complete runs at d = 2^16 (2.1e9 edges),
        with any edge or Laplacian build raising."""
        from ranktopo.bounds import minimax_bounds
        from ranktopo.cli import ExperimentConfig
        from ranktopo.models import make_link, model_params

        def no_edges(*args):
            raise AssertionError("the analysis path must not build edges")

        monkeypatch.setattr(graph, "_unweighted", no_edges)
        monkeypatch.setattr(graph, "_laplacian", no_edges)
        kinds = [k for k in PAIRWISE_KINDS if k != "expander"]
        d = 1 << 14
        assert main(["design", "--d", str(d), "--n", "1e5", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert sorted(r["kind"].partition("(")[0] for r in rows) == sorted(kinds)
        params = model_params(make_link("btl", 1.0), 1.0)
        for kind in kinds:
            assert main(["spectrum", "--kind", kind, "--d", str(d)]) == 0
            assert json.loads(capsys.readouterr().out)["lambda2"] > 0
            design = build_topology(kind, d)
            for theorem in ("T1_lap", "T2_l2", "T3_paired"):
                assert minimax_bounds(theorem, design, params, 1e5).upper > 0
        ExperimentConfig(kinds=kinds, d_list=[d], n_list=[1000]).validate()
        assert main(["spectrum", "--kind", "complete", "--d", str(1 << 16)]) == 0
        assert json.loads(capsys.readouterr().out)["lambda2"] == pytest.approx(2 / ((1 << 16) - 1))
        with pytest.raises(AssertionError, match="must not build edges"):
            build_topology("path", 8).edge_arrays


class TestOptimality:
    def test_complete_d10(self):
        report = optimality_report(spectrum(build_topology("complete", 10)))
        assert abs(report.ratio_r - 0.45) < 1e-10
        assert report.classification == "optimal"

    def test_star_d10(self):
        report = optimality_report(spectrum(build_topology("star", 10)))
        assert report.classification == "optimal"

    def test_path_d10_not_optimal(self):
        report = optimality_report(spectrum(build_topology("path", 10)))
        assert abs(report.ratio_r - 9.194278) < 1e-5
        assert report.classification == "indeterminate"

    def test_path_d40_suboptimal(self):
        report = optimality_report(spectrum(build_topology("path", 40)))
        assert report.classification == "suboptimal"

    def test_lb_statistic_complete_d10(self):
        # window sums of 1/lambda over the (2/9)-flat spectrum peak at 9
        stat = lower_bound_statistic(spectrum(build_topology("complete", 10)))
        assert abs(stat - 9.0) < 1e-9

    @pytest.mark.parametrize("d", [8, 64, 512, 1024])
    def test_lb_statistic_matches_window_loop(self, d):
        """The prefix-sum windows agree with one sum per window; the sums
        associate differently, so agreement is to 1e-12 relative."""
        for kind in PAIRWISE_KINDS:
            try:
                design = build_topology(kind, d)
            except ValueError:
                continue  # kind not buildable at this d
            summary = spectrum(design)
            want = lower_bound_statistic_loop(summary.pinv_diag)
            assert lower_bound_statistic(summary) == pytest.approx(want, rel=1e-12, abs=0)

    def test_disconnected_rejected(self):
        design = ComparisonDesign(4, ((0, 1, 0.5), (2, 3, 0.5)))
        with pytest.raises(ValueError):
            optimality_report(spectrum(design))


class TestProjectionIdentity:
    @pytest.mark.parametrize("kind", ["complete", "star", "path"])
    def test_q_is_rank_deficient_projection(self, kind):
        """Q = (1/n) X L+ X^T has trace d-1, unit operator norm, fro^2 = d-1."""
        design = build_topology(kind, 8)
        x = measurement_matrix(design)
        n = x.shape[0]
        lap = x.T @ x / n
        np.testing.assert_allclose(lap, design.laplacian, atol=1e-12)
        q = x @ pseudo_inverse(spectrum(design)) @ x.T / n
        assert abs(np.trace(q) - 7.0) < 1e-8
        assert abs(np.linalg.norm(q, 2) - 1.0) < 1e-8
        assert abs(np.linalg.norm(q, "fro") ** 2 - 7.0) < 1e-8
        np.testing.assert_allclose(q @ q, q, atol=1e-8)


class TestRestrictedCauchySchwarz:
    def test_inequality_holds(self):
        """|<u, v>| <= |u|_{L+} |v|_L for u orthogonal to the ones vector."""
        design = build_topology("cycle", 9)
        summary = spectrum(design)
        lap = design.laplacian
        lap_pinv = pseudo_inverse(summary)
        rng = np.random.default_rng(99)
        for _ in range(1000):
            u = rng.standard_normal(9)
            u -= u.mean()
            v = rng.standard_normal(9)
            lhs = abs(u @ v)
            rhs = math.sqrt(u @ lap_pinv @ u) * math.sqrt(v @ lap @ v)
            assert lhs <= rhs + 1e-9


class TestSerialization:
    def test_signed_zero_weight_is_zero(self):
        """A -0.0 weight is stored as 0.0: equal designs hash, serialise and
        digest alike, so a set holds one of them."""
        for make in (lambda w: ComparisonDesign(3, [(0, 1, 1.0), (1, 2, w)]),
                     lambda w: ComparisonDesign.from_arrays(3, [0, 1], [1, 2], [1.0, w])):
            negative, positive = make(-0.0), make(0.0)
            assert negative == positive and len({negative, positive}) == 1
            assert negative.to_json() == positive.to_json()
            assert design_digest(negative) == design_digest(positive)
            assert not np.signbit(negative.edge_arrays[2]).any()

    def test_json_roundtrip(self):
        design = build_topology("barbell", 8)
        restored = design_from_json(design.to_json())
        assert restored == design
        payload = json.loads(design.to_json())
        assert set(payload) == {"d", "kind", "edges"}

    def test_spectral_csv(self):
        summary = spectrum(build_topology("complete", 4))
        lines = summary.to_csv().strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5
        assert float(lines[1].split(",")[1]) == 0.0
