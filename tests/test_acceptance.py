"""Acceptance suite: one test per acceptance criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of failing tests) and enforces the criterion's stated
runtime budget.  Monte-Carlo criteria run with fixed seeds, so every
number here is reproducible bit for bit.
"""

import collections
import itertools
import math
import time

import numpy as np

from ranktopo.bounds import fano_pipeline, gv_packing, gv_target
from ranktopo.cli import ExperimentConfig, row_seed, rows_to_csv, run_campaign
from ranktopo.estimate import (
    error_metrics,
    ls_paired_cardinal,
    mean_cardinal,
    mle_mwise,
    mle_ordinal,
    mwise_nll,
    mwise_nll_gradient,
    ordinal_nll,
    ordinal_nll_gradient,
)
from ranktopo.graph import ComparisonDesign, HyperDesign, build_topology, spectrum
from ranktopo.models import make_link, model_params, plackett_luce
from ranktopo.synth import (
    CardinalModel,
    ObservationBatch,
    even_allocation,
    gen_quality,
    sample_comparisons,
    sample_outcomes,
)

from oracles import closed_form_spectrum, exact_projection, fd_gradient

EXPANDER_LAMBDA2 = {4: 0.5, 25: 0.03343268884465986}


class _Criterion:
    """Context manager that times a criterion and prints its verdict."""

    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} "
              f"({elapsed:.1f}s / budget {self.budget_s:.0f}s)", flush=True)
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget_s}s")
        return False


def test_criterion_01_spectra():
    """Nine topologies: lambda2 vs closed form, trace, pseudo-inverse trace."""
    cases = [
        ("complete", 4, 12), ("star", 4, 12), ("path", 4, 12), ("cycle", 4, 12),
        ("barbell", 4, 12), ("complete_bipartite", 4, 12), ("lattice2d", 4, 12),
        ("hypercube", 4, 16), ("expander", 4, 25),
    ]
    with _Criterion(1, "spectra", 5.0):
        for kind, d_small, d_large in cases:
            for d in (d_small, d_large):
                design = build_topology(kind, d)
                summary = spectrum(design)
                if kind == "complete_bipartite":
                    reference = closed_form_spectrum(kind, d, d - d // 2, d // 2)
                elif kind == "lattice2d":
                    m1 = 2 if d == 4 else 3
                    reference = closed_form_spectrum(kind, d, m1, d // m1)
                else:
                    reference = closed_form_spectrum(kind, d)
                if reference is None:
                    # no closed form exists for the expander; its lambda2 is
                    # pinned after a cross-solver computation
                    assert abs(summary.lambda2 - EXPANDER_LAMBDA2[d]) < 1e-8
                else:
                    assert abs(summary.lambda2 - reference[1]) < 1e-8
                    np.testing.assert_allclose(summary.eigenvalues, reference,
                                               rtol=0, atol=1e-8)
                assert abs(np.trace(design.laplacian) - 2.0) < 1e-9
                assert summary.trace_pinv >= d * d / 4 - 1e-9


def test_criterion_02_paired_cardinal_risk():
    """Monte-Carlo ls_paired_cardinal risk matches sigma^2 tr(L+)/n to 5%."""
    with _Criterion(2, "paired cardinal risk", 30.0):
        d, n, trials = 6, 60, 5000
        design = build_topology("complete", d)
        summary = spectrum(design)
        comps = even_allocation(len(design.edges), n)
        total = 0.0
        for t in range(trials):
            rng = np.random.default_rng(row_seed(0, 1, t))
            w_star = gen_quality("uniform", d, 1.0, rng)
            batch = sample_outcomes(CardinalModel("pair", 1.0), w_star, design,
                                    comps, rng)
            est = ls_paired_cardinal(batch, design)
            total += error_metrics(est.w_hat, w_star, design).sq_l2
        target = summary.trace_pinv / n
        deviation = abs(total / trials - target) / target
        assert deviation < 0.05, f"relative deviation {deviation:.4f}"


def test_criterion_03_cardinal_location_risk():
    """Monte-Carlo mean_cardinal risk matches sigma_c^2 d/n to 3%.

    Run at d = 2, where the recentred per-item means attain the stated
    value exactly under even allocation.
    """
    with _Criterion(3, "cardinal location risk", 30.0):
        d, n, sigma_c, trials = 2, 50, 1.0, 5000
        design = build_topology("complete", d)
        items = even_allocation(d, n)
        total = 0.0
        for t in range(trials):
            rng = np.random.default_rng(row_seed(0, 0, t))
            w_star = gen_quality("uniform", d, 1.0, rng)
            batch = sample_outcomes(CardinalModel("item", sigma_c), w_star, None,
                                    items, rng)
            est = mean_cardinal(batch, d)
            total += error_metrics(est.w_hat, w_star, design).sq_l2
        target = sigma_c**2 * d / n
        deviation = abs(total / trials - target) / target
        assert deviation < 0.03, f"relative deviation {deviation:.4f}"


def test_criterion_04_error_scaling_collapse():
    """Thurstone complete-graph sweep: 1/n decay and d^2 collapse."""
    with _Criterion(4, "error scaling reproduction", 600.0):
        d_list, n_list = [5, 10, 20], [1000, 2000, 4000, 8000]
        config = ExperimentConfig(kinds=["complete"], d_list=d_list,
                                  n_list=n_list, family="thurstone", sigma=1.0,
                                  B=1.0, w_gen="uniform", trials=40,
                                  base_seed=2024)
        rows = run_campaign(config, threads=8)
        cells = collections.defaultdict(list)
        for row in rows:
            cells[(row["d"], row["n"])].append(row["sq_l2"])
        rescaled = {}
        for d in d_list:
            means = [float(np.mean(cells[(d, n)])) for n in n_list]
            slope = float(np.polyfit(np.log(n_list), np.log(means), 1)[0])
            assert abs(slope + 1.0) < 0.1, f"d={d}: log-log slope {slope:.3f}"
            for n, mean in zip(n_list, means):
                value = n * mean / d**2
                assert 0.0 < value < 9.0, f"rescaled error {value:.3f} at d={d}, n={n}"
                rescaled[(d, n)] = value
        for n in n_list:
            values = [rescaled[(d, n)] for d in d_list]
            ratio = max(values) / min(values)
            assert ratio < 2.0, f"cross-d rescaled spread {ratio:.2f} at n={n}"


def test_criterion_05_topology_ordering():
    """Complete/star versus path/barbell separation at d=16, n=4000.

    Known red: the star-versus-barbell half-separation is unattainable at
    this dimension.  The mean MLE risk of a topology tracks the trace of
    its pseudo-inverted Laplacian, and tr(barbell)/tr(star) at d=16 is
    377.6/210.9 = 1.79 < 2, so no amount of sampling or solver accuracy
    produces the required factor (measured ratio: 1.08 with the B=1 box
    active, 1.77 with B=100; the trace ratio crosses 2 near d=24).
    The check is asserted as stated rather than weakened, so the gap
    stays visible.
    """
    with _Criterion(5, "topology ordering", 300.0):
        d, n = 16, 4000
        config = ExperimentConfig(kinds=["complete", "star", "path", "barbell"],
                                  d_list=[d], n_list=[n], family="thurstone",
                                  sigma=1.0, B=1.0, w_gen="uniform", trials=40,
                                  base_seed=516)
        rows = run_campaign(config, threads=8)
        means = collections.defaultdict(list)
        for row in rows:
            means[row["topology"]].append(row["sq_l2"])
        mean = {kind: float(np.mean(vals)) for kind, vals in means.items()}
        print("  mean sq_l2: " + ", ".join(f"{k}={v:.4f}" for k, v in sorted(mean.items())),
              flush=True)
        failures = []
        for good in ("complete", "star"):
            for bad in ("path", "barbell"):
                if not mean[good] <= 0.5 * mean[bad]:
                    failures.append(
                        f"{good} ({mean[good]:.4f}) > {bad}/2 ({0.5 * mean[bad]:.4f})")
        assert not failures, "; ".join(failures)


def test_criterion_06_mle_correctness():
    """Closed forms, gradient checks and feasibility of every iterate."""
    with _Criterion(6, "MLE correctness", 10.0):
        single = ComparisonDesign(2, ((0, 1, 1.0),))
        batch = ObservationBatch("ordinal_pair", np.zeros(4, dtype=np.intp),
                                 np.array([1, 1, 1, -1]))
        btl = make_link("btl", 1.0)
        thurstone = make_link("thurstone", 1.0)
        res = mle_ordinal(batch, single, btl, 1.0)
        np.testing.assert_allclose(res.w_hat.values,
                                   [0.5 * math.log(3), -0.5 * math.log(3)],
                                   atol=1e-6)
        from scipy.special import ndtri
        res = mle_ordinal(batch, single, thurstone, 1.0)
        probit = 0.5 * float(ndtri(0.75))
        np.testing.assert_allclose(res.w_hat.values, [probit, -probit], atol=1e-6)

        # gradient versus central differences at 20 random feasible points
        design = build_topology("complete", 5)
        rng = np.random.default_rng(6)
        comps = sample_comparisons(design, 300, rng)
        for link in (btl, thurstone):
            obatch = sample_outcomes(link, gen_quality("uniform", 5, 1.0, rng),
                                     design, comps, rng)
            for _ in range(20):
                w = exact_projection(rng.uniform(-1, 1, size=5), 1.0)
                analytic = ordinal_nll_gradient(w, obatch, design, link)
                numeric = fd_gradient(lambda v: ordinal_nll(v, obatch, design, link), w)
                np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)
        pl3 = plackett_luce(3)
        hyper = HyperDesign(5, 3, tuple(itertools.combinations(range(5), 3)))
        hcomps = sample_comparisons(hyper, 300, rng)
        hbatch = sample_outcomes(pl3, gen_quality("uniform", 5, 1.0, rng), hyper,
                                 hcomps, rng)
        for _ in range(20):
            w = exact_projection(rng.uniform(-1, 1, size=5), 1.0)
            analytic = mwise_nll_gradient(w, hbatch, hyper, pl3)
            numeric = fd_gradient(lambda v: mwise_nll(v, hbatch, hyper, pl3), w)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)

        # every iterate stays inside the feasible set
        iterates = []
        mle_ordinal(obatch, design, thurstone, 1.0,
                    callback=lambda w, f: iterates.append(w.copy()))
        assert len(iterates) > 1
        for w in iterates:
            assert abs(float(np.sum(w))) < 1e-8
            assert float(np.max(np.abs(w))) <= 1.0 + 1e-8


def test_criterion_07_kl_sandwich():
    """kl_exact <= kl_upper on 1000 random feasible pairs per link."""
    with _Criterion(7, "KL sandwich", 10.0):
        from ranktopo.bounds import kl_exact, kl_upper

        design = build_topology("complete", 6)
        bound = 0.8
        rng = np.random.default_rng(7)
        for family in ("btl", "thurstone"):
            link = make_link(family, 1.0)
            params = model_params(link, bound)
            violations = 0
            for _ in range(1000):
                w1 = exact_projection(rng.uniform(-bound, bound, size=6), bound)
                w2 = exact_projection(rng.uniform(-bound, bound, size=6), bound)
                exact = kl_exact(w1, w2, design, link, 40)
                upper = kl_upper(w1, w2, design, params, 40)
                if exact > upper + 1e-12:
                    violations += 1
            assert violations == 0, f"{family}: {violations} violations"


def test_criterion_08_constructive_lower_bound():
    """The Fano pipeline bound sits below the Monte-Carlo MLE risk."""
    with _Criterion(8, "constructive lower bound", 120.0):
        design = build_topology("complete", 10)
        link = make_link("btl", 1.0)
        params = model_params(link, 1.0)
        bound = fano_pipeline(design, params, 1e4)
        assert bound > 0
        risks = []
        for t in range(200):
            rng = np.random.default_rng(row_seed(8, 0, t))
            w_star = gen_quality("uniform", 10, 1.0, rng)
            comps = sample_comparisons(design, 10_000, rng)
            batch = sample_outcomes(link, w_star, design, comps, rng)
            est = mle_ordinal(batch, design, link, 1.0)
            risks.append(error_metrics(est.w_hat, w_star, design).sq_lap)
        mc_risk = float(np.mean(risks))
        std_err = float(np.std(risks, ddof=1)) / math.sqrt(len(risks))
        assert bound <= mc_risk + 3 * std_err, (
            f"bound {bound:.3e} above MC risk {mc_risk:.3e} + 3se")


def test_criterion_09_mwise_reductions():
    """m = 2 reductions, the single-subset closed form, and traces."""
    with _Criterion(9, "m-wise reductions", 30.0):
        # hypergraph Laplacian at m=2 equals the pairwise Laplacian entrywise
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(3, 8))
            subsets = tuple(tuple(int(v) for v in rng.choice(d, 2, replace=False))
                            for _ in range(3 * d))
            hyper = HyperDesign(d, 2, subsets)
            counts = collections.Counter((min(s), max(s)) for s in subsets)
            pairwise = ComparisonDesign(
                d, tuple((j, k, c / len(subsets)) for (j, k), c in sorted(counts.items())))
            assert np.max(np.abs(hyper.laplacian - pairwise.laplacian)) < 1e-12

        # mle_mwise at m=2 matches mle_ordinal through the BTL link
        d = 5
        pairs = tuple(itertools.combinations(range(d), 2))
        hyper = HyperDesign(d, 2, pairs)
        pl2 = plackett_luce(2)
        w_star = gen_quality("uniform", d, 1.0, 11)
        comps = sample_comparisons(hyper, 1500, 12)
        mbatch = sample_outcomes(pl2, w_star, hyper, comps, 13)
        m_est = mle_mwise(mbatch, hyper, pl2, 1.0)
        design = ComparisonDesign(d, tuple((j, k, 1 / len(pairs)) for j, k in pairs))
        obatch = ObservationBatch(
            "ordinal_pair", mbatch.entry_indices,
            np.where(np.asarray(mbatch.outcomes) == 0, 1, -1))
        o_est = mle_ordinal(obatch, design, make_link("btl", 1.0), 1.0)
        np.testing.assert_allclose(m_est.w_hat.values, o_est.w_hat.values, atol=1e-6)

        # Plackett-Luce closed form on a single full subset
        triple = HyperDesign(3, 3, ((0, 1, 2),))
        counts = (7, 4, 2)
        batch = ObservationBatch("mwise", np.zeros(13, dtype=np.intp),
                                 np.repeat(np.arange(3), counts))
        est = mle_mwise(batch, triple, plackett_luce(3, B=10.0), 10.0)
        expected = np.log(np.asarray(counts, dtype=float))
        expected -= expected.mean()
        np.testing.assert_allclose(est.w_hat.values, expected, atol=1e-6)

        for m in (2, 3, 5):
            hd = HyperDesign(6, m, tuple(itertools.combinations(range(6), m)))
            assert abs(np.trace(hd.laplacian) - m * (m - 1)) < 1e-9


def test_criterion_10_packing_invariants():
    """GV packings reach their targets with exact invariants."""
    with _Criterion(10, "packing invariants", 10.0):
        packing = gv_packing(10, 0.01, seed=0)
        assert packing.M == 19 and not packing.shortfall
        z = packing.vectors.astype(int)
        assert np.all(z[:, 0] == 0)
        assert set(np.unique(z)) <= {0, 1}
        gram = z @ z.T
        sq = np.diag(gram)
        dists = sq[:, None] + sq[None, :] - 2 * gram
        off = ~np.eye(19, dtype=bool)
        assert dists[off].min() >= math.ceil(0.01 * 10)
        assert dists[off].max() <= 10

        big = gv_packing(50, 0.01, seed=1)
        assert big.target == gv_target(50, 0.01)
        assert big.M == big.target and not big.shortfall
        assert np.all(big.vectors[:, 0] == 0)
        # alpha*d <= 1 reduces the separation requirement to distinctness
        keys = {row.tobytes() for row in np.packbits(big.vectors, axis=1)}
        assert len(keys) == big.M


def test_criterion_11_determinism():
    """Same base seed, any thread count: identical sorted campaign CSV.

    The wall-clock runtime_ms column is stripped before comparison; it is
    the only field that cannot be deterministic.
    """
    with _Criterion(11, "campaign determinism", 120.0):
        config = dict(kinds=["complete", "star"], d_list=[6], n_list=[300, 600],
                      family="thurstone", sigma=1.0, B=1.0, w_gen="uniform",
                      trials=5, base_seed=99)
        outputs = []
        for threads in (1, 4, 8):
            rows = run_campaign(ExperimentConfig(**config), threads=threads)
            csv_text = rows_to_csv(rows)
            stripped = "\n".join(",".join(line.split(",")[:-1])
                                 for line in csv_text.strip().split("\n"))
            outputs.append(stripped)
        assert outputs[0] == outputs[1] == outputs[2]
