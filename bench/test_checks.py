"""Tests of the benchmark's reference checks, against brute force."""

import itertools

import numpy as np
import pytest
from scipy import special

import checks


def _bisection_projection(x, B, steps=200):
    lo, hi = x.min() - B, x.max() + B
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.clip(x - mid, -B, B).sum() > 0:
            lo = mid
        else:
            hi = mid
    return np.clip(x - 0.5 * (lo + hi), -B, B)


def test_projection_hand_case_and_feasible_point():
    np.testing.assert_allclose(checks.project_feasible(np.array([3.0, 0.0, -1.0]), 1.0),
                               [1.0, 0.0, -1.0])
    w = np.array([0.5, -0.2, -0.3])
    np.testing.assert_allclose(checks.project_feasible(w + 7.0, 1.0), w, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_projection_matches_bisection_and_is_closest(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=2.0, size=12)
    p = checks.project_feasible(x, 1.0)
    assert checks.is_feasible(p, 1.0)
    np.testing.assert_allclose(p, _bisection_projection(x, 1.0), atol=1e-12)
    # Variational inequality: (x - p) . (y - p) <= 0 for feasible y.
    for _ in range(50):
        y = checks.project_feasible(rng.normal(size=12), 1.0)
        assert (x - p) @ (y - p) <= 1e-12


def test_residual_vanishes_only_at_the_optimum():
    a = np.array([2.0, -0.5, 0.1, -3.0])
    opt = checks.project_feasible(a, 1.0)
    assert checks.pg_residual(opt, opt - a, 1.0) < 1e-15
    other = checks.project_feasible(a + np.array([0.0, 0.3, -0.3, 0.0]), 1.0)
    assert checks.pg_residual(other, other - a, 1.0) > 1e-3


def _fd_gradient(f, w, h=1e-6):
    return np.array([(f(w + h * e) - f(w - h * e)) / (2 * h) for e in np.eye(len(w))])


@pytest.mark.parametrize("family", ["btl", "thurstone"])
def test_ordinal_gradient_matches_finite_differences(family):
    rng = np.random.default_rng(1)
    j, k = np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3])
    entries = rng.integers(0, 4, size=200)
    outcomes = rng.choice([-1, 1], size=200)
    log_cdf = special.log_expit if family == "btl" else special.log_ndtr
    sigma = 1.3

    def nll(w):
        t = (w[j] - w[k])[entries] / sigma
        return -np.sum(np.where(outcomes == 1, log_cdf(t), log_cdf(-t))) / len(entries)

    w = rng.normal(size=4)
    np.testing.assert_allclose(
        checks.ordinal_gradient(w, j, k, entries, outcomes, family, sigma),
        _fd_gradient(nll, w), atol=1e-8)


def test_mwise_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    subsets = np.array(list(itertools.combinations(range(5), 3)))
    entries = rng.integers(0, len(subsets), size=300)
    winners = rng.integers(0, 3, size=300)

    def nll(w):
        logp = special.log_softmax(w[subsets][entries], axis=1)
        return -np.sum(logp[np.arange(300), winners]) / 300

    w = rng.normal(size=5)
    np.testing.assert_allclose(checks.mwise_gradient(w, subsets, entries, winners),
                               _fd_gradient(nll, w), atol=1e-8)


def _scaled_laplacian_eigs(d, pairs):
    lap = np.zeros((d, d))
    for a, b in pairs:
        lap[[a, b], [a, b]] += 1.0
        lap[a, b] -= 1.0
        lap[b, a] -= 1.0
    return np.linalg.eigvalsh(lap / len(pairs))


def _complete(items):
    return list(itertools.combinations(items, 2))


GRAPHS = {
    ("complete", 7): _complete(range(7)),
    ("star", 7): [(0, i) for i in range(1, 7)],
    ("path", 7): [(i, i + 1) for i in range(6)],
    ("cycle", 7): [(i, (i + 1) % 7) for i in range(7)],
    ("hypercube", 16): [(v, v ^ (1 << b)) for v in range(16) for b in range(4)
                        if v < v ^ (1 << b)],
    ("barbell", 10): _complete(range(5)) + _complete(range(5, 10)) + [(4, 5)],
    ("complete_bipartite(3,5)", 8): [(a, 3 + b) for a in range(3) for b in range(5)],
    ("lattice2d(3,4)", 12): [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
    + [(r * 4 + c, (r + 1) * 4 + c) for r in range(2) for c in range(4)],
}


@pytest.mark.parametrize("kind,d", GRAPHS)
def test_closed_form_spectra_match_dense_eigensolver(kind, d):
    want = _scaled_laplacian_eigs(d, GRAPHS[kind, d])
    np.testing.assert_allclose(checks.closed_form_spectrum(kind, d), want, atol=1e-12)
    assert checks.trace_pinv(checks.closed_form_spectrum(kind, d)) == \
        pytest.approx(np.sum(1.0 / want[1:]), rel=1e-10)


@pytest.mark.parametrize("d", [2, 3, 150, 333])
def test_window_statistic_against_loop(d):
    eigs = np.r_[0.0, np.sort(np.random.default_rng(d).uniform(0.1, 2.0, d - 1))]
    inv = np.r_[0.0, 1.0 / eigs[1:]]
    want = max(sum(inv[i - 1] for i in range(int(0.99 * dp), dp + 1))
               for dp in range(2, d + 1))
    assert checks.window_statistic(eigs) == pytest.approx(want, rel=1e-12)


def test_seminorm_sandwich():
    eigs = checks.closed_form_spectrum("path", 6)
    assert checks.seminorm_sandwich_holds(1.0, eigs[1], eigs)
    assert checks.seminorm_sandwich_holds(1.0, eigs[-1], eigs)
    assert not checks.seminorm_sandwich_holds(1.0, 0.5 * eigs[1], eigs)
    assert not checks.seminorm_sandwich_holds(1.0, 1.01 * eigs[-1], eigs)


@pytest.mark.parametrize("family", ["btl", "thurstone"])
@pytest.mark.parametrize("B,sigma", [(1.0, 1.0), (0.7, 1.9), (1.2, 0.9)])
def test_link_constants_match_a_dense_grid(family, B, sigma):
    cdf = special.expit if family == "btl" else special.ndtr
    hi = 2.0 * B / sigma
    t = np.linspace(-hi, hi, 20001)
    h = 1e-4
    second = -(np.log(cdf(t + h)) - 2 * np.log(cdf(t)) + np.log(cdf(t - h))) / h**2
    density = (cdf(t + h) - cdf(t - h)) / (2 * h)
    gamma, zeta = checks.link_constants(family, B, sigma)
    assert gamma == pytest.approx(second.min(), rel=1e-5)
    assert zeta == pytest.approx(density.max() / (cdf(hi) * cdf(-hi)), rel=1e-6)


def test_gv_target_hand_value():
    # d=20, alpha=0.1: exp(10 (log 2 + 0.2 log 0.2 + 0.8 log 0.8)) = 6.87
    assert checks.gv_target(20, 0.1) == 6


def test_min_hamming_matches_brute_force():
    rng = np.random.default_rng(3)
    v = rng.integers(0, 2, size=(40, 9), dtype=np.uint8)
    brute = min(int(np.sum(a != b)) for a, b in itertools.combinations(v, 2))
    assert checks.min_hamming(v, block=7) == brute


def test_packing_violations_flag_each_property():
    rng = np.random.default_rng(4)
    while True:  # six rows, first column zero, pairwise distance >= 2
        good = rng.integers(0, 2, size=(6, 20), dtype=np.uint8)
        good[:, 0] = 0
        if checks.min_hamming(good) >= 2:
            break
    assert checks.packing_violations(good, 20, 0.1) == []
    assert checks.packing_violations(good[:5], 20, 0.1) == ["M = 5 != target 6"]
    bad = good.copy()
    bad[2, 0] = 1
    assert "first column is not zero" in checks.packing_violations(bad, 20, 0.1)
    bad = good.copy()
    bad[1] = bad[0]
    assert "rows are not distinct" in checks.packing_violations(bad, 20, 0.1)
    bad = good.copy()
    bad[1] = bad[0]
    bad[1, 5] ^= 1
    assert any("Hamming" in p for p in checks.packing_violations(bad, 20, 0.1))
