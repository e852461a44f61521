"""Estimators for the comparison models, plus error metrics.

The ordinal and m-wise maximum-likelihood problems are convex over the
feasible set {<1, w> = 0, |w|_inf <= B} thanks to strong log-concavity of
the links, so spectral projected gradient (Barzilai-Borwein steps with a
monotone Armijo line search) converges to the global constrained optimum.
The feasible-set projection is exact: a breakpoint search for the shift
that zeroes the sum of the clipped vector.  Paired cardinal and per-item
cardinal estimates are closed form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import ComparisonDesign, HyperDesign, _connected, _laplacian
from .models import LinkFunction, MWiseLink
from .synth import ObservationBatch, QualityVector, _values


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 5000
    grad_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tolerance <= 0:
            raise ValueError("grad_tolerance must be positive")


@dataclass(frozen=True)
class EstimateResult:
    w_hat: QualityVector
    converged: bool
    iterations: int
    objective: float
    grad_norm: float

    def to_json(self, model_json: str = "{}", design_digest: str = "") -> str:
        return json.dumps(
            {
                "w_hat": [float(v) for v in self.w_hat.values],
                "converged": self.converged,
                "iterations": self.iterations,
                "objective": self.objective,
                "grad_norm": self.grad_norm,
                "model": json.loads(model_json),
                "design_digest": design_digest,
            }
        )


@dataclass(frozen=True)
class ErrorMetrics:
    sq_l2: float
    sq_lap: float


def design_digest(design: ComparisonDesign) -> str:
    return hashlib.sha256(design.to_json().encode()).hexdigest()[:12]


def project_feasible(x: np.ndarray, B: float) -> np.ndarray:
    """Euclidean projection onto {sum w = 0} intersect {|w|_inf <= B}.

    The projection is clip(x - tau, -B, B) for the shift tau that zeroes
    the sum.  That sum is piecewise linear and nonincreasing in tau with
    breakpoints x_i - B (entry i leaves the upper bound) and x_i + B (it
    reaches the lower one); its slope between breakpoints is minus the
    number of free entries.  One sort and a cumulative sum evaluate it at
    every breakpoint, and tau is solved for on the bracketing piece.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    bps = np.concatenate([x - B, x + B])
    order = np.argsort(bps, kind="stable")
    bps = bps[order]
    free = np.cumsum(np.where(order < d, 1, -1))  # free entries past each breakpoint
    sums = np.empty(2 * d)
    sums[0] = 0.0
    np.cumsum(free[:-1] * (bps[1:] - bps[:-1]), out=sums[1:])
    sums = d * B - sums
    k = int(np.searchsorted(-sums, 0.0, side="right")) - 1  # last sum >= 0
    tau = bps[k] + sums[k] / free[k] if sums[k] > 0 else bps[k]
    return np.minimum(np.maximum(x - tau, -B), B)


# ---------------------------------------------------------------------------
# Likelihoods
# ---------------------------------------------------------------------------


def _ordinal_counts(batch: ObservationBatch, num_edges: int) -> tuple[np.ndarray, np.ndarray]:
    idx = batch.entry_indices
    y = np.asarray(batch.outcomes)
    wins = np.bincount(idx[y == 1], minlength=num_edges).astype(float)
    losses = np.bincount(idx[y == -1], minlength=num_edges).astype(float)
    return wins, losses


def _ordinal_closures(batch: ObservationBatch, design: ComparisonDesign,
                      link: LinkFunction):
    """Objective/gradient closures over per-edge win/loss counts.

    Aggregating once keeps the per-iteration cost at O(edges) regardless
    of the sample count.
    """
    j_idx, k_idx, _ = design.edge_arrays
    wins, losses = _ordinal_counts(batch, len(j_idx))
    sigma, n = link.sigma, batch.n

    def objective(w: np.ndarray) -> float:
        t = (w[j_idx] - w[k_idx]) / sigma
        # 1 - F(t) = F(-t) by link symmetry; evaluating the reflected CDF
        # keeps the log well away from cancellation.
        return float(-(wins @ link.log_cdf(t) + losses @ link.log_cdf(-t)) / n)

    def gradient(w: np.ndarray) -> np.ndarray:
        t = (w[j_idx] - w[k_idx]) / sigma
        slope = -(wins * link.pdf_over_cdf(t) - losses * link.pdf_over_cdf(-t))
        slope /= n * sigma
        return (np.bincount(j_idx, weights=slope, minlength=design.d)
                - np.bincount(k_idx, weights=slope, minlength=design.d))

    return objective, gradient


def ordinal_nll(w: np.ndarray, batch: ObservationBatch, design: ComparisonDesign,
                link: LinkFunction) -> float:
    """Negative log-likelihood of the ordinal model, averaged over samples."""
    objective, _ = _ordinal_closures(batch, design, link)
    return objective(np.asarray(w, dtype=float))


def ordinal_nll_gradient(w: np.ndarray, batch: ObservationBatch,
                         design: ComparisonDesign, link: LinkFunction) -> np.ndarray:
    _, gradient = _ordinal_closures(batch, design, link)
    return gradient(np.asarray(w, dtype=float))


def _mwise_counts(batch: ObservationBatch, num_subsets: int, m: int) -> np.ndarray:
    flat = batch.entry_indices * m + np.asarray(batch.outcomes, dtype=np.intp)
    return np.bincount(flat, minlength=num_subsets * m).astype(float).reshape(
        num_subsets, m)


def _mwise_closures(batch: ObservationBatch, design: HyperDesign, link: MWiseLink):
    subsets = design.subsets
    counts = _mwise_counts(batch, len(subsets), link.m)
    flat_subsets = subsets.ravel()
    totals = counts.sum(axis=1, keepdims=True)
    n = batch.n

    def objective(w: np.ndarray) -> float:
        logp = link.log_position_probs(w[subsets])
        return float(-np.sum(counts * logp) / n)

    def gradient(w: np.ndarray) -> np.ndarray:
        probs = link.position_probs(w[subsets])
        contrib = (totals * probs - counts) / n
        return np.bincount(flat_subsets, weights=contrib.ravel(),
                           minlength=design.d)

    return objective, gradient


def mwise_nll(w: np.ndarray, batch: ObservationBatch, design: HyperDesign,
              link: MWiseLink) -> float:
    objective, _ = _mwise_closures(batch, design, link)
    return objective(np.asarray(w, dtype=float))


def mwise_nll_gradient(w: np.ndarray, batch: ObservationBatch, design: HyperDesign,
                       link: MWiseLink) -> np.ndarray:
    _, gradient = _mwise_closures(batch, design, link)
    return gradient(np.asarray(w, dtype=float))


# ---------------------------------------------------------------------------
# Projected gradient solver
# ---------------------------------------------------------------------------


# r(1) is projected for once its lower bound is within this factor of the
# tolerance; the slack covers rounding in the two projections.
_STOP_TEST_MARGIN = 2.0
# The first step, and the Armijo line search's backtracking factor and sufficient decrease.
_INITIAL_STEP = 1.0
_STEP_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4


def _projected_gradient(objective: Callable[[np.ndarray], float],
                        gradient: Callable[[np.ndarray], np.ndarray],
                        d: int, B: float, opts: SolverOptions,
                        callback: Callable[[np.ndarray, float], None] | None = None,
                        ) -> tuple[np.ndarray, bool, int, float, float]:
    """Monotone spectral projected gradient (Birgin, Martinez & Raydan 2000).

    Each iteration moves along P(w - alpha g) - w with Armijo backtracking,
    then sets alpha to the Barzilai-Borwein step s's / s'y, which tracks
    the inverse curvature along the last move and so adapts to
    ill-conditioned designs where a fixed step crawls.

    It stops once r(1) <= ``grad_tolerance``, where r(a) = |P(w - a g) - w|,
    but projects only for the direction on most iterations: r(a) does not
    fall and r(a)/a does not rise as a grows (Calamai & More 1987, Lemma
    2.2), so r(1) >= min(r(alpha), r(alpha)/alpha).  r(1) is computed when
    that bound nears the tolerance, and on a ``max_iters`` or stalled exit,
    at the start of the final iteration, to report ``grad_norm``.
    """
    w = np.zeros(d)
    f = objective(w)
    g = gradient(w)
    alpha = _INITIAL_STEP
    converged = False
    iters = 0
    if callback is not None:
        callback(w, f)
    for iters in range(1, opts.max_iters + 1):
        w_start, g_start = w, g
        direction = project_feasible(w - alpha * g, B) - w
        r = float(np.linalg.norm(direction))
        pg_norm = None
        if min(r, r / alpha) <= _STOP_TEST_MARGIN * opts.grad_tolerance:
            pg_norm = float(np.linalg.norm(project_feasible(w - g, B) - w))
            if pg_norm <= opts.grad_tolerance:
                converged = True
                iters -= 1
                break
        slope = float(g @ direction)
        # The float slack keeps the line search from thrashing once the
        # per-step objective decrease falls below the resolution of f.
        slack = 1e-15 * max(1.0, abs(f))
        lam = 1.0
        w_new = w + direction
        f_new = objective(w_new)
        while f_new > f + _SUFFICIENT_DECREASE * lam * slope + slack:
            lam *= _STEP_SHRINK
            if lam < 1e-16:
                break
            w_new = w + lam * direction
            f_new = objective(w_new)
        if f_new > f + slack:
            break  # backtracking stalled at machine precision
        g_new = gradient(w_new)
        s, y = w_new - w, g_new - g
        sy = float(s @ y)
        alpha = min(max(float(s @ s) / sy, 1e-10), 1e10) if sy > 0 else 1e10
        w, f, g = w_new, f_new, g_new
        if callback is not None:
            callback(w, f)
    if pg_norm is None:
        pg_norm = float(np.linalg.norm(project_feasible(w_start - g_start, B) - w_start))
    return w, converged, iters, f, pg_norm


def mle_ordinal(batch: ObservationBatch, design: ComparisonDesign, link: LinkFunction,
                B: float, opts: SolverOptions = SolverOptions(),
                callback: Callable | None = None) -> EstimateResult:
    """Constrained MLE for the ordinal pairwise model.

    One-sided degenerate data is fine: the box constraint keeps the
    optimum finite, which is exactly the role of the bound B.
    """
    if batch.kind != "ordinal_pair":
        raise ValueError(f"expected an ordinal_pair batch, got {batch.kind!r}")
    if not design.connected:
        raise ValueError("MLE requires a connected comparison graph")
    if B <= 0:
        raise ValueError("B must be positive")
    obj, grad = _ordinal_closures(batch, design, link)
    w, conv, iters, f, pg = _projected_gradient(obj, grad, design.d, B, opts, callback)
    return EstimateResult(QualityVector(w, B), conv, iters, f, pg)


def mle_mwise(batch: ObservationBatch, design: HyperDesign, link: MWiseLink,
              B: float, opts: SolverOptions = SolverOptions(),
              callback: Callable | None = None) -> EstimateResult:
    """Constrained MLE for the m-wise choice model."""
    if batch.kind != "mwise":
        raise ValueError(f"expected an mwise batch, got {batch.kind!r}")
    if not design.connected:
        raise ValueError("MLE requires a connected comparison hypergraph")
    if design.m != link.m:
        raise ValueError(f"design m={design.m} does not match link m={link.m}")
    if B <= 0:
        raise ValueError("B must be positive")
    obj, grad = _mwise_closures(batch, design, link)
    w, conv, iters, f, pg = _projected_gradient(obj, grad, design.d, B, opts, callback)
    return EstimateResult(QualityVector(w, B), conv, iters, f, pg)


# ---------------------------------------------------------------------------
# Closed-form cardinal estimators
# ---------------------------------------------------------------------------


def ls_paired_cardinal(batch: ObservationBatch, design: ComparisonDesign) -> EstimateResult:
    """Least squares for paired cardinal data: w = (1/n) L^dagger X^T y.

    L is the Laplacian of the batch's realised measurement matrix, so a
    noiseless batch is inverted exactly on any connected sample.  Since
    X^T y is orthogonal to 1 and the sample is connected, w is the solution
    of (L + 11^T/d) w = X^T y / n, found with one linear solve; it sums to
    zero.
    """
    if batch.kind != "cardinal_pair":
        raise ValueError(f"expected a cardinal_pair batch, got {batch.kind!r}")
    j_idx, k_idx, _ = design.edge_arrays
    counts = np.bincount(batch.entry_indices, minlength=len(j_idx)).astype(float)
    sampled = counts > 0
    if not _connected(design.d, j_idx[sampled], k_idx[sampled]):
        raise ValueError("sampled comparison graph is disconnected; w is not identifiable")
    lap = _laplacian(design.d, j_idx[sampled], k_idx[sampled], counts[sampled]) / batch.n
    # X^T y accumulated per edge: each sample adds y_i (e_j - e_k).
    sums = np.zeros(len(j_idx))
    np.add.at(sums, batch.entry_indices, np.asarray(batch.outcomes, dtype=float))
    xty = np.zeros(design.d)
    np.add.at(xty, j_idx, sums)
    np.add.at(xty, k_idx, -sums)
    w = np.linalg.solve(lap + 1.0 / design.d, xty / batch.n)
    w = w - np.mean(w)  # remove float residue along the nullspace
    resid = np.asarray(batch.outcomes, dtype=float) - (w[j_idx] - w[k_idx])[batch.entry_indices]
    objective = float(resid @ resid / (2.0 * batch.n))
    bound = float(np.max(np.abs(w)))
    return EstimateResult(QualityVector(w, bound), True, 0, objective, 0.0)


def mean_cardinal(batch: ObservationBatch, d: int) -> EstimateResult:
    """Per-item sample means recentred to sum zero."""
    if batch.kind != "cardinal_item":
        raise ValueError(f"expected a cardinal_item batch, got {batch.kind!r}")
    counts = np.bincount(batch.entry_indices, minlength=d).astype(float)
    if np.any(counts == 0):
        missing = np.nonzero(counts == 0)[0]
        raise ValueError(f"items never observed: {missing.tolist()}")
    sums = np.zeros(d)
    np.add.at(sums, batch.entry_indices, np.asarray(batch.outcomes, dtype=float))
    means = sums / counts
    w = means - np.mean(means)
    resid_obj = float(np.sum((np.asarray(batch.outcomes, dtype=float)
                              - means[batch.entry_indices]) ** 2) / (2.0 * batch.n))
    bound = float(np.max(np.abs(w)))
    return EstimateResult(QualityVector(w, bound), True, 0, resid_obj, 0.0)


def error_metrics(w_hat: QualityVector | np.ndarray, w_star: QualityVector | np.ndarray,
                  design: ComparisonDesign) -> ErrorMetrics:
    """Squared Euclidean error, and squared Laplacian semi-norm error taken
    edge by edge: sum_e w_e (delta_j - delta_k)^2 over ``design.edge_arrays``."""
    a, b = _values(w_hat), _values(w_star)
    if a.shape != b.shape or a.shape != (design.d,):
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}, d={design.d}")
    delta = a - b
    j, k, w = design.edge_arrays
    diff = delta[j] - delta[k]
    return ErrorMetrics(sq_l2=float(delta @ delta), sq_lap=float(w @ (diff * diff)))
