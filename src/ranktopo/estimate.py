"""Estimators for the comparison models, plus error metrics.

The ordinal and m-wise maximum-likelihood problems are convex over the
feasible set {<1, w> = 0, |w|_inf <= B} thanks to strong log-concavity of
the links.  Their Hessians are weighted comparison-graph Laplacians, so
the solver takes Newton steps on the face of the box that the projected
gradient picks out, with a monotone Armijo line search, and falls back to
a spectral projected-gradient step where Newton cannot descend; it
converges to the global constrained optimum.  The feasible-set projection
is exact: a breakpoint search for the shift that zeroes the sum of the
clipped vector.  Paired cardinal and per-item cardinal estimates are
closed form.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import ComparisonDesign, HyperDesign, _connected
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
    order = bps.argsort(kind="stable")
    bps = bps[order]
    free = np.where(order < d, 1, -1).cumsum()  # free entries past each breakpoint
    sums = np.empty(2 * d)
    sums[0] = 0.0
    (free[:-1] * (bps[1:] - bps[:-1])).cumsum(out=sums[1:])
    sums = d * B - sums
    k = int((-sums).searchsorted(0.0, side="right")) - 1  # last sum >= 0
    tau = bps[k] + sums[k] / free[k] if sums[k] > 0 else bps[k]
    return np.minimum(np.maximum(x - tau, -B), B)


# ---------------------------------------------------------------------------
# Likelihoods
# ---------------------------------------------------------------------------


# What a batch's entries index, and the name of their count.
_ENTRIES = {"ordinal_pair": ("edge", "E"), "cardinal_pair": ("edge", "E"),
            "mwise": ("subset", "S"), "cardinal_item": ("item", "d")}


def _in_range(values, bound: int, name: str, symbol: str) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer, got dtype {values.dtype}")
    if values.size and (values.min() < 0 or values.max() >= bound):
        bad = values.min() if values.min() < 0 else values.max()
        raise ValueError(f"{name} {bad} out of range for {symbol}={bound}")
    return values.astype(np.intp, copy=False)


def _counts(batch: ObservationBatch, num_entries: int, slots=None, num_slots: int = 1,
            weights=None) -> np.ndarray:
    """Samples per (slot, entry), or the sums of ``weights`` over them, as a
    (num_slots, num_entries) array, in one bincount.  Entries must be
    integers in [0, num_entries) and slots (m-wise winner positions, or the
    ordinal loss flag) in [0, num_slots): an index past either bound would
    land in another cell."""
    noun, symbol = _ENTRIES[batch.kind]
    flat = _in_range(batch.entry_indices, num_entries, f"{noun} index", symbol)
    if slots is not None:
        flat = _in_range(slots, num_slots, "winner position", "m") * num_entries + flat
    tally = np.bincount(flat, weights=weights, minlength=num_slots * num_entries)
    return tally.astype(float, copy=False).reshape(num_slots, num_entries)


def _ordinal_closures(batch: ObservationBatch, design: ComparisonDesign,
                      link: LinkFunction):
    """Closures over per-edge win/loss counts: point, objective, gradient, Hessian.

    ``point(w)`` gathers the scaled edge differences t = (w_j - w_k)/sigma
    and evaluates log F and F'/F at t and -t once; the other three take
    that point, so an iterate shares one gather and one special-function
    pass per sign among its objective, gradient and Hessian.  Aggregating
    the samples once keeps the per-iteration cost at O(edges) regardless of
    the sample count.  The Hessian is the
    comparison-graph Laplacian with edge weights
    (W_e h(t_e) + L_e h(-t_e)) / (n sigma^2), h the second derivative of
    -log F and W_e, L_e the wins and losses on edge e.
    """
    j_idx, k_idx, _ = design.edge_arrays
    # Outcomes are +-1 (``ObservationBatch`` checks), so slot 0 wins, slot 1 losses.
    losing = (np.asarray(batch.outcomes) != 1).astype(np.intp)
    wins, losses = _counts(batch, j_idx.size, losing, 2)
    sigma, n, d = link.sigma, batch.n, design.d

    def point(w: np.ndarray):
        t = (w[j_idx] - w[k_idx]) / sigma
        # 1 - F(t) = F(-t) by link symmetry; evaluating the reflected CDF
        # keeps the log well away from cancellation.
        log_f, log_f_reflected = link.log_cdf(t), link.log_cdf(-t)
        return (t, log_f, log_f_reflected, link.pdf_over_cdf(t, log_f),
                link.pdf_over_cdf(-t, log_f_reflected))

    def objective(pt) -> float:
        _, log_f, log_f_reflected, _, _ = pt
        return float(-(wins @ log_f + losses @ log_f_reflected) / n)

    def gradient(pt) -> np.ndarray:
        _, _, _, r, r_reflected = pt
        slope = -(wins * r - losses * r_reflected)
        slope /= n * sigma
        return (np.bincount(j_idx, weights=slope, minlength=d)
                - np.bincount(k_idx, weights=slope, minlength=d))

    def hessian(pt) -> np.ndarray:
        second, second_reflected = link.neg_log_second_pair(pt[0], *pt[3:])
        curvature = wins * second + losses * second_reflected
        return design._scatter(curvature / (n * sigma * sigma))

    return point, objective, gradient, hessian


def ordinal_nll(w: np.ndarray, batch: ObservationBatch, design: ComparisonDesign,
                link: LinkFunction) -> float:
    """Negative log-likelihood of the ordinal model, averaged over samples."""
    point, objective, _, _ = _ordinal_closures(batch, design, link)
    return objective(point(np.asarray(w, dtype=float)))


def ordinal_nll_gradient(w: np.ndarray, batch: ObservationBatch,
                         design: ComparisonDesign, link: LinkFunction) -> np.ndarray:
    point, _, gradient, _ = _ordinal_closures(batch, design, link)
    return gradient(point(np.asarray(w, dtype=float)))


def _mwise_closures(batch: ObservationBatch, design: HyperDesign, link: MWiseLink):
    """The m-wise counterpart of ``_ordinal_closures``.

    Subsets are gathered column-major, as the design's (m, S) array, so
    every reduction over a subset's m positions runs down whole columns.  The
    point is the log choice probabilities and their exponentials.  The
    Hessian of -log p_k is diag(p) - p p^T whichever position k won, and
    that is the Laplacian of the subset's clique with weights p_a p_b;
    summed over subsets with weights n_S / n it is one Laplacian on the
    pairs a < b of every subset.
    """
    columns, (a, b), laplacian = design._cliques
    counts = _counts(batch, columns.shape[1], batch.outcomes, link.m)
    totals = counts.sum(axis=0)
    n, d = batch.n, design.d
    flat_columns = columns.ravel()

    def point(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        logp = link.log_position_probs(w[columns], axis=0)
        return logp, np.exp(logp)

    def objective(pt) -> float:
        return float(-(counts * pt[0]).sum() / n)

    def gradient(pt) -> np.ndarray:
        contrib = (totals * pt[1] - counts) / n
        return np.bincount(flat_columns, weights=contrib.ravel(), minlength=d)

    def hessian(pt) -> np.ndarray:
        _, probs = pt
        weights = (totals / n) * probs[a] * probs[b]
        return laplacian(weights.ravel())

    return point, objective, gradient, hessian


def mwise_nll(w: np.ndarray, batch: ObservationBatch, design: HyperDesign,
              link: MWiseLink) -> float:
    point, objective, _, _ = _mwise_closures(batch, design, link)
    return objective(point(np.asarray(w, dtype=float)))


def mwise_nll_gradient(w: np.ndarray, batch: ObservationBatch, design: HyperDesign,
                       link: MWiseLink) -> np.ndarray:
    point, _, gradient, _ = _mwise_closures(batch, design, link)
    return gradient(point(np.asarray(w, dtype=float)))


# ---------------------------------------------------------------------------
# Active-set Newton solver
# ---------------------------------------------------------------------------


# The fallback's first step, and the Armijo line search's backtracking
# factor and sufficient decrease.
_INITIAL_STEP = 1.0
_STEP_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4


def _newton_direction(hess: np.ndarray, g: np.ndarray, w: np.ndarray, z: np.ndarray,
                      B: float, kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Newton direction on the face that z = P(w - g) picks out, or None.

    Coordinates that z puts at a bound are held there: they move to z.  The
    others take the Newton step of the quadratic model with the held ones
    fixed, from the bordered system [[H, 1], [1^T, 0]] that keeps the sum
    at zero; a held coordinate's row and column are those of the identity.
    A free coordinate at a bound that the step would push through it is
    held too, and the system solved again.  An unsampled edge can
    disconnect the sampled graph and leave the objective flat along the
    shift of a component; the system is then singular, and its
    least-squares solution is the Newton step on the rest.  None when the
    step is not finite.  ``kkt`` and ``rhs``, of sizes (d+1, d+1) and
    d+1, are overwritten with the system.
    """
    d = w.size
    held = np.zeros(d + 1, dtype=bool)  # the border row is never held
    held[:d] = np.abs(z) == B
    direction = np.where(held[:d], z - w, 0.0)
    kkt[:d, :d] = hess
    kkt[d, :d] = kkt[:d, d] = 1.0
    kkt[d, d] = 0.0
    rhs[:d] = -g - hess @ direction
    rhs[d] = -direction.sum()
    any_held = bool(held.any())
    at_bound = bool(np.abs(w).max() >= B)
    while True:
        if any_held:
            kkt[held] = 0.0
            kkt[:, held] = 0.0
            kkt[held, held] = 1.0
            rhs[held] = 0.0
        try:
            step = np.linalg.solve(kkt, rhs)[:d]
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(kkt, rhs)[0][:d]
        if not np.isfinite(step).all():
            return None
        if at_bound:
            through = ~held[:d] & (((w >= B) & (step > 0)) | ((w <= -B) & (step < 0)))
            if through.any():
                held[:d] |= through
                any_held = True
                continue
        return np.where(held[:d], direction, step) if any_held else step


def _line_search(point, objective, w: np.ndarray, f: float, slope: float,
                 direction: np.ndarray, B: float):
    """Armijo backtracking along ``direction`` from the largest feasible step.

    The first trial stops at the first bound the direction reaches, if that
    comes before the unit step, and sets that coordinate to exactly +-B.
    Returns the accepted (w, point, f), or None once the step underflows.
    """
    lam, block = 1.0, None
    moving = direction.nonzero()[0]
    if moving.size:
        ratios = (np.copysign(B, direction[moving]) - w[moving]) / direction[moving]
        first = int(ratios.argmin())
        if ratios[first] < 1.0:
            lam, block = float(ratios[first]), moving[first]
    # The float slack keeps the line search from thrashing once the
    # per-step objective decrease falls below the resolution of f.
    slack = 1e-15 * max(1.0, abs(f))
    while lam >= 1e-16:
        w_new = np.minimum(np.maximum(w + lam * direction, -B), B)
        if block is not None:
            w_new[block] = np.copysign(B, direction[block])
        pt = point(w_new)
        f_new = objective(pt)
        if f_new <= f + _SUFFICIENT_DECREASE * lam * slope + slack:
            return w_new, pt, f_new
        lam *= _STEP_SHRINK
        block = None
    return None


def _active_set_newton(closures, d: int, B: float, opts: SolverOptions,
                       callback: Callable[[np.ndarray, float], None] | None = None,
                       ) -> tuple[np.ndarray, bool, int, float, float]:
    """Projected Newton on the active face (Bertsekas 1982), SPG as fallback.

    Each iteration computes z = P(w - g) and stops once the unit-step
    residual |z - w| is at most ``grad_tolerance``.  Otherwise it steps
    along ``_newton_direction`` with ``_line_search``.  The Hessian is a
    weighted comparison-graph Laplacian, so the step costs one dense solve
    of the free coordinates and its iteration count does not grow as
    lambda_2 shrinks.  When the Newton step is not finite or not a
    descent direction, or its line search fails, the iteration takes a
    spectral projected-gradient step instead (Birgin, Martinez & Raydan
    2000): P(w - alpha g) - w with the Barzilai-Borwein step
    alpha = s's / s'y of the last move, or ``_INITIAL_STEP`` before the
    first.  ``grad_norm`` is the residual at the start of the final
    iteration.  One bordered system and right-hand side are allocated per
    call and rewritten by every Newton step.  On the small systems of a
    campaign (d <= 64) numpy's per-call overhead outweighs the arithmetic,
    so the iterate calls array methods (``x.max()``, ``x.cumsum()``) rather
    than the module functions that dispatch to them.
    """
    point, objective, gradient, hessian = closures
    w = np.zeros(d)
    pt = point(w)
    f = objective(pt)
    g = gradient(pt)
    w_prev = g_prev = None
    kkt, rhs = np.empty((d + 1, d + 1)), np.empty(d + 1)
    converged = False
    iters = 0
    pg_norm = float("inf")
    if callback is not None:
        callback(w, f)
    for iters in range(1, opts.max_iters + 1):
        z = project_feasible(w - g, B)
        r = z - w
        pg_norm = math.sqrt(r @ r)
        if pg_norm <= opts.grad_tolerance:
            converged = True
            iters -= 1
            break
        accepted = None
        direction = _newton_direction(hessian(pt), g, w, z, B, kkt, rhs)
        if direction is not None and (slope := float(g @ direction)) < 0:
            accepted = _line_search(point, objective, w, f, slope, direction, B)
        if accepted is None:
            alpha = _INITIAL_STEP
            if w_prev is not None:
                s, y = w - w_prev, g - g_prev
                sy = float(s @ y)
                alpha = min(max(float(s @ s) / sy, 1e-10), 1e10) if sy > 0 else 1e10
            direction = project_feasible(w - alpha * g, B) - w
            accepted = _line_search(point, objective, w, f, float(g @ direction),
                                    direction, B)
        if accepted is None:
            break  # backtracking stalled at machine precision
        w_prev, g_prev = w, g
        w, pt, f = accepted
        g = gradient(pt)
        if callback is not None:
            callback(w, f)
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
    if not B > 0:
        raise ValueError("B must be positive")
    closures = _ordinal_closures(batch, design, link)
    w, conv, iters, f, pg = _active_set_newton(closures, design.d, B, opts, callback)
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
    if not B > 0:
        raise ValueError("B must be positive")
    closures = _mwise_closures(batch, design, link)
    w, conv, iters, f, pg = _active_set_newton(closures, design.d, B, opts, callback)
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
    y = np.asarray(batch.outcomes, dtype=float)
    (counts,), (sums,) = _counts(batch, j_idx.size), _counts(batch, j_idx.size, weights=y)
    sampled = counts > 0
    if not _connected(design.d, j_idx[sampled], k_idx[sampled]):
        raise ValueError("sampled comparison graph is disconnected; w is not identifiable")
    # An unsampled edge scatters weight 0, which leaves every entry's sum exact.
    lap = design._scatter(counts) / batch.n
    # X^T y accumulated per edge: each sample adds y_i (e_j - e_k).
    xty = np.bincount(np.r_[j_idx, k_idx], weights=np.r_[sums, -sums], minlength=design.d)
    w = np.linalg.solve(lap + 1.0 / design.d, xty / batch.n)
    w = w - np.mean(w)  # remove float residue along the nullspace
    resid = y - (w[j_idx] - w[k_idx])[batch.entry_indices]
    objective = float(resid @ resid / (2.0 * batch.n))
    bound = float(np.max(np.abs(w)))
    return EstimateResult(QualityVector(w, bound), True, 0, objective, 0.0)


def mean_cardinal(batch: ObservationBatch, d: int) -> EstimateResult:
    """Per-item sample means recentred to sum zero."""
    if batch.kind != "cardinal_item":
        raise ValueError(f"expected a cardinal_item batch, got {batch.kind!r}")
    y = np.asarray(batch.outcomes, dtype=float)
    (counts,), (sums,) = _counts(batch, d), _counts(batch, d, weights=y)
    if np.any(counts == 0):
        missing = np.nonzero(counts == 0)[0]
        raise ValueError(f"items never observed: {missing.tolist()}")
    means = sums / counts
    w = means - np.mean(means)
    resid_obj = float(np.sum((y - means[batch.entry_indices]) ** 2) / (2.0 * batch.n))
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
