"""Reference computations the benchmark checks ranktopo's outputs against.

Nothing here imports ranktopo.  Each check is computed by a different
route than the package: an exact breakpoint projection instead of
Dykstra's alternating projections, likelihood gradients written from
per-edge counts with scipy.special, closed-form Laplacian spectra from
spectral graph theory, closed-form link constants in place of grid
searches, and brute-force packing properties.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# ---------------------------------------------------------------------------
# Feasible set and optimality
# ---------------------------------------------------------------------------


def project_feasible(x: np.ndarray, B: float) -> np.ndarray:
    """Exact Euclidean projection onto {sum w = 0, |w|_inf <= B}.

    The projection is clip(x - tau, -B, B) for the shift tau that zeroes
    the sum.  That sum is piecewise linear and nonincreasing in tau with
    breakpoints x_i -+ B, so tau is found by locating the bracketing pair
    of breakpoints and interpolating on the linear piece between them.
    """
    x = np.asarray(x, dtype=float)
    if B < 0:
        raise ValueError("B must be nonnegative")
    bps = np.sort(np.concatenate([x - B, x + B]))
    sums = np.clip(x[None, :] - bps[:, None], -B, B).sum(axis=1)
    # sums[0] = d*B >= 0 and sums[-1] = -d*B <= 0; take the last
    # breakpoint where the sum is still nonnegative.
    k = int(np.nonzero(sums >= 0.0)[0][-1])
    if k == len(bps) - 1 or sums[k] == 0.0:
        tau = bps[k]
    else:
        lo, hi = bps[k], bps[k + 1]
        tau = lo + sums[k] * (hi - lo) / (sums[k] - sums[k + 1])
    return np.clip(x - tau, -B, B)


def pg_residual(w: np.ndarray, grad: np.ndarray, B: float) -> float:
    """Unit-step projected-gradient residual |P(w - grad) - w|_2.

    Zero exactly at the constrained optimum of a convex objective.
    """
    return float(np.linalg.norm(project_feasible(w - grad, B) - w))


def is_feasible(w: np.ndarray, B: float) -> bool:
    """Sum zero to float precision and entries within the box."""
    w = np.asarray(w, dtype=float)
    peak = float(np.max(np.abs(w)))
    return abs(float(np.sum(w))) <= 1e-9 * max(1.0, peak) and peak <= B + 1e-12


def _pdf_over_cdf(family: str, t: np.ndarray) -> np.ndarray:
    if family == "btl":
        return special.expit(-t)  # F'(t) / F(t) = 1 - F(t) for the logistic
    if family == "thurstone":
        return np.exp(-0.5 * t * t - 0.5 * math.log(2.0 * math.pi) - special.log_ndtr(t))
    raise ValueError(f"no reference gradient for link {family!r}")


def ordinal_gradient(w: np.ndarray, j: np.ndarray, k: np.ndarray,
                     entries: np.ndarray, outcomes: np.ndarray,
                     family: str, sigma: float) -> np.ndarray:
    """Gradient of the sample-averaged ordinal NLL.

    NLL(w) = -(1/n) sum_e [W_e log F(t_e) + L_e log F(-t_e)] with
    t_e = (w_j - w_k)/sigma and W_e, L_e the wins and losses of the first
    item of edge e.
    """
    n = len(entries)
    wins = np.bincount(entries[outcomes == 1], minlength=len(j)).astype(float)
    losses = np.bincount(entries[outcomes == -1], minlength=len(j)).astype(float)
    t = (w[j] - w[k]) / sigma
    slope = -(wins * _pdf_over_cdf(family, t)
              - losses * _pdf_over_cdf(family, -t)) / (n * sigma)
    grad = np.zeros_like(w)
    np.add.at(grad, j, slope)
    np.add.at(grad, k, -slope)
    return grad


def mwise_gradient(w: np.ndarray, subsets: np.ndarray, entries: np.ndarray,
                   winners: np.ndarray) -> np.ndarray:
    """Gradient of the sample-averaged Plackett-Luce choice NLL.

    Each sample on subset S with winner position p contributes
    -log softmax(w_S)[p]; its gradient on w_S is softmax(w_S) - e_p.
    """
    n = len(entries)
    counts = np.zeros(subsets.shape)
    np.add.at(counts, (entries, winners), 1.0)
    probs = special.softmax(w[subsets], axis=1)
    contrib = (counts.sum(axis=1, keepdims=True) * probs - counts) / n
    grad = np.zeros_like(w)
    np.add.at(grad, subsets.ravel(), contrib.ravel())
    return grad


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def _path_eigs(d: int) -> np.ndarray:
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(d) / d)


def closed_form_spectrum(kind: str, d: int) -> np.ndarray | None:
    """Ascending scaled-Laplacian spectrum L'/|E| of a canonical topology.

    ``kind`` is a topology name as ranktopo reports it, including the
    ``complete_bipartite(m1,m2)`` and ``lattice2d(m1,m2)`` forms.  Returns
    None for kinds without a closed form (the expander).
    """
    name, _, params = kind.partition("(")
    if name == "complete":
        eigs, edges = np.r_[0.0, np.full(d - 1, float(d))], d * (d - 1) / 2
    elif name == "star":
        eigs, edges = np.r_[0.0, np.ones(d - 2), d], d - 1
    elif name == "path":
        eigs, edges = _path_eigs(d), d - 1
    elif name == "cycle":
        eigs, edges = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(d) / d), d
    elif name == "hypercube":
        bits = d.bit_length() - 1
        eigs = np.concatenate([np.full(math.comb(bits, i), 2.0 * i)
                               for i in range(bits + 1)])
        edges = bits * d / 2
    elif name == "barbell":
        # Two K_k joined by one bridge.  Vectors summing to zero on a
        # clique's k-1 non-bridge nodes give k (k-2 times per clique); the
        # four-cell quotient gives {0, k} symmetrically and the roots of
        # x^2 - (k+2)x + 2 antisymmetrically.
        k = d // 2
        disc = math.sqrt((k + 2) ** 2 - 8)
        eigs = np.r_[np.full(2 * (k - 2), float(k)), 0.0, k,
                     ((k + 2) - disc) / 2, ((k + 2) + disc) / 2]
        edges = k * (k - 1) + 1
    elif name == "complete_bipartite":
        m1, m2 = (int(v) for v in params.rstrip(")").split(","))
        eigs = np.r_[0.0, np.full(m1 - 1, float(m2)), np.full(m2 - 1, float(m1)), d]
        edges = m1 * m2
    elif name == "lattice2d":
        m1, m2 = (int(v) for v in params.rstrip(")").split(","))
        eigs = (_path_eigs(m1)[:, None] + _path_eigs(m2)[None, :]).ravel()
        edges = m1 * (m2 - 1) + m2 * (m1 - 1)
    else:
        return None
    return np.sort(eigs / edges)


def trace_pinv(eigs: np.ndarray) -> float:
    """tr(L^dagger) of a connected design: sum of 1/lambda over lambda_2.."""
    return float(np.sum(1.0 / eigs[1:]))


def window_statistic(eigs: np.ndarray) -> float:
    """max over d' in 2..d of sum_{i=floor(0.99 d')}^{d'} 1/lambda_i.

    Indices are 1-based over the ascending spectrum of a connected design,
    whose lambda_1 = 0 contributes zero.  Window sums come from one
    cumulative sum, with floor(0.99 d') taken in integer arithmetic.
    """
    inv = np.r_[0.0, 0.0, 1.0 / eigs[1:]]  # inv[i] = 1/lambda_i, inv[1] = 0
    cum = np.cumsum(inv)
    d_prime = np.arange(2, len(eigs) + 1)
    return float(np.max(cum[d_prime] - cum[99 * d_prime // 100 - 1]))


def seminorm_sandwich_holds(sq_l2: float, sq_lap: float, eigs: np.ndarray) -> bool:
    """lambda_2 |D|^2 <= |D|_L^2 <= lambda_max |D|^2 for mean-zero D."""
    slack = 1e-9 * sq_l2 * eigs[-1] + 1e-15
    return eigs[1] * sq_l2 - slack <= sq_lap <= eigs[-1] * sq_l2 + slack


# ---------------------------------------------------------------------------
# Link constants
# ---------------------------------------------------------------------------


def link_constants(family: str, B: float, sigma: float) -> tuple[float, float]:
    """Closed-form (gamma, zeta) over the interval [-2B/sigma, 2B/sigma].

    gamma is the minimum of (-log F)'' and sits at the right endpoint for
    both links, since (-log F)'' decreases in t; zeta is the peak density
    F'(0) over F(2B/sigma) F(-2B/sigma).
    """
    t = 2.0 * B / sigma
    if family == "btl":
        f = special.expit(t)
        return float(f * (1.0 - f)), float(0.25 / (f * (1.0 - f)))
    if family == "thurstone":
        h = math.exp(-0.5 * t * t - 0.5 * math.log(2.0 * math.pi) - special.log_ndtr(t))
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        return h * (h + t), phi0 / (special.ndtr(t) * special.ndtr(-t))
    raise ValueError(f"no closed form for link {family!r}")


# ---------------------------------------------------------------------------
# Packings
# ---------------------------------------------------------------------------


def gv_target(d: int, alpha: float) -> int:
    """floor(exp{(d/2)(log 2 + 2a log 2a + (1-2a) log(1-2a))})."""
    a2 = 2.0 * alpha
    inner = math.log(2.0) + a2 * math.log(a2) + (1.0 - a2) * math.log(1.0 - a2)
    return int(math.floor(math.exp(d / 2.0 * inner)))


def min_hamming(vectors: np.ndarray, block: int = 1024) -> int:
    """Smallest Hamming distance between two distinct rows of a 0/1 matrix."""
    v = vectors.astype(np.float64)
    ones = v.sum(axis=1)
    best = vectors.shape[1]
    for start in range(0, v.shape[0], block):
        rows = v[start:start + block]
        dist = ones[start:start + block, None] + ones[None, :] - 2.0 * rows @ v.T
        dist[np.arange(rows.shape[0]), np.arange(start, start + rows.shape[0])] = np.inf
        best = min(best, int(dist.min()))
    return best


def packing_violations(vectors: np.ndarray, d: int, alpha: float) -> list[str]:
    """Properties every GV packing built for (d, alpha) must have."""
    problems = []
    if vectors.shape[1] != d or not np.isin(vectors, (0, 1)).all():
        problems.append("vectors are not 0/1 rows of length d")
        return problems
    if vectors.shape[0] != gv_target(d, alpha):
        problems.append(f"M = {vectors.shape[0]} != target {gv_target(d, alpha)}")
    if np.any(vectors[:, 0] != 0):
        problems.append("first column is not zero")
    packed = np.packbits(vectors.astype(np.uint8), axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    if np.unique(keys).size != keys.size:
        problems.append("rows are not distinct")
    elif alpha * d > 1.0 and min_hamming(vectors) < alpha * d:
        # With alpha*d <= 1 distinct rows already sit at distance >= 1.
        problems.append(f"minimum Hamming distance below alpha*d = {alpha * d}")
    return problems
