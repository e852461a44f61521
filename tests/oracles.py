"""Independent reference computations shared across test modules.

Everything here is deliberately computed by a different route than the
package: closed-form spectral catalogs from spectral graph theory, exact
KKT projections, and plain finite differences.
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize

from ranktopo.bounds import fano_bound, gv_packing
from ranktopo.graph import spectrum


def closed_form_spectrum(kind: str, d: int, m1: int | None = None,
                         m2: int | None = None) -> np.ndarray | None:
    """Scaled-Laplacian spectra of the canonical topologies.

    Regular-Laplacian spectra come from standard spectral graph theory;
    dividing by the exact edge count gives the scaled versions.  The
    barbell entry comes from the equitable-partition quotient: within-clique
    difference vectors give eigenvalue k = d/2, and the 4-node quotient
    contributes {0, k} (symmetric sector) plus the roots of
    x^2 - (k+2)x + 2 (antisymmetric sector).  The expander has no closed
    form, only a spectral-gap guarantee; None is returned.
    """
    if kind == "complete":
        return np.sort(np.array([0.0] + [2.0 / (d - 1)] * (d - 1)))
    if kind == "star":
        return np.sort(np.array([0.0] + [1.0 / (d - 1)] * (d - 2) + [d / (d - 1)]))
    if kind == "path":
        vals = [2.0 * (1 - math.cos(math.pi * i / d)) / (d - 1) for i in range(d)]
        return np.sort(np.array(vals))
    if kind == "cycle":
        vals = [2.0 * (1 - math.cos(2 * math.pi * i / d)) / d for i in range(d)]
        return np.sort(np.array(vals))
    if kind == "complete_bipartite":
        assert m1 is not None and m2 is not None and m1 + m2 == d
        vals = [0.0] + [1.0 / m1] * (m1 - 1) + [1.0 / m2] * (m2 - 1) + [1.0 / m1 + 1.0 / m2]
        return np.sort(np.array(vals))
    if kind == "lattice2d":
        assert m1 is not None and m2 is not None and m1 * m2 == d
        edges = m1 * (m2 - 1) + m2 * (m1 - 1)
        vals = [
            2.0 * (2 - math.cos(math.pi * i / m1) - math.cos(math.pi * j / m2)) / edges
            for i in range(m1) for j in range(m2)
        ]
        return np.sort(np.array(vals))
    if kind == "hypercube":
        m = d.bit_length() - 1
        assert 1 << m == d
        vals = []
        for i in range(m + 1):
            vals += [4.0 * i / (d * m)] * math.comb(m, i)
        return np.sort(np.array(vals))
    if kind == "barbell":
        assert d % 2 == 0
        k = d // 2
        edges = k * (k - 1) + 1
        disc = math.sqrt((k + 2) ** 2 - 8)
        lam_minus = ((k + 2) - disc) / 2
        lam_plus = ((k + 2) + disc) / 2
        vals = [0.0, lam_minus / edges, lam_plus / edges] + [k / edges] * (2 * k - 3)
        return np.sort(np.array(vals))
    if kind == "expander":
        return None
    raise ValueError(kind)


def exact_projection(x: np.ndarray, B: float) -> np.ndarray:
    """KKT-exact projection onto {sum v = 0, |v|_inf <= B} via bisection.

    The Lagrangian stationarity condition is v = clip(x - mu, -B, B) with
    the multiplier mu solving sum v(mu) = 0; the sum is continuous and
    nonincreasing in mu, so bisection nails mu to machine precision.  It
    stops once the midpoint rounds onto an endpoint: no float lies between.
    """
    x = np.asarray(x, dtype=float)
    lo = float(np.min(x)) - B - 1.0
    hi = float(np.max(x)) + B + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.sum(np.clip(x - mid, -B, B)) > 0:
            lo = mid
        else:
            hi = mid
    return np.clip(x - 0.5 * (lo + hi), -B, B)


def fd_gradient(fun, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fun(hi) - fun(lo)) / (2 * step)
    return grad


def fd_hessian(fun, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pp = x.copy(); pp[i] += step; pp[j] += step
            pm = x.copy(); pm[i] += step; pm[j] -= step
            mp = x.copy(); mp[i] -= step; mp[j] += step
            mm = x.copy(); mm[i] -= step; mm[j] -= step
            hess[i, j] = (fun(pp) - fun(pm) - fun(mp) + fun(mm)) / (4 * step * step)
    return 0.5 * (hess + hess.T)


def measurement_matrix(design) -> np.ndarray:
    """One differencing row per design edge (the even-allocation X)."""
    rows = np.zeros((len(design.edges), design.d))
    for i, (j, k, _) in enumerate(design.edges):
        rows[i, j] = 1.0
        rows[i, k] = -1.0
    return rows


def gv_word_draw(rng, rows: int, d: int) -> np.ndarray:
    """The package's candidate draw for a GV packing, as a 0/1 matrix.

    The package draws ceil(d/64) uniform uint64 words per candidate;
    coordinate i is bit i % 64 of word i // 64, read here with shifts, and
    the first coordinate is pinned to zero.
    """
    words = rng.integers(0, 2**64, size=(rows, (d + 63) // 64), dtype=np.uint64)
    i = np.arange(d)
    bits = (words[:, i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)
    bits = bits.astype(np.uint8)
    bits[:, 0] = 0
    return bits


def gv_distinct_packing(d: int, target: int, seed, max_rejects: int) -> np.ndarray:
    """The distinctness branch of the GV packing, one candidate at a time.

    Draws the same batches from the same generator as the package, and
    keeps a candidate when its bytes were not seen before, stopping at the
    target or once more than max_rejects candidates were discarded.
    """
    rng = np.random.default_rng(seed)
    seen = set()
    rows = []
    rejects = 0
    while len(rows) < target and rejects <= max_rejects:
        batch = max(target - len(rows) + 1024, 4096)
        for row in gv_word_draw(rng, batch, d):
            key = row.tobytes()
            if key in seen:
                rejects += 1
                if rejects > max_rejects:
                    break
                continue
            seen.add(key)
            rows.append(row)
            if len(rows) == target:
                break
    return np.array(rows, dtype=np.uint8).reshape(-1, d)


def gv_distance_packing(d: int, alpha: float, target: int, seed,
                        max_rejects: int) -> np.ndarray:
    """The distance branch of the GV packing, one candidate at a time.

    Draws the same 1,024-row batches from the same generator as the
    package, and keeps a candidate when it differs from every kept vector
    in at least alpha*d coordinates, stopping at the target or once more
    than max_rejects candidates were discarded.
    """
    rng = np.random.default_rng(seed)
    matrix = np.zeros((0, d), dtype=np.uint8)
    rejects = 0
    while matrix.shape[0] < target and rejects <= max_rejects:
        for cand in gv_word_draw(rng, 1024, d):
            if matrix.shape[0] and np.sum(matrix != cand, axis=1).min() < alpha * d:
                rejects += 1
                if rejects > max_rejects:
                    break
                continue
            matrix = np.vstack([matrix, cand])
            if matrix.shape[0] == target:
                break
    return matrix


def project_feasible_formula(x: np.ndarray, B: float) -> np.ndarray:
    """The breakpoint projection onto {sum w = 0, |w|_inf <= B}, written
    with ``np.diff``, a concatenated cumulative sum and ``np.clip``.

    The package evaluates the same formula with plain ufunc calls; the two
    must agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    bps = np.concatenate([x - B, x + B])
    order = np.argsort(bps, kind="stable")
    bps = bps[order]
    free = np.cumsum(np.where(order < d, 1, -1))  # free entries past each breakpoint
    sums = d * B - np.concatenate([[0.0], np.cumsum(free[:-1] * np.diff(bps))])
    k = int(np.searchsorted(-sums, 0.0, side="right")) - 1  # last sum >= 0
    tau = bps[k] + sums[k] / free[k] if sums[k] > 0 else bps[k]
    return np.clip(x - tau, -B, B)


def lower_bound_statistic_loop(pinv_diag: np.ndarray) -> float:
    """max over d' in {2..d} of sum_{i=floor(0.99 d')}^{d'} q_i, one window
    sum per d' (1-based indices into the ascending pseudo-inverse diagonal)."""
    best = 0.0
    for d_prime in range(2, pinv_diag.size + 1):
        lo = int(math.floor(0.99 * d_prime))
        best = max(best, float(np.sum(pinv_diag[lo - 1:d_prime])))
    return best


def unweighted_edge_arrays(d: int, j: np.ndarray, k: np.ndarray):
    """Even budget over an edge multiset, by way of float (j, k, w) rows.

    Repeated pairs merge through np.unique on the (min, max) pair codes,
    which are decoded with // and %; each merged edge gets count / |E|.
    Returns the (intp, intp, float64) columns of the row matrix.
    """
    codes, counts = np.unique(np.minimum(j, k) * d + np.maximum(j, k), return_counts=True)
    rows = np.column_stack([codes // d, codes % d, counts / counts.sum()])
    return rows[:, 0].astype(np.intp), rows[:, 1].astype(np.intp), rows[:, 2].copy()


def laplacian_four_entry(d: int, j: np.ndarray, k: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_e w_e (e_j - e_k)(e_j - e_k)^T from one bincount over the four
    entries (jj, kk, jk, kj) of every edge, in edge order."""
    flat = np.stack([j * d + j, k * d + k, j * d + k, k * d + j], axis=1).ravel()
    vals = np.stack([w, w, -w, -w], axis=1).ravel()
    return np.bincount(flat, weights=vals, minlength=d * d).reshape(d, d)


def fano_dense_laplacian(design, params, n: float, alpha: float = 0.01,
                         variant: str = "lap", seed: int = 0,
                         packing_cap: int = 512) -> float:
    """The constructive Fano bound by the dense-Laplacian route.

    The proof recipe of ``bounds.fano_pipeline``, taken as a whole: the
    packing is mapped into item space, w = x U, and its Laplacian distances
    are read back through the d x d matrix, w L w^T.
    """
    if variant not in ("lap", "l2"):
        raise ValueError(f"unknown variant {variant!r}")
    if not design.connected:
        raise ValueError("the pipeline requires a connected design")
    summary = spectrum(design)
    d = design.d
    sigma, zeta, B = params.sigma, params.zeta, params.B
    sqrt_pinv = np.sqrt(summary.pinv_diag)

    if d <= 9:
        delta_sq = sigma**2 * math.log(2.0) / (8.0 * n * zeta)
        if variant == "lap":
            z = np.zeros((3, d))
            z[0, -1] = -1.0
            z[1, -1] = 1.0
            w_set = math.sqrt(delta_sq / d) * (z * sqrt_pinv) @ summary.eigenvectors
        else:
            z = np.zeros((3, d))
            z[0, 1] = 1.0
            z[1, 1] = -1.0
            w_set = math.sqrt(delta_sq) * (z * sqrt_pinv) @ summary.eigenvectors
    else:
        packing = gv_packing(d, alpha, seed)
        if packing.shortfall:
            raise ValueError(
                f"greedy packing shortfall: found {packing.M} of {packing.target} vectors"
            )
        z = packing.vectors[:packing_cap].astype(float)
        if variant == "lap":
            delta_sq = 0.01 * sigma**2 * d / (n * zeta)
            w_set = math.sqrt(delta_sq / d) * (z * sqrt_pinv) @ summary.eigenvectors
        else:
            delta_sq = 0.01 * sigma**2 * d * d / (4.0 * n * zeta)
            # Pair heavily-used packing coordinates with small eigenvalues:
            # permute eigencoordinates 2..d so pair activity descends while
            # the eigenvalues ascend, keeping the mean KL small.
            counts = z.sum(axis=0)
            activity = counts * (z.shape[0] - counts)
            order = np.argsort(-activity[1:], kind="stable") + 1
            z_perm = np.zeros_like(z)
            z_perm[:, 0] = z[:, 0]
            z_perm[:, 1:] = z[:, order]
            w_set = math.sqrt(delta_sq / d) * z_perm @ summary.eigenvectors

    peak = float(np.max(np.abs(w_set)))
    if peak > B + 1e-12:
        raise ValueError(
            f"packing leaves the bound set (|w|_inf = {peak:.3g} > B = {B}); "
            "the sample-size condition is too tight for these constants"
        )
    m_count = w_set.shape[0]
    gram = w_set @ design.laplacian @ w_set.T
    diag = np.diag(gram)
    lap_dists = diag[:, None] + diag[None, :] - 2.0 * gram
    off = ~np.eye(m_count, dtype=bool)
    beta = float(n * zeta / sigma**2 * np.mean(np.maximum(lap_dists[off], 0.0)))
    if variant == "lap":
        separation = float(np.min(lap_dists[off]))
    else:
        sq = np.sum(w_set**2, axis=1)
        l2_dists = sq[:, None] + sq[None, :] - 2.0 * w_set @ w_set.T
        separation = float(np.min(l2_dists[off]))
    return fano_bound(max(separation, 0.0), beta, m_count)


def box_points(m: int, B: float) -> np.ndarray:
    """A sample of [-B, B]^m: a grid of 51 points per axis for m <= 3; for
    larger m the 2^m corners plus 4000 uniform draws from seed 0.  One point
    per row, stored column-major."""
    if m <= 3:
        mesh = np.meshgrid(*[np.linspace(-B, B, 51)] * m, indexing="ij")
        return np.stack([g.ravel() for g in mesh]).T
    corners = np.array(list(itertools.product((-float(B), float(B)), repeat=m)))
    rng = np.random.default_rng(0)
    return np.vstack([corners, rng.uniform(-B, B, size=(4000, m))])


def softmax_hessian(x: np.ndarray) -> np.ndarray:
    """Exact Hessian of -log F, diag(p) - p p^T with p = softmax(x), over leading axes."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p[..., None, :] * np.eye(p.shape[-1]) - p[..., :, None] * p[..., None, :]


def choice_prob_gradient(x: np.ndarray) -> np.ndarray:
    """Gradient p_0 (e_0 - p) of F = p_0, the first item's softmax probability."""
    e = np.exp(x - np.max(x))
    p = e / e.sum()
    g = -p[0] * p
    g[0] += p[0]
    return g


def choice_grad_sq(x: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """|grad F|^2 = p_0^2 S and |grad log F|^2 = S, S = |e_0 - p|^2, with their
    gradients in x, for F the first item's softmax probability p_0."""
    e = np.exp(x - np.max(x))
    p = e / e.sum()
    g = -p.copy()
    g[0] += 1.0
    s = float(g @ g)
    ds = -2.0 * p * (g - (p[0] - p @ p))
    dp0 = -p[0] * p
    dp0[0] += p[0]
    return p[0] ** 2 * s, s, 2.0 * p[0] * s * dp0 + p[0] ** 2 * ds, ds


def mwise_sups_multistart(m: int, B: float, starts: int = 150, seed: int = 0):
    """(sup |grad F|^2, sup |grad log F|^2) over [-B, B]^m, each the best of
    ``starts`` bounded L-BFGS-B ascents from uniform starting points."""
    rng = np.random.default_rng(seed)
    found = []
    for which in (0, 1):
        def neg(x):
            vals = choice_grad_sq(x)
            return -vals[which], -vals[2 + which]

        found.append(max(-minimize(neg, x0, jac=True, method="L-BFGS-B",
                                   bounds=[(-B, B)] * m).fun
                         for x0 in rng.uniform(-B, B, size=(starts, m))))
    return tuple(found)


def choice_draws(weights: np.ndarray, n: int, rng) -> np.ndarray:
    """n design-entry draws made the way numpy's Generator.choice makes them."""
    return rng.choice(len(weights), size=n, p=weights)


def ordinal_outcomes_per_sample(link, values: np.ndarray, design, comparisons: np.ndarray,
                                rng) -> np.ndarray:
    """+-1 outcomes, each from its own sample's score difference."""
    j, k, _ = design.edge_arrays
    p_win = link.win_probability(values[j[comparisons]] - values[k[comparisons]])
    return np.where(rng.random(len(comparisons)) < p_win, 1, -1)


def mwise_winners_row_major(link, values: np.ndarray, design, comparisons: np.ndarray,
                            rng) -> np.ndarray:
    """0-based winning positions, each sample's probabilities taken along its
    own row of an (n, m) score array."""
    probs = link.position_probs(values[design.subsets[comparisons]])
    cum = np.cumsum(probs, axis=1)
    winners = np.sum(rng.random(len(comparisons))[:, None] >= cum, axis=1).astype(int)
    return np.clip(winners, 0, link.m - 1)


def kl_per_entry(w1, w2, design, link, n: float) -> float:
    """n times the per-sample KL between the observation laws at w1 and w2,
    summed entry by entry: the Bernoulli KL of each edge's win probability
    F((w_j - w_k)/sigma) at the edge's weight, or the categorical KL of each
    listed subset's softmax at weight 1/S."""
    total = 0.0
    if hasattr(design, "subsets"):
        for subset in design.subsets.tolist():
            z1 = sum(math.exp(w1[i]) for i in subset)
            z2 = sum(math.exp(w2[i]) for i in subset)
            for i in subset:
                p, q = math.exp(w1[i]) / z1, math.exp(w2[i]) / z2
                total += p * math.log(p / q) / len(design.subsets)
        return n * total
    for j, k, weight in design.edges:
        p = float(link.cdf(np.float64((w1[j] - w1[k]) / link.sigma)))
        q = float(link.cdf(np.float64((w2[j] - w2[k]) / link.sigma)))
        total += weight * (p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q)))
    return n * total
