"""Executable minimax bounds: KL divergences, packings, Fano, theorem reports.

Unnamed constants in the theorems default to 1.0 and are threaded through
every report, so the numbers produced here are honest "up to constants"
quantities; tests assert scalings, never the constants themselves.  The
Fano pipeline goes further and executes the lower-bound proof recipe
end to end, producing a fully constructive numeric bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .estimate import error_metrics
from .graph import ComparisonDesign, HyperDesign, lower_bound_statistic, spectrum
from .models import (LinkFunction, ModelParams, MWiseLink, box_points, make_link,
                     model_params, softmax)
from .synth import _values

THEOREMS = ("T1_lap", "T2_l2", "T3_paired", "T4_mwise_lap", "T4_mwise_l2")


@dataclass(frozen=True)
class BoundConstants:
    """The numerical constants c_* of the theorems, all defaulting to 1."""

    c1l: float = 1.0
    c1u: float = 1.0
    c2l: float = 1.0
    c2u: float = 1.0
    c3l: float = 1.0
    c3u: float = 1.0
    c4l: float = 1.0
    c4u: float = 1.0
    c_sample: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundReport:
    lower: float
    upper: float
    applicable: bool
    constants: BoundConstants
    formula: str
    context: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lower < 0 or self.upper < 0:
            raise ValueError("bounds must be nonnegative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "formula": self.formula,
                "lower": self.lower,
                "upper": self.upper,
                "applicable": self.applicable,
                "constants": self.constants.as_dict(),
                **self.context,
            }
        )


# ---------------------------------------------------------------------------
# KL divergences
# ---------------------------------------------------------------------------


def kl_exact(w1, w2, design: ComparisonDesign | HyperDesign,
             link: LinkFunction | MWiseLink, n: float) -> float:
    """KL divergence between the n-sample observation laws at w1 and w2.

    Pairwise designs contribute Bernoulli KLs per edge, hyper designs
    categorical KLs per subset, each weighted by the expected number of
    samples the design allocates to that entry.
    """
    a, b = _values(w1), _values(w2)
    if a.shape != b.shape or a.shape != (design.d,):
        raise ValueError("quality vectors must both have the design's dimension")
    if isinstance(design, HyperDesign):
        if not isinstance(link, MWiseLink):
            raise ValueError("hyper designs need an m-wise link")
        scores1 = a[design.subsets]
        scores2 = b[design.subsets]
        lp1 = link.log_position_probs(scores1)
        lp2 = link.log_position_probs(scores2)
        per_subset = np.sum(np.exp(lp1) * (lp1 - lp2), axis=1)
        return float(n * np.mean(per_subset))
    if not isinstance(link, LinkFunction):
        raise ValueError("pairwise designs need a pairwise link")
    j_idx, k_idx, weights = design.edge_arrays
    t1 = (a[j_idx] - a[k_idx]) / link.sigma
    t2 = (b[j_idx] - b[k_idx]) / link.sigma
    p1 = link.cdf(t1)
    # Bernoulli KL written with log F(t) and log F(-t) = log(1 - F(t)).
    per_edge = (p1 * (link.log_cdf(t1) - link.log_cdf(t2))
                + (1.0 - p1) * (link.log_cdf(-t1) - link.log_cdf(-t2)))
    return float(n * np.sum(weights * per_edge))


def kl_upper(w1, w2, design: ComparisonDesign, params: ModelParams, n: float) -> float:
    """The Laplacian-seminorm KL bound (n zeta / sigma^2) |w1 - w2|_L^2,
    with the seminorm summed edge by edge as ``error_metrics`` does.

    Dominates kl_exact whenever both vectors lie in the bound set for
    params.B, the domain on which the bound is valid; membership is
    enforced here.
    """
    for v in (_values(w1), _values(w2)):
        if float(np.max(np.abs(v))) > params.B + 1e-12:
            raise ValueError("KL upper bound requires |w|_inf <= B")
    return n * params.zeta / params.sigma**2 * error_metrics(w1, w2, design).sq_lap


# ---------------------------------------------------------------------------
# Gilbert-Varshamov packing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackingSet:
    """Binary packing vectors with first coordinate pinned to zero."""

    vectors: np.ndarray  # M x d, entries in {0, 1}
    alpha: float
    M: int
    target: int
    shortfall: bool

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.M:
            raise ValueError("vector matrix must be M x d")


def gv_target(d: int, alpha: float) -> int:
    """Packing cardinality floor(exp{(d/2)(log2 + 2a log 2a + (1-2a)log(1-2a))})."""
    if not (0.0 < alpha < 0.25):
        raise ValueError(f"alpha must lie in (0, 1/4), got {alpha}")
    inner = math.log(2.0) + 2 * alpha * math.log(2 * alpha) \
        + (1 - 2 * alpha) * math.log(1 - 2 * alpha)
    try:
        return int(math.floor(math.exp(d / 2.0 * inner)))
    except OverflowError:
        raise ValueError(f"the GV packing target overflows a float at d={d}, "
                         f"alpha={alpha}") from None


# Packed words of candidate pairs the GV screen compares at a time (8 MB).
_PAIR_WORDS = 1 << 20


def _range_keys(rows: np.ndarray, edges: list[int]) -> np.ndarray:
    """The first (at most 64) bits of each bit range [edges[r], edges[r+1])
    of every packed row, one uint64 key row per range."""
    keys = np.empty((len(edges) - 1, rows.shape[0]), dtype=np.uint64)
    for key, lo, hi in zip(keys, edges[:-1], edges[1:]):
        (word, shift), width = divmod(lo, 64), min(hi - lo, 64)
        key[:] = rows[:, word] >> np.uint64(shift)
        if shift + width > 64:
            key |= rows[:, word + 1] << np.uint64(64 - shift)
        key &= np.uint64(2**width - 1)
    return keys


def _key_groups(key: np.ndarray) -> np.ndarray:
    """The rows whose key repeats, grouped by key and in scan order within a
    group.  A sort tells whether any key repeats; only then are rows argsorted."""
    ordered = np.sort(key)
    if not (ordered[1:] == ordered[:-1]).any():
        return np.zeros(0, dtype=np.intp)
    order = np.argsort(key)
    same = key[order[1:]] == key[order[:-1]]
    tied = order[np.r_[same, False] | np.r_[False, same]]
    return tied[np.lexsort((tied, key[tied]))]


def _close_pairs(rows, keys, groups, need: int, split: int, bound: int):
    """Pairs (i, j), i < j, of rows in one key group, with i < bound and
    j >= split, at Hamming distance below need.  Each pair comes once, from
    the first range whose keys tie, in arrays of about _PAIR_WORDS words."""
    for r, (key, tied) in enumerate(zip(keys, groups)):
        new = np.r_[True, key[tied[1:]] != key[tied[:-1]]][:tied.size]
        starts = np.flatnonzero(new)
        sizes = np.diff(starts, append=tied.size)
        group_start = np.repeat(starts, sizes)
        partners = np.repeat(np.add.reduceat(tied < bound, starts, dtype=np.intp), sizes)
        earlier = np.minimum(np.arange(tied.size) - group_start, partners) * (tied >= split)
        total = np.cumsum(earlier)
        lo = 0
        while lo < tied.size:
            cap = total[lo] - earlier[lo] + _PAIR_WORDS // rows.shape[1]
            hi = max(lo + 1, int(np.searchsorted(total, cap, "right")))
            e = earlier[lo:hi]
            offsets = np.arange(e.sum()) - np.repeat(np.cumsum(e) - e, e)
            i, j = tied[np.repeat(group_start[lo:hi], e) + offsets], np.repeat(tied[lo:hi], e)
            close = np.bitwise_count(rows[i] ^ rows[j]).sum(axis=1, dtype=np.uint16) < need
            i, j = i[close], j[close]
            once = ~(keys[:r, i] == keys[:r, j]).any(axis=0)
            yield i[once], j[once]
            lo = hi


def _fresh(kept: np.ndarray, words: np.ndarray, edges: list[int], need: int) -> np.ndarray:
    """Whether each row of words lies at Hamming distance >= need from every
    kept row and from every earlier row of words that is itself fresh.

    Rows closer than need differ in at most need - 1 bits, so they agree on
    one of the need ranges between edges; only rows whose range keys tie
    are compared, exactly, over all words.  The batch is screened against
    the kept rows first, then the conflicts among the rows left are settled
    in scan order.
    """
    split, n = kept.shape[0], kept.shape[0] + words.shape[0]
    rows = np.concatenate([kept, words])
    keys = _range_keys(rows, edges)
    groups = [_key_groups(key) for key in keys]
    fresh = np.ones(n, dtype=bool)
    for _, j in _close_pairs(rows, keys, groups, need, split, split):
        fresh[j] = False
    groups = [tied[fresh[tied] & (tied >= split)] for tied in groups]
    pairs = [np.zeros((2, 0), dtype=np.intp)]
    pairs += [np.stack(pair) for pair in _close_pairs(rows, keys, groups, need, split, n)]
    pairs = np.concatenate(pairs, axis=1)
    for i, j in pairs[:, np.argsort(pairs[0], kind="stable")].T.tolist():
        if fresh[i]:
            fresh[j] = False
    return fresh[split:]


def gv_packing(d: int, alpha: float, seed=0, max_rejects: int = 1_000_000) -> PackingSet:
    """Greedy randomised construction of a GV packing.

    Draws uniform binary vectors with first coordinate zero, keeping those
    at squared Hamming distance >= alpha*d from everything kept so far,
    until the Eq.-24 target is reached or max_rejects candidates have been
    discarded (the non-constructive existence bound says nothing about
    constructibility, so shortfalls are reported, not hidden).

    Candidates are drawn directly as packed words, ceil(d/64) uint64 per
    vector: coordinate i is bit i % 64 of word i // 64, with bit 0 and the
    padding bits of the last word cleared.  The result is that of a
    one-candidate-at-a-time scan over those draws; the word stream does
    not depend on how it is cut into batches, so the first batch is small
    and later ones are sized by the share of draws kept so far.  One exact
    screen serves every alpha: bits 1..d-1 are split into ceil(alpha*d)
    ranges, and two vectors closer than alpha*d agree on a whole range, so
    only rows whose range keys tie are compared (multi-index hashing,
    Norouzi, Punjani & Fleet 2012).  With alpha*d <= 1 there is one range
    and the screen is a distinctness test.  The kept words are unpacked to
    an M x d 0/1 matrix once, at the end.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    target = gv_target(d, alpha)
    rng = np.random.default_rng(seed)
    need = math.ceil(alpha * d)  # integer distances: dist < alpha*d iff dist < need
    edges = [1 + r * (d - 1) // need for r in range(need + 1)]
    n_words = (d + 63) // 64
    mask = np.full(n_words, np.iinfo(np.uint64).max, dtype=np.uint64)
    mask[-1] >>= np.uint64(64 * n_words - d)
    mask[0] &= ~np.uint64(1)
    kept_words = np.zeros((0, n_words), dtype=np.uint64)
    kept = rejects = 0
    while kept < target and rejects <= max_rejects:
        # The scan ends at the candidate that reaches the target or takes
        # the rejects past max_rejects.
        wanted, spare = target - kept, max_rejects - rejects
        # A small first batch keeps a stream of close draws cheap; later
        # batches are sized by the share of draws kept so far.
        guess = wanted * (kept + rejects) // kept if kept else min(wanted, 128)
        batch = min(guess + wanted // 256 + 16, wanted + spare + 1)
        words = rng.integers(0, 2**64, size=(batch, n_words), dtype=np.uint64) & mask
        fresh = _fresh(kept_words, words, edges, need)
        kept_at = np.flatnonzero(fresh)
        take = min(kept_at.size, wanted)
        end = int(kept_at[take - 1]) + 1 if take == wanted else batch
        if end - take > spare:
            end = int(np.flatnonzero(~fresh)[spare]) + 1
            take = end - spare - 1
        kept_words = np.concatenate([kept_words, words[kept_at[:take]]])
        kept, rejects = kept + take, rejects + end - take
    little = kept_words.astype("<u8", copy=False).view(np.uint8)
    vectors = np.unpackbits(little, axis=1, count=d, bitorder="little")
    return PackingSet(vectors=vectors, alpha=alpha, M=kept, target=target,
                      shortfall=kept < target)


def fano_bound(delta_sq: float, beta: float, M: int) -> float:
    """delta^2/2 (1 - (beta + log 2)/log M), clamped below at zero."""
    if M < 2:
        raise ValueError(f"Fano needs a packing of size >= 2, got M={M}")
    if delta_sq < 0 or beta < 0:
        raise ValueError("delta_sq and beta must be nonnegative")
    return max(0.0, delta_sq / 2.0 * (1.0 - (beta + math.log(2.0)) / math.log(M)))


# ---------------------------------------------------------------------------
# m-wise pre-factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MWisePrefactors:
    """Box extrema of the link quantities entering the m-wise theorem."""

    inf_choice_prob: float
    sup_grad_hdag_sq: float
    sup_grad_log_sq: float
    lambda2_h: float
    lambda_m_h: float

    @cached_property
    def zeta(self) -> float:
        """sup |grad F|^2_{H^dagger} / inf F, the m-wise KL coefficient."""
        return self.sup_grad_hdag_sq / self.inf_choice_prob


def mwise_prefactors(link: MWiseLink) -> MWisePrefactors:
    """Box extrema of the m-wise link quantities over [-B, B]^m.

    With H = beta (I - 11^T/m), both lambda_2(H) and lambda_m(H) are beta,
    and since grad F is orthogonal to 1, |grad F|^2_{H^dagger} is
    |grad F|^2 / beta.
    """
    points = box_points(link.m, link.B)
    p = softmax(points, axis=1)
    grad_f = link.grad_choice_prob(points)
    grad_log = -p.copy()
    grad_log[:, 0] += 1.0
    return MWisePrefactors(
        inf_choice_prob=float(p[:, 0].min()),
        sup_grad_hdag_sq=float(np.max(np.sum(grad_f**2, axis=1))) / link.beta,
        sup_grad_log_sq=float(np.max(np.sum(grad_log**2, axis=1))),
        lambda2_h=link.beta,
        lambda_m_h=link.beta,
    )


# ---------------------------------------------------------------------------
# Theorem reports
# ---------------------------------------------------------------------------


def minimax_bounds(theorem: str, design: ComparisonDesign | HyperDesign,
                   params: ModelParams | MWiseLink, n: float,
                   constants: BoundConstants = BoundConstants()) -> BoundReport:
    """Evaluate one of the minimax lower/upper bound formula pairs.

    T1_lap / T2_l2 / T3_paired take a ComparisonDesign with ModelParams;
    T4_mwise_lap / T4_mwise_l2 take a HyperDesign with an MWiseLink.  The
    applicable flag records whether the lower bound's sample-size
    condition holds; formulas are evaluated either way.  The T1 lower
    bound is the per-dimension rate sigma^2 / (zeta n).
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    if n <= 0:
        raise ValueError("n must be positive")
    summary = spectrum(design)
    d = design.d
    if summary.lambda2 <= 0:
        raise ValueError("bounds require a connected design")

    if theorem.startswith("T4"):
        if not isinstance(design, HyperDesign) or not isinstance(params, MWiseLink):
            raise ValueError("T4 needs a HyperDesign and an MWiseLink")
        link = params
        pre = mwise_prefactors(link)
        m = link.m
        lower_pref = pre.inf_choice_prob / (m**2 * pre.lambda_m_h * pre.sup_grad_hdag_sq)
        upper_pref = m**2 * pre.sup_grad_log_sq / pre.lambda2_h**2
        applicable = n >= constants.c_sample * summary.trace_pinv / (
            pre.zeta * link.B**2 * pre.lambda_m_h)
        if theorem == "T4_mwise_lap":
            lower = constants.c4l * lower_pref * d / n
            upper = constants.c4u * upper_pref * d / n
        else:
            lower = constants.c4l * lower_pref * d * d / n
            # Euclidean upper bound: the seminorm bound divided by the
            # algebraic connectivity.
            upper = constants.c4u * upper_pref * d / (summary.lambda2 * n)
        context = {"theorem": theorem, "d": d, "m": m, "n": n, "B": link.B,
                   "prefactors": {"inf_F": pre.inf_choice_prob,
                                  "sup_grad_hdag_sq": pre.sup_grad_hdag_sq,
                                  "sup_grad_log_sq": pre.sup_grad_log_sq,
                                  "lambda2_H": pre.lambda2_h,
                                  "lambda_m_H": pre.lambda_m_h}}
        return BoundReport(lower, upper, applicable, constants, theorem, context)

    if not isinstance(design, ComparisonDesign) or not isinstance(params, ModelParams):
        raise ValueError(f"{theorem} needs a ComparisonDesign and ModelParams")
    sigma, zeta, gamma, B = params.sigma, params.zeta, params.gamma, params.B
    sample_floor = constants.c_sample * sigma**2 * summary.trace_pinv / (zeta * B**2)
    applicable = n >= sample_floor
    context = {"theorem": theorem, "d": d, "n": n, "sigma": sigma, "B": B,
               "gamma": gamma, "zeta": zeta, "lambda2": summary.lambda2,
               "trace_pinv": summary.trace_pinv, "sample_floor": sample_floor}

    if theorem == "T1_lap":
        lower = constants.c1l * sigma**2 / (zeta * n)
        upper = constants.c1u * (zeta / gamma) * sigma**2 * d / n
    elif theorem == "T2_l2":
        stat = max(float(d * d), lower_bound_statistic(summary))
        lower = constants.c2l * sigma**2 / n * stat
        upper = constants.c2u * (zeta / gamma) * sigma**2 * d / (summary.lambda2 * n)
        context["lb_statistic"] = stat
    else:  # T3_paired
        lower = constants.c3l * sigma**2 * summary.trace_pinv / n
        upper = constants.c3u * sigma**2 * summary.trace_pinv / n
        applicable = True
    return BoundReport(lower, upper, applicable, constants, theorem, context)


# ---------------------------------------------------------------------------
# Cardinal versus ordinal decision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CvoReport:
    decision: str  # ordinal_better | cardinal_better | indeterminate
    b_l: float
    b_u: float
    b: int
    sigma_ord: float
    sigma_card: float
    B: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def cvo_decision(sigma_ord: float, sigma_card: float, B: float,
                 constants: BoundConstants = BoundConstants()) -> CvoReport:
    """Choose between comparison and numeric-score elicitation.

    The b-factors specialise the Euclidean theorem to the Gaussian link;
    ordinal elicitation wins when b_u sigma^2 < sigma_c^2, cardinal when
    b_l sigma^2 > sigma_c^2, and with loose default constants a genuine
    indeterminate band remains in between.
    """
    if sigma_ord <= 0 or sigma_card <= 0 or B <= 0:
        raise ValueError("all scales must be positive")
    params = model_params(make_link("thurstone", sigma_ord), B)
    zeta_g, gamma_g = params.zeta, params.gamma
    b_l = constants.c2l / zeta_g
    b_u = constants.c2u * zeta_g / gamma_g
    b = int(math.ceil(constants.c_sample * sigma_ord**2 / (zeta_g * B**2)))
    if b_u * sigma_ord**2 < sigma_card**2:
        decision = "ordinal_better"
    elif b_l * sigma_ord**2 > sigma_card**2:
        decision = "cardinal_better"
    else:
        decision = "indeterminate"
    return CvoReport(decision, b_l, b_u, b, sigma_ord, sigma_card, B)


# ---------------------------------------------------------------------------
# Constructive Fano pipeline
# ---------------------------------------------------------------------------


def _sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x, with an exactly
    zero diagonal: s_i + s_i - 2 g_ii is 2 s_i - 2 s_i."""
    gram = x @ x.T
    sq = np.diag(gram)
    return sq[:, None] + sq[None, :] - 2.0 * gram


def fano_pipeline(design: ComparisonDesign, params: ModelParams, n: float,
                  alpha: float = 0.01, variant: str = "lap", seed: int = 0,
                  packing_cap: int = 512) -> float:
    """Execute the lower-bound proof recipe and return the numeric bound.

    Builds a packing (the three-vector proof set for d <= 9, else a GV
    packing) as eigen-coordinates x, one row per vector, maps it through
    the design's eigensystem L = U^T Lambda U into w = x U, verifies that
    w lies in the bound set, computes the mean KL through the seminorm
    bound, and applies the Fano inequality with the realised minimum
    separation.  U is orthogonal, so every distance is one of the
    eigen-coordinates: |w - w'|_L^2 = |(x - x') Lambda^{1/2}|^2 and
    |w - w'|^2 = |x - x'|^2.  variant 'lap' lower-bounds the squared
    Laplacian seminorm risk, variant 'l2' the squared Euclidean risk.

    Packings larger than packing_cap are truncated: any subset of a
    packing is still a packing, trading bound strength for tractable
    pairwise computations.
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
        # The origin and +-v along one eigenvector, |v|_L^2 = delta^2/d along
        # the largest eigenvalue's for 'lap', delta^2 along lambda_2's for 'l2'.
        delta_sq = sigma**2 * math.log(2.0) / (8.0 * n * zeta)
        col, radius_sq = (d - 1, delta_sq / d) if variant == "lap" else (1, delta_sq)
        coords = np.zeros((3, d))
        coords[:2, col] = [1.0, -1.0]
        coords *= math.sqrt(radius_sq) * sqrt_pinv
    else:
        packing = gv_packing(d, alpha, seed)
        if packing.shortfall:
            raise ValueError(
                f"greedy packing shortfall: found {packing.M} of {packing.target} vectors"
            )
        z = packing.vectors[:packing_cap].astype(float)
        if variant == "lap":
            delta_sq = 0.01 * sigma**2 * d / (n * zeta)
            coords = math.sqrt(delta_sq / d) * z * sqrt_pinv
        else:
            delta_sq = 0.01 * sigma**2 * d * d / (4.0 * n * zeta)
            # Pair heavily-used packing coordinates with small eigenvalues:
            # permute eigencoordinates 2..d so pair activity descends while
            # the eigenvalues ascend, keeping the mean KL small.
            counts = z.sum(axis=0)
            activity = counts * (z.shape[0] - counts)
            order = np.r_[0, np.argsort(-activity[1:], kind="stable") + 1]
            coords = math.sqrt(delta_sq / d) * z[:, order]

    m_count = coords.shape[0]
    if m_count < 2:
        raise ValueError(f"Fano needs a packing of size >= 2, got M={m_count}")
    w_set = coords @ summary.eigenvectors
    peak = float(np.max(np.abs(w_set)))
    if peak > B + 1e-12:
        raise ValueError(
            f"packing leaves the bound set (|w|_inf = {peak:.3g} > B = {B}); "
            "the sample-size condition is too tight for these constants"
        )
    lap_dists = _sq_dists(coords * np.sqrt(summary.eigenvalues))
    beta = float(n * zeta / sigma**2 * np.maximum(lap_dists, 0.0).sum()
                 / (m_count * (m_count - 1)))
    dists = lap_dists if variant == "lap" else _sq_dists(coords)
    np.fill_diagonal(dists, np.inf)
    return fano_bound(max(float(dists.min()), 0.0), beta, m_count)
