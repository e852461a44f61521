"""Executable minimax bounds: KL divergences, packings, Fano, theorem reports.

The theorems hold up to unnamed universal constants; the reports evaluate
each formula with every such constant set to 1, so the numbers produced
here are honest "up to constants" quantities and tests assert scalings,
never the constants themselves.  The Fano pipeline goes further and
executes the lower-bound proof recipe end to end, producing a fully
constructive numeric bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .estimate import error_metrics
from .graph import ComparisonDesign, HyperDesign, lower_bound_statistic, spectrum
from .models import LinkFunction, ModelParams, MWiseLink, make_link, model_params
from .synth import BOX_TOL, _values

THEOREMS = ("T1_lap", "T2_l2", "T3_paired", "T4_mwise_lap", "T4_mwise_l2")


@dataclass(frozen=True)
class BoundReport:
    lower: float
    upper: float
    applicable: bool
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
        if float(np.max(np.abs(v))) > params.B + BOX_TOL:
            raise ValueError("KL upper bound requires |w|_inf <= B")
    return n * params.zeta / params.sigma**2 * error_metrics(w1, w2, design).sq_lap


# ---------------------------------------------------------------------------
# Gilbert-Varshamov packing
# ---------------------------------------------------------------------------


def _unpack(words: np.ndarray, d: int) -> np.ndarray:
    """The read-only M x d 0/1 matrix of M rows of packed words."""
    rows = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), 1, d, bitorder="little")
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class PackingSet:
    """Binary packing vectors, first coordinate zero, as read-only uint64 words
    (bit i % 64 of word i // 64 is coordinate i), unpacked to ``vectors`` on first read."""

    words: np.ndarray
    d: int
    target: int

    @cached_property
    def vectors(self) -> np.ndarray:
        return _unpack(self.words, self.d)

    @property
    def M(self) -> int:
        return self.words.shape[0]

    @property
    def shortfall(self) -> bool:
        return self.M < self.target


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 0.25):
        raise ValueError(f"alpha must lie in (0, 1/4), got {alpha}")


def gv_target(d: int, alpha: float) -> int:
    """Packing cardinality floor(exp{(d/2)(log2 + 2a log 2a + (1-2a)log(1-2a))})."""
    _check_alpha(alpha)
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
    of every packed row, one uint64 key row per range.

    One range over a one-word row holds every bit the word may have set,
    so the word itself orders and ties as its key does and serves as it.
    """
    if len(edges) == 2 and rows.shape[1] == 1:
        return rows.T
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
    and the screen is a distinctness test.
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
        # Kept rows that open the batch are a prefix, taken without a gather.
        prefix = take == 0 or kept_at[take - 1] == take - 1
        kept_words = np.concatenate([kept_words, words[:take] if prefix
                                     else words[kept_at[:take]]])
        kept, rejects = kept + take, rejects + end - take
    kept_words.flags.writeable = False
    return PackingSet(kept_words, d, target)


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


def _class_sups(m: int, B: float) -> tuple[float, float]:
    """sup over [-B, B]^m of |grad F|^2 = p_0^2 S and of |grad log F|^2 = S.

    Here p = softmax(x), S = |e_0 - p|^2 and Q = sum_{i>=1} p_i^2.  Items
    1..m-1 enter both symmetrically, and for i >= 1
        d(p_0^2 S)/dx_i = 2 p_0^2 p_i (p_i - S - Q + p_0 (1 - p_0)),
        dS/dx_i = 2 p_i (p_i - Q + p_0 (1 - p_0)),
    each zero at one p_i, the same for every item inside the box.  So a
    maximiser has k items at +B, l at -B and the other r = m-1-k-l at one
    shared score.  In weights e^{x-B}, +B weighs 1, -B weighs q = e^{-2B},
    the shared items v and item 0 a, both in [q, 1].  With s = k + lq + rv,
    T = sum_{i>=1} (w_i/s)^2 and p_0 = a/(a+s), S = (1-p_0)^2 (1+T) and
    p_0^2 S = (p_0 (1-p_0))^2 (1+T).  S falls in a, so a = q; a/(a+s)^2
    peaks at a = s, so a = min(s, 1) for p_0^2 S.  In v, with R = k + lq and
    P = k + lq^2, S is stationary at v = (P - Rq)/(R + q(r+1)), p_0^2 S at
    a = 1 at the roots of r(r+1) v^2 - (1 + r + R - 2Rr) v - (R - R^2 - 2P),
    and p_0^2 S at a = s only at its minimum v = P/R.  So each class's sups
    lie at v = q, 1, (1-R)/r (where s = 1) or a stationary point, clipped to
    [q, 1]; all classes are evaluated at all six at once.  p_0 (1-p_0) is a
    product of two shares and T a sum of them: from B of about 177, a s
    is subnormal and (v/s)^2 overflows.
    """
    k, top = np.triu_indices(m)  # every k <= top < m: l = m-1-top gives each k + l <= m-1
    k, l = k[:, None].astype(float), (m - 1 - top)[:, None].astype(float)
    r, q = m - 1 - k - l, math.exp(-2.0 * B)
    big_r, big_p, rr = k + l * q, k + l * q * q, np.maximum(r, 1.0)  # a class with r = 0 ignores v
    b, den = 1.0 + r + big_r - 2.0 * big_r * r, 2.0 * rr * (rr + 1.0)
    root = np.sqrt(np.maximum(b * b + 4.0 * r * (r + 1.0) * (big_r - big_r**2 - 2.0 * big_p), 0.0))
    v = np.clip(np.hstack([np.full_like(k, q), np.ones_like(k), (1.0 - big_r) / rr,
                           (big_p - big_r * q) / (big_r + q * (r + 1.0)),
                           (b - root) / den, (b + root) / den]), q, 1.0)
    rv = r * v
    s = big_r + rv
    one_plus_t = 1.0 + k / s / s + l * (q / s) ** 2 + rv / s * (v / s)
    a = np.minimum(s, 1.0)
    return (float(np.max((a / (a + s) * (s / (a + s))) ** 2 * one_plus_t)),
            float(np.max((s / (q + s)) ** 2 * one_plus_t)))


def mwise_prefactors(link: MWiseLink) -> MWisePrefactors:
    """Box extrema of the m-wise link quantities over [-B, B]^m.

    inf F = 1/(1 + (m-1) e^{2B}), at x_0 = -B and every other item at +B.
    The two sups are exact maxima over classes (``_class_sups``).
    With H = beta (I - 11^T/m), both lambda_2(H) and lambda_m(H) are beta,
    and since grad F is orthogonal to 1, |grad F|^2_{H^dagger} is
    |grad F|^2 / beta.  A B at which beta^2 underflows (from about 186) is refused.
    """
    beta = link.beta
    if not beta * beta > 0:
        raise ValueError(f"B={link.B} is too wide: the m-wise curvature beta^2 underflows")
    sup_grad, sup_grad_log = _class_sups(link.m, link.B)
    return MWisePrefactors(
        inf_choice_prob=1.0 / (1.0 + (link.m - 1) * math.exp(2.0 * link.B)),
        sup_grad_hdag_sq=sup_grad / beta,
        sup_grad_log_sq=sup_grad_log,
        lambda2_h=beta,
        lambda_m_h=beta,
    )


# ---------------------------------------------------------------------------
# Theorem reports
# ---------------------------------------------------------------------------


def minimax_bounds(theorem: str, design: ComparisonDesign | HyperDesign,
                   params: ModelParams | MWiseLink, n: float) -> BoundReport:
    """Evaluate one of the minimax lower/upper bound formula pairs.

    T1_lap / T2_l2 / T3_paired take a ComparisonDesign with ModelParams;
    T4_mwise_lap / T4_mwise_l2 take a HyperDesign with an MWiseLink.  The
    applicable flag records whether the lower bound's sample-size
    condition holds; formulas are evaluated either way.  The T1 lower
    bound is the per-dimension rate sigma^2 / (zeta n).
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    if not n > 0:
        raise ValueError(f"n must be positive, got {n}")
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
        if not (0 < lower_pref and upper_pref < math.inf):
            raise ValueError(f"B={link.B} is too wide: T4 prefactors {lower_pref}, {upper_pref}")
        applicable = n >= summary.trace_pinv / (pre.zeta * link.B**2 * pre.lambda_m_h)
        if theorem == "T4_mwise_lap":
            lower = lower_pref * d / n
            upper = upper_pref * d / n
        else:
            lower = lower_pref * d * d / n
            # Euclidean upper bound: the seminorm bound divided by the
            # algebraic connectivity.
            upper = upper_pref * d / (summary.lambda2 * n)
        context = {"theorem": theorem, "d": d, "m": m, "n": n, "B": link.B,
                   "prefactors": {"inf_F": pre.inf_choice_prob,
                                  "sup_grad_hdag_sq": pre.sup_grad_hdag_sq,
                                  "sup_grad_log_sq": pre.sup_grad_log_sq,
                                  "lambda2_H": pre.lambda2_h,
                                  "lambda_m_H": pre.lambda_m_h}}
        return BoundReport(lower, upper, applicable, theorem, context)

    if not isinstance(design, ComparisonDesign) or not isinstance(params, ModelParams):
        raise ValueError(f"{theorem} needs a ComparisonDesign and ModelParams")
    sigma, zeta, gamma, B = params.sigma, params.zeta, params.gamma, params.B
    sample_floor = sigma**2 * summary.trace_pinv / (zeta * B**2)
    applicable = n >= sample_floor
    context = {"theorem": theorem, "d": d, "n": n, "sigma": sigma, "B": B,
               "gamma": gamma, "zeta": zeta, "lambda2": summary.lambda2,
               "trace_pinv": summary.trace_pinv, "sample_floor": sample_floor}

    if theorem == "T1_lap":
        lower = sigma**2 / (zeta * n)
        upper = (zeta / gamma) * sigma**2 * d / n
    elif theorem == "T2_l2":
        stat = max(float(d * d), lower_bound_statistic(summary))
        lower = sigma**2 / n * stat
        upper = (zeta / gamma) * sigma**2 * d / (summary.lambda2 * n)
        context["lb_statistic"] = stat
    else:  # T3_paired
        lower = upper = sigma**2 * summary.trace_pinv / n
        applicable = True
    return BoundReport(lower, upper, applicable, theorem, context)


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


def cvo_decision(sigma_ord: float, sigma_card: float, B: float) -> CvoReport:
    """Choose between comparison and numeric-score elicitation.

    The b-factors specialise the Euclidean theorem to the Gaussian link;
    ordinal elicitation wins when b_u sigma^2 < sigma_c^2, cardinal when
    b_l sigma^2 > sigma_c^2, and with every constant set to 1 a genuine
    indeterminate band remains in between.
    """
    if not (sigma_ord > 0 and sigma_card > 0 and B > 0):
        raise ValueError(f"all scales must be positive, got sigma_ord={sigma_ord}, "
                         f"sigma_card={sigma_card}, B={B}")
    params = model_params(make_link("thurstone", sigma_ord), B)
    zeta_g, gamma_g = params.zeta, params.gamma
    b_l = 1.0 / zeta_g
    b_u = zeta_g / gamma_g
    b = int(math.ceil(sigma_ord**2 / (zeta_g * B**2)))
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


def _min_hamming(words: np.ndarray) -> int:
    """Smallest Hamming distance between two packed rows, by XOR popcounts a word at a time."""
    dists = np.zeros((words.shape[0],) * 2, dtype=np.intp)
    for word in words.T:
        dists += np.bitwise_count(word[:, None] ^ word)
    return int(dists[np.triu_indices(words.shape[0], 1)].min())


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

    Fano reads only the smallest distance and the mean seminorm distance,
    and neither needs the M x M distances.  The proof set {+v, -v, 0} has
    squared distances |v|^2, |v|^2 and 4|v|^2 in either norm: minimum
    |v|^2, mean 2|v|^2 over ordered pairs.  A GV row x is c z with z a 0/1
    row, scaled by Lambda^{dagger 1/2} for 'lap', so a squared distance is
    c^2 sum_k a_k (z_k - z'_k)^2 with a_k = lambda_k lambda_k^dagger (1 on
    the nonzero spectrum, 0 elsewhere) for the seminorm under 'lap', a_k = 1
    for the Euclidean norm under 'l2' and a_k = lambda_k for the seminorm
    under 'l2'.  Minima are c^2 times integer Hamming distances, and the
    mean over ordered pairs is c^2 sum_k a_k 2 n_k (M - n_k) / (M (M-1)),
    where n_k of the M rows have z_k = 1.

    Packings larger than packing_cap are truncated: any subset of a
    packing is still a packing, trading bound strength for tractable
    pairwise computations.
    """
    if variant not in ("lap", "l2"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_alpha(alpha)  # at every d, though only the GV packing reads it
    if not n > 0:
        raise ValueError(f"n must be positive, got {n}")
    if not design.connected:
        raise ValueError("the pipeline requires a connected design")
    summary = spectrum(design)
    d = design.d
    sigma, zeta, B = params.sigma, params.zeta, params.B
    eigenvalues, pinv = summary.eigenvalues, summary.pinv_diag

    if d <= 9:
        # The origin and +-v along one eigenvector, |v|_L^2 = delta^2/d along
        # the largest eigenvalue's for 'lap', delta^2 along lambda_2's for 'l2'.
        delta_sq = sigma**2 * math.log(2.0) / (8.0 * n * zeta)
        col, radius_sq = (d - 1, delta_sq / d) if variant == "lap" else (1, delta_sq)
        coords = np.zeros((3, d))
        coords[:2, col] = [1.0, -1.0]
        coords *= math.sqrt(radius_sq) * np.sqrt(pinv)
        sq_step = radius_sq * pinv[col]
        lap_step = sq_step * eigenvalues[col]
        separation = lap_step if variant == "lap" else sq_step
        mean_lap = 2.0 * lap_step
    else:
        packing = gv_packing(d, alpha, seed)
        if packing.shortfall:
            raise ValueError(
                f"greedy packing shortfall: found {packing.M} of {packing.target} vectors"
            )
        words = packing.words[:packing_cap]
        m_rows = words.shape[0]
        if m_rows < 2:
            raise ValueError(f"Fano needs a packing of size >= 2, got M={m_rows}")
        z = _unpack(words, d)
        counts = z.sum(axis=0, dtype=np.int64)
        pairs_apart = counts * (m_rows - counts)  # unordered pairs differing at k
        if variant == "lap":
            delta_sq = 0.01 * sigma**2 * d / (n * zeta)
            coords = math.sqrt(delta_sq / d) * z * np.sqrt(pinv)
            lap_weights = eigenvalues * pinv
        else:
            delta_sq = 0.01 * sigma**2 * d * d / (4.0 * n * zeta)
            # Pair heavily-used packing coordinates with small eigenvalues:
            # permute eigencoordinates 2..d so pair activity descends while
            # the eigenvalues ascend, keeping the mean KL small.
            order = np.r_[0, np.argsort(-pairs_apart[1:], kind="stable") + 1]
            coords = math.sqrt(delta_sq / d) * z[:, order]
            lap_weights = np.empty(d)
            lap_weights[order] = eigenvalues
        # GV rows are 0 at coordinate 0, a connected design's only null
        # direction, so one Hamming minimum serves both variants.
        separation = delta_sq / d * _min_hamming(words)
        mean_lap = delta_sq / d * float(lap_weights @ (2 * pairs_apart)) / (
            m_rows * (m_rows - 1))

    w_set = coords @ summary.eigenvectors
    peak = float(np.max(np.abs(w_set)))
    if peak > B + BOX_TOL:
        raise ValueError(
            f"packing leaves the bound set (|w|_inf = {peak:.3g} > B = {B}); "
            "the sample-size condition is too tight for these constants"
        )
    beta = n * zeta / sigma**2 * mean_lap
    return fano_bound(separation, beta, coords.shape[0])
