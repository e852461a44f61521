"""Ground-truth generation and observation sampling.

Everything here is a pure function of its seed: passing the same integer
seed (or an equally-advanced Generator) reproduces results bit for bit,
which is what makes parallel experiment campaigns replayable row by row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import ComparisonDesign, HyperDesign, spectrum
from .models import LinkFunction, MWiseLink

SUM_TOL = 1e-9
BOX_TOL = 1e-12

BATCH_KINDS = ("ordinal_pair", "mwise", "cardinal_item", "cardinal_pair")


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


@dataclass(frozen=True)
class QualityVector:
    """A latent score vector: mean zero, sup-norm within its bound B."""

    values: np.ndarray
    B: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not np.isfinite(vals).all():
            raise ValueError("quality vector entries must be finite")
        if not self.B >= 0:
            raise ValueError(f"B must be nonnegative, got {self.B}")
        if abs(float(np.sum(vals))) > SUM_TOL * max(1.0, float(np.max(np.abs(vals)))):
            raise ValueError(f"quality vector must sum to zero, got {np.sum(vals)}")
        if float(np.max(np.abs(vals))) > self.B + BOX_TOL:
            raise ValueError(
                f"quality vector exceeds bound: |w|_inf = {np.max(np.abs(vals))} > B = {self.B}"
            )

    @property
    def d(self) -> int:
        return self.values.shape[0]


# What a batch's entries index, and the symbol of their count.
_ENTRIES = {"ordinal_pair": ("edge index", "E"), "cardinal_pair": ("edge index", "E"),
            "mwise": ("subset index", "S"), "cardinal_item": ("item index", "d")}


def _in_range(values, bound: int, name: str, symbol: str) -> np.ndarray:
    """``values`` as intp, refused unless they are integers in [0, bound)."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer, got dtype {values.dtype}")
    if values.size and (values.min() < 0 or values.max() >= bound):
        bad = values.min() if values.min() < 0 else values.max()
        raise ValueError(f"{name} {bad} out of range for {symbol}={bound}")
    return values.astype(np.intp, copy=False)


def _check_model(design, model=None) -> None:
    """Refuse a design the model does not read: an m-wise link reads a
    HyperDesign of its own m, any other model, or none, a ComparisonDesign."""
    if isinstance(model, MWiseLink):
        if not (isinstance(design, HyperDesign) and design.m == model.m):
            raise ValueError(f"needs a HyperDesign with m={model.m}, got {design!r}")
    elif not isinstance(design, ComparisonDesign):
        raise ValueError(f"needs a ComparisonDesign, got {design!r}")


def _scores(w: QualityVector | np.ndarray, design) -> np.ndarray:
    """The float scores of a QualityVector or array-like, one per item of ``design`` if given."""
    values = w.values if isinstance(w, QualityVector) else np.asarray(w, dtype=float)
    if design is not None and values.shape != (design.d,):
        raise ValueError(f"scores must have shape ({design.d},), got {values.shape}")
    return values


@dataclass(frozen=True)
class CardinalModel:
    """Gaussian measurement of single items or of score differences."""

    kind: str  # "item" | "pair"
    sigma_c: float

    def __post_init__(self) -> None:
        if self.kind not in ("item", "pair"):
            raise ValueError(f"cardinal kind must be 'item' or 'pair', got {self.kind!r}")
        if self.sigma_c < 0:
            raise ValueError("sigma_c must be nonnegative")

    def to_json(self) -> str:
        return json.dumps({"family": f"cardinal_{self.kind}", "sigma": self.sigma_c})


@dataclass(frozen=True)
class ObservationBatch:
    """Sampled outcomes tied to design entries.

    ``entry_indices[i]`` points at the design edge/subset/item measured by
    sample i.  Outcomes are +/-1 for ordinal pairs, a 0-based winner
    position for m-wise samples, and a real number for cardinal kinds.
    The sample count ``n`` is the length of both arrays.
    """

    kind: str
    entry_indices: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in BATCH_KINDS:
            raise ValueError(f"unknown batch kind {self.kind!r}")
        if len(self.entry_indices) != len(self.outcomes):
            raise ValueError("entry and outcome arrays must have equal length")
        if self.kind == "ordinal_pair" and not np.all(np.abs(self.outcomes) == 1):
            raise ValueError("ordinal outcomes must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.entry_indices)


# ---------------------------------------------------------------------------
# Quality-score generation
# ---------------------------------------------------------------------------


def packing_sign_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Zero first coordinate, floor(d/2) entries of -1 at random, +1 elsewhere."""
    z = np.ones(d)
    z[0] = 0.0
    neg = rng.choice(d - 1, size=d // 2, replace=False) + 1
    z[neg] = -1.0
    return z


def _normalize(raw: np.ndarray, B: float) -> np.ndarray:
    centered = raw - np.mean(raw)
    peak = float(np.max(np.abs(centered)))
    if peak == 0.0:
        raise ValueError("degenerate draw: constant raw vector cannot be normalised")
    return centered * (B / peak)


def gen_quality(kind: str, d: int, B: float, seed,
                design: ComparisonDesign | None = None,
                variant: str = "pinv") -> QualityVector:
    """Draw a ground-truth score vector and normalise it into the bound set.

    Kinds: 'gaussian' (standard normal entries), 'uniform' (entries on
    [-1, 1]), 'packing' (adversarial direction adapted to a design's
    Laplacian).  The packing draw builds a sign vector z and maps it
    through the design's eigensystem: variant 'pinv' applies the
    pseudo-inverted eigenvalues (the adversarial direction used for
    simulation campaigns), variant 'sqrt_pinv' their square roots (the
    scaling the packing-based risk analysis uses).  The raw draw is
    shifted to mean zero and then scaled
    so that its sup norm equals B exactly.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if not B > 0:
        raise ValueError("B must be positive")
    if variant not in ("pinv", "sqrt_pinv"):
        raise ValueError(f"unknown packing variant {variant!r}")
    rng = _rng(seed)
    if kind == "gaussian":
        raw = rng.standard_normal(d)
    elif kind == "uniform":
        raw = rng.uniform(-1.0, 1.0, size=d)
    elif kind == "packing":
        if design is None:
            raise ValueError("packing generation requires a design")
        if design.d != d:
            raise ValueError(f"packing generation for d={d} got a design with d={design.d}")
        if not design.connected:
            raise ValueError("packing generation requires a connected design")
        summary = spectrum(design)
        z = packing_sign_vector(d, rng)
        scale = summary.pinv_diag if variant == "pinv" else np.sqrt(summary.pinv_diag)
        raw = summary.eigenvectors.T @ (scale * z)
    else:
        raise ValueError(f"unknown quality kind {kind!r}")
    return QualityVector(values=_normalize(raw, B), B=B)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _search_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") for a cdf ending at 1 and u in [0, 1).

    A guide table (Chen & Asau 1974) over k equal buckets of [0, 1) holds
    guide[b] = #{i : cdf_i <= b/k}.  With k a power of two, u k and cdf_i k
    are exact, so b = floor(u k) puts u in [b/k, (b+1)/k) and
    cdf_i <= b/k exactly when ceil(cdf_i k) <= b.  The answer for u then
    lies between guide[b] and guide[b + 1]; it is guide[b] when they agree,
    and a binary search otherwise.  At most len(cdf) buckets disagree, so
    with k >= len(u) + len(cdf) the table costs O(len(u) + len(cdf)) and
    the expected share of draws that need the search is at most
    len(cdf) / k.
    """
    k = 1 << (len(u) + len(cdf) - 1).bit_length()
    guide = np.cumsum(np.bincount(np.ceil(cdf * k).astype(np.intp), minlength=k + 1))
    bucket = (u * k).astype(np.intp)
    found = guide[bucket]
    unsettled = np.flatnonzero(found != guide[bucket + 1])
    found[unsettled] = cdf.searchsorted(u[unsettled], side="right")
    return found


def sample_comparisons(design: ComparisonDesign | HyperDesign, n: int, seed) -> np.ndarray:
    """Draw n design-entry indices i.i.d. with the design's weights.

    The draws, and the generator's state after them, equal those of
    ``rng.choice(len(weights), size=n, p=weights)``: the same normalised
    cdf, the same n uniforms, the same search, answered through a guide
    table.  Hyper designs are sampled uniformly over their subset list.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = _rng(seed)
    if isinstance(design, HyperDesign):
        return rng.integers(0, len(design.subsets), size=n).astype(np.intp)
    _, _, weights = design.edge_arrays
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return _search_cdf(cdf, rng.random(n))


def even_allocation(num_entries: int, n: int) -> np.ndarray:
    """Deterministic round-robin allocation of n samples over entries."""
    if num_entries < 1:
        raise ValueError(f"need num_entries >= 1, got {num_entries}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (np.arange(n) % num_entries).astype(np.intp)


def sample_outcomes(model: LinkFunction | MWiseLink | CardinalModel,
                    w: QualityVector | np.ndarray,
                    design: ComparisonDesign | HyperDesign | None,
                    comparisons: np.ndarray, seed) -> ObservationBatch:
    """Sample outcomes for the given comparison entries under a model.

    Ordinal links need a ComparisonDesign, m-wise links a HyperDesign with
    matching m, cardinal pair models a ComparisonDesign; cardinal item
    models read no design and take the entries as item indices.  w holds one
    score per item; the entries are integers in [0, E), [0, S) or [0, d).
    """
    item = isinstance(model, CardinalModel) and model.kind == "item"
    if not item:
        _check_model(design, model)
    values = _scores(w, None if item else design)
    n = len(comparisons)
    rng = _rng(seed)

    if isinstance(model, LinkFunction):
        j_idx, k_idx, _ = design.edge_arrays
        comparisons = _in_range(comparisons, j_idx.size, *_ENTRIES["ordinal_pair"])
        # The link acts elementwise: one value per edge, gathered per sample.
        p_win = model.win_probability(values[j_idx] - values[k_idx])[comparisons]
        outcomes = np.where(rng.random(n) < p_win, 1, -1)
        return ObservationBatch("ordinal_pair", comparisons, outcomes)

    if isinstance(model, MWiseLink):
        columns = design._cliques[0]
        comparisons = _in_range(comparisons, columns.shape[1], *_ENTRIES["mwise"])
        # Column-major, (m, n): each reduction over a subset's m positions
        # runs down whole rows of n, not along n short rows of m.  The
        # cumulative sum adds row to row for the same reason: np.cumsum
        # along axis 0 steps through n columns of m, at about 8x the cost.
        scores = values[columns.take(comparisons, axis=1)]
        cum = model.position_probs(scores, axis=0)
        for row in range(1, model.m):
            cum[row] += cum[row - 1]
        u = rng.random(n)
        winners = np.minimum(np.count_nonzero(u >= cum, axis=0), model.m - 1)
        return ObservationBatch("mwise", comparisons, winners)

    if isinstance(model, CardinalModel):
        noise = model.sigma_c * rng.standard_normal(n) if model.sigma_c > 0 else np.zeros(n)
        if item:
            comparisons = _in_range(comparisons, len(values), *_ENTRIES["cardinal_item"])
            y = values[comparisons] + noise
            return ObservationBatch("cardinal_item", comparisons, y)
        j_idx, k_idx, _ = design.edge_arrays
        comparisons = _in_range(comparisons, j_idx.size, *_ENTRIES["cardinal_pair"])
        y = values[j_idx[comparisons]] - values[k_idx[comparisons]] + noise
        return ObservationBatch("cardinal_pair", comparisons, y)

    raise ValueError(f"unsupported model type {type(model).__name__}")
