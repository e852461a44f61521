"""Link-function families for ordinal and m-wise comparison models.

A pairwise link is a symmetric CDF F mapping the scaled score difference
to a win probability.  Two scalars summarise it over the working interval
[-2B/sigma, 2B/sigma]: gamma, the strong log-concavity curvature (which
makes the MLE problem strongly convex), and zeta, the peak density over
the interval probability mass (which controls KL divergences from above).
The m-wise analogue bundles a choice probability over m-vectors with a
curvature coefficient beta: beta (I - 11^T/m) lower-bounds its
negative-log Hessian over the box [-B, B]^m.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit, log_expit, log_ndtr, ndtr

SYMMETRY_TOL = 1e-10
FD_STEP = 1e-6
# A custom link's (-log F)'': second differences at steps s and 2s, combined so
# their s^2 errors cancel.  s is large: they divide -log F's rounding by s^2.
_CURVATURE_STEP = 0.02

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    # ndtr evaluates via erfc; absolute error below 1e-15 on the real line.
    return ndtr(np.asarray(x, dtype=float))


def _btl_pdf_over_cdf(t: np.ndarray, log_f: np.ndarray) -> np.ndarray:
    return expit(-t)  # F'/F = 1 - F for the logistic link


def _btl_second_pair(t: np.ndarray, r: np.ndarray,
                     r_reflected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # F(t) = F'/F(-t) and F(-t) = F'/F(t), so (-log F)''(t) = F(t)(1 - F(t))
    # is r_reflected (1 - r_reflected), and its reflection r (1 - r).
    return r_reflected * (1.0 - r_reflected), r * (1.0 - r)


def _thurstone_pdf_over_cdf(t: np.ndarray, log_f: np.ndarray) -> np.ndarray:
    """Inverse Mills ratio phi(t)/Phi(t), in log space from log_f = log Phi(t)."""
    return np.exp(-0.5 * t * t - math.log(_SQRT_2PI) - log_f)


def _thurstone_second_pair(t: np.ndarray, h: np.ndarray,
                           h_reflected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # With h = phi/Phi (inverse Mills ratio), d^2/dt^2 (-log Phi) = h(h + t).
    return h * (h + t), h_reflected * (h_reflected - t)


# Both named links have their density peak at 0 and (-log F)'' decreasing
# on [0, inf), so over [-h, h] its minimum sits at +h (for the symmetric
# BTL curvature, at -h too).  The BTL minimum is F(h) F(-h): at h = 20 the
# form F(h)(1 - F(h)) keeps only about 8 of its 16 digits.


def _thurstone_extremes(hi: float) -> tuple[float, float]:
    mills = _thurstone_pdf_over_cdf(hi, log_ndtr(hi))
    return 1.0 / _SQRT_2PI, float(mills * (mills + hi))


def _btl_extremes(hi: float) -> tuple[float, float]:
    return 0.25, float(expit(hi) * expit(-hi))


@dataclass(frozen=True)
class LinkFunction:
    """A symmetric CDF with derivatives and a noise scale.

    Every callable takes the already-rescaled argument t = x/sigma;
    callers are responsible for dividing by sigma.  ``log_cdf`` and
    ``pdf_over_cdf`` (F'/F) are evaluated in log space where the family
    allows it, which keeps them finite far into the tails;
    ``pdf_over_cdf(t, log_f)`` is handed log_f = ``log_cdf(t)``, so that a
    caller holding log F pays for no second special-function pass.
    ``neg_log_second_pair(t, r, r_reflected)`` gives (-log F)'' at t and
    -t from r and r_reflected, F'/F at t and -t.  ``extremes`` maps
    h >= 0 to the max of F' over [0, h] and the min of (-log F)'' over
    [-h, h], the two constants ``model_params`` reads.
    """

    name: str
    sigma: float
    cdf: Callable[[np.ndarray], np.ndarray]
    log_cdf: Callable[[np.ndarray], np.ndarray]
    pdf_over_cdf: Callable[[np.ndarray, np.ndarray], np.ndarray]
    neg_log_second_pair: Callable[[np.ndarray, np.ndarray, np.ndarray],
                                  tuple[np.ndarray, np.ndarray]]
    extremes: Callable[[float], tuple[float, float]]

    def win_probability(self, score_diff: np.ndarray) -> np.ndarray:
        """P[first item wins] for raw score differences."""
        return self.cdf(np.asarray(score_diff, dtype=float) / self.sigma)

    def to_json(self, B: float | None = None) -> str:
        obj: dict = {"family": self.name, "sigma": self.sigma}
        if B is not None:
            obj["B"] = B
        return json.dumps(obj)


def _fd_pdf(cdf: Callable) -> Callable:
    def pdf(x):
        x = np.asarray(x, dtype=float)
        return (cdf(x + FD_STEP) - cdf(x - FD_STEP)) / (2.0 * FD_STEP)

    return pdf


def _fd_neg_log_second(cdf: Callable) -> Callable:
    def second(x):
        x = np.asarray(x, dtype=float)
        g = [-np.log(cdf(x + i * _CURVATURE_STEP)) for i in (-2, -1, 0, 1, 2)]
        return ((16.0 * (g[1] + g[3]) - (g[0] + g[4]) - 30.0 * g[2])
                / (12.0 * _CURVATURE_STEP * _CURVATURE_STEP))

    return second


def _screen_custom_cdf(cdf: Callable) -> None:
    grid = np.linspace(-8.0, 8.0, 1601)
    vals = np.asarray(cdf(grid), dtype=float)
    if np.any(vals <= 0.0) or np.any(vals >= 1.0):
        raise ValueError("custom link must satisfy 0 < F(x) < 1 on finite inputs")
    if np.max(np.abs(vals + vals[::-1] - 1.0)) > SYMMETRY_TOL:
        raise ValueError("custom link must satisfy F(x) = 1 - F(-x)")
    if np.any(np.diff(vals) < -SYMMETRY_TOL):
        raise ValueError("custom link must be nondecreasing")


def make_link(family: str | Callable, sigma: float = 1.0) -> LinkFunction:
    """Construct a link: 'thurstone', 'btl', or a custom CDF callable.

    Custom CDFs are screened for symmetry, monotonicity and interior range
    on a test grid, and get finite-difference derivatives, whose extremes
    a grid search finds.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if family == "thurstone":
        return LinkFunction("thurstone", sigma, _normal_cdf, log_ndtr, _thurstone_pdf_over_cdf,
                            _thurstone_second_pair, _thurstone_extremes)
    if family == "btl":
        return LinkFunction("btl", sigma, expit, log_expit, _btl_pdf_over_cdf,
                            _btl_second_pair, _btl_extremes)
    if callable(family):
        _screen_custom_cdf(family)
        pdf, second = _fd_pdf(family), _fd_neg_log_second(family)
        return LinkFunction("custom", sigma, family, lambda t: np.log(family(t)),
                            lambda t, log_f: pdf(t) / family(t),
                            lambda t, r, r_reflected: (second(t), second(-t)),
                            _grid_extremes(pdf, second))
    raise ValueError(f"unknown link family {family!r}")


@dataclass(frozen=True)
class ModelParams:
    """Interval bound B with the derived curvature and KL parameters.

    sigma is carried along so that bound formulas (which mix sigma with
    gamma and zeta) can be evaluated from this object alone.
    """

    B: float
    gamma: float
    zeta: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.B > 0:
            raise ValueError(f"B must be positive, got {self.B}")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive (strong log-concavity)")
        if not self.zeta > 0:
            raise ValueError("zeta must be positive")


def _golden_refine(fun: Callable[[float], float], lo: float, hi: float,
                   minimize: bool, iters: int = 80) -> float:
    """Golden-section search; returns the extremal function value."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    sign = 1.0 if minimize else -1.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    e = a + inv_phi * (b - a)
    fc, fe = sign * fun(c), sign * fun(e)
    for _ in range(iters):
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - inv_phi * (b - a)
            fc = sign * fun(c)
        else:
            a, c, fc = c, e, fe
            e = a + inv_phi * (b - a)
            fe = sign * fun(e)
    xs = [lo, hi, (a + b) / 2.0]
    vals = [sign * fun(x) for x in xs]
    return sign * min(min(vals), fc, fe)


def _grid_extremum(fun: Callable, lo: float, hi: float, resolution: float,
                   minimize: bool) -> float:
    """Dense grid scan refined by golden-section around the best bracket."""
    if hi <= lo:
        return float(fun(lo))
    npts = max(int(math.ceil((hi - lo) / resolution)) + 1, 3)
    npts = min(npts, 2_000_001)
    grid = np.linspace(lo, hi, npts)
    vals = np.asarray(fun(grid), dtype=float)
    idx = int(np.argmin(vals) if minimize else np.argmax(vals))
    a = grid[max(idx - 1, 0)]
    b = grid[min(idx + 1, npts - 1)]
    best_grid = float(vals[idx])
    refined = _golden_refine(lambda x: float(fun(x)), a, b, minimize)
    return min(best_grid, refined) if minimize else max(best_grid, refined)


def _grid_extremes(pdf: Callable, second: Callable) -> Callable[[float], tuple[float, float]]:
    """``extremes`` of a link known only through F' and (-log F)'': each
    found by a 1e-4 grid refined by golden-section search."""
    def extremes(hi: float) -> tuple[float, float]:
        return (_grid_extremum(pdf, 0.0, hi, 1e-4, minimize=False),
                _grid_extremum(second, -hi, hi, 1e-4, minimize=True))

    return extremes


def model_params(link: LinkFunction, B: float) -> ModelParams:
    """gamma and zeta of a link over [-h, h], h = 2B/sigma, from ``link.extremes(h)``.

    zeta is the peak density over F(h) F(-h) = F(h)(1 - F(h)).  That
    product is checked first, in log space, which survives far wider
    intervals than the naive form, whose upper factor rounds to 1: where
    it underflows the curvature underflows too, and the error names that
    cause.  A link whose least curvature is not strictly positive is not
    strongly log-concave on the interval and is refused.
    """
    if not B > 0:
        raise ValueError(f"B must be positive, got {B}")
    hi = 2.0 * B / link.sigma
    denom = math.exp(float(link.log_cdf(np.asarray(hi)) + link.log_cdf(np.asarray(-hi))))
    if denom <= 0.0 or not math.isfinite(denom):
        raise ValueError(f"interval [0, {hi}] is too wide: F(1-F) underflows")
    peak, gamma = link.extremes(hi)
    if gamma <= 0:
        raise ValueError(f"link {link.name!r} is not strongly log-concave on [-{hi}, {hi}]")
    return ModelParams(B=B, gamma=gamma, zeta=peak / denom, sigma=link.sigma)


# ---------------------------------------------------------------------------
# m-wise links
# ---------------------------------------------------------------------------


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass(frozen=True)
class MWiseLink:
    """Choice model over m-item subsets with shift-invariant probabilities.

    F(x) = ``position_probs(x)[0]`` is the probability of choosing the
    first listed item from subset scores x.  ``beta`` is the curvature
    coefficient: the Hessian of -log F dominates beta (I - 11^T/m) over
    [-B, B]^m.
    """

    name: str
    m: int
    B: float

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need m >= 2, got {self.m}")
        if not self.B > 0:
            raise ValueError(f"B must be positive, got {self.B}")

    @property
    def beta(self) -> float:
        """m q/(m - 1 + q)^2, q = e^{-2B}: the least lambda_2 of the Hessian diag(p) - p p^T
        over the box, which tests find at a corner.  With k items at +B, p is a = 1/Z or
        b = q/Z (Z = k + (m-k) q), and lambda_2 is 1/m (k = 0 or m) or the least of a (k >= 2),
        b (m-k >= 2) and m a b: over k, m a b at k = m - 1."""
        q = math.exp(-2.0 * self.B)
        return self.m * q / (self.m - 1 + q) ** 2

    def position_probs(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Choice probabilities, with the m positions along ``axis``."""
        return softmax(x, axis=axis)

    def log_position_probs(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Log choice probabilities, with the m positions along ``axis``."""
        x = np.asarray(x, dtype=float)
        shifted = x - x.max(axis=axis, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def to_json(self) -> str:
        return json.dumps({"family": self.name, "m": self.m, "B": self.B})


def plackett_luce(m: int, B: float = 1.0) -> MWiseLink:
    """The softmax choice model: P[item i] proportional to e^{w_i}.

    At m = 2 the choice probability coincides with the BTL link at sigma = 1.
    """
    return MWiseLink(name="plackett_luce", m=m, B=B)
