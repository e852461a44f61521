"""Comparison graphs and their scaled-Laplacian spectra.

A comparison design assigns to each compared pair (or m-wise subset) the
fraction of the measurement budget it receives.  The induced scaled
Laplacian L = (1/n) X^T X has trace 2 (pairwise) or m(m-1) (m-wise), and
its spectrum governs both achievable estimation error and the minimax
lower bounds, so most of the analysis in the rest of the package starts
from the SpectralSummary computed here.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

WEIGHT_SUM_TOL = 1e-12
# On the eigvalsh route, eigenvalues below DEFAULT_ZERO_TOL * lambda_max are
# treated as exact zeros when forming pseudo-inverses and counting connected
# components spectrally.  A closed-form spectrum knows its exact zero and is
# not clamped: the clamp would zero a path's lambda_2 from d of about 1.6e5.
DEFAULT_ZERO_TOL = 1e-10

PAIRWISE_KINDS = (
    "complete",
    "star",
    "path",
    "cycle",
    "barbell",
    "complete_bipartite",
    "lattice2d",
    "hypercube",
    "expander",
)


class EigensolverError(RuntimeError):
    """Raised when the symmetric eigendecomposition fails to converge."""


def _reject_first(bad: np.ndarray, what: str, j, k, w) -> None:
    """Raise naming the first edge flagged in ``bad``, if any is."""
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"{what} {(float(j[i]), float(k[i]), float(w[i]))}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _scatter_laplacian(d: int, off_diagonal, diagonal, w: np.ndarray) -> np.ndarray:
    lap = np.bincount(off_diagonal, weights=np.repeat(-w, 2), minlength=d * d).reshape(d, d)
    lap.flat[::d + 1] = np.bincount(diagonal, weights=np.repeat(w, 2), minlength=d)
    return lap


def _laplacian(d: int, j: np.ndarray, k: np.ndarray) -> partial:
    """The map w -> sum_e w_e (e_j - e_k)(e_j - e_k)^T over parallel edge arrays.

    The scatter indices are built here, once, so a solver that needs a
    Laplacian per iterate on fixed edges pays only for the weights.
    Repeated pairs accumulate; each entry sums its terms in edge order.
    """
    return partial(_scatter_laplacian, d, np.stack([j * d + k, k * d + j], axis=1).ravel(),
                   np.stack([j, k], axis=1).ravel())


def _connected(d: int, j: np.ndarray, k: np.ndarray) -> bool:
    """Whether the edges (j, k) join all d items into one component.

    Every item carries the label of a root; each round hooks the larger
    root of every edge whose ends disagree onto the smaller, then jumps
    labels until each is a root again.  Labels only fall, so item 0 keeps
    label 0 and the graph is connected exactly when every label is 0.
    """
    label = np.arange(d)
    while True:
        lj, lk = label[j], label[k]
        if np.array_equal(lj, lk):
            return bool(np.all(label == 0))
        low = np.minimum(lj, lk)
        np.minimum.at(label, lj, low)
        np.minimum.at(label, lk, low)
        while not np.array_equal(jumped := label[label], label):
            label = jumped


@dataclass(frozen=True, init=False, eq=False)
class ComparisonDesign:
    """Weighted pairwise comparison graph.

    ``edges`` is any (E, 3) array-like of (j, k, w) rows: 0-based item
    indices and the fraction of the total number of comparisons the pair
    receives, so weights must be nonnegative and sum to one.
    ``from_arrays`` takes the same edges as three parallel arrays.  Either
    way they are stored once, as the read-only arrays ``edge_arrays``
    (intp, intp, float64); ``edges`` is a tuple view of them.  A design
    from ``build_topology`` builds and checks its edge arrays on first
    read.  Designs compare equal by value and pickle as the call that made
    them, never their caches.
    """

    d: int
    kind: str

    def __init__(self, d: int, edges, kind: str = "custom") -> None:
        rows = np.asarray(edges, dtype=float)
        if rows.size and (rows.ndim != 2 or rows.shape[1] != 3):
            raise ValueError(f"edges must be (j, k, w) rows, got shape {rows.shape}")
        rows = rows.reshape(-1, 3)
        j, k, w = rows.T
        ends = rows[:, :2]
        _reject_first(~np.isfinite(rows).all(axis=1), "non-finite edge", j, k, w)
        _reject_first((ends != np.floor(ends)).any(axis=1),
                      "non-integer item index in edge", j, k, w)
        self._store(d, j, k, w, kind)

    @classmethod
    def from_arrays(cls, d: int, j, k, w, kind: str = "custom") -> ComparisonDesign:
        """A design from parallel arrays: integer item indices j, k and weights w.

        The arrays are checked as wholes and copied; the checks and the
        stored form are those of the (E, 3) constructor.
        """
        j, k, w = np.asarray(j), np.asarray(k), np.asarray(w, dtype=float)
        if j.ndim != 1 or not j.shape == k.shape == w.shape:
            raise ValueError("edge arrays must be 1-D and of equal length, got shapes "
                             f"{j.shape}, {k.shape}, {w.shape}")
        for ends in (j, k):
            if ends.size and ends.dtype.kind not in "iu":
                raise ValueError(f"item indices must be integers, got dtype {ends.dtype}")
        design = cls.__new__(cls)
        design._store(d, j, k, w, kind)
        return design

    def _store(self, d: int, j: np.ndarray, k: np.ndarray, w: np.ndarray, kind: str) -> None:
        """Check edges whose indices are finite integers; store read-only copies."""
        if d < 2:
            raise ValueError(f"need at least 2 items, got d={d}")
        if j.size == 0:
            raise ValueError("design has no edges")
        for bad, what in (
            (~np.isfinite(w), "non-finite edge"),
            ((j < 0) | (j >= d) | (k < 0) | (k >= d), f"out of range for d={d}: edge"),
            (j == k, "self-comparison is not a valid edge"),
            (w < 0, "negative weight in edge"),
        ):
            _reject_first(bad, what, j, k, w)
        # + 0.0 stores a weight of -0.0 as 0.0, so equal designs hash alike.
        arrays = (j.astype(np.intp), k.astype(np.intp), w.astype(np.float64) + 0.0)
        # np.sum sums pairwise: on nonnegative weights its error stays below
        # about 30 ulp at any E a design can have, far inside the tolerance,
        # where a running sum of the d(d-1)/2 equal weights of a complete
        # design drifts past it at d = 275.
        total = float(np.sum(arrays[2]))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"edge weights sum to {total}, expected 1")
        for name, value in (("d", d), ("edge_arrays", tuple(map(_read_only, arrays))),
                            ("kind", kind)):
            object.__setattr__(self, name, value)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only (intp, intp, float64) arrays j, k and w.

        The constructors store them; a canonical kind reaches this body on
        first read, and builds and checks them here.
        """
        self._store(self.d, *_unweighted(self.d, *self._pairs()), self.kind)
        return vars(self)["edge_arrays"]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComparisonDesign):
            return NotImplemented
        return (self.d, self.kind) == (other.d, other.kind) and all(
            np.array_equal(a, b) for a, b in zip(self.edge_arrays, other.edge_arrays))

    def __hash__(self) -> int:
        return hash((self.d, self.kind, *(a.tobytes() for a in self.edge_arrays)))

    def __reduce__(self):
        if "_pairs" in vars(self):
            return build_topology, (self.kind, self.d)
        return self.from_arrays, (self.d, *self.edge_arrays, self.kind)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The (j, k, w) rows as tuples with int indices."""
        return tuple(zip(*(a.tolist() for a in self.edge_arrays)))

    @cached_property
    def connected(self) -> bool:
        j, k, w = self.edge_arrays
        return _connected(self.d, j[w > 0], k[w > 0])

    @cached_property
    def _scatter(self) -> partial:
        """``_laplacian`` over ``edge_arrays``: built once, shared by every reader."""
        j, k, _ = self.edge_arrays
        return _laplacian(self.d, j, k)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Scaled Laplacian, sum_e w_e (e_j - e_k)(e_j - e_k)^T; trace 2; read-only."""
        return _read_only(self._scatter(self.edge_arrays[2]))

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "kind": self.kind,
                "edges": [list(e) for e in zip(*(a.tolist() for a in self.edge_arrays))],
            }
        )


def design_from_json(text: str) -> ComparisonDesign:
    obj = json.loads(text)
    return ComparisonDesign(int(obj["d"]), obj["edges"], obj.get("kind", "custom"))


def _check_hyper_size(d: int, m: int) -> None:
    if d < 2:
        raise ValueError(f"need at least 2 items, got d={d}")
    if not (2 <= m <= d):
        raise ValueError(f"need 2 <= m <= d, got m={m}, d={d}")


@dataclass(frozen=True, init=False, eq=False)
class HyperDesign:
    """m-wise comparison hypergraph: a multiset of m-item subsets.

    ``subsets`` is any (S, m) array-like of 0-based integer item indices.
    It is checked as a whole and stored once, as a read-only intp array;
    ``complete_hyper`` builds and checks it on first read.  Samples are
    spread evenly over its rows.  Row order fixes the columns of the
    selection matrices, i.e. the positions that m-wise winners refer to.
    Designs compare equal by value and pickle as the call that made them.
    """

    d: int
    m: int

    def __init__(self, d: int, m: int, subsets) -> None:
        _check_hyper_size(d, m)
        self._store(d, m, subsets)

    def _store(self, d: int, m: int, subsets) -> None:
        """Check the subsets of a design whose d and m are valid; store them read-only."""
        try:
            sa = np.asarray(subsets)
        except ValueError:  # ragged: subsets of different lengths
            raise ValueError(f"subsets are not all {m} items") from None
        if sa.shape[:1] == (0,):
            raise ValueError("design has no subsets")
        if sa.shape[1:] != (m,):
            raise ValueError(f"subsets are not all {m} items")
        if sa.dtype.kind not in "iu":
            raise ValueError(f"item indices must be integers, got dtype {sa.dtype}")
        ordered = np.sort(sa, axis=1)
        for bad, what in (
            ((sa < 0) | (sa >= d), f"out of range for d={d}"),
            (ordered[:, 1:] == ordered[:, :-1], f"is not {m} distinct items"),
        ):
            rows = bad.any(axis=1)
            if rows.any():
                raise ValueError(f"subset {tuple(sa[rows.argmax()].tolist())} {what}")
        for name, value in (("d", d), ("m", m), ("subsets", _read_only(sa.astype(np.intp)))):
            object.__setattr__(self, name, value)

    @cached_property
    def subsets(self) -> np.ndarray:
        """The read-only (S, m) intp array of subsets.

        The constructor stores it; ``complete_hyper`` reaches this body on
        first read, and builds and checks it here.
        """
        self._store(self.d, self.m, self._subsets())
        return vars(self)["subsets"]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HyperDesign):
            return NotImplemented
        return (self.d, self.m) == (other.d, other.m) and np.array_equal(self.subsets,
                                                                         other.subsets)

    def __hash__(self) -> int:
        return hash((self.d, self.m, self.subsets.tobytes()))

    def __reduce__(self):
        if "_subsets" in vars(self):
            return complete_hyper, (self.d, self.m)
        return HyperDesign, (self.d, self.m, self.subsets)

    @cached_property
    def connected(self) -> bool:
        sa = self.subsets  # each subset joins its items to its first
        return _connected(self.d, np.repeat(sa[:, 0], self.m - 1), sa[:, 1:].ravel())

    @cached_property
    def _cliques(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], partial]:
        """The (m, S) column-major subsets, the position pairs a < b, and
        ``_laplacian`` over (columns[a], columns[b]) raveled: built once."""
        columns = _read_only(np.ascontiguousarray(self.subsets.T))
        a, b = np.triu_indices(self.m, 1)
        return columns, (a, b), _laplacian(self.d, columns[a].ravel(), columns[b].ravel())

    @cached_property
    def laplacian(self) -> np.ndarray:
        return _read_only(hypergraph_laplacian(self))


def hypergraph_laplacian(design: HyperDesign) -> np.ndarray:
    """Average of E_i (m I - 11^T) E_i^T over subsets; trace m(m-1).

    m I - 11^T is the Laplacian of the clique on the subset's items, so
    the result is the Laplacian of every within-subset pair at weight
    1/|subsets|.  Reduces entrywise to the pairwise scaled Laplacian when
    m = 2.
    """
    columns, (a, _), scatter = design._cliques
    return scatter(np.ones(a.size * columns.shape[1])) / columns.shape[1]


@dataclass(frozen=True)
class SpectralSummary:
    """Spectrum of a design's Laplacian, with derived quantities.

    ``eigenvalues`` ascend.  On the eigvalsh route, those within
    DEFAULT_ZERO_TOL * lambda_max of zero are reported as exact zeros; a
    closed-form spectrum has its exact zeros already.  Zeros are excluded
    from the pseudo-inverse trace.  ``design`` is the design summarised;
    its Laplacian and the eigenvectors are computed on first use only, so a
    summary read for its eigenvalues never pays for them.  A design's
    summary is shared by every caller, so its arrays are read-only.
    """

    eigenvalues: np.ndarray
    design: ComparisonDesign | HyperDesign
    trace_pinv: float
    lambda2: float

    @property
    def d(self) -> int:
        return self.eigenvalues.shape[0]

    def __reduce__(self):
        return spectrum, (self.design,)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Rows are eigenvectors, in the order of ``eigenvalues``: L = U^T diag U.

        Both ascend, so row i belongs to eigenvalue i whichever route gave
        the eigenvalues.
        """
        return _read_only(_eigensolve(np.linalg.eigh, self.design.laplacian)[1].T)

    @cached_property
    def pinv_diag(self) -> np.ndarray:
        """Diagonal of Lambda^dagger: reciprocals on the nonzero spectrum."""
        q = np.zeros_like(self.eigenvalues)
        nz = self.eigenvalues > 0
        q[nz] = 1.0 / self.eigenvalues[nz]
        return _read_only(q)

    def to_csv(self) -> str:
        lines = ["index,eigenvalue"]
        lines += [f"{i},{float(v)!r}" for i, v in enumerate(self.eigenvalues)]
        return "\n".join(lines) + "\n"


def _eigensolve(solver, lap: np.ndarray):
    try:
        return solver(lap)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver failed: {exc}") from exc


def _dense_eigenvalues(lap: np.ndarray) -> np.ndarray:
    """Ascending eigvalsh eigenvalues, clamped to zero below DEFAULT_ZERO_TOL * lambda_max."""
    vals = _eigensolve(np.linalg.eigvalsh, lap)
    lam_max = float(vals[-1]) if vals[-1] > 0 else 0.0
    abs_tol = DEFAULT_ZERO_TOL * lam_max
    if np.any(vals < -max(abs_tol, 1e-10)):
        raise EigensolverError(
            f"Laplacian has a significantly negative eigenvalue {vals[0]}"
        )
    vals[np.abs(vals) <= abs_tol] = 0.0
    vals[vals < 0] = 0.0
    return vals


def spectrum(design: ComparisonDesign | HyperDesign) -> SpectralSummary:
    """Eigenvalues of a design's (hyper)graph Laplacian.

    A design made by ``build_topology`` carries the closed-form spectrum of
    its kind, except the expander, and so does ``complete_hyper``: it is
    evaluated here, with no edges, no Laplacian and no eigensolve.  Every
    other design goes through ``eigvalsh``, with eigenvalues clamped to exact
    zero below DEFAULT_ZERO_TOL * lambda_max; eigensolver non-convergence
    surfaces as EigensolverError.  The summary computes the Laplacian and the
    eigenvectors only when they are read.  A design is immutable, so its
    summary is computed once and kept on it, like its Laplacian.
    """
    cache = vars(design)
    if "_spectrum" not in cache:
        closed_form = cache.get("_closed_spectrum")
        vals = _dense_eigenvalues(design.laplacian) if closed_form is None else closed_form()
        nonzero = vals[vals > 0]
        cache["_spectrum"] = SpectralSummary(
            eigenvalues=_read_only(vals),
            design=design,
            trace_pinv=float(np.sum(1.0 / nonzero)) if nonzero.size else 0.0,
            lambda2=float(vals[1]) if len(vals) > 1 else 0.0,
        )
    return cache["_spectrum"]


def _lexicographic_subsets(d: int, m: int) -> np.ndarray:
    return np.fromiter(itertools.combinations(range(d), m), dtype=(np.intp, m))


def complete_hyper(d: int, m: int) -> HyperDesign:
    """The complete m-wise hyper-design: every m-item subset once, in lexicographic order.

    It carries its closed-form spectrum: every pair lies in C(d-2, m-2) of
    the C(d, m) subsets, so L' = C(d-2, m-2) (dI - 11^T).  The subsets are
    built and checked on first read, so the spectrum and the bound formulas
    run without them.
    """
    _check_hyper_size(d, m)
    hyper = HyperDesign.__new__(HyperDesign)
    vars(hyper).update(d=d, m=m, _subsets=lambda: _lexicographic_subsets(d, m),
                       _closed_spectrum=lambda: np.repeat(
                           [0.0, d * math.comb(d - 2, m - 2)], [1, d - 1]) / math.comb(d, m))
    return hyper


# ---------------------------------------------------------------------------
# Canonical topologies
# ---------------------------------------------------------------------------


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for p in range(2, int(math.isqrt(q)) + 1):
        if q % p == 0:
            return False
    return True


def _unweighted(d: int, j: np.ndarray, k: np.ndarray):
    """Spread the budget evenly over an edge multiset: arrays (j, k, w) with L = L' / |E|.

    Repeated pairs merge into one edge, sorted by (min, max) item.
    """
    lo, hi = np.minimum(j, k), np.maximum(j, k)
    codes = lo * d + hi
    if np.all(codes[1:] > codes[:-1]):  # already sorted, no repeats
        return lo, hi, np.full(codes.size, 1.0 / codes.size)
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return lo[first], hi[first], counts / counts.sum()


def _canonical(d: int, kind: str, count: int, pairs, unscaled) -> ComparisonDesign:
    """A canonical kind: ``count`` distinct pairs, each with weight 1/count.

    ``pairs`` and ``unscaled`` are zero-argument callables.  ``pairs`` returns
    the edge multiset (j, k), which ``edge_arrays`` merges and checks on
    first read; ``unscaled`` returns the eigenvalues of L' in any order,
    which ``spectrum`` reads in place of an eigensolve.  Neither runs here.
    """
    design = ComparisonDesign.__new__(ComparisonDesign)
    vars(design).update(d=d, kind=kind, _pairs=pairs,
                        _closed_spectrum=lambda: np.sort(unscaled()) / count)
    return design


def _star_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(d - 1, np.intp), np.arange(1, d)


def _ring_pairs(d: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(count)  # the path's d-1 links, and the cycle's closing one at count = d
    return i, (i + 1) % d


def _barbell_pairs(half: int) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.triu_indices(half, 1)  # two cliques and a single bridge between them
    return np.concatenate([a, a + half, [half - 1]]), np.concatenate([b, b + half, [half]])


def _bipartite_pairs(m1: int, m2: int) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.divmod(np.arange(m1 * m2), m2)
    return a, m1 + b


def _lattice_pairs(m1: int, m2: int) -> tuple[np.ndarray, np.ndarray]:
    grid = np.arange(m1 * m2).reshape(m1, m2)  # row-major: node r*m2 + c
    return (np.concatenate([grid[:, :-1].ravel(), grid[:-1].ravel()]),
            np.concatenate([grid[:, 1:].ravel(), grid[1:].ravel()]))


def _hypercube_pairs(bits: int) -> tuple[np.ndarray, np.ndarray]:
    v = np.repeat(np.arange(1 << bits), bits)
    u = v ^ np.tile(1 << np.arange(bits), 1 << bits)
    return v[v < u], u[v < u]


# Closed-form Laplacian spectra (Brouwer & Haemers, Spectra of Graphs, 2012).
# 4 sin^2(x/2) is 2 - 2 cos(x) without its cancellation near x = 0, where
# 2 - 2 cos(pi/d) keeps only about 10 of 16 digits at d = 2^18.


def _path_spectrum(d: int) -> np.ndarray:
    return 4.0 * np.sin(np.pi / (2 * d) * np.arange(d)) ** 2


def _cycle_spectrum(d: int) -> np.ndarray:
    i = np.arange(d)  # lambda_i = lambda_{d-i}; keep the sine's argument <= pi/2
    return 4.0 * np.sin(np.pi / d * np.minimum(i, d - i)) ** 2


def _lattice_spectrum(m1: int, m2: int) -> np.ndarray:
    return (_path_spectrum(m1)[:, None] + _path_spectrum(m2)).ravel()


def _barbell_spectrum(half: int) -> partial:
    # Vectors summing to zero over a clique's half-1 non-bridge items give
    # half, 2(half-2) times; the four-cell quotient gives 0 and half, and the
    # roots of x^2 - (half+2) x + 2, whose product is 2.
    big = (half + 2 + math.sqrt((half + 2) ** 2 - 8)) / 2
    return partial(np.repeat, [0.0, half, 2.0 / big, big], [1, 2 * half - 3, 1, 1])


def _expander_pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    # Margulis-Gabber-Galil degree-8 multigraph on the q x q torus.  The
    # four generator maps below, applied at every node and symmetrised,
    # give the 8 incidences; self-loops (at the torus axes) carry no
    # comparison information and are dropped from the edge multiset.
    x, y = np.divmod(np.arange(q * q), q)
    a = np.tile(x * q + y, 4)
    b = np.concatenate([
        ((x + 2 * y) % q) * q + y,
        ((x + 2 * y + 1) % q) * q + y,
        x * q + (y + 2 * x) % q,
        x * q + (y + 2 * x + 1) % q,
    ])
    return a[a != b], b[a != b]


_KIND_RE = re.compile(r"^([a-z_0-9]+)\((\d+),(\d+)\)$")


def parse_kind(kind: str) -> tuple[str, int | None, int | None]:
    """Split 'lattice2d(4,4)'-style kind strings into (name, m1, m2)."""
    match = _KIND_RE.match(kind.strip())
    if match:
        return match.group(1), int(match.group(2)), int(match.group(3))
    return kind.strip(), None, None


def _default_split(kind: str, d: int) -> tuple[int, int]:
    if kind == "complete_bipartite":
        return d - d // 2, d // 2
    # most-square factorisation with both sides >= 2
    for m1 in range(int(math.isqrt(d)), 1, -1):
        if d % m1 == 0 and d // m1 >= 2:
            return m1, d // m1
    raise ValueError(f"d={d} has no m1*m2 factorisation with m1, m2 >= 2")


def build_topology(kind: str, d: int) -> ComparisonDesign:
    """Build one of the canonical unweighted comparison topologies.

    The budget is spread evenly over the graph's edge multiset, so the
    scaled Laplacian is L'/|E|.  A parametrised kind names its split
    inline, as in ``complete_bipartite(3,5)``; without one, a balanced
    split is chosen, and a split on any other kind is refused.  The
    design's kind always carries the split.

    Every kind but the expander carries its edge count and its closed-form
    spectrum, which ``spectrum`` evaluates on first use with no Laplacian
    and no eigensolve; its edge arrays are built and checked only when
    first read.  Dimension errors raise here.

    Dimension preconditions: barbell needs even d, hypercube a power of
    two, lattice2d d = m1*m2 (both >= 2), complete_bipartite d = m1+m2,
    expander d = q^2 for prime q.
    """
    name, m1, m2 = parse_kind(kind)
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if name in ("complete_bipartite", "lattice2d"):
        if m1 is None:
            m1, m2 = _default_split(name, d)
    elif m1 is not None and name in PAIRWISE_KINDS:
        raise ValueError(f"topology kind {name!r} takes no split, got {kind!r}")
    if name == "complete":
        return _canonical(d, name, d * (d - 1) // 2, partial(np.triu_indices, d, 1),
                          partial(np.repeat, [0.0, d], [1, d - 1]))
    if name == "star":
        return _canonical(d, name, d - 1, partial(_star_pairs, d),
                          partial(np.repeat, [0.0, 1.0, d], [1, d - 2, 1]))
    if name == "path":
        return _canonical(d, name, d - 1, partial(_ring_pairs, d, d - 1),
                          partial(_path_spectrum, d))
    if name == "cycle":
        if d < 3:
            raise ValueError("cycle needs d >= 3")
        return _canonical(d, name, d, partial(_ring_pairs, d, d), partial(_cycle_spectrum, d))
    if name == "barbell":
        if d % 2 != 0 or d < 4:
            raise ValueError(f"barbell needs even d >= 4, got {d}")
        half = d // 2
        return _canonical(d, name, 2 * math.comb(half, 2) + 1, partial(_barbell_pairs, half),
                          _barbell_spectrum(half))
    if name == "complete_bipartite":
        if m1 + m2 != d or m1 < 1 or m2 < 1:
            raise ValueError(f"complete_bipartite needs d = m1+m2, got {d} != {m1}+{m2}")
        return _canonical(d, f"complete_bipartite({m1},{m2})", m1 * m2,
                          partial(_bipartite_pairs, m1, m2),
                          partial(np.repeat, [0.0, m2, m1, d], [1, m1 - 1, m2 - 1, 1]))
    if name == "lattice2d":
        if m1 * m2 != d or m1 < 2 or m2 < 2:
            raise ValueError(f"lattice2d needs d = m1*m2 with m1, m2 >= 2, got d={d}")
        return _canonical(d, f"lattice2d({m1},{m2})", m1 * (m2 - 1) + m2 * (m1 - 1),
                          partial(_lattice_pairs, m1, m2), partial(_lattice_spectrum, m1, m2))
    if name == "hypercube":
        bits = d.bit_length() - 1
        if d != 1 << bits or d < 4:
            raise ValueError(f"hypercube needs d a power of 2 (>= 4), got {d}")
        return _canonical(d, name, d // 2 * bits, partial(_hypercube_pairs, bits),
                          partial(np.repeat, 2.0 * np.arange(bits + 1),
                                  [math.comb(bits, i) for i in range(bits + 1)]))
    if name == "expander":
        q = math.isqrt(d)
        if q * q != d or not _is_prime(q):
            raise ValueError(f"expander needs d = q^2 for prime q, got {d}")
        return ComparisonDesign.from_arrays(d, *_unweighted(d, *_expander_pairs(q)), name)
    raise ValueError(f"unknown topology kind {kind!r}")


# ---------------------------------------------------------------------------
# Topology optimality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalityReport:
    """Raw spectral statistics plus a thresholded classification.

    ratio_r = 1/(lambda2 * d) is the gap ratio whose boundedness marks an
    optimal topology; lb_statistic is the trailing-window sum of inverse
    eigenvalues whose growth beyond d^2 marks a strictly suboptimal one.
    The thresholds are heuristics for fixed d (the underlying conditions
    are asymptotic), so the raw statistics are always reported.
    """

    ratio_r: float
    lb_statistic: float
    classification: str


def lower_bound_statistic(summary: SpectralSummary) -> float:
    """max over d' in {2..d} of sum_{i=floor(0.99 d')}^{d'} 1/lambda_i.

    Indices are 1-based over the ascending spectrum; zero eigenvalues
    contribute zero (pseudo-inverse reading), which also covers the small-d'
    windows that formally include lambda_1 = 0.
    """
    prefix = np.concatenate([[0.0], np.cumsum(summary.pinv_diag)])
    d_prime = np.arange(2, summary.d + 1)
    lo = np.floor(0.99 * d_prime).astype(np.intp)
    return float(np.max(prefix[d_prime] - prefix[lo - 1], initial=0.0))


def optimality_report(summary: SpectralSummary) -> OptimalityReport:
    """Classify a connected design as optimal (ratio_r <= 2), else suboptimal
    (lb_statistic > 4 d^2), else indeterminate."""
    if summary.lambda2 <= 0:
        raise ValueError("optimality analysis requires a connected design")
    d = summary.d
    ratio = 1.0 / (summary.lambda2 * d)
    stat = lower_bound_statistic(summary)
    if ratio <= 2.0:
        label = "optimal"
    elif stat > 4.0 * d * d:
        label = "suboptimal"
    else:
        label = "indeterminate"
    return OptimalityReport(ratio_r=ratio, lb_statistic=stat, classification=label)
