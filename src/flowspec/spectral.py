"""Non-Hermitian eigenanalysis of graded operators, and spectrum-level verdicts.

Each degree block is decomposed densely, with eigenvalues only
(``eigenvalue_spectrum``, the run path) or with two-sided eigenvectors
(``full_spectrum``, the library path and the test oracle); a run takes its
one eigenvector, the stationary density, by inverse iteration
(``_null_vector``).  Left and right eigenvectors are paired per eigenvalue
*cluster* (eigenvalues linked by steps closer than 1e-7 of the spectral
radius are handled jointly: under degeneracy the individual left/right
pairing is ill-posed, but the cluster-local Gram matrix is invertible and one
solve bi-orthonormalizes the whole cluster).  Reports order their entries by
the same clusters: by centroid (Re, Im), then by degree, then (Re, Im), so
that eigenvalues equal to roundoff keep one order whichever routine solved
them.

Eigenvalue-only solves (``_block_eigenvalues``, whose docstring gives the
test each route makes) take the first route a block's form allows, in this
order: the symmetric form of an fd gradient-flow block (``svdvals`` of an
edge factor at degree 0, ``eigvalsh`` elsewhere); one f x f symbol matrix
per wavevector for a translation-invariant block on a periodic grid
(``bloch``: the constant flows on the circle and the torus); nonsymmetric
``eigvals`` for everything else.

A ``SpectrumReport`` holds the spectrum as parallel arrays in report order:
``degree``, ``eigenvalue``, ``residual`` (the bi-orthonormality residual,
zero without vectors) and ``centroid`` (the mean of each entry's cluster,
which orders the report and pairs conjugates in the CSV).  With vectors,
``left[k]`` and ``right[k]`` are the degree-k eigenvector matrices, their
columns in the order of ``eigenvalues(k)``.  One packer, ``_spectrum_report``, builds every report
from per-degree eigenvalues; ``full_spectrum`` then attaches its vectors.
Multisets are compared by one greedy nearest-neighbour matcher,
``_match_nearest``, run cluster by cluster.  This module writes no files:
``_csv_flags`` gives the spectrum CSV's pair-id and physical-flag columns as
arrays, and ``reporting`` writes the file.

Naming: for an eigenvalue lambda = Gamma + i E, Gamma is the attenuation
rate (decay rate of the mode) and E the oscillation frequency.  States with
Gamma ~ 0 survive the long-time evolution; their oscillation content decides
the phase verdict:

* some surviving state oscillates (|E| > tau_E)      -> "Q-broken"
* surviving states exist and none oscillates          -> "unbroken-Markovian"
* no surviving state at all                           -> "indeterminate"

One rule, ``_zero_modes``, decides which entries are zero modes (|lambda| <= tau0).
Their alternating count by degree (the index) is a topological invariant: it
matches the mesh Euler characteristic and is independent of the flow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .exceptions import (
    CapacityError,
    EigensolverError,
    GapAmbiguityWarning,
)
from .hamiltonian import _SYMMETRY_TOL, GradedOperator, _symmetric_form

__all__ = [
    "SpectrumReport",
    "PhaseClassification",
    "PairingReport",
    "full_spectrum",
    "eigenvalue_spectrum",
    "synthetic_spectrum",
    "classify_phase",
    "witten_index",
    "zero_mode_counts",
    "susy_pairing_check",
]

_CLUSTER_REL = 1e-7
_DEFAULT_TOL_REL = 1e-8
_DENSE_CAP = 8192
_SHIFT_REL = 1e-8
_INVERSE_STEPS = 3
_FACTOR_TOL = 1e-12
# a fourier block's deviation from its translates is about 2 ulp of max|A|
_TRANSLATION_TOL = 64 * np.finfo(float).eps
_INVARIANCE_CHUNK = 1 << 14  # block entries compared at a time by the invariance test


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of every degree block, as parallel arrays in report order.

    ``degree[i]``, ``eigenvalue[i]`` and ``residual[i]`` describe entry i;
    entries are in the canonical order of ``_spectrum_report``, and
    ``centroid[i]`` is the mean of entry i's eigenvalue cluster.
    ``residual[i]`` is the worst deviation of the entry's row of the
    left-right Gram matrix from the identity, zero when no vectors were
    computed.  ``left[k]`` and
    ``right[k]`` hold the bi-orthonormalized eigenvectors of degree k as
    columns, in the order of ``eigenvalues(k)``; both are ``None`` for
    vector-free and synthetic reports.
    """

    degree: np.ndarray
    eigenvalue: np.ndarray
    residual: np.ndarray
    centroid: np.ndarray
    left: Optional[Tuple[np.ndarray, ...]]
    right: Optional[Tuple[np.ndarray, ...]]
    spectral_radius: float
    dimension: int
    block_sizes: Tuple[int, ...]

    def eigenvalues(self, degree: Optional[int] = None) -> np.ndarray:
        if degree is None:
            return self.eigenvalue.copy()
        return self.eigenvalue[self.degree == degree]

    def max_residual(self) -> float:
        return float(np.max(self.residual, initial=0.0))


@dataclass(frozen=True)
class PhaseClassification:
    verdict: str  # "unbroken-Markovian" | "Q-broken" | "indeterminate"
    tau_gamma: float
    tau_e: float
    evidence: np.ndarray  # indices of the surviving entries in the report


def _default_tau(report: SpectrumReport, given: Optional[float]) -> float:
    if given is not None:
        if given <= 0:
            raise ValueError("tolerances must be positive")
        return float(given)
    return _DEFAULT_TOL_REL * report.spectral_radius


# ----------------------------------------------------------------------
# decomposition
# ----------------------------------------------------------------------

def full_spectrum(op: GradedOperator) -> SpectrumReport:
    """Dense two-sided eigendecomposition of every degree block.

    Raises the capacity error when the summed block sizes exceed
    ``_DENSE_CAP`` and the eigensolver error if LAPACK fails to converge on
    some block.
    """
    _check_capacity(op.mesh.cell_counts)
    solved = {k: _lapack(k, scipy.linalg.eig, _finite_block(op, k),
                         check_finite=False, left=True, right=True)
              for k in op.degrees()}
    report, order = _spectrum_report({k: w for k, (w, _, _) in solved.items()},
                                     op.mesh.dimension)
    residual = np.zeros(len(report.eigenvalue))
    left, right = [], []
    start = 0
    for k, (w, vl, vr) in solved.items():
        vl, vr, res = _biorthonormalize(w, vl, vr, report.spectral_radius)
        # the block's entries in report order, read off the report's permutation
        cols = order[report.degree == k] - start
        start += len(w)
        left.append(vl[:, cols])
        right.append(vr[:, cols])
        residual[report.degree == k] = res[cols]
    return replace(report, residual=residual, left=tuple(left), right=tuple(right))


def eigenvalue_spectrum(op: GradedOperator) -> SpectrumReport:
    """Eigenvalues of every degree block, without eigenvectors.

    Same capacity check, errors and entry order as :func:`full_spectrum`;
    ``left`` and ``right`` are ``None`` and every residual is zero.  Enough for the verdicts,
    the index and the zero-mode counts, at a fraction of the cost.
    """
    _check_capacity(op.mesh.cell_counts)
    return _spectrum_report({k: _block_eigenvalues(op, k) for k in op.degrees()},
                            op.mesh.dimension)[0]


def _finite_block(op: GradedOperator, k: int) -> np.ndarray:
    """The degree-``k`` block, refused when it has non-finite entries."""
    block = op.block(k)
    if not np.isfinite(block).all():
        raise EigensolverError(f"the degree-{k} block at noise level "
                               f"{op.noise.epsilon!r} has non-finite entries")
    return block


def _lapack(k: int, solver, a: np.ndarray, **kwargs):
    """``solver(a, **kwargs)`` for the degree-``k`` block, a convergence
    failure raised as the eigensolver error."""
    try:
        return solver(a, **kwargs)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigensolverError(
            f"eigensolver failed to converge on the degree-{k} block"
        ) from exc


def _null_vector(op: GradedOperator, k: int, eigenvalue: complex,
                 radius: float) -> np.ndarray:
    """Right eigenvector of the degree-``k`` block for a known ``eigenvalue``.

    Inverse iteration: one LU of ``H - sigma I``, sigma just past the
    eigenvalue (``_SHIFT_REL`` of the spectral radius, so that no pivot is
    exactly zero), then ``_INVERSE_STEPS`` solves from the constant vector.
    Scaled as ``full_spectrum`` scales right vectors (unit norm, dominant
    component real positive); refused unless ``||Hv - lambda v|| <= 1e-8 radius``.
    """
    block = op.block(k)
    scale = radius or 1.0  # a zero block still gets a nonzero shift
    shift = complex(eigenvalue) + _SHIFT_REL * scale
    lu = scipy.linalg.lu_factor(block - shift * np.eye(len(block)), check_finite=False)
    v = np.ones(len(block), dtype=complex)
    for _ in range(_INVERSE_STEPS):
        v = scipy.linalg.lu_solve(lu, v, check_finite=False)
        v /= np.max(np.abs(v))
    j = int(np.argmax(np.abs(v)))
    v /= v[j] / abs(v[j]) * np.linalg.norm(v)
    residual = float(np.linalg.norm(block @ v - eigenvalue * v))
    if not residual <= _DEFAULT_TOL_REL * scale:  # also refuses NaN
        raise EigensolverError(
            f"inverse iteration on the degree-{k} block missed the eigenvalue "
            f"{complex(eigenvalue)!r} (residual {residual:.3e})"
        )
    return v


def _block_eigenvalues(op: GradedOperator, k: int) -> np.ndarray:
    """Eigenvalues of the degree-``k`` block, by the first route its form allows.

    1. An fd block of a declared gradient flow at epsilon > 0 whose
       similarity S = diag(sqrt(eta)) H diag(1/sqrt(eta)) is symmetric within
       ``_SYMMETRY_TOL`` is solved as (S + S^T)/2: at degree 0 as the squared
       singular values of its edge factor (``svdvals``, see
       ``_gradient_factor``), elsewhere, or when degree 0 does not factor,
       with ``eigvalsh``.
    2. A translation-invariant block on a periodic grid (``_bloch_symbols``)
       is solved per wavevector (``bloch``): batched eigenvalues of its n0
       symbol matrices of size f x f.
    3. Every other block goes to LAPACK geev without vectors (``eigvals``).

    The routes cut the solve, not the assembly: the capacity cap still
    applies, because ``hamiltonian`` builds every block dense for its
    two-route self-check and ``_null_vector`` factors the dense block.  A
    block invariant along one grid axis only still goes to ``eigvals``, and
    ``full_spectrum``, the library path and the test oracle, stays dense.
    """
    block = _finite_block(op, k)
    if op.backend == "fd" and op.flow.langevin and not op.noise.is_deterministic:
        eta, sym, asymmetry = _symmetric_form(op.mesh, op.flow.w, k, block)
        if asymmetry <= _SYMMETRY_TOL:
            sym = 0.5 * (sym + sym.T)
            factor = _gradient_factor(op.mesh, eta, sym) if k == 0 else None
            if factor is not None:
                return _lapack(k, scipy.linalg.svdvals, factor, check_finite=False) ** 2
            return _lapack(k, scipy.linalg.eigvalsh, sym, check_finite=False)
    symbols = _bloch_symbols(op.mesh, k, block, exact=op.backend == "fd")
    if symbols is not None:
        return _lapack(k, np.linalg.eigvals, symbols).ravel()
    return _lapack(k, scipy.linalg.eigvals, block, check_finite=False)


def _bloch_symbols(mesh, k: int, block: np.ndarray, exact: bool) -> Optional[np.ndarray]:
    """Symbol matrices of a translation-invariant degree-``k`` block, one per
    wavevector, or ``None`` when the block is not invariant.

    With the cells laid out as ``mesh.cochain_shape(k)`` = (f, *grid_shape),
    the block is invariant when A[(a, x), (b, y)] = c_ab(y - x) for every
    entry, where the stencil c_a is row (a, 0), the origin cell of family a.
    The rows it predicts are one strided view of c, nothing copied: with c
    tiled twice along each grid axis, the length-n window that starts at
    n - x on each axis is c(. - x).  The test holds exactly when ``exact``
    (fd), else within ``_TRANSLATION_TOL`` of the largest stencil entry
    (fourier: its dense circulant products differ from translates at
    roundoff); a NaN fails it.  It compares whole (a, x_0) slabs of rows,
    several at a time where a slab is short (one-axis grids), with no
    block-sized temporary, and stops at the first chunk that fails.  The
    symbols are the FFT of c over the grid axes, as an (n0, f, f) stack:
    their eigenvalues over all n0 wavevectors are the block's (the
    transform's sign only permutes them).
    """
    shape = mesh.cochain_shape(k)
    if shape is None:
        return None
    f, grid = shape[0], shape[1:]
    axes = tuple(range(2, 2 + len(grid)))
    stencil = block[::math.prod(grid)].reshape((f,) + shape)  # rows (a, 0)
    tol = 0.0 if exact else _TRANSLATION_TOL * np.max(np.abs(stencil))
    windows = np.lib.stride_tricks.sliding_window_view(
        np.tile(stencil, (1, 1) + (2,) * len(grid)), grid, axis=axes)
    # expected[a, x, b, y] = c_ab(y - x), laid out as the block's rows and columns
    backwards = (slice(None), slice(None)) + tuple(slice(n, 0, -1) for n in grid)
    expected = np.moveaxis(windows[backwards], 1, 1 + len(grid))
    rows = block.reshape(expected.shape)
    # whole (a, x_0) slabs, as many at a time as fit _INVARIANCE_CHUNK entries
    step = max(1, _INVARIANCE_CHUNK // rows[0, 0].size)
    for a in range(f):
        for lo in range(0, grid[0], step):
            span = (a, slice(lo, lo + step))
            if not np.all(np.abs(rows[span] - expected[span]) <= tol):
                return None
    symbols = np.fft.fftn(stencil, axes=axes)
    return np.moveaxis(symbols.reshape(f, f, -1), 2, 0)


def _gradient_factor(mesh, eta: np.ndarray, sym: np.ndarray) -> Optional[np.ndarray]:
    """Edge factor B with B^T B = ``sym``, or ``None`` when there is none.

    With v = sqrt(eta) normalized, a symmetric degree-0 block that kills v and
    couples vertices only along edges is sum_e c_e b_e b_e^T, where the edge
    (i, j) has c_e = -S_ij / (v_i v_j) and b_e = v_j e_i - v_i e_j.  B stacks
    the rows sqrt(c_e) b_e; it annihilates v exactly, so the zero mode is
    exact, and its singular values carry the tunnelling gaps with high
    relative accuracy.  Refused unless every c_e > 0, B has a row per vertex
    at least, and ||B^T B - S|| <= ``_FACTOR_TOL`` ||S|| (max norm).
    """
    v = np.sqrt(eta)
    v = v / np.linalg.norm(v)
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = -sym[i, j] / (v[i] * v[j])
    if len(c) < len(v) or not np.all(c > 0):
        return None
    root, rows = np.sqrt(c), np.arange(len(c))
    factor = np.zeros((len(c), len(v)))
    factor[rows, i] = root * v[j]
    factor[rows, j] = -root * v[i]
    error = np.max(np.abs(factor.T @ factor - sym))
    if not error <= _FACTOR_TOL * np.max(np.abs(sym)):  # also refuses NaN
        return None
    return factor


def _check_capacity(sizes: Tuple[int, ...]) -> None:
    """Refuse a dense solve of blocks with ``sizes`` unknowns beyond ``_DENSE_CAP``.

    The cap is read at call time, so a test may lower it.
    """
    if sum(sizes) > _DENSE_CAP:
        raise CapacityError(
            f"total unknowns {sum(sizes)} exceed the dense-solver cap {_DENSE_CAP} "
            f"(blocks: {sizes})"
        )


def _spectrum_report(per_degree: Dict[int, np.ndarray],
                     dimension: int) -> Tuple[SpectrumReport, np.ndarray]:
    """Pack the eigenvalues of each degree into one vector-free report.

    Returns the report and its permutation of the concatenated input.  The
    entries are grouped into clusters (``_cluster_labels`` at
    ``_CLUSTER_REL`` of the spectral radius), and the clusters are ordered by
    their centroid (Re, Im): by Re, where centroids whose real parts chain by
    steps within that tolerance count as one, then by Im.  The members of a
    cluster follow by degree, then (Re, Im).  Eigenvalues that agree to
    roundoff thus keep one order whichever solver produced them.  Capacity
    is the caller's to check.
    """
    degree = np.concatenate([np.full(len(w), k) for k, w in per_degree.items()])
    eigenvalue = np.concatenate(list(per_degree.values())).astype(complex, copy=False)
    radius = float(np.max(np.abs(eigenvalue), initial=0.0))
    thr = _CLUSTER_REL * max(radius, 1e-300)
    n = len(eigenvalue)
    label, centre = _cluster_centroids(eigenvalue, thr)
    by_re = np.argsort(centre.real, kind="stable")
    band = np.empty(n, dtype=int)
    band[by_re] = np.cumsum(np.diff(centre.real[by_re], prepend=-np.inf) > thr)
    order = np.lexsort((eigenvalue.imag, eigenvalue.real, degree, label, centre.imag, band))
    report = SpectrumReport(degree[order], eigenvalue[order], np.zeros(n), centre[order],
                            None, None, radius, dimension,
                            tuple(len(w) for w in per_degree.values()))
    return report, order


def _cluster_centroids(w: np.ndarray, thr: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per eigenvalue, its cluster label (``_cluster_labels``) and the mean
    of its cluster, the same for every member."""
    n = len(w)
    label = _cluster_labels(w, thr)
    size = np.bincount(label, minlength=n)[label]
    centre = np.empty(n, dtype=complex)
    centre.real = np.bincount(label, w.real, n)[label] / size
    centre.imag = np.bincount(label, w.imag, n)[label] / size
    return label, centre


def _clusters(w: np.ndarray, thr: float) -> List[np.ndarray]:
    """Connected components of the graph joining eigenvalues within ``thr``,
    each listing its members in (Re, Im) order."""
    label = _cluster_labels(w, thr)
    order = np.lexsort((w.imag, w.real))
    grouped = order[np.argsort(label[order], kind="stable")]
    return np.split(grouped, np.flatnonzero(np.diff(label[grouped])) + 1)


def _cluster_labels(w: np.ndarray, thr: float) -> np.ndarray:
    """Per eigenvalue, the smallest index in its component of the graph
    joining eigenvalues within ``thr``.

    Every such pair is joined, not only lexicographic neighbours, whose
    chain splits a degenerate eigenvalue interleaved with its conjugates.
    Candidates are the pairs in one square or adjacent squares of a grid of
    side 2 thr, which no pair within thr spans (side 1 for thr 0 or inf).
    """
    side = 2 * thr if 0 < thr < np.inf else 1.0
    key = np.empty(len(w), dtype=complex)  # the cell of each value
    key.real, key.imag = np.floor(w.real / side), np.floor(w.imag / side)
    order = np.flatnonzero(np.isfinite(key))  # a non-finite value joins nothing
    order = order[np.argsort(key[order], kind="stable")]  # complex keys sort by (Re, Im)
    cells, start, size = np.unique(key[order], return_index=True, return_counts=True)
    c1, c2 = [], []
    for step in (0, 1j, 1 - 1j, 1, 1 + 1j):  # each cell, then its neighbours ahead
        at = np.minimum(np.searchsorted(cells, cells + step), len(cells) - 1)
        c1.append(np.flatnonzero(cells[at] == cells + step))
        c2.append(at[c1[-1]])
    c1, c2 = np.concatenate(c1), np.concatenate(c2)
    count = size[c1] * size[c2]  # every member of cell c1 against every one of c2
    block = np.repeat(np.arange(len(count)), count)
    t = np.arange(np.sum(count)) - np.repeat(np.cumsum(count) - count, count)
    i = order[start[c1][block] + t // size[c2][block]]
    j = order[start[c2][block] + t % size[c2][block]]
    keep = np.abs(w[i] - w[j]) <= thr
    i, j = np.append(i[keep], j[keep]), np.append(j[keep], i[keep])  # both ways
    labels = np.arange(len(w))
    while True:  # min-label propagation with pointer jumping
        merged = labels.copy()
        np.minimum.at(merged, i, labels[j])
        merged = merged[merged]
        if np.array_equal(merged, labels):
            return labels
        labels = merged


def _biorthonormalize(w, vl, vr, radius):
    """Cluster-joint bi-orthonormalization; returns adjusted vl, vr, residuals.

    scipy convention: ``vl[:,i].conj().T @ A = w[i] * vl[:,i].conj().T``.
    After this transform, ``vl.conj().T @ vr`` is the identity within
    roundoff (cluster-local solve handles degeneracies).
    """
    n = len(w)
    if n == 0:
        return vl, vr, np.zeros(0)
    clusters = _clusters(w, _CLUSTER_REL * max(radius, 1e-300))

    vl = vl.astype(complex).copy()
    vr = vr.astype(complex).copy()
    for idx in clusters:
        sub_l = vl[:, idx]
        sub_r = vr[:, idx]
        gram = sub_l.conj().T @ sub_r
        try:
            vl[:, idx] = sub_l @ np.linalg.inv(gram).conj().T
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(
                "left/right eigenvector cluster is numerically defective "
                f"(cluster eigenvalues {w[idx]})"
            ) from exc

    # deterministic scale: unit right vector, dominant component real positive
    for i in range(n):
        r = vr[:, i]
        j = int(np.argmax(np.abs(r)))
        s = r[j] / abs(r[j]) * np.linalg.norm(r)
        vr[:, i] = r / s
        vl[:, i] = vl[:, i] * np.conj(s)

    if n <= 3000:
        gram = vl.conj().T @ vr
        residuals = np.max(np.abs(gram - np.eye(n)), axis=1)
    else:  # cluster-local residual for very large blocks
        residuals = np.zeros(n)
        for idx in clusters:
            g = vl[:, idx].conj().T @ vr[:, idx]
            residuals[idx] = np.max(np.abs(g - np.eye(len(idx))), axis=1)
    return vl, vr, residuals


def synthetic_spectrum(values: Sequence[complex]) -> SpectrumReport:
    """Wrap a bare eigenvalue multiset, as degree 0 of a circle, for the
    classifiers (no eigenvectors); a non-finite value is refused."""
    w = np.asarray(values, dtype=complex)
    bad = w[~np.isfinite(w)]
    if len(bad):
        raise ValueError(f"a synthetic spectrum needs finite values, got {complex(bad[0])!r}")
    return _spectrum_report({0: w}, 1)[0]


# ----------------------------------------------------------------------
# phase verdicts
# ----------------------------------------------------------------------

def classify_phase(report: SpectrumReport,
                   tau_gamma: Optional[float] = None,
                   tau_e: Optional[float] = None) -> PhaseClassification:
    """Phase verdict as a pure function of the eigenvalue multiset.

    The survivors are the entries with |Gamma| <= tau_gamma.  An empty
    survivor set yields "indeterminate" rather than an error, so sweeps over
    marginal operators always complete.
    """
    tg = _default_tau(report, tau_gamma)
    te = _default_tau(report, tau_e)
    surviving = np.flatnonzero(np.abs(report.eigenvalue.real) <= tg)
    if np.any(np.abs(report.eigenvalue.imag[surviving]) > te):
        verdict = "Q-broken"
    elif len(surviving):
        verdict = "unbroken-Markovian"
    else:
        verdict = "indeterminate"
    return PhaseClassification(verdict, tg, te, surviving)


def _zero_modes(report: SpectrumReport, tau0: Optional[float]) -> np.ndarray:
    """The one zero-mode rule, as a mask over the report's entries: |lambda| <= tau0."""
    return np.abs(report.eigenvalue) <= _default_tau(report, tau0)


def witten_index(report: SpectrumReport, tau0: Optional[float] = None) -> int:
    """Alternating-by-degree count of zero modes, sum_k (-1)^k ``zero_mode_counts``[k].

    If some eigenvalue magnitude falls in the ambiguous band (tau0, 10*tau0],
    a gap-ambiguity warning is issued: the zero/nonzero split is then
    sensitive to the threshold.
    """
    tau = _default_tau(report, tau0)
    ambiguous = np.flatnonzero(~_zero_modes(report, tau0)
                               & (np.abs(report.eigenvalue) <= 10.0 * tau))
    if len(ambiguous):
        # Python scalars, so the message reads the same under every numpy
        shown = [(int(report.degree[i]), complex(report.eigenvalue[i]))
                 for i in ambiguous[:4]]
        warnings.warn(
            f"{len(ambiguous)} eigenvalue(s) within a factor 10 of the "
            f"zero-mode threshold {tau:.3e}; the index count is "
            f"threshold-sensitive: {shown}",
            GapAmbiguityWarning,
            stacklevel=2,
        )
    return sum((-1) ** k * c for k, c in enumerate(zero_mode_counts(report, tau0)))


def zero_mode_counts(report: SpectrumReport, tau0: Optional[float] = None) -> Tuple[int, ...]:
    """Number of zero modes (|lambda| <= tau0) per degree 0..D."""
    zero = report.degree[_zero_modes(report, tau0)]
    return tuple(np.bincount(zero, minlength=report.dimension + 1).tolist())


# ----------------------------------------------------------------------
# pairing across adjacent degrees
# ----------------------------------------------------------------------

def _match_nearest(a, b, tol: float = np.inf) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy consuming nearest-neighbour matching of the values ``a`` into ``b``.

    For each ``a[i]`` in order, the nearest ``b[j]`` not yet taken (the
    first ``j`` on a tie) is accepted when ``|a[i] - b[j]| <= tol``; a
    rejected ``a[i]`` takes nothing.  Returns the matched indices (-1 where
    rejected) and the distance from each ``a[i]`` to its nearest free
    ``b[j]`` (inf once ``b`` is used up).

    Phase 1 applies the rule within each cluster of a and b (``_cluster_labels``
    at ``_CLUSTER_REL`` of max|a, b|) that is tight (bounding-box diagonal
    within that threshold) and holds no more a's than b's, batched over the
    clusters of one membership; phase 2 loops over the other a's against
    the b's left free.  Clusters lie farther apart than a tight one is wide,
    so when all are tight and balanced this is the plain loop, bit for bit.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    match, dist = np.full(len(a), -1), np.full(len(a), np.inf)
    if not len(a) or not len(b):
        return match, dist
    w = np.concatenate([a, b])
    thr = _CLUSTER_REL * np.max(np.abs(w))
    label = _cluster_labels(w, thr)
    order = np.argsort(label, kind="stable")  # by cluster, its a's first, each by index
    start = np.flatnonzero(np.diff(label[order], prepend=-1))
    size, n_a = np.diff(start, append=len(w)), np.add.reduceat(order < len(a), start)
    box = [np.maximum.reduceat(x, start) - np.minimum.reduceat(x, start)
           for x in (w.real[order], w.imag[order])]  # each cluster's extent in Re and Im
    first = (np.hypot(*box) <= thr) & (n_a <= size - n_a) & np.isfinite(thr)
    free = np.ones(len(b), dtype=bool)
    for na, m in set(zip(n_a[first].tolist(), size[first].tolist())):
        members = order[start[first & (n_a == na) & (size == m)][:, None] + np.arange(m)]
        ia, jb, rows = members[:, :na], members[:, na:] - len(a), np.arange(len(members))
        for t in range(na):
            near = np.where(free[jb], np.abs(b[jb] - a[ia[:, t, None]]), np.inf)
            k = np.argmin(near, axis=1)
            dist[ia[:, t]] = near[rows, k]
            hit = near[rows, k] <= tol
            match[ia[hit, t]] = jb[hit, k[hit]]
            free[jb[hit, k[hit]]] = False
    rest = np.sort(order[np.repeat(~first, size)])
    for i in rest[rest < len(a)]:
        cand = np.flatnonzero(free)
        if not len(cand):
            break
        d = np.abs(b[cand] - a[i])
        j = int(np.argmin(d))
        dist[i] = d[j]
        if d[j] <= tol:
            match[i] = cand[j]
            free[cand[j]] = False
    return match, dist


@dataclass(frozen=True)
class PairingReport:
    n_bonds: int
    bonds_by_adjacency: Tuple[Tuple[int, int, int], ...]
    unpaired: Tuple[Tuple[int, complex], ...]
    max_mismatch: float
    multiset_equal: Optional[bool]
    tol: float


def susy_pairing_check(report: SpectrumReport, tol: float = 1e-8) -> PairingReport:
    """Match every nonzero eigenvalue with a partner in an adjacent degree.

    Nonzero modes of adjacent blocks pair up through d and its adjoint; a
    middle-degree value may bond either down or up but not both, so matching
    proceeds degree pair by degree pair with consumption.  On 1-dimensional
    meshes the check additionally reports whether the nonzero degree-0 and
    degree-1 spectra agree as multisets.
    """
    atol = tol * max(report.spectral_radius, 1.0)
    nonzero = ~_zero_modes(report, None)
    by_degree = [report.eigenvalue[nonzero & (report.degree == k)]
                 for k in range(report.dimension + 1)]

    used = [np.zeros(len(v), dtype=bool) for v in by_degree]
    bonds = []
    max_mismatch = 0.0
    for k in range(report.dimension):
        free = np.flatnonzero(~used[k])  # values already bonded down stay out
        j, dist = _match_nearest(by_degree[k][free], by_degree[k + 1], atol)
        hit = j >= 0
        used[k][free[hit]] = True
        used[k + 1][j[hit]] = True
        bonds.append((k, k + 1, int(np.sum(hit))))
        max_mismatch = max(max_mismatch, float(np.max(dist[hit], initial=0.0)))

    unpaired = tuple(
        (k, complex(lam))
        for k, vals in enumerate(by_degree)
        for lam in vals[~used[k]]
    )
    multiset_equal: Optional[bool] = None
    if report.dimension == 1:
        a, b = by_degree
        multiset_equal = len(a) == len(b) and bool(np.all(_match_nearest(a, b, atol)[0] >= 0))
    return PairingReport(
        n_bonds=sum(c for _, _, c in bonds),
        bonds_by_adjacency=tuple(bonds),
        unpaired=unpaired,
        max_mismatch=max_mismatch,
        multiset_equal=multiset_equal,
        tol=tol,
    )


# ----------------------------------------------------------------------
# CSV columns
# ----------------------------------------------------------------------

def _csv_flags(report: SpectrumReport,
               tau_gamma: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Pair-id and physical-flag columns of the spectrum CSV, in report order.

    ``pair_id`` links an oscillating eigenvalue with its complex conjugate
    within the same degree (-1 for effectively real eigenvalues);
    ``physical`` marks the entries with |Gamma| <= tau_gamma.  Conjugates are
    matched by the report's cluster centroids, so members of a cluster
    degenerate to roundoff tie exactly and pair in report order, whichever
    solver produced their last bits.
    """
    tau = _default_tau(report, tau_gamma)
    scale = max(report.spectral_radius, 1.0)
    ev, centre = report.eigenvalue, report.centroid
    pair_ids = np.full(len(ev), -1)
    next_id = 0
    for k in range(report.dimension + 1):
        pos = np.flatnonzero((report.degree == k) & (ev.imag > 1e-10 * scale))
        neg = np.flatnonzero((report.degree == k) & (ev.imag < -1e-10 * scale))
        j, _ = _match_nearest(np.conj(centre[pos]), centre[neg], 1e-8 * scale)
        hit = j >= 0
        ids = next_id + np.arange(np.sum(hit))
        pair_ids[pos[hit]] = ids
        pair_ids[neg[j[hit]]] = ids
        next_id += len(ids)
    return pair_ids, np.abs(ev.real) <= tau
