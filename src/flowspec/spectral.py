"""Non-Hermitian eigenanalysis of graded operators, and spectrum-level verdicts.

Each degree block is decomposed with eigenvalues only
(``eigenvalue_spectrum``, the run path) or densely with two-sided
eigenvectors (``full_spectrum``, the library path and the test oracle); a
run takes its one eigenvector, the stationary density, off the top block's
route (``_null_vector``): the constant vector for a bloch block, 1/s^2 from
the weights s that the plan keeps for a symmetric route, inverse iteration
on an ``eigvals`` block.  Blocks arrive in their stored form (CSR on fd,
dense on fourier) and are read in it; a dense solver makes a dense copy of
what it solves, when it solves it, so a run whose blocks all take the bloch
or a banded route builds no dense block.
Left and right eigenvectors are paired per eigenvalue
*cluster* (eigenvalues linked by steps closer than 1e-7 of the spectral
radius are handled jointly: under degeneracy the individual left/right
pairing is ill-posed, but the cluster-local Gram matrix is invertible and one
solve bi-orthonormalizes the whole cluster).  Reports order their entries by
the same clusters: by centroid (Re, Im), then by degree, then (Re, Im), so
that eigenvalues equal to roundoff keep one order whichever routine solved
them.

Eigenvalue-only solves are planned, then solved: ``_plan`` routes every
block by its entries into one ``_Route`` record (``_block_route``), makes
nothing dense, and caps the blocks of every route but bloch before ``_solve``
makes their dense copies; a bloch level is refused instead on a grid finer
than the zero-mode threshold resolves.  What a route reads off the block's
pattern alone is a ``pattern._Pattern`` record, which a run builds once per
pattern and refills at every noise level; every test reads the level's own
entries.  The routes, first that applies:

* ``bloch``: a translation-invariant block, by its f x f symbols;
* a symmetric form under a measured diagonal similarity, whose degree-0
  pair factor is solved by its singular values, and any other form by a
  symmetric eigensolve: banded where the band measured from the entries is
  narrow (``band_svdvals``, LAPACK dgbbrd then dqds; ``eigvals_banded``),
  dense where it is wide (``svdvals``, ``eigvalsh``).  A 1-D periodic grid's
  form is folded once first, which makes its band narrow;
* ``eigvals``: LAPACK geev without vectors, on a dense copy.

The verdicts live at the slow end: the survivors |Re lambda| <= tau_gamma,
the zero modes |lambda| <= tau0, the tunnelling gaps; the fast end only sets
the spectral radius that scales the default thresholds.  So a level that no
task reads whole (``spectrum``, ``stationary``) is solved for its slow end
(``_solve`` with ``slow_end``, ``banded._SlowEnd``): a banded block is
reduced to a symmetric tridiagonal and bisected (LAPACK dstebz at ABSTOL at
most u^2 s_max, which keeps the factor's relative accuracy) for its largest
eigenvalue, every eigenvalue up to 10 x the largest threshold
(``_slow_end_bound``), and the smallest that a splitting scan reads.  A
banded block's eigenvalues are real, so the strip that ``classify_phase``
reads is an interval.  Every other route, and every level read whole, is
solved whole.

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

One BLAS per run: numpy and scipy wheels each bundle their own OpenBLAS,
each with its own thread pool, and a numpy BLAS call next to a scipy LAPACK
solve makes the two pools contend (it about doubles the solve on two cores).
So on the run path scipy (``scipy.linalg``, ``scipy.linalg.blas``,
``scipy.sparse``) does all matrix-sized work, the banded routes and their
slow ends included: ``eigvals_banded``, and the routines that ``banded``
calls through the pointers ``scipy.linalg.cython_lapack`` exports, are
scipy's LAPACK.
``_null_vector`` takes its residual from a sparse product (two ``dgemv``
calls on a dense block) and its norms from ``dznrm2``.
numpy does elementwise work (the route tests, the pair factor's B^T B
summed entry by entry), FFTs and the tiny batched solves (the f x f Bloch
symbols here, the 1 x 1 and 2 x 2 matrices of ``morse``).

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse

from .exceptions import (
    EigensolverError,
    GapAmbiguityWarning,
    NumericalError,
)
from .banded import _band_svdvals, _SlowEnd, _tridiagonal
from .hamiltonian import GradedOperator, _check_capacity
from .operators import _dense
from .pattern import _Pattern, _Route, _stored

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
_PAIRING_TOL = 1e-8
_SHIFT_REL = 1e-8
_INVERSE_STEPS = 3
# a fourier block's deviation from its translates is about 2 ulp of max|A|
_TRANSLATION_TOL = 64 * np.finfo(float).eps
_INVARIANCE_CHUNK = 1 << 14  # stored block entries the invariance test reads at a time
_GRAM_CAP = 3000  # largest block whose residual reads the whole Gram matrix


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
    vector-free and synthetic reports.  ``spectral_radius`` is the largest
    |eigenvalue|, kept because every verdict reads it; ``block_sizes``
    counts the entries of each degree 0..``dimension``.
    """

    degree: np.ndarray
    eigenvalue: np.ndarray
    residual: np.ndarray
    centroid: np.ndarray
    left: Optional[Tuple[np.ndarray, ...]]
    right: Optional[Tuple[np.ndarray, ...]]
    spectral_radius: float
    dimension: int

    @property
    def block_sizes(self) -> Tuple[int, ...]:
        return tuple(np.bincount(self.degree, minlength=self.dimension + 1).tolist())

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


def _default_tau(radius: float, given: Optional[float]) -> float:
    """A threshold: ``given``, or ``_DEFAULT_TOL_REL`` of the spectral ``radius``."""
    if given is not None:
        if given <= 0:
            raise ValueError("tolerances must be positive")
        return float(given)
    return _DEFAULT_TOL_REL * radius


# ----------------------------------------------------------------------
# decomposition
# ----------------------------------------------------------------------

def full_spectrum(op: GradedOperator) -> SpectrumReport:
    """Dense two-sided eigendecomposition of every degree block.

    Every block is made dense, so the capacity error is raised when the
    summed block sizes exceed the dense-solver cap, before any block is; the
    eigensolver error if LAPACK fails to converge on some block.
    """
    _check_capacity(op.mesh.cell_counts)
    solved = {k: _lapack(k, scipy.linalg.eig, _dense(_finite_block(op, k)),
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

    Same errors and entry order as :func:`full_spectrum`, but the capacity
    error counts only the blocks a dense route solves, and a grid finer than
    the zero-mode threshold resolves is refused (``_plan``); ``left``
    and ``right`` are ``None`` and every residual is zero.  Enough for the
    verdicts, the index and the zero-mode counts, at a fraction of the cost.
    """
    plan = _plan(op, op.degrees())
    return _spectrum_report({k: _solve(k, route) for k, route in plan.items()},
                            op.mesh.dimension)[0]


def _finite_block(op: GradedOperator, k: int):
    """The degree-``k`` block in its stored form, refused when a stored value
    is not finite."""
    block = op.blocks[k]
    if not np.isfinite(block.data if scipy.sparse.issparse(block) else block).all():
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


def _null_vector(op: GradedOperator, route: _Route, eigenvalue: complex,
                 radius: float) -> np.ndarray:
    """Right eigenvector of the top-degree block for its ground ``eigenvalue``,
    read off the block's planned ``route``.

    On a closed complex the top block's columns sum to zero, 1^T H = 0, and two
    routes know its kernel from that alone.  A bloch block is translation-
    invariant, so its rows sum as its columns do: the constant vector.  A
    symmetric route's S = diag(s) H diag(1/s) is symmetric, so (1/s)^T S =
    1^T H diag(1/s) = 0 makes S (1/s) = 0 and H (1/s^2) = 0, with s the
    route's weights, measured as the block was planned.  An ``eigvals`` block
    goes by inverse iteration: one LU of its dense ``H - sigma I``, sigma
    just past the eigenvalue (``_SHIFT_REL`` of the spectral radius, so that
    no pivot is exactly zero), then ``_INVERSE_STEPS`` solves from the
    constant vector.  Scaled as ``full_spectrum`` scales right vectors (unit
    norm, dominant component real positive); refused unless ``||Hv - lambda
    v|| <= 1e-8 radius``, with Hv taken from the stored block.
    """
    k = op.mesh.dimension
    block = op.blocks[k]
    scale = radius or 1.0  # a zero block still gets a nonzero shift
    if route.name == "bloch":
        v = np.ones(block.shape[0], dtype=complex)
    elif route.name == "eigvals":
        shifted = _dense(block).astype(complex)
        shifted.flat[::len(shifted) + 1] -= complex(eigenvalue) + _SHIFT_REL * scale
        lu = scipy.linalg.lu_factor(shifted, check_finite=False)
        v = np.ones(len(shifted), dtype=complex)
        for _ in range(_INVERSE_STEPS):
            v = scipy.linalg.lu_solve(lu, v, check_finite=False)
            v /= np.max(np.abs(v))
    else:  # eigvalsh, eigvals_banded
        v = (route.weights ** -2).astype(complex)
    j = int(np.argmax(np.abs(v)))
    v /= v[j] / abs(v[j]) * scipy.linalg.blas.dznrm2(v)
    if scipy.sparse.issparse(block):
        hv = block @ v
    else:  # two real products; block.T is Fortran-ordered, so dgemv copies nothing
        hv = [scipy.linalg.blas.dgemv(1.0, block.T, part, trans=1) for part in (v.real, v.imag)]
        hv = hv[0] + 1j * hv[1]
    residual = float(scipy.linalg.blas.dznrm2(hv - eigenvalue * v))
    if not residual <= _DEFAULT_TOL_REL * scale:  # also refuses NaN
        raise EigensolverError(
            f"the eigenvector of the degree-{k} block misses the eigenvalue "
            f"{complex(eigenvalue)!r} (residual {residual:.3e})"
        )
    return v


def _block_route(op: GradedOperator, k: int, patterns: Optional[list] = None) -> _Route:
    """The first route the degree-``k`` block's entries allow, and the matrix it solves:
    ``bloch``, the n0 symbol matrices of size f x f of a translation-invariant
    block on a periodic grid (``_bloch_symbols``, solved batched); the form of
    a block made symmetric by a diagonal similarity, by the singular values
    of its pair factor at degree 0 and by a symmetric eigensolve otherwise
    (``_Pattern.route``); LAPACK geev without vectors (``eigvals``) for every
    other block.

    A symmetric route is banded where the band measured from its pattern is
    narrow.  On a 1-D periodic grid the weights and the form are folded once
    (``_fold``), which puts every coupled pair within two places of the
    diagonal; the factor of the folded form lists its rows in the order of
    their pairs, so it follows the diagonal too.  When both half-bandwidths
    of the factor or the form are at most ``pattern._BAND_MAX`` the factor
    goes to ``band_svdvals`` (``_band_svdvals``) and the form to
    ``eigvals_banded``, else to the dense ``svdvals`` and ``eigvalsh``.
    Every 2-D and surface block is wider, where banded loses: the 512 x 256
    pair factor of a torus potential at n=16 (half-bandwidths 257 and 237)
    took 398 ms banded against 22 ms dense (2 vCPU).

    What the block's pattern alone decides is a ``_Pattern`` record, taken
    from ``patterns`` when one there has the same pattern and fold, else
    built and added to it.  The tests read the block's own entries as stored
    (CSR on fd) and make nothing dense.
    """
    block = _finite_block(op, k)
    symbols = _bloch_symbols(op.mesh, k, block, exact=op.backend == "fd")
    if symbols is not None:
        return _Route("bloch", symbols, None)
    h = _stored(block)
    order = _fold(op.mesh, k)
    patterns = [] if patterns is None else patterns
    pattern = next((p for p in patterns if p.matches(h, order)), None)
    if pattern is None:
        pattern = _Pattern(h, order)
        patterns.append(pattern)
    return pattern.route(k, h.data) or _Route("eigvals", block, None)


def _plan(op: GradedOperator, degrees: Sequence[int],
          patterns: Optional[list] = None) -> Dict[int, _Route]:
    """The route of each of ``degrees`` (``_block_route``), refused by the
    capacity error when the blocks of the dense routes, every route but
    bloch, exceed the cap, and by a numerical error when a grid axis is finer
    than the relative zero-mode threshold resolves.  A symmetric block is
    solved banded or dense by the band measured from its pattern, a 1-D
    periodic grid's form folded once first.  The cap still counts a
    banded block by its size, though a banded solve makes no dense copy:
    counting it by its band storage would change which runs are refused.

    The levels of a noise scan store their blocks in one pattern per
    degree, so a run passes one ``patterns`` list to every level it plans:
    the first level builds the records, and each later one refills them
    with its own entries.  Every check reads each level's own entries: the
    finite, sign, Kolmogorov, factor and Bloch tests, the cap and the grid
    limit.

    An axis of n cells relaxes its slowest diffusive mode at sin^2(pi/n) of
    its fastest, and the default thresholds are ``_DEFAULT_TOL_REL`` of the
    spectral radius: within ten times that, the gap-ambiguity band, the slow
    modes would count as zero modes and survivors, so an axis has at most
    9934 cells.  The cap, checked first, keeps dense routes below that; only
    a bloch route reaches it.
    """
    plan = {k: _block_route(op, k, patterns) for k in degrees}
    _check_capacity(tuple(op.mesh.cell_counts[k] for k, route in plan.items()
                          if route.name != "bloch"))
    finest = int(math.pi / math.asin(math.sqrt(10 * _DEFAULT_TOL_REL)))
    if max(op.mesh.grid_shape or (0,)) > finest:
        raise NumericalError(
            f"a grid of {op.mesh.grid_shape} cells is finer than the zero-mode threshold "
            f"({_DEFAULT_TOL_REL:g} of the spectral radius) resolves: at most {finest} an axis")
    return plan


def _solve(k: int, route: _Route, slow_end: bool = False) -> Union[np.ndarray, _SlowEnd]:
    """Eigenvalues of the degree-``k`` block by its planned ``route``: the
    batched symbol solve, a banded solve of its band (the pair factor's
    squared singular values, or ``eigvals_banded`` of the symmetric form),
    or one LAPACK call on a dense copy of its matrix.  A factor's squared
    singular values are the block's eigenvalues.

    With ``slow_end``, the block is solved for what a verdict or a scan
    reads, as a ``banded._SlowEnd``: a banded route is reduced to a
    symmetric tridiagonal (dgbbrd's bidiagonal in Golub-Kahan form, or
    dsbtrd of the form) and bisected by dstebz, at ABSTOL = u^2 max|T_ij|
    <= u^2 s_max, for its largest eigenvalue; ``select`` then bisects the
    eigenvalues up to a bound and a number of the smallest.  Every other
    route is solved whole, as without ``slow_end``.
    """
    name, matrix = route.name, route.matrix
    if slow_end and name in ("band_svdvals", "eigvals_banded"):
        return _SlowEnd(k, tridiagonal=_tridiagonal(k, route))
    if name == "bloch":
        values = _lapack(k, np.linalg.eigvals, matrix).ravel()
    elif name == "band_svdvals":
        values = _band_svdvals(k, *matrix) ** 2
    else:
        values = _lapack(k, getattr(scipy.linalg, name), _dense(matrix), check_finite=False)
        values = values ** 2 if name == "svdvals" else values
    return _SlowEnd(k, values) if slow_end else values


def _slow_end_bound(radius: float, *taus: Optional[float]) -> float:
    """10 x the largest of the thresholds ``taus`` at this spectral
    ``radius`` (``_default_tau``, as the verdicts read them): every verdict
    reads only the entries with |lambda| below it, witten's ambiguity band
    (tau0, 10 tau0] included."""
    return 10.0 * max(_default_tau(radius, t) for t in taus)


def _fold(mesh, k: int) -> np.ndarray:
    """The degree-``k`` cells in the order 0, n-1, 1, n-2, ... on a 1-D
    periodic grid, so that cells adjacent on the cycle lie at most 2 apart,
    and in their own order on any other mesh."""
    cell = np.arange(mesh.cell_counts[k])
    if len(mesh.cochain_shape(k) or ()) != 2:
        return cell
    return np.column_stack([cell, cell[::-1]]).ravel()[:len(cell)]


def _bloch_symbols(mesh, k: int, block, exact: bool) -> Optional[np.ndarray]:
    """Symbol matrices of a translation-invariant degree-``k`` block, one per
    wavevector, or ``None`` when the block is not invariant.

    With the cells laid out as ``mesh.cochain_shape(k)`` = (f, *grid_shape),
    the block is invariant when A[(a, x), (b, y)] = c_ab(y - x) for every
    entry, where the stencil c_a is row (a, 0), the origin cell of family a.
    The test holds exactly when ``exact`` (fd), else within
    ``_TRANSLATION_TOL`` of the largest stencil entry (fourier: its dense
    circulant products differ from translates at roundoff); a NaN fails it.

    First, two O(nnz) conditions the test implies refuse a well's blocks
    before the stencil is read: every row of family a holds c_aa(0) on its
    diagonal (a diagonal not stored reads zero) and sums to row (a, 0)'s sum
    within 2 m^2 eps v, the roundoff of two sums of m or fewer stored entries
    of size <= v (plus n tolerances off fd).  Then the test reads the block a
    chunk of rows at a time, each about ``_INVARIANCE_CHUNK`` stored entries,
    and stops at the first chunk that fails: a CSR chunk's stored entries,
    duplicates summed, or a dense chunk's entries in place, where a zero is
    not stored.  Every stored entry must lie within the
    tolerance of its c_ab(y - x), and every row of family a must store each
    stencil entry of family a larger than the tolerance: an entry not stored
    is zero, which is within the tolerance of c exactly when |c| is.  The
    symbols are the FFT of c over the grid axes, as an (n0, f, f) stack:
    their eigenvalues over all n0 wavevectors are the block's (the
    transform's sign only permutes them).
    """
    shape = mesh.cochain_shape(k)
    if shape is None:
        return None
    f, grid = shape[0], shape[1:]
    cells = math.prod(grid)
    # the two necessary conditions, no tighter than the test: max|c| <= max|A|
    n, sparse = block.shape[0], scipy.sparse.issparse(block)
    loose = 0.0 if exact else _TRANSLATION_TOL * max(block.max(), -block.min())
    diagonal = block.diagonal().reshape(f, cells)
    if not np.all(np.abs(diagonal - diagonal[:, :1]) <= loose):
        return None
    stored, m = (block.data, np.diff(block.indptr).max()) if sparse else (block, n)
    v = max(stored.max(initial=0.0), -stored.min(initial=0.0))
    sums = (block @ np.ones(n) if sparse else block.sum(axis=1)).reshape(f, cells)
    if not np.all(np.abs(sums - sums[:, :1]) <= 2 * m * m * np.finfo(float).eps * v + n * loose):
        return None
    stencil = _dense(block[np.arange(f) * cells]).reshape((f,) + shape)  # rows (a, 0)
    tol = 0.0 if exact else _TRANSLATION_TOL * np.max(np.abs(stencil))
    c = stencil.reshape(f, f, cells)
    # per family, the stencil entries every one of its rows must store
    need = np.count_nonzero(np.abs(c) > tol, axis=(1, 2))
    step = max(1, _INVARIANCE_CHUNK * n // max(stored.size, 1))
    for lo in range(0, n, step):
        span = np.arange(lo, min(lo + step, n))
        if sparse:  # the chunk's stored entries, as new arrays: summing leaves the block
            chunk = scipy.sparse.csr_matrix(block[lo:lo + step])
            chunk.sum_duplicates()
            row, col, value = np.repeat(span, np.diff(chunk.indptr)), chunk.indices, chunk.data
            kept = np.True_
        else:  # every entry of the dense rows, read in place: a zero is not stored
            row, col, value = span[:, None], np.arange(n), block[lo:lo + step]
            kept = value != 0
        a, x = np.divmod(row, cells)
        b, y = np.divmod(col, cells)
        offset = np.ravel_multi_index(
            tuple(q - p for p, q in zip(np.unravel_index(x, grid), np.unravel_index(y, grid))),
            grid, mode="wrap")
        expected = c[a, b, offset]  # c_ab(y - x)
        if not np.all((np.abs(value - expected) <= tol) | ~kept):
            return None
        held = kept & (np.abs(expected) > tol)
        held = np.bincount(np.broadcast_to(row, held.shape).ravel() - lo, held.ravel(),
                           minlength=len(span))
        if not np.array_equal(held, need[span // cells]):
            return None
    symbols = np.fft.fftn(stencil, axes=tuple(range(2, 2 + len(grid))))
    return np.moveaxis(symbols.reshape(f, f, -1), 2, 0)


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
                            None, None, radius, dimension)
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

    if n <= _GRAM_CAP:
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
    tg = _default_tau(report.spectral_radius, tau_gamma)
    te = _default_tau(report.spectral_radius, tau_e)
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
    return np.abs(report.eigenvalue) <= _default_tau(report.spectral_radius, tau0)


def witten_index(report: SpectrumReport, tau0: Optional[float] = None) -> int:
    """Alternating-by-degree count of zero modes, sum_k (-1)^k ``zero_mode_counts``[k].

    If some eigenvalue magnitude falls in the ambiguous band (tau0, 10*tau0],
    a gap-ambiguity warning is issued: the zero/nonzero split is then
    sensitive to the threshold.
    """
    tau = _default_tau(report.spectral_radius, tau0)
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
    """Bonds (k, k + 1, count) per adjacent degree pair, the (degree,
    eigenvalue) pairs left ``unpaired``, the widest bond, and on 1-dimensional
    meshes whether the nonzero degree-0 and 1 spectra agree (else None)."""

    bonds_by_adjacency: Tuple[Tuple[int, int, int], ...]
    unpaired: Tuple[Tuple[int, complex], ...]
    max_mismatch: float
    multiset_equal: Optional[bool]

    @property
    def n_bonds(self) -> int:
        return sum(c for _, _, c in self.bonds_by_adjacency)


def susy_pairing_check(report: SpectrumReport) -> PairingReport:
    """Match every nonzero eigenvalue with a partner in an adjacent degree.

    Nonzero modes of adjacent blocks pair up through d and its adjoint; a
    middle-degree value may bond either down or up but not both, so matching
    proceeds degree pair by degree pair with consumption.  On 1-dimensional
    meshes the check additionally reports whether the nonzero degree-0 and
    degree-1 spectra agree as multisets.  Partners bond within
    ``_PAIRING_TOL`` of the spectral radius (of 1 when that is smaller).
    """
    atol = _PAIRING_TOL * max(report.spectral_radius, 1.0)
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
    if report.dimension == 1:  # the one degree pair's match bonded every value
        multiset_equal = len(by_degree[0]) == len(by_degree[1]) == bonds[0][2]
    return PairingReport(tuple(bonds), unpaired, max_mismatch, multiset_equal)


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
    tau = _default_tau(report.spectral_radius, tau_gamma)
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
