"""Operator blocks between cochain spaces: d, codifferential, contraction, Lie.

One builder per piece — ``_exterior_derivative``, ``_codifferential`` and
``_interior_product`` — returns it in its backend's storage: CSR on fd, whose
stencils have at most 9 nonzeros per row on the torus, and a dense
``np.ndarray`` on fourier, whose circulants are full.  ``_anticommutator``
forms the graded anticommutator {d, x}_k of d with a degree-lowering piece in
either storage; the generator assembly in ``hamiltonian`` uses the builders
once per degree.  The public functions return the same builders' output as a
dense ``np.ndarray``.

Two backends exist on uniform periodic grids:

* ``fd`` — local stencils.  Hodge stars are the diagonal dual/primal volume
  ratios; the contraction is the incidence pattern |boundary| scaled by flow
  samples, so it averages incident-cell samples.  Second-order accurate.
* ``fourier`` — circulant operators with exact bandlimited symbols.  The
  mass matrices are the exact "integrate the interpolated mode" forms, so the
  assembled generator reproduces continuum eigenvalues to rounding on every
  resolved mode.  Odd symbols (the edge-to-point resampler used by the
  contraction) have no real value at the Nyquist mode of an even grid and are
  set to zero there — the fd stencil's symbol vanishes at Nyquist as well, so
  the two backends agree on that convention.  Every factor is per axis: a
  mass block is the Kronecker product of the vertex or edge mass of each
  axis, and the resampler along axis a is r_a with the identity on the other
  axes, so the circle is the one-axis case of the torus.

The exterior derivative is the signed incidence transpose in *both* backends:
integration of forms over cells makes Stokes' theorem an identity, so d is
exact and metric-free.  Only star-dependent operators differ by backend.

Adjointness of the codifferential holds in each backend's own inner product:
``<d a, b>_k = <a, d† b>_{k-1}`` with the mass matrices from
``inner_product_matrix``.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .exceptions import (
    DegreeError,
    DeterministicLimitError,
    UnsupportedMeshError,
)
from .fields import FlowField
from .mesh import MeshComplex, NoiseSpec, hodge_star

__all__ = [
    "normalize_backend",
    "exterior_derivative",
    "inner_product_matrix",
    "codifferential",
    "interior_product",
    "lie_derivative",
]

_BACKEND_ALIASES = {
    "fd": "fd",
    "finite-difference": "fd",
    "fourier": "fourier",
}


def normalize_backend(backend: str) -> str:
    try:
        return _BACKEND_ALIASES[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected 'fd' or 'fourier'"
        ) from None


# ----------------------------------------------------------------------
# exterior derivative (backend-independent)
# ----------------------------------------------------------------------

def exterior_derivative(mesh: MeshComplex, k: int, backend: str = "fd") -> np.ndarray:
    """d_k: degree k -> k+1, the signed incidence transpose (exact, both backends)."""
    backend = normalize_backend(backend)
    if not 0 <= k < mesh.dimension:
        raise DegreeError(
            f"exterior derivative undefined at degree {k} on a "
            f"{mesh.dimension}-dimensional mesh"
        )
    return _dense(_exterior_derivative(mesh, k, backend))


def _exterior_derivative(mesh: MeshComplex, k: int, backend: str):
    """d_k in the backend's storage; its entries are the same in both."""
    return _stored(mesh.boundary_matrix(k + 1).T.astype(float), backend)


def _stored(m: sp.spmatrix, backend: str):
    """A piece in its backend's storage: CSR on fd, dense on fourier."""
    return m.tocsr() if backend == "fd" else m.toarray()


def _dense(m) -> np.ndarray:
    return m.toarray() if sp.issparse(m) else m


# ----------------------------------------------------------------------
# Fourier-backend circulant factory
# ----------------------------------------------------------------------

def _circulant(mult: np.ndarray) -> np.ndarray:
    col = np.fft.ifft(mult)
    if np.max(np.abs(col.imag)) > 1e-12 * max(np.max(np.abs(col.real)), 1.0):
        raise ValueError("multiplier array does not define a real circulant")
    return scipy.linalg.circulant(col.real)


def _axis_symbols(n: int, length: float):
    """Integer mode numbers, physical wavenumbers, and grid phases for one axis."""
    kk = np.rint(np.fft.fftfreq(n) * n).astype(int)
    kappa = 2.0 * np.pi * kk / length
    theta = 2.0 * np.pi * kk / n
    return kk, kappa, theta


def _fourier_factors(n: int, length: float):
    """1-D circulant factors: vertex mass, edge mass, edge->point resampler."""
    h = length / n
    kk, kappa, theta = _axis_symbols(n, length)
    s = 2.0 * np.sin(theta / 2.0)

    m0 = np.empty(n)
    m1 = np.empty(n)
    nz = kk != 0
    m0[~nz] = h
    m1[~nz] = 1.0 / h
    m0[nz] = s[nz] / kappa[nz]
    m1[nz] = kappa[nz] / s[nz]

    sigma = np.exp(1j * theta) - 1.0
    r = np.zeros(n, dtype=complex)
    r[~nz] = 1.0 / h
    nyq = np.abs(kk) == n // 2 if n % 2 == 0 else np.zeros(n, dtype=bool)
    ok = nz & ~nyq
    r[ok] = 1j * kappa[ok] / sigma[ok]

    return _circulant(m0), _circulant(m1), _circulant(r)


def _require_fourier_grid(mesh: MeshComplex) -> None:
    if not mesh.is_structured:
        raise UnsupportedMeshError(
            "fourier backend is defined on uniform periodic grids only"
        )


# ----------------------------------------------------------------------
# inner products / mass matrices
# ----------------------------------------------------------------------

def inner_product_matrix(
    mesh: MeshComplex, k: int, noise: NoiseSpec, backend: str = "fd"
) -> np.ndarray:
    """SPD mass matrix of the degree-k inner product under the scaled metric."""
    backend = normalize_backend(backend)
    if not 0 <= k <= mesh.dimension:
        raise DegreeError(f"degree {k} out of range for the inner product")
    if noise.is_deterministic:
        raise DeterministicLimitError(
            "the scaled metric degenerates at epsilon = 0; no inner product exists"
        )
    if backend == "fd":
        return np.diag(hodge_star(mesh, k, noise))

    _require_fourier_grid(mesh)
    factors = [_fourier_factors(n, length) for n, length in zip(mesh.grid_shape, mesh.lengths)]
    # one block per cell family (a choice of k axes, in mesh order): the edge
    # mass along the family's axes, the vertex mass along the others
    blocks = [functools.reduce(np.kron, [m1 if a in fam else m0
                                         for a, (m0, m1, _) in enumerate(factors)])
              for fam in itertools.combinations(range(mesh.dimension), k)]
    return noise.epsilon ** (k - mesh.dimension / 2.0) * scipy.linalg.block_diag(*blocks)


# ----------------------------------------------------------------------
# codifferential
# ----------------------------------------------------------------------

def codifferential(
    mesh: MeshComplex, k: int, noise: NoiseSpec, backend: str = "fd"
) -> np.ndarray:
    """d†_k: degree k -> k-1, the metric adjoint of d_{k-1}.

    Assembled as ``M_{k-1}^{-1} d^T M_k``; the epsilon powers in the masses
    combine to a single overall factor epsilon relative to the unit metric.
    """
    backend = normalize_backend(backend)
    if k == 0:
        raise DegreeError("the codifferential has no target below degree 0")
    if not 1 <= k <= mesh.dimension:
        raise DegreeError(f"degree {k} out of range for the codifferential")
    if noise.is_deterministic:
        raise DeterministicLimitError(
            "codifferential requires epsilon > 0 (it scales linearly with the "
            "noise metric and vanishes identically in the deterministic limit)"
        )
    d = _exterior_derivative(mesh, k - 1, backend)
    return _dense(_codifferential(mesh, d, k, noise, backend))


def _codifferential(mesh: MeshComplex, d, k: int, noise: NoiseSpec, backend: str):
    """d†_k from the given d_{k-1}, in the same storage.

    fd masses are the diagonal Hodge stars, so d† is d^T with each stored
    entry (i, j) scaled to d_ji * star_k[j] / star_{k-1}[i].
    """
    if backend == "fd":
        dt = d.T.tocoo()
        star_lo = hodge_star(mesh, k - 1, noise)
        star_hi = hodge_star(mesh, k, noise)
        vals = dt.data * star_hi[dt.col] / star_lo[dt.row]
        return sp.csr_matrix((vals, (dt.row, dt.col)), shape=dt.shape)
    m_lo = inner_product_matrix(mesh, k - 1, noise, backend)
    return np.linalg.solve(m_lo, d.T @ inner_product_matrix(mesh, k, noise, backend))


# ----------------------------------------------------------------------
# interior product (contraction with the flow)
# ----------------------------------------------------------------------

def interior_product(
    mesh: MeshComplex, flow: FlowField, k: int, backend: str = "fd"
) -> np.ndarray:
    """iota_A: degree k -> k-1, contraction of k-forms with the flow.

    fd backend: each k-cell's cochain value is converted to a pointwise form
    value (divide by the cell measure), contracted with the flow sample on
    the cell, and the results from all k-cells adjacent to a (k-1)-cell are
    averaged: the incidence pattern |boundary_k| with its stored entries
    scaled by the flow samples.  On uniform grids this is second-order
    accurate and makes the Cartan-assembled Lie derivative commute with d
    exactly.

    fourier backend: pseudospectral form diag(flow) @ (exact resampler).
    """
    backend = normalize_backend(backend)
    if not 1 <= k <= mesh.dimension:
        raise DegreeError(f"contraction maps degrees 1..{mesh.dimension}, got {k}")
    return _dense(_interior_product(mesh, flow, k, backend))


def _interior_product(mesh: MeshComplex, flow: FlowField, k: int, backend: str):
    """iota_A at degree k in the backend's storage."""
    if not mesh.is_structured:
        if flow.is_zero:
            return _stored(sp.csr_matrix((mesh.n_cells(k - 1), mesh.n_cells(k))), backend)
        raise UnsupportedMeshError(
            "contraction with a nonzero flow needs a structured grid"
        )

    if backend == "fourier":
        return _interior_product_fourier(mesh, flow, k)

    # |boundary| with its stored entries scaled by flow samples; the rows keep
    # the incidence's sorted order, so products with it sum in index order
    pattern = abs(mesh.incidence[k - 1]).astype(float)
    if k == 1:
        # each edge's tangential sample, split between its two endpoints
        w = flow.tangential_edge_values(mesh) / (2.0 * mesh.primal_volumes[1])
        pattern.data *= w[pattern.indices]
        return pattern

    # k == 2, torus: faces -> edges. A 2-form F dx^dy contracts to
    # A_x F dy - A_y F dx; each face contributes to its four boundary edges
    # with the transverse flow sample taken on the receiving edge, over twice
    # that edge's dual length.
    sign = np.repeat([-1.0, 1.0], mesh.n_cells(0))
    w = sign * flow.transverse_edge_values(mesh) / (2.0 * mesh.dual_volumes[1])
    pattern.data *= np.repeat(w, np.diff(pattern.indptr))
    return pattern


def _interior_product_fourier(mesh: MeshComplex, flow: FlowField, k: int) -> np.ndarray:
    factors = [_fourier_factors(n, length) for n, length in zip(mesh.grid_shape, mesh.lengths)]
    eyes = [np.eye(n) for n in mesh.grid_shape]
    # resampler along axis a: r_a on that axis, the identity on the others
    r = [functools.reduce(np.kron, [f[2] if b == a else eyes[b] for b, f in enumerate(factors)])
         for a in range(mesh.dimension)]
    if k == 1:
        comps = flow.vertex_values.reshape(mesh.n_cells(0), -1)
        return np.hstack([comps[:, [a]] * r[a] for a in range(mesh.dimension)])
    # k == 2, torus: x-edges take -A_y F resampled along y, y-edges A_x F along x
    trans = flow.transverse_edge_values(mesh).reshape(2, -1)
    return np.vstack([-trans[0][:, None] * r[1], trans[1][:, None] * r[0]])


# ----------------------------------------------------------------------
# Lie derivative (Cartan assembly)
# ----------------------------------------------------------------------

def _anticommutator(d, x, k: int):
    """Graded anticommutator {d, x}_k = x_k d_k + d_{k-1} x_{k-1}.

    ``d[j]`` maps degree j to j+1 and ``x[j]`` maps degree j+1 to j, for
    j = 0..D-1; a term whose degree falls outside that range is dropped.  The
    result has the storage of the pieces: CSR from CSR, dense from dense.
    """
    if k == 0:
        return x[0] @ d[0]
    if k == len(d):
        return d[k - 1] @ x[k - 1]
    return x[k] @ d[k] + d[k - 1] @ x[k - 1]


def lie_derivative(
    mesh: MeshComplex, flow: FlowField, k: int, backend: str = "fd"
) -> np.ndarray:
    """L_A at degree k via the Cartan formula L = {d, iota}.

    Terms outside the degree range 0..D are dropped (there is nothing to
    contract a 0-form with, and nothing above top degree to differentiate
    into).  Because L is assembled from the same d and iota blocks used
    everywhere else, d L_k = L_{k+1} d_k holds as an algebraic identity.
    """
    backend = normalize_backend(backend)
    if not 0 <= k <= mesh.dimension:
        raise DegreeError(f"degree {k} out of range for the Lie derivative")
    near = (k - 1, k)  # the only pieces {d, iota}_k reads
    d = [_exterior_derivative(mesh, j, backend) if j in near else None
         for j in range(mesh.dimension)]
    iota = [_interior_product(mesh, flow, j + 1, backend) if j in near else None
            for j in range(mesh.dimension)]
    return _dense(_anticommutator(d, iota, k))
