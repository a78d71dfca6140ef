"""Graded evolution operator of the noisy flow, and its algebraic relatives.

The generator acts degree-by-degree on cochains:

    H_k = {d, d†}_k / 2 - {d, iota_A}_k,   {d, x}_k = x_k d_k + d_{k-1} x_{k-1},

with the codifferential carrying the noise scale and the second term the
Cartan-assembled Lie derivative L_A.  At epsilon = 0 the codifferential
vanishes and H_k = -L_A, the bare advection operator, assembled like any
other level.  Ghost number (form degree) is
conserved, so the operator is a tuple of square blocks.  The companion charge

    Qbar_k = d†_k - 2 iota_A(k)

satisfies H = {Q, Qbar}/2 with Q = d.  Both assembly routes use the same d,
d† and iota, built once per degree, and are compared at every assembly as a
self-check (the identity is algebraic, so a violation means memory
corruption, not roundoff).  On fd the pieces, both routes, the comparison
and the blocks the operator keeps are CSR; only a dense solver in
``spectral`` makes a dense copy of a block, when it solves it.  On fourier
every piece and block is dense, because its circulants are full, so the
dense-solver cap (``_check_capacity``) refuses a level before any piece.

Degree-0 blocks propagate observables (kets); the top-degree block conjugated
by the top Hodge star is the conventional density generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    CapacityError,
    DegreeError,
    DeterministicLimitError,
    NumericalError,
    UnsupportedMeshError,
)
from .fields import FlowField
from .mesh import MeshComplex, NoiseSpec, hodge_star
from .operators import (
    _anticommutator,
    _codifferential,
    _dense,
    _exterior_derivative,
    _interior_product,
    _stored,
    inner_product_matrix,
    normalize_backend,
)

__all__ = [
    "GradedOperator",
    "assemble_hamiltonian",
    "conventional_fp_operator",
]

_TWO_ROUTE_TOL = 1e-11
_DENSE_CAP = 8192


@dataclass(frozen=True)
class GradedOperator:
    """Degree-preserving operator on cochains: ``blocks[k]`` acts on degree k.

    The blocks are kept in the storage assembly builds them in: CSR on fd,
    dense on fourier.  ``block(k)`` is the dense view.
    """

    blocks: Tuple[Union[np.ndarray, sp.csr_matrix], ...]
    mesh: MeshComplex
    noise: NoiseSpec
    backend: str = "fd"

    def block(self, k: int) -> np.ndarray:
        """The degree-``k`` block as a dense array; on fd each call builds a
        dense copy of the CSR block."""
        if not 0 <= k < len(self.blocks):
            raise DegreeError(f"degree {k} outside 0..{len(self.blocks) - 1}")
        return _dense(self.blocks[k])

    def degrees(self):
        return range(len(self.blocks))

    def intertwining_residual(self) -> float:
        """max_k ||d H_k - H_{k+1} d|| / ||H|| — zero up to roundoff by construction."""
        h = self.blocks
        scale = max(abs(b).max() for b in h)
        worst = 0.0
        for k in range(self.mesh.dimension):
            d = _exterior_derivative(self.mesh, k, "fd")  # CSR: d is the same on every backend
            worst = max(worst, abs(d @ h[k] - h[k + 1] @ d).max())
        return float(worst / max(scale, 1e-300))


def _graded_pieces(mesh, flow, noise, backend):
    """d_k, d†_{k+1} and iota_{k+1} for k = 0..D-1, each built once, in the
    backend's storage (CSR on fd, dense on fourier)."""
    dim = mesh.dimension
    d = [_exterior_derivative(mesh, k, backend) for k in range(dim)]
    if noise.is_deterministic:
        ddag = [_stored(sp.csr_matrix(dk.T.shape), backend) for dk in d]
    else:
        ddag = [_codifferential(mesh, d[k], k + 1, noise, backend) for k in range(dim)]
    iota = [_interior_product(mesh, flow, k, backend) for k in range(1, dim + 1)]
    return d, ddag, iota


def assemble_hamiltonian(
    mesh: MeshComplex,
    flow: FlowField,
    noise: NoiseSpec,
    backend: str = "fd",
) -> GradedOperator:
    """Generator blocks H_k = (d d† + d† d)/2 - L_A at every degree.

    The construction is verified on the spot against the charge route
    H = (Q Qbar + Qbar Q)/2; a mismatch raises rather than returning a bad
    operator.  At epsilon = 0 the codifferential term vanishes and every
    block is the bare advection operator -L_A, whose spectrum lies on the
    imaginary axis (``reporting.sweep_epsilon`` follows the approach to it).

    Parameters
    ----------
    mesh, flow, noise
        The discretized phase space, the velocity field, and the noise scale.
    backend : {"fd", "fourier"}
    """
    backend = normalize_backend(backend)
    if backend == "fourier":
        _check_capacity(mesh.cell_counts)
    d, ddag, iota = _graded_pieces(mesh, flow, noise, backend)
    blocks = tuple(0.5 * _anticommutator(d, ddag, k) - _anticommutator(d, iota, k)
                   for k in range(mesh.dimension + 1))
    op = GradedOperator(blocks, mesh, noise, backend)
    _check_two_routes(op, d, ddag, iota)
    return op


def _check_capacity(sizes: Tuple[int, ...]) -> None:
    """Refuse dense blocks of ``sizes`` unknowns beyond ``_DENSE_CAP`` in total
    (read at call time, so a test may lower it)."""
    if sum(sizes) > _DENSE_CAP:
        raise CapacityError(f"total unknowns {sum(sizes)} exceed the dense-solver cap "
                            f"{_DENSE_CAP} (blocks: {sizes})")


def _check_two_routes(op: GradedOperator, d, ddag, iota) -> None:
    """Compare ``op`` with the charge route; blocks and pieces may be CSR or dense."""
    qbar = [dd - 2.0 * i for dd, i in zip(ddag, iota)]
    scale = max(max(abs(b).max() for b in op.blocks), 1e-300)
    for k in op.degrees():
        alt = 0.5 * _anticommutator(d, qbar, k)
        resid = abs(alt - op.blocks[k]).max() / scale
        if not resid <= _TWO_ROUTE_TOL:  # also refuses NaN
            raise NumericalError(
                f"generator self-check failed at degree {k}: the degree-{k} block "
                f"at noise level {op.noise.epsilon!r} differs from the charge-route "
                f"assembly by {resid:.3e} relative (tolerance {_TWO_ROUTE_TOL:g})"
            )


def conventional_fp_operator(
    mesh: MeshComplex,
    flow: FlowField,
    noise: NoiseSpec,
    backend: str = "fd",
) -> np.ndarray:
    """Density generator: the top-degree block conjugated by the top Hodge star.

    The result acts on pointwise density values at dual vertices (cell
    centers).  On a uniform grid the top star is a scalar, so the matrix
    equals the top block itself; its columns sum to zero exactly (each edge
    bounds one cell positively and one negatively), which is discrete
    probability conservation.  For zero flow it reduces to the (negative,
    scaled) dual-grid diffusion stencil.
    """
    backend = normalize_backend(backend)
    if not mesh.is_structured:
        raise UnsupportedMeshError(
            "the density generator is assembled on structured grids only"
        )
    if noise.is_deterministic:
        raise DeterministicLimitError(
            "the density generator requires epsilon > 0"
        )
    h = assemble_hamiltonian(mesh, flow, noise, backend)
    top = h.block(mesh.dimension)
    if backend == "fd":
        s = hodge_star(mesh, mesh.dimension, noise)
        return (s[:, None] * top) / s[None, :]
    m = inner_product_matrix(mesh, mesh.dimension, noise, backend)
    return m @ top @ np.linalg.inv(m)

