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
and the blocks the operator keeps are CSR, each block with every row's
columns increasing; only a dense solver in ``spectral`` makes a dense copy
of a block, when it solves it.  On fourier every piece and block is dense,
because its circulants are full, so the dense-solver cap
(``_check_capacity``) refuses a level before any piece.

A run that reads several noise levels of one grid refills them: d is
metric-free and the noise enters through d† alone, so every fd level at
epsilon > 0 stores its pieces in one pattern.  The first such level is
assembled by sparse products and leaves an ``_AssemblyMap``, which fills
each later level from its star ratios and flow samples with the bytes the
products would give.  On a refilled level the self-check compares the
refilled blocks with the refilled charge route, entry by entry on the
pattern the two share; the two routes are separate maps of the same
pieces, so a corrupted fill fails it as a corrupted product does.  The
first level's blocks, once the map reproduces them, are checked the same way.

Degree-0 blocks propagate observables (kets); the top-degree block conjugated
by the top Hodge star is the conventional density generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

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
    _codifferential_data,
    _contraction_data,
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
    each row's columns increasing, dense on fourier.  ``block(k)`` is the
    dense view.
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


def _generator_block(d, ddag, iota, k: int):
    """H_k = {d, d†}_k / 2 - {d, iota}_k from pieces of any storage, or symbolic ones."""
    return 0.5 * _anticommutator(d, ddag, k) - _anticommutator(d, iota, k)


def _charge(d, ddag, iota, degrees):
    """The charge route's H_k = {Q, Qbar}_k / 2 at each of ``degrees``, with
    Qbar_j = d†_j - 2 iota_j, from pieces of any storage, or symbolic ones."""
    qbar = [dd - 2.0 * i for dd, i in zip(ddag, iota)]
    return (0.5 * _anticommutator(d, qbar, k) for k in degrees)


class _Cells:
    """A structural pattern: the entries (i, j) of a matrix of shape
    ``shape``, sorted, as rows and columns.  Every matrix of both routes with
    this pattern shares the record, and with it the maps of its products and
    sums, each built once (``times``, ``plus``)."""

    def __init__(self, shape: Tuple[int, int], row: np.ndarray, col: np.ndarray):
        self.shape, self.row, self._maps = shape, row, {}
        # the index type scipy gives a matrix of this shape, so a block needs no cast
        self.col = col.astype(np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64,
                              copy=False)
        self.indptr = np.searchsorted(row, np.arange(shape[0] + 1))

    @classmethod
    def of(cls, m: sp.csr_matrix) -> "_Cells":
        """The pattern of a CSR matrix stored canonical."""
        return cls(m.shape, np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices)

    def times(self, other: "_Cells"):
        """The pattern of self @ other, and its terms in the order scipy's CSR
        product adds them: the two factors of each (indices into each
        pattern's entries), first the first term of every entry, then the
        second of those that have one, and so on, and those entries.

        The product (SMMP; Bank and Douglas, 1993) adds to an accumulator
        that starts at 0, for each stored a_ij of row i in stored order, the
        products with row j of b in stored order.
        """
        if ("@", other) not in self._maps:
            count = np.diff(other.indptr)[self.col]
            ta = np.repeat(np.arange(len(self.col)), count)
            tb = np.arange(len(ta)) + np.repeat(other.indptr[self.col] - np.cumsum(count) + count,
                                                count)
            row, col = self.row[ta], other.col[tb]
            cell = row * other.shape[1] + col
            by_cell = np.argsort(cell, kind="stable")  # each entry's terms in loop order
            first = np.flatnonzero(np.diff(cell[by_cell], prepend=-1))  # each entry's first
            count = np.diff(first, append=len(by_cell))
            later = [np.flatnonzero(count > r) for r in range(1, count.max(initial=1))]
            by_rank = by_cell[np.concatenate([first] + [first[e] + r
                                                        for r, e in enumerate(later, 1)])]
            cells = _Cells((self.shape[0], other.shape[1]), row[by_rank[:len(first)]],
                           col[by_rank[:len(first)]])
            self._maps["@", other] = cells, ta[by_rank], tb[by_rank], later
        return self._maps["@", other]

    def plus(self, other: "_Cells"):
        """The pattern of a sum of matrices of these two patterns, and where
        each of its entries sits in each (-1: absent); ``None`` for a pattern
        that is the sum's own."""
        if other is self:
            return self, None, None
        if ("+", other) not in self._maps:
            row, col = np.concatenate((self.row, other.row)), np.concatenate((self.col, other.col))
            keys = row * self.shape[1] + col
            order = np.argsort(keys, kind="stable")  # merges the two sorted runs
            new = np.diff(keys[order], prepend=-1) != 0
            slot = np.empty(len(keys), dtype=np.intp)
            slot[order] = np.cumsum(new) - 1  # each entry's place in the sum's pattern
            where = []
            for part in (slot[:len(self.row)], slot[len(self.row):]):
                at = np.full(np.count_nonzero(new), -1)
                at[part] = np.arange(len(part))
                where.append(at)
            pick = order[new]
            self._maps["+", other] = (_Cells(self.shape, row[pick], col[pick]), *where)
        return self._maps["+", other]


class _Symbolic:
    """A matrix of the fd routes as a map of its pieces' entries, on its
    structural pattern (``_Cells``: every incidence entry, as if no sample
    were zero).  ``@``, ``+``, ``-`` and a scalar ``*`` record a product, a
    sum and a scaling, so ``_generator_block`` and ``_charge`` write each
    route once for CSR pieces and for these.

    A level's entries of every matrix sit in one vector, this one's in
    ``entries`` (``_AssemblyMap.fill``); ``evaluate`` computes them from its
    operands' with the arithmetic of scipy's CSR kernels, in their order.
    An entry scipy would not store holds an exact zero, which leaves every
    sum it enters unchanged, so the entries do not depend on which of them
    are pruned.
    """

    operands: Tuple["_Symbolic", ...] = ()

    def __init__(self, cells: _Cells):
        self.cells, self.nnz = cells, len(cells.row)

    def __matmul__(self, other):
        return _Product(self, other)

    def __add__(self, other):
        return _Sum(self, other, np.add)

    def __sub__(self, other):
        return _Sum(self, other, np.subtract)

    def __rmul__(self, c: float):
        return _Scaled(self, c)

    def place(self, at: int) -> int:
        """Put the entries at ``at`` on in the value vector, after the
        operands'; return their end."""
        self.at, self.entries = at, slice(at, at + self.nnz)
        return at + self.nnz

    def csr(self, values: np.ndarray) -> sp.csr_matrix:
        """This matrix at the level whose fill is ``values``: its nonzero
        entries, each row's columns increasing, as an fd block is stored."""
        kept, col = np.flatnonzero(values[self.entries]), self.cells.col
        indptr = np.searchsorted(self.cells.row[kept], np.arange(self.cells.shape[0] + 1))
        return sp.csr_matrix((values[self.at + kept], col[kept], indptr.astype(col.dtype)),
                             shape=self.cells.shape)


class _Piece(_Symbolic):
    """d, d† or iota at one degree: a level gives its entries, every one stored."""

    def evaluate(self, values: np.ndarray) -> None:
        """Nothing: ``_AssemblyMap.fill`` writes the entries."""


class _Product(_Symbolic):
    """a @ b, its terms added in the order of ``_Cells.times``."""

    def __init__(self, a: _Symbolic, b: _Symbolic):
        cells, self.ta, self.tb, self.later = a.cells.times(b.cells)
        super().__init__(cells)
        self.operands = (a, b)

    def evaluate(self, values: np.ndarray) -> None:
        a, b = self.operands
        p = values[a.entries][self.ta] * values[b.entries][self.tb]
        total, at = values[self.entries], self.nnz
        np.add(0.0, p[:at], out=total)  # the accumulator starts at 0
        for entries in self.later:  # the next term of each entry that has one
            total[entries] += p[at:at + len(entries)]
            at += len(entries)


class _Sum(_Symbolic):
    """a + b or a - b (``op``: ``np.add`` or ``np.subtract``) entrywise, an
    absent entry read as 0."""

    def __init__(self, a: _Symbolic, b: _Symbolic, op):
        cells, self.ia, self.ib = a.cells.plus(b.cells)
        super().__init__(cells)
        self.operands, self.op = (a, b), op

    def place(self, at: int) -> int:
        # index 0 of the value vector holds the zero that an absent entry reads
        self.ga, self.gb = (m.entries if i is None else np.where(i >= 0, m.at + i, 0)
                            for m, i in zip(self.operands, (self.ia, self.ib)))
        return super().place(at)

    def evaluate(self, values: np.ndarray) -> None:
        self.op(values[self.ga], values[self.gb], out=values[self.entries])


class _Scaled(_Symbolic):
    """c * a: scipy scales every stored entry and drops none."""

    def __init__(self, a: _Symbolic, c: float):
        super().__init__(a.cells)
        self.operands, self.c = (a,), c

    def evaluate(self, values: np.ndarray) -> None:
        np.multiply(values[self.operands[0].entries], self.c, out=values[self.entries])


def _topological(roots) -> list:
    """The matrices ``roots`` read and the roots, each after its operands."""
    order: list = []

    def visit(node):
        if node not in order:
            for operand in node.operands:
                visit(operand)
            order.append(node)
    for root in roots:
        visit(root)
    return order


class _AssemblyMap:
    """Both routes of the fd generator as maps of a level's pieces, built
    once per incidence pattern and refilled for every later level of it (the
    symbolic and numeric halves of a sparse direct method; Davis, *Direct
    Methods for Sparse Linear Systems*, 2006).

    The symbolic half runs ``_generator_block`` and ``_charge`` on
    ``_Symbolic`` pieces shaped like a first level's CSR pieces: d is
    metric-free and the noise enters through d† only, so every level at
    epsilon > 0 stores its pieces in one pattern.  d†, iota and Qbar share
    one pattern per degree, so each distinct product and sum is mapped once.
    The numeric half (``fill``) reads a level's star ratios
    (``_codifferential_data``) and flow samples (``_contraction_data``) and
    computes every entry of every matrix of both routes; a block stores its
    nonzero entries, sorted (``_Symbolic.csr``).
    """

    def __init__(self, mesh: MeshComplex, d, ddag, iota):
        self.incidence, self.iota_pattern = mesh.incidence, iota
        self.dt = [x.T.tocsr() for x in d]
        self.d = [_Piece(_Cells.of(x)) for x in d]
        self.ddag = [_Piece(_Cells.of(x)) for x in ddag]
        self.iota = [_Piece(p.cells if np.array_equal(p.cells.indptr, x.indptr)
                            and np.array_equal(p.cells.col, x.indices) else _Cells.of(x))
                     for p, x in zip(self.ddag, iota)]
        degrees = range(mesh.dimension + 1)
        self.blocks = [_generator_block(self.d, self.ddag, self.iota, k) for k in degrees]
        self.charge = list(_charge(self.d, self.ddag, self.iota, degrees))
        self.nodes = _topological(self.blocks + self.charge)
        # the check's differences, formed from the filled blocks (``operator``)
        self.residuals = [c - h for c, h in zip(self.charge, self.blocks)]
        # the value vector: a zero, which an absent entry reads, then every matrix
        self.size, self.d_data = 1, [x.data for x in d]
        for node in self.nodes + self.residuals:
            self.size = node.place(self.size)

    def matches(self, mesh: MeshComplex) -> bool:
        """Whether ``mesh`` has the incidence (pattern and signs) the map was built on."""
        return len(mesh.incidence) == len(self.incidence) and all(
            a is b or (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
                       and np.array_equal(a.indices, b.indices)
                       and np.array_equal(a.data, b.data))
            for a, b in zip(mesh.incidence, self.incidence))

    def fill(self, mesh: MeshComplex, flow: FlowField, noise: NoiseSpec) -> np.ndarray:
        """Every entry of every matrix of both routes at one level."""
        values = np.zeros(self.size)
        for j, (dt, pattern) in enumerate(zip(self.dt, self.iota_pattern)):
            values[self.d[j].entries] = self.d_data[j]
            values[self.ddag[j].entries] = _codifferential_data(mesh, dt, j + 1, noise)
            values[self.iota[j].entries] = _contraction_data(mesh, flow, j + 1, pattern)
        for node in self.nodes:
            node.evaluate(values)
        return values

    def operator(self, mesh: MeshComplex, flow: FlowField, noise: NoiseSpec) -> GradedOperator:
        """The refilled level's operator, its blocks checked against the charge route."""
        values = self.fill(mesh, flow, noise)
        op = GradedOperator(tuple(b.csr(values) for b in self.blocks), mesh, noise, "fd")
        self.check(op, values)
        return op

    def check(self, op: GradedOperator, values: np.ndarray) -> None:
        """Compare the blocks filled in ``values``, which ``op`` holds, with
        the charge route filled with them (``_check_residuals``)."""
        for r in self.residuals:
            r.evaluate(values)
        _check_residuals(op, (np.max(np.abs(values[r.entries]), initial=0.0)
                              for r in self.residuals))

    def reproduces(self, op: GradedOperator, values: np.ndarray) -> bool:
        """Whether the fill ``values`` of ``op``'s level, assembled by sparse
        products, gives its blocks byte for byte."""
        return all(np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
                   and np.array_equal(a.data, b.data)
                   for a, b in zip((n.csr(values) for n in self.blocks), op.blocks))


def assemble_hamiltonian(
    mesh: MeshComplex,
    flow: FlowField,
    noise: NoiseSpec,
    backend: str = "fd",
    maps: Optional[list] = None,
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
    maps : list, optional
        A run's assembly maps (``_AssemblyMap``), shared by its levels.  An
        fd level at epsilon > 0 on a periodic grid is refilled from the map
        of its incidence pattern.  The first such level is assembled by
        sparse products and adds its map if the map gives its blocks byte
        for byte; the map's charge route then checks them.
    """
    backend = normalize_backend(backend)
    if backend == "fourier":
        _check_capacity(mesh.cell_counts)
    mapped = (maps is not None and backend == "fd" and mesh.is_structured
              and not noise.is_deterministic)
    found = next((m for m in maps if m.matches(mesh)), None) if mapped else None
    if found is not None:
        return found.operator(mesh, flow, noise)
    d, ddag, iota = _graded_pieces(mesh, flow, noise, backend)
    blocks = tuple(_generator_block(d, ddag, iota, k) for k in range(mesh.dimension + 1))
    for b in blocks:
        if sp.issparse(b):
            b.sort_indices()  # the products store a row in the order they reach its columns
    op = GradedOperator(blocks, mesh, noise, backend)
    if mapped and all(x.has_canonical_format for x in d + ddag + iota):
        found = _AssemblyMap(mesh, d, ddag, iota)
        values = found.fill(mesh, flow, noise)
        if found.reproduces(op, values):  # then its charge route checks these blocks
            found.check(op, values)
            maps.append(found)
            return op
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
    _check_residuals(op, (abs(c - b).max()
                          for c, b in zip(_charge(d, ddag, iota, op.degrees()), op.blocks)))


def _check_residuals(op: GradedOperator, differences) -> None:
    """Refuse ``op`` unless ``differences``, max |charge route - H_k| in
    degree order, stay within ``_TWO_ROUTE_TOL`` of max |H|."""
    scale = max(max(np.max(np.abs(b.data if sp.issparse(b) else b), initial=0.0)
                    for b in op.blocks), 1e-300)
    for k, difference in zip(op.degrees(), differences):
        resid = difference / scale
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

