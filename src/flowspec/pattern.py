"""What a sparse block's symmetric route reads off its pattern alone.

``spectral`` solves a block made symmetric by a diagonal similarity through
its symmetric form: by its pair factor at degree 0, banded where the band is
narrow.  The levels of a noise scan store their blocks in one pattern per
degree, so a run builds the work that the pattern alone decides once, as a
``_Pattern`` record, and refills it with each level's entries (the symbolic
and numeric halves of a sparse direct solver; Davis, *Direct Methods for
Sparse Linear Systems*, 2006).  ``_Route`` is the record of a planned route.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse

_FACTOR_TOL = 1e-12
_SYMMETRY_TOL = 1e-10
_BAND_MAX = 2  # widest half-bandwidth a symmetric route solves banded


class _Route(NamedTuple):
    """A block's planned route: its name, what ``spectral._solve`` solves, and what it measured."""

    name: str
    matrix: object
    weights: Optional[np.ndarray]  # a symmetric route's s, in cell order; else None


def _stored(block):
    """The block's nonzero entries as CSR, in stored order: a stored zero is no coupling."""
    h = scipy.sparse.csr_matrix(block)
    if not np.all(h.data):
        h = h.copy()
        h.eliminate_zeros()
    return h


class _Pattern:
    """The routing work that a block's pattern alone decides, done once for
    every block with that pattern and fold, and filled in with one block's
    entries by ``route``.

    The pattern is the (i, j) of the block's nonzero entries in stored
    order (``_stored``), the fold the ``order`` of its cells
    (``spectral._fold``).  Read off them, each when first needed: the
    transpose permutation, the pairs that hook in each round of a spanning
    forest (``_forest_sums``), the permutation that puts the entries in the
    CSR order of the folded form and that form's band layout, and the pair
    factor's layout (``pairs``).  The fill is O(nnz) numpy on the block's
    entries and does the arithmetic that a sparse build and a sparse product
    would, in their order, so a record gives the same bits however many
    blocks it serves.
    """

    def __init__(self, h, order: np.ndarray):
        self.indptr, self.j, self.order, self.n = h.indptr, h.indices, order, len(order)
        self.i = np.repeat(np.arange(self.n), np.diff(h.indptr))
        self.forest: list = []  # the pairs that hook in each round (_forest_sums)

    def matches(self, h, order: np.ndarray) -> bool:
        return (np.array_equal(self.indptr, h.indptr) and np.array_equal(self.j, h.indices)
                and np.array_equal(self.order, order))

    @functools.cached_property
    def t(self) -> Optional[np.ndarray]:
        """The entry k-th by (i, j) has its transpose k-th by (j, i): data[t] = H_ji;
        ``None`` when the pattern is not symmetric."""
        i, j = self.i, self.j
        t = np.lexsort((i, j))[np.argsort(np.lexsort((j, i)))]
        return t if np.array_equal(i[t], j) and np.array_equal(j[t], i) else None

    @functools.cached_property
    def folded(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, object]:
        """The entries' permutation into the folded form's CSR order, that
        form's rows and columns, and its band layout (``_band_layout``)."""
        place = np.argsort(self.order)  # the folded position of each cell
        rows, cols = place[self.i], place[self.j]
        fold = np.lexsort((cols, rows))
        rows, cols = rows[fold], cols[fold]
        return fold, rows, cols, _band_layout(rows, cols, self.n)

    @functools.cached_property
    def pairs(self) -> Tuple[np.ndarray, np.ndarray, object, np.ndarray, np.ndarray]:
        """The pair factor's layout on the folded form: the form entries of
        its rows (the upper triangle, in order), its column indices, two a
        row, and its band layout; then, for the factor test, the pair whose
        product B^T B holds at each form entry (-1 on the diagonal) and the
        cells whose diagonal the form does not store."""
        fold, rows, cols, _ = self.folded
        upper = np.flatnonzero(cols > rows)
        columns = np.column_stack([rows[upper], cols[upper]]).ravel()
        pair = np.full(len(rows), -1)
        pair[upper] = np.arange(len(upper))
        transpose = np.argsort(fold)[self.t[fold]]  # t in the folded order
        pair = np.where(rows > cols, pair[transpose], pair)
        bare = np.setdiff1d(np.arange(self.n), rows[rows == cols])
        band = _band_layout(np.arange(len(columns)) // 2, columns, self.n)
        return upper, columns, band, pair, bare

    def similarity(self, data: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Weights s, in cell order, and the entries of the folded symmetric
        form S = diag(s) H diag(1/s), in its CSR order, of the block with the
        entries ``data``; ``None`` when there is no such s.

        S is symmetric when s_i^2 / s_j^2 = H_ji / H_ij on every coupled
        pair, so the pattern must be symmetric with H_ij H_ji > 0.
        Log-weights summed along the spanning forest (``_forest_sums``) give
        s, and S is kept when |S - S^T| <= ``_SYMMETRY_TOL`` max|S|, which
        tests the pairs off the forest (Kolmogorov's criterion); overflowing
        weights fail it.
        """
        t = self.t
        if t is None or not np.all(data * data[t] > 0):
            return None
        i, j = self.i, self.j
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s = np.exp(_forest_sums(self.n, i, j, 0.5 * np.log(data[t] / data), self.forest))
            scaled = s[i] * data / s[j]
            scale = np.max(np.abs(scaled), initial=0.0)
            if not np.all(np.abs(scaled - scaled[t]) <= _SYMMETRY_TOL * scale):  # NaN fails
                return None
        return s, (0.5 * (scaled + scaled[t]))[self.folded[0]]

    def factor(self, s: np.ndarray, form: np.ndarray) -> Optional[np.ndarray]:
        """Entries of the pair factor B, two a row in CSR order, with B^T B =
        S for the folded weights ``s`` and form entries ``form``, or ``None``.

        With v = s normalized, a symmetric block that kills v is
        sum_p c_p b_p b_p^T over the pairs i < j of its upper triangle, with
        c_p = -S_ij / (v_i v_j) and b_p = v_j e_i - v_i e_j.  B stacks the
        rows sqrt(c_p) b_p; it annihilates v exactly, so the zero mode is
        exact, and its singular values carry the tunnelling gaps with high
        relative accuracy.  Refused unless every c_p > 0, B has a row per
        vertex at least, and ||B^T B - S|| <= ``_FACTOR_TOL`` ||S|| (max
        norm, every entry on the pattern or off it).  B^T B is summed as the
        sparse product sums it: each diagonal entry down its column in row
        order, one product per pair off it.
        """
        upper, columns, _, pair, bare = self.pairs
        v = s / np.linalg.norm(s)
        i, j = columns[0::2], columns[1::2]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = -form[upper] / (v[i] * v[j])
        if len(c) < len(v) or not np.all(c > 0):
            return None
        root = np.sqrt(c)
        # row p holds sqrt(c_p) v_j at column i and -sqrt(c_p) v_i at column j
        b = np.column_stack([root * v[j], -root * v[i]]).ravel()
        square = np.bincount(columns, b * b, len(v))
        product = np.where(pair >= 0, (b[0::2] * b[1::2])[pair], square[self.folded[1]])
        error = max(np.max(np.abs(product - form), initial=0.0),
                    np.max(square[bare], initial=0.0))
        if not error <= _FACTOR_TOL * np.max(np.abs(form), initial=0.0):  # also refuses NaN
            return None
        return b

    def form_matrix(self, form: np.ndarray) -> scipy.sparse.csr_matrix:
        _, rows, cols, _ = self.folded
        return scipy.sparse.csr_matrix((form, cols, np.searchsorted(rows, np.arange(self.n + 1))),
                                       shape=(self.n, self.n))

    def factor_matrix(self, b: np.ndarray) -> scipy.sparse.csr_array:
        return scipy.sparse.csr_array((b, self.pairs[1], np.arange(0, len(b) + 1, 2)),
                                      shape=(len(b) // 2, self.n))

    def route(self, k: int, data: np.ndarray) -> Optional[_Route]:
        """The symmetric route of the degree-``k`` block with the entries
        ``data``, or ``None``: its pair factor at degree 0 (``factor``), else
        its form, banded where the layout allows."""
        similar = self.similarity(data)
        if similar is None:
            return None
        weights, form = similar
        b = self.factor(weights[self.order], form) if k == 0 else None
        if b is not None:
            layout = self.pairs[2]
            if layout is None:
                return _Route("svdvals", self.factor_matrix(b), weights)
            band = (len(b) // 2,) + _band(layout, b)  # (m, band, kl)
            return _Route("band_svdvals", band, weights)
        layout = self.folded[3]
        if layout is None:
            return _Route("eigvalsh", self.form_matrix(form), weights)
        ab, kl = _band(layout, form)  # symmetric, so ku = kl: rows 0..kl are LAPACK's upper band
        return _Route("eigvals_banded", ab[:kl + 1], weights)


def _diagonal_similarity(block) -> Optional[Tuple[np.ndarray, scipy.sparse.csr_matrix]]:
    """Weights s and the symmetric form (CSR) of S = diag(s) H diag(1/s), or
    ``None``: ``_Pattern.similarity`` on a record of the block alone."""
    h = _stored(block)
    pattern = _Pattern(h, np.arange(h.shape[0]))
    similar = pattern.similarity(h.data)
    if similar is None:
        return None
    return similar[0], pattern.form_matrix(similar[1])


def _forest_sums(n: int, i, j, g, rounds: list) -> np.ndarray:
    """x over n vertices with x_i - x_j = g on the pairs (i, j) (both ways
    listed) of a spanning forest, zero at each tree's root: each round every
    root hooks under the lowest root coupled to it, if lower, and pointer
    jumping sums the offsets.  Which pairs hook depends on the pattern alone:
    a round listed in ``rounds`` is replayed, and one not listed yet is found
    and appended, so a record (``_Pattern``) finds them once."""
    root, x = np.arange(n), np.zeros(n)  # x_v - x_root(v)
    for r in itertools.count():
        if r == len(rounds):
            a, b = root[i], root[j]
            cross = np.flatnonzero(b < a)
            cross = cross[np.lexsort((b[cross], a[cross]))]
            rounds.append(cross[np.diff(a[cross], prepend=-1) != 0])  # per root a, its lowest b
        first = rounds[r]
        if not len(first):
            return x
        hooked = root[i[first]]
        parent, step = np.arange(n), np.zeros(n)  # step[r] = x_r - x_parent(r)
        parent[hooked] = root[j[first]]
        step[hooked] = g[first] - x[i[first]] + x[j[first]]
        while not np.array_equal(parent[parent], parent):
            step, parent = step + step[parent], parent[parent]
        x += step[root]
        root = parent[root]


def _band_layout(row: np.ndarray, col: np.ndarray, n: int):
    """Where LAPACK band storage puts the entries (``row``, ``col``) of a
    matrix with ``n`` columns: their flat positions, the band's shape and its
    lower half-bandwidth kl, both half-bandwidths measured from the entries;
    ``None`` when either exceeds ``_BAND_MAX``.  The band holds
    ab[ku + i - j, j] = A[i, j], ku the upper half-bandwidth; every entry is
    stored once, as in the factor and the symmetric form."""
    kl, ku = int(np.max(row - col, initial=0)), int(np.max(col - row, initial=0))
    if max(kl, ku) > _BAND_MAX:
        return None
    shape = (kl + ku + 1, n)
    return np.ravel_multi_index((ku + row - col, col), shape), shape, kl


def _band(layout, data: np.ndarray) -> Tuple[np.ndarray, int]:
    """The band storage of the entries ``data`` placed by ``layout``
    (``_band_layout``), and its kl."""
    flat, shape, kl = layout
    band = np.zeros(shape)
    band.flat[flat] = data
    return band, kl
