"""The banded routes' LAPACK: what ``spectral`` solves of a narrow band.

A symmetric route whose band is narrow (a folded 1-D periodic grid) is
solved without a dense copy: the degree-0 pair factor by LAPACK dgbbrd and
dqds (``_band_svdvals``), the symmetric form by ``scipy.linalg.eigvals_banded``.
A block read only by the verdicts or a scan is solved for its slow end
instead (``_SlowEnd``): reduced to a symmetric tridiagonal and bisected.
scipy wraps none of dgbbrd, dlasq1, dsbtrd and dlarrc, so every routine
here, dstebz and dsterf too, is called one way: through the pointer that
``scipy.linalg.cython_lapack`` exports (``_cython_lapack``), which is
scipy's own LAPACK, so the "one BLAS per run" rule of ``spectral`` holds.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import Optional, Tuple

import numpy as np
import scipy.linalg.cython_lapack

from .exceptions import EigensolverError
from .pattern import _Route


def _band_svdvals(k: int, m: int, band: np.ndarray, kl: int) -> np.ndarray:
    """Singular values of the degree-``k`` pair factor, ``m`` rows held as the
    ``band`` of ``pattern._band`` with ``kl`` sub-diagonals, largest first.

    LAPACK dgbbrd reduces the band to bidiagonal form by Givens rotations,
    and dlasq1 (dqds) gives the bidiagonal's singular values to high relative
    accuracy (Demmel and Kahan 1990; Fernando and Parlett 1994), so the
    tunnelling gaps keep the accuracy of the dense ``svdvals``.
    """
    d, e = _bidiagonal(k, m, band, kl)
    _call(k, "dlasq1", len(d), d, e, np.empty(4 * len(d)))  # in place
    return d


def _bidiagonal(k: int, m: int, band: np.ndarray, kl: int) -> Tuple[np.ndarray, np.ndarray]:
    """The diagonal and the off-diagonal (one slot more, zero) of the
    bidiagonal that LAPACK dgbbrd reduces the factor's ``band`` to."""
    n = band.shape[1]
    p = min(m, n)
    d, e, unused = np.empty(p), np.zeros(p), np.zeros(1)
    _call(k, "dgbbrd", b"N", m, n, 0, kl, len(band) - kl - 1, np.array(band, order="F"),
          len(band), d, e, unused, 1, unused, 1, unused, 1, np.empty(2 * max(m, n)))
    return d, e


def _tridiagonal(k: int, route: _Route) -> Tuple[np.ndarray, np.ndarray, bool]:
    """The symmetric tridiagonal that a banded ``route``'s slow end bisects
    (``_SlowEnd``): its diagonal, its off-diagonal, and whether its
    eigenvalues are the block's square roots.  The pair factor's is the
    Golub-Kahan form of its bidiagonal; the form's is dsbtrd's reduction,
    the one that ``eigvals_banded`` passes to dsterf."""
    if route.name == "band_svdvals":
        d, e = _bidiagonal(k, *route.matrix)
        off = np.empty(2 * len(d) - 1)
        off[0::2], off[1::2] = d, e[:-1]
        return np.zeros(2 * len(d)), off, True
    ab = route.matrix  # LAPACK's upper band
    kd, n = len(ab) - 1, ab.shape[1]
    d, e = np.empty(n), np.empty(n)
    _call(k, "dsbtrd", b"N", b"U", n, kd, np.array(ab, order="F"), kd + 1, d, e,
          np.zeros(1), 1, np.empty(n))
    return d, e[:-1], False


def _call(k: int, name: str, *args) -> None:
    """scipy's LAPACK routine ``name`` on the degree-``k`` block: ``args``
    in order, a Python scalar as a 0-d array (an int as a C int), the status
    appended; a nonzero status is the eigensolver error."""
    info = np.zeros((), dtype=np.intc)
    _cython_lapack(name)(*(np.array(a, dtype=np.intc) if isinstance(a, (int, np.integer))
                           else np.asarray(a)
                           for a in args), info)
    if info:
        raise EigensolverError(f"eigensolver failed to converge on the degree-{k} "
                               f"block (LAPACK {name} info {int(info)})")


@functools.lru_cache(maxsize=None)
def _cython_lapack(name: str):
    """scipy's LAPACK routine ``name``, called with one numpy array for each
    of its pointer arguments (a 0-d array for a scalar).

    The function pointer comes from the capsule that
    ``scipy.linalg.cython_lapack`` exports for it, which is how numba reaches
    LAPACK: no compiled code and no dependency beyond scipy, and the routine
    is the LAPACK of scipy's own BLAS.
    """
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    signature = get_name(capsule)  # "void (char *, int *, ...)": every argument a pointer
    routine = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * signature.count(b"*"))(
        get_pointer(capsule, signature))
    return lambda *arrays: routine(*(a.ctypes for a in arrays))


class _SlowEnd:
    """A block solved for its slow end (``_solve`` with ``slow_end``): its
    largest eigenvalue ``top`` at once, and by ``select`` the rest of what a
    verdict or a scan reads.

    A block off the banded routes keeps every eigenvalue.  A banded one is
    kept as a symmetric tridiagonal T (``diagonal``, ``off``): the
    Golub-Kahan form of the pair factor's bidiagonal B, zero diagonal and
    off-diagonal d1, e1, d2, ..., whose eigenvalues are the singular values
    s of B and their negatives (``squared``: the block's eigenvalues are the
    s^2, from T's index ``first`` = p on), or the symmetric form reduced by
    dsbtrd.  The blocks of these routes are reversible generators (coupled
    pairs of one sign, rows or columns summing to zero), positive
    semidefinite, so ``top`` is the spectral radius and the smallest
    eigenvalues are the slowest: the factor's s^2 by construction, and a
    form with an eigenvalue below -n u ``top`` (a Sturm count, LAPACK
    dlarrc) is solved whole instead.

    LAPACK dstebz bisects T by index at ABSTOL = u^2 max|T_ij|, at most
    u^2 s_max (u = eps): bisection on a zero-diagonal Golub-Kahan
    tridiagonal keeps the relative accuracy of dqds for the tunnelling gaps
    (Demmel and Kahan 1990; the method of LAPACK dbdsvdx, which scipy does
    not export), where u s_max would miss the depth-12 gap by 2.3e-6.  Each
    index range is its own call, so the values of one range do not depend
    on which other ranges a read asks for.
    """

    def __init__(self, k: int, values: Optional[np.ndarray] = None, tridiagonal=None):
        self.k, self.values = k, values
        if values is not None:
            self.top = float(np.max(np.abs(values), initial=0.0))
            return
        self.diagonal, self.off, self.squared = tridiagonal  # as _tridiagonal gives them
        n = len(self.diagonal)
        self.first = n // 2 if self.squared else 0
        entry = max(np.max(np.abs(self.diagonal)), np.max(np.abs(self.off), initial=0.0))
        self.abstol = np.finfo(float).eps ** 2 * entry
        self.largest = self._bisect(n - 1, n)
        self.top = float(self.largest[0] ** 2 if self.squared else self.largest[0])
        if not self.squared and self._below(-n * np.finfo(float).eps * self.top) > 0:
            self.values = self.diagonal.copy()  # dsterf, the whole eigvals_banded solve
            _call(k, "dsterf", n, self.values, self.off.copy())
            self.top = float(np.max(np.abs(self.values)))

    def select(self, bound: Optional[float], count: int) -> np.ndarray:
        """The block's largest eigenvalue, every eigenvalue at most ``bound``
        (none when ``None``) and its ``count`` smallest, each once.

        The ``count`` smallest are one bisection call, the others up to the
        bound a second one, past the Sturm count of T at the bound (LAPACK
        dlarrc)."""
        if self.values is not None:
            return self.values
        n, first = len(self.diagonal), self.first
        low = first + min(count, n - first - 1)  # the count smallest end here
        end = low
        if bound is not None and bound > 0:
            end = max(low, min(self._below(math.sqrt(bound) if self.squared else bound), n - 1))
        values = np.concatenate([self._bisect(first, low), self._bisect(low, end), self.largest])
        return values * values if self.squared else values

    def _bisect(self, lo: int, hi: int) -> np.ndarray:
        """The eigenvalues lo..hi-1 of T, counted from 0 in ascending order, by dstebz."""
        n = len(self.diagonal)
        if hi <= lo:
            return np.empty(0)
        found, w = np.zeros((), dtype=np.intc), np.empty(n)
        _call(self.k, "dstebz", b"I", b"E", n, 0.0, 0.0, lo + 1, hi, self.abstol,
              self.diagonal, self.off, found, np.zeros((), dtype=np.intc), w,
              np.empty(n, dtype=np.intc), np.empty(n, dtype=np.intc), np.empty(4 * n),
              np.empty(3 * n, dtype=np.intc))
        return w[:int(found)]

    def _below(self, x: float) -> int:
        """How many eigenvalues of T lie at or below ``x``: dlarrc's Sturm count."""
        counts = [np.zeros((), dtype=np.intc) for _ in range(3)]  # eigcnt, lcnt, rcnt
        _call(self.k, "dlarrc", b"T", len(self.diagonal), x, x, self.diagonal, self.off, 0.0,
              *counts)
        return int(counts[2])
