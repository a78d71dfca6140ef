"""Fixed points of the drift, their indices, and semiclassical diagnostics.

Zeros of the flow are located on structured meshes by interpolating the
vertex samples (linear on circles, bilinear per torus cell) and classified
through centered-difference Jacobians.  ``delta`` counts eigenvalue real
parts below zero (a complex pair contributes two; the parity, and hence the
sign (-1)^delta, does not depend on that convention).  The signed count over
all hyperbolic zeros is a topological invariant of the underlying manifold
and must agree with the alternating zero-mode count of the graded operator.

``one_loop_ground_state`` builds the leading small-noise ansatz attached to
a hyperbolic zero: a Gaussian of variance eps/(2|lambda|) in each stable
direction, constant leading order along unstable ones, placed at the degree
equal to the number of stable directions (for the relaxational dynamics
phi' = -A, a direction with Re lambda > 0 of the Jacobian of A is stable).

``instanton_splitting_scan`` tracks the smallest nonzero relaxation rate of
a multi-well potential flow across noise levels; for these flows both the
diffusion and the drift carry one power of the noise scale, so the tunneling
gap shrinks with eps and its logarithm is convex in 1/eps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .exceptions import (
    DeterministicLimitError,
    IndeterminateIndexError,
    InvalidNoiseError,
    NoInstantonError,
    NotPotentialError,
    ResolutionWarning,
    UnsupportedMeshError,
    ValidationError,
)
from .fields import FlowField
from .hamiltonian import assemble_hamiltonian
from .mesh import MeshComplex, NoiseSpec, hodge_star
from .spectral import _plan, _solve

__all__ = [
    "CriticalPoint",
    "OneLoopState",
    "SplittingScan",
    "find_critical_points",
    "poincare_hopf_sum",
    "one_loop_ground_state",
    "instanton_splitting_scan",
]

_HYPERBOLIC_REL = 1e-6


@dataclass(frozen=True)
class CriticalPoint:
    """A zero of the drift with its linearization.

    Parameters
    ----------
    location : ndarray
        Position in the fundamental domain, shape ``(dim,)``.
    jacobian : ndarray
        Centered-difference Jacobian of the flow at the zero.
    hyperbolic : bool
        False when some eigenvalue real part is below the resolution floor.
    mesh : MeshComplex
        The mesh the zero was located on (kept for downstream constructions).

    ``eigenvalues`` (of ``jacobian``), ``delta`` (their count with negative
    real part) and ``sign`` = (-1)^delta are read off ``jacobian``.
    """

    location: np.ndarray
    jacobian: np.ndarray
    hyperbolic: bool
    mesh: MeshComplex

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.jacobian)

    @property
    def delta(self) -> int:
        return int(np.sum(self.eigenvalues.real < 0))

    @property
    def sign(self) -> int:
        return (-1) ** self.delta

    @property
    def stable_count(self) -> int:
        """Number of SDE-stable directions (Re lambda > 0 for phi' = -A)."""
        return int(np.sum(self.eigenvalues.real > 0))


def _classify(location, jac, mesh, flow_scale) -> CriticalPoint:
    jac = np.atleast_2d(np.asarray(jac, dtype=float))
    floor = _HYPERBOLIC_REL * max(flow_scale, 1e-300)
    hyperbolic = bool(np.all(np.abs(np.linalg.eigvals(jac).real) >= floor))
    return CriticalPoint(np.atleast_1d(np.asarray(location, dtype=float)), jac, hyperbolic, mesh)


def find_critical_points(mesh: MeshComplex, flow: FlowField) -> List[CriticalPoint]:
    """Locate and classify all zeros of the flow's vertex samples.

    Linear (circle) or bilinear (torus) interpolation between grid samples;
    Jacobians by centered differences, interpolated to the zero.  Emits one
    resolution warning, naming the smallest periodic distance between two
    zeros, when that distance is below four cells of the widest spacing.  A
    flow that vanishes identically has no isolated zeros and yields an empty
    list.
    """
    if not mesh.is_structured:
        raise UnsupportedMeshError(
            "zero finding via grid interpolation needs a structured mesh"
        )
    if flow.is_zero:
        return []
    if mesh.dimension == 1:
        points = _circle_zeros(mesh, flow)
    else:
        points = _torus_zeros(mesh, flow)
    _warn_close_pairs(mesh, points)
    return points


def _circle_zeros(mesh, flow):
    n = mesh.n_cells(0)
    h = float(mesh.spacings[0])
    length = n * h
    a = np.asarray(flow.vertex_values, dtype=float).reshape(-1)
    jac = (np.roll(a, -1) - np.roll(a, 1)) / (2.0 * h)
    scale = float(np.max(np.abs(a)))
    phis = np.asarray(mesh.vertices).reshape(-1)

    roots = []
    for i in range(n):
        ip = (i + 1) % n
        if a[i] == 0.0:
            roots.append((float(phis[i]), float(jac[i])))
        elif a[i] * a[ip] < 0.0:
            s = a[i] / (a[i] - a[ip])
            roots.append(
                (float((phis[i] + s * h) % length), float((1 - s) * jac[i] + s * jac[ip]))
            )
    return [_classify([phi], [[j]], mesh, scale) for phi, j in roots]


def _bilinear_cell_roots(fx, fy):
    """Roots of two bilinear interpolants on the unit cell; corner layout
    (f00, f10, f01, f11) with s along the first axis."""
    a1 = fx[0]; b1 = fx[1] - fx[0]; c1 = fx[2] - fx[0]; d1 = fx[3] - fx[1] - fx[2] + fx[0]
    a2 = fy[0]; b2 = fy[1] - fy[0]; c2 = fy[2] - fy[0]; d2 = fy[3] - fy[1] - fy[2] + fy[0]
    qa = c2 * d1 - d2 * c1
    qb = a2 * d1 - b2 * c1 + c2 * b1 - d2 * a1
    qc = a2 * b1 - b2 * a1
    scale = max(abs(v) for v in (a1, b1, c1, d1, a2, b2, c2, d2)) or 1.0
    ts: List[float] = []
    if abs(qa) <= 1e-14 * scale * scale:
        if abs(qb) > 1e-14 * scale * scale:
            ts = [-qc / qb]
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            # the stable form: (-qb ± r)/(2 qa) cancels when qa is roundoff-sized
            q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
            ts = [q / qa, qc / q] if q else [0.0]
    out = []
    for t in ts:
        if not (-1e-9 <= t <= 1.0 + 1e-9):
            continue
        den1 = b1 + d1 * t
        den2 = b2 + d2 * t
        if abs(den1) >= abs(den2):
            if abs(den1) <= 1e-14 * scale:
                continue
            s = -(a1 + c1 * t) / den1
        else:
            if abs(den2) <= 1e-14 * scale:
                continue
            s = -(a2 + c2 * t) / den2
        if -1e-9 <= s <= 1.0 + 1e-9:
            out.append((min(max(s, 0.0), 1.0), min(max(t, 0.0), 1.0)))
    return out


def _torus_zeros(mesh, flow):
    nx, ny = mesh.grid_shape
    hx, hy = (float(s) for s in mesh.spacings)
    ax = flow.vertex_values[:, 0].reshape(nx, ny)
    ay = flow.vertex_values[:, 1].reshape(nx, ny)
    scale = float(np.max(np.abs(flow.vertex_values)))
    # centered-difference Jacobian entries at vertices
    jxx = (np.roll(ax, -1, 0) - np.roll(ax, 1, 0)) / (2 * hx)
    jxy = (np.roll(ax, -1, 1) - np.roll(ax, 1, 1)) / (2 * hy)
    jyx = (np.roll(ay, -1, 0) - np.roll(ay, 1, 0)) / (2 * hx)
    jyy = (np.roll(ay, -1, 1) - np.roll(ay, 1, 1)) / (2 * hy)

    found = []
    for i in range(nx):
        for j in range(ny):
            ii, jj = (i + 1) % nx, (j + 1) % ny
            cx = (ax[i, j], ax[ii, j], ax[i, jj], ax[ii, jj])
            cy = (ay[i, j], ay[ii, j], ay[i, jj], ay[ii, jj])
            if min(cx) > 0 or max(cx) < 0 or min(cy) > 0 or max(cy) < 0:
                continue
            for s, t in _bilinear_cell_roots(cx, cy):
                x = (i + s) * hx % (nx * hx)
                y = (j + t) * hy % (ny * hy)

                def interp(g):
                    return ((1 - s) * (1 - t) * g[i, j] + s * (1 - t) * g[ii, j]
                            + (1 - s) * t * g[i, jj] + s * t * g[ii, jj])

                jac = [[interp(jxx), interp(jxy)], [interp(jyx), interp(jyy)]]
                found.append(((x, y), jac))

    # roots on shared cell edges are located twice; keep one representative
    points: List[CriticalPoint] = []
    tol = 1e-7 * max(hx, hy)
    for loc, jac in found:
        kept = [p.location for p in points]
        if not kept or np.min(_periodic_distance(mesh, kept, loc)) >= tol:
            points.append(_classify(loc, jac, mesh, scale))
    return points


def _wrap_displacement(x, x0, periods):
    d = np.asarray(x, dtype=float) - np.asarray(x0, dtype=float)
    periods = np.asarray(periods, dtype=float)
    return (d + periods / 2.0) % periods - periods / 2.0


def _periodic_distance(mesh, x, x0):
    """Euclidean distance from ``x`` to ``x0`` along the shortest periodic images."""
    return np.linalg.norm(_wrap_displacement(x, x0, mesh.lengths), axis=-1)


def _warn_close_pairs(mesh, points):
    if len(points) < 2:
        return
    locs = np.array([p.location for p in points])
    gap = min(float(np.min(_periodic_distance(mesh, locs[i + 1:], locs[i])))
              for i in range(len(locs) - 1))
    h = max(mesh.spacings)
    if gap < 4.0 * h:
        warnings.warn(
            f"zeros only {gap:.3g} apart on a grid of spacing {h:.3g}; "
            "at least four cells of separation are needed for reliable "
            "interpolation",
            ResolutionWarning, stacklevel=3,
        )


def poincare_hopf_sum(points: Sequence[CriticalPoint]) -> int:
    """Sum of (-1)^delta over hyperbolic zeros; equals the Euler characteristic.

    Raises when any zero is non-hyperbolic: its local index is then not
    determined by the linearization.
    """
    bad = [p for p in points if not p.hyperbolic]
    if bad:
        locs = ", ".join(np.array2string(p.location, precision=4) for p in bad[:4])
        raise IndeterminateIndexError(
            f"{len(bad)} non-hyperbolic zero(s) at {locs}; the signed count "
            "is undefined without second-order information"
        )
    return int(sum(p.sign for p in points))


# ----------------------------------------------------------------------
# semiclassical ground-state ansatz
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OneLoopState:
    """The one-loop state of a zero: a cochain ``values`` of ``degree``, the
    zero's count of stable directions, normalized in that degree's metric."""

    degree: int
    values: np.ndarray


def _stable_directions(jac):
    """Real invariant directions of the linearization, split by stability.

    Returns (basis, weights): columns of ``basis`` span R^d; ``weights[i]``
    is |lambda| for SDE-stable columns and 0 for unstable ones.
    """
    w, v = np.linalg.eig(jac)
    d = jac.shape[0]
    basis = np.zeros((d, d))
    weights = np.zeros(d)
    col = 0
    used = np.zeros(d, dtype=bool)
    for i in range(d):
        if used[i]:
            continue
        lam = w[i]
        if abs(lam.imag) < 1e-12 * max(abs(lam), 1.0):
            basis[:, col] = v[:, i].real
            weights[col] = abs(lam) if lam.real > 0 else 0.0
            used[i] = True
            col += 1
        else:
            j = int(np.argmin(np.abs(w - np.conj(lam)) + used * 1e30))
            used[i] = used[j] = True
            # Re v and Im v of a unit v are shorter than 1 (1/sqrt(2) at a
            # rotation); unit columns give the variance eps/(2|lambda|)
            pair = np.column_stack([v[:, i].real, v[:, i].imag])
            basis[:, col:col + 2] = pair / np.linalg.norm(pair, axis=0)
            weights[col:col + 2] = abs(lam) if lam.real > 0 else 0.0
            col += 2
    return basis[:, :col], weights[:col]


def one_loop_ground_state(point: CriticalPoint, noise: NoiseSpec) -> OneLoopState:
    """Leading small-noise state attached to a hyperbolic zero.

    Degree equals the number of stable directions.  Stable directions carry
    Gaussian factors exp(-|lambda| u^2 / eps) — variance eps/(2|lambda|) —
    sampled where the receiving cells live (vertices, edge midpoints, or
    face centers); unstable directions contribute a constant leading order.
    The cochain is normalized in the metric inner product of its degree.
    """
    if not point.hyperbolic:
        raise IndeterminateIndexError(
            "cannot attach a localized state to a non-hyperbolic zero"
        )
    if noise.is_deterministic:
        raise DeterministicLimitError(
            "the one-loop state degenerates to a point mass at eps = 0"
        )
    mesh = point.mesh
    if not mesh.is_structured:
        raise UnsupportedMeshError("one-loop states are built on structured meshes")
    eps = noise.epsilon
    dim = mesh.dimension
    degree = point.stable_count
    basis, weights = _stable_directions(point.jacobian)

    def gaussian(pos):
        u = np.linalg.solve(basis, _wrap_displacement(pos, point.location, mesh.lengths))
        return float(np.exp(-np.dot(weights, u * u) / eps))

    if degree == 0:
        values = np.ones(mesh.n_cells(0))
    elif dim == 1:  # circle, degree 1: Gaussian on edge midpoints
        verts = np.asarray(mesh.vertices).reshape(-1)
        mids = verts[mesh.edges[:, 0]] + 0.5 * mesh.spacings[0]
        values = np.array([gaussian([m]) for m in mids])
    else:
        nx, ny = mesh.grid_shape
        hx, hy = (float(s) for s in mesh.spacings)
        if degree == 1:
            stable_dir = basis[:, np.argmax(weights > 0)]
            stable_dir = stable_dir / np.linalg.norm(stable_dir)
            values = np.zeros(mesh.n_cells(1))
            tangents = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
            offs = {0: np.array([hx / 2, 0.0]), 1: np.array([0.0, hy / 2])}
            lens = {0: hx, 1: hy}
            n_x_edges = nx * ny
            for e in range(mesh.n_cells(1)):
                family = 0 if e < n_x_edges else 1
                tail = mesh.edges[e, 0]
                mid = mesh.vertices[tail] + offs[family]
                align = float(tangents[family] @ stable_dir)
                values[e] = align * lens[family] * gaussian(mid)
        else:  # degree 2: Gaussian on face centers
            values = np.zeros(mesh.n_cells(2))
            for f in range(mesh.n_cells(2)):
                i, j = divmod(f, ny)
                center = np.array([(i + 0.5) * hx, (j + 0.5) * hy])
                values[f] = gaussian(center)

    metric = hodge_star(mesh, degree, noise)
    norm = float(np.sqrt(np.sum(metric * values * values)))
    if norm == 0.0:
        raise IndeterminateIndexError("one-loop ansatz vanished on this mesh")
    return OneLoopState(degree=degree, values=values / norm)


# ----------------------------------------------------------------------
# tunneling-gap scan
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingScan:
    """Per noise level of ``epsilons`` (strictly descending), the tunneling
    gap ``splittings`` and the first rate past the ``n_minima`` tunneling
    rates, ``first_nontunneling``; the trend checks are read off the gaps."""

    epsilons: Tuple[float, ...]
    splittings: Tuple[float, ...]
    first_nontunneling: Tuple[float, ...]
    n_minima: int

    @property
    def strictly_decreasing(self) -> bool:
        """Whether the gap shrinks at every step to a lower noise level."""
        s = self.splittings
        return all(b < a for a, b in zip(s[:-1], s[1:]))

    @property
    def convex_log_trend(self) -> bool:
        """Whether log(gap) is convex in 1/eps, up to 1e-9 of the largest slope."""
        x = 1.0 / np.array(self.epsilons)
        y = np.log(self.splittings)
        order = np.argsort(x)
        x, y = x[order], y[order]
        slopes = np.diff(y) / np.diff(x)
        return bool(np.all(np.diff(slopes) >= -1e-9 * max(1.0, np.max(np.abs(slopes)))))


def _count_minima(mesh, w):
    wg = np.asarray(w, dtype=float).reshape(mesh.grid_shape)
    lower = np.ones(wg.shape, dtype=bool)
    for axis in range(wg.ndim):
        lower &= (wg < np.roll(wg, 1, axis)) & (wg < np.roll(wg, -1, axis))
    return int(np.sum(lower))


def _scan_levels(epsilons: Sequence[float]) -> List[float]:
    """At least two finite, positive, strictly descending levels; a NaN fails each check."""
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValidationError("need at least two noise levels to scan")
    if not all(0 < e < np.inf for e in eps):
        raise InvalidNoiseError(f"splitting scan requires finite, positive noise: {eps}")
    if not all(b < a for a, b in zip(eps[:-1], eps[1:])):
        raise ValidationError(f"noise levels must be strictly descending: {eps}")
    return eps


def instanton_splitting_scan(model, epsilons: Sequence[float]) -> SplittingScan:
    """Smallest nonzero relaxation rate of a multi-well potential flow per eps.

    ``model`` must be a potential-flow ``ModelSpec`` whose ``flow.w`` has at
    least two local minima; each level is the fd generator of
    ``model.rebuild_at(eps)``.
    """
    def degree0_eigenvalues(eps):
        m = model.rebuild_at(eps)
        op = assemble_hamiltonian(m.mesh, m.flow, m.noise, backend="fd")
        return _solve(0, _plan(op, (0,))[0])

    return _splitting_scan(model, epsilons, degree0_eigenvalues)


def _scan_minima(model) -> int:
    """Local minima of a model the scan admits: a potential flow with two or more."""
    if not model.flow.langevin:
        raise NotPotentialError(
            "the tunneling-gap scan is defined for potential flows only"
        )
    n_min = _count_minima(model.mesh, model.flow.w)
    if n_min < 2:
        raise NoInstantonError(
            f"potential has {n_min} local minimum(s); no tunneling doublet exists"
        )
    return n_min


def _splitting_scan(model, epsilons: Sequence[float],
                    degree0_eigenvalues: Callable[[float], np.ndarray]) -> SplittingScan:
    """The scan, given the degree-0 eigenvalues of the fd generator per level."""
    eps_list = _scan_levels(epsilons)
    n_min = _scan_minima(model)

    splittings = []
    nontunneling = []
    for eps in eps_list:
        lam = np.sort(np.abs(degree0_eigenvalues(eps)))
        splittings.append(float(lam[1]))
        nontunneling.append(float(lam[n_min]))

    return SplittingScan(tuple(eps_list), tuple(splittings), tuple(nontunneling), n_min)
