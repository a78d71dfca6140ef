"""Cell complexes over phase-space manifolds and their Hodge weights.

Three mesh families are supported:

* uniform periodic circle grids (dimension 1),
* uniform periodic rectangular torus grids (dimension 2),
* closed orientable triangulated surfaces with circumcentric duals.

Conventions used throughout the package:

* A degree-k cochain stores one number per k-cell, interpreted as the
  *integral* of the corresponding k-form over that (oriented) cell.  Vertex
  cochains are therefore point values, edge cochains are line integrals, and
  face cochains are fluxes.
* Edges are oriented from the lower to the higher vertex index (on structured
  grids: in the +x / +y direction); faces are oriented counterclockwise.
  This makes all incidence matrices deterministic integer matrices.
* The boundary matrix ``incidence[k]`` maps k-cell indices to signed
  (k-1)-cell coefficients, so ``incidence[k] @ incidence[k+1] = 0`` exactly.
* The noise intensity ``epsilon`` scales a fixed unit base metric, so the
  inverse metric is ``epsilon * identity``.  Diagonal Hodge stars then carry
  a factor ``epsilon**(k - D/2)`` on degree-k cochains, which routes the
  expected ``epsilon`` prefactor into every codifferential (and nothing
  else): the exterior derivative stays metric-free.

Periodic grid layout, per axis (the circle is the one-axis case, the torus
the two-axis one; x is axis 0 and the major axis):

* vertex (i, j) has index ``i*ny + j`` (on the circle, vertex i has index i);
* the edges come in one block of n0 edges per axis, in vertex order: edge v
  of the block for axis a runs from vertex v to its +1 neighbour along a, so
  on the torus the x-edges are ``0 .. n0-1`` and the y-edges ``n0 .. 2*n0-1``;
* on the torus, face (i, j) spans ``[x_i, x_{i+1}] x [y_j, y_{j+1}]`` and has
  index ``i*ny + j``;
* a cell that spans the axes S has primal volume prod_{a in S} h_a and dual
  volume prod_{a not in S} h_a.

Triangulated surface layout (one half-edge table, ``_half_edges``):

* face f = (a, b, c) owns the half-edges 3f, 3f+1, 3f+2, running ab, bc, ca
  (face-major order);
* the edges are the (lower, higher) vertex pairs in sorted order; a
  half-edge running from the lower to the higher vertex enters its face's
  boundary with +1, one running against its edge with -1;
* ``icosphere`` numbers the midpoint of every edge after the old vertices,
  in the order in which the face-major half-edges first traverse the edges,
  and splits (a, b, c) into (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca).
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    CapacityError,
    DegreeError,
    GeometryWarning,
    InvalidNoiseError,
    InvalidResolutionError,
    TopologyError,
)

__all__ = [
    "NoiseSpec",
    "MeshComplex",
    "build_circle_grid",
    "build_torus_grid",
    "build_triangulated_surface",
    "icosahedron",
    "icosphere",
    "load_off",
    "hodge_star",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise intensity multiplying the unit base metric.

    ``epsilon == 0`` is accepted but only meaningful for deterministic-limit
    diagnostics; metric-dependent operators either refuse it or fall back to
    the unit metric.
    """

    epsilon: float

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise InvalidNoiseError(
                f"noise intensity must be a finite nonnegative real, got {self.epsilon!r}"
            )

    @property
    def is_deterministic(self) -> bool:
        return self.epsilon == 0.0


@dataclass(frozen=True)
class MeshComplex:
    """Immutable cell complex with incidence and primal/dual volume data.

    Attributes
    ----------
    kind : {"circle", "torus", "surface"}
    dimension : int
        Top cell degree (1 or 2).
    vertices : ndarray
        Coordinates: shape (n0,) of angles for the circle, (n0, 2) for the
        torus, (n0, 3) embedded points for surfaces.
    edges : ndarray of shape (n1, 2)
        Tail/head vertex indices per oriented edge.
    faces : ndarray or None
        Vertex index tuples per oriented face ((n2, 4) quads on the torus,
        (n2, 3) triangles on surfaces).
    incidence : tuple of csr_matrix
        ``incidence[k-1]`` is the boundary matrix of degree k (shape
        n_{k-1} x n_k, integer entries).
    primal_volumes, dual_volumes : tuple of ndarray
        Unit-metric cell measures per degree 0..D.
    lengths, grid_shape, spacings
        Structured-grid metadata (None on surfaces).
    """

    kind: str
    dimension: int
    vertices: np.ndarray
    edges: np.ndarray
    faces: Optional[np.ndarray]
    incidence: Tuple[sp.csr_matrix, ...]
    primal_volumes: Tuple[np.ndarray, ...]
    dual_volumes: Tuple[np.ndarray, ...]
    lengths: Optional[Tuple[float, ...]] = None
    grid_shape: Optional[Tuple[int, ...]] = None
    spacings: Optional[Tuple[float, ...]] = None

    def n_cells(self, k: int) -> int:
        if not 0 <= k <= self.dimension:
            raise DegreeError(
                f"degree {k} out of range for a {self.dimension}-dimensional mesh"
            )
        return len(self.primal_volumes[k])

    @property
    def cell_counts(self) -> Tuple[int, ...]:
        return tuple(self.n_cells(k) for k in range(self.dimension + 1))

    def boundary_matrix(self, k: int) -> sp.csr_matrix:
        """Boundary operator of degree k (k-cells to (k-1)-cells), 1 <= k <= D."""
        if not 1 <= k <= self.dimension:
            raise DegreeError(f"no boundary matrix at degree {k}")
        return self.incidence[k - 1]

    def cochain_shape(self, k: int) -> Optional[Tuple[int, ...]]:
        """Shape ``(f, *grid_shape)`` that a degree-``k`` cochain of a periodic
        grid reshapes to, or ``None`` on a surface.

        The f = C(D, k) cell families (one per choice of k axes) follow one
        another, each with n0 cells in C order of ``grid_shape`` (module
        docstring), so a translation by t moves cell (a, x) to (a, x + t).
        """
        if not self.is_structured:
            return None
        return (math.comb(self.dimension, k),) + self.grid_shape

    def euler_characteristic(self) -> int:
        return int(sum((-1) ** k * self.n_cells(k) for k in range(self.dimension + 1)))

    @property
    def is_structured(self) -> bool:
        return self.kind in ("circle", "torus")


# ======================================================================
# structured grid builders
# ======================================================================

def build_circle_grid(n: int, length: float) -> MeshComplex:
    """Uniform periodic grid on a circle of the given circumference.

    Parameters
    ----------
    n : int
        Number of vertices (= number of edges); at least 3.
    length : float
        Circumference; spacing is ``length / n``.
    """
    if n < 3:
        raise InvalidResolutionError(f"circle grid needs n >= 3 vertices, got {n}")
    return _periodic_grid("circle", (n,), (length,))


def build_torus_grid(nx: int, ny: int, lx: float, ly: float) -> MeshComplex:
    """Uniform periodic grid on a flat rectangular torus.

    Cell layout is documented in the module docstring: vertices and faces are
    indexed ``i*ny + j``; edges store the x-directed block first.
    """
    if nx < 3 or ny < 3:
        raise InvalidResolutionError(
            f"torus grid needs nx, ny >= 3, got ({nx}, {ny})"
        )
    return _periodic_grid("torus", (nx, ny), (lx, ly))


def _periodic_grid(kind: str, shape: Tuple[int, ...], lengths: Tuple[float, ...]) -> MeshComplex:
    """Periodic grid with one or two axes, laid out per axis (module docstring).

    Raises ``TypeError`` for a non-integer size, ``ValueError`` for a
    non-finite or non-positive length, and ``CapacityError`` when the cell
    arrays cannot be allocated (a size past float range or numpy's index
    range counts as unallocatable).
    """
    shape = tuple(operator.index(n) for n in shape)
    if not all(np.isfinite(x) and x > 0 for x in lengths):
        raise ValueError(f"{kind} lengths must be finite and positive, got {tuple(lengths)}")
    dim, n0 = len(shape), math.prod(shape)
    try:
        spacings = tuple(x / n for x, n in zip(lengths, shape))
        v = np.arange(n0)
        coords = [i * h for i, h in zip(np.unravel_index(v, shape), spacings)]
        # +1 neighbour of every vertex along each axis
        step = [np.roll(v.reshape(shape), -1, axis=a).ravel() for a in range(dim)]
        edges = np.vstack([np.column_stack([v, s]) for s in step])
        incidence = [_edge_incidence(edges, n0)]
        faces = None
        if dim == 2:
            x, y = step
            # face v spans [v, x[v]] x [v, y[v]], counterclockwise:
            #   +x-edge(v)  +y-edge(x[v])  -x-edge(y[v])  -y-edge(v)
            faces = np.column_stack([v, x, y[x], y])
            incidence.append(sp.csr_matrix(
                (np.repeat([1, 1, -1, -1], n0), (np.concatenate([v, n0 + x, y, n0 + v]),
                                                 np.tile(v, 4))),
                shape=(2 * n0, n0),
            ))
        primal = tuple(_family_volumes(spacings, n0, k, dual=False) for k in range(dim + 1))
        dual = tuple(_family_volumes(spacings, n0, k, dual=True) for k in range(dim + 1))
    except (MemoryError, ValueError, OverflowError) as exc:
        raise CapacityError(
            f"cannot allocate a {' x '.join(map(str, shape))} {kind} grid: {exc}"
        ) from exc

    mesh = MeshComplex(
        kind=kind,
        dimension=dim,
        vertices=np.column_stack(coords) if dim > 1 else coords[0],
        edges=edges,
        faces=faces,
        incidence=tuple(incidence),
        primal_volumes=primal,
        dual_volumes=dual,
        lengths=tuple(lengths),
        grid_shape=shape,
        spacings=spacings,
    )
    _check_chain_complex(mesh)
    return mesh


def _family_volumes(spacings: Tuple[float, ...], n0: int, k: int, dual: bool) -> np.ndarray:
    """Degree-k cell volumes: one block of n0 per family, a choice S of k axes.

    A cell spans the axes in S: its primal volume is the product of h_a over
    S, its dual volume the product over the other axes.
    """
    axes = range(len(spacings))
    return np.concatenate([
        np.full(n0, math.prod((spacings[a] for a in axes if (a in s) != dual), start=1.0))
        for s in itertools.combinations(axes, k)
    ])


def _edge_incidence(edges: np.ndarray, n0: int) -> sp.csr_matrix:
    """Degree-1 boundary: each edge is its head minus its tail."""
    n1 = len(edges)
    e = np.arange(n1)
    return sp.csr_matrix(
        (np.repeat([-1, 1], n1), (np.concatenate([edges[:, 0], edges[:, 1]]),
                                  np.concatenate([e, e]))),
        shape=(n0, n1),
    )


# ======================================================================
# triangulated surfaces
# ======================================================================

def build_triangulated_surface(vertices: Sequence, faces: Sequence) -> MeshComplex:
    """Cell complex of a closed, orientable, consistently oriented triangulation.

    Parameters
    ----------
    vertices : (n0, 3) array_like
        Embedded vertex positions.
    faces : (n2, 3) array_like of int
        Vertex index triples; all faces must share one orientation (each
        interior edge traversed once in each direction).  Integral floats,
        such as ``np.loadtxt`` returns, are accepted.

    Raises
    ------
    TopologyError
        If a vertex coordinate is not finite, there are no faces, a face
        index is not an integer or out of range, a vertex lies on no face, a
        face repeats a vertex, some edge is not shared by exactly two faces
        (non-closed) or the two traversals agree (non-orientable /
        inconsistent orientation).

    Warns
    -----
    GeometryWarning
        When the circumcentric dual produces non-positive volumes (mesh not
        well-centered).  Computation proceeds; only kernel dimensions are
        consumed downstream and those are robust.
    """
    pts = np.asarray(vertices, dtype=float)
    tri = np.asarray(faces)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise TopologyError(f"vertices must be (n, 3) points, got shape {pts.shape}")
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise TopologyError(f"faces must be (m, 3) index triples, got shape {tri.shape}")
    if not np.all(np.isfinite(pts)):
        raise TopologyError("vertex coordinates must be finite")
    if tri.dtype.kind == "f" and not np.all(np.isfinite(tri) & (tri == np.round(tri))):
        raise TopologyError("face indices must be integers")
    tri = tri.astype(np.int64)
    n0, n2 = len(pts), len(tri)
    if n2 == 0:
        raise TopologyError("a closed surface needs at least one face")
    if tri.min() < 0 or tri.max() >= n0:
        raise TopologyError("face indices out of range")
    # a vertex on no face would get no dual area, hence a zero Hodge star entry
    lonely = np.flatnonzero(np.bincount(tri.ravel(), minlength=n0) == 0)
    if len(lonely):
        raise TopologyError(f"vertex {lonely[0]} lies on no face "
                            f"({len(lonely)} unreferenced vertices)")
    tail, head, edges, edge_of, _ = _half_edges(tri)
    if np.any(tail == head):
        raise TopologyError("degenerate face with repeated vertices")

    # a closed, consistently oriented surface runs one half-edge along each
    # edge (lower to higher vertex) and one against it
    n1 = len(edges)
    along = tail < head
    runs = np.stack([np.bincount(edge_of[along], minlength=n1),
                     np.bincount(edge_of[~along], minlength=n1)])
    twice = np.flatnonzero((runs > 1).any(axis=0))
    if len(twice):
        e = twice[0]
        u, w = edges[e] if runs[0, e] > 1 else edges[e, ::-1]
        raise TopologyError(f"edge ({u}, {w}) traversed twice in the same direction: "
                            "triangulation is not consistently oriented")
    if not runs.all():
        u, w = edges[np.flatnonzero(runs.min(axis=0) == 0)[0]]
        raise TopologyError(f"edge ({u}, {w}) is not shared by two faces: surface is not closed")

    d1 = _edge_incidence(edges, n0)
    d2 = sp.csr_matrix((np.where(along, 1, -1), (edge_of, np.repeat(np.arange(n2), 3))),
                       shape=(n1, n2), dtype=np.int64)
    edge_len = np.linalg.norm(pts[edges[:, 1]] - pts[edges[:, 0]], axis=1)
    p = pts[tri]
    face_area = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)

    # circumcentric duals.  Per half-edge, the distance from the face's
    # circumcenter to the edge midpoint, signed by the barycentric weight of
    # the opposite vertex, adds to the dual edge; a quarter of the edge length
    # times it adds to the dual areas of tail and head (two corner pieces)
    centers, bary = _circumcenters(p)
    dist = np.linalg.norm(np.repeat(centers, 3, axis=0) - 0.5 * (pts[tail] + pts[head]), axis=1)
    piece = np.where(bary[:, [2, 0, 1]].ravel() > 0, dist, -dist)
    dual_len = np.bincount(edge_of, piece, n1)
    corner = np.repeat(0.25 * edge_len[edge_of] * piece, 2)
    dual_area = np.bincount(np.column_stack([tail, head]).ravel(), corner, n0)

    bad = int(np.sum(dual_len <= 0)) + int(np.sum(dual_area <= 0))
    if bad:
        warnings.warn(
            f"{bad} non-positive circumcentric dual volumes: "
            "triangulation is not well-centered",
            GeometryWarning,
            stacklevel=2,
        )

    mesh = MeshComplex(
        kind="surface",
        dimension=2,
        vertices=pts,
        edges=edges,
        faces=tri,
        incidence=(d1, d2),
        primal_volumes=(np.ones(n0), edge_len, face_area),
        dual_volumes=(dual_area, dual_len, np.ones(n2)),
    )
    _check_chain_complex(mesh)
    return mesh


def _half_edges(tri: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Half-edge table of a triangle list (surface layout, module docstring).

    Returns the tails and heads of the 3 * n2 face-major half-edges, the
    sorted (lower, higher) edges, the edge of each half-edge, and the first
    half-edge along each edge.
    """
    tail, head = tri.ravel(), np.roll(tri, -1, axis=1).ravel()
    edges, first, edge_of = np.unique(
        np.column_stack([np.minimum(tail, head), np.maximum(tail, head)]),
        axis=0, return_index=True, return_inverse=True,
    )
    # numpy 2.0.0 returns the inverse of an axis-0 unique as a column
    return tail, head, edges, edge_of.ravel(), first


def _circumcenters(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Circumcenters and their barycentric weights of the triangles ``p[f]``."""
    # squared length of the side opposite each corner
    sq = np.sum((np.roll(p, -1, axis=1) - np.roll(p, 1, axis=1)) ** 2, axis=2)
    w = sq * (np.roll(sq, -1, axis=1) + np.roll(sq, 1, axis=1) - sq)
    return (w[:, :, None] * p).sum(axis=1) / w.sum(axis=1, keepdims=True), w


# ---- canonical surface generators ----

def icosahedron() -> Tuple[np.ndarray, np.ndarray]:
    """Unit icosahedron: 12 vertices, 20 consistently oriented faces."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
            (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
            (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def icosphere(level: int) -> MeshComplex:
    """Icosahedron subdivided ``level`` times and projected to the unit sphere."""
    if level < 0:
        raise ValueError("subdivision level must be nonnegative")
    verts, faces = icosahedron()
    for _ in range(level):
        _, _, edges, edge_of, first = _half_edges(faces)
        # one midpoint per edge, numbered in order of first traversal
        order = np.argsort(first)
        mid = np.empty(len(edges), dtype=np.int64)
        mid[order] = len(verts) + np.arange(len(edges))
        m = verts[edges[order, 0]] + verts[edges[order, 1]]
        # row-wise dot products: the rounding of ``np.linalg.norm`` on one point
        verts = np.vstack([verts, m / np.sqrt(m[:, None] @ m[:, :, None])[:, 0]])
        (a, b, c), (ab, bc, ca) = faces.T, mid[edge_of].reshape(-1, 3).T
        faces = np.column_stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca]).reshape(-1, 3)
    return build_triangulated_surface(verts, faces)


def load_off(path) -> MeshComplex:
    """Read an OFF-format triangulation and build its cell complex.

    The count line (after the ``OFF`` keyword, on its line or the next) must
    hold the vertex, face and edge counts; the edge count is not used.  Each
    vertex and face record is one line; tokens after a face's three indices
    (such as a colour) are ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [words for words in (line.split("#", 1)[0].split() for line in fh) if words]
    if not lines or lines[0][0].upper() != "OFF":
        raise TopologyError(f"{path}: missing OFF header")
    header, body = lines[0], lines[1:]
    counts = header[1:] or (body.pop(0) if body else [])
    if len(counts) != 3:
        raise TopologyError(f"{path}: malformed OFF data: count line {' '.join(counts)!r} "
                            "must hold the vertex, face and edge counts")
    try:
        nv, nf = int(counts[0]), int(counts[1])
        if min(nv, nf) < 0:
            raise ValueError(f"negative count in {' '.join(counts)!r}")
        if len(body) < nv + nf:
            raise ValueError(f"{len(body)} records for {nv} vertices and {nf} faces")
        verts = np.array([words[:3] for words in body[:nv]], dtype=float).reshape(nv, 3)
        for words in body[nv:nv + nf]:
            if int(words[0]) != 3:
                raise TopologyError(f"{path}: only triangular faces supported, "
                                    f"got {words[0]}-gon")
        faces = np.array([words[1:4] for words in body[nv:nv + nf]],
                         dtype=np.int64).reshape(nf, 3)
    except ValueError as exc:
        raise TopologyError(f"{path}: malformed OFF data: {exc}") from exc
    return build_triangulated_surface(verts, faces)


# ======================================================================
# Hodge star
# ======================================================================

def hodge_star(mesh: MeshComplex, k: int, noise: NoiseSpec) -> np.ndarray:
    """Diagonal Hodge star on degree-k cochains under the scaled metric.

    Entry c multiplies cell c: the dual/primal volume ratio times
    ``epsilon**(k - D/2)``, strictly positive for ``epsilon > 0``.  With
    ``epsilon == 0`` the unit-metric ratio is returned: the diffusive sector
    is switched off there, so the entries carry no metric scale.

    Parameters
    ----------
    mesh : MeshComplex
    k : int
        Cochain degree, 0 <= k <= mesh.dimension.
    noise : NoiseSpec
    """
    if not 0 <= k <= mesh.dimension:
        raise DegreeError(
            f"degree {k} out of range 0..{mesh.dimension} for hodge star"
        )
    ratio = mesh.dual_volumes[k] / mesh.primal_volumes[k]
    if noise.is_deterministic:
        return ratio.copy()
    return noise.epsilon ** (k - mesh.dimension / 2.0) * ratio


def _check_chain_complex(mesh: MeshComplex) -> None:
    """Build-time sanity checks: integer chain identity and volume accounting."""
    for k in range(1, mesh.dimension):
        prod = mesh.incidence[k - 1] @ mesh.incidence[k]
        if prod.nnz and np.any(prod.data != 0):
            raise TopologyError(
                f"boundary-of-boundary is nonzero between degrees {k + 1} and {k - 1}"
            )
    for k in range(mesh.dimension + 1):
        if np.any(mesh.primal_volumes[k] <= 0):
            raise TopologyError(f"non-positive primal volume at degree {k}")
