"""Flow fields sampled on mesh vertices and edges.

A flow is the velocity field of the underlying dynamics.  It is stored twice:

* ``vertex_values`` — components per coordinate direction at vertices,
  shaped like the vertex coordinates: (n0,) on the circle, (n0, 2) on the
  torus, (n0, 3) tangent vectors on surfaces.  This is the user-facing
  sampling and the one consumed by critical-point analysis and trajectory
  simulation.
* ``edge_vectors`` — the full flow vector at each edge midpoint (structured
  grids only, shape (n1, dim)).  Operators contract against edge samples;
  for generic flows these are endpoint averages of the vertex samples.

On a periodic grid the circle is the one-axis torus, and every rule here
runs per grid axis a: the edges along a form family a (one block of n0
edges, in vertex order), and the tangential sample of such an edge is its
component a.

Gradient (Langevin) flows get a sharper edge rule: the tangential edge sample
is ``(epsilon/h) * tanh(W_head - W_tail)``.  It agrees with
``epsilon * (W_head - W_tail)/h`` to second order in h, and it is the unique
local rule for which the assembled degree-0 generator satisfies discrete
detailed balance *exactly* (the similarity transform by diag(e^W) is exactly
symmetric at any resolution).  Vertex samples of a Langevin flow are the
average of the two incident tangential edge samples per direction.

A gradient flow records its superpotential ``w``; that field is the one
declaration that a flow is a gradient (``FlowField.langevin`` reads it), and
``with_tilt`` clears it.  The samples carry one factor of epsilon, but the
flow does not record the level: the noise belongs to whoever pairs the flow
with a ``NoiseSpec`` (``ModelSpec.noise``, ``GradedOperator.noise``)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import UnsupportedMeshError
from .mesh import MeshComplex, NoiseSpec

__all__ = [
    "FlowField",
    "zero_flow",
    "flow_from_vertex_samples",
    "langevin_flow",
    "with_tilt",
]


@dataclass(frozen=True)
class FlowField:
    """Flow samples bound to one mesh (identified by kind and cell counts)."""

    kind: str
    vertex_values: np.ndarray
    edge_vectors: Optional[np.ndarray]
    w: Optional[np.ndarray] = None  # the superpotential of a gradient flow

    @property
    def langevin(self) -> bool:
        """Declared as the gradient of a superpotential ``w``."""
        return self.w is not None

    @property
    def is_zero(self) -> bool:
        if np.any(self.vertex_values != 0):
            return False
        return self.edge_vectors is None or not np.any(self.edge_vectors != 0)

    def tangential_edge_values(self, mesh: MeshComplex) -> np.ndarray:
        """Flow component along each edge's orientation, at the midpoint."""
        ev = self._validated_edges(mesh)
        dim = ev.shape[1]
        family = ev.reshape(dim, -1, dim)   # (axis of the edge, edge, component)
        return np.concatenate([family[a, :, a] for a in range(dim)])

    def transverse_edge_values(self, mesh: MeshComplex) -> np.ndarray:
        """Flow component across each edge (torus: A_y at x-edges, A_x at y-edges)."""
        if mesh.kind != "torus":
            raise UnsupportedMeshError(
                "transverse edge samples are defined on torus grids only"
            )
        ev = self._validated_edges(mesh)
        n0 = mesh.n_cells(0)
        return np.concatenate([ev[:n0, 1], ev[n0:, 0]])

    def _validated_edges(self, mesh: MeshComplex) -> np.ndarray:
        if self.edge_vectors is None:
            raise UnsupportedMeshError(
                f"flow field on a {self.kind} mesh carries no edge samples"
            )
        if self.kind != mesh.kind or len(self.edge_vectors) != mesh.n_cells(1):
            raise ValueError("flow field does not match this mesh")
        return self.edge_vectors

    def max_speed(self) -> float:
        v = self.vertex_values.reshape(len(self.vertex_values), -1)
        return float(np.max(np.linalg.norm(v, axis=1), initial=0.0))


def zero_flow(mesh: MeshComplex) -> FlowField:
    return flow_from_vertex_samples(mesh, np.zeros(np.shape(mesh.vertices)))


def flow_from_vertex_samples(mesh: MeshComplex, samples) -> FlowField:
    """Generic flow from vertex samples; edge samples by endpoint averaging.

    The samples are shaped like the vertex coordinates: (n0,) on a circle,
    (n0, 2) on a torus, (n0, 3) tangent vectors on a surface.
    """
    a = np.asarray(samples, dtype=float)
    shape = np.shape(mesh.vertices)
    if a.shape != shape:
        raise ValueError(f"{mesh.kind} flow samples must have shape {shape}")
    if not mesh.is_structured:
        return FlowField(mesh.kind, a, None)
    per_vertex = a.reshape(len(a), -1)
    ev = 0.5 * (per_vertex[mesh.edges[:, 0]] + per_vertex[mesh.edges[:, 1]])
    return FlowField(mesh.kind, a, ev)


def langevin_flow(mesh: MeshComplex, w, noise: NoiseSpec) -> FlowField:
    """Gradient flow A = epsilon * (discrete gradient of W), tanh edge rule.

    Per grid axis a: the edges along a carry their own tanh sample as
    component a, and the endpoint average of every other vertex component.
    """
    w = np.asarray(w, dtype=float)
    n0 = mesh.n_cells(0)
    if w.shape != (n0,):
        raise ValueError(f"superpotential must be sampled per vertex, shape ({n0},)")
    if not mesh.is_structured:
        raise UnsupportedMeshError("gradient flows are built on structured grids only")
    eps = noise.epsilon
    wg = w.reshape(mesh.grid_shape)
    axes = range(wg.ndim)
    # tangential sample on the edge leaving each vertex along axis a
    tang = [(eps / h) * np.tanh(np.roll(wg, -1, axis=a) - wg)
            for a, h in zip(axes, mesh.spacings)]
    # component a at a vertex: mean of its two incident axis-a edge samples
    comp = [0.5 * (t + np.roll(t, 1, axis=a)) for a, t in zip(axes, tang)]
    vertex = np.column_stack([c.ravel() for c in comp]).reshape(np.shape(mesh.vertices))
    ev = np.vstack([
        np.column_stack([(tang[a] if b == a else 0.5 * (c + np.roll(c, -1, axis=a))).ravel()
                         for b, c in enumerate(comp)])
        for a in axes
    ])
    return FlowField(mesh.kind, vertex, ev, w=w.copy())


def with_tilt(flow: FlowField, tilt) -> FlowField:
    """Add a constant drive to every sample; the result is no longer a gradient."""
    if flow.edge_vectors is None:
        raise UnsupportedMeshError("tilt is defined on structured grids only")
    tilt = np.atleast_1d(np.asarray(tilt, dtype=float))
    dim = flow.edge_vectors.shape[1]
    if tilt.shape != (dim,):
        raise ValueError(f"{flow.kind} tilt needs {dim} component(s), got {tilt.tolist()}")
    return replace(
        flow,
        vertex_values=flow.vertex_values + tilt,
        edge_vectors=flow.edge_vectors + tilt,
        w=None,
    )
