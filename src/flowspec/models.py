"""Reference dynamical systems with frozen expectations.

Each constructor returns a fully assembled :class:`ModelSpec`: the mesh (by
keyword, a grid the same model built, which ``rebuild_at`` passes), the flow
samples, the noise level, a continuum drift callable for trajectory
integration and, where one exists, a closed-form stationary density.  A
model whose spectrum is known in closed form also carries an oracle, the
function ``(backend, degree) -> eigenvalues`` (``None`` for a degree it does
not predict): translation-invariant flows diagonalize in the Fourier basis,
so the expected eigenvalues are exact symbol evaluations.  Every oracle is
held to one relative tolerance, ``_ORACLE_REL_TOL``.  Verdicts, indices and
zero-mode counts are not declared: a run computes them.

Potential ("langevin") flows sample A = eps * grad W through the tanh edge
rule, so their stationary density is exp(-2 W) exactly at the discrete
level; both the diffusion and the drift carry one factor of eps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .exceptions import (
    InvalidNoiseError,
    InvalidResolutionError,
    UnknownModelError,
    ValidationError,
)
from .fields import FlowField, flow_from_vertex_samples, langevin_flow, with_tilt
from .mesh import MeshComplex, NoiseSpec, build_circle_grid, build_torus_grid
from .spectral import _match_nearest

__all__ = [
    "ModelSpec",
    "constant_drive_circle",
    "langevin_double_well_circle",
    "tilted_langevin_circle",
    "torus_shear_model",
    "list_models",
    "build_model",
    "oracle_spectrum_residual",
]

_TWO_PI = 2.0 * np.pi
_ORACLE_REL_TOL = 1e-10  # worst relative deviation a spectrum may show from its oracle


@dataclass(frozen=True)
class ModelSpec:
    """A named system: mesh + flow + noise + continuum drift + oracle, if any;
    ``drift(x)`` returns the flow A at x (``simulate_sde`` steps along -A), and
    ``oracle(backend, degree)`` the expected eigenvalues of one block or ``None``."""

    name: str
    params: Dict[str, float]
    mesh: MeshComplex
    flow: FlowField
    noise: NoiseSpec
    oracle: Optional[Callable[[str, int], Optional[np.ndarray]]] = None
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.flow.langevin and self.noise.is_deterministic:
            raise InvalidNoiseError(
                "a gradient flow needs epsilon > 0: its samples A = eps * grad W "
                "vanish at epsilon = 0, leaving the zero generator"
            )

    def rebuild_at(self, epsilon: float) -> "ModelSpec":
        """Same model at another noise level: the one rule every level is built by.

        Every level keeps this model's mesh.  A registered model is rebuilt
        from its parameters on it.  Any other model keeps its flow samples
        too, except that a gradient flow, whose samples carry one factor of
        eps, is resampled from ``flow.w``.  A gradient flow has no epsilon = 0
        level: ``ModelSpec`` refuses it.
        """
        epsilon = float(epsilon)
        if epsilon == self.noise.epsilon:
            return self
        if self.name in _REGISTRY:
            return build_model(self.name, {**self.params, "epsilon": epsilon}, mesh=self.mesh)
        noise = NoiseSpec(epsilon)
        flow = langevin_flow(self.mesh, self.flow.w, noise) if self.flow.langevin else self.flow
        return replace(self, flow=flow, noise=noise)


# ----------------------------------------------------------------------
# mode grids and discrete symbols
# ----------------------------------------------------------------------

def _modes(n: int) -> np.ndarray:
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


def _circle_symbol(n: int, length: float, a: float, eps: float, backend: str) -> np.ndarray:
    k = _modes(n)
    if backend == "fourier":
        kappa = _TWO_PI * k / length
        lam = eps * kappa**2 / 2.0 - 1j * a * kappa
        if n % 2 == 0:  # drift is unresolved at the folding mode
            lam[np.abs(k) == n // 2] = (eps * kappa**2 / 2.0)[np.abs(k) == n // 2]
        return lam
    h = length / n
    theta = _TWO_PI * k / n
    return eps * (1.0 - np.cos(theta)) / h**2 - 1j * a * np.sin(theta) / h


def _torus_symbol(n: int, length: float, ax: float, ay: float, eps: float,
                  backend: str) -> np.ndarray:
    k = _modes(n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    if backend == "fourier":
        kap_x = _TWO_PI * kx / length
        kap_y = _TWO_PI * ky / length
        lam = eps * (kap_x**2 + kap_y**2) / 2.0 + 0j
        drift_x = np.where(np.abs(kx) == n // 2 if n % 2 == 0 else False, 0.0, 1.0)
        drift_y = np.where(np.abs(ky) == n // 2 if n % 2 == 0 else False, 0.0, 1.0)
        lam -= 1j * (ax * kap_x * drift_x + ay * kap_y * drift_y)
        return lam.ravel()
    h = length / n
    tx = _TWO_PI * kx / n
    ty = _TWO_PI * ky / n
    lam = eps * ((1 - np.cos(tx)) + (1 - np.cos(ty))) / h**2
    return (lam - 1j * (ax * np.sin(tx) + ay * np.sin(ty)) / h).ravel()


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def constant_drive_circle(a: float, epsilon: float, n: int, *, mesh=None) -> ModelSpec:
    """Uniform drive of speed ``a`` on a circle of circumference 2*pi.

    Translation invariance makes every eigenvalue an exact symbol value:
    mode k relaxes at eps*k^2/2 and oscillates at frequency a*k.  The flow
    is divergence-free, so the stationary density is uniform.
    """
    if n < 8:
        raise InvalidResolutionError(f"constant drive needs n >= 8, got {n}")
    noise = NoiseSpec(epsilon)
    mesh = build_circle_grid(n, _TWO_PI) if mesh is None else mesh
    flow = flow_from_vertex_samples(mesh, np.full(n, float(a)))
    return ModelSpec(
        name="constant_drive_circle",
        params={"a": float(a), "epsilon": float(epsilon), "n": int(n)},
        mesh=mesh,
        flow=flow,
        noise=noise,
        oracle=lambda backend, deg, _n=n, _a=float(a), _e=float(epsilon): (
            _circle_symbol(_n, _TWO_PI, _a, _e, backend) if deg in (0, 1) else None
        ),
        drift=lambda phi, _a=float(a): np.full_like(np.asarray(phi, dtype=float), _a),
        density=lambda phi: np.ones_like(np.asarray(phi, dtype=float)),
    )


def langevin_double_well_circle(depth: float, epsilon: float, n: int, *, mesh=None) -> ModelSpec:
    """Potential flow of W = depth * cos(2 phi): two wells at pi/2 and 3*pi/2.

    The spectrum is real; the two lowest nonzero rates form a tunneling
    doublet whose gap shrinks with the noise level.
    """
    if depth <= 0:
        raise ValidationError(f"well depth must be positive, got {depth}")
    if epsilon <= 0:
        raise InvalidNoiseError("the potential model needs strictly positive noise")
    if n < 8:
        raise InvalidResolutionError(f"double well needs n >= 8, got {n}")
    noise = NoiseSpec(epsilon)
    mesh = build_circle_grid(n, _TWO_PI) if mesh is None else mesh
    phis = np.asarray(mesh.vertices).reshape(-1)
    w = depth * np.cos(2.0 * phis)
    return ModelSpec(
        name="langevin_double_well_circle",
        params={"depth": float(depth), "epsilon": float(epsilon), "n": int(n)},
        mesh=mesh,
        flow=langevin_flow(mesh, w, noise),
        noise=noise,
        drift=lambda phi, _d=float(depth), _e=float(epsilon): (
            -2.0 * _e * _d * np.sin(2.0 * np.asarray(phi, dtype=float))
        ),
        density=lambda phi, _d=float(depth): np.exp(
            -2.0 * _d * np.cos(2.0 * np.asarray(phi, dtype=float))
        ),
    )


def tilted_langevin_circle(depth: float, tilt: float, epsilon: float, n: int, *,
                           mesh=None) -> ModelSpec:
    """Double-well gradient plus a constant drive; not a potential flow.

    The tilt is applied to the assembled samples (gradient part first, then
    the constant), so tilt = 0 reproduces the potential model exactly and
    depth = 0 reproduces the constant drive exactly.
    """
    if depth < 0:
        raise ValidationError(f"well depth must be nonnegative, got {depth}")
    if epsilon <= 0:
        raise InvalidNoiseError("the tilted model needs strictly positive noise")
    if n < 8:
        raise InvalidResolutionError(f"tilted model needs n >= 8, got {n}")
    noise = NoiseSpec(epsilon)
    mesh = build_circle_grid(n, _TWO_PI) if mesh is None else mesh
    phis = np.asarray(mesh.vertices).reshape(-1)
    w = depth * np.cos(2.0 * phis)
    return ModelSpec(
        name="tilted_langevin_circle",
        params={"depth": float(depth), "tilt": float(tilt),
                "epsilon": float(epsilon), "n": int(n)},
        mesh=mesh,
        flow=with_tilt(langevin_flow(mesh, w, noise), float(tilt)),
        noise=noise,
        drift=lambda phi, _d=float(depth), _e=float(epsilon), _t=float(tilt): (
            -2.0 * _e * _d * np.sin(2.0 * np.asarray(phi, dtype=float)) + _t
        ),
    )


def torus_shear_model(ax: float, ay: float, epsilon: float, n: int, *, mesh=None) -> ModelSpec:
    """Constant flow (ax, ay) on a square flat torus of side 2*pi.

    Exactly solvable: mode k = (kx, ky) carries eigenvalue
    eps*|k|^2/2 - i k.a with multiplicity (1, 2, 1) across degrees 0, 1, 2.
    """
    noise = NoiseSpec(epsilon)
    mesh = build_torus_grid(n, n, _TWO_PI, _TWO_PI) if mesh is None else mesh
    samples = np.column_stack([
        np.full(mesh.n_cells(0), float(ax)),
        np.full(mesh.n_cells(0), float(ay)),
    ])
    flow = flow_from_vertex_samples(mesh, samples)

    def spectrum_fn(backend, deg, _n=n, _ax=float(ax), _ay=float(ay), _e=float(epsilon)):
        if deg not in (0, 1, 2):
            return None
        sym = _torus_symbol(_n, _TWO_PI, _ax, _ay, _e, backend)
        return np.concatenate([sym, sym]) if deg == 1 else sym

    return ModelSpec(
        name="torus_shear_model",
        params={"ax": float(ax), "ay": float(ay),
                "epsilon": float(epsilon), "n": int(n)},
        mesh=mesh,
        flow=flow,
        noise=noise,
        oracle=spectrum_fn,
        drift=lambda pos, _ax=float(ax), _ay=float(ay): np.broadcast_to(
            np.array([_ax, _ay]), np.shape(np.asarray(pos, dtype=float))
        ).copy(),
        density=lambda pos: np.ones(np.shape(np.asarray(pos, dtype=float))[:-1]),
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., ModelSpec]] = {
    "constant_drive_circle": constant_drive_circle,
    "langevin_double_well_circle": langevin_double_well_circle,
    "tilted_langevin_circle": tilted_langevin_circle,
    "torus_shear_model": torus_shear_model,
}


def list_models() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def build_model(name: str, params: Dict, *, mesh: Optional[MeshComplex] = None) -> ModelSpec:
    """Instantiate a registered model; unknown names list the alternatives.

    Parameter values must be numbers: a JSON true or "0.2" is refused.  A
    ``mesh`` the same model built is reused instead of a new grid.
    """
    if name not in _REGISTRY:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {', '.join(list_models())}"
        )
    for key, value in params.items():
        if isinstance(value, (bool, str)):
            raise ValidationError(f"bad parameters for model {name!r}: {key} must be "
                                  f"a number, got {value!r}")
    try:
        return _REGISTRY[name](**params, mesh=mesh)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad parameters for model {name!r}: {exc}") from exc


def oracle_spectrum_residual(model: ModelSpec, report, backend: str) -> Optional[float]:
    """Worst relative deviation of computed eigenvalues from the oracle.

    Each degree's oracle values, in (Re, Im) order, go through the one
    multiset matcher, ``spectral._match_nearest`` (zipped sorted lists would
    mis-pair conjugates); None for a model without an oracle.
    """
    if model.oracle is None:
        return None
    worst = None
    for deg in range(model.mesh.dimension + 1):
        expected = model.oracle(backend, deg)
        if expected is None:
            continue
        computed = report.eigenvalues(degree=deg)
        if len(computed) != len(expected):
            raise ValueError(
                f"degree {deg}: {len(computed)} computed vs {len(expected)} expected"
            )
        expected = np.asarray(expected, dtype=complex)
        expected = expected[np.lexsort((expected.imag, expected.real))]
        scale = max(float(np.max(np.abs(expected))), 1e-300)
        _, dist = _match_nearest(expected, computed)
        dev = float(np.max(dist, initial=0.0)) / scale
        worst = dev if worst is None else max(worst, dev)
    return worst
