"""Run configurations, task execution, and byte-stable report writing.

A run configuration is a JSON object:

.. code-block:: json

    {
      "model": {"name": "constant_drive_circle",
                "params": {"a": 1.0, "epsilon": 0.2, "n": 64}},
      "backend": "fourier",
      "tasks": ["spectrum", "classify", "sweep"],
      "tolerances": {"tau_gamma": null, "tau_e": null, "tau0": null},
      "sweep": {"epsilons": [0.4, 0.2, 0.1, 0.05]},
      "simulate": {"dt": 0.004, "steps": 4000, "n_paths": 5000,
                   "seed": 7, "store_every": 1, "bins": 64,
                   "autocorrelation": false},
      "out_dir": "out"
    }

Instead of ``model``, an ``inline`` object may supply a mesh and flow table
directly (see :func:`RunConfig.from_dict`); inline systems support the
operator tasks and ``sweep`` but not ``simulate``, which needs a closed-form
drift.  Every noise level a run reads, inline or registered, is the model's
:meth:`~flowspec.models.ModelSpec.rebuild_at` at that level, on the model's
mesh; a run's fd levels at eps > 0 after the first are refilled (``_Levels``).

``report.json`` is byte-stable: keys sorted, every float printed with 12
significant digits, negative zero normalized, non-finite values rejected,
complex numbers written as objects with re/im fields.  Wall-clock timings
never enter the report; they go to the ``timings.json`` sidecar.

``instanton_splitting_scan`` tracks the smallest nonzero relaxation rate of
a multi-well potential flow across noise levels; for these flows both the
diffusion and the drift carry one power of the noise scale, so the tunneling
gap shrinks with eps and its logarithm is convex in 1/eps.  Like
``sweep_epsilon``, it reads its levels as a run does, through ``_Levels``.
"""

from __future__ import annotations

import json
import operator
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy

from ._version import __version__
from .exceptions import (
    CapacityError,
    NumericalError,
    ValidationError,
)
from .fields import flow_from_vertex_samples, langevin_flow
from .hamiltonian import GradedOperator, assemble_hamiltonian
from .mesh import NoiseSpec, build_circle_grid, build_torus_grid
from .models import _ORACLE_REL_TOL, ModelSpec, build_model, oracle_spectrum_residual
from .morse import (
    SplittingScan,
    _scan_count,
    _scan_levels,
    _splitting_scan,
    find_critical_points,
    poincare_hopf_sum,
)
from .operators import normalize_backend
from .spectral import (
    SpectrumReport,
    _csv_flags,
    _null_vector,
    _plan,
    _slow_end_bound,
    _solve,
    _spectrum_report,
    classify_phase,
    full_spectrum,  # not called by a run; flowbench/tracing.py patches this name
    witten_index,
    zero_mode_counts,
)
from .trajectories import (
    _streamed_estimates,
    autocorrelation_decay,  # not called by a run; flowbench/tracing.py patches this name
    simulate_sde,
    stationary_histogram,  # not called by a run; flowbench/tracing.py patches this name
    tv_distance_to_density,
)

__all__ = [
    "TASKS",
    "RunConfig",
    "ReportDocument",
    "format_float",
    "canonical_json",
    "export_spectrum_csv",
    "run",
    "sweep_epsilon",
    "instanton_splitting_scan",
]

# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------

def format_float(x: float) -> str:
    """12-significant-digit float token; rejects non-finite, normalizes -0."""
    return _float_tokens([float(x)])[0]


def _finite_floats(values) -> np.ndarray:
    """``values`` as float64 with -0.0 made 0.0, all refused if one is not finite."""
    x = np.asarray(values, dtype=float) + 0.0  # collapses -0.0
    if not np.isfinite(x).all():
        bad = float(x[~np.isfinite(x)][0])
        raise NumericalError(f"non-finite value {bad!r} cannot enter a report")
    return x


def _float_tokens(values) -> List[str]:
    """:func:`format_float` of every value, all refused if one is not finite."""
    return list(map("%.11e".__mod__, _finite_floats(values).tolist()))


def _canon(obj, indent: int, path: str) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValidationError(f"non-string key {key!r} at {path}")
            parts.append(
                f'{inner}{json.dumps(key)}: '
                + _canon(obj[key], indent + 2, f"{path}.{key}")
            )
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [
            inner + _canon(v, indent + 2, f"{path}[{i}]") for i, v in enumerate(obj)
        ]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return _canon({"re": z.real, "im": z.imag}, indent, path)
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist(), indent, path)
    raise ValidationError(f"cannot serialize {type(obj).__name__} at {path}")


def canonical_json(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed float format, newline end)."""
    return _canon(obj, 0, "$") + "\n"


def _write_csv(path, header, columns) -> None:
    """Write one CSV file from its columns, float ones as :func:`_float_tokens`
    and others as integers, with :mod:`csv`'s ``\\r\\n`` line ends, each row
    by one format string.  Every row is formatted before the file opens: a
    non-finite value leaves none."""
    formats, cells = [], []
    for column in map(np.asarray, columns):
        real = column.dtype.kind == "f"
        formats.append("%.11e" if real else "%d")
        cells.append((_finite_floats(column) if real else column.astype(int)).tolist())
    row = ",".join(formats) + "\r\n"
    text = ",".join(header) + "\r\n" + "".join(row % values for values in zip(*cells))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def export_spectrum_csv(report: SpectrumReport, path,
                        tau_gamma: Optional[float] = None) -> None:
    """Write (degree, index, gamma, e, pair_id, physical_flag) rows.

    ``index`` is the global ordinal in the report's deterministic ordering.
    ``pair_id`` links an oscillating eigenvalue with its complex conjugate
    within the same degree (-1 for effectively real eigenvalues).
    """
    pair_ids, physical = _csv_flags(report, tau_gamma)
    ev = report.eigenvalue
    _write_csv(path, ["degree", "index", "gamma", "e", "pair_id", "physical_flag"],
               [report.degree, np.arange(len(ev)), ev.real, ev.imag, pair_ids, physical])


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

_SIM_DEFAULTS = {"dt": 0.005, "steps": 20_000, "n_paths": 200, "seed": 2024,
                 "store_every": 1, "bins": 64, "autocorrelation": False}  # what a config leaves out


@dataclass(frozen=True)
class RunConfig:
    tasks: Tuple[str, ...]
    backend: str = "fd"
    model_name: Optional[str] = None
    model_params: Dict = field(default_factory=dict)
    inline: Optional[Dict] = None
    tau_gamma: Optional[float] = None
    tau_e: Optional[float] = None
    tau0: Optional[float] = None
    sweep_epsilons: Optional[Tuple[float, ...]] = None
    sim: Dict = field(default_factory=dict)
    morse_epsilons: Optional[Tuple[float, ...]] = None
    out_dir: Optional[str] = None
    raw: Dict = field(default_factory=dict)

    @staticmethod
    def from_dict(data: Dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        _check_keys(data, ("model", "inline", "backend", "tasks", "tolerances",
                           "sweep", "simulate", "morse", "out_dir"), "config")
        tasks = data.get("tasks")
        if not isinstance(tasks, list) or not tasks:
            raise ValidationError("config needs a non-empty 'tasks' list")
        bad = [t for t in tasks if t not in TASKS]
        if bad:
            raise ValidationError(f"unknown tasks {bad}; available: {list(TASKS)}")
        if len(set(tasks)) < len(tasks):
            raise ValidationError(f"tasks must be distinct, got {tasks}")

        has_model = "model" in data
        has_inline = "inline" in data
        if has_model == has_inline:
            raise ValidationError("config needs exactly one of 'model' or 'inline'")
        model_name, model_params, inline = None, {}, None
        if has_model:
            m = data["model"]
            if not isinstance(m, dict) or not isinstance(m.get("name"), str):
                raise ValidationError("'model' must be an object with a string 'name'")
            _check_keys(m, ("name", "params"), "model")
            model_name = m["name"]
            model_params = _as_object(m.get("params", {}), "'model.params'")
        else:
            inline = _as_object(data["inline"], "'inline'")
            if "simulate" in tasks:
                raise ValidationError("'simulate' needs a registered model, not an inline system")

        try:
            backend = normalize_backend(data.get("backend", "fd"))
        except (TypeError, ValueError) as exc:
            raise ValidationError(str(exc)) from exc

        tol, sweep, sim, morse = ({} if data.get(k) is None else _as_object(data[k], f"'{k}'")
                                  for k in ("tolerances", "sweep", "simulate", "morse"))
        _check_keys(tol, ("tau_gamma", "tau_e", "tau0"), "tolerances")
        taus = {}
        for key in ("tau_gamma", "tau_e", "tau0"):
            v = tol.get(key)
            if v is not None:
                v = _as_float(v, key)
                if v <= 0 or not np.isfinite(v):
                    raise ValidationError(f"{key} must be positive, got {v}")
            taus[key] = v

        _check_keys(sweep, ("epsilons",), "sweep")
        sweep_eps = None
        if "sweep" in tasks:
            eps = sweep.get("epsilons")
            if not isinstance(eps, list) or not eps:
                raise ValidationError("'sweep' task needs sweep.epsilons")
            sweep_eps = _sweep_levels(_as_float(e, "sweep.epsilons") for e in eps)

        _check_keys(sim, ("dt", "steps", "n_paths", "seed", "store_every", "bins",
                          "autocorrelation", "fit_window"), "simulate")
        if "simulate" in tasks:
            sim = {**_SIM_DEFAULTS, **sim}
            sim["dt"] = _as_float(sim["dt"], "simulate.dt")
            for key in ("steps", "n_paths", "seed", "store_every", "bins"):
                sim[key] = _as_int(sim[key], f"simulate.{key}")
            if not isinstance(sim["autocorrelation"], bool):
                raise ValidationError("simulate.autocorrelation must be true or false, "
                                      f"got {sim['autocorrelation']!r}")
            window = sim.get("fit_window")
            if window is not None:
                pair = isinstance(window, list) and len(window) == 2
                lo, hi = (_as_float(t, "simulate.fit_window") for t in window) if pair else (0, 0)
                if not (np.isfinite(hi) and 0 <= lo < hi):
                    raise ValidationError("simulate.fit_window must be a list [lo, hi] "
                                          f"with finite 0 <= lo < hi, got {window!r}")
                sim["fit_window"] = (lo, hi)

        out_dir = data.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ValidationError(f"out_dir must be a string or null, got {out_dir!r}")

        morse_eps = None
        _check_keys(morse, ("splitting_epsilons",), "morse")
        split = morse.get("splitting_epsilons")
        if split is not None:
            if not isinstance(split, list):
                raise ValidationError("morse.splitting_epsilons must be a list")
            morse_eps = tuple(_as_float(e, "morse.splitting_epsilons") for e in split)
            if "morse" in tasks:
                _scan_levels(morse_eps)

        return RunConfig(
            tasks=tuple(tasks),
            backend=backend,
            model_name=model_name,
            model_params=model_params,
            inline=inline,
            tau_gamma=taus["tau_gamma"],
            tau_e=taus["tau_e"],
            tau0=taus["tau0"],
            sweep_epsilons=sweep_eps,
            sim=sim,
            morse_epsilons=morse_eps,
            out_dir=out_dir,
            raw=data,
        )


def _read_config(path):
    """The JSON value in a config file, before any validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from exc


def _as_float(value, what: str) -> float:
    """A real number read from JSON: true and "0.5" are refused."""
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{what} must be a number, got {value!r}")


def _as_int(value, what: str) -> int:
    """An integer read like a model size: 16.7, 16.0, "16" and true are refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _as_object(value, what: str) -> Dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object, got {value!r}")
    return dict(value)


def _check_keys(obj: Dict, known: Tuple[str, ...], what: str) -> None:
    """Refuse keys of a config object that nothing reads."""
    unknown = set(obj) - set(known)
    if unknown:
        raise ValidationError(
            f"unknown {what} keys: {sorted(unknown)}; known: {sorted(known)}"
        )


def _sweep_levels(epsilons) -> Tuple[float, ...]:
    eps = tuple(float(e) for e in epsilons)
    if not eps:
        raise ValidationError("sweep needs at least one noise level")
    if any((not np.isfinite(e)) or e < 0 for e in eps):
        raise ValidationError(f"sweep noise levels must be finite and >= 0: {eps}")
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise ValidationError(f"sweep noise levels must be strictly decreasing: {eps}")
    return eps


def _resolve_model(config: RunConfig) -> ModelSpec:
    if config.model_name is not None:
        model = build_model(config.model_name, config.model_params)
    else:
        model = _build_inline(config.inline)
    if "simulate" in config.tasks:  # refused before any step, not only before any file
        if model.drift is None:
            raise ValidationError("simulation needs a model with a closed-form drift")
        if model.mesh.dimension != 1:  # the histogram and the default observable are 1-D
            raise ValidationError("simulate reads the default observable of a 1-dimensional "
                                  f"domain; this one is {model.mesh.dimension}-dimensional")
    return model


_INLINE_MESH_KEYS = {"circle": ("kind", "n", "length"),
                     "torus": ("kind", "nx", "ny", "lx", "ly")}
_INLINE_FLOW_KINDS = ("constant", "potential", "vertex_samples")


def _build_inline(spec: Dict) -> ModelSpec:
    _check_keys(spec, ("mesh", "flow", "epsilon"), "inline")
    mesh_spec = spec.get("mesh")
    if not isinstance(mesh_spec, dict) or "kind" not in mesh_spec:
        raise ValidationError("inline system needs mesh.kind")
    kind = mesh_spec["kind"]
    if kind not in ("circle", "torus"):
        raise ValidationError(f"inline mesh kind must be circle or torus, got {kind!r}")
    _check_keys(mesh_spec, _INLINE_MESH_KEYS[kind], f"inline.mesh ({kind})")
    try:
        if kind == "circle":
            mesh = build_circle_grid(
                _as_int(mesh_spec["n"], "inline mesh.n"),
                _as_float(mesh_spec.get("length", 2 * np.pi), "inline mesh.length"),
            )
        else:
            mesh = build_torus_grid(
                _as_int(mesh_spec["nx"], "inline mesh.nx"),
                _as_int(mesh_spec["ny"], "inline mesh.ny"),
                _as_float(mesh_spec.get("lx", 2 * np.pi), "inline mesh.lx"),
                _as_float(mesh_spec.get("ly", 2 * np.pi), "inline mesh.ly"),
            )
    except KeyError as exc:
        raise ValidationError(f"inline mesh is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"inline mesh: {exc}") from exc

    if "epsilon" not in spec:
        raise ValidationError("inline system needs an 'epsilon'")
    noise = NoiseSpec(_as_float(spec["epsilon"], "inline epsilon"))

    flow_spec = spec.get("flow")
    if not isinstance(flow_spec, dict):
        raise ValidationError("inline system needs a 'flow' object")
    _check_keys(flow_spec, _INLINE_FLOW_KINDS, "inline.flow")
    if len(flow_spec) != 1:
        raise ValidationError(f"inline flow needs exactly one of: {', '.join(_INLINE_FLOW_KINDS)}"
                              f"; got {sorted(flow_spec)}")
    try:
        if "potential" in flow_spec:
            flow = langevin_flow(mesh, np.asarray(flow_spec["potential"], dtype=float), noise)
        elif "vertex_samples" in flow_spec:
            flow = flow_from_vertex_samples(
                mesh, np.asarray(flow_spec["vertex_samples"], dtype=float)
            )
        else:
            c = np.atleast_1d(np.asarray(flow_spec["constant"], dtype=float))
            if c.shape != (mesh.dimension,):
                raise ValidationError(
                    f"inline flow.constant needs {mesh.dimension} value(s), got {c.tolist()}"
                )
            samples = np.tile(c, (mesh.n_cells(0), 1)).reshape(np.shape(mesh.vertices))
            flow = flow_from_vertex_samples(mesh, samples)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"inline flow: {exc}") from exc
    return ModelSpec(name="inline", params={}, mesh=mesh, flow=flow, noise=noise)


# ----------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------

class _Levels:
    """The run's one state: operators and their route plans, per-degree eigenvalues
    and spectrum reports by noise level, each made once from ``model.rebuild_at(eps)``.

    The own level is solved whole when ``spectrum`` or ``stationary`` reads it, any
    other for its slow end (``spectral._solve``): the radius from its blocks' largest
    eigenvalues, then on a banded route (real eigenvalues) those up to
    ``_slow_end_bound`` of the run's thresholds and, at degree 0 of a scan level, the
    ``_scan_count`` smallest.  The two solves agree on every value above roundoff
    of the radius, so a threshold below that roundoff (a tau0 of 1e-15 radius) may
    count a zero mode that the other solve does not: the count is that of the own
    level's solve, which the task set decides.  A level the scan alone reads is
    planned at degree 0 alone; any other whole, so that the dense-solver cap refuses
    it before any of its blocks is made dense.

    Every level the run reads keeps the model's mesh (``rebuild_at``).  When the
    run reads two or more levels at eps > 0, the first of them is assembled by
    sparse products and leaves an assembly map that refills the others
    (``hamiltonian._AssemblyMap``); the maps are dropped once the last of those
    levels is assembled."""

    def __init__(self, model: ModelSpec, backend: str, config: RunConfig):
        self.model, self.backend, self.config = model, backend, config
        tasks, own = set(config.tasks), {model.noise.epsilon}
        self.whole = own if tasks & {"spectrum", "stationary"} else set()
        read = own if tasks & {"spectrum", "classify", "witten", "stationary"} else set()
        read |= set(config.sweep_epsilons or ()) if "sweep" in tasks else set()
        self.scanned = set(config.morse_epsilons or ()) if "morse" in tasks else set()
        self.scan_only = self.scanned - read
        self.scan_count = _scan_count(model) if self.scanned else 0
        self._levels: Dict[float, Tuple[GradedOperator, Dict]] = {}
        self._values: Dict[Tuple[float, int], np.ndarray] = {}
        self._reports: Dict[float, SpectrumReport] = {}
        self._patterns: list = []  # every level's pattern records (_plan), kept for the run
        self._to_assemble = {e for e in read | self.scanned if e > 0}
        self._maps = [] if len(self._to_assemble) > 1 else None

    def level(self, eps: float) -> Tuple[GradedOperator, Dict]:
        """A level's operator and its ``_plan``, which the dense-solver cap may refuse."""
        eps = float(eps)
        if eps not in self._levels:
            m = self.model.rebuild_at(eps)
            op = assemble_hamiltonian(m.mesh, m.flow, m.noise, backend=self.backend,
                                      maps=self._maps)
            self._to_assemble.discard(eps)
            if not self._to_assemble:
                self._maps = None
            self._levels[eps] = op, _plan(op, (0,) if eps in self.scan_only else op.degrees(),
                                          self._patterns)
        return self._levels[eps]

    def eigenvalues(self, eps: float, k: int) -> np.ndarray:
        eps = float(eps)
        if (eps, k) not in self._values:
            plan, c = self.level(eps)[1], self.config
            if eps in self.whole:
                self._values[eps, k] = _solve(k, plan[k])
                return self._values[eps, k]
            solved = {j: _solve(j, route, slow_end=True) for j, route in plan.items()}
            bound = None if eps in self.scan_only else _slow_end_bound(
                max(s.top for s in solved.values()), c.tau0, c.tau_gamma, c.tau_e)
            for j, s in solved.items():
                count = self.scan_count if j == 0 and eps in self.scanned else 0
                self._values[eps, j] = s.select(bound, count)
        return self._values[eps, k]

    def spectrum(self, eps: Optional[float] = None) -> SpectrumReport:
        """Vector-free spectrum report of one level (by default the model's own)."""
        eps = self.model.noise.epsilon if eps is None else float(eps)
        if eps not in self._reports:
            dim = self.model.mesh.dimension
            self._reports[eps] = _spectrum_report(
                {k: self.eigenvalues(eps, k) for k in range(dim + 1)}, dim)[0]
        return self._reports[eps]

    def index(self, eps: Optional[float] = None) -> int:
        """Every index a run reports: the alternating ``zero_mode_counts`` at its tau0."""
        return sum((-1) ** k * c
                   for k, c in enumerate(zero_mode_counts(self.spectrum(eps), self.config.tau0)))


def _task_spectrum(state: _Levels, files: Dict) -> Dict:
    rep = state.spectrum()
    # this module's name, looked up when the file is written (flowbench traces it)
    files["spectrum.csv"] = lambda path: export_spectrum_csv(rep, path, state.config.tau_gamma)
    degrees, counts = np.unique(rep.degree, return_counts=True)
    result = {
        "spectral_radius": rep.spectral_radius,
        "entries_per_degree": {str(k): c for k, c in zip(degrees.tolist(), counts.tolist())},
        "csv": "spectrum.csv",
    }
    dev = oracle_spectrum_residual(state.model, rep, state.config.backend)
    if dev is not None:
        result["oracle_max_rel_deviation"] = dev
        result["oracle_satisfied"] = bool(dev <= _ORACLE_REL_TOL)
    return result


def _task_classify(state: _Levels, files: Dict) -> Dict:
    cls = classify_phase(state.spectrum(), state.config.tau_gamma, state.config.tau_e)
    return {
        "verdict": cls.verdict,
        "tau_gamma": cls.tau_gamma,
        "tau_e": cls.tau_e,
        "n_surviving": len(cls.evidence),
        "witten_index": state.index(),
    }


def _task_witten(state: _Levels, files: Dict) -> Dict:
    idx = witten_index(state.spectrum(), state.config.tau0)
    counts = zero_mode_counts(state.spectrum(), state.config.tau0)
    chi = state.model.mesh.euler_characteristic()
    return {
        "witten_index": idx,
        "zero_modes_per_degree": list(counts),
        "euler_characteristic": chi,
        "matches_euler_characteristic": bool(idx == chi),
    }


def _task_stationary(state: _Levels, files: Dict) -> Dict:
    rep = state.spectrum()
    mesh = state.model.mesh
    top = mesh.dimension
    top_values = rep.eigenvalues(top)
    ground = int(np.argmin(np.abs(top_values)))
    op, plan = state.level(state.model.noise.epsilon)
    # the dominant component is real and positive; scale to unit total mass
    vec = _null_vector(op, plan[top], top_values[ground], rep.spectral_radius).real
    mass = float(np.sum(vec * mesh.primal_volumes[top]))
    if mass <= 0:
        raise NumericalError("top-degree ground state has non-positive mass")
    vec = vec / mass

    result = {
        "degree": top,
        "ground_eigenvalue": complex(top_values[ground]),
        "csv": "stationary.csv",
    }
    if state.model.density is not None and mesh.dimension == 1:
        phis = np.asarray(mesh.vertices).reshape(-1)
        rho = np.asarray(state.model.density(phis), dtype=float)
        edges = mesh.edges
        oracle_cells = 0.5 * (rho[edges[:, 0]] + rho[edges[:, 1]])
        oracle_cells /= float(np.sum(oracle_cells * mesh.primal_volumes[top]))
        result["oracle_max_rel_deviation"] = float(
            np.max(np.abs(vec - oracle_cells)) / np.max(np.abs(oracle_cells))
        )
    files["stationary.csv"] = lambda path: _write_csv(path, ["cell", "density"],
                                                      [np.arange(len(vec)), vec])
    return result


def _task_morse(state: _Levels, files: Dict) -> Dict:
    model = state.model
    points = find_critical_points(model.mesh, model.flow)
    ph = poincare_hopf_sum(points)
    result = {
        "n_critical_points": len(points),
        "points": [
            {
                "location": [float(x) for x in p.location],
                "delta": p.delta,
                "sign": p.sign,
                "hyperbolic": bool(p.hyperbolic),
                "eigenvalues": [complex(z) for z in p.eigenvalues],
            }
            for p in points
        ],
        "poincare_hopf_sum": ph,
        "euler_characteristic": model.mesh.euler_characteristic(),
    }
    if "witten" in state.config.tasks or "spectrum" in state.config.tasks:
        result["matches_witten_index"] = bool(ph == state.index())
    levels = state.config.morse_epsilons
    if levels:
        # the scan is defined on fd levels: the run's own on fd, on fourier a scan's own
        scan = (_splitting_scan(model, levels, lambda e: state.eigenvalues(e, 0))
                if state.backend == "fd" else instanton_splitting_scan(model, levels))
        result["splitting_scan"] = {
            "epsilons": list(scan.epsilons),
            "splittings": list(scan.splittings),
            "first_nontunneling": list(scan.first_nontunneling),
            "n_minima": scan.n_minima,
            "strictly_decreasing": scan.strictly_decreasing,
            "convex_log_trend": scan.convex_log_trend,
        }
    return result


def _task_simulate(state: _Levels, files: Dict) -> Dict:
    model = state.model
    sim = {**_SIM_DEFAULTS, **state.config.sim}
    # sampled block by block through this module's simulate_sde, the name
    # that flowbench/tracing.py patches
    hist, fit = _streamed_estimates(simulate_sde, model, **sim)
    result = {k: sim[k] for k in ("dt", "steps", "n_paths", "seed", "store_every")}
    result["histogram"] = {
        "bins": len(hist.counts),
        "n_samples": hist.n_samples,
        "csv": "histogram.csv",
    }
    if model.density is not None:
        result["histogram"]["tv_distance_to_oracle"] = tv_distance_to_density(
            hist, model.density
        )
    files["histogram.csv"] = lambda path: _write_csv(
        path, ["bin_lo", "bin_hi", "count", "density"],
        [hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.density])
    if fit is not None:
        result["autocorrelation"] = {
            "rate": fit.rate,
            "frequency": fit.frequency,
            "window": list(fit.window),
            "n_lags": fit.n_lags,
        }
    return result


def _task_sweep(state: _Levels, files: Dict) -> Dict:
    return _sweep(state, state.config.sweep_epsilons)


def sweep_epsilon(model: ModelSpec, epsilons, backend: str = "fd",
                  tau_gamma: Optional[float] = None,
                  tau_e: Optional[float] = None) -> Dict:
    """Re-assemble the model across descending noise levels.

    Per level: phase verdict, index, and the attenuation-to-oscillation
    ratio |Gamma|/|E| of the slowest oscillating modes.  When that ratio
    falls below 0.05 at the smallest level the spectrum is flagged as
    condensing onto the imaginary axis; a sweep whose rows never oscillate
    reports no condensation.
    """
    levels = _sweep_levels(epsilons)
    config = RunConfig(("sweep",), backend, tau_gamma=tau_gamma, tau_e=tau_e,
                       sweep_epsilons=levels)
    return _sweep(_Levels(model, backend, config), levels)


def instanton_splitting_scan(model: ModelSpec, epsilons) -> SplittingScan:
    """Smallest nonzero relaxation rate of a multi-well potential flow per eps.

    ``model`` must be a potential-flow ``ModelSpec`` whose ``flow.w`` has at
    least two local minima; each level is the fd generator of
    ``model.rebuild_at(eps)``, read as a run of the scan alone reads it: at
    degree 0, for the ``_scan_count`` smallest rates.
    """
    levels = _scan_levels(epsilons)
    state = _Levels(model, "fd", RunConfig(("morse",), morse_epsilons=tuple(levels)))
    return _splitting_scan(model, levels, lambda e: state.eigenvalues(e, 0))


def _sweep(levels: _Levels, epsilons) -> Dict:
    rows: List[Dict] = []
    for eps in _sweep_levels(epsilons):
        rep = levels.spectrum(eps)
        cls = classify_phase(rep, levels.config.tau_gamma, levels.config.tau_e)
        oscillating = rep.eigenvalue[np.abs(rep.eigenvalue.imag) > cls.tau_e]
        row = {
            "epsilon": eps,
            "verdict": cls.verdict,
            "witten_index": levels.index(eps),
            "n_oscillating": len(oscillating),
            "ratio_gamma_over_e": None,
        }
        if len(oscillating):
            mag = np.abs(oscillating)
            low = oscillating[mag <= (1.0 + 1e-6) * mag.min()]
            row["ratio_gamma_over_e"] = float(np.max(np.abs(low.real) / np.abs(low.imag)))
        rows.append(row)

    ratios = [r["ratio_gamma_over_e"] for r in rows]
    if ratios[-1] is None:
        condensation = False
        note = "no condensation: no oscillating modes at the smallest level"
    else:
        condensation = bool(ratios[-1] < 0.05)
        note = (
            "slow modes condense onto the imaginary axis"
            if condensation else "no condensation at the smallest level"
        )
    return {"rows": rows, "condensation": condensation, "note": note}


_TASK_FNS = {
    "spectrum": _task_spectrum,
    "classify": _task_classify,
    "witten": _task_witten,
    "stationary": _task_stationary,
    "morse": _task_morse,
    "simulate": _task_simulate,
    "sweep": _task_sweep,
}
TASKS = tuple(_TASK_FNS)


# ----------------------------------------------------------------------
# run driver
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReportDocument:
    data: Dict
    out_dir: Path

    @property
    def path(self) -> Path:
        return self.out_dir / "report.json"


def run(config: RunConfig, out_dir=None) -> ReportDocument:
    """Execute the configured tasks in declared order, then write their files.

    Every task runs and ``report.json`` (byte-stable) is formatted before the
    output directory is made, so a run that raises writes no file and leaves
    an existing output directory as it was.  Then the CSVs, the report and the
    wall-clock ``timings.json`` sidecar are written.  The report lists each
    distinct warning once.
    """
    model = _resolve_model(config)
    state = _Levels(model, config.backend, config)

    results: Dict[str, Dict] = {}
    files: Dict = {}  # file name -> writer taking the file's path
    timings: Dict[str, float] = {}
    t_all = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for task in config.tasks:
            t0 = time.perf_counter()
            try:
                results[task] = _TASK_FNS[task](state, files)
            except MemoryError as exc:  # an assembly or a solve too large for this machine
                raise CapacityError(f"cannot allocate the arrays of task {task!r}: {exc}") from exc
            timings[task] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_all

    data = {
        "config": config.raw,
        "model": {"name": model.name, "params": model.params},
        "results": results,
        "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
        "versions": {"package": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    text = canonical_json(data)
    files["report.json"] = lambda path: path.write_text(text, encoding="utf-8")

    out = Path(out_dir if out_dir is not None else (config.out_dir or "."))
    t0 = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        try:
            write(out / name)
        except MemoryError as exc:  # a CSV too large to format on this machine
            raise CapacityError(f"cannot allocate the rows of {name!r}: {exc}") from exc
    timings["write"] = time.perf_counter() - t0
    (out / "timings.json").write_text(json.dumps(
        {k: round(v, 6) for k, v in timings.items()}, indent=2, sort_keys=True) + "\n")
    return ReportDocument(data, out)
