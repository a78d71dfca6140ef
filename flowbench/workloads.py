"""Workload definitions, per-operation correctness checks and the layer map.

Every workload is one ``flowspec.reporting.run`` config.  The seed draws the
model parameters from fixed ranges (and, for the SDE, the sampler seed);
problem sizes never depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

# Both noise scans use the same descending levels.
SCAN_EPSILONS = [0.4, 0.2, 0.1, 0.05]

# The SDE sampler keeps steps // store_every + 1 states per path and the
# histogram drops the first 20 % of them (trajectories._BURN_IN_FRACTION).
SDE_STEPS = 4000
SDE_PATHS = 2000
SDE_BURN_IN = 0.2
SDE_TV_LIMIT = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # parameter name -> (low, high) of the uniform draw
    ranges: Dict[str, Tuple[float, float]]
    build: Callable[[Dict[str, float], int], Dict]
    check: Callable[[Dict], List[str]]

    def params(self, seed: int) -> Dict[str, float]:
        rng = np.random.default_rng(seed)
        return {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in sorted(self.ranges.items())}

    def config(self, seed: int) -> Dict:
        return self.build(self.params(seed), seed)


def _expect(problems: List[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ----------------------------------------------------------------------
# spectrum_torus
# ----------------------------------------------------------------------

def _torus_config(p: Dict[str, float], seed: int) -> Dict:
    return {
        "model": {"name": "torus_shear_model",
                  "params": {"ax": p["ax"], "ay": p["ay"], "epsilon": 0.3, "n": 24}},
        "backend": "fd",
        "tasks": ["spectrum", "classify", "witten", "stationary"],
    }


def _torus_check(report: Dict) -> List[str]:
    r = report["results"]
    problems: List[str] = []
    _expect(problems, r["spectrum"].get("oracle_satisfied") is True,
            "spectrum: oracle not satisfied")
    _expect(problems, r["classify"]["verdict"] == "unbroken-Markovian",
            f"classify: verdict {r['classify']['verdict']!r}")
    _expect(problems, r["witten"]["witten_index"] == 0 == r["witten"]["euler_characteristic"],
            f"witten: index {r['witten']['witten_index']} != chi 0")
    _expect(problems, list(r["witten"]["zero_modes_per_degree"]) == [1, 2, 1],
            f"witten: zero modes {r['witten']['zero_modes_per_degree']}")
    return problems


# ----------------------------------------------------------------------
# verdict_sweep
# ----------------------------------------------------------------------

def _sweep_config(p: Dict[str, float], seed: int) -> Dict:
    return {
        "model": {"name": "langevin_double_well_circle",
                  "params": {"depth": p["depth"], "epsilon": 0.2, "n": 384}},
        "backend": "fd",
        "tasks": ["classify", "witten", "morse", "sweep"],
        "sweep": {"epsilons": list(SCAN_EPSILONS)},
        "morse": {"splitting_epsilons": list(SCAN_EPSILONS)},
    }


def _sweep_check(report: Dict) -> List[str]:
    r = report["results"]
    problems: List[str] = []
    _expect(problems, r["classify"]["verdict"] == "unbroken-Markovian",
            f"classify: verdict {r['classify']['verdict']!r}")
    rows = r["sweep"]["rows"]
    _expect(problems, [row["epsilon"] for row in rows] == SCAN_EPSILONS,
            "sweep: wrong noise levels")
    for row in rows:
        _expect(problems, row["verdict"] == "unbroken-Markovian" and row["witten_index"] == 0,
                f"sweep: eps={row['epsilon']} verdict {row['verdict']!r} "
                f"index {row['witten_index']}")
    _expect(problems, list(r["witten"]["zero_modes_per_degree"]) == [1, 1],
            f"witten: zero modes {r['witten']['zero_modes_per_degree']}")
    morse = r["morse"]
    _expect(problems, morse["poincare_hopf_sum"] == 0,
            f"morse: Poincare-Hopf sum {morse['poincare_hopf_sum']}")
    _expect(problems, morse.get("matches_witten_index") is True,
            "morse: Poincare-Hopf sum does not match the Witten index")
    scan = morse["splitting_scan"]
    _expect(problems, scan["strictly_decreasing"] is True,
            f"morse: splittings not strictly decreasing {scan['splittings']}")
    _expect(problems, scan["n_minima"] == 2, f"morse: n_minima {scan['n_minima']}")
    return problems


# ----------------------------------------------------------------------
# sde_double_well
# ----------------------------------------------------------------------

def _sde_config(p: Dict[str, float], seed: int) -> Dict:
    return {
        "model": {"name": "langevin_double_well_circle",
                  "params": {"depth": p["depth"], "epsilon": 0.2, "n": 256}},
        "backend": "fd",
        "tasks": ["simulate"],
        "simulate": {"dt": 0.004, "steps": SDE_STEPS, "n_paths": SDE_PATHS,
                     "seed": int(seed), "store_every": 1, "bins": 64,
                     "autocorrelation": True},
    }


def sde_expected_samples() -> int:
    stored = SDE_STEPS + 1
    return SDE_PATHS * (stored - math.ceil(SDE_BURN_IN * stored))


def _sde_check(report: Dict) -> List[str]:
    sim = report["results"]["simulate"]
    problems: List[str] = []
    tv = sim["histogram"]["tv_distance_to_oracle"]
    _expect(problems, tv <= SDE_TV_LIMIT, f"simulate: TV distance {tv} > {SDE_TV_LIMIT}")
    _expect(problems, sim["autocorrelation"]["rate"] > 0,
            f"simulate: autocorrelation rate {sim['autocorrelation']['rate']}")
    _expect(problems, sim["histogram"]["n_samples"] == sde_expected_samples(),
            f"simulate: {sim['histogram']['n_samples']} samples, expected "
            f"{sde_expected_samples()}")
    return problems


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "spectrum_torus",
        "full two-sided torus analysis (n=24 fd, 576/1152/576 blocks) whose eigenvectors "
        "stationary reads: dense eig, bi-orthonormalization, fd assembly and the matchers",
        {"ax": (0.5, 1.5), "ay": (0.25, 0.75)},
        _torus_config, _torus_check,
    ),
    Workload(
        "verdict_sweep",
        "verdict-only double well (n=384): 5 two-sided solves and 4 eigvals scans, no "
        "eigenvector read, so vectors-free or shift-invert solves move it and not the torus",
        {"depth": (0.8, 1.2)},
        _sweep_config, _sweep_check,
    ),
    Workload(
        "sde_double_well",
        "2000 paths x 4000 steps of Euler-Maruyama with histogram and autocorrelation: "
        "only the trajectories layer works, so operator changes must leave it unchanged",
        {"depth": (0.8, 1.2)},
        _sde_config, _sde_check,
    ),
)}

OPERATOR_WORKLOADS = ("spectrum_torus", "verdict_sweep")
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Layer:
    unit: str
    better: str
    # workloads on which the metric is measured; elsewhere it reads 0
    workloads: Tuple[str, ...]
    # end-to-end metric -> workloads on which a change to this layer should move it
    moves: Dict[str, Tuple[str, ...]]


_S, _LOW, _HIGH = "s", "lower", "higher"

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  A metric whose ``moves`` is empty is recorded for diagnosis only.
LAYERS: Dict[str, Layer] = {
    "models.build_model_s": Layer(_S, _LOW, ALL, {"setup_s": ALL}),
    "operators.exterior_derivative_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                             {"run_s": ("spectrum_torus",)}),
    "operators.codifferential_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                        {"run_s": ("spectrum_torus",)}),
    "operators.interior_product_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                          {"run_s": ("spectrum_torus",)}),
    "operators.lie_derivative_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                        {"run_s": ("spectrum_torus",)}),
    "hamiltonian.assemble_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                    {"run_s": OPERATOR_WORKLOADS,
                                     "peak_mem_mb": ("spectrum_torus",)}),
    "hamiltonian.assemble_calls": Layer("count", _LOW, OPERATOR_WORKLOADS,
                                        {"run_s": ("verdict_sweep",)}),
    "hamiltonian.block_nnz": Layer("count", _LOW, OPERATOR_WORKLOADS, {}),
    "hamiltonian.block_dense_mb": Layer("MB", _LOW, OPERATOR_WORKLOADS,
                                        {"peak_mem_mb": ("spectrum_torus",)}),
    "spectral.full_spectrum_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                      {"run_s": OPERATOR_WORKLOADS}),
    "spectral.full_spectrum_calls": Layer("count", _LOW, OPERATOR_WORKLOADS,
                                          {"run_s": ("verdict_sweep",)}),
    "spectral.lapack_eig_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                   {"run_s": OPERATOR_WORKLOADS}),
    "spectral.lapack_eigvals_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                       {"run_s": ("verdict_sweep",)}),
    "spectral.biorth_pack_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                    {"run_s": OPERATOR_WORKLOADS}),
    "spectral.eig_ops_computed": Layer("count", _LOW, OPERATOR_WORKLOADS, {}),
    "spectral.verdict_s": Layer(_S, _LOW, OPERATOR_WORKLOADS,
                                {"run_s": OPERATOR_WORKLOADS}),
    "spectral.export_csv_s": Layer(_S, _LOW, ("spectrum_torus",),
                                   {"run_s": ("spectrum_torus",)}),
    "models.oracle_residual_s": Layer(_S, _LOW, ("spectrum_torus",),
                                      {"run_s": ("spectrum_torus",)}),
    "spectral.full_spectrum.peak_mb": Layer("MB", _LOW, ("spectrum_torus",),
                                            {"peak_mem_mb": ("spectrum_torus",)}),
    "spectral.report_held_mb": Layer("MB", _LOW, ("spectrum_torus",),
                                     {"peak_mem_mb": ("spectrum_torus",)}),
    "morse.find_critical_points_s": Layer(_S, _LOW, ("verdict_sweep",),
                                          {"run_s": ("verdict_sweep",)}),
    "morse.splitting_scan_s": Layer(_S, _LOW, ("verdict_sweep",),
                                    {"run_s": ("verdict_sweep",)}),
    "reporting.sweep_epsilon_s": Layer(_S, _LOW, ("verdict_sweep",),
                                       {"run_s": ("verdict_sweep",)}),
    "reporting.sweep.assemble_s": Layer(_S, _LOW, ("verdict_sweep",),
                                        {"run_s": ("verdict_sweep",)}),
    "reporting.sweep.full_spectrum_s": Layer(_S, _LOW, ("verdict_sweep",),
                                             {"run_s": ("verdict_sweep",)}),
    "trajectories.simulate_sde_s": Layer(_S, _LOW, ("sde_double_well",),
                                         {"run_s": ("sde_double_well",)}),
    "trajectories.path_steps_per_s": Layer("1/s", _HIGH, ("sde_double_well",),
                                           {"run_s": ("sde_double_well",)}),
    "trajectories.stored_mb_computed": Layer("MB", _LOW, ("sde_double_well",),
                                             {"peak_mem_mb": ("sde_double_well",)}),
    "models.drift_eval_s": Layer(_S, _LOW, ("sde_double_well",),
                                 {"run_s": ("sde_double_well",)}),
    "trajectories.stationary_histogram_s": Layer(_S, _LOW, ("sde_double_well",),
                                                 {"run_s": ("sde_double_well",)}),
    "trajectories.tv_distance_s": Layer(_S, _LOW, ("sde_double_well",),
                                        {"run_s": ("sde_double_well",)}),
    "trajectories.autocorrelation_decay_s": Layer(_S, _LOW, ("sde_double_well",),
                                                  {"run_s": ("sde_double_well",)}),
    "trajectories.simulate_sde.peak_mb": Layer("MB", _LOW, ("sde_double_well",),
                                               {"peak_mem_mb": ("sde_double_well",)}),
    "trajectories.autocorrelation_decay.peak_mb": Layer("MB", _LOW, ("sde_double_well",),
                                                        {"peak_mem_mb": ("sde_double_well",)}),
    "reporting.canonical_json_s": Layer(_S, _LOW, ALL, {"run_s": ALL}),
    "reporting.first_run_s": Layer(_S, _LOW, ALL, {"run_s": ALL}),
    "reporting.run_traced_s": Layer(_S, _LOW, ALL, {}),
    "reporting.run_untraced_s": Layer(_S, _LOW, ALL, {"run_s": ALL}),
    "reporting.trace_coverage": Layer("ratio", _HIGH, ALL, {}),
    "spectral.biorth_residual_max": Layer("ratio", _LOW, ("spectrum_torus",), {}),
}
