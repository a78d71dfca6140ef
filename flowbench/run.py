"""flowspec benchmark: three closed-loop workloads through ``flowspec.reporting.run``.

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 flowbench/run.py --workload all --seed N --seconds S

Run it from a checkout of the repository; it imports flowspec from ``src/``.
One operation is one ``run(RunConfig.from_dict(cfg), out_dir=...)`` call, and
the next starts only after it returns (one client).  Every process first makes
one untimed warm-up run, which pays the first LAPACK call.  Each operation is
checked (``workloads.py``) and its ``report.json`` and CSV files must match the
first run's byte for byte; a raise or a failed check counts as a failed
operation.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median warm run over
``--seconds``), ``setup_s`` (median import + config parse + model build over
fresh interpreters, started between the timed runs) and ``peak_mem_mb`` (tracemalloc peak of the warm-up run,
which is never timed).  ``--trace 1`` reports the per-layer metrics of ``workloads.LAYERS``
from spans around flowspec's public functions (``tracing.py``), with untraced
and traced runs alternating so that the tracing overhead shows, a separate
tracemalloc pass for per-span memory, and re-measured layer calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
REMEASURE_REPEATS = 3

sys.path.insert(0, str(HERE))

from workloads import LAYERS, OPERATOR_WORKLOADS, WORKLOADS, Workload  # noqa: E402

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}
MB = 1e6


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------

def _openblas_libs() -> Dict[str, Dict]:
    """Configuration and thread count of each bundled OpenBLAS, where readable."""
    import numpy
    import scipy

    found = {}
    for mod, pattern, suffix in ((numpy, "numpy.libs/libscipy_openblas*", "64_"),
                                 (scipy, "scipy.libs/libscipy_openblas*", "")):
        for path in glob.glob(os.path.join(os.path.dirname(mod.__file__), os.pardir, pattern)):
            try:
                lib = ctypes.CDLL(path)
                get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
                get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            found[mod.__name__] = {"config": get_config().decode(), "threads": get_threads()}
    return found


def environment() -> Dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libs(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

class Bench:
    """One workload at one seed: runs operations, checks them, counts failures."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.config = workload.config(seed)
        self.out = work / "out"
        self.reference: Optional[Dict[str, bytes]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, tracer=None) -> Tuple[float, Optional[Dict]]:
        """One checked ``run()`` call; returns its wall time and report data."""
        from flowspec.reporting import RunConfig, run

        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        root = tracer.span("reporting.run") if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                doc = run(RunConfig.from_dict(self.config), out_dir=self.out)
        except Exception:  # a raising operation is counted, not fatal
            seconds = time.perf_counter() - t0
            self._fail([traceback.format_exc(limit=4)])
            return seconds, None
        seconds = time.perf_counter() - t0
        problems = self.verify(doc.data)
        if problems:
            self._fail(problems)
            return seconds, None
        return seconds, doc.data

    def verify(self, data: Dict) -> List[str]:
        """Workload checks plus byte equality of every output with the first good run."""
        try:
            problems = self.workload.check(data)
        except (KeyError, TypeError, IndexError) as exc:
            problems = [f"report lacks an expected field: {exc!r}"]
        outputs = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())
                   if p.name != "timings.json"}
        if self.reference is None:
            if not problems:
                self.reference = outputs
        elif outputs != self.reference:
            differ = sorted(n for n in set(outputs) | set(self.reference)
                            if outputs.get(n) != self.reference.get(n))
            problems.append(f"outputs differ from the first run: {differ}")
        return problems

    def _fail(self, problems: List[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def setup_time(self) -> float:
        """Set-up time in a fresh interpreter, started after the previous one ended."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(self.config)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120, cwd=ROOT)
        return float(done.stdout.split()[-1])

    def peak_mb(self) -> float:
        tracemalloc.start()
        try:
            self.op()
            return tracemalloc.get_traced_memory()[1] / MB
        finally:
            tracemalloc.stop()


def loop_for(seconds: float, body: Callable[[int], None]) -> None:
    """Call ``body(i)`` until ``seconds`` have passed, at least once."""
    start = time.perf_counter()
    i = 0
    while True:
        body(i)
        i += 1
        if time.perf_counter() - start >= seconds:
            return


# ----------------------------------------------------------------------
# end-to-end measurement (trace 0)
# ----------------------------------------------------------------------

def measure_end_to_end(bench: Bench, seconds: float) -> Tuple[Dict, Dict]:
    bench.setup_time()  # the first interpreter may compile the sources; dropped
    # The untimed warm-up doubles as the memory pass: it is the run a
    # `flowspec run` user pays for, and tracemalloc never slows a timed run.
    peak = bench.peak_mb()
    runs: List[float] = []
    setup: List[float] = []
    start = time.perf_counter()

    def body(i: int) -> None:
        runs.append(bench.op()[0])
        # Spread the set-up probes over the run, between operations, so that
        # both medians sample the same stretch of machine time.
        due = SETUP_REPEATS * (time.perf_counter() - start) / seconds
        while len(setup) < min(due, SETUP_REPEATS):
            setup.append(bench.setup_time())

    loop_for(seconds, body)
    while len(setup) < SETUP_REPEATS:
        setup.append(bench.setup_time())
    values = {"run_s": statistics.median(runs), "setup_s": statistics.median(setup),
              "peak_mem_mb": peak}
    samples = {"run_s": runs, "setup_s": setup, "peak_mem_mb": [peak]}
    return values, samples


# ----------------------------------------------------------------------
# per-layer measurement (trace 1)
# ----------------------------------------------------------------------

def span_metrics(tracer, root) -> Dict[str, float]:
    t = tracer.total
    return {
        "models.build_model_s": t("models.build_model"),
        "hamiltonian.assemble_s": t("hamiltonian.assemble"),
        "hamiltonian.assemble_calls": tracer.count("hamiltonian.assemble"),
        "spectral.full_spectrum_s": t("spectral.full_spectrum"),
        "spectral.full_spectrum_calls": tracer.count("spectral.full_spectrum"),
        "first_full_spectrum_s": getattr(tracer.first("spectral.full_spectrum"), "seconds", 0.0),
        "spectral.verdict_s": (t("spectral.classify_phase") + t("spectral.witten_index")
                               + t("spectral.zero_mode_counts")),
        "spectral.export_csv_s": t("spectral.export_csv"),
        "models.oracle_residual_s": t("models.oracle_residual"),
        "morse.find_critical_points_s": t("morse.find_critical_points"),
        "morse.splitting_scan_s": t("morse.splitting_scan"),
        "reporting.sweep_epsilon_s": t("reporting.sweep_epsilon"),
        "reporting.sweep.assemble_s": t("hamiltonian.assemble", under="reporting.sweep_epsilon"),
        "reporting.sweep.full_spectrum_s": t("spectral.full_spectrum",
                                             under="reporting.sweep_epsilon"),
        "trajectories.simulate_sde_s": t("trajectories.simulate_sde"),
        "trajectories.stationary_histogram_s": t("trajectories.stationary_histogram"),
        "trajectories.tv_distance_s": t("trajectories.tv_distance"),
        "trajectories.autocorrelation_decay_s": t("trajectories.autocorrelation_decay"),
        "reporting.canonical_json_s": t("reporting.canonical_json"),
        "reporting.run_traced_s": root.seconds,
        "reporting.trace_coverage": tracer.coverage(root),
    }


def memory_metrics(bench: Bench) -> Dict[str, float]:
    from tracing import Tracer, instrument

    tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        with instrument(tracer):
            bench.op(tracer)
    finally:
        tracemalloc.stop()
    out = {}
    for name in ("spectral.full_spectrum", "trajectories.simulate_sde",
                 "trajectories.autocorrelation_decay"):
        sp = tracer.first(name)
        if sp is not None:
            out[name + ".peak_mb"] = sp.peak_mb
    sp = tracer.first("spectral.full_spectrum")
    if sp is not None:
        out["spectral.report_held_mb"] = sp.held_mb
    return out


def _median_time(fn: Callable[[], object], repeats: int = REMEASURE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _dense(block):
    import numpy as np
    import scipy.sparse

    return block.toarray() if scipy.sparse.issparse(block) else np.asarray(block)


def operator_metrics(config: Dict) -> Dict[str, float]:
    """Re-measured operator, assembly-size and LAPACK figures for the run's base model."""
    import numpy as np
    import scipy.linalg
    import scipy.sparse

    from flowspec import (assemble_hamiltonian, build_model, codifferential,
                          exterior_derivative, interior_product, lie_derivative)

    backend = config["backend"]
    m = build_model(config["model"]["name"], config["model"]["params"])
    mesh, flow, noise, dim = m.mesh, m.flow, m.noise, m.mesh.dimension
    out = {
        "operators.exterior_derivative_s": _median_time(
            lambda: [exterior_derivative(mesh, k, backend) for k in range(dim)]),
        "operators.codifferential_s": _median_time(
            lambda: [codifferential(mesh, k, noise, backend) for k in range(1, dim + 1)]),
        "operators.interior_product_s": _median_time(
            lambda: [interior_product(mesh, flow, k, backend) for k in range(1, dim + 1)]),
        "operators.lie_derivative_s": _median_time(
            lambda: [lie_derivative(mesh, flow, k, backend) for k in range(dim + 1)]),
    }
    op = assemble_hamiltonian(mesh, flow, noise, backend=backend)
    blocks = [_dense(b) for b in op.blocks]
    sizes = [b.shape[0] for b in blocks]
    out["hamiltonian.block_nnz"] = sum(
        b.nnz if scipy.sparse.issparse(b) else int(np.count_nonzero(b)) for b in op.blocks)
    out["hamiltonian.block_dense_mb"] = sum(8 * n * n for n in sizes) / MB
    out["spectral.eig_ops_computed"] = sum(n ** 3 for n in sizes)
    out["spectral.lapack_eig_s"] = _median_time(
        lambda: [scipy.linalg.eig(b, left=True, right=True) for b in blocks], 1)
    out["spectral.lapack_eigvals_s"] = _median_time(
        lambda: [scipy.linalg.eigvals(b) for b in blocks], 1)
    return out


def drift_metrics(config: Dict) -> Dict[str, float]:
    """Re-measured drift evaluation (n_paths points, once per step) and SDE sizes."""
    import numpy as np

    from flowspec import build_model

    sim = config["simulate"]
    m = build_model(config["model"]["name"], config["model"]["params"])
    n_paths, steps, dim = sim["n_paths"], sim["steps"], m.mesh.dimension
    x = np.random.default_rng(0).uniform(0.0, float(m.mesh.lengths[0]), n_paths)

    def evaluate():
        for _ in range(steps):
            m.drift(x)

    stored = n_paths * (steps // sim["store_every"] + 1) * dim
    return {
        "models.drift_eval_s": _median_time(evaluate, 1),
        # float64 positions plus int32 winding counts
        "trajectories.stored_mb_computed": stored * (8 + 4) / MB,
    }


def measure_layers(bench: Bench, seconds: float) -> Tuple[Dict, Dict]:
    from tracing import Tracer, instrument

    name = bench.workload.name
    t0 = time.perf_counter()
    bench.op()  # warm-up
    first_run = time.perf_counter() - t0

    untraced: List[float] = []
    traced: List[Dict[str, float]] = []
    last_report: List[Dict] = []

    def body(i: int) -> None:
        if i % 2 == 0:
            untraced.append(bench.op()[0])
            return
        tracer = Tracer()
        with instrument(tracer):
            _, data = bench.op(tracer)
        traced.append(span_metrics(tracer, tracer.first("reporting.run")))
        if data is not None:
            last_report[:] = [data]

    loop_for(seconds, body)
    if not traced:
        body(1)
    values = {k: statistics.median(row[k] for row in traced) for k in traced[0]}
    values["reporting.run_untraced_s"] = statistics.median(untraced)
    values["reporting.first_run_s"] = first_run
    values.update(memory_metrics(bench))

    if name in OPERATOR_WORKLOADS:
        values.update(operator_metrics(bench.config))
        values["spectral.biorth_pack_s"] = (values["first_full_spectrum_s"]
                                            - values["spectral.lapack_eig_s"])
    if "simulate" in bench.config["tasks"]:
        values.update(drift_metrics(bench.config))
        sim = bench.config["simulate"]
        values["trajectories.path_steps_per_s"] = (
            sim["n_paths"] * sim["steps"] / values["trajectories.simulate_sde_s"])
    if last_report:
        spectrum = last_report[0]["results"].get("spectrum", {})
        if "max_biorthogonality_residual" in spectrum:
            values["spectral.biorth_residual_max"] = spectrum["max_biorthogonality_residual"]

    metrics = {k: (float(values.get(k, 0.0)) if name in layer.workloads else 0.0)
               for k, layer in LAYERS.items()}
    samples = {"traced runs": len(traced), "untraced runs": len(untraced)}
    return metrics, samples


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def _quartiles(xs: List[float]) -> str:
    if len(xs) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f", quartiles {q1:.4g}..{q3:.4g}"


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".flowbench-") as work:
        bench = Bench(workload, args.seed, Path(work))
        print(f"workload {workload.name} seed {args.seed}: {workload.params(args.seed)}")
        if args.trace:
            values, samples = measure_layers(bench, args.seconds)
            units = {k: layer.unit for k, layer in LAYERS.items()}
            for k, v in values.items():
                print(f"  {k:45s} {v:.6g} {units[k]}")
            print(f"  samples: {samples}")
        else:
            values, samples = measure_end_to_end(bench, args.seconds)
            units = E2E_UNITS
            for k, v in values.items():
                print(f"  {k:12s} {v:.6g} {units[k]}  (median of {len(samples[k])}"
                      f"{_quartiles(samples[k])})")
        print(f"  fail_ratio   {bench.failed / bench.attempted:.6g}  "
              f"({bench.failed} of {bench.attempted} operations)")
        print("env: " + json.dumps(environment(), sort_keys=True))
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of the end-to-end metrics."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{'workload':16s} {'run_s':>9s} {'setup_s':>9s} {'peak_mem_mb':>12s} {'fail_ratio':>11s}")
    for name, res in results.items():
        m = res["metrics"]
        print(f"{name:16s} {m['run_s']['value']:9.4f} {m['setup_s']['value']:9.4f} "
              f"{m['peak_mem_mb']['value']:12.1f} {res['failed'] / res['attempted']:11.3g}")
    print(json.dumps(results), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flowspec" / "__init__.py").is_file():
        print(f"error: flowspec sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
