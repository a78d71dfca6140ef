"""End-to-end acceptance checks, one test per contract item."""

import time

import numpy as np
import pytest

import flowspec as fs
from flowspec.hamiltonian import _symmetric_form


def test_acceptance_01_fourier_reproduces_constant_drive_symbols():
    # constant drive a=1, eps=0.2, n=64: every retained mode matches the
    # closed-form symbol to 1e-10 relative, well inside the time budget
    t0 = time.perf_counter()
    model = fs.build_model(
        "constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 64}
    )
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, "fourier")
    report = fs.full_spectrum(op)
    resid = fs.oracle_spectrum_residual(model, report, "fourier")
    elapsed = time.perf_counter() - t0
    assert resid < 1e-10
    assert elapsed < 5.0


def test_acceptance_02_noise_sweep_ratio_and_verdicts():
    # attenuation-to-oscillation ratio of the slowest modes is eps/(2a)
    # at every level; the phase stays unbroken throughout
    a = 1.0
    model = fs.build_model(
        "constant_drive_circle", {"a": a, "epsilon": 0.4, "n": 64}
    )
    eps = [0.4, 0.2, 0.1, 0.05]
    out = fs.sweep_epsilon(model, eps, backend="fourier")
    ratios = [row["ratio_gamma_over_e"] for row in out["rows"]]
    np.testing.assert_allclose(ratios, [e / (2 * a) for e in eps], rtol=1e-8)
    assert all(x > y for x, y in zip(ratios, ratios[1:]))
    assert all(row["verdict"] == "unbroken-Markovian" for row in out["rows"])
    assert out["condensation"] is True  # 0.025 at the smallest level


def test_acceptance_03_index_equals_euler_characteristic_and_zero_counts():
    # circle: chi = 0 with one zero mode at each degree
    dw = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.2, "n": 64}
    )
    rep = fs.full_spectrum(fs.assemble_hamiltonian(dw.mesh, dw.flow, dw.noise))
    assert fs.zero_mode_counts(rep) == (1, 1)
    assert fs.witten_index(rep) == 0 == dw.mesh.euler_characteristic()

    # torus: chi = 0 with the harmonic pair in the middle degree
    ts = fs.build_model(
        "torus_shear_model",
        {"ax": 1.0, "ay": np.sqrt(2.0), "epsilon": 0.2, "n": 6},
    )
    rep = fs.full_spectrum(fs.assemble_hamiltonian(ts.mesh, ts.flow, ts.noise))
    assert fs.zero_mode_counts(rep) == (1, 2, 1)
    assert fs.witten_index(rep) == 0 == ts.mesh.euler_characteristic()

    # sphere: chi = 2, pure diffusion
    sph = fs.icosphere(1)
    op = fs.assemble_hamiltonian(sph, fs.zero_flow(sph), fs.NoiseSpec(1.0))
    rep = fs.full_spectrum(op)
    assert fs.zero_mode_counts(rep) == (1, 0, 1)
    assert fs.witten_index(rep) == 2 == sph.euler_characteristic()


def test_acceptance_04_gradient_flow_symmetrization_and_density():
    n, eps = 64, 0.2
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    w = 1.0 * np.cos(2 * np.asarray(mesh.vertices))
    flow = fs.langevin_flow(mesh, w, fs.NoiseSpec(eps))
    h = fs.assemble_hamiltonian(mesh, flow, fs.NoiseSpec(eps))
    for k in h.degrees():
        assert _symmetric_form(mesh, w, k, h.block(k))[2] < 1e-10

    rep = fs.full_spectrum(h)
    lam = rep.eigenvalues()
    assert np.max(np.abs(lam.imag)) <= 1e-9 * rep.spectral_radius

    # top-degree stationary mode equals the endpoint-averaged e^{-2W}
    vec = np.real_if_close(rep.right[1][:, np.argmin(np.abs(rep.eigenvalues(1)))])
    g = np.exp(-2 * w)
    want = 0.5 * (g[mesh.edges[:, 0]] + g[mesh.edges[:, 1]])
    vec = vec / vec[np.argmax(np.abs(vec))]
    want = want / want[np.argmax(np.abs(vec))]
    assert np.max(np.abs(vec - want)) / np.max(np.abs(want)) <= 1e-6


def test_acceptance_05_randomized_structural_invariants():
    rng = np.random.default_rng(20240817)
    cases = []
    cmesh = fs.build_circle_grid(32, 2 * np.pi)
    for _ in range(10):
        cases.append((cmesh, fs.flow_from_vertex_samples(
            cmesh, rng.standard_normal(32))))
    tmesh = fs.build_torus_grid(6, 6, 2 * np.pi, 2 * np.pi)
    for _ in range(10):
        cases.append((tmesh, fs.flow_from_vertex_samples(
            tmesh, rng.standard_normal((36, 2)))))

    noise = fs.NoiseSpec(0.3)
    for mesh, flow in cases:
        dim = mesh.dimension
        d = [fs.exterior_derivative(mesh, k) for k in range(dim)]
        for k in range(dim - 1):
            assert np.max(np.abs(d[k + 1] @ d[k])) == 0.0

        h = fs.assemble_hamiltonian(mesh, flow, noise)
        # conjugate charge Qbar_k = d†_k - 2 iota_A(k), k = 1..D
        qbar = {k: fs.codifferential(mesh, k, noise) - 2 * fs.interior_product(mesh, flow, k)
                for k in range(1, dim + 1)}
        scale = max(np.max(np.abs(h.block(k))) for k in range(dim + 1))
        for k in range(dim + 1):
            alt = np.zeros_like(h.block(k))
            if k >= 1:
                alt += 0.5 * (d[k - 1] @ qbar[k])
            if k < dim:
                alt += 0.5 * (qbar[k + 1] @ d[k])
            assert np.max(np.abs(alt - h.block(k))) < 1e-11 * scale

        assert h.intertwining_residual() < 1e-11

        rep = fs.full_spectrum(h)
        # a real operator's spectrum is closed under conjugation, degree by degree
        for k in range(dim + 1):
            vals = rep.eigenvalues(k)
            gaps = np.abs(vals[:, None] - np.conj(vals)[None, :])
            assert gaps.min(axis=1).max() < 1e-10
        pairing = fs.susy_pairing_check(rep, tol=1e-8)
        assert pairing.unpaired == ()
        if dim == 1:
            assert pairing.multiset_equal is True


def test_acceptance_06_synthetic_verdicts_and_scale_invariance():
    unbroken = fs.synthetic_spectrum([0.0, 0.5 + 0.3j, 0.5 - 0.3j, 1.2])
    assert fs.classify_phase(unbroken).verdict == "unbroken-Markovian"
    broken = fs.synthetic_spectrum([0.0, 0.7j, -0.7j, 0.4])
    assert fs.classify_phase(broken).verdict == "Q-broken"

    rng = np.random.default_rng(61)
    for _ in range(100):
        vals = [0.0]
        for _ in range(rng.integers(2, 8)):
            z = complex(rng.uniform(0, 2), rng.uniform(-2, 2))
            vals.append(z)
            if rng.random() < 0.5:
                vals.append(z.conjugate())
        base_verdict = fs.classify_phase(fs.synthetic_spectrum(vals)).verdict
        s = 10.0 ** rng.uniform(-8, 8)
        scaled = fs.classify_phase(
            fs.synthetic_spectrum([v * s for v in vals])
        ).verdict
        assert scaled == base_verdict


def test_acceptance_07_signed_zero_counts_and_tunneling_gap():
    # circle: signed zeros of A = sin(phi) sum to chi = 0, matching the
    # index of the gradient model with the same zeros (W = -cos)
    n = 64
    cmesh = fs.build_circle_grid(n, 2 * np.pi)
    phi = np.asarray(cmesh.vertices)
    pts = fs.find_critical_points(
        cmesh, fs.flow_from_vertex_samples(cmesh, np.sin(phi))
    )
    ph_circle = fs.poincare_hopf_sum(pts)
    assert ph_circle == 0
    noise = fs.NoiseSpec(0.2)
    grad = fs.langevin_flow(cmesh, -np.cos(phi), noise)
    rep = fs.full_spectrum(fs.assemble_hamiltonian(cmesh, grad, noise))
    assert fs.witten_index(rep) == ph_circle

    # torus: gradient of cos(x) + cos(y), four hyperbolic zeros
    tmesh = fs.build_torus_grid(16, 16, 2 * np.pi, 2 * np.pi)
    xy = np.asarray(tmesh.vertices)
    wt = np.cos(xy[:, 0]) + np.cos(xy[:, 1])
    tgrad = fs.langevin_flow(tmesh, wt, fs.NoiseSpec(0.3))
    tpts = fs.find_critical_points(tmesh, tgrad)
    assert len(tpts) == 4
    ph_torus = fs.poincare_hopf_sum(tpts)
    assert ph_torus == 0
    trep = fs.full_spectrum(
        fs.assemble_hamiltonian(tmesh, tgrad, fs.NoiseSpec(0.3))
    )
    assert fs.zero_mode_counts(trep) == (1, 2, 1)
    assert fs.witten_index(trep) == ph_torus

    # tunneling gap of the double well shrinks monotonically with the
    # noise and its log stays convex in 1/eps
    model = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.4, "n": 64}
    )
    scan = fs.instanton_splitting_scan(model, [0.4, 0.2, 0.1])
    assert scan.strictly_decreasing
    assert scan.convex_log_trend
    for s, f in zip(scan.splittings, scan.first_nontunneling):
        assert s < f


def test_acceptance_08_monte_carlo_consistency():
    t0 = time.perf_counter()
    # occupation histogram vs the closed-form stationary density
    dw = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.4, "n": 64}
    )
    ens = fs.simulate_sde(dw, dt=0.004, steps=4000, n_paths=5000, seed=7)
    hist = fs.stationary_histogram(ens, bins=64)
    assert hist.n_samples >= 10_000_000
    tv = fs.tv_distance_to_density(hist, dw.density)
    assert tv < 0.05

    # constant drive: decay rate eps/2 and rotation frequency a from the
    # first-harmonic autocovariance, both within 15%
    drive = fs.build_model(
        "constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 64}
    )
    dens = fs.simulate_sde(drive, dt=0.01, steps=60_000, n_paths=400, seed=3,
                           store_every=5)
    fit = fs.autocorrelation_decay(dens, burn_in_fraction=0.2)
    assert abs(fit.rate - 0.1) <= 0.15 * 0.1
    assert abs(fit.frequency - 1.0) <= 0.15 * 1.0

    # equal seeds reproduce the stream bit for bit
    r1 = fs.simulate_sde(drive, dt=0.01, steps=500, n_paths=64, seed=5)
    r2 = fs.simulate_sde(drive, dt=0.01, steps=500, n_paths=64, seed=5)
    np.testing.assert_array_equal(r1.positions, r2.positions)
    np.testing.assert_array_equal(r1.windings, r2.windings)

    assert time.perf_counter() - t0 < 60.0


# every public name is reached by a run, is an oracle a test names, or is
# named by the benchmark; a new or lost name shows up as a diff here
PUBLIC_NAMES = [
    "CapacityError", "CriticalPoint", "DecayFit", "DegreeError",
    "DeterministicLimitError", "EigensolverError", "FlowField", "FlowspecError",
    "GapAmbiguityWarning", "GeometryWarning", "GradedOperator", "HistogramResult",
    "IndeterminateIndexError", "InsufficientSamplesError", "InvalidNoiseError",
    "InvalidResolutionError", "MeshComplex", "ModelSpec",
    "NoInstantonError", "NoiseSpec", "NotPotentialError", "NumericalError",
    "OneLoopState", "PairingReport", "PhaseClassification", "ReportDocument",
    "ResolutionWarning", "RunConfig", "SpectrumReport", "SplittingScan",
    "StabilityWarning", "TopologyError", "TrajectoryEnsemble", "UnfittableDecayError",
    "UnknownModelError", "UnsupportedMeshError", "ValidationError",
    "assemble_hamiltonian", "autocorrelation_decay", "build_circle_grid", "build_model",
    "build_torus_grid", "build_triangulated_surface", "canonical_json", "classify_phase",
    "codifferential", "constant_drive_circle", "conventional_fp_operator",
    "eigenvalue_spectrum", "export_spectrum_csv", "exterior_derivative",
    "find_critical_points", "flow_from_vertex_samples", "format_float", "full_spectrum",
    "hodge_star", "icosahedron", "icosphere", "inner_product_matrix",
    "instanton_splitting_scan", "interior_product", "langevin_double_well_circle",
    "langevin_flow", "lie_derivative", "list_models", "load_off", "normalize_backend",
    "one_loop_ground_state", "oracle_spectrum_residual", "poincare_hopf_sum", "run",
    "simulate_sde", "stationary_histogram", "susy_pairing_check", "sweep_epsilon",
    "synthetic_spectrum", "tilted_langevin_circle", "torus_shear_model",
    "tv_distance_to_density", "with_tilt", "witten_index", "zero_flow",
    "zero_mode_counts",
]


def test_public_surface_is_the_audited_list():
    assert sorted(fs.__all__) == PUBLIC_NAMES
