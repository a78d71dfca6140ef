"""Model library: registry, closed-form spectra, cross-backend agreement."""

import csv

import numpy as np
import pytest

import flowspec as fs


def csort(values):
    """Sort eigenvalues with real parts merged at roundoff, then imag."""
    z = np.asarray(values, dtype=complex)
    return np.array(sorted(z, key=lambda v: (round(v.real, 9), v.imag)))


def test_registry_listing_and_errors():
    names = fs.list_models()
    assert names == (
        "constant_drive_circle",
        "langevin_double_well_circle",
        "tilted_langevin_circle",
        "torus_shear_model",
    )
    with pytest.raises(fs.UnknownModelError, match="available"):
        fs.build_model("harmonic_oscillator", {})
    with pytest.raises(fs.ValidationError):
        fs.build_model("constant_drive_circle", {"a": 1.0, "bogus": 2})
    with pytest.raises(fs.InvalidResolutionError):
        fs.build_model("constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 4})


def test_constant_drive_difference_symbol():
    n, a, eps = 32, 1.0, 0.2
    model = fs.build_model("constant_drive_circle", {"a": a, "epsilon": eps, "n": n})
    h = 2 * np.pi / n
    theta = 2 * np.pi * np.arange(n) / n
    want = eps * (1 - np.cos(theta)) / h**2 - 1j * a * np.sin(theta) / h
    got = model.oracle("fd", 0)
    np.testing.assert_allclose(csort(got), csort(want), rtol=1e-13)

    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, "fd")
    report = fs.full_spectrum(op)
    resid = fs.oracle_spectrum_residual(model, report, "fd")
    assert resid < 1e-12


def test_constant_drive_fourier_symbol_drops_nyquist_drift():
    n, a, eps = 16, 1.3, 0.25
    model = fs.build_model("constant_drive_circle", {"a": a, "epsilon": eps, "n": n})
    got = model.oracle("fourier", 0)
    k = np.rint(np.fft.fftfreq(n) * n).astype(int)
    want = eps * k.astype(float) ** 2 / 2 - 1j * a * k
    want[np.abs(k) == n // 2] = eps * (n // 2) ** 2 / 2  # unpaired mode: no drift
    np.testing.assert_allclose(csort(got), csort(want), rtol=1e-13)

    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, "fourier")
    report = fs.full_spectrum(op)
    assert fs.oracle_spectrum_residual(model, report, "fourier") < 1e-12


def test_constant_drive_degree_one_shares_the_symbol():
    model = fs.build_model("constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 16})
    s0 = model.oracle("fd", 0)
    s1 = model.oracle("fd", 1)
    np.testing.assert_array_equal(csort(s0), csort(s1))


def _run_results(tmp_path, name, params, tasks):
    cfg = fs.RunConfig.from_dict({"model": {"name": name, "params": params},
                                  "tasks": tasks})
    return fs.run(cfg, out_dir=tmp_path).data["results"]


def test_double_well_oracle_properties(tmp_path):
    params = {"depth": 1.0, "epsilon": 0.2, "n": 64}
    model = fs.build_model("langevin_double_well_circle", params)
    assert model.flow.langevin and model.oracle is None
    phi = np.asarray(model.mesh.vertices)
    np.testing.assert_allclose(model.flow.w, 1.0 * np.cos(2 * phi), rtol=1e-14)
    # normalizable stationary density, shaped e^{-2W}
    dens = model.density(phi)
    np.testing.assert_allclose(dens, np.exp(-2.0 * np.cos(2 * phi)), rtol=1e-14)

    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    lam = fs.full_spectrum(op).eigenvalues()
    assert np.max(np.abs(lam.imag)) <= 1e-9 * np.max(np.abs(lam))

    # what a run reports: the verdict, the index, the zero modes, a real spectrum
    r = _run_results(tmp_path, "langevin_double_well_circle", params,
                     ["spectrum", "classify", "witten"])
    assert r["classify"]["verdict"] == "unbroken-Markovian"
    assert r["witten"]["witten_index"] == 0
    assert r["witten"]["zero_modes_per_degree"] == [1, 1]
    with open(tmp_path / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 128 and all(float(row["e"]) == 0.0 for row in rows)


def test_constant_drive_without_noise_is_q_broken(tmp_path):
    # at epsilon = 0 the grid's highest mode joins the kernel of each degree
    r = _run_results(tmp_path, "constant_drive_circle",
                     {"a": 1.0, "epsilon": 0.0, "n": 16}, ["classify", "witten"])
    assert r["classify"]["verdict"] == "Q-broken"
    assert r["witten"]["zero_modes_per_degree"] == [2, 2]
    assert r["witten"]["witten_index"] == 0


def test_double_well_parameter_validation():
    with pytest.raises(fs.ValidationError):
        fs.build_model("langevin_double_well_circle",
                       {"depth": -1.0, "epsilon": 0.2, "n": 64})
    with pytest.raises(fs.InvalidNoiseError):
        fs.build_model("langevin_double_well_circle",
                       {"depth": 1.0, "epsilon": 0.0, "n": 64})


def test_tilted_model_limits():
    # tilt -> 0 reduces to the gradient model, depth -> 0 to the constant drive
    base = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.2, "n": 32}
    )
    t0 = fs.build_model(
        "tilted_langevin_circle",
        {"depth": 1.0, "tilt": 0.0, "epsilon": 0.2, "n": 32},
    )
    np.testing.assert_array_equal(t0.flow.vertex_values, base.flow.vertex_values)
    assert not t0.flow.langevin  # the declaration is dropped even at zero tilt

    drive = fs.build_model(
        "constant_drive_circle", {"a": 0.7, "epsilon": 0.2, "n": 32}
    )
    d0 = fs.build_model(
        "tilted_langevin_circle",
        {"depth": 0.0, "tilt": 0.7, "epsilon": 0.2, "n": 32},
    )
    np.testing.assert_array_equal(d0.flow.vertex_values, drive.flow.vertex_values)


def test_tilted_model_is_washboard_unbroken():
    model = fs.build_model(
        "tilted_langevin_circle",
        {"depth": 1.0, "tilt": 3.0, "epsilon": 0.2, "n": 64},
    )
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    report = fs.full_spectrum(op)
    # decay rates stay non-negative and the verdict stays unbroken
    assert report.eigenvalues().real.min() > -1e-8 * report.spectral_radius
    assert fs.classify_phase(report).verdict == "unbroken-Markovian"


def test_torus_shear_symbol_and_degeneracy():
    n, ax, ay, eps = 6, 1.0, np.sqrt(2.0), 0.2
    model = fs.build_model(
        "torus_shear_model", {"ax": ax, "ay": ay, "epsilon": eps, "n": n}
    )
    s0 = model.oracle("fd", 0)
    s1 = model.oracle("fd", 1)
    s2 = model.oracle("fd", 2)
    assert len(s0) == 36 and len(s1) == 72 and len(s2) == 36
    np.testing.assert_array_equal(s1, np.concatenate([s0, s0]))
    np.testing.assert_array_equal(s2, s0)

    for backend, tol in (("fd", 1e-12), ("fourier", 1e-12)):
        op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
        report = fs.full_spectrum(op)
        assert fs.oracle_spectrum_residual(model, report, backend) < tol


def test_rebuild_at_changes_only_the_noise():
    model = fs.build_model("constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 16})
    again = model.rebuild_at(0.05)
    assert again.noise.epsilon == 0.05
    assert again.params["a"] == 1.0
    assert again.mesh.cell_counts == model.mesh.cell_counts


def test_rebuild_at_an_inline_model():
    from dataclasses import replace

    from flowspec.reporting import _build_inline

    mesh = {"kind": "circle", "n": 16}
    phis = np.asarray(fs.build_circle_grid(16, 2 * np.pi).vertices).reshape(-1)
    grad = _build_inline({"mesh": mesh, "flow": {"potential": np.cos(2 * phis).tolist()},
                          "epsilon": 0.2})
    again = grad.rebuild_at(0.05)
    assert again.noise.epsilon == 0.05
    assert again.mesh is grad.mesh and again.params == grad.params
    np.testing.assert_array_equal(again.flow.w, grad.flow.w)
    # gradient samples carry one factor of eps: resampled from w
    fresh = fs.langevin_flow(grad.mesh, grad.flow.w, fs.NoiseSpec(0.05))
    np.testing.assert_array_equal(again.flow.edge_vectors, fresh.edge_vectors)
    np.testing.assert_array_equal(again.flow.vertex_values, fresh.vertex_values)
    assert not np.array_equal(again.flow.edge_vectors, grad.flow.edge_vectors)
    assert grad.rebuild_at(0.2) is grad
    # at eps = 0 the samples vanish: a gradient flow refuses the level
    with pytest.raises(fs.InvalidNoiseError, match="gradient flow"):
        grad.rebuild_at(0.0)

    drive = _build_inline({"mesh": mesh, "flow": {"constant": 1.0}, "epsilon": 0.2})
    assert drive.rebuild_at(0.05).flow is drive.flow
    assert drive.rebuild_at(0.0).noise.is_deterministic
    # registration is read from the registry, not from the name "inline"
    named = replace(drive, name="my_drive")
    assert named.rebuild_at(0.05).flow is drive.flow


def test_oracle_residual_none_without_spectrum_oracle():
    model = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.2, "n": 32}
    )
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    report = fs.full_spectrum(op)
    assert fs.oracle_spectrum_residual(model, report, "fd") is None
