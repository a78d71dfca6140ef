"""Calculus blocks: d, the metric adjoint, contraction, Cartan assembly."""

import numpy as np
import pytest

import flowspec as fs

EPS = fs.NoiseSpec(0.3)


def circle(n=16):
    return fs.build_circle_grid(n, 2 * np.pi)


def torus(n=6):
    return fs.build_torus_grid(n, n, 2 * np.pi, 2 * np.pi)


def oblong_torus():
    # unequal counts and lengths, so a rule that swapped its axes shows
    return fs.build_torus_grid(5, 7, 1.0, 2.0)


def test_backend_normalization():
    assert fs.normalize_backend("fd") == "fd"
    assert fs.normalize_backend("finite-difference") == "fd"
    assert fs.normalize_backend("fourier") == "fourier"
    with pytest.raises(ValueError):
        fs.normalize_backend("chebyshev")


def test_exterior_derivative_squares_to_zero():
    mesh = torus(5)
    d0 = fs.exterior_derivative(mesh, 0)
    d1 = fs.exterior_derivative(mesh, 1)
    assert np.max(np.abs(d1 @ d0)) == 0.0
    with pytest.raises(fs.DegreeError):
        fs.exterior_derivative(mesh, 2)


def test_exterior_derivative_identical_across_backends():
    mesh = circle()
    np.testing.assert_array_equal(
        fs.exterior_derivative(mesh, 0, "fd"),
        fs.exterior_derivative(mesh, 0, "fourier"),
    )


def test_circle_d0_is_the_difference_stencil():
    mesh = circle(5)
    d0 = fs.exterior_derivative(mesh, 0)
    f = np.array([1.0, 3.0, -2.0, 0.5, 4.0])
    expect = np.roll(f, -1) - f
    np.testing.assert_array_equal(d0 @ f, expect)


@pytest.mark.parametrize("backend", ["fd", "fourier"])
def test_codifferential_is_the_metric_adjoint(backend):
    rng = np.random.default_rng(11)
    for mesh in (torus(4), oblong_torus()):
        for k in (1, 2):
            d = fs.exterior_derivative(mesh, k - 1, backend)
            dd = fs.codifferential(mesh, k, EPS, backend)
            m_lo = fs.inner_product_matrix(mesh, k - 1, EPS, backend)
            m_hi = fs.inner_product_matrix(mesh, k, EPS, backend)
            a = rng.standard_normal(d.shape[1])
            b = rng.standard_normal(d.shape[0])
            lhs = (d @ a) @ (m_hi @ b)
            rhs = a @ (m_lo @ (dd @ b))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_codifferential_scales_linearly_with_noise():
    mesh = circle()
    base = fs.codifferential(mesh, 1, fs.NoiseSpec(1.0))
    for eps in (0.5, 0.2, 0.05):
        scaled = fs.codifferential(mesh, 1, fs.NoiseSpec(eps))
        np.testing.assert_allclose(scaled, eps * base, rtol=1e-14)


def test_deterministic_limit_has_no_metric():
    mesh = circle()
    with pytest.raises(fs.DeterministicLimitError):
        fs.inner_product_matrix(mesh, 0, fs.NoiseSpec(0.0))
    with pytest.raises(fs.DeterministicLimitError):
        fs.codifferential(mesh, 1, fs.NoiseSpec(0.0))


def test_contraction_of_unit_form_with_constant_flow():
    # iota_A on the cochain of dphi returns the flow speed at every vertex
    mesh = circle(12)
    flow = fs.flow_from_vertex_samples(mesh, np.full(12, 1.7))
    cochain = np.full(12, mesh.spacings[0])
    for backend in ("fd", "fourier"):
        iota = fs.interior_product(mesh, flow, 1, backend)
        np.testing.assert_allclose(iota @ cochain, 1.7, rtol=1e-13)


def test_contraction_degree_range():
    mesh = circle()
    flow = fs.zero_flow(mesh)
    with pytest.raises(fs.DegreeError):
        fs.interior_product(mesh, flow, 0)
    with pytest.raises(fs.DegreeError):
        fs.interior_product(mesh, flow, 2)


def test_torus_top_contraction_orientation():
    # F dx^dy against A = (ax, ay) gives ax F on y-edges, -ay F on x-edges
    for mesh in (torus(4), oblong_torus()):
        n0 = mesh.n_cells(0)
        flow = fs.flow_from_vertex_samples(mesh, np.tile([2.0, 5.0], (n0, 1)))
        face_area = mesh.spacings[0] * mesh.spacings[1]
        hx, hy = mesh.spacings
        for backend in ("fd", "fourier"):
            iota = fs.interior_product(mesh, flow, 2, backend)
            out = iota @ np.full(mesh.n_cells(2), face_area)
            np.testing.assert_allclose(out[:n0], -5.0 * hx, rtol=1e-13)
            np.testing.assert_allclose(out[n0:], 2.0 * hy, rtol=1e-13)


@pytest.mark.parametrize("backend", ["fd", "fourier"])
def test_transport_commutes_with_d(backend):
    rng = np.random.default_rng(7)
    mesh = circle(16)
    flow = fs.flow_from_vertex_samples(mesh, rng.standard_normal(16))
    d0 = fs.exterior_derivative(mesh, 0, backend)
    l0 = fs.lie_derivative(mesh, flow, 0, backend)
    l1 = fs.lie_derivative(mesh, flow, 1, backend)
    np.testing.assert_allclose(d0 @ l0, l1 @ d0, atol=1e-13)

    for mesh in (torus(5), oblong_torus()):
        flow = fs.flow_from_vertex_samples(mesh, rng.standard_normal((mesh.n_cells(0), 2)))
        for k in (0, 1):
            d = fs.exterior_derivative(mesh, k, backend)
            lo = fs.lie_derivative(mesh, flow, k, backend)
            hi = fs.lie_derivative(mesh, flow, k + 1, backend)
            np.testing.assert_allclose(d @ lo, hi @ d, atol=1e-12)


def test_transport_of_constant_drive_is_exact_in_fourier():
    # constant speed a: L_A acting on e^{i m phi} multiplies by i m a,
    # and the circulant resolves every retained mode exactly
    n, a = 32, 1.3
    mesh = circle(n)
    flow = fs.flow_from_vertex_samples(mesh, np.full(n, a))
    l0 = fs.lie_derivative(mesh, flow, 0, "fourier")
    phi = np.asarray(mesh.vertices)
    for m in (1, 3, 7):
        wave = np.exp(1j * m * phi)
        np.testing.assert_allclose(l0 @ wave, 1j * m * a * wave, atol=1e-12)


@pytest.mark.parametrize("backend", ["fd", "fourier"])
def test_oblong_torus_drift_diffusion_symbols(backend):
    # constant flow on a 5 x 7 torus of sides 1 x 2: every degree carries the
    # per-axis symbol sum, so a factor applied along the wrong axis shows
    from flowspec.spectral import _match_nearest

    nx, ny, lx, ly, ax, ay, eps = 5, 7, 1.0, 2.0, 0.7, -0.4, 0.3
    mesh = fs.build_torus_grid(nx, ny, lx, ly)
    flow = fs.flow_from_vertex_samples(mesh, np.tile([ax, ay], (nx * ny, 1)))
    h = fs.assemble_hamiltonian(mesh, flow, fs.NoiseSpec(eps), backend)

    def axis_symbols(n, length):
        k = np.rint(np.fft.fftfreq(n) * n)
        if backend == "fourier":
            kappa = 2 * np.pi * k / length
            return eps * kappa**2 / 2, kappa
        theta, step = 2 * np.pi * k / n, length / n
        return eps * (1 - np.cos(theta)) / step**2, np.sin(theta) / step

    (dx, kx), (dy, ky) = axis_symbols(nx, lx), axis_symbols(ny, ly)
    sym = ((dx[:, None] + dy[None, :]) - 1j * (ax * kx[:, None] + ay * ky[None, :])).ravel()
    scale = np.max(np.abs(sym))
    for k, copies in ((0, 1), (1, 2), (2, 1)):
        computed = np.linalg.eigvals(h.block(k))
        _, dist = _match_nearest(np.tile(sym, copies), computed)
        assert np.max(dist) <= 1e-10 * scale, (k, np.max(dist) / scale)


def test_unstructured_mesh_accepts_only_zero_flow():
    sph = fs.icosphere(0)
    flow = fs.zero_flow(sph)
    l1 = fs.lie_derivative(sph, flow, 1)
    assert np.max(np.abs(l1)) == 0.0
    bad = fs.flow_from_vertex_samples(sph, np.ones((12, 3)))
    with pytest.raises(fs.UnsupportedMeshError):
        fs.lie_derivative(sph, bad, 1)
    with pytest.raises(fs.UnsupportedMeshError):
        fs.inner_product_matrix(sph, 0, EPS, "fourier")


def test_langevin_flow_tanh_rule_and_consistency():
    n = 24
    mesh = circle(n)
    phi = np.asarray(mesh.vertices)
    w = 0.8 * np.cos(2 * phi)
    flow = fs.langevin_flow(mesh, w, fs.NoiseSpec(0.2))
    assert flow.langevin
    np.testing.assert_array_equal(flow.w, w)
    h = mesh.spacings[0]
    dw = w[mesh.edges[:, 1]] - w[mesh.edges[:, 0]]
    np.testing.assert_allclose(
        flow.edge_vectors[:, 0], (0.2 / h) * np.tanh(dw), rtol=1e-14
    )
    # vertex samples: the mean of the two incident edge samples
    tang = flow.edge_vectors[:, 0]
    np.testing.assert_allclose(
        flow.vertex_values, 0.5 * (tang + np.roll(tang, 1)), rtol=1e-14
    )


def test_tilt_clears_the_gradient_declaration():
    mesh = circle(16)
    flow = fs.langevin_flow(mesh, np.cos(np.asarray(mesh.vertices)), fs.NoiseSpec(0.2))
    tilted = fs.with_tilt(flow, 0.4)
    assert not tilted.langevin and tilted.w is None
    np.testing.assert_allclose(
        tilted.vertex_values - flow.vertex_values, 0.4, rtol=1e-14
    )
