"""Drift zeros, signed counts, semiclassical states, tunneling splittings."""

import numpy as np
import pytest

import flowspec as fs


def test_circle_sine_drift_zeros():
    n = 64
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    phi = np.asarray(mesh.vertices)
    flow = fs.flow_from_vertex_samples(mesh, np.sin(phi))
    pts = fs.find_critical_points(mesh, flow)
    assert len(pts) == 2
    locs = sorted(float(p.location[0]) for p in pts)
    np.testing.assert_allclose(locs, [0.0, np.pi], atol=1e-12)
    by_loc = {round(float(p.location[0]), 6): p for p in pts}
    # phi' = -sin: phi = 0 is SDE-stable, jacobian d(sin)/dphi = +1 there
    stable = by_loc[0.0]
    unstable = by_loc[round(np.pi, 6)]
    assert (stable.delta, stable.sign) == (0, 1)
    assert (unstable.delta, unstable.sign) == (1, -1)
    assert stable.stable_count == 1 and unstable.stable_count == 0
    assert all(p.hyperbolic for p in pts)
    np.testing.assert_allclose(stable.jacobian[0, 0], 1.0, rtol=1e-2)
    assert fs.poincare_hopf_sum(pts) == 0


def test_off_vertex_zeros_are_interpolated():
    # sin(phi - 0.3): zeros between grid points, found by sign change
    n = 40
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    phi = np.asarray(mesh.vertices)
    flow = fs.flow_from_vertex_samples(mesh, np.sin(phi - 0.3))
    pts = fs.find_critical_points(mesh, flow)
    locs = sorted(float(p.location[0]) for p in pts)
    np.testing.assert_allclose(locs, [0.3, 0.3 + np.pi], atol=2e-3)


def test_nonvanishing_drift_has_no_zeros():
    mesh = fs.build_circle_grid(32, 2 * np.pi)
    flow = fs.flow_from_vertex_samples(mesh, np.full(32, 1.0))
    assert fs.find_critical_points(mesh, flow) == []
    # identically zero flow: no isolated zeros either
    assert fs.find_critical_points(mesh, fs.zero_flow(mesh)) == []


def test_torus_gradient_zeros_and_signed_count():
    n = 32
    mesh = fs.build_torus_grid(n, n, 2 * np.pi, 2 * np.pi)
    xy = np.asarray(mesh.vertices)
    a = np.column_stack([np.sin(xy[:, 0]), np.sin(xy[:, 1])])
    flow = fs.flow_from_vertex_samples(mesh, a)
    pts = fs.find_critical_points(mesh, flow)
    assert len(pts) == 4
    signs = sorted(p.sign for p in pts)
    assert signs == [-1, -1, 1, 1]
    assert fs.poincare_hopf_sum(pts) == 0
    deltas = sorted(p.delta for p in pts)
    assert deltas == [0, 1, 1, 2]


def test_torus_zeros_off_the_grid_solve_the_bilinear_quadratic():
    # W = cos(x - 0.3) cos(y - 0.2): both drift components vary in both
    # directions within a cell, so each cell's roots solve a quadratic
    n = 32
    mesh = fs.build_torus_grid(n, n, 2 * np.pi, 2 * np.pi)
    x, y = np.asarray(mesh.vertices).T
    noise = fs.NoiseSpec(0.5)
    flow = fs.langevin_flow(mesh, np.cos(x - 0.3) * np.cos(y - 0.2), noise)
    pts = fs.find_critical_points(mesh, flow)
    assert len(pts) == 8
    extrema = [(0.3 + j * np.pi, 0.2 + l * np.pi) for j in range(2) for l in range(2)]
    saddles = [(u + np.pi / 2, v + np.pi / 2) for u, v in extrema]
    for want, saddle in [(e, False) for e in extrema] + [(s, True) for s in saddles]:
        [found] = [p for p in pts if np.linalg.norm(p.location - want) <= 1e-3]
        assert (found.delta == 1) == saddle, (want, found.delta)
    assert sum(p.delta == 1 for p in pts) == 4
    assert fs.poincare_hopf_sum(pts) == 0


@pytest.mark.parametrize("n, wells_x, count", [
    (127, 2, 16), (128, 2, 16), (200, 2, 16), (256, 2, 16), (128, 1, 8),
])
def test_torus_zeros_where_the_cell_quadratic_degenerates(n, wells_x, count):
    # W = cos(wells_x x) + cos 2y: around a zero on a grid vertex some cells'
    # quadratic has a roundoff-sized leading coefficient, where (-qb ± r)/(2 qa)
    # cancels and moved a corner root inside the cell, adding a spurious zero
    mesh = fs.build_torus_grid(n, n, 2 * np.pi, 2 * np.pi)
    x, y = np.asarray(mesh.vertices).T
    flow = fs.langevin_flow(mesh, np.cos(wells_x * x) + np.cos(2 * y), fs.NoiseSpec(0.2))
    pts = fs.find_critical_points(mesh, flow)
    assert len(pts) == count
    assert fs.poincare_hopf_sum(pts) == 0


def test_spiral_zeros_on_the_torus():
    # A = (sin x - 0.5 sin y, sin y + 0.5 sin x): spirals at (0, 0) and (pi, pi)
    n = 32
    mesh = fs.build_torus_grid(n, n, 2 * np.pi, 2 * np.pi)
    x, y = np.asarray(mesh.vertices).T
    a = np.column_stack([np.sin(x) - 0.5 * np.sin(y), np.sin(y) + 0.5 * np.sin(x)])
    pts = fs.find_critical_points(mesh, fs.flow_from_vertex_samples(mesh, a))
    assert len(pts) == 4
    assert fs.poincare_hopf_sum(pts) == 0 == mesh.euler_characteristic()
    origin = pts[int(np.argmin([np.linalg.norm(p.location) for p in pts]))]
    np.testing.assert_array_equal(origin.location, [0.0, 0.0])
    # centered differences scale the Jacobian by sin(h)/h
    c = np.sin(2 * np.pi / n) / (2 * np.pi / n)
    eigs = origin.eigenvalues[np.argsort(origin.eigenvalues.imag)]
    np.testing.assert_allclose(eigs, [c * (1 - 0.5j), c * (1 + 0.5j)], rtol=1e-12)
    assert (origin.delta, origin.sign, origin.stable_count) == (0, 1, 2)
    # the complex pair spans both stable directions: a degree-2 state
    noise = fs.NoiseSpec(0.2)
    state = fs.one_loop_ground_state(origin, noise)
    assert state.degree == 2
    star = fs.hodge_star(mesh, 2, noise)
    np.testing.assert_allclose(np.sum(star * state.values ** 2), 1.0, rtol=1e-12)
    # the peak sits on the faces around the origin, face 0 among them
    np.testing.assert_allclose(state.values[0], state.values.max(), rtol=1e-12)


def test_spiral_one_loop_state_has_the_stated_variance():
    # at a spiral the stable plane is spanned by Re v and Im v; the Gaussian
    # still has variance eps / (2 |lambda|) with the discrete |lambda|
    n, eps = 64, 0.2
    mesh = fs.build_torus_grid(n, n, 2 * np.pi, 2 * np.pi)
    x, y = np.asarray(mesh.vertices).T
    a = np.column_stack([np.sin(x) - 0.5 * np.sin(y), np.sin(y) + 0.5 * np.sin(x)])
    pts = fs.find_critical_points(mesh, fs.flow_from_vertex_samples(mesh, a))
    origin = pts[int(np.argmin([np.linalg.norm(p.location) for p in pts]))]
    state = fs.one_loop_ground_state(origin, fs.NoiseSpec(eps))
    assert state.degree == 2
    h = 2 * np.pi / n
    i, j = np.divmod(np.arange(n * n), n)  # face f = i * ny + j, centered
    d2 = np.angle(np.exp(1j * (i + 0.5) * h)) ** 2 + np.angle(np.exp(1j * (j + 0.5) * h)) ** 2
    mask = d2 < 0.5 ** 2
    slope = np.polyfit(d2[mask], np.log(np.abs(state.values[mask])), 1)[0]
    c = np.sin(h) / h  # centered differences scale the Jacobian by sin(h)/h
    variance = eps / (2 * c * np.sqrt(1.25))  # 0.0896; half of it with unnormalized columns
    np.testing.assert_allclose(-1 / (2 * slope), variance, rtol=0.02)


def test_non_hyperbolic_zero_is_flagged():
    # A = sin^2 has a double zero at 0: jacobian vanishes there
    n = 64
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    phi = np.asarray(mesh.vertices)
    flow = fs.flow_from_vertex_samples(mesh, np.sin(phi) ** 2)
    pts = fs.find_critical_points(mesh, flow)
    assert any(not p.hyperbolic for p in pts)
    with pytest.raises(fs.IndeterminateIndexError):
        fs.poincare_hopf_sum(pts)


def test_unstructured_mesh_is_rejected():
    sph = fs.icosphere(0)
    with pytest.raises(fs.UnsupportedMeshError):
        fs.find_critical_points(sph, fs.zero_flow(sph))


def _min_periodic_separation(mesh, pts):
    locs = np.array([p.location for p in pts])
    d = locs[:, None, :] - locs[None, :, :]
    d = np.abs(d) % np.asarray(mesh.lengths)
    d = np.minimum(d, np.asarray(mesh.lengths) - d)
    dist = np.sqrt(np.sum(d * d, axis=-1))
    return float(np.min(dist[np.triu_indices(len(locs), 1)]))


def _circle_and_torus_flows(close):
    circle = fs.build_circle_grid(32, 2 * np.pi)
    torus = fs.build_torus_grid(16, 16, 2 * np.pi, 2 * np.pi)
    phi = np.asarray(circle.vertices)
    x, y = np.asarray(torus.vertices).T
    if close:
        # zeros of sin 3y + 0.5 alternate 0.70 and 1.40 apart; 4 cells are 1.57
        return [(circle, fs.flow_from_vertex_samples(circle, np.sin(3 * phi) + 0.5)),
                (torus, fs.flow_from_vertex_samples(
                    torus, np.column_stack([np.sin(x), np.sin(3 * y) + 0.5])))]
    return [(circle, fs.flow_from_vertex_samples(circle, np.sin(phi))),
            (torus, fs.flow_from_vertex_samples(
                torus, np.column_stack([np.sin(x), np.sin(y)])))]


@pytest.mark.parametrize("close", [True, False], ids=["close", "separated"])
def test_close_zeros_warn_once_with_the_minimum_separation(close):
    import warnings

    for mesh, flow in _circle_and_torus_flows(close):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pts = fs.find_critical_points(mesh, flow)
        warned = [w for w in caught if issubclass(w.category, fs.ResolutionWarning)]
        gap = _min_periodic_separation(mesh, pts)
        h = max(mesh.spacings)
        assert (gap < 4 * h) == close, mesh.kind
        assert len(warned) == int(close), mesh.kind
        if close:
            msg = str(warned[0].message)
            assert f"zeros only {gap:.3g} apart" in msg, msg
            assert f"spacing {h:.3g}" in msg and "four cells" in msg, msg


def test_one_loop_states_on_the_torus():
    mesh = fs.build_torus_grid(24, 24, 2 * np.pi, 2 * np.pi)
    x, y = np.asarray(mesh.vertices).T
    flow = fs.flow_from_vertex_samples(mesh, np.column_stack([np.sin(x), np.sin(y)]))
    noise = fs.NoiseSpec(0.2)
    pts = fs.find_critical_points(mesh, flow)
    assert len(pts) == 4
    degrees = []
    for p in pts:
        state = fs.one_loop_ground_state(p, noise)
        assert state.degree == p.stable_count
        assert state.values.shape == (mesh.n_cells(state.degree),)
        assert np.all(np.isfinite(state.values))
        star = fs.hodge_star(mesh, state.degree, noise)
        np.testing.assert_allclose(np.sum(star * state.values ** 2), 1.0, rtol=1e-12)
        degrees.append(state.degree)
    assert sorted(degrees) == [0, 1, 1, 2]


def test_one_loop_state_matches_local_gaussian():
    # linear drift a*phi near 0: stationary density ~ exp(-a phi^2 / (2 eps/2))
    n, eps = 64, 0.1
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    phi = np.asarray(mesh.vertices)
    flow = fs.flow_from_vertex_samples(mesh, 10.0 * np.sin(phi))
    pts = fs.find_critical_points(mesh, flow)
    stable = [p for p in pts if p.stable_count == 1][0]
    state = fs.one_loop_ground_state(stable, fs.NoiseSpec(eps))
    assert state.degree == 1  # the stationary density lives at top degree
    # fitted variance on the state's log: eps / (2 |jac|)
    mids = phi + mesh.spacings[0] / 2
    d = np.angle(np.exp(1j * (mids - stable.location[0])))
    mask = np.abs(d) < 0.5
    coef = np.polyfit(d[mask] ** 2, np.log(np.abs(state.values[mask])), 1)
    lam_fit = -eps * coef[0]  # slope is -lam/eps for var = eps/(2 lam)
    jac_discrete = 10.0 * np.sin(mesh.spacings[0]) / mesh.spacings[0]
    np.testing.assert_allclose(lam_fit, jac_discrete, rtol=1e-2)


def test_one_loop_state_of_unstable_zero_is_degree_zero():
    n = 64
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    phi = np.asarray(mesh.vertices)
    flow = fs.flow_from_vertex_samples(mesh, np.sin(phi))
    pts = fs.find_critical_points(mesh, flow)
    unstable = [p for p in pts if p.stable_count == 0][0]
    state = fs.one_loop_ground_state(unstable, fs.NoiseSpec(0.1))
    assert state.degree == 0
    np.testing.assert_allclose(state.values, state.values[0])  # constant


def test_single_well_overlap_with_exact_ground_state():
    # one stable zero: the semiclassical state should essentially be the
    # true stationary eigenvector
    n, eps = 64, 0.1
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    phi = np.asarray(mesh.vertices)
    flow = fs.flow_from_vertex_samples(mesh, 2.0 * np.sin(phi))
    noise = fs.NoiseSpec(eps)
    pts = fs.find_critical_points(mesh, flow)
    stable = [p for p in pts if p.stable_count == 1][0]
    state = fs.one_loop_ground_state(stable, noise)

    op = fs.assemble_hamiltonian(mesh, flow, noise)
    report = fs.full_spectrum(op)
    ground = report.right[1][:, np.argmin(np.abs(report.eigenvalues(1)))]
    m = fs.inner_product_matrix(mesh, 1, noise)
    v = ground / np.sqrt(np.real(np.vdot(ground, m @ ground)))
    overlap = abs(np.vdot(state.values, m @ v))
    assert overlap > 0.99


def test_double_well_doublet_spans_both_wells():
    # two stable zeros: individual overlaps drop to ~1/sqrt(2); the
    # two-dimensional doublet span still contains the semiclassical state
    model = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.1, "n": 64}
    )
    mesh, noise = model.mesh, model.noise
    pts = fs.find_critical_points(mesh, model.flow)
    wells = [p for p in pts if p.stable_count == 1]
    assert len(wells) == 2
    state = fs.one_loop_ground_state(wells[0], noise)

    op = fs.assemble_hamiltonian(mesh, model.flow, noise)
    report = fs.full_spectrum(op)
    slowest = np.argsort(np.abs(report.eigenvalues(1)), kind="stable")
    m = fs.inner_product_matrix(mesh, 1, noise)
    basis = []
    for j in slowest[:2]:
        v = np.real_if_close(report.right[1][:, j])
        v = v / np.sqrt(np.real(np.vdot(v, m @ v)))
        basis.append(v)
    single = abs(np.vdot(state.values, m @ basis[0]))
    assert 0.6 < single < 0.8  # localized state vs symmetrized doublet
    proj = np.sqrt(sum(abs(np.vdot(state.values, m @ b)) ** 2 for b in basis))
    assert proj > 0.99


def test_splitting_scan_decreases_and_is_convex():
    model = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.4, "n": 64}
    )
    scan = fs.instanton_splitting_scan(model, [0.4, 0.2, 0.1])
    assert scan.n_minima == 2
    assert scan.strictly_decreasing
    assert scan.convex_log_trend
    np.testing.assert_allclose(
        scan.splittings, [1.640147e-02, 8.200733e-03, 4.100367e-03], rtol=1e-5
    )
    # the doublet gap sits far below the first intra-well rate
    for s, f in zip(scan.splittings, scan.first_nontunneling):
        assert s < 0.05 * f


def test_splitting_scan_input_validation():
    model = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.4, "n": 64}
    )
    with pytest.raises(fs.ValidationError):
        fs.instanton_splitting_scan(model, [0.4])  # need two levels
    with pytest.raises(fs.ValidationError):
        fs.instanton_splitting_scan(model, [0.1, 0.4])  # not descending
    with pytest.raises(fs.InvalidNoiseError):
        fs.instanton_splitting_scan(model, [0.4, 0.0])
    tilted = fs.build_model(
        "tilted_langevin_circle",
        {"depth": 1.0, "tilt": 0.3, "epsilon": 0.4, "n": 64},
    )
    with pytest.raises(fs.NotPotentialError):
        fs.instanton_splitting_scan(tilted, [0.4, 0.2])


def test_splitting_scan_needs_two_wells():
    from dataclasses import replace

    mesh = fs.build_circle_grid(64, 2 * np.pi)
    w = np.cos(np.asarray(mesh.vertices))  # one minimum only
    noise = fs.NoiseSpec(0.4)
    model = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.4, "n": 64}
    )
    single = replace(
        model,
        mesh=mesh,
        flow=fs.langevin_flow(mesh, w, noise),
        noise=noise,
        params={"depth": 1.0, "epsilon": 0.4, "n": 64},
    )
    with pytest.raises(fs.NoInstantonError):
        fs.instanton_splitting_scan(single, [0.4, 0.2])


@pytest.mark.parametrize("point, eps, error", [
    (fs.CriticalPoint(np.zeros(1), np.zeros((1, 1)), False, fs.build_circle_grid(16, 2 * np.pi)),
     0.2, fs.IndeterminateIndexError),
    (fs.CriticalPoint(np.zeros(1), np.eye(1), True, fs.build_circle_grid(16, 2 * np.pi)),
     0.0, fs.DeterministicLimitError),
    (fs.CriticalPoint(np.zeros(3), -np.eye(3), True, fs.icosphere(0)),
     0.2, fs.UnsupportedMeshError),
], ids=["non-hyperbolic", "deterministic", "off-the-grid"])
def test_one_loop_states_refuse_what_they_cannot_localize(point, eps, error):
    with pytest.raises(error):
        fs.one_loop_ground_state(point, fs.NoiseSpec(eps))
