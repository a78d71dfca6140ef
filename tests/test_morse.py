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
