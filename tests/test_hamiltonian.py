"""Generator assembly: grading, algebraic identities, symmetrization."""

import numpy as np
import pytest

import flowspec as fs
from flowspec.spectral import _diagonal_similarity


def circle_setup(n=32, eps=0.3, seed=5):
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    rng = np.random.default_rng(seed)
    flow = fs.flow_from_vertex_samples(mesh, rng.standard_normal(n))
    return mesh, flow, fs.NoiseSpec(eps)


def match_residual(a, b):
    """Greedy nearest-neighbour multiset distance between eigenvalue lists."""
    a, b = np.asarray(a, complex), np.asarray(b, complex).copy()
    worst = 0.0
    used = np.zeros(len(b), bool)
    for z in a:
        dist = np.abs(b - z)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        worst = max(worst, dist[j])
    return worst


def test_block_grading_and_shapes():
    mesh, flow, noise = circle_setup()
    h = fs.assemble_hamiltonian(mesh, flow, noise)
    assert list(h.degrees()) == [0, 1]
    assert h.block(0).shape == (32, 32)
    for k in (-1, 2):
        with pytest.raises(fs.DegreeError):
            h.block(k)


def test_intertwining_is_an_algebraic_identity():
    mesh, flow, noise = circle_setup()
    h = fs.assemble_hamiltonian(mesh, flow, noise)
    assert h.intertwining_residual() < 1e-14

    tmesh = fs.build_torus_grid(6, 6, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(9)
    tflow = fs.flow_from_vertex_samples(tmesh, rng.standard_normal((36, 2)))
    th = fs.assemble_hamiltonian(tmesh, tflow, fs.NoiseSpec(0.25), "fd")
    assert th.intertwining_residual() < 1e-14
    th = fs.assemble_hamiltonian(tmesh, tflow, fs.NoiseSpec(0.25), "fourier")
    assert th.intertwining_residual() < 1e-13


def test_assembly_builds_each_piece_once_per_degree(monkeypatch):
    import flowspec.hamiltonian
    import flowspec.operators

    model = fs.build_model("torus_shear_model",
                           {"ax": 0.7, "ay": 0.4, "epsilon": 0.3, "n": 6})
    calls = {"boundary": 0, "iota": 0}
    boundary, iota = fs.MeshComplex.boundary_matrix, flowspec.operators._interior_product

    def counted_boundary(self, k):
        calls["boundary"] += 1
        return boundary(self, k)

    def counted_iota(*args, **kwargs):
        calls["iota"] += 1
        return iota(*args, **kwargs)

    monkeypatch.setattr(fs.MeshComplex, "boundary_matrix", counted_boundary)
    for module in (flowspec.operators, flowspec.hamiltonian):
        monkeypatch.setattr(module, "_interior_product", counted_iota)
    fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    assert calls == {"boundary": 2, "iota": 2}  # one d_k and one iota per degree


def test_two_route_check_refuses_a_corrupted_block():
    import dataclasses

    from flowspec.hamiltonian import _check_two_routes, _graded_pieces

    mesh, flow, noise = circle_setup()
    h = fs.assemble_hamiltonian(mesh, flow, noise)
    pieces = _graded_pieces(mesh, flow, noise, "fd")
    _check_two_routes(h, *pieces)
    bad = h.block(1).copy()
    bad[3, 3] += 1e-9 * np.max(np.abs(bad))
    with pytest.raises(fs.NumericalError, match="degree 1"):
        _check_two_routes(dataclasses.replace(h, blocks=(h.block(0), bad)), *pieces)
    # a NaN compares false against any tolerance, so it must fail the check too
    bad = h.block(1).copy()
    bad[3, 3] = np.nan
    with pytest.raises(fs.NumericalError, match="degree 1"):
        _check_two_routes(dataclasses.replace(h, blocks=(h.block(0), bad)), *pieces)


def _in_index_order(a, b):
    """a @ b with each entry's terms summed in ascending inner index.

    That is the order a CSR product with sorted rows sums in; BLAS picks its
    own order, so it agrees with the CSR product to roundoff only.
    """
    out = np.zeros((a.shape[0], b.shape[1]))
    for j in range(a.shape[1]):
        out += np.outer(a[:, j], b[j])
    return out


def _dense_generator(mesh, flow, noise, matmul):
    """H_k = {d, d†}_k / 2 - {d, iota}_k from dense pieces: d from the incidence,
    d† from the Hodge star vectors, iota the |incidence| pattern times flow samples."""
    from flowspec.mesh import hodge_star

    dim = mesh.dimension
    incidence = [mesh.boundary_matrix(k + 1).toarray().astype(float) for k in range(dim)]
    d = [b.T for b in incidence]
    star = [hodge_star(mesh, k, noise) for k in range(dim + 1)]
    ddag = [(d[k].T * star[k + 1]) / star[k][:, None] for k in range(dim)]
    if flow.is_zero:
        iota = [np.zeros(b.shape) for b in incidence]
    else:
        iota = [np.abs(incidence[0])
                * (flow.tangential_edge_values(mesh) / (2 * mesh.primal_volumes[1]))]
        if dim == 2:
            sign = np.repeat([-1.0, 1.0], mesh.n_cells(0))
            w = sign * flow.transverse_edge_values(mesh) / (2 * mesh.dual_volumes[1])
            iota.append(w[:, None] * np.abs(incidence[1]))

    def anticommutator(x, k):
        terms = ([matmul(x[k], d[k])] if k < dim else []) + \
                ([matmul(d[k - 1], x[k - 1])] if k > 0 else [])
        return sum(terms[1:], terms[0])

    return [0.5 * anticommutator(ddag, k) - anticommutator(iota, k) for k in range(dim + 1)]


def _exactness_cases():
    torus = fs.build_torus_grid(5, 7, 1.0, 2.0)
    x, y = np.asarray(torus.vertices).T
    w = 0.8 * np.cos(2 * np.pi * x) + 0.5 * np.sin(np.pi * y)
    sphere = fs.icosphere(2)
    cases = [
        pytest.param(torus, fs.langevin_flow(torus, w, fs.NoiseSpec(0.05)), 0.05,
                     id="torus-langevin"),
        pytest.param(torus, fs.flow_from_vertex_samples(torus, np.tile([0.7, -0.4], (35, 1))),
                     0.3, id="torus-constant"),
        pytest.param(sphere, fs.zero_flow(sphere), 0.7, id="icosphere-zero"),
    ]
    for n in (17, 384):
        circle = fs.build_circle_grid(n, 2 * np.pi)
        samples = np.random.default_rng(n).standard_normal(n)
        cases.append(pytest.param(circle, fs.flow_from_vertex_samples(circle, samples), 0.3,
                                  id=f"circle-{n}"))
    return cases


@pytest.mark.parametrize("mesh, flow, eps", _exactness_cases())
def test_sparse_assembly_matches_a_dense_reference(mesh, flow, eps):
    noise = fs.NoiseSpec(eps)
    h = fs.assemble_hamiltonian(mesh, flow, noise)
    exact = _dense_generator(mesh, flow, noise, _in_index_order)
    blas = _dense_generator(mesh, flow, noise, np.matmul)
    for k in h.degrees():
        assert isinstance(h.block(k), np.ndarray)
        assert np.array_equal(h.block(k), exact[k]), k
        scale = np.max(np.abs(blas[k]))
        assert np.max(np.abs(h.block(k) - blas[k])) <= 1e-15 * scale, k


def test_fd_run_builds_no_dense_block(tmp_path):
    # fd keeps its blocks CSR: assembly holds no dense block, and a run whose
    # every block takes the bloch route never makes one
    import tracemalloc

    params = {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 24}
    model = fs.build_model("torus_shear_model", params)
    tracemalloc.start()
    try:
        op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [b.shape[0] for b in op.blocks]
    assert sizes == [576, 1152, 576]
    dense = sum(8 * n * n for n in sizes)
    assert peak <= dense / 8, f"assembly peak {peak / dense:.3f}x the dense blocks"

    cfg = fs.RunConfig.from_dict({
        "model": {"name": "torus_shear_model", "params": params},
        "backend": "fd",
        "tasks": ["spectrum", "classify", "witten", "stationary"],
    })
    tracemalloc.start()
    try:
        results = fs.run(cfg, out_dir=tmp_path).data["results"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results["spectrum"]["oracle_satisfied"] is True
    assert results["witten"]["zero_modes_per_degree"] == [1, 2, 1]
    # the largest dense block alone would be 10.6 MB
    assert peak <= 8e6, f"run peak {peak / 1e6:.2f} MB"


def test_circle_run_builds_no_dense_block(tmp_path):
    # a double-well run solves every circle block banded and reads its
    # stationary density off the top block's weights, so it holds less than
    # one dense 384 x 384 block at any time
    import tracemalloc

    n = 384
    cfg = fs.RunConfig.from_dict({
        "model": {"name": "langevin_double_well_circle",
                  "params": {"depth": 1.0, "epsilon": 0.2, "n": n}},
        "backend": "fd",
        "tasks": ["classify", "witten", "morse", "sweep", "stationary"],
        "sweep": {"epsilons": [0.4, 0.2, 0.1, 0.05]},
        "morse": {"splitting_epsilons": [0.4, 0.2, 0.1, 0.05]},
    })
    tracemalloc.start()
    try:
        results = fs.run(cfg, out_dir=tmp_path).data["results"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results["classify"]["verdict"] == "unbroken-Markovian"
    assert results["witten"]["zero_modes_per_degree"] == [1, 1]
    dense = 8 * n * n
    assert peak < dense, f"run peak {peak / 1e6:.2f} MB, one dense block {dense / 1e6:.2f} MB"


def test_circle_blocks_are_isospectral():
    mesh, flow, noise = circle_setup(24)
    h = fs.assemble_hamiltonian(mesh, flow, noise)
    lam0 = np.linalg.eigvals(h.block(0))
    lam1 = np.linalg.eigvals(h.block(1))
    scale = np.max(np.abs(lam0))
    assert match_residual(lam0, lam1) < 1e-10 * scale


def test_deterministic_limit_guard():
    mesh, flow, _ = circle_setup()
    # at epsilon = 0 the generator is the bare advection operator -L_A
    h = fs.assemble_hamiltonian(mesh, flow, fs.NoiseSpec(0.0))
    for k in h.degrees():
        np.testing.assert_array_equal(h.block(k), -fs.lie_derivative(mesh, flow, k))
    # zero flow: the operator is simply zero
    z = fs.assemble_hamiltonian(mesh, fs.zero_flow(mesh), fs.NoiseSpec(0.0))
    assert np.max(np.abs(z.block(0))) == 0.0


def test_noise_scaling_of_gradient_flow_generator():
    # for gradient flows both terms carry one power of the noise scale,
    # so the whole generator is linear in it
    n = 24
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    w = 1.0 * np.cos(2 * np.asarray(mesh.vertices))
    ref = fs.assemble_hamiltonian(
        mesh, fs.langevin_flow(mesh, w, fs.NoiseSpec(1.0)), fs.NoiseSpec(1.0)
    )
    for eps in (0.4, 0.1):
        noise = fs.NoiseSpec(eps)
        h = fs.assemble_hamiltonian(mesh, fs.langevin_flow(mesh, w, noise), noise)
        for k in (0, 1):
            np.testing.assert_allclose(h.block(k), eps * ref.block(k), rtol=1e-13)


def test_gradient_flow_kernel_vectors():
    n = 48
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    w = 0.7 * np.cos(2 * np.asarray(mesh.vertices))
    noise = fs.NoiseSpec(0.2)
    h = fs.assemble_hamiltonian(mesh, fs.langevin_flow(mesh, w, noise), noise)
    scale = np.max(np.abs(h.block(0)))
    # constants are annihilated at degree 0 ...
    assert np.max(np.abs(h.block(0) @ np.ones(n))) < 1e-13 * scale
    # ... e^{2W} spans the left kernel ...
    assert np.max(np.abs(h.block(0).T @ np.exp(2 * w))) < 1e-13 * scale
    # ... and the endpoint-averaged e^{-2W} is the top-degree zero mode
    g = np.exp(-2 * w)
    u = 0.5 * (g[mesh.edges[:, 0]] + g[mesh.edges[:, 1]])
    assert np.max(np.abs(h.block(1) @ u)) < 1e-13 * scale


def test_density_generator_conserves_probability():
    mesh, flow, noise = circle_setup(20)
    op = fs.conventional_fp_operator(mesh, flow, noise)
    cols = np.sum(op, axis=0)
    assert np.max(np.abs(cols)) < 1e-12 * np.max(np.abs(op))
    # zero flow: positive semi-definite diffusion stencil (rates decay as e^{-lam t})
    diff = fs.conventional_fp_operator(mesh, fs.zero_flow(mesh), noise)
    lam = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    assert lam.min() > -1e-12
    assert abs(lam[0]) < 1e-12  # conserved total mass
    with pytest.raises(fs.UnsupportedMeshError):
        fs.conventional_fp_operator(fs.icosphere(0), fs.zero_flow(fs.icosphere(0)), noise)


@pytest.mark.parametrize("name, params", [
    ("constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 16}),
    ("langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.2, "n": 32}),
])
def test_fourier_density_generator_conserves_probability(name, params):
    # on fourier the top star is conjugated through the dense inner-product matrix
    m = fs.build_model(name, params)
    op = fs.conventional_fp_operator(m.mesh, m.flow, m.noise, backend="fourier")
    scale = np.max(np.abs(op))
    assert np.max(np.abs(np.sum(op, axis=0))) < 1e-14 * scale
    # a similarity of the top block: the same eigenvalues
    top = fs.assemble_hamiltonian(m.mesh, m.flow, m.noise, backend="fourier").block(1)
    assert match_residual(np.linalg.eigvals(op), np.linalg.eigvals(top)) < 1e-13 * scale


def test_hermitianization_on_circle_is_exact():
    # the eigensolver's symmetric route: every circle degree, any W
    n, noise = 64, fs.NoiseSpec(0.2)
    mesh = fs.build_circle_grid(n, 2 * np.pi)
    rng = np.random.default_rng(2)
    w = rng.standard_normal(n)  # arbitrary potential, not just smooth ones
    h = fs.assemble_hamiltonian(mesh, fs.langevin_flow(mesh, w, noise), noise)
    for k in h.degrees():
        s, sym = _diagonal_similarity(h.blocks[k])
        if k == 0:  # measured from the block; e^{2W} is the independent oracle
            np.testing.assert_allclose(s ** 2 / s[0] ** 2, np.exp(2 * (w - w[0])), rtol=1e-12)
        # similarity preserves the spectrum and makes it manifestly real
        lam_sym = np.linalg.eigvalsh(sym.toarray())
        lam_raw = np.sort(np.linalg.eigvals(h.block(k)).real)
        np.testing.assert_allclose(np.sort(lam_sym), lam_raw, atol=1e-9 * lam_sym.max())


def test_hermitianization_rejects_torus_degree_one():
    # the torus degree 1 of a potential couples a quarter of its pairs with
    # opposite signs, so no diagonal similarity exists and it goes to the
    # general solver; degrees 0 and 2 are reversible chains on the vertices
    # and the faces
    mesh = fs.build_torus_grid(6, 6, 2 * np.pi, 2 * np.pi)
    ij = np.asarray(mesh.vertices)
    w = 0.5 * (np.cos(ij[:, 0]) + np.cos(ij[:, 1]))
    noise = fs.NoiseSpec(0.3)
    h = fs.assemble_hamiltonian(mesh, fs.langevin_flow(mesh, w, noise), noise)
    assert [_diagonal_similarity(b) is not None for b in h.blocks] == [True, False, True]
    assert h.blocks[1].multiply(h.blocks[1].T).min() < 0



def test_the_density_generator_refuses_the_deterministic_limit():
    mesh = fs.build_circle_grid(16, 2 * np.pi)
    with pytest.raises(fs.DeterministicLimitError):
        fs.conventional_fp_operator(mesh, fs.zero_flow(mesh), fs.NoiseSpec(0.0))
