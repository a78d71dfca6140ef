"""Non-normal eigendecomposition, phase verdicts, index counting, pairing."""

import csv
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

import flowspec as fs


def constant_drive_report(a=1.0, eps=0.2, n=64, backend="fd"):
    model = fs.build_model(
        "constant_drive_circle", {"a": a, "epsilon": eps, "n": n}
    )
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
    return model, fs.full_spectrum(op)


def test_full_spectrum_against_difference_symbols():
    model, report = constant_drive_report()
    assert report.block_sizes == (64, 64)
    assert report.max_residual() < 1e-10
    assert fs.oracle_spectrum_residual(model, report, "fd") < 1e-12


def assert_report_order(report):
    """Clusters (eigenvalues chained by steps <= 1e-7 of the radius) are
    contiguous and ordered by centroid (Re, Im), real parts that chain by
    such steps counting as equal; members by degree, then (Re, Im)."""
    w = report.eigenvalue
    thr = 1e-7 * report.spectral_radius
    near = np.abs(w[:, None] - w[None, :]) <= thr
    linked = near
    while True:  # transitive closure
        grown = (linked.astype(int) @ near.astype(int)) > 0
        if np.array_equal(grown, linked):
            break
        linked = grown
    first = np.argmax(linked, axis=1)  # each entry's cluster, by its first member
    assert np.all(np.diff(first) >= 0)  # contiguous, in order of appearance
    centre = {c: w[first == c].mean() for c in np.unique(first)}
    reals = np.sort([z.real for z in centre.values()])
    starts = reals[np.diff(reals, prepend=-np.inf) > thr]  # lowest real part of each band
    band = {c: np.searchsorted(starts, z.real, side="right") for c, z in centre.items()}
    keys = [(band[c], centre[c].imag, c, k, z.real, z.imag)
            for c, k, z in zip(first, report.degree, w)]
    assert keys == sorted(keys)


def right_vector(report, i):
    """Right eigenvector of entry ``i``: its column within its degree's matrix."""
    k = report.degree[i]
    return report.right[k][:, np.sum(report.degree[:i] == k)]


def test_entry_ordering_and_normalization():
    _, report = constant_drive_report(n=32)
    assert_report_order(report)
    for i in range(10):
        right = right_vector(report, i)
        np.testing.assert_allclose(np.linalg.norm(right), 1.0, rtol=1e-12)
        j = int(np.argmax(np.abs(right)))
        assert abs(right[j].imag) < 1e-12  # pinned phase
        assert right[j].real > 0


def test_decomposition_is_reproducible():
    _, r1 = constant_drive_report(n=24)
    _, r2 = constant_drive_report(n=24)
    np.testing.assert_array_equal(r1.eigenvalue, r2.eigenvalue)
    for k in range(len(r1.block_sizes)):
        np.testing.assert_array_equal(r1.right[k], r2.right[k])
        np.testing.assert_array_equal(r1.left[k], r2.left[k])


def test_biorthonormality_within_degenerate_clusters():
    # gradient double well: tunneling doublet is near-degenerate, the
    # joint normalization must still give <L_i, R_j> = delta_ij
    model = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.2, "n": 64}
    )
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    report = fs.full_spectrum(op)
    assert report.max_residual() < 1e-8
    gram = report.left[0].conj().T @ report.right[0]
    np.testing.assert_allclose(gram, np.eye(report.block_sizes[0]), atol=1e-8)


@pytest.mark.parametrize("ax, ay", [(1.2, 0.4), (0.7, 0.6), (1.45, 0.3), (1.0, 0.5)])
def test_biorthonormality_on_torus_with_interleaved_conjugates(ax, ay):
    # degenerate torus eigenvalues interleave with their conjugates in
    # (Re, Im) order; the whole degenerate set must be normalized jointly
    model = fs.build_model("torus_shear_model",
                           {"ax": ax, "ay": ay, "epsilon": 0.3, "n": 8})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    assert fs.full_spectrum(op).max_residual() <= 1e-10


def test_capacity_cap(monkeypatch):
    import flowspec.spectral

    model, _ = constant_drive_report(n=16)
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    # the cap is read at call time; refused before any block is solved
    monkeypatch.setattr(flowspec.spectral, "_DENSE_CAP", 8)
    monkeypatch.setattr(scipy.linalg, "eig", None)
    monkeypatch.setattr(scipy.linalg, "eigvals", None)
    for solver in (fs.full_spectrum, fs.eigenvalue_spectrum):
        with pytest.raises(fs.CapacityError, match="cap 8"):
            solver(op)


def test_non_finite_block_is_refused_before_lapack(monkeypatch):
    import dataclasses

    import flowspec.spectral

    for solver in ("eig", "eigvals", "eigvalsh", "svdvals"):
        monkeypatch.setattr(scipy.linalg, solver, None)
    # the non-finite check runs before the invariance test and the bloch solve
    monkeypatch.setattr(flowspec.spectral, "_bloch_symbols", None)
    monkeypatch.setattr(np.linalg, "eigvals", None)
    # a translation-invariant flow, a gradient flow that would take the
    # symmetric route, and a non-gradient flow that would take geev
    for name, params in [("constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 16}),
                         ("langevin_double_well_circle",
                          {"depth": 1.0, "epsilon": 0.2, "n": 16}),
                         ("tilted_langevin_circle",
                          {"depth": 1.0, "tilt": 0.3, "epsilon": 0.2, "n": 16})]:
        model = fs.build_model(name, params)
        op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
        bad = op.blocks[0].copy()
        bad[0, 0] = np.inf
        op = dataclasses.replace(op, blocks=(bad, op.blocks[1]))
        for solve in (fs.full_spectrum, fs.eigenvalue_spectrum):
            with pytest.raises(fs.NumericalError, match="degree-0 block at noise level 0.2"):
                solve(op)


@pytest.mark.parametrize("backend", ["fd", "fourier"])
def test_the_invariance_test_refuses_nan(backend):
    from flowspec.spectral import _bloch_symbols

    model = fs.build_model("torus_shear_model", {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 8})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
    block = op.block(1)
    assert _bloch_symbols(model.mesh, 1, block, exact=backend == "fd") is not None
    # a NaN in an origin row and in every translate of that entry, then in
    # one far row only
    cells = np.arange(len(block)).reshape(model.mesh.cochain_shape(1))
    everywhere, far = block.copy(), block.copy()
    everywhere[cells.ravel(), np.roll(cells, -1, axis=2).ravel()] = np.nan
    far[-1, -1] = np.nan
    for bad in (everywhere, far):
        assert _bloch_symbols(model.mesh, 1, bad, exact=backend == "fd") is None


REGISTERED = {
    "constant_drive_circle": {"a": 1.0, "epsilon": 0.2, "n": 32},
    "langevin_double_well_circle": {"depth": 1.0, "epsilon": 0.2, "n": 48},
    "tilted_langevin_circle": {"depth": 1.0, "tilt": 0.3, "epsilon": 0.2, "n": 48},
    "torus_shear_model": {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 8},
}


@pytest.mark.parametrize("name", sorted(REGISTERED))
def test_eigenvalue_spectrum_agrees_with_full_spectrum(name):
    model = fs.build_model(name, REGISTERED[name])
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    full, values = fs.full_spectrum(op), fs.eigenvalue_spectrum(op)
    assert values.right is None and values.left is None
    assert values.block_sizes == full.block_sizes
    np.testing.assert_array_equal(values.degree, full.degree)
    assert_report_order(values)
    assert_report_order(full)
    cv, cf = fs.classify_phase(values), fs.classify_phase(full)
    assert (cv.verdict, len(cv.evidence)) == (cf.verdict, len(cf.evidence))
    assert fs.witten_index(values) == fs.witten_index(full)
    assert fs.zero_mode_counts(values) == fs.zero_mode_counts(full)
    tol = 1e-12 * full.spectral_radius
    assert abs(values.spectral_radius - full.spectral_radius) <= tol
    for k in range(model.mesh.dimension + 1):
        a, b = values.eigenvalues(degree=k), full.eigenvalues(degree=k)
        assert len(a) == len(b)
        gaps = np.abs(a[:, None] - b[None, :])
        assert gaps.min(axis=1).max() <= tol and gaps.min(axis=0).max() <= tol


@pytest.fixture
def routes(monkeypatch):
    """Records the route that solves each block, by the block's size: the
    LAPACK solver, or ``bloch`` for a batched solve of n0 symbols of size f."""
    calls = []
    for solver in ("eigvals", "eigvalsh", "svdvals"):
        def recorded(a, *args, _name=solver, _solve=getattr(scipy.linalg, solver), **kwargs):
            calls.append((_name, a.shape[1]))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, solver, recorded)

    def batched(a, _solve=np.linalg.eigvals):
        calls.append(("bloch", a.shape[0] * a.shape[-1]))
        return _solve(a)
    monkeypatch.setattr(np.linalg, "eigvals", batched)
    return calls


def test_gradient_blocks_take_the_symmetric_route(routes):
    # circle double well: degree 0 factored, degree 1 symmetric; no geev
    model = fs.build_model("langevin_double_well_circle",
                           REGISTERED["langevin_double_well_circle"])
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    values = fs.eigenvalue_spectrum(op)
    assert routes == [("svdvals", 48), ("eigvalsh", 48)]
    # the same blocks through geev agree within roundoff of the radius
    tol = 1e-12 * values.spectral_radius
    for k in op.degrees():
        a, b = values.eigenvalues(k), scipy.linalg.eigvals(op.block(k))
        gaps = np.abs(a[:, None] - b[None, :])
        assert gaps.min(axis=1).max() <= tol and gaps.min(axis=0).max() <= tol
    assert not np.any(values.eigenvalue.imag)
    routes.clear()

    # torus potential: only degree 0 is symmetric under the diagonal similarity
    mesh = fs.build_torus_grid(6, 6, 2 * np.pi, 2 * np.pi)
    xy = np.asarray(mesh.vertices)
    noise = fs.NoiseSpec(0.3)
    flow = fs.langevin_flow(mesh, 0.5 * (np.cos(xy[:, 0]) + np.cos(xy[:, 1])), noise)
    fs.eigenvalue_spectrum(fs.assemble_hamiltonian(mesh, flow, noise))
    assert routes == [("svdvals", 36), ("eigvals", 72), ("eigvals", 36)]


@pytest.mark.parametrize("name", ["tilted_langevin_circle"])
def test_non_gradient_blocks_take_geev(routes, name):
    # the potential varies along the circle, so no block is translation-invariant
    model = fs.build_model(name, REGISTERED[name])
    fs.eigenvalue_spectrum(fs.assemble_hamiltonian(model.mesh, model.flow, model.noise))
    assert [solver for solver, _ in routes] == ["eigvals"] * (model.mesh.dimension + 1)


@pytest.mark.parametrize("backend", ["fd", "fourier"])
@pytest.mark.parametrize("name", ["constant_drive_circle", "torus_shear_model"])
def test_translation_invariant_blocks_take_bloch(routes, name, backend):
    model = fs.build_model(name, REGISTERED[name])
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
    report = fs.eigenvalue_spectrum(op)
    assert routes == [("bloch", n) for n in model.mesh.cell_counts]
    assert fs.oracle_spectrum_residual(model, report, backend) <= fs.models._ORACLE_REL_TOL


def bloch_and_dense(op, k, routes):
    """The degree-``k`` eigenvalues by the bloch route (asserted taken) and by
    dense ``eigvals`` of the same block, and the larger spectral radius."""
    from flowspec.spectral import _block_eigenvalues

    routes.clear()
    bloch = _block_eigenvalues(op, k)
    assert routes == [("bloch", len(op.block(k)))]
    dense = scipy.linalg.eigvals(op.block(k))
    return bloch, dense, max(np.max(np.abs(bloch)), np.max(np.abs(dense)))


SHEAR_DRAWS = np.random.default_rng(11).uniform((0.5, 0.25), (1.5, 0.75), size=(3, 2))


@pytest.mark.parametrize("n", [8, 12, 24])
def test_bloch_agrees_with_dense_eigvals_on_the_torus(routes, n):
    from flowspec.spectral import _match_nearest

    for ax, ay in SHEAR_DRAWS:
        model = fs.build_model("torus_shear_model",
                               {"ax": ax, "ay": ay, "epsilon": 0.3, "n": n})
        op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
        for k in op.degrees():
            bloch, dense, radius = bloch_and_dense(op, k, routes)
            assert len(bloch) == len(dense)
            for a, b in ((bloch, dense), (dense, bloch)):
                assert np.all(_match_nearest(a, b, 1e-13 * radius)[0] >= 0)


@pytest.mark.parametrize("backend", ["fd", "fourier"])
def test_bloch_agrees_with_dense_eigvals_on_the_circle(routes, backend):
    from flowspec.spectral import _match_nearest

    model = fs.build_model("constant_drive_circle", {"a": 1.3, "epsilon": 0.2, "n": 64})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
    for k in op.degrees():
        bloch, dense, radius = bloch_and_dense(op, k, routes)
        for a, b in ((bloch, dense), (dense, bloch)):
            assert np.all(_match_nearest(a, b, 1e-13 * radius)[0] >= 0)


def with_block(op, k, block):
    import dataclasses

    blocks = list(op.blocks)
    blocks[k] = block
    return dataclasses.replace(op, blocks=tuple(blocks))


@pytest.mark.parametrize("backend", ["fd", "fourier"])
def test_a_perturbed_row_far_from_the_origin_falls_through_to_geev(routes, backend):
    model = fs.build_model("torus_shear_model", REGISTERED["torus_shear_model"])
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
    sizes = model.mesh.cell_counts
    cells = np.arange(sizes[1]).reshape(model.mesh.cochain_shape(1))
    # one entry in the last row (the last slab the invariance test reads), in
    # the family-1 origin row only (the stencil it compares every row with),
    # and in a row of a middle slab; fd must be exact, so one ulp is enough
    for row in (cells[-1, -1, -1], cells[1, 0, 0], cells[0, 4, 3]):
        bad = op.block(1).copy()
        if backend == "fd":
            bad[row, row] = np.nextafter(bad[row, row], np.inf)
        else:
            bad[row, row] += 1e-9 * np.max(np.abs(bad))
        routes.clear()
        fs.eigenvalue_spectrum(with_block(op, 1, bad))
        assert routes == [("bloch", sizes[0]), ("eigvals", sizes[1]), ("bloch", sizes[2])], row


@pytest.mark.parametrize("backend", ["fd", "fourier"])
def test_the_invariance_test_reads_every_row_chunk_on_the_circle(backend):
    from flowspec import spectral

    # n = 256 one-cell slabs: the test compares them 64 rows at a time
    model = fs.build_model("constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 256})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
    block = op.block(0)
    assert spectral._INVARIANCE_CHUNK // 256 == 64
    symbols = spectral._bloch_symbols(model.mesh, 0, block, exact=backend == "fd")
    np.testing.assert_array_equal(symbols, np.fft.fft(block[0])[:, None, None])
    # the origin row, a row inside the third chunk, the last row; then a NaN
    for row in (0, 130, 255):
        bad = block.copy()
        if backend == "fd":
            bad[row, row] = np.nextafter(bad[row, row], np.inf)
        else:
            bad[row, row] += 1e-9 * np.max(np.abs(bad))
        assert spectral._bloch_symbols(model.mesh, 0, bad, exact=backend == "fd") is None, row
    bad = block.copy()
    bad[200, 3] = np.nan
    assert spectral._bloch_symbols(model.mesh, 0, bad, exact=backend == "fd") is None


@pytest.mark.parametrize("name, params, k", [
    ("torus_shear_model", {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 24}, 1),
    ("constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 1024}, 0),
], ids=["torus_n24_degree1", "circle_n1024_degree0"])
def test_the_invariance_test_holds_no_block_sized_temporary(name, params, k):
    import tracemalloc

    from flowspec.spectral import _bloch_symbols

    model = fs.build_model(name, params)
    block = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise).block(k)
    tracemalloc.start()
    try:
        assert _bloch_symbols(model.mesh, k, block, exact=True) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block.nbytes / 8, f"peak {peak / block.nbytes:.2f}x the block"


def test_csv_pair_ids_do_not_depend_on_the_solver(routes, monkeypatch):
    import flowspec.spectral
    from flowspec.spectral import _csv_flags

    # bloch and geev agree to roundoff only; conjugates that are degenerate
    # to roundoff must still pair the same way
    model = fs.build_model("torus_shear_model", {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 12})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    bloch = _csv_flags(fs.eigenvalue_spectrum(op))
    monkeypatch.setattr(flowspec.spectral, "_bloch_symbols", lambda *args, **kwargs: None)
    dense = _csv_flags(fs.eigenvalue_spectrum(op))
    assert [solver for solver, _ in routes] == ["bloch"] * 3 + ["eigvals"] * 3
    for a, b in zip(bloch, dense):
        np.testing.assert_array_equal(a, b)


def test_the_bloch_route_reads_the_stencil_not_the_model(routes, tmp_path, monkeypatch):
    import flowspec.reporting

    # one origin-row entry of degree 0 moved, and every translate with it: the
    # block stays invariant, so bloch solves it and the oracle must notice
    def corrupted(*args, _assemble=flowspec.reporting.assemble_hamiltonian, **kwargs):
        op = _assemble(*args, **kwargs)
        bad = op.block(0).copy()
        cells = np.arange(len(bad)).reshape(op.mesh.grid_shape)
        bad[cells.ravel(), np.roll(cells, -2, axis=1).ravel()] += 0.1
        assert np.count_nonzero(bad[0] != op.block(0)[0]) == 1
        return with_block(op, 0, bad)

    monkeypatch.setattr(flowspec.reporting, "assemble_hamiltonian", corrupted)
    cfg = fs.RunConfig.from_dict({
        "model": {"name": "torus_shear_model", "params": REGISTERED["torus_shear_model"]},
        "tasks": ["spectrum"],
    })
    result = fs.run(cfg, out_dir=tmp_path).data["results"]["spectrum"]
    assert [solver for solver, _ in routes] == ["bloch"] * 3
    assert result["oracle_satisfied"] is False


def mpmath_smallest_pair(block, dps=50, steps=12, shift=-1e-3):
    """The two eigenvalues nearest zero of the generator with ``block``'s
    off-diagonal rates, by subspace inverse iteration at ``dps`` digits.

    The diagonal is the exact negative off-diagonal row sum: the degree-0
    generator kills constants, and the float64 diagonal misses that by
    roundoff, which alone would move a 1e-21 gap by 1e-16.  Below
    ``shift < 0`` the shifted block is diagonally dominant, so its LU needs
    no pivoting.
    """
    mp = pytest.importorskip("mpmath")
    n = len(block)
    with mp.workdps(dps):
        a = [[mp.mpf(float(x)) for x in row] for row in block]
        for i in range(n):
            a[i][i] = -mp.fsum(a[i][j] for j in range(n) if j != i)
        lu = [[x - shift if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]
        for p in range(n):  # Doolittle, skipping the zeros of the stencil
            for i in range(p + 1, n):
                if lu[i][p]:
                    lu[i][p] /= lu[p][p]
                    for j in range(p + 1, n):
                        if lu[p][j]:
                            lu[i][j] -= lu[i][p] * lu[p][j]

        def solve(b):
            y = list(b)
            for i in range(n):
                y[i] -= mp.fsum(lu[i][j] * y[j] for j in range(i) if lu[i][j])
            for i in reversed(range(n)):
                y[i] -= mp.fsum(lu[i][j] * y[j] for j in range(i + 1, n) if lu[i][j])
                y[i] /= lu[i][i]
            return y

        def dot(u, v):
            return mp.fsum(s * t for s, t in zip(u, v))

        def unit(u):
            norm = mp.sqrt(dot(u, u))
            return [t / norm for t in u]

        x, y = [mp.mpf(1)] * n, [mp.mpf(i) / n for i in range(n)]
        for _ in range(steps):
            x, y = unit(solve(x)), solve(y)
            c = dot(x, y)
            y = unit([t - c * s for s, t in zip(x, y)])
        ax, ay = ([mp.fsum(row[j] * u[j] for j in range(n) if row[j]) for row in a]
                  for u in (x, y))
        ritz = mp.eig(mp.matrix([[dot(x, ax), dot(x, ay)], [dot(y, ax), dot(y, ay)]]),
                      left=False, right=False)
        return sorted((complex(z) for z in ritz), key=abs)


@pytest.mark.parametrize("depth, n, gap", [(12.0, 64, 2.15443649e-21),
                                           (8.0, 128, 1.26929747e-14)])
def test_tunnelling_gap_against_mpmath(depth, n, gap):
    from flowspec.spectral import _block_eigenvalues

    model = fs.build_model("langevin_double_well_circle",
                           {"depth": depth, "epsilon": 0.05, "n": n})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    zero, ref = mpmath_smallest_pair(op.block(0))
    assert abs(zero) <= 1e-45 and abs(ref.imag) <= 1e-45
    lam = np.sort(np.abs(_block_eigenvalues(op, 0)))
    assert lam[0] <= 1e-30 * lam[-1]  # the zero mode is exact by construction
    assert abs(ref.real - gap) <= 1e-8 * gap
    assert abs(lam[1] - ref.real) <= 1e-6 * ref.real


def ground_state(name, backend):
    """Operator, vector-free report and top-degree ground index of a registered model."""
    model = fs.build_model(name, REGISTERED[name])
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
    values = fs.eigenvalue_spectrum(op)
    top = model.mesh.dimension
    return op, values, top, int(np.argmin(np.abs(values.eigenvalues(top))))


@pytest.mark.parametrize("backend", ["fd", "fourier"])
@pytest.mark.parametrize("name", sorted(REGISTERED))
def test_null_vector_agrees_with_full_spectrum(name, backend):
    from flowspec.spectral import _null_vector

    op, values, top, ground = ground_state(name, backend)
    v = _null_vector(op, top, values.eigenvalues(top)[ground], values.spectral_radius)
    full = fs.full_spectrum(op)
    r = full.right[top][:, np.argmin(np.abs(full.eigenvalues(top)))]
    assert np.max(np.abs(v - r)) <= 1e-9 * np.max(np.abs(r))


@pytest.mark.parametrize("bad", [lambda lu, b, **kw: np.arange(1.0, len(b) + 1),
                                 lambda lu, b, **kw: np.full(len(b), np.nan)],
                         ids=["wrong-vector", "nan"])
def test_null_vector_residual_guard(monkeypatch, bad):
    from flowspec.spectral import _null_vector

    op, values, top, ground = ground_state("langevin_double_well_circle", "fd")
    monkeypatch.setattr(scipy.linalg, "lu_solve", bad)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(fs.NumericalError, match="degree-1 block"):
            _null_vector(op, top, values.eigenvalues(top)[ground], values.spectral_radius)


def test_verdicts_on_synthetic_multisets():
    unbroken = fs.synthetic_spectrum([0.0, 0.5 + 0.3j, 0.5 - 0.3j, 1.2])
    assert fs.classify_phase(unbroken).verdict == "unbroken-Markovian"

    broken = fs.synthetic_spectrum([0.0, 0.7j, -0.7j, 0.4])
    cls = fs.classify_phase(broken)
    assert cls.verdict == "Q-broken"
    assert len(cls.evidence) == 3  # all three surviving modes are reported

    gapped = fs.synthetic_spectrum([1.0, 2.0, 3.0])
    assert fs.classify_phase(gapped).verdict == "indeterminate"


def test_verdict_thresholds_are_relative_to_radius():
    # same multiset at wildly different overall scales, same verdicts
    base = np.array([0.0, 0.5 + 0.3j, 0.5 - 0.3j, 1.2])
    for s in (1e-6, 1.0, 1e6):
        rep = fs.synthetic_spectrum(base * s)
        assert fs.classify_phase(rep).verdict == "unbroken-Markovian"


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, -np.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_synthetic_spectrum_refuses_non_finite_values(bad):
    # one infinite value would make the radius, and every relative threshold, infinite
    with pytest.raises(ValueError, match=re.escape(repr(complex(bad)))):
        fs.synthetic_spectrum([1.0, bad, 2.0, np.nan])


def test_explicit_tau_overrides():
    rep = fs.synthetic_spectrum([0.0, 1e-5, 1.0])
    assert fs.zero_mode_counts(rep, tau0=1e-4) == (2, 0)
    assert fs.zero_mode_counts(rep, tau0=1e-6) == (1, 0)
    with pytest.raises(ValueError):
        fs.classify_phase(rep, tau_gamma=-1.0)


def test_gap_ambiguity_warning():
    rep = fs.synthetic_spectrum([0.0, 3e-8, 1.0])  # 3e-8 = 3*tau0, inside the band
    with pytest.warns(fs.GapAmbiguityWarning):
        idx = fs.witten_index(rep)
    assert idx == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fs.witten_index(rep, tau0=1e-12) == 1  # clean gap, no warning


def test_index_and_counts_on_gradient_double_well():
    model = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.2, "n": 64}
    )
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    report = fs.full_spectrum(op)
    assert fs.zero_mode_counts(report) == (1, 1)
    assert fs.witten_index(report) == 0
    assert fs.classify_phase(report).verdict == "unbroken-Markovian"


def test_nonzero_spectrum_pairs_across_adjacent_degrees():
    _, report = constant_drive_report()
    pairing = fs.susy_pairing_check(report)
    assert pairing.n_bonds == 63
    assert pairing.unpaired == ()
    assert pairing.multiset_equal is True
    assert pairing.max_mismatch < 1e-10 * report.spectral_radius


def test_pairing_on_torus_splits_by_adjacency():
    model = fs.build_model(
        "torus_shear_model",
        {"ax": 1.0, "ay": np.sqrt(2.0), "epsilon": 0.2, "n": 6},
    )
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    report = fs.full_spectrum(op)
    pairing = fs.susy_pairing_check(report)
    assert pairing.unpaired == ()
    # 36 modes at the end degrees (one zero each), 72 in the middle
    # (two zeros): 35 bonds on each adjacency
    assert pairing.bonds_by_adjacency == ((0, 1, 35), (1, 2, 35))


def test_conjugate_closure_of_real_operator():
    _, report = constant_drive_report(n=48)
    for k in range(report.dimension + 1):
        vals = report.eigenvalues(k)
        gaps = np.abs(vals[:, None] - np.conj(vals)[None, :])
        assert gaps.min(axis=1).max() < 1e-10


def test_spectrum_csv_layout(tmp_path):
    _, report = constant_drive_report(n=16)
    path = tmp_path / "spec.csv"
    fs.export_spectrum_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["degree", "index", "gamma", "e", "pair_id", "physical_flag"]
    assert len(rows) == 1 + 32
    body = rows[1:]
    # indices are the deterministic global ordering
    assert [int(r[1]) for r in body] == list(range(32))
    # conjugate partners share a pair id, real modes carry -1
    by_id = {}
    for r in body:
        pid = int(r[4])
        if pid >= 0:
            by_id.setdefault(pid, []).append(float(r[3]))
    for pid, es in by_id.items():
        assert len(es) == 2
        np.testing.assert_allclose(es[0], -es[1], rtol=1e-9)
    # exactly the two stationary modes (one per degree) are flagged physical
    assert sum(int(r[5]) for r in body) == 2

    # torus: degenerate eigenvalues interleave with their conjugates; each
    # pair id still joins one conjugate pair within one degree
    for ax, ay in ((1.2, 0.4), (0.7, 0.6)):
        model = fs.build_model("torus_shear_model",
                               {"ax": ax, "ay": ay, "epsilon": 0.3, "n": 8})
        report = fs.full_spectrum(
            fs.assemble_hamiltonian(model.mesh, model.flow, model.noise))
        path = tmp_path / f"torus-{ax}-{ay}.csv"
        fs.export_spectrum_csv(report, path)
        with open(path, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        tol = 1e-9 * report.spectral_radius
        by_id = {}
        for r in body:
            if int(r[4]) >= 0:
                by_id.setdefault(int(r[4]), []).append((int(r[0]), float(r[2]), float(r[3])))
        assert by_id
        for rows in by_id.values():
            assert len(rows) == 2
            (k0, g0, e0), (k1, g1, e1) = rows
            assert k0 == k1
            assert e0 * e1 < 0 and abs(e0 + e1) <= tol
            assert abs(g0 - g1) <= tol
        assert all(int(r[4]) >= 0 for r in body if abs(float(r[3])) > tol)


def test_match_nearest_greedy_rule():
    from flowspec.spectral import _match_nearest

    # greedy in the order of a: a[0] takes 0.05 first, a[1] gets what is left
    j, dist = _match_nearest([0.0, 0.1], [0.12, 0.05])
    assert j.tolist() == [1, 0]
    np.testing.assert_allclose(dist, [0.05, 0.02])
    # on a tie the first index wins
    j, _ = _match_nearest([1.0, 1.0j], [0.0, 2.0, 1.0j])
    assert j.tolist() == [0, 2]
    # a rejected value consumes nothing; the next one can still take b[0]
    j, dist = _match_nearest([5.0, 1.25], [1.0], tol=0.5)
    assert j.tolist() == [-1, 0]
    assert dist.tolist() == [4.0, 0.25]
    # once b is used up, the rest is rejected at infinite distance
    j, dist = _match_nearest([1.0, 1.0], [1.0])
    assert j.tolist() == [0, -1] and dist[1] == np.inf


@pytest.mark.parametrize("seed", range(40))
def test_cluster_labels_are_the_components_of_all_pairs_within_thr(seed):
    """Against every pair tested directly: lattice points spaced at about
    thr, conjugates, exact repeats, and an occasional non-finite value."""
    from flowspec.spectral import _cluster_labels

    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 80))
    w = (rng.integers(-4, 5, n) + 1j * rng.integers(-4, 5, n)) * 0.5
    w = w + rng.choice([0.0, 1e-13, 1e-9], n) * rng.normal(size=n)
    w = np.concatenate([w, np.conj(w[: n // 3]), w[: n // 5]])
    if seed % 4 == 0 and len(w):
        w[int(rng.integers(len(w)))] = rng.choice([np.nan, np.inf, complex(1.0, -np.inf)])
    for thr in (0.0, 0.5, 0.5 * (1 + 2e-16), 0.5 * (1 - 2e-16), 0.25, 1e-10):
        with np.errstate(invalid="ignore"):  # inf - inf
            near = np.abs(w[:, None] - w[None, :]) <= thr
        want = np.arange(len(w))
        while True:  # least index over the transitive closure
            low = np.minimum(want, np.min(np.where(near, want, len(w)), axis=1, initial=len(w)))
            if np.array_equal(low, want):
                break
            want = low
        assert np.array_equal(_cluster_labels(w, thr), want)


def _greedy_reference(a, b, tol=np.inf):
    """The greedy rule as a plain loop: for each a[i] in order, the nearest
    free b[j] (first j on a tie), taken when within tol."""
    b = np.asarray(b, dtype=complex)
    free = np.ones(len(b), dtype=bool)
    match = np.full(len(a), -1)
    dist = np.full(len(a), np.inf)
    for i, x in enumerate(a):
        cand = np.flatnonzero(free)
        if not len(cand):
            break
        d = np.abs(b[cand] - x)
        j = int(np.argmin(d))
        dist[i] = d[j]
        if d[j] <= tol:
            match[i] = cand[j]
            free[cand[j]] = False
    return match, dist


def test_match_nearest_is_the_greedy_loop_on_planted_clusters():
    """Balanced clusters of multiplicity 1-4 (real-axis, conjugate-symmetric
    or general centres, members jittered by <= 1e-13 of the scale, a and b
    shuffled independently) are matched exactly as the plain loop does."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from flowspec.spectral import _match_nearest

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        centres=st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 6), st.booleans(),
                                   st.integers(1, 4)),
                         min_size=1, max_size=12, unique_by=lambda c: c[:2]),
        scale=st.sampled_from([1.0, 1e-3, 37.5, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(centres, scale, seed):
        rng = np.random.default_rng(seed)

        def members():
            values = []
            for p, q, conjugate, m in centres:
                jitter = rng.uniform(-1e-13, 1e-13, (m, 2)) @ [1, 1j]
                z = (complex(p, q) / 6 + jitter) * scale
                if q == 0:
                    z = z.real + 0j  # on the real axis
                values.append(z)
                if q and conjugate:
                    values.append(np.conj(z))
            return rng.permutation(np.concatenate(values))

        a, b = members(), members()
        for tol in (np.inf, 1e-8 * scale):
            got, want = _match_nearest(a, b, tol), _greedy_reference(a, b, tol)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    check()


def test_match_nearest_unbalanced_cluster_runs_after_the_balanced_ones():
    from flowspec.spectral import _match_nearest

    # {1, 1 | 1} holds more a's than b's; {2 | 2} is tight and balanced, so
    # its b goes to its own a first, and the second 1 finds no free b
    j, dist = _match_nearest([1.0, 1.0, 2.0], [1.0, 2.0])
    assert j.tolist() == [0, -1, 1] and dist.tolist() == [0.0, np.inf, 0.0]
    # the plain loop hands the 2 to the second 1 instead
    j, dist = _greedy_reference([1.0, 1.0, 2.0], [1.0, 2.0])
    assert j.tolist() == [0, 1, -1] and dist.tolist() == [0.0, 1.0, np.inf]


def test_match_nearest_is_the_greedy_loop_on_torus_spectra():
    from flowspec.spectral import _match_nearest

    # the oracle against the computed spectrum, and each degree's conjugates
    model = fs.build_model("torus_shear_model", {"ax": 1.2, "ay": 0.4, "epsilon": 0.3, "n": 8})
    report = fs.eigenvalue_spectrum(
        fs.assemble_hamiltonian(model.mesh, model.flow, model.noise))
    scale = max(report.spectral_radius, 1.0)
    for k in range(3):
        cases = [(model.oracle("fd", k), report.eigenvalues(k), np.inf)]
        mine = (report.degree == k)
        pos, neg = mine & (report.eigenvalue.imag > 0), mine & (report.eigenvalue.imag < 0)
        cases.append((np.conj(report.centroid[pos]), report.centroid[neg], 1e-8 * scale))
        for a, b, tol in cases:
            got, want = _match_nearest(a, b, tol), _greedy_reference(a, b, tol)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
