"""Non-normal eigendecomposition, phase verdicts, index counting, pairing."""

import csv
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

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


def test_cluster_local_residuals_are_at_most_the_dense_gram_ones(monkeypatch):
    # the cap is read at call time: at 0 every block takes the cluster-local
    # residual, which reads a sub-matrix of the Gram matrix that the dense
    # residual reads whole; BLAS rounds the sub-product's entries apart from
    # the whole product's, by a few ulp
    model = fs.build_model("torus_shear_model", {"ax": 1.2, "ay": 0.4, "epsilon": 0.3, "n": 8})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    dense = fs.full_spectrum(op)
    monkeypatch.setattr(fs.spectral, "_GRAM_CAP", 0)
    local = fs.full_spectrum(op)
    np.testing.assert_array_equal(local.eigenvalue, dense.eigenvalue)
    assert np.all(local.residual <= dense.residual + 8 * np.finfo(float).eps)
    assert np.any(local.residual < dense.residual)
    assert max(local.max_residual(), dense.max_residual()) <= 1e-10


def test_capacity_cap(monkeypatch):
    import flowspec.hamiltonian

    ops = {}
    for name, params in [("constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 16}),
                         ("tilted_langevin_circle",
                          {"depth": 1.0, "tilt": 0.3, "epsilon": 0.2, "n": 16})]:
        model = fs.build_model(name, params)
        ops[name] = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    # the cap is read at call time; the bloch route makes nothing dense, so
    # the constant drive is not capped
    monkeypatch.setattr(flowspec.hamiltonian, "_DENSE_CAP", 8)
    assert fs.eigenvalue_spectrum(ops["constant_drive_circle"]).block_sizes == (16, 16)
    # the tilted circle's blocks take dense routes: refused before any is solved,
    # and full_spectrum makes every block dense, so it is refused on both
    for solver in ("eig", "eigvals", "eigvalsh", "svdvals"):
        monkeypatch.setattr(scipy.linalg, solver, None)
    with pytest.raises(fs.CapacityError,
                       match=re.escape("total unknowns 32 exceed the dense-solver cap 8 "
                                       "(blocks: (16, 16))")):
        fs.eigenvalue_spectrum(ops["tilted_langevin_circle"])
    for op in ops.values():
        with pytest.raises(fs.CapacityError, match="cap 8"):
            fs.full_spectrum(op)


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


def with_stored_entry(block, row, col, value):
    """CSR ``block`` with one more stored entry (row, col) = ``value``, left
    unsummed with any entry already stored there."""
    at = block.indptr[row + 1]
    indptr = block.indptr.copy()
    indptr[row + 1:] += 1
    return scipy.sparse.csr_matrix((np.insert(block.data, at, value),
                                    np.insert(block.indices, at, col), indptr),
                                   shape=block.shape)


def off_diagonal_entry(block, row):
    """The column of the first nonzero entry of ``row`` off the diagonal."""
    lo, hi = block.indptr[row], block.indptr[row + 1]
    return next(c for c, v in zip(block.indices[lo:hi], block.data[lo:hi]) if c != row and v != 0)


def duplicate_variants(block, row, where):
    """(name, CSR block, invariant?) for a second stored entry in ``row``:
    one that splits an entry into halves, and one that moves it."""
    col = off_diagonal_entry(block, row)
    half = block.copy()
    half[row, col] = block[row, col] / 2
    return [
        (f"{where}-duplicate-halves", with_stored_entry(half, row, col, block[row, col] / 2), True),
        (f"{where}-duplicate-moves-entry",
         with_stored_entry(block, row, col, 1e-3 * np.max(np.abs(block.data))), False),
    ]


def csr_variants(block):
    """(name, CSR block, invariant?) for edits to the last row of ``block``,
    a row far from the origin rows the stencil is read from, and for
    duplicates in row 0, the stencil row of family 0."""
    row = block.shape[0] - 1
    lo, hi = block.indptr[row], block.indptr[row + 1]
    cols = block.indices[lo:hi]
    stencil = off_diagonal_entry(block, row)
    off = next(c for c in range(block.shape[1]) if c not in cols)

    ulp = block.copy()
    ulp[row, row] = np.nextafter(ulp[row, row], np.inf)
    removed = block.copy()
    removed[row, stencil] = 0.0
    removed.eliminate_zeros()
    assert removed.nnz == block.nnz - 1
    nan = block.copy()
    nan.data[lo] = np.nan
    return [
        ("one-ulp", ulp, False),
        ("stencil-entry-removed", removed, False),
        ("stored-zero-off-stencil", with_stored_entry(block, row, off, 0.0), True),
        ("nan", nan, False),
        *duplicate_variants(block, row, "last-row"),
        *duplicate_variants(block, 0, "origin-row"),
    ]


@pytest.mark.parametrize("name, params, k", [
    ("torus_shear_model", {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 8}, 1),
    ("constant_drive_circle", {"a": 1.0, "epsilon": 0.2, "n": 16}, 0),
], ids=["torus_n8_degree1", "circle_n16_degree0"])
def test_the_invariance_test_gives_one_verdict_on_csr_and_dense(name, params, k):
    from flowspec.spectral import _bloch_symbols

    model = fs.build_model(name, params)
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    block = op.blocks[k]
    assert scipy.sparse.issparse(block)
    reference = _bloch_symbols(model.mesh, k, block.toarray(), exact=True)
    np.testing.assert_array_equal(_bloch_symbols(model.mesh, k, block, exact=True), reference)
    for case, bad, invariant in csr_variants(block):
        nnz = bad.nnz
        summed = bad.copy()
        summed.sum_duplicates()
        verdicts = [_bloch_symbols(model.mesh, k, m, exact=True)
                    for m in (bad, summed, bad.toarray())]
        assert [v is not None for v in verdicts] == [invariant] * 3, case
        assert bad.nnz == nnz, case  # the block read is left as it was
        if invariant:
            for v in verdicts:
                np.testing.assert_array_equal(v, reference)


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
    LAPACK solver (``eigvals_banded`` for a banded symmetric form),
    ``band_svdvals`` for a banded pair factor, or ``bloch`` for a batched
    solve of n0 symbols of size f."""
    import flowspec.spectral

    calls = []
    for solver in ("eigvals", "eigvalsh", "svdvals", "eigvals_banded"):
        def recorded(a, *args, _name=solver, _solve=getattr(scipy.linalg, solver), **kwargs):
            calls.append((_name, a.shape[1]))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, solver, recorded)

    def banded(k, m, band, kl, _solve=flowspec.spectral._band_svdvals):
        calls.append(("band_svdvals", band.shape[1]))
        return _solve(k, m, band, kl)
    monkeypatch.setattr(flowspec.spectral, "_band_svdvals", banded)

    def batched(a, _solve=np.linalg.eigvals):
        calls.append(("bloch", a.shape[0] * a.shape[-1]))
        return _solve(a)
    monkeypatch.setattr(np.linalg, "eigvals", batched)
    return calls


def torus_potential_operator(n, depth, eps, wells=1):
    """fd generator of W = depth (cos(wells x) + cos(wells y)) on an n x n torus."""
    mesh = fs.build_torus_grid(n, n, 2 * np.pi, 2 * np.pi)
    xy = np.asarray(mesh.vertices)
    noise = fs.NoiseSpec(eps)
    w = depth * (np.cos(wells * xy[:, 0]) + np.cos(wells * xy[:, 1]))
    return fs.assemble_hamiltonian(mesh, fs.langevin_flow(mesh, w, noise), noise)


def test_gradient_blocks_take_the_symmetric_route(routes):
    # circle double well: degree 0 factored, degree 1 symmetric, both banded
    # on the folded cycle; no geev and no dense solve
    model = fs.build_model("langevin_double_well_circle",
                           REGISTERED["langevin_double_well_circle"])
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    values = fs.eigenvalue_spectrum(op)
    assert routes == [("band_svdvals", 48), ("eigvals_banded", 48)]
    # the same blocks through geev agree within roundoff of the radius
    tol = 1e-12 * values.spectral_radius
    for k in op.degrees():
        a, b = values.eigenvalues(k), scipy.linalg.eigvals(op.block(k))
        gaps = np.abs(a[:, None] - b[None, :])
        assert gaps.min(axis=1).max() <= tol and gaps.min(axis=0).max() <= tol
    assert not np.any(values.eigenvalue.imag)
    routes.clear()

    # torus potential: degrees 0 and 2 are symmetric under a measured diagonal
    # similarity; degree 1 couples some pairs with opposite signs; a 2-D
    # block is not banded, so the solves stay dense
    fs.eigenvalue_spectrum(torus_potential_operator(6, 0.5, 0.3))
    assert routes == [("svdvals", 36), ("eigvals", 72), ("eigvalsh", 36)]


@pytest.mark.parametrize("shape", ["circle", "torus"])
def test_symmetric_form_of_a_csr_block_is_the_dense_form(shape):
    from flowspec.pattern import _diagonal_similarity

    if shape == "circle":
        name = "langevin_double_well_circle"
        model = fs.build_model(name, REGISTERED[name])
        op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    else:
        op = torus_potential_operator(6, 0.5, 0.3)
    for k in op.degrees():
        stored, dense = _diagonal_similarity(op.blocks[k]), _diagonal_similarity(op.block(k))
        if (shape, k) == ("torus", 1):
            assert stored is None and dense is None
            continue
        np.testing.assert_array_equal(stored[0], dense[0])
        assert scipy.sparse.issparse(stored[1]) and scipy.sparse.issparse(dense[1])
        np.testing.assert_array_equal(stored[1].toarray(), dense[1].toarray())
    s, sym = _diagonal_similarity(op.blocks[0])
    np.testing.assert_array_equal(gradient_factor(s, sym).toarray(),
                                  gradient_factor(s, sym.toarray()).toarray())


def test_overflowing_weights_leave_the_symmetric_route(routes):
    from flowspec.pattern import _diagonal_similarity

    def chain(m):
        # a path whose rates are 1e-150 one way and 1 the other: reversible,
        # with weights 1e75 apart per step
        return scipy.sparse.diags([np.full(m - 1, -1e-150), np.ones(m), np.full(m - 1, -1.0)],
                                  [1, 0, -1], format="csr")

    assert _diagonal_similarity(chain(4)) is not None
    # six vertices need weights beyond the float range: a non-finite S fails
    # the asymmetry test
    assert _diagonal_similarity(chain(6)) is None
    # W = 400 cos phi saturates the edge rates: one direction of each pair is
    # a roundoff-sized positive rate, so the sign test refuses every degree
    mesh, noise = fs.build_circle_grid(16, 2 * np.pi), fs.NoiseSpec(0.2)
    w = 400.0 * np.cos(np.asarray(mesh.vertices))
    op = fs.assemble_hamiltonian(mesh, fs.langevin_flow(mesh, w, noise), noise)
    for k in op.degrees():
        assert _diagonal_similarity(op.blocks[k]) is None, k
    fs.eigenvalue_spectrum(op)
    assert routes == [("eigvals", 16), ("eigvals", 16)]


def gradient_factor(s, sym):
    """The pair factor (CSR) of the symmetric form ``sym``, dense or CSR, for
    the weights ``s``, or None: ``_Pattern.factor`` on a record of the form's
    own pattern."""
    from flowspec.pattern import _Pattern, _stored

    h = _stored(sym)
    pattern = _Pattern(h, np.arange(h.shape[0]))
    b = pattern.factor(s, h.data[pattern.folded[0]])
    return None if b is None else pattern.factor_matrix(b)


def double_well_symmetric_block(n=64):
    """Model, operator, measured weights and symmetric degree-0 form of the double well."""
    from flowspec.pattern import _diagonal_similarity

    model = fs.build_model("langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.2, "n": n})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    s, sym = _diagonal_similarity(op.blocks[0])
    return model, op, s, sym.toarray()


def test_gradient_factor_is_the_dense_edge_factor():
    model, op, s, sym = double_well_symmetric_block()
    # the oracle: s = e^{W}, whose square e^{2W} is the left null vector of H_0
    v = np.exp(model.flow.w)
    v = v / np.linalg.norm(v)
    np.testing.assert_allclose(s / np.linalg.norm(s), v, rtol=1e-13)
    h = op.block(0)
    oracle = v[:, None] * h / v[None, :]
    # one row per edge, its vertices in order (i < j), the rows in (i, j) order
    pairs = np.sort(model.mesh.edges, axis=1)
    i, j = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].T
    root, rows = np.sqrt(-oracle[i, j] / (v[i] * v[j])), np.arange(len(i))
    reference = np.zeros((len(i), len(v)))
    reference[rows, i] = root * v[j]
    reference[rows, j] = -root * v[i]
    factor = gradient_factor(s, sym)
    assert scipy.sparse.issparse(factor)
    np.testing.assert_allclose(factor.toarray(), reference, rtol=1e-12, atol=0)


def flip_coupling(s, mesh):
    a, b = mesh.edges[5]
    s[a, b] = s[b, a] = -s[a, b]


def move_diagonal(s, mesh):
    s[7, 7] *= 1 + 1e-9


def off_stencil_pair(s, mesh):
    s[0, 2] = s[2, 0] = 1e-9 * np.max(np.abs(s))


def nan_diagonal(s, mesh):
    s[3, 3] = np.nan


def unstored_diagonal(s, mesh):
    s[7, 7] = 0.0  # B^T B is nonzero there, off the form's pattern


@pytest.mark.parametrize("perturb", [flip_coupling, move_diagonal, off_stencil_pair, nan_diagonal,
                                     unstored_diagonal],
                         ids=["non-positive-coupling", "diagonal", "off-stencil", "nan",
                              "unstored-diagonal"])
def test_gradient_factor_refusals(perturb):
    model, _, s, sym = double_well_symmetric_block()
    perturb(sym, model.mesh)
    assert gradient_factor(s, sym) is None


def test_measured_weights_survive_permutation_and_components():
    from flowspec.pattern import _diagonal_similarity

    model, op, s, sym = double_well_symmetric_block()
    w = model.flow.w

    def oracle_ratio(weights, w):
        # s^2 is e^{2W} up to one factor
        ratio = weights ** 2 / np.exp(2 * w)
        return np.max(np.abs(ratio / ratio[0] - 1))

    assert oracle_ratio(s, w) <= 1e-13
    # a random relabelling of the vertices
    perm = np.random.default_rng(7).permutation(len(w))
    permuted = op.blocks[0][perm][:, perm]
    s_perm, sym_perm = _diagonal_similarity(permuted)
    assert oracle_ratio(s_perm, w[perm]) <= 1e-13
    np.testing.assert_allclose(sym_perm.toarray(), sym[perm][:, perm], rtol=1e-12,
                               atol=1e-14 * np.max(np.abs(sym)))
    # two components, each weighed up to its own factor
    other = fs.build_model("langevin_double_well_circle", {"depth": 2.0, "epsilon": 0.2, "n": 16})
    other_op = fs.assemble_hamiltonian(other.mesh, other.flow, other.noise)
    both = scipy.sparse.block_diag([op.blocks[0], other_op.blocks[0]], format="csr")
    s_both, _ = _diagonal_similarity(both)
    assert oracle_ratio(s_both[:len(w)], w) <= 1e-13
    assert oracle_ratio(s_both[len(w):], other.flow.w) <= 1e-13


def test_circulation_and_stored_zeros_by_rule():
    from flowspec.pattern import _diagonal_similarity

    # the tilted circle's drive circulates: its pattern is symmetric and its
    # rates one-signed, but the loop leaves an asymmetry no weight removes
    tilted = fs.build_model("tilted_langevin_circle", REGISTERED["tilted_langevin_circle"])
    op = fs.assemble_hamiltonian(tilted.mesh, tilted.flow, tilted.noise)
    h = op.blocks[0]
    assert (h.multiply(h.T) > 0).count_nonzero() == h.count_nonzero()
    assert _diagonal_similarity(h) is None
    # a stored zero is no coupling: the pattern, weights and form are those
    # of the block without it
    _, op, s, sym = double_well_symmetric_block()
    h = op.blocks[0].tocoo()
    block = scipy.sparse.csr_matrix((np.append(h.data, 0.0), (np.append(h.row, 0),
                                                               np.append(h.col, 5))), shape=h.shape)
    assert block.nnz == h.nnz + 1 and block[0, 5] == 0 and block[5, 0] == 0
    s_stored, sym_stored = _diagonal_similarity(block)
    np.testing.assert_array_equal(s_stored, s)
    np.testing.assert_array_equal(sym_stored.toarray(), sym)
    # a block that stores nothing is its own symmetric form
    s_empty, sym_empty = _diagonal_similarity(scipy.sparse.csr_matrix((3, 3)))
    assert np.array_equal(s_empty, np.ones(3)) and sym_empty.nnz == 0


@pytest.mark.parametrize("depth", [1.0, 8.0])
def test_four_well_torus_top_degree_takes_eigvalsh(depth):
    from flowspec.spectral import _block_route, _solve

    op = torus_potential_operator(24, depth, 0.2, wells=2)
    route = _block_route(op, 2)
    assert route[0] == "eigvalsh"
    values = _solve(2, route)
    h = op.block(2)
    radius = np.max(np.abs(values))
    # the spectrum's invariants, read from the entries: tr H and tr H^2
    assert abs(np.sum(values) - np.trace(h)) <= 1e-12 * len(h) * radius
    assert abs(np.sum(values ** 2) - np.sum(h * h.T)) <= 1e-12 * len(h) * radius ** 2
    if depth == 1.0:
        # geev agrees while the block is well conditioned; at depth 8 the
        # weights span 11 decades, and geev's error grows with them
        dense = scipy.linalg.eigvals(h)
        gaps = np.abs(values[:, None] - dense[None, :])
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-12 * radius


def test_zero_flow_icosphere_takes_the_symmetric_routes(routes):
    sphere = fs.icosphere(2)
    op = fs.assemble_hamiltonian(sphere, fs.zero_flow(sphere), fs.NoiseSpec(1.0))
    report = fs.eigenvalue_spectrum(op)
    assert routes == [("svdvals", 162), ("eigvalsh", 480), ("eigvalsh", 320)]
    assert fs.zero_mode_counts(report) == (1, 0, 1)


def _double_well_384(backend):
    model = fs.build_model("langevin_double_well_circle",
                           {"depth": 1.0, "epsilon": 0.2, "n": 384})
    return fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)


@pytest.mark.parametrize("operator, want", [
    (lambda: _double_well_384("fd"), ["band_svdvals", "eigvals_banded"]),
    (lambda: _double_well_384("fourier"), ["eigvals", "eigvals"]),
    (lambda: torus_potential_operator(24, 1.0, 0.2, wells=2), ["svdvals", "eigvals", "eigvalsh"]),
], ids=["double-well-fd", "double-well-fourier", "four-well-torus"])
def test_routes_are_measured_from_the_entries(operator, want):
    # a diagonal similarity where one exists (a reversible chain), whatever
    # the flow declares; fourier gradient blocks have none
    from flowspec.spectral import _block_route

    op = operator()
    assert [_block_route(op, k)[0] for k in op.degrees()] == want


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
    from flowspec.spectral import _block_route, _solve

    routes.clear()
    bloch = _solve(k, _block_route(op, k))
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


@pytest.mark.parametrize("backend, k", [("fd", 0), ("fourier", 1)])
def test_the_diagonal_condition_refuses_a_well_before_the_stencil(monkeypatch, backend, k):
    # the O(n) diagonal condition refuses no invariant block: the constant
    # drive and the shear torus still take bloch at every degree.  A double
    # well block whose diagonal varies (degree 0 on fd, 1 on fourier; the
    # other degree's is constant) is refused before the stencil is read, and
    # so before the chunked entrywise test
    import flowspec.spectral
    from flowspec.spectral import _bloch_symbols, _block_route

    for name in ("constant_drive_circle", "torus_shear_model"):
        model = fs.build_model(name, REGISTERED[name])
        op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
        assert [_block_route(op, k).name for k in op.degrees()] == ["bloch"] * len(op.blocks)
    name = "langevin_double_well_circle"
    model = fs.build_model(name, REGISTERED[name])
    block = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend).blocks[k]

    def unread(matrix):
        raise AssertionError("the stencil was read")

    monkeypatch.setattr(flowspec.spectral, "_dense", unread)
    assert _bloch_symbols(model.mesh, k, block, exact=backend == "fd") is None


@pytest.mark.parametrize("name", ["langevin_double_well_circle", "tilted_langevin_circle"])
def test_the_row_sum_condition_refuses_a_degree_one_well_before_the_stencil(monkeypatch, name):
    # a well's degree-1 fd block has a constant diagonal, which the diagonal
    # condition passes, but its row sums spread by about 1.6, far past their
    # roundoff bound: it is refused with no stencil read.  The constant drive
    # and the shear torus still take bloch on either backend, reading each
    # block's stencil once
    import flowspec.spectral
    from flowspec.spectral import _bloch_symbols, _block_route

    reads = []
    dense = flowspec.spectral._dense
    monkeypatch.setattr(flowspec.spectral, "_dense", lambda m: reads.append(m) or dense(m))
    model = fs.build_model(name, REGISTERED[name])
    block = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise).blocks[1]
    assert np.all(block.diagonal() == block.diagonal()[0])
    assert _bloch_symbols(model.mesh, 1, block, exact=True) is None
    assert reads == []
    for invariant in ("constant_drive_circle", "torus_shear_model"):
        model = fs.build_model(invariant, REGISTERED[invariant])
        for backend in ("fd", "fourier"):
            op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise, backend)
            reads.clear()
            assert [_block_route(op, k).name for k in op.degrees()] == ["bloch"] * len(op.blocks)
            assert len(reads) == len(op.blocks)


def assert_same_route(cached, fresh):
    """Two route records with the same name, and bitwise the same weights and matrix."""
    assert cached.name == fresh.name
    if fresh.weights is None:
        assert cached.weights is None
    else:
        assert cached.weights.tobytes() == fresh.weights.tobytes()
    pair = [cached.matrix, fresh.matrix]
    if fresh.name == "band_svdvals":  # (rows, band, kl)
        assert cached.matrix[::2] == fresh.matrix[::2]
        pair = [m[1] for m in pair]
    a, b = (m.toarray() if scipy.sparse.issparse(m) else m for m in pair)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_cached_pattern_record_plans_as_a_fresh_one():
    # every level of a sweep, planned through the records of the levels
    # before it, routes as a plan with no record does, bit for bit: on a
    # double well (banded factor and form), a tilted circle (eigvals), a
    # 12 x 12 torus potential (dense factor, eigvals, eigvalsh) and the
    # constant drive (bloch)
    from flowspec.spectral import _plan

    epsilons = (0.4, 0.2, 0.1, 0.05)
    models = {
        "double well": fs.build_model("langevin_double_well_circle",
                                      {"depth": 1.0, "epsilon": 0.2, "n": 64}).rebuild_at,
        "tilted": fs.build_model("tilted_langevin_circle",
                                 {"depth": 1.0, "tilt": 0.3, "epsilon": 0.2, "n": 64}).rebuild_at,
        "torus": lambda eps: torus_potential_operator(12, 1.0, eps, wells=2),
        "drive": fs.build_model("constant_drive_circle",
                                {"a": 1.0, "epsilon": 0.2, "n": 32}).rebuild_at,
    }
    names = {}
    for label, level in models.items():
        patterns, sizes = [], []
        for eps in epsilons:
            op = level(eps)
            if not isinstance(op, fs.GradedOperator):
                op = fs.assemble_hamiltonian(op.mesh, op.flow, op.noise)
            cached, fresh = _plan(op, op.degrees(), patterns), _plan(op, op.degrees())
            for k in op.degrees():
                assert_same_route(cached[k], fresh[k])
            names[label] = [route.name for route in fresh.values()]
            sizes.append(len(patterns))
        assert sizes == sizes[:1] * len(epsilons), label  # built at the first level only
    assert names == {"double well": ["band_svdvals", "eigvals_banded"],
                     "tilted": ["eigvals", "eigvals"],
                     "torus": ["svdvals", "eigvals", "eigvalsh"],
                     "drive": ["bloch", "bloch"]}


def test_a_cached_pattern_record_skips_no_check():
    # the tilted circle stores its entries where the double well does, so it
    # is planned through the double well's record, and still circulates; a
    # finer circle's pattern misses the record and gets its own
    from flowspec.spectral import _plan

    def operator(name, n, **params):
        model = fs.build_model(name, {"depth": 1.0, "epsilon": 0.2, "n": n, **params})
        return fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)

    well, tilted = operator("langevin_double_well_circle", 64), operator(
        "tilted_langevin_circle", 64, tilt=0.3)
    for a, b in zip(well.blocks, tilted.blocks):
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    patterns = []
    _plan(well, well.degrees(), patterns)
    built = len(patterns)
    assert [route.name for route in _plan(tilted, tilted.degrees(), patterns).values()] == [
        "eigvals", "eigvals"]
    assert len(patterns) == built
    finer = operator("langevin_double_well_circle", 96)
    cached = _plan(finer, finer.degrees(), patterns)
    assert len(patterns) > built
    for k, route in _plan(finer, finer.degrees()).items():
        assert_same_route(cached[k], route)


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
    from flowspec.spectral import _block_route, _solve

    model = fs.build_model("langevin_double_well_circle",
                           {"depth": depth, "epsilon": 0.05, "n": n})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    zero, ref = mpmath_smallest_pair(op.block(0))
    assert abs(zero) <= 1e-45 and abs(ref.imag) <= 1e-45
    route = _block_route(op, 0)
    assert route[0] == "band_svdvals"  # dgbbrd and dqds on the folded cycle
    lam = np.sort(np.abs(_solve(0, route)))
    assert lam[0] <= 1e-30 * lam[-1]  # the zero mode is exact by construction
    assert abs(ref.real - gap) <= 1e-8 * gap
    assert abs(lam[1] - ref.real) <= 1e-6 * ref.real


@pytest.mark.parametrize("n", [9, 256, 384, 385, 1024])
def test_banded_solves_agree_with_the_dense_ones(n):
    # the pair factor by dgbbrd and dqds keeps the relative accuracy of the
    # dense svdvals, and eigvals_banded the roundoff of the radius that
    # eigvalsh has
    from flowspec.pattern import _diagonal_similarity
    from flowspec.spectral import _block_route, _solve

    model = fs.build_model("langevin_double_well_circle",
                           {"depth": 1.0, "epsilon": 0.2, "n": n})
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    route = _block_route(op, 0)
    assert route[0] == "band_svdvals"
    banded = np.sort(_solve(0, route))
    s, sym = _diagonal_similarity(op.blocks[0])
    dense = np.sort(scipy.linalg.svdvals(gradient_factor(s, sym).toarray()) ** 2)
    radius = dense[-1]
    resolved = dense >= 1e-6 * radius
    np.testing.assert_allclose(banded[resolved], dense[resolved], rtol=1e-12, atol=0)
    assert 0 <= banded[0] <= 1e-30 * radius
    route = _block_route(op, 1)
    assert route[0] == "eigvals_banded"
    s, sym = _diagonal_similarity(op.blocks[1])
    np.testing.assert_allclose(np.sort(_solve(1, route)), scipy.linalg.eigvalsh(sym.toarray()),
                               rtol=0, atol=1e-12 * radius)


def test_the_band_routines_solve_a_cyclic_factor():
    # the two LAPACK routines scipy does not wrap resolve from the capsules of
    # scipy.linalg.cython_lapack on every scipy the tests run on.  The measured
    # band decides: a 6-cycle's form is refused in cell order (its corner entry
    # lies 5 below the diagonal) and kept folded, where the banded singular
    # values of its pair factor are the dense ones; the factor of a torus
    # potential is refused
    from flowspec.pattern import _band_layout, _Pattern
    from flowspec.spectral import _band_svdvals, _block_route, _cython_lapack, _fold

    def layout(matrix):
        h = scipy.sparse.coo_matrix(matrix)
        return _band_layout(h.row, h.col, h.shape[1])

    assert callable(_cython_lapack("dgbbrd")) and callable(_cython_lapack("dlasq1"))
    n = 6
    i, j = np.arange(n), (np.arange(n) + 1) % n
    w = np.random.default_rng(7).uniform(0.5, 2.0, n)  # a weighted cycle Laplacian
    form = scipy.sparse.csr_matrix((np.r_[-w, -w, np.bincount(np.r_[i, j], np.r_[w, w])],
                                    (np.r_[i, j, i], np.r_[j, i, i])), shape=(n, n))
    assert layout(form) is None
    order = _fold(fs.build_circle_grid(n, 2 * np.pi), 0)
    assert order.tolist() == [0, 5, 1, 4, 2, 3]
    folded = form[order][:, order].sorted_indices()
    assert layout(folded)[2] == 2
    # the form is its own symmetric form (weights 1): in cell order its factor
    # is wide, folded it is banded
    assert _Pattern(form, np.arange(n)).route(0, form.data).name == "svdvals"
    route = _Pattern(form, order).route(0, form.data)
    assert route.name == "band_svdvals"
    m, band, kl = route.matrix
    assert m == n and band.shape == (3, n) and kl == 1
    factor = gradient_factor(np.ones(n), folded)
    assert layout(factor)[1:] == (band.shape, kl)
    dense = scipy.linalg.svdvals(factor.toarray())
    assert np.max(np.abs(_band_svdvals(0, m, band, kl) - dense)) <= 1e-14 * dense[0]
    route = _block_route(torus_potential_operator(6, 0.5, 0.3), 0)
    assert route.name == "svdvals" and layout(route.matrix) is None


@pytest.mark.parametrize("failing", ["dgbbrd", "dlasq1"])
def test_a_band_lapack_status_is_the_eigensolver_error(monkeypatch, tmp_path, capsys, failing):
    import json

    import flowspec.spectral
    from flowspec.cli import main
    from flowspec.spectral import _block_route, _solve

    lapack = flowspec.spectral._cython_lapack

    def failing_status(name):
        routine = lapack(name)

        def call(*arrays):  # the last array is the routine's status
            routine(*arrays)
            if name == failing:
                arrays[-1][...] = 1
        return call

    monkeypatch.setattr(flowspec.spectral, "_cython_lapack", failing_status)
    params = {"depth": 1.0, "epsilon": 0.2, "n": 64}
    model = fs.build_model("langevin_double_well_circle", params)
    op = fs.assemble_hamiltonian(model.mesh, model.flow, model.noise)
    message = f"eigensolver failed to converge on the degree-0 block (LAPACK {failing} info 1)"
    with pytest.raises(fs.EigensolverError, match=re.escape(message)):
        _solve(0, _block_route(op, 0))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"name": "langevin_double_well_circle",
                                          "params": params},
                                "tasks": ["classify"]}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


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
    from flowspec.spectral import _block_route, _null_vector

    op, values, top, ground = ground_state(name, backend)
    v = _null_vector(op, _block_route(op, top), values.eigenvalues(top)[ground],
                     values.spectral_radius)
    full = fs.full_spectrum(op)
    r = full.right[top][:, np.argmin(np.abs(full.eigenvalues(top)))]
    assert np.max(np.abs(v - r)) <= 1e-9 * np.max(np.abs(r))


@pytest.mark.parametrize("name, backend", [("torus_shear_model", "fd"),
                                           ("constant_drive_circle", "fourier")],
                         ids=["torus-fd", "circle-fourier"])
def test_null_vector_of_an_invariant_block_is_constant(monkeypatch, name, backend):
    # a translation-invariant top block's rows sum as its columns do, to zero
    from flowspec.spectral import _block_route, _null_vector

    op, values, top, ground = ground_state(name, backend)
    route = _block_route(op, top)
    assert route.name == "bloch"
    monkeypatch.setattr(scipy.linalg, "lu_factor", None)  # the constant vector needs no LU
    v = _null_vector(op, route, values.eigenvalues(top)[ground], values.spectral_radius)
    assert not np.any(v.imag)
    assert np.all(v.real == v.real[0]) and v.real[0] > 0
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-14


def test_null_vector_of_a_symmetric_torus_block_takes_no_lu(monkeypatch):
    # the four-well torus's top block is reversible: its density is 1/s^2
    from flowspec.spectral import _block_route, _null_vector

    op = torus_potential_operator(6, 1.0, 0.2, wells=2)
    values = fs.eigenvalue_spectrum(op)
    route = _block_route(op, 2)
    assert route.name == "eigvalsh"
    full = fs.full_spectrum(op)
    r = full.right[2][:, np.argmin(np.abs(full.eigenvalues(2)))]
    monkeypatch.setattr(scipy.linalg, "lu_factor", None)
    lam = values.eigenvalues(2)
    v = _null_vector(op, route, lam[np.argmin(np.abs(lam))], values.spectral_radius)
    assert np.max(np.abs(v - r)) <= 1e-9 * np.max(np.abs(r))


@pytest.mark.parametrize("fault, name, route", [
    ("wrong-vector", "tilted_langevin_circle", "eigvals"),
    ("nan", "tilted_langevin_circle", "eigvals"),
    ("reciprocal-weights", "langevin_double_well_circle", "eigvals_banded"),
    ("wrong-eigenvalue", "torus_shear_model", "bloch"),
], ids=["wrong-vector", "nan", "reciprocal-weights", "wrong-eigenvalue"])
def test_null_vector_residual_guard(monkeypatch, fault, name, route):
    # each branch reaches the guard: a wrong vector, a NaN one, s^2 for 1/s^2
    # (the double well is even under reflection, so reversed weights would
    # still be right), or the right vector asked for the wrong eigenvalue
    from flowspec.spectral import _block_route, _null_vector

    op, values, top, ground = ground_state(name, "fd")
    planned = _block_route(op, top)
    assert planned.name == route
    eigenvalue = values.eigenvalues(top)[ground]
    if fault == "wrong-vector":
        monkeypatch.setattr(scipy.linalg, "lu_solve", lambda lu, b, **kw: np.arange(1.0, len(b) + 1))
    elif fault == "nan":
        monkeypatch.setattr(scipy.linalg, "lu_solve", lambda lu, b, **kw: np.full(len(b), np.nan))
    elif fault == "reciprocal-weights":
        planned = planned._replace(weights=1.0 / planned.weights)
    else:
        eigenvalue = 0.5 * values.spectral_radius
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(fs.NumericalError, match=f"degree-{top} block"):
            _null_vector(op, planned, eigenvalue, values.spectral_radius)


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


def test_a_moved_value_and_its_partner_are_reported_unpaired():
    from dataclasses import replace

    model = fs.build_model("langevin_double_well_circle", REGISTERED["langevin_double_well_circle"])
    report = fs.eigenvalue_spectrum(fs.assemble_hamiltonian(model.mesh, model.flow, model.noise))
    assert fs.susy_pairing_check(report).n_bonds == 47
    # the largest degree-1 value moves by 1e-6 of itself, far past the
    # pairing tolerance (1e-8 of the spectral radius)
    i = int(np.argmax(np.where(report.degree == 1, np.abs(report.eigenvalue), -1.0)))
    lower = np.flatnonzero(report.degree == 0)
    partner = report.eigenvalue[lower[np.argmin(np.abs(report.eigenvalue[lower]
                                                       - report.eigenvalue[i]))]]
    moved = report.eigenvalue.copy()
    moved[i] *= 1 + 1e-6
    pairing = fs.susy_pairing_check(replace(report, eigenvalue=moved))
    assert pairing.n_bonds == 46
    assert pairing.unpaired == ((0, complex(partner)), (1, complex(moved[i])))
    assert pairing.multiset_equal is False


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
    # pair id still joins one conjugate pair within one degree, in a CSV of
    # a two-sided report and in a fourier run's, whose blocks take bloch
    tori = []
    for ax, ay in ((1.2, 0.4), (0.7, 0.6)):
        model = fs.build_model("torus_shear_model",
                               {"ax": ax, "ay": ay, "epsilon": 0.3, "n": 8})
        report = fs.full_spectrum(
            fs.assemble_hamiltonian(model.mesh, model.flow, model.noise))
        path = tmp_path / f"torus-{ax}-{ay}.csv"
        fs.export_spectrum_csv(report, path)
        tori.append((path, report.spectral_radius, 64))
    cfg = fs.RunConfig.from_dict({
        "model": {"name": "torus_shear_model",
                  "params": {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 12}},
        "backend": "fourier", "tasks": ["spectrum", "witten"]})
    res = fs.run(cfg, out_dir=tmp_path / "run").data["results"]
    assert res["spectrum"]["oracle_satisfied"] is True
    assert res["witten"]["zero_modes_per_degree"] == [1, 2, 1]
    tori.append((tmp_path / "run" / "spectrum.csv", res["spectrum"]["spectral_radius"], 144))
    for path, radius, cells in tori:
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert header == rows[0]
        assert np.bincount([int(r[0]) for r in body]).tolist() == [cells, 2 * cells, cells]
        tol = 1e-9 * radius
        by_id = {}
        for r in body:
            if int(r[4]) >= 0:
                by_id.setdefault(int(r[4]), []).append((int(r[0]), float(r[2]), float(r[3])))
        assert by_id
        for members in by_id.values():
            assert len(members) == 2
            (k0, g0, e0), (k1, g1, e1) = members
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
