"""Mesh complexes: counts, chain-complex exactness, duals, metric scaling."""

import hashlib
import warnings

import numpy as np
import pytest

import flowspec as fs


def test_circle_counts_and_volumes():
    mesh = fs.build_circle_grid(16, 2 * np.pi)
    assert mesh.cell_counts == (16, 16)
    assert mesh.dimension == 1
    assert mesh.euler_characteristic() == 0
    assert mesh.is_structured
    np.testing.assert_allclose(mesh.spacings[0], 2 * np.pi / 16)
    np.testing.assert_allclose(mesh.primal_volumes[1].sum(), 2 * np.pi)
    np.testing.assert_allclose(mesh.primal_volumes[1], 2 * np.pi / 16)


def test_circle_rejects_tiny_grids():
    with pytest.raises(fs.InvalidResolutionError):
        fs.build_circle_grid(2, 2 * np.pi)
    for length in (-1.0, 0.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            fs.build_circle_grid(8, length)
    with pytest.raises(ValueError):
        fs.build_torus_grid(4, 4, 1.0, float("inf"))


def test_unallocatable_grid_is_a_capacity_error():
    # sizes whose cell arrays exceed any user address space: nothing is allocated
    with pytest.raises(fs.CapacityError, match="cannot allocate"):
        fs.build_circle_grid(10**16, 2 * np.pi)
    with pytest.raises(fs.CapacityError, match="3 x 100000000000000000000 torus"):
        fs.build_torus_grid(3, 10**20, 1.0, 1.0)


def test_torus_counts_and_chain_complex():
    mesh = fs.build_torus_grid(5, 7, 1.0, 2.0)
    assert mesh.cell_counts == (35, 70, 35)
    assert mesh.euler_characteristic() == 0
    d1 = mesh.boundary_matrix(1).toarray()
    d2 = mesh.boundary_matrix(2).toarray()
    # boundary-of-boundary vanishes exactly over the integers
    assert d1.dtype.kind == "i" and d2.dtype.kind == "i"
    assert np.all(d1 @ d2 == 0)
    # every face boundary has 4 signed edges
    assert np.all(np.sum(np.abs(d2), axis=0) == 4)
    np.testing.assert_allclose(mesh.primal_volumes[2].sum(), 2.0)
    # per-family volumes: x-edges span hx across hy, y-edges the reverse
    hx, hy = mesh.spacings
    assert (hx, hy) == (1.0 / 5, 2.0 / 7)
    np.testing.assert_array_equal(mesh.primal_volumes[1], np.repeat([hx, hy], 35))
    np.testing.assert_array_equal(mesh.dual_volumes[1], np.repeat([hy, hx], 35))
    np.testing.assert_array_equal(mesh.primal_volumes[2], hx * hy)
    np.testing.assert_array_equal(mesh.dual_volumes[0], hx * hy)
    np.testing.assert_array_equal(mesh.primal_volumes[0], 1.0)
    np.testing.assert_array_equal(mesh.dual_volumes[2], 1.0)
    # vertex (i, j) lives at index i*ny + j
    np.testing.assert_array_equal(mesh.vertices[17], [2 * hx, 3 * hy])
    # the x-edge of vertex (4, j) wraps to (0, j); y-edges follow the x block
    for j in range(7):
        np.testing.assert_array_equal(mesh.edges[4 * 7 + j], [4 * 7 + j, j])
    np.testing.assert_array_equal(mesh.edges[35 + 2 * 7 + 6], [2 * 7 + 6, 2 * 7])


def test_cochain_shape_is_the_family_major_grid_layout():
    mesh = fs.build_torus_grid(5, 7, 1.0, 2.0)
    assert [mesh.cochain_shape(k) for k in range(3)] == [(1, 5, 7), (2, 5, 7), (1, 5, 7)]
    # cell (a, i, j) of degree 1 is the axis-a edge leaving vertex (i, j)
    cell = np.arange(70).reshape(mesh.cochain_shape(1))
    np.testing.assert_array_equal(mesh.edges[cell[1, 2, 6]], [2 * 7 + 6, 2 * 7])
    np.testing.assert_array_equal(mesh.faces[:, 0], np.arange(35))
    assert fs.build_circle_grid(9, 1.0).cochain_shape(1) == (1, 9)
    assert fs.icosphere(0).cochain_shape(0) is None


def test_boundary_matrix_degree_errors():
    mesh = fs.build_circle_grid(8, 2 * np.pi)
    with pytest.raises(fs.DegreeError):
        mesh.boundary_matrix(0)
    with pytest.raises(fs.DegreeError):
        mesh.boundary_matrix(2)
    with pytest.raises(fs.DegreeError):
        mesh.n_cells(3)


def test_icosphere_refinement_counts():
    ico = fs.icosphere(0)
    assert ico.cell_counts == (12, 30, 20)
    sph = fs.icosphere(1)
    assert sph.cell_counts == (42, 120, 80)
    assert sph.euler_characteristic() == 2
    assert not sph.is_structured
    d1 = sph.boundary_matrix(1).toarray()
    d2 = sph.boundary_matrix(2).toarray()
    assert np.all(d1 @ d2 == 0)


def test_icosphere_dual_areas_cover_the_surface():
    sph = fs.icosphere(1)
    # circumcentric dual cells partition the triangulated surface exactly
    np.testing.assert_allclose(
        np.sum(sph.dual_volumes[0]), np.sum(sph.primal_volumes[2]), rtol=1e-13
    )


# SHA-256 of faces, edges and both incidence matrices (CSR indptr, indices,
# data, each as little-endian int64), frozen from the dict-based builder
ICOSPHERE_LAYOUT = {
    0: "494c1d01a285e30029005ca76c74dbc1290439df6c30a8e2b4e15494317026e4",
    1: "40e7aa866befcc384e375721d4698636d4fa642ea46195d001a10bf4a9534aaa",
    2: "cc1504eb73e2cd3528ef0899a0acd2075b9a7217a477f84029a85d553c294878",
    3: "c4669ab8dddd4aec5acff6323b63eda39a557b731f57107480affea8418ad226",
    4: "0cf29be627661385a8b88aa8c3432bc9741fcfd19850d8ae3cd3974905dc6643",
}


@pytest.mark.parametrize("level", sorted(ICOSPHERE_LAYOUT))
def test_icosphere_integer_layout_is_frozen(level):
    mesh = fs.icosphere(level)
    digest = hashlib.sha256()
    arrays = [mesh.faces, mesh.edges]
    for inc in mesh.incidence:
        csr = inc.tocsr().sorted_indices()
        arrays += [csr.indptr, csr.indices, csr.data]
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    assert digest.hexdigest() == ICOSPHERE_LAYOUT[level]


def test_icosphere_level_4_is_a_sphere():
    sph = fs.icosphere(4)
    assert sph.cell_counts == (2562, 7680, 5120)
    assert sph.euler_characteristic() == 2
    np.testing.assert_allclose(
        np.sum(sph.dual_volumes[0]), np.sum(sph.primal_volumes[2]), rtol=1e-13
    )


def test_icosphere_level_3_lengths_are_frozen():
    # sums frozen from the per-face builder
    sph = fs.icosphere(3)
    np.testing.assert_allclose(np.sum(sph.primal_volumes[1]), 289.40103397417363, rtol=1e-13)
    np.testing.assert_allclose(np.sum(sph.dual_volumes[1]), 167.13001243787355, rtol=1e-13)


TETRA_VERTS = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
TETRA_FACES = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_vertex_is_rejected(bad):
    verts = np.array(TETRA_VERTS, dtype=float)
    verts[3, 1] = bad
    with pytest.raises(fs.TopologyError, match="finite"):
        fs.build_triangulated_surface(verts, TETRA_FACES)


def test_non_integral_face_index_is_rejected():
    faces = np.array(TETRA_FACES, dtype=float)
    # integral floats, as np.loadtxt returns them, are indices
    assert fs.build_triangulated_surface(TETRA_VERTS, faces).cell_counts == (4, 6, 4)
    faces[0, 0] = 0.5
    with pytest.raises(fs.TopologyError, match="integers"):
        fs.build_triangulated_surface(TETRA_VERTS, faces)
    faces[0, 0] = float("nan")
    with pytest.raises(fs.TopologyError, match="integers"):
        fs.build_triangulated_surface(TETRA_VERTS, faces)


def test_edge_shared_by_three_faces_is_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]
    faces = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
    with pytest.raises(fs.TopologyError, match=r"edge \(0, 1\) traversed twice in the same"):
        fs.build_triangulated_surface(verts, faces)


def test_open_surface_is_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    with pytest.raises(fs.TopologyError):
        fs.build_triangulated_surface(verts, [[0, 1, 2]])


def test_empty_face_list_is_rejected():
    with pytest.raises(fs.TopologyError, match="at least one face"):
        fs.build_triangulated_surface(np.zeros((3, 3)), np.zeros((0, 3)))


def test_vertex_on_no_face_is_rejected():
    # a closed tetrahedron plus one vertex that no face uses: it would get a
    # zero dual area and so a zero degree-0 Hodge star entry
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 5, 5]]
    faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
    fs.build_triangulated_surface(verts[:4], faces)
    with pytest.raises(fs.TopologyError, match="vertex 4 lies on no face"):
        fs.build_triangulated_surface(verts, faces)


def test_inconsistent_orientation_is_rejected():
    # tetrahedron with one face flipped
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
    flipped = [faces[0][::-1]] + faces[1:]
    fs.build_triangulated_surface(verts, faces)  # consistent: fine
    with pytest.raises(fs.TopologyError):
        fs.build_triangulated_surface(verts, flipped)


def test_off_loader_round_trip(tmp_path):
    verts, faces = fs.icosahedron()
    path = tmp_path / "ico.off"
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(verts)} {len(faces)} 0\n")
        for v in verts:
            fh.write(f"{v[0]} {v[1]} {v[2]}\n")
        for f in faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")
    mesh = fs.load_off(path)
    assert mesh.cell_counts == (12, 30, 20)
    assert mesh.euler_characteristic() == 2


@pytest.mark.parametrize("text", [
    "OFF\n3\n",
    "OFF\n4 x 0\n",
    "OFF\n4 4 0\n0 0 0\n1 0 zero\n0 1 0\n0 0 1\n3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n",
    "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n",
    "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n3 0 1 3\n3 1 2\n",
    "OFF\n-1 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n",
], ids=["no-counts", "non-numeric-count", "non-numeric-coordinate",
        "short-vertex-list", "short-face-list", "negative-count"])
def test_malformed_off_names_the_file(tmp_path, text):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(fs.TopologyError, match="bad.off: malformed OFF data"):
        fs.load_off(path)


TETRA_OFF = """# a tetrahedron
OFF
4 4 6  # vertices faces edges
0 0 0
1 0 0
0 1 0  # third vertex
0 0 1
3 0 2 1
3 0 1 3
3 1 2 3
3 0 3 2
"""


def test_commented_tetrahedron_loads(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    assert fs.load_off(path).cell_counts == (4, 6, 4)
    # the counts may also follow the keyword on its own line
    path.write_text(TETRA_OFF.replace("OFF\n4 4 6", "OFF 4 4 6"))
    assert fs.load_off(path).cell_counts == (4, 6, 4)


def test_face_colours_are_ignored(tmp_path):
    plain, coloured = tmp_path / "plain.off", tmp_path / "coloured.off"
    plain.write_text(TETRA_OFF)
    coloured.write_text(TETRA_OFF.replace("3 0 2 1\n", "3 0 2 1 255 0 0\n")
                        .replace("3 1 2 3\n", "3 1 2 3 0.5 0.5 0.5 1.0\n"))
    a, b = fs.load_off(plain), fs.load_off(coloured)
    assert b.cell_counts == a.cell_counts
    np.testing.assert_array_equal(b.vertices, a.vertices)
    for k in (1, 2):
        assert (b.boundary_matrix(k) != a.boundary_matrix(k)).nnz == 0


def test_quad_face_is_refused(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(fs.TopologyError, match="only triangular faces supported, got 4-gon"):
        fs.load_off(path)


def test_off_count_line_without_the_edge_count_is_named(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text(TETRA_OFF.replace("4 4 6", "4 4"))
    with pytest.raises(fs.TopologyError, match=r"bad.off: malformed OFF data: count line '4 4'"):
        fs.load_off(path)


def test_noise_spec_validation():
    assert fs.NoiseSpec(0.0).is_deterministic
    assert not fs.NoiseSpec(0.5).is_deterministic
    with pytest.raises(fs.InvalidNoiseError):
        fs.NoiseSpec(-0.1)
    with pytest.raises(fs.InvalidNoiseError):
        fs.NoiseSpec(float("nan"))


def test_hodge_star_noise_scaling():
    mesh = fs.build_torus_grid(4, 4, 2.0, 2.0)
    eps = 0.3
    for k in range(3):
        unit = fs.hodge_star(mesh, k, fs.NoiseSpec(1.0))
        scaled = fs.hodge_star(mesh, k, fs.NoiseSpec(eps))
        np.testing.assert_allclose(scaled, unit * eps ** (k - 1.0), rtol=1e-14)
    with pytest.raises(fs.DegreeError):
        fs.hodge_star(mesh, 3, fs.NoiseSpec(1.0))


def test_hodge_star_deterministic_limit_flag():
    mesh = fs.build_circle_grid(8, 2 * np.pi)
    star = fs.hodge_star(mesh, 0, fs.NoiseSpec(0.0))
    # unit-ratio fallback: volumes only, no noise power
    np.testing.assert_allclose(star, mesh.dual_volumes[0])


def test_circle_star_pair_is_inverse():
    mesh = fs.build_circle_grid(12, 2 * np.pi)
    noise = fs.NoiseSpec(0.7)
    s0 = fs.hodge_star(mesh, 0, noise)
    s1 = fs.hodge_star(mesh, 1, noise)
    np.testing.assert_allclose(s0 * s1, 1.0, rtol=1e-14)



def _icosahedron(extra_face=None, squash=1.0):
    verts, faces = fs.icosahedron()
    if extra_face is not None:
        faces = np.vstack([faces, [extra_face]])
    return fs.build_triangulated_surface(verts * [1.0, 1.0, squash], faces)


def _off_without_header(tmp_path):
    path = tmp_path / "no-header.off"
    path.write_text("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    return fs.load_off(path)


@pytest.mark.parametrize("build, error", [
    (lambda tmp: fs.build_triangulated_surface(np.zeros((3, 2)), [[0, 1, 2]]),
     fs.TopologyError),
    (lambda tmp: fs.build_triangulated_surface(np.eye(3), [[0, 1]]), fs.TopologyError),
    (lambda tmp: _icosahedron(extra_face=[0, 1, 12]), fs.TopologyError),
    (lambda tmp: _icosahedron(extra_face=[0, 0, 1]), fs.TopologyError),
    (lambda tmp: _icosahedron(squash=0.1), fs.GeometryWarning),
    (lambda tmp: fs.icosphere(-1), ValueError),
    (_off_without_header, fs.TopologyError),
], ids=["vertices-not-3d", "faces-not-triples", "face-index-out-of-range",
        "repeated-vertex", "not-well-centered", "negative-level", "off-without-header"])
def test_malformed_surfaces_are_refused(tmp_path, build, error):
    # a surface that is not well-centered only warns; the warning is raised here
    with warnings.catch_warnings():
        warnings.simplefilter("error", fs.GeometryWarning)
        with pytest.raises(error):
            build(tmp_path)
