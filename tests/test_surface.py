import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from refaudit import surface
from refaudit.errors import DegenerateInputError, GeometryMismatchError
from refaudit.masks import face_roi, head_mask
from refaudit.phantom import PhantomParams, generate_phantom
from refaudit.surface import (
    TriMesh,
    face_distance_report,
    marching_cubes,
    masd,
)
from refaudit.volume import BinaryMask


def mask_of(data, spacing=(1.0, 1.0, 1.0)):
    affine = np.diag(list(spacing) + [1.0])
    return BinaryMask(data=np.asarray(data, bool), affine=affine)


def mesh_edges(mesh):
    edges = set()
    for t in mesh.triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
            edges.add((min(a, b), max(a, b)))
    return edges


def euler_characteristic(mesh):
    return mesh.n_vertices - len(mesh_edges(mesh)) + len(mesh.triangles)


def is_closed(mesh):
    """Closed iff every edge is shared by exactly two triangles."""
    counts = {}
    for t in mesh.triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
            counts[(min(a, b), max(a, b))] = counts.get((min(a, b), max(a, b)), 0) + 1
    return all(c == 2 for c in counts.values())


def n_components(mesh):
    parent = list(range(mesh.n_vertices))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for t in mesh.triangles:
        a = find(t[0])
        for v in t[1:]:
            parent[find(v)] = a
    return len({find(i) for i in range(mesh.n_vertices)})


def digitized_ball(radius=20.0, n=48):
    ax = np.arange(n) - (n - 1) / 2.0
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return mask_of(x * x + y * y + z * z <= radius * radius)


class TestMarchingCubes:
    def test_single_voxel_is_a_closed_octahedron(self):
        data = np.zeros((5, 5, 5), bool)
        data[2, 2, 2] = True
        mesh = marching_cubes(mask_of(data))
        assert mesh.n_vertices == 6
        assert len(mesh.triangles) == 8
        assert euler_characteristic(mesh) == 2
        assert is_closed(mesh)

    def test_border_voxel_still_closes(self):
        data = np.zeros((3, 3, 3), bool)
        data[0, 0, 0] = True
        mesh = marching_cubes(mask_of(data))
        assert is_closed(mesh)
        assert euler_characteristic(mesh) == 2

    def test_ball_is_closed_with_sphere_topology(self):
        mesh = marching_cubes(digitized_ball())
        assert is_closed(mesh)
        assert euler_characteristic(mesh) == 2

    def test_ball_area_carries_known_voxelization_bias(self):
        # Binary-field midpoint marching cubes overestimates smooth-surface
        # area; ~9.3% for a r=20 ball (matches skimage lorensen/lewiner
        # bit-for-bit on the same mask). Pinned as a regression value.
        mesh = marching_cubes(digitized_ball())
        ratio = mesh.area() / (4.0 * math.pi * 20.0**2)
        assert ratio == pytest.approx(1.0931, abs=2e-3)

    def test_two_disjoint_voxels_give_two_components(self):
        data = np.zeros((7, 7, 7), bool)
        data[1, 1, 1] = True
        data[5, 5, 5] = True
        mesh = marching_cubes(mask_of(data))
        assert n_components(mesh) == 2

    def test_vertices_map_through_affine(self):
        data = np.zeros((5, 5, 5), bool)
        data[2, 2, 2] = True
        m = mask_of(data, spacing=(2.0, 3.0, 4.0))
        mesh = marching_cubes(m)
        center = mesh.vertices.mean(axis=0)
        assert np.allclose(center, [2 * 2.0, 2 * 3.0, 2 * 4.0], atol=1e-12)

    def test_empty_and_full_masks_raise(self):
        with pytest.raises(DegenerateInputError):
            marching_cubes(mask_of(np.zeros((4, 4, 4), bool)))
        with pytest.raises(DegenerateInputError):
            marching_cubes(mask_of(np.ones((4, 4, 4), bool)))

    def test_no_degenerate_triangles_invariant(self, rng):
        data = rng.random((10, 10, 10)) < 0.3
        if not data.any() or data.all():
            data[0, 0, 0] = True
            data[5, 5, 5] = False
        mesh = marching_cubes(mask_of(data))  # TriMesh validates on build
        assert len(mesh.triangles) > 0


def signed_volume(mesh):
    """Volume enclosed by a closed mesh: positive when it winds outward."""
    a, b, c = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
    return np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0


def random_affine(rng, handedness):
    """A rotation, per-axis scale and shift, mirrored when ``handedness`` is -1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    rotation = q * np.sign(np.diag(r))
    if np.linalg.det(rotation) * handedness < 0:
        rotation[:, 0] = -rotation[:, 0]
    affine = np.eye(4)
    affine[:3, :3] = rotation * rng.uniform(0.5, 3.0, 3)
    affine[:3, 3] = rng.uniform(-50.0, 50.0, 3)
    return affine


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("handedness", [1, -1], ids=["right-handed", "left-handed"])
def test_mesh_winds_outward_under_any_affine(seed, handedness):
    rng = np.random.default_rng(seed)
    data = rng.random(tuple(rng.integers(3, 12, 3))) < rng.uniform(0.1, 0.7)
    data[0, 0, 0], data[-1, -1, -1] = True, False  # nonempty and not full
    affine = random_affine(rng, handedness)
    assert np.sign(np.linalg.det(affine[:3, :3])) == handedness
    mesh = marching_cubes(BinaryMask(data=data, affine=affine))
    assert signed_volume(mesh) > 0


def ball_at(corner, n=40, radius=7.3, spacing=(1.0, 2.0, 0.5)):
    """A digitized ball in an n^3 grid, its 16^3 bounding cube at ``corner``."""
    data = np.zeros((n, n, n), bool)
    ax = np.arange(16) - 7.5
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    cx, cy, cz = corner
    data[cx : cx + 16, cy : cy + 16, cz : cz + 16] = x * x + y * y + z * z <= radius * radius
    return mask_of(data, spacing)


class TestMarchingCubesCrop:
    def test_translated_ball_gives_translated_mesh(self):
        offset = np.array([17, 5, 11])
        a = marching_cubes(ball_at((3, 9, 2)))
        b = marching_cubes(ball_at(tuple(np.array([3, 9, 2]) + offset)))
        assert np.array_equal(a.triangles, b.triangles)
        shift = b.vertices - a.vertices
        assert np.array_equal(shift, np.broadcast_to(offset * np.array([1.0, 2.0, 0.5]), shift.shape))

    @pytest.mark.parametrize("border", [True, False], ids=["border", "interior"])
    def test_matches_full_grid(self, rng, monkeypatch, border):
        data = np.zeros((14, 12, 10), bool)
        data[4:10, 3:9, 3:7] = rng.random((6, 6, 4)) < 0.5
        if border:
            data[0, 0, 0] = data[13, 11, 9] = data[5, 6, 9] = True  # grid corners and a face
        mask = mask_of(data, spacing=(1.5, 1.0, 2.0))
        got = marching_cubes(mask)
        # full-grid reference: the same code with the crop box set to the whole grid
        monkeypatch.setattr(BinaryMask, "bounding_box",
                            lambda self, pad: tuple(slice(0, n) for n in self.dims))
        want = marching_cubes(mask)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.triangles, want.triangles)


def grid_mesh(offset=0.0, n=10):
    """Planar vertex grid at z = offset (no faces needed for masd)."""
    g = np.stack(np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float),
                             indexing="ij"), axis=-1).reshape(-1, 2)
    verts = np.column_stack([g, np.full(len(g), offset)])
    return TriMesh(vertices=verts, triangles=np.zeros((0, 3), dtype=np.int64))


def test_mesh_built_from_a_view_does_not_change_through_its_base():
    base = np.zeros((2, 3, 3))
    base[0] = np.eye(3)
    mesh = TriMesh(vertices=base[0], triangles=np.array([[0, 1, 2]]))
    base[0, 0, 0] = 5.0
    assert mesh.vertices.tolist() == np.eye(3).tolist()


class TestMasd:
    def test_identity_is_zero(self, rng):
        mesh = grid_mesh()
        assert masd(mesh, mesh) == 0.0

    @pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 5.0])
    def test_parallel_offset_grids(self, d):
        assert masd(grid_mesh(0.0), grid_mesh(d)) == pytest.approx(d, abs=1e-9)

    def test_matches_quadratic_bruteforce(self, rng):
        for _ in range(10):
            a = TriMesh(vertices=rng.standard_normal((200, 3)) * 10,
                        triangles=np.zeros((0, 3), dtype=np.int64))
            b = TriMesh(vertices=rng.standard_normal((200, 3)) * 10,
                        triangles=np.zeros((0, 3), dtype=np.int64))
            dm = np.sqrt(((a.vertices[:, None, :] - b.vertices[None, :, :]) ** 2).sum(-1))
            want = 0.5 * (dm.min(axis=1).mean() + dm.min(axis=0).mean())
            assert masd(a, b) == pytest.approx(want, abs=1e-9)
            assert masd(a, b, directed=True) == pytest.approx(dm.min(axis=1).mean(), abs=1e-9)

    def test_symmetric_and_nonnegative(self, rng):
        a = TriMesh(vertices=rng.standard_normal((80, 3)), triangles=np.zeros((0, 3), np.int64))
        b = TriMesh(vertices=rng.standard_normal((60, 3)), triangles=np.zeros((0, 3), np.int64))
        assert masd(a, b) == masd(b, a)
        assert masd(a, b) > 0

    def test_rigid_invariance(self, rng):
        a = TriMesh(vertices=rng.standard_normal((100, 3)), triangles=np.zeros((0, 3), np.int64))
        b = TriMesh(vertices=rng.standard_normal((100, 3)), triangles=np.zeros((0, 3), np.int64))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        t = rng.standard_normal(3) * 5
        ra = TriMesh(vertices=a.vertices @ q.T + t, triangles=a.triangles)
        rb = TriMesh(vertices=b.vertices @ q.T + t, triangles=b.triangles)
        assert masd(ra, rb) == pytest.approx(masd(a, b), abs=1e-6)

    def test_empty_mesh_raises(self):
        empty = TriMesh(vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), np.int64))
        with pytest.raises(ValueError):
            masd(empty, grid_mesh())


def ellipsoid_cap_samples(center, radii, y_frac_min, n=250):
    """Area-weighted quadrature samples of the ellipsoid cap with
    (y - cy)/ry >= y_frac_min."""
    umax = math.acos(y_frac_min)
    u, t = np.meshgrid(np.linspace(1e-4, umax, n),
                       np.linspace(0, 2 * np.pi, 2 * n, endpoint=False))
    a, b, c = radii
    pts = np.stack([center[0] + a * np.sin(u) * np.cos(t),
                    center[1] + b * np.cos(u),
                    center[2] + c * np.sin(u) * np.sin(t)], axis=-1)
    du = np.stack([a * np.cos(u) * np.cos(t), -b * np.sin(u), c * np.cos(u) * np.sin(t)], axis=-1)
    dt = np.stack([-a * np.sin(u) * np.sin(t), np.zeros_like(u), c * np.sin(u) * np.cos(t)], axis=-1)
    w = np.linalg.norm(np.cross(du, dt), axis=-1)
    return pts.reshape(-1, 3), w.ravel()


class TestFaceDistanceReport:
    def test_identical_volumes_give_zero(self, small_phantom, small_head):
        vol, _, _ = small_phantom
        assert face_distance_report(vol, [("self", vol)], head=small_head) == [("self", 0.0)]

    def test_enlarged_nose_matches_analytic_offset_oracle(self):
        # +3 mm nose protrusion; compare the cap-region masd against an
        # area-weighted quadrature of the analytic nose surfaces
        params = PhantomParams(noise_amplitude=2.0)
        vol1, _, g1 = generate_phantom(9, params)
        vol2, _, g2 = generate_phantom(9, replace(params, nose_length=params.nose_length + 3.0))
        assert g2.nose_tip()[1] - g1.nose_tip()[1] == pytest.approx(3.0, abs=1e-12)

        mesh1 = marching_cubes(face_roi(head_mask(vol1)))
        mesh2 = marching_cubes(face_roi(head_mask(vol2)))

        frac = 0.6
        p1, w1 = ellipsoid_cap_samples(g1.nose_center, g1.nose_radii, frac)
        p2, w2 = ellipsoid_cap_samples(g2.nose_center, g2.nose_radii, frac)
        o12 = np.average(cKDTree(p2, balanced_tree=False, compact_nodes=False).query(p1)[0],
                         weights=w1)
        o21 = np.average(cKDTree(p1, balanced_tree=False, compact_nodes=False).query(p2)[0],
                         weights=w2)
        oracle = 0.5 * (o12 + o21)

        def cap_vertices(mesh, geom):
            v = mesh.vertices
            rel = (v - np.array(geom.nose_center)) / np.array(geom.nose_radii)
            on_nose = (rel**2).sum(axis=1) <= 1.3**2
            return v[on_nose & (rel[:, 1] >= frac)]

        v1 = cap_vertices(mesh1, g1)
        v2 = cap_vertices(mesh2, g2)
        d12 = cKDTree(mesh2.vertices).query(v1)[0].mean()
        d21 = cKDTree(mesh1.vertices).query(v2)[0].mean()
        measured = 0.5 * (d12 + d21)
        assert measured == pytest.approx(oracle, rel=0.10)

    def test_directed_flag_changes_only_direction(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        from refaudit.deface import quickshear

        defaced, _ = quickshear(vol, brain, buffer_mm=10.0, head=small_head)
        ((_, sym),) = face_distance_report(vol, [("defaced", defaced)], head=small_head)
        ((_, d_ab),) = face_distance_report(vol, [("defaced", defaced)], directed=True,
                                            head=small_head)
        ((_, d_ba),) = face_distance_report(defaced, [("original", vol)], directed=True,
                                            head=head_mask(defaced))
        assert sym == pytest.approx(0.5 * (d_ab + d_ba), abs=1e-12)

    @pytest.mark.parametrize("directed", [False, True])
    def test_batched_entries_equal_single_candidate_calls(self, small_phantom, small_head,
                                                          directed):
        vol, brain, _ = small_phantom
        from refaudit.deface import quickshear

        candidates = [(f"buffer {b}", quickshear(vol, brain, buffer_mm=b, head=small_head)[0])
                      for b in (0.0, 10.0)]
        candidates.append(("self", vol))
        batched = face_distance_report(vol, candidates, directed=directed, head=small_head)
        assert [name for name, _ in batched] == [name for name, _ in candidates]
        # a generator feed gives the list feed's floats bit for bit
        assert face_distance_report(vol, (pair for pair in candidates), directed=directed,
                                    head=small_head) == batched
        reference = marching_cubes(face_roi(head_mask(vol)))
        for (name, candidate), entry in zip(candidates, batched):
            single = face_distance_report(vol, [(name, candidate)], directed=directed,
                                          head=small_head)
            assert single == [entry]
            mesh = marching_cubes(face_roi(head_mask(candidate)))
            assert entry[1] == masd(reference, mesh, directed=directed)

    def test_candidate_geometry_mismatch_raises(self, monkeypatch, small_phantom, small_head):
        # raised when the mismatched candidate is drawn, after the earlier ones were scored
        vol, _, _ = small_phantom
        affine = vol.affine.copy()
        affine[0, 3] += 1.0
        scored = []

        def counting_masd(*args, **kwargs):
            scored.append(real(*args, **kwargs))
            return scored[-1]

        real = surface.masd
        monkeypatch.setattr(surface, "masd", counting_masd)
        with pytest.raises(GeometryMismatchError):
            face_distance_report(vol, [("self", vol), ("again", vol),
                                       ("shifted", replace(vol, affine=affine)), ("never", vol)],
                                 head=small_head)
        assert scored == [0.0, 0.0]

    def test_repeated_name_keeps_both_results(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        from refaudit.deface import quickshear

        defaced = quickshear(vol, brain, buffer_mm=0.0, head=small_head)[0]
        report = face_distance_report(vol, [("x", vol), ("x", defaced)], head=small_head)
        assert [name for name, _ in report] == ["x", "x"]
        assert report[0][1] == 0.0 < report[1][1]

    def test_each_candidate_is_released_before_the_next_is_drawn(self, small_phantom,
                                                                 small_head):
        vol, brain, _ = small_phantom
        from refaudit.deface import quickshear

        drawn, released = [], []

        def pair(b):
            defaced = quickshear(vol, brain, buffer_mm=b, head=small_head)[0]
            drawn.append(weakref.ref(defaced.data))
            return b, defaced

        def candidates():
            for b in (0.0, 5.0, 10.0):
                released.append([ref() is None for ref in drawn])
                yield pair(b)
            released.append([ref() is None for ref in drawn])

        assert len(face_distance_report(vol, candidates(), head=small_head)) == 3
        assert released == [[], [True], [True, True], [True, True, True]]

