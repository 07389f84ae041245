import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from refaudit.deface import _hull_cycle, _shear_line, quickshear
from refaudit.errors import GeometryMismatchError
from refaudit.masks import head_mask
from refaudit.volume import BinaryMask, Volume3D

DIAG = np.array([1.0, -1.0]) / math.sqrt(2.0)


def brain_projection(vol, brain):
    """Brain voxel centres on the (y, z) world plane, as quickshear projects them."""
    A = vol.affine
    return np.argwhere(brain.data) @ A[1:3, :3].T + A[1:3, 3]


def cross(o, a, b):
    """z of (a - o) x (b - o), rowwise over ``b``: positive when b is left of o->a."""
    return (a[0] - o[0]) * (b[..., 1] - o[1]) - (a[1] - o[1]) * (b[..., 0] - o[0])


def quickshear_oracle_removed(vol, brain):
    """Independent route: qhull for the sagittal hull, the same edge rule,
    then a voxel loop for the half-space membership."""
    A = vol.affine
    yz = brain_projection(vol, brain)
    hull = ConvexHull(yz)
    verts = yz[hull.vertices]  # qhull returns CCW order in 2D
    diag = np.array([1.0, -1.0]) / math.sqrt(2.0)
    best = None
    for i in range(len(verts)):
        p, q = verts[i], verts[(i + 1) % len(verts)]
        d = q - p
        n = np.array([d[1], -d[0]])
        n = n / np.linalg.norm(n)
        if n[0] > 0 and n[1] < 0:
            score = n @ diag
            if best is None or score > best[0]:
                best = (score, p, n)
    _, point, normal = best
    point = point + 10.0 * normal

    head = head_mask(vol).data
    removed = np.zeros(vol.dims, dtype=bool)
    for x in range(vol.dims[0]):
        ones = np.ones(vol.dims[2])
        for y in range(vol.dims[1]):
            w = (
                np.stack([np.full(vol.dims[2], x), np.full(vol.dims[2], y),
                          np.arange(vol.dims[2])], axis=1)
                @ A[1:3, :3].T
                + A[1:3, 3]
            )
            side = (w - point) @ normal
            removed[x, y] = (side > 0) & head[x, y]
    return removed


def quickshear_whole_grid(vol, brain, buffer_mm, head):
    """The cut as quickshear computed it on the whole grid at once, before it
    ran one x-plane at a time: the reference it must equal bit for bit."""
    A = vol.affine
    point, normal = _shear_line(brain_projection(vol, brain))
    offset_point = point + buffer_mm * normal
    nx, ny, nz = vol.dims
    ax = np.arange(nx)[:, None, None]
    ay = np.arange(ny)[None, :, None]
    az = np.arange(nz)[None, None, :]
    wy = A[1, 0] * ax + A[1, 1] * ay + A[1, 2] * az + A[1, 3]
    wz = A[2, 0] * ax + A[2, 1] * ay + A[2, 2] * az + A[2, 3]
    side = normal[0] * (wy - offset_point[0]) + normal[1] * (wz - offset_point[1])
    cut = side > 0
    return np.where(cut, 0.0, vol.data), cut & head.data


def oblique(affine):
    """``affine`` turned about world x and z and shifted off the voxel lattice."""
    turned = np.eye(4)
    for i, j, angle in ((1, 2, 0.3), (0, 1, -0.2)):
        r = np.eye(4)
        r[i, i], r[i, j], r[j, i], r[j, j] = (math.cos(angle), -math.sin(angle),
                                              math.sin(angle), math.cos(angle))
        turned = r @ turned
    turned = turned @ affine
    turned[:3, 3] += [1.3, -2.1, 0.7]
    return turned


AFFINES = {
    "diagonal": lambda a: a,
    # voxel axes 1 and 2 swapped: world y runs along the third voxel axis
    "axis-permuted": lambda a: a[:, [0, 2, 1, 3]],
    "oblique": oblique,
}


class TestQuickshear:
    @pytest.mark.parametrize("buffer_mm", [0.0, 10.0, 25.0])
    @pytest.mark.parametrize("affine", sorted(AFFINES))
    def test_equals_the_whole_grid_cut(self, small_phantom, small_head, affine, buffer_mm):
        vol, brain, _ = small_phantom
        A = AFFINES[affine](vol.affine)
        vol, brain, head = (Volume3D(vol.data, A), BinaryMask(brain.data, A),
                            BinaryMask(small_head.data, A))
        defaced, removed = quickshear(vol, brain, buffer_mm=buffer_mm, head=head)
        want_defaced, want_removed = quickshear_whole_grid(vol, brain, buffer_mm, head)
        assert defaced.data.tobytes() == want_defaced.tobytes()
        assert np.array_equal(removed.data, want_removed)
        if buffer_mm == 0.0:
            assert removed.count() > 0

    def test_default_phantom_allocates_little_beyond_what_it_returns(self, phantom_default,
                                                                    phantom_head):
        # it returns 18 MiB (a float64 volume and a bool mask); the whole-grid
        # cut peaked at 82 MiB
        vol, brain, _ = phantom_default
        quickshear(vol, brain, head=phantom_head)  # imports and lazy set-up are not counted
        tracemalloc.start()
        try:
            quickshear(vol, brain, head=phantom_head)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_huge_buffer_removes_nothing(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=500.0, head=small_head)
        assert removed.count() == 0
        assert np.array_equal(defaced.data, vol.data)

    def test_brain_is_never_zeroed(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        for buf in (0.0, 5.0, 20.0):
            defaced, _ = quickshear(vol, brain, buffer_mm=buf, head=small_head)
            assert np.array_equal(defaced.data[brain.data], vol.data[brain.data])

    def test_removed_matches_independent_halfspace_oracle(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        _, removed = quickshear(vol, brain, buffer_mm=10.0, head=small_head)
        assert np.array_equal(removed.data, quickshear_oracle_removed(vol, brain))

    def test_monotone_in_buffer(self, small_phantom):
        vol, brain, _ = small_phantom
        head = head_mask(vol)
        previous = None
        for buf in (0.0, 5.0, 10.0, 20.0):
            _, removed = quickshear(vol, brain, buffer_mm=buf, head=head)
            if previous is not None:
                assert not (removed.data & ~previous).any()  # shrinking sets
            previous = removed.data

    def test_untouched_outside_removed_region(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=5.0, head=small_head)
        outside = ~removed.data
        assert np.array_equal(defaced.data[outside], vol.data[outside])

    def test_empty_brain_raises(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        empty = brain.with_data(np.zeros(vol.dims, bool))
        with pytest.raises(ValueError, match="empty"):
            quickshear(vol, empty, head=small_head)

    def test_geometry_mismatch_raises(self, small_phantom, small_head, phantom_default):
        vol, _, _ = small_phantom
        _, brain_big, _ = phantom_default
        with pytest.raises(GeometryMismatchError):
            quickshear(vol, brain_big, head=small_head)

    def test_negative_buffer_raises(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        with pytest.raises(ValueError):
            quickshear(vol, brain, buffer_mm=-1.0, head=small_head)

    @pytest.mark.parametrize("buffer_mm", [math.nan, math.inf])
    def test_non_finite_buffer_raises(self, small_phantom, small_head, buffer_mm):
        vol, brain, _ = small_phantom
        with pytest.raises(ValueError, match="buffer_mm must be finite and >= 0"):
            quickshear(vol, brain, buffer_mm=buffer_mm, head=small_head)


class TestSagittalHull:
    @pytest.mark.parametrize("phantom", ["small_phantom", "phantom_default"])
    def test_hull_of_a_phantom_brain_projection(self, request, phantom):
        vol, brain, _ = request.getfixturevalue(phantom)
        points = brain_projection(vol, brain)
        hull = _hull_cycle(points)
        n = len(hull)
        assert n >= 3
        for i in range(n):
            p, q, r = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            assert cross(p, q, r) > 0  # strictly convex, counter-clockwise
            assert (cross(p, q, points) >= 0).all()  # every point inside edge p->q
        assert tuple(hull[0]) == min(map(tuple, points.tolist()))
        assert {tuple(v) for v in hull.tolist()} <= {tuple(v) for v in points.tolist()}

    @pytest.mark.parametrize("voxels", [
        [(5, 9, 7)],
        [(5, 9, 7), (20, 9, 7)],  # two voxels, one projected point
        [(5, 3, 7), (5, 9, 12)],
        [(5, 3, 3), (5, 6, 6), (8, 9, 9), (5, 12, 12)],  # on the 45-degree line
        [(5, 4, 10), (5, 8, 10), (5, 12, 10)],  # along y
        [(5, 10, 4), (5, 10, 8), (5, 10, 12)],  # along z
    ], ids=["1-point", "1-distinct", "2-point", "collinear-diagonal", "collinear-y",
            "collinear-z"])
    def test_degenerate_brain_takes_the_extreme_point_rule(self, small_phantom, small_head,
                                                          voxels):
        vol, _, _ = small_phantom
        data = np.zeros(vol.dims, bool)
        data[tuple(np.array(voxels).T)] = True
        brain = BinaryMask.like(vol, data)
        points = brain_projection(vol, brain)
        assert _hull_cycle(points) is None
        point, normal = _shear_line(points)
        assert np.array_equal(normal, DIAG)
        assert (point == points).all(axis=1).any()
        assert point @ DIAG == pytest.approx((points @ DIAG).max(), abs=1e-9)

        defaced, removed = quickshear(vol, brain, buffer_mm=4.0, head=small_head)
        A = vol.affine
        world = np.indices(vol.dims).reshape(3, -1).T @ A[1:3, :3].T + A[1:3, 3]
        beyond = ((world - point) @ DIAG > 4.0).reshape(vol.dims)
        assert np.array_equal(removed.data, beyond & small_head.data)
        assert np.array_equal(defaced.data[brain.data], vol.data[brain.data])
