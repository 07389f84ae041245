import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from refaudit.deface import quickshear, regression_preproc, skull_strip
from refaudit.errors import DegenerateInputError, GeometryMismatchError
from refaudit.masks import head_mask
from refaudit.volume import BinaryMask, Volume3D


def quickshear_oracle_removed(vol, brain):
    """Independent route: qhull for the sagittal hull, the same edge rule,
    then a voxel loop for the half-space membership."""
    A = vol.affine
    idx = np.argwhere(brain.data)
    yz = idx @ A[1:3, :3].T + A[1:3, 3]
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


class TestQuickshear:
    def test_huge_buffer_removes_nothing(self, small_phantom):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=500.0)
        assert removed.count() == 0
        assert np.array_equal(defaced.data, vol.data)

    def test_brain_is_never_zeroed(self, small_phantom):
        vol, brain, _ = small_phantom
        for buf in (0.0, 5.0, 20.0):
            defaced, _ = quickshear(vol, brain, buffer_mm=buf)
            assert np.array_equal(defaced.data[brain.data], vol.data[brain.data])

    def test_removed_matches_independent_halfspace_oracle(self, small_phantom):
        vol, brain, _ = small_phantom
        _, removed = quickshear(vol, brain, buffer_mm=10.0)
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

    def test_untouched_outside_removed_region(self, small_phantom):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=5.0)
        outside = ~removed.data
        assert np.array_equal(defaced.data[outside], vol.data[outside])

    def test_empty_brain_raises(self, small_phantom):
        vol, brain, _ = small_phantom
        empty = brain.with_data(np.zeros(vol.dims, bool))
        with pytest.raises(ValueError, match="empty"):
            quickshear(vol, empty)

    def test_geometry_mismatch_raises(self, small_phantom, phantom_default):
        vol, _, _ = small_phantom
        _, brain_big, _ = phantom_default
        with pytest.raises(GeometryMismatchError):
            quickshear(vol, brain_big)

    def test_negative_buffer_raises(self, small_phantom):
        vol, brain, _ = small_phantom
        with pytest.raises(ValueError):
            quickshear(vol, brain, buffer_mm=-1.0)

    @pytest.mark.parametrize("buffer_mm", [math.nan, math.inf])
    def test_non_finite_buffer_raises(self, small_phantom, buffer_mm):
        vol, brain, _ = small_phantom
        with pytest.raises(ValueError, match="buffer_mm must be finite and >= 0"):
            quickshear(vol, brain, buffer_mm=buffer_mm)


class TestSkullStrip:
    def test_full_brain_is_identity(self, small_phantom):
        vol, _, _ = small_phantom
        full = BinaryMask.like(vol, np.ones(vol.dims, bool))
        assert np.array_equal(skull_strip(vol, full).data, vol.data)

    def test_empty_brain_zeroes_everything(self, small_phantom):
        vol, _, _ = small_phantom
        empty = BinaryMask.like(vol, np.zeros(vol.dims, bool))
        assert not skull_strip(vol, empty).data.any()

    def test_retained_count_equals_popcount(self, small_phantom):
        vol, brain, _ = small_phantom
        stripped = skull_strip(vol, brain)
        assert int((stripped.data != 0).sum()) == brain.count()

    def test_idempotent(self, small_phantom):
        vol, brain, _ = small_phantom
        once = skull_strip(vol, brain)
        twice = skull_strip(once, brain)
        assert np.array_equal(once.data, twice.data)

    def test_geometry_mismatch(self, small_phantom, phantom_default):
        vol, _, _ = small_phantom
        _, brain_big, _ = phantom_default
        with pytest.raises(GeometryMismatchError):
            skull_strip(vol, brain_big)


class TestRegressionPreproc:
    def test_paper_frame_crop_box_dims(self):
        # template-frame geometry: 201 x 261 x 261 at 1 mm, anterior third of y
        dims = (201, 261, 261)
        affine = np.eye(4)
        data = np.zeros(dims)
        gx, gy, gz = np.meshgrid(*(np.arange(n, dtype=float) for n in dims), indexing="ij")
        head = ((gx - 100) / 80) ** 2 + ((gy - 130) / 95) ** 2 + ((gz - 130) / 90) ** 2 <= 1
        data[head] = 80.0 + 0.05 * gz[head]
        brain_region = ((gx - 100) / 50) ** 2 + ((gy - 115) / 60) ** 2 + ((gz - 140) / 55) ** 2 <= 1
        data[brain_region] = 100.0
        vol = Volume3D(data=data, spacing=(1, 1, 1), affine=affine)
        brain = BinaryMask.like(vol, brain_region)
        out = regression_preproc(vol, brain, crop_box=((0, 201), (174, 261), (0, 261)))
        assert out.dims == (201, 87, 261)
        assert out.spacing == (1.0, 1.0, 1.0)

    def test_default_crop_keeps_anterior_third_of_head(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        out = regression_preproc(vol, brain)
        ys = np.nonzero(small_head.data)[1]
        extent = int(ys.max() - ys.min() + 1)
        assert out.dims == (vol.dims[0], math.ceil(extent / 3), vol.dims[2])

    def test_retained_voxels_are_z_scored(self, small_phantom):
        vol, brain, _ = small_phantom
        out = regression_preproc(vol, brain)
        vals = out.data[out.data != 0]
        assert abs(vals.mean()) < 1e-9
        assert abs(vals.std() - 1.0) < 1e-9

    def test_brain_voxels_are_zeroed(self, small_phantom):
        vol, brain, _ = small_phantom
        crop = ((0, vol.dims[0]), (0, vol.dims[1]), (0, vol.dims[2]))
        out = regression_preproc(vol, brain, crop_box=crop)
        assert not out.data[brain.data].any()

    def test_brain_covering_head_is_degenerate(self, small_phantom, small_head):
        vol, _, _ = small_phantom
        everything = BinaryMask.like(vol, vol.data != 0)
        with pytest.raises(DegenerateInputError):
            regression_preproc(vol, everything)
