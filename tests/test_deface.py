import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from refaudit.deface import quickshear
from refaudit.errors import GeometryMismatchError
from refaudit.masks import head_mask


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
