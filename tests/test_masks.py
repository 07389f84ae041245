import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

from refaudit.deface import quickshear
from refaudit.denoisers import mirror_fill
from refaudit.errors import DegenerateInputError
from refaudit.masks import (
    OTSU_BLOCK_PLANES,
    _close_ball2,
    _fill_holes,
    _largest_component,
    face_roi,
    head_mask,
    otsu_threshold,
)
from refaudit.volume import BinaryMask, Volume3D


def vol_of(data, spacing=(1.0, 1.0, 1.0)):
    return Volume3D(data=np.asarray(data, dtype=np.float64),
                    affine=np.diag(list(spacing) + [1.0]))


def mask_of(data):
    return BinaryMask(data=np.asarray(data, dtype=bool), affine=np.eye(4))


def otsu_oracle(data, bins):
    """Exhaustive between-class variance scan, written naively."""
    counts, edges = np.histogram(data.ravel(), bins=bins, range=(data.min(), data.max()))
    centers = 0.5 * (edges[:-1] + edges[1:])
    best_k, best_var = None, -1.0
    for k in range(1, bins):
        w0 = counts[:k].sum()
        w1 = counts[k:].sum()
        if w0 == 0 or w1 == 0:
            var = 0.0
        else:
            mu0 = (counts[:k] * centers[:k]).sum() / w0
            mu1 = (counts[k:] * centers[k:]).sum() / w1
            var = float(w0) * float(w1) * (mu0 - mu1) ** 2
        if var > best_var:
            best_var, best_k = var, k
    return float(edges[best_k])


class TestOtsu:
    def test_perfectly_bimodal(self):
        data = np.zeros((8, 8, 8))
        data[4:] = 100.0
        thr = otsu_threshold(vol_of(data))
        assert 0.0 < thr < 100.0
        fg = vol_of(data).data > thr
        assert np.array_equal(fg, data == 100.0)

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(20):
            data = rng.standard_normal((16, 16, 16)) * rng.uniform(1, 50)
            vol = vol_of(data)
            assert otsu_threshold(vol) == otsu_oracle(vol.data, 256)

    def test_three_level_volume_against_oracle(self):
        vals = np.concatenate([np.zeros(450), np.ones(100), np.full(450, 2.0)])
        data = vals.reshape((10, 10, 10))
        assert otsu_threshold(vol_of(data)) == otsu_oracle(data, 256)

    def test_constant_volume_raises(self):
        with pytest.raises(DegenerateInputError):
            otsu_threshold(vol_of(np.full((4, 4, 4), 3.0)))

    def test_range_too_narrow_for_256_bins_raises_naming_it(self):
        data = np.ones((6, 6, 6))
        data[0, 0, 0] = 1 + 2.2e-16
        with pytest.raises(DegenerateInputError,
                           match=r"intensity range \[1\.0, 1\.0000000000000002\]"):
            otsu_threshold(vol_of(data))
        with pytest.raises(DegenerateInputError, match="too narrow"):
            head_mask(vol_of(data))

    @given(st.sampled_from([0.5, 2.0, 3.0]), st.sampled_from([-5.0, 0.0, 10.0]),
           st.integers(0, 2**31 - 1))
    def test_foreground_invariant_under_increasing_affine_map(self, a, b, seed):
        rng = np.random.default_rng(seed)
        data = np.where(rng.random((12, 12, 12)) > 0.5,
                        rng.normal(10, 1, (12, 12, 12)),
                        rng.normal(-10, 1, (12, 12, 12)))
        vol = vol_of(data)
        mapped = vol_of(a * data + b)
        fg = vol.data > otsu_threshold(vol)
        fg_mapped = mapped.data > otsu_threshold(mapped)
        assert np.array_equal(fg, fg_mapped)


def otsu_one_shot(vol):
    """The Otsu threshold from one ``np.histogram`` over every voxel: the
    recipe ``otsu_threshold`` counts in blocks, written out whole."""
    data = vol.data.ravel()
    lo, hi = float(data.min()), float(data.max())
    counts, edges = np.histogram(data, bins=256, range=(lo, hi))
    counts = counts.astype(np.float64)
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = counts.sum()
    cum_w = np.cumsum(counts)
    cum_m = np.cumsum(counts * centers)
    w0 = cum_w[:-1]
    w1 = total - w0
    with np.errstate(invalid="ignore", divide="ignore"):
        mu0 = cum_m[:-1] / w0
        mu1 = (cum_m[-1] - cum_m[:-1]) / w1
        var_b = w0 * w1 * (mu0 - mu1) ** 2
    var_b[(w0 == 0) | (w1 == 0)] = 0.0
    return float(edges[int(np.argmax(var_b)) + 1])


def assert_same_float(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestOtsuBlockedCount:
    """``otsu_threshold`` counts the voxels at the minimum apart and bins the
    rest a block of x-planes at a time; it must equal the one-shot recipe bit
    for bit."""

    def test_phantoms_and_their_defaced_volumes(self, phantom_default, phantom_head,
                                                small_phantom, small_head):
        for (vol, brain, _), head in ((phantom_default, phantom_head), (small_phantom, small_head)):
            defaced, removed = quickshear(vol, brain, head=head)
            assert removed.count() > 0
            for v in (vol, defaced):
                assert (v.data == v.data.min()).mean() > 0.5  # most voxels sit at the minimum
                assert_same_float(otsu_threshold(v), otsu_one_shot(v))

    def test_noise_floor_with_no_voxel_mass_at_the_minimum(self, rng):
        vol = vol_of(rng.normal(100.0, 10.0, (40, 24, 20)))
        assert np.count_nonzero(vol.data == vol.data.min()) == 1
        assert_same_float(otsu_threshold(vol), otsu_one_shot(vol))

    def test_minimum_held_by_zero_and_negative_zero(self, rng):
        data = rng.uniform(0.0, 50.0, (20, 12, 10))
        data[rng.random(data.shape) < 0.4] = 0.0
        data[rng.random(data.shape) < 0.3] = -0.0
        assert np.signbit(data[data == 0.0]).any() and not np.signbit(data[data == 0.0]).all()
        vol = vol_of(data)
        assert_same_float(otsu_threshold(vol), otsu_one_shot(vol))

    @pytest.mark.parametrize("lo", [-3.5, 0.0])
    def test_all_voxels_but_one_at_the_minimum(self, lo):
        data = np.full((OTSU_BLOCK_PLANES + 3, 6, 7), lo)
        data[OTSU_BLOCK_PLANES + 1, 2, 5] = 12.25  # in the second, ragged block
        vol = vol_of(data)
        assert_same_float(otsu_threshold(vol), otsu_one_shot(vol))

    @pytest.mark.parametrize("dims", [(37, 5, 9), (OTSU_BLOCK_PLANES, 3, 4), (1, 9, 11),
                                      (2 * OTSU_BLOCK_PLANES + 1, 4, 3)])
    def test_dims_that_are_not_a_multiple_of_the_block(self, rng, dims):
        data = np.round(rng.normal(20.0, 8.0, dims), 1)
        data[rng.random(dims) < 0.5] = data.min()
        vol = vol_of(data)
        assert_same_float(otsu_threshold(vol), otsu_one_shot(vol))

    def test_noise_floor_allocates_a_few_blocks_at_most(self, rng):
        # a whole-array data[data != lo] of this 16 MiB volume peaks at 18 MiB
        vol = vol_of(rng.normal(100.0, 10.0, (128, 128, 128)))
        otsu_threshold(vol)  # imports and lazy set-up are not counted
        tracemalloc.start()
        try:
            otsu_threshold(vol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def ball_structure(radius: int) -> np.ndarray:
    """Ball structuring element: offsets with squared norm <= radius^2
    (the 6-connected cross at radius 1)."""
    r = int(radius)
    ax = np.arange(-r, r + 1)
    dx, dy, dz = np.meshgrid(ax, ax, ax, indexing="ij")
    return dx * dx + dy * dy + dz * dz <= r * r


def erode1(data):
    """Erosion by the 6-connected cross; outside the volume is background."""
    return ndimage.binary_erosion(data, structure=ball_structure(1))


def dilate1(data):
    """Dilation by the 6-connected cross."""
    return ndimage.binary_dilation(data, structure=ball_structure(1))


@st.composite
def random_masks(draw):
    """Boolean arrays with axes of 1-12 voxels (some shorter than the
    5-voxel ball), sometimes with foreground over a whole face."""
    shape = tuple(draw(st.integers(1, 12)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.random(shape) < draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        data[(slice(None),) * draw(st.integers(0, 2)) + (draw(st.sampled_from([0, -1])),)] = True
    return data


class TestMorphology:
    def test_ball_radius_one_is_six_connected(self):
        ball = ball_structure(1)
        assert ball.sum() == 7

    def test_ball_radius_two_has_33_offsets(self):
        # 1 centre, 6 at distance 1, 12 at sqrt 2, 8 at sqrt 3 and 6 at distance 2
        assert ball_structure(2).sum() == 33

    def test_close_fills_single_voxel_pit(self):
        cube = np.zeros((15, 15, 15), bool)
        cube[3:12, 3:12, 3:12] = True
        pitted = cube.copy()
        pitted[7, 7, 7] = False
        closed = head_mask(vol_of(np.where(pitted, 100.0, 0.0)))
        assert np.array_equal(closed.data, cube)

    @given(random_masks())
    def test_closing_equals_scipy_closing_by_the_ball(self, data):
        expected = ndimage.binary_closing(data, structure=ball_structure(2))
        assert np.array_equal(_close_ball2(data), expected)

    @given(random_masks())
    def test_fill_equals_scipy_fill_holes(self, data):
        assert np.array_equal(_fill_holes(data), ndimage.binary_fill_holes(data))

    def test_largest_component_prefers_more_voxels(self):
        data = np.zeros((16, 16, 16), bool)
        data[1:11, 1, 1] = True  # 10 voxels
        data[1:6, 8, 8] = True  # 5 voxels
        out = _largest_component(data)
        assert out.sum() == 10
        assert out[:, 1, 1].any() and not out[:, 8, 8].any()

    def test_largest_component_tie_breaks_on_linear_index(self):
        data = np.zeros((8, 8, 8), bool)
        data[0, 0, 0] = True
        data[4, 4, 4] = True
        out = _largest_component(data)
        assert out[0, 0, 0] and not out[4, 4, 4]

    def test_fill_holes_fills_enclosed_background_only(self):
        # the 6^3 cavity is wider than the radius-2 closing can bridge
        data = np.zeros((16, 16, 16), bool)
        data[3:13, 3:13, 3:13] = True
        data[5:11, 5:11, 5:11] = False  # enclosed cavity
        out = head_mask(vol_of(np.where(data, 100.0, 0.0)))
        assert out.data[5:11, 5:11, 5:11].all()
        assert out.data.sum() == 10 * 10 * 10


class TestHeadMask:
    def test_phantom_mask_within_one_voxel_of_analytic_union(self, phantom_default, phantom_head):
        vol, _, geom = phantom_default
        idx = np.indices(vol.dims).reshape(3, -1).T
        world = idx @ vol.affine[:3, :3].T + vol.affine[:3, 3]
        analytic = geom.contains_head(world).reshape(vol.dims)
        inner = erode1(analytic)
        outer = dilate1(analytic)
        assert not (inner & ~phantom_head.data).any()
        assert not (phantom_head.data & ~outer).any()

    def test_noise_background_plus_ball(self, rng):
        dims = (40, 40, 40)
        data = rng.normal(0.0, 1.0, dims)
        idx = np.indices(dims) - 19.5
        ball = (idx**2).sum(axis=0) <= 12.0**2
        data[ball] = 100.0 + rng.normal(0, 1.0, int(ball.sum()))
        mask = head_mask(vol_of(data))
        assert not (erode1(ball) & ~mask.data).any()
        assert not (mask.data & ~dilate1(ball)).any()

    def test_single_connected_component_without_cavities(self, phantom_head):
        labels, n = ndimage.label(phantom_head.data, structure=np.ones((3, 3, 3)))
        assert n == 1
        filled = ndimage.binary_fill_holes(phantom_head.data)
        assert np.array_equal(filled, phantom_head.data)

    def test_one_bright_blob_gives_one_component(self, rng):
        data = np.zeros((24, 24, 24))
        data[8:14, 9:15, 10:16] = 50.0
        mask = head_mask(vol_of(data))
        _, n = ndimage.label(mask.data, structure=np.ones((3, 3, 3)))
        assert n == 1


def head_mask_full_grid(vol):
    """The head-mask recipe on the whole grid, without the bounding-box crop."""
    closed = ndimage.binary_closing(vol.data > otsu_threshold(vol), structure=ball_structure(2))
    return _largest_component(ndimage.binary_fill_holes(closed))


class TestHeadMaskCrop:
    def assert_matches_full_grid(self, vol):
        got = head_mask(vol).data
        assert np.array_equal(got, head_mask_full_grid(vol))
        return got

    def test_phantom_original_defaced_and_mirror_filled(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, head=small_head)
        assert removed.count() > 0
        for v in (vol, defaced, mirror_fill(defaced, removed)):
            self.assert_matches_full_grid(v)

    def test_foreground_touching_grid_faces(self, rng):
        data = rng.uniform(0.0, 5.0, size=(20, 18, 16))
        data[0:14, 4:18, 3:16] = 100.0  # meets the x = 0, y = 17 and z = 15 faces
        assert self.assert_matches_full_grid(vol_of(data)).any()

    def test_equal_components_tie_break_on_x_fastest_order(self):
        data = np.zeros((30, 30, 30))
        data[20:24, 4:8, 4:8] = 1.0  # high x, low z: first in x-fastest order
        data[3:7, 4:8, 18:22] = 1.0  # low x, high z: first in C order
        got = self.assert_matches_full_grid(vol_of(data))
        assert np.array_equal(got, (data == 1.0) & (np.arange(30) < 15)[None, None, :])

    def test_gap_bridged_next_to_the_box_edge(self):
        data = np.zeros((24, 24, 24))
        data[6:16, 6:16, 6:12] = 1.0
        data[6:16, 6:16, 13:19] = 1.0  # one-slice gap at z = 12 meeting the box's x, y faces
        data[6, 6, 12] = 1.0  # keeps the slabs one component without the closing
        got = self.assert_matches_full_grid(vol_of(data))
        assert got[7:15, 7:15, 12].all()  # bridged to within one voxel of the box edge

    def test_random_blobs(self, rng):
        for _ in range(10):
            data = ndimage.uniform_filter(rng.random((18, 20, 22)), 3)
            self.assert_matches_full_grid(vol_of(data))


@pytest.mark.parametrize("dims", [(1, 12, 12), (12, 2, 12), (12, 12, 1), (1, 2, 12)])
def test_head_mask_on_axes_of_one_and_two_voxels_matches_full_grid(rng, dims):
    vol = vol_of(rng.uniform(0.0, 5.0, size=dims))
    assert np.array_equal(head_mask(vol).data, head_mask_full_grid(vol))


class TestFaceRoi:
    def test_direct_application_of_the_rule(self):
        data = np.zeros((20, 60, 100), bool)
        data[:, 0:60, 0:100] = True
        out = face_roi(mask_of(data))
        zs = np.nonzero(out.data)[2]
        ys = np.nonzero(out.data)[1]
        assert zs.min() == 10 and zs.max() == 99
        assert ys.min() == 30 and ys.max() == 59

    def test_empty_anterior_half_gives_empty_result(self):
        # anterior-half voxels exist only inside the 10 cropped neck slices,
        # so the two crops together leave nothing
        data = np.zeros((10, 40, 50), bool)
        data[:, 0:10, 5:45] = True  # posterior bulk, bbox y 0..39, z 5..44
        data[:, 30:40, 5:14] = True  # anterior voxels, all below zmin + 10
        out = face_roi(mask_of(data))
        assert out.data.sum() == 0

    def test_phantom_count_matches_voxelwise_predicate(self, phantom_head):
        out = face_roi(phantom_head)
        xs, ys, zs = np.nonzero(phantom_head.data)
        zmin = zs.min()
        y_keep = int(np.ceil((ys.min() + ys.max()) / 2.0))
        keep = (zs >= zmin + 10) & (ys >= y_keep)
        assert out.count() == int(keep.sum())

    def test_idempotent_under_fixed_crop_planes(self, phantom_head):
        once = face_roi(phantom_head)
        xs, ys, zs = np.nonzero(phantom_head.data)
        zmin = zs.min()
        y_keep = int(np.ceil((ys.min() + ys.max()) / 2.0))
        again = once.data.copy()
        again[:, :, zmin : zmin + 10] = False
        again[:, :y_keep, :] = False
        assert np.array_equal(again, once.data)

    def test_too_few_slices_raises(self):
        data = np.zeros((10, 30, 30), bool)
        data[:, :, 5:13] = True
        data[:, 20:, :] &= True
        data[:, :, :5] = False
        with pytest.raises(DegenerateInputError):
            face_roi(mask_of(data & np.ones_like(data)))

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            face_roi(mask_of(np.zeros((5, 5, 20), bool)))
