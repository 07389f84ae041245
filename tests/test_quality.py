import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import refaudit.quality as quality
from refaudit.errors import DegenerateInputError, GeometryMismatchError
from refaudit.quality import intersection_mask, psnr, quality_report, ssim
from refaudit.volume import BinaryMask, Volume3D


def vol_of(data):
    return Volume3D(data=np.asarray(data, dtype=np.float64), affine=np.eye(4))


def mask_of(data):
    return BinaryMask(data=np.asarray(data, bool), affine=np.eye(4))


def ball_mask(dims, center, radius):
    idx = np.indices(dims)
    d2 = sum((idx[i] - center[i]) ** 2 for i in range(3))
    return d2 <= radius * radius


class TestIntersection:
    def test_nested_masks_give_innermost(self):
        a = mask_of(ball_mask((20, 20, 20), (10, 10, 10), 8))
        b = mask_of(ball_mask((20, 20, 20), (10, 10, 10), 6))
        c = mask_of(ball_mask((20, 20, 20), (10, 10, 10), 4))
        out = intersection_mask([a, b, c])
        assert np.array_equal(out.data, c.data)

    def test_disjoint_masks_are_empty(self):
        a = np.zeros((10, 10, 10), bool)
        b = np.zeros((10, 10, 10), bool)
        a[:3], b[7:] = True, True
        assert intersection_mask([mask_of(a), mask_of(b)]).count() == 0

    def test_matches_voxelwise_and_oracle(self, rng):
        masks = [rng.random((16, 16, 16)) < 0.5 for _ in range(4)]
        out = intersection_mask([mask_of(m) for m in masks])
        want = masks[0] & masks[1] & masks[2] & masks[3]
        assert np.array_equal(out.data, want)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_commutative_associative_idempotent(self, seed):
        r = np.random.default_rng(seed)
        a, b = (mask_of(r.random((8, 8, 8)) < 0.5) for _ in range(2))
        ab = intersection_mask([a, b]).data
        ba = intersection_mask([b, a]).data
        assert np.array_equal(ab, ba)
        assert np.array_equal(intersection_mask([a, a]).data, a.data)
        c = mask_of(r.random((8, 8, 8)) < 0.5)
        left = intersection_mask([intersection_mask([a, b]), c]).data
        right = intersection_mask([a, intersection_mask([b, c])]).data
        assert np.array_equal(left, right)

    def test_geometry_mismatch(self):
        a = mask_of(np.ones((4, 4, 4), bool))
        b = BinaryMask(data=np.ones((4, 4, 4), bool), affine=np.diag([2.0, 2, 2, 1]))
        with pytest.raises(GeometryMismatchError):
            intersection_mask([a, b])

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            intersection_mask([])


class TestPsnr:
    def test_identical_is_infinite(self, rng):
        v = vol_of(rng.random((8, 8, 8)))
        m = mask_of(np.ones((8, 8, 8), bool))
        assert psnr(v, v, m) == math.inf

    def test_direct_formula(self):
        ref = np.zeros((10, 10, 10))
        ref[0, 0, 0] = 1.0  # peak
        test = ref.copy()
        sel = np.zeros((10, 10, 10), bool)
        sel[5, :, :] = True
        test[5, :, :] += 0.1  # masked MSE = 0.01
        value = psnr(vol_of(ref), vol_of(test), mask_of(sel))
        assert value == pytest.approx(20.0, abs=1e-9)

    def test_matches_two_pass_oracle(self, rng):
        ref = rng.random((12, 12, 12)) * 7
        test = ref + rng.standard_normal((12, 12, 12)) * 0.3
        sel = rng.random((12, 12, 12)) < 0.4
        got = psnr(vol_of(ref), vol_of(test), mask_of(sel))
        # independent two-pass computation
        diffs = [ref[i, j, k] - test[i, j, k]
                 for i in range(12) for j in range(12) for k in range(12) if sel[i, j, k]]
        mse = sum(d * d for d in diffs) / len(diffs)
        want = 10 * math.log10(ref.max() ** 2 / mse)
        assert got == pytest.approx(want, abs=1e-9)

    def test_strictly_decreasing_in_masked_mse(self, rng):
        ref = rng.random((10, 10, 10))
        sel = mask_of(np.ones((10, 10, 10), bool))
        values = []
        for eps in (0.01, 0.05, 0.2):
            values.append(psnr(vol_of(ref), vol_of(ref + eps), sel))
        assert values[0] > values[1] > values[2]

    def test_empty_mask_raises(self, rng):
        v = vol_of(rng.random((6, 6, 6)))
        with pytest.raises(ValueError):
            psnr(v, v, mask_of(np.zeros((6, 6, 6), bool)))

    @pytest.mark.parametrize("top", [0.0, -0.5])
    def test_non_positive_peak_raises_naming_it(self, rng, top):
        data = rng.random((6, 6, 6))
        ref = vol_of(data - data.max() + top)
        m = mask_of(np.ones((6, 6, 6), bool))
        with pytest.raises(DegenerateInputError, match="peak"):
            psnr(ref, vol_of(ref.data + 0.1), m)


class TestSsim:
    def test_identical_is_one(self, rng):
        v = vol_of(rng.random((16, 16, 16)))
        m = mask_of(np.ones((16, 16, 16), bool))
        assert ssim(v, v, m) == 1.0

    def test_constant_patch_closed_form(self):
        # reference/test constant inside a block large enough to contain the
        # whole 11^3 window; dynamic range set by border voxels
        dims = (32, 32, 32)
        ref = np.zeros(dims)
        test = np.zeros(dims)
        ref[0, 0, 0] = 1.0
        test[0, 0, 0] = 1.0
        mu_x, mu_y = 0.6, 0.3
        ref[8:24, 8:24, 8:24] = mu_x
        test[8:24, 8:24, 8:24] = mu_y
        sel = np.zeros(dims, bool)
        sel[14:18, 14:18, 14:18] = True
        c1 = (0.01 * 1.0) ** 2
        want = (2 * mu_x * mu_y + c1) / (mu_x**2 + mu_y**2 + c1)
        got = ssim(vol_of(ref), vol_of(test), mask_of(sel))
        assert got == pytest.approx(want, abs=1e-9)

    def test_anticorrelated_patch_is_negative(self, rng):
        dims = (24, 24, 24)
        noise = rng.standard_normal(dims)
        noise -= noise.mean()
        ref = vol_of(noise)
        test = vol_of(-noise)
        sel = np.zeros(dims, bool)
        sel[8:16, 8:16, 8:16] = True
        assert ssim(ref, test, mask_of(sel)) < 0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10)
    def test_self_similarity_is_one(self, seed):
        data = np.random.default_rng(seed).random((12, 12, 12))
        v = vol_of(data)
        m = mask_of(np.random.default_rng(seed + 1).random((12, 12, 12)) < 0.5)
        if m.count() == 0:
            return
        assert ssim(v, v, m) == pytest.approx(1.0, abs=1e-12)

    def test_zero_dynamic_range_raises(self):
        v = vol_of(np.full((8, 8, 8), 2.0))
        m = mask_of(np.ones((8, 8, 8), bool))
        with pytest.raises(DegenerateInputError):
            ssim(v, v, m)

    def test_bounded_in_unit_interval(self, rng):
        ref = vol_of(rng.random((14, 14, 14)))
        test = vol_of(rng.random((14, 14, 14)))
        m = mask_of(np.ones((14, 14, 14), bool))
        value = ssim(ref, test, m)
        assert -1.0 <= value <= 1.0


def full_grid_ssim_map(x, y):
    """The local SSIM map filtered over the whole grid, the definition the
    cropped maps must reproduce bit for bit."""
    kernel = quality._gaussian_kernel()

    def local_sum(a):
        for axis in range(3):
            a = ndimage.correlate1d(a, kernel, axis=axis, mode="constant", cval=0.0)
        return a

    dyn = x.max() - x.min()
    c1, c2 = (0.01 * dyn) ** 2, (0.03 * dyn) ** 2
    mass = local_sum(np.ones_like(x)) / np.ones_like(x)
    mu_x, mu_y = local_sum(x) / mass, local_sum(y) / mass
    var_x = local_sum(x * x) / mass - mu_x * mu_x
    var_y = local_sum(y * y) / mass - mu_y * mu_y
    cov = local_sum(x * y) / mass - mu_x * mu_y
    return ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )


def changed(x, rng, *boxes):
    """``x`` with fresh random values inside each box."""
    y = x.copy()
    for box in boxes:
        y[box] = rng.random(y[box].shape)
    return y


class TestSsimCrop:
    """Maps filtered on the box where a candidate differs are the full-grid
    maps bit for bit."""

    @pytest.mark.parametrize("kinds", [
        ("box a", "box b", "identical"),
        ("boxes a and b",),
        ("border",),
        ("everywhere", "identical"),
        ("identical", "identical"),
        ("boxes a and b", "border", "box a"),
    ])
    def test_maps_equal_full_grid_maps(self, rng, kinds):
        dims = (40, 36, 32)
        x = rng.random(dims) * 50
        a = np.s_[8:11, 5:9, 6:9]
        b = np.s_[28:31, 25:29, 20:24]
        make = {
            "box a": lambda: changed(x, rng, a),
            "box b": lambda: changed(x, rng, b),
            "boxes a and b": lambda: changed(x, rng, a, b),
            "border": lambda: changed(x, rng, np.s_[:3, 30:, 12:20]),
            "everywhere": lambda: x + rng.standard_normal(dims),
            "identical": lambda: x.copy(),
        }
        ys = [make[kind]() for kind in kinds]
        maps = list(quality._ssim_maps(vol_of(x), [vol_of(y) for y in ys]))
        assert len(maps) == len(ys)
        for y, got in zip(ys, maps):
            assert np.array_equal(got, full_grid_ssim_map(x, y))

    def test_identical_candidates_are_not_filtered(self, monkeypatch, rng):
        # the original's moments cost 9 passes, each changed candidate 9
        # more; identical candidates cost none, and so does a call whose
        # candidates are all identical
        passes = []

        class CountingNdimage:
            def correlate1d(self, *args, **kwargs):
                passes.append(1)
                return ndimage.correlate1d(*args, **kwargs)

        monkeypatch.setattr(quality, "ndimage", CountingNdimage())
        dims = (16, 16, 16)
        x = rng.random(dims)
        box = np.s_[5:9, 6:10, 4:8]
        for n_changed, n_same in ((1, 0), (1, 2), (2, 1), (0, 1), (0, 3)):
            passes.clear()
            ys = [changed(x, rng, box) for _ in range(n_changed)] + [x.copy()] * n_same
            maps = list(quality._ssim_maps(vol_of(x), [vol_of(y) for y in ys]))
            assert len(passes) == (9 + 9 * n_changed if n_changed else 0)
            assert all((m == 1.0).all() for m in maps[n_changed:])


class TestQualityReport:
    def test_identical_refaced_scores_perfectly(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        from refaudit.deface import quickshear

        defaced, removed = quickshear(vol, brain, buffer_mm=10.0, head=small_head)
        records = quality_report(vol, {"defaced": defaced, "refaced": vol}, removed,
                                 head=small_head)
        by_image = {r.image: r for r in records}
        assert by_image["refaced"].ssim_head == 1.0
        assert by_image["refaced"].psnr_head == math.inf
        assert by_image["defaced"].psnr_head < math.inf

    def test_planted_perturbation_hits_closed_form_face_psnr(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        from refaudit.deface import quickshear

        defaced, removed = quickshear(vol, brain, buffer_mm=10.0, head=small_head)
        refaced = vol.data.copy()
        refaced[removed.data] += 2.5  # known MSE inside the changed area only
        records = quality_report(vol, {"defaced": defaced, "refaced": vol.with_data(refaced)},
                                 removed, head=small_head)
        rec = {r.image: r for r in records}["refaced"]
        peak = vol.data.max()
        want_face = 10 * math.log10(peak**2 / 2.5**2)
        assert rec.psnr_face == pytest.approx(want_face, abs=1e-9)
        assert rec.psnr_head > rec.psnr_face

    def test_records_equal_metrics_called_mask_by_mask(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        from refaudit.deface import quickshear
        from refaudit.denoisers import mirror_fill

        defaced, removed = quickshear(vol, brain, buffer_mm=10.0, head=small_head)
        candidates = {"refaced": mirror_fill(defaced, removed), "defaced": defaced,
                      "self": vol}
        records = quality_report(vol, candidates, removed, head=small_head)
        assert [r.image for r in records] == list(candidates)
        for rec in records:
            img = candidates[rec.image]
            assert rec.psnr_head == psnr(vol, img, small_head)
            assert rec.psnr_face == psnr(vol, img, removed)
            assert rec.ssim_head == ssim(vol, img, small_head)
            assert rec.ssim_face == ssim(vol, img, removed)
            assert quality_report(vol, {rec.image: img}, removed, head=small_head) == [rec]

    def test_candidate_geometry_mismatch_raises(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        from refaudit.deface import quickshear

        _, removed = quickshear(vol, brain, buffer_mm=10.0, head=small_head)
        affine = vol.affine.copy()
        affine[0, 3] += 1.0
        with pytest.raises(GeometryMismatchError):
            quality_report(vol, {"self": vol, "shifted": replace(vol, affine=affine)}, removed,
                           head=small_head)

    def test_reference_moments_are_filtered_once_per_call(self, monkeypatch, rng):
        # 3 passes each for the border mass, the original's mean and its
        # second moment, then 3 each for a candidate's mean, second moment
        # and cross moment
        passes = []

        class CountingNdimage:
            def correlate1d(self, *args, **kwargs):
                passes.append(1)
                return ndimage.correlate1d(*args, **kwargs)

        monkeypatch.setattr(quality, "ndimage", CountingNdimage())
        dims = (12, 12, 12)
        vol = vol_of(rng.random(dims))
        head = mask_of(np.ones(dims, bool))
        removed = mask_of(rng.random(dims) < 0.3)
        for k in (1, 2, 3):
            passes.clear()
            candidates = {f"c{i}": vol_of(rng.random(dims)) for i in range(k)}
            assert len(quality_report(vol, candidates, removed, head=head)) == k
            assert len(passes) == 9 + 9 * k

    def test_no_candidates_give_no_records(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        from refaudit.deface import quickshear

        _, removed = quickshear(vol, brain, buffer_mm=10.0, head=small_head)
        assert quality_report(vol, {}, removed, head=small_head) == []
