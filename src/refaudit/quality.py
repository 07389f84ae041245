"""Masked PSNR/SSIM and the changed-area intersection mask.

Conventions recorded in report metadata: the PSNR peak is the whole-volume
maximum of the reference; SSIM uses a 3D Gaussian window (sigma 1.5,
truncated at 11^3) with C1=(0.01 L)^2, C2=(0.03 L)^2 where L is the
reference dynamic range; windows overhanging the border are renormalized
over the in-volume Gaussian mass. The PSNR peak must be positive.

A candidate's SSIM map is filtered only on the box where it differs from the
reference, grown by the window radius; everywhere else the candidate equals
the reference over the whole window, and the map is exactly 1.0 there, as the
full-volume computation gives bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._lazy import LazyModule
from .errors import DegenerateInputError
from .volume import BinaryMask, Volume3D, require_same_geometry

ndimage = LazyModule("scipy.ndimage")

SSIM_SIGMA = 1.5
SSIM_WINDOW = 11

QUALITY_CONVENTIONS = {
    "psnr_peak": "whole-volume reference max",
    "ssim_window": f"gaussian sigma={SSIM_SIGMA} truncated {SSIM_WINDOW}^3",
    "ssim_border": "zero-padded gaussian renormalization",
}


def intersection_mask(masks) -> BinaryMask:
    """Voxelwise AND of one or more masks with identical geometry."""
    masks = list(masks)
    if not masks:
        raise ValueError("need at least one mask")
    for m in masks[1:]:
        require_same_geometry(masks[0], m, "masks")
    data = reduce(np.logical_and, (m.data for m in masks))
    return masks[0].with_data(data)


def psnr(reference: Volume3D, test: Volume3D, mask: BinaryMask) -> float:
    """10 log10(peak^2 / masked MSE) in dB; +inf when the masked MSE is 0.
    The peak is the reference's maximum and must be positive."""
    require_same_geometry(reference, test, "reference and test volumes")
    require_same_geometry(reference, mask, "volume and mask")
    sel = mask.data
    if not sel.any():
        raise ValueError("mask is empty")
    peak = float(reference.data.max())
    if peak <= 0.0:
        raise DegenerateInputError(f"PSNR peak (the reference maximum) is {peak:g}, need > 0")
    mse = float(np.mean((reference.data[sel] - test.data[sel]) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _gaussian_kernel():
    radius = SSIM_WINDOW // 2
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * SSIM_SIGMA**2))
    return k / k.sum()


def _local_mean(arr: np.ndarray, kernel: np.ndarray, mass: np.ndarray) -> np.ndarray:
    out = arr
    for axis in range(3):
        out = ndimage.correlate1d(out, kernel, axis=axis, mode="constant", cval=0.0)
    return out / mass


def _ssim_maps(reference: Volume3D, tests):
    """Local SSIM map of each test volume against the reference, in order;
    every volume has the reference's geometry.

    A test that equals the reference over a voxel's whole window scores
    exactly 1.0 there (its moments are the reference's, bit for bit), so
    each map is filtered only on its inner box, the bounding box of the
    voxels where the test differs, grown by the window radius, and is 1.0
    elsewhere. All filtering runs on one outer crop, the union of the
    differing voxels grown by twice the radius: every inner-box value reads
    only voxels of that crop, and where the crop meets the volume border its
    zero padding is the volume's own. The reference's moments on the crop
    are computed once, and not at all when every test equals the reference;
    a test's arrays are released before the next map is built."""
    x = reference.data
    dyn = float(x.max() - x.min())
    if dyn == 0.0:
        raise DegenerateInputError("reference has zero dynamic range")
    c1 = (0.01 * dyn) ** 2
    c2 = (0.03 * dyn) ** 2

    tests = list(tests)
    radius = SSIM_WINDOW // 2
    boxes, changed = [], np.zeros(x.shape, bool)
    for test in tests:
        require_same_geometry(reference, test, "reference and test volumes")
        diff = test.data != x
        boxes.append(BinaryMask.like(reference, diff).bounding_box(radius))
        changed |= diff
    outer = BinaryMask.like(reference, changed).bounding_box(2 * radius)
    if outer is not None:
        kernel = _gaussian_kernel()
        xc = x[outer]
        ones = np.ones_like(xc)
        mass = _local_mean(ones, kernel, ones)
        mu_x = _local_mean(xc, kernel, mass)
        var_x = _local_mean(xc * xc, kernel, mass) - mu_x * mu_x
    for test, box in zip(tests, boxes):
        ssim_map = np.ones(x.shape)
        if box is not None:
            y = test.data[outer]
            mu_y = _local_mean(y, kernel, mass)
            var_y = _local_mean(y * y, kernel, mass) - mu_y * mu_y
            cov = _local_mean(xc * y, kernel, mass) - mu_x * mu_y
            crop_map = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
                (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
            )
            ssim_map[box] = crop_map[tuple(slice(b.start - o.start, b.stop - o.start)
                                           for b, o in zip(box, outer))]
            del y, mu_y, var_y, cov, crop_map
        yield ssim_map
        del ssim_map


def ssim(reference: Volume3D, test: Volume3D, mask: BinaryMask) -> float:
    """Mean of the local SSIM map over voxels whose window center lies in the
    mask; value in [-1, 1]."""
    require_same_geometry(reference, test, "reference and test volumes")
    require_same_geometry(reference, mask, "volume and mask")
    if not mask.data.any():
        raise ValueError("mask is empty")
    (ssim_map,) = _ssim_maps(reference, [test])
    return float(ssim_map[mask.data].mean())


@dataclass(frozen=True)
class QualityRecord:
    """PSNR/SSIM for one candidate image over the whole head and the changed
    (face) area; the table-cell layout of the quality reports."""

    image: str
    psnr_head: float
    psnr_face: float
    ssim_head: float
    ssim_face: float


def quality_report(original: Volume3D, candidates, removed: BinaryMask, *,
                   head: BinaryMask) -> list:
    """PSNR/SSIM of each candidate image against the original, over
    ``head`` (the original's ``head_mask``) and over the changed-area mask
    ``removed`` (a caller with several masks passes their
    ``intersection_mask``).

    ``candidates`` maps image names to volumes; one record per name comes
    back, in order, with ``image`` set to the name.
    """
    ssim_maps = _ssim_maps(original, candidates.values())
    records = []
    for name, img in candidates.items():
        # psnr checks the geometry of img and both masks before img's map is built
        psnr_head, psnr_face = psnr(original, img, head), psnr(original, img, removed)
        ssim_map = next(ssim_maps)  # one per candidate, reduced over both masks
        records.append(QualityRecord(name, psnr_head, psnr_face, float(ssim_map[head.data].mean()),
                                     float(ssim_map[removed.data].mean())))
        del ssim_map  # free it before the next candidate's map is built
    return records
