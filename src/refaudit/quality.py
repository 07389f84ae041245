"""Masked PSNR/SSIM and the changed-area intersection mask.

Conventions recorded in report metadata: the PSNR peak is the whole-volume
maximum of the reference; SSIM uses a 3D Gaussian window (sigma 1.5,
truncated at 11^3) with C1=(0.01 L)^2, C2=(0.03 L)^2 where L is the
reference dynamic range; windows overhanging the border are renormalized
over the in-volume Gaussian mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import ndimage

from .errors import DegenerateInputError
from .volume import BinaryMask, Volume3D, require_same_geometry

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
    """10 log10(peak^2 / masked MSE) in dB; +inf when the masked MSE is 0."""
    require_same_geometry(reference, test, "reference and test volumes")
    require_same_geometry(reference, mask, "volume and mask")
    sel = mask.data
    if not sel.any():
        raise ValueError("mask is empty")
    peak = float(reference.data.max())
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
    every volume has the reference's geometry. The reference's moments are
    computed once, and a test's arrays are released before the next map is
    built."""
    x = reference.data
    dyn = float(x.max() - x.min())
    if dyn == 0.0:
        raise DegenerateInputError("reference has zero dynamic range")
    c1 = (0.01 * dyn) ** 2
    c2 = (0.03 * dyn) ** 2

    kernel = _gaussian_kernel()
    mass = _local_mean(np.ones_like(x), kernel, np.ones_like(x))
    mu_x = _local_mean(x, kernel, mass)
    var_x = _local_mean(x * x, kernel, mass) - mu_x * mu_x
    for test in tests:
        y = test.data
        mu_y = _local_mean(y, kernel, mass)
        var_y = _local_mean(y * y, kernel, mass) - mu_y * mu_y
        cov = _local_mean(x * y, kernel, mass) - mu_x * mu_y
        ssim_map = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
            (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        )
        yield ssim_map
        del y, mu_y, var_y, cov, ssim_map


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
