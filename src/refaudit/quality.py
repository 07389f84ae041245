"""Masked PSNR/SSIM and the changed-area intersection mask.

Conventions recorded in report metadata: the PSNR peak is the whole-volume
maximum of the reference; SSIM uses a 3D Gaussian window (sigma 1.5,
truncated at 11^3) with C1=(0.01 L)^2, C2=(0.03 L)^2 where L is the
reference dynamic range; windows overhanging the border are renormalized
over the in-volume Gaussian mass. The PSNR peak must be positive.

A candidate's SSIM map is computed only on the box where it differs from the
reference, grown by the window radius; everywhere else the candidate equals
the reference over the whole window, and the map is exactly 1.0 there, as the
full-volume computation gives bit for bit. No whole-grid map is built: a
masked mean gathers the box's values among ones, in the mask's order.
``quality_report`` draws its candidates one at a time and keeps of each only
its PSNRs and the crop its map reads, so a call holds the original and one
candidate volume.
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


def _local_mean(arr: np.ndarray, kernel: np.ndarray, mass, out: np.ndarray,
                tmp: np.ndarray) -> np.ndarray:
    """The Gaussian-weighted sum of ``arr`` over each voxel's window, divided
    by ``mass`` unless that is None, written to ``out``. The three separable
    passes alternate between ``out`` and the scratch array ``tmp``, which may
    be ``arr`` itself."""
    ndimage.correlate1d(arr, kernel, axis=0, output=out, mode="constant", cval=0.0)
    ndimage.correlate1d(out, kernel, axis=1, output=tmp, mode="constant", cval=0.0)
    ndimage.correlate1d(tmp, kernel, axis=2, output=out, mode="constant", cval=0.0)
    if mass is not None:
        out /= mass
    return out


def _grown(box, pad: int, shape) -> tuple:
    return tuple(slice(max(s.start - pad, 0), min(s.stop + pad, n)) for s, n in zip(box, shape))


def _within(box, frame) -> tuple:
    """``box`` in the coordinates of the crop ``frame``, which holds it."""
    return tuple(slice(b.start - f.start, b.stop - f.start) for b, f in zip(box, frame))


def _difference_crop(reference: Volume3D, test: Volume3D):
    """``(inner, crop, values)`` for a test volume: the bounding box of the
    voxels where it differs from the reference grown by the window radius,
    the same box grown by twice the radius, and a copy of the test on that
    crop; None when the test equals the reference."""
    tight = BinaryMask.like(reference, reference.data != test.data).bounding_box(0)
    if tight is None:
        return None
    radius = SSIM_WINDOW // 2
    crop = _grown(tight, 2 * radius, test.dims)
    return _grown(tight, radius, test.dims), crop, test.data[crop].copy()


def _ssim_maps(x: np.ndarray, changes):
    """The local SSIM map of each test against the reference data ``x``, in
    order, as ``(inner, values)``: the map is ``values`` on the box ``inner``
    and exactly 1.0 elsewhere; None for a test equal to the reference.
    ``changes`` holds each test's ``_difference_crop``.

    A test that equals the reference over a voxel's whole window scores
    exactly 1.0 there (its moments are the reference's, bit for bit), so a
    map is computed only on its inner box. All filtering runs on one outer
    crop, the union of the tests' crops: every inner-box value reads only
    voxels of its test's crop, where the test is pasted over the reference,
    and where the crop meets the volume border its zero padding is the
    volume's own. The reference's moments on the crop are filtered once, and
    not at all when every test equals the reference."""
    dyn = float(x.max() - x.min())
    if dyn == 0.0:
        raise DegenerateInputError("reference has zero dynamic range")
    c1 = (0.01 * dyn) ** 2
    c2 = (0.03 * dyn) ** 2

    crops = [change[1] for change in changes if change is not None]
    if crops:
        outer = tuple(slice(min(c[a].start for c in crops), max(c[a].stop for c in crops))
                      for a in range(3))
        kernel = _gaussian_kernel()
        xc = x[outer]
        tmp = np.ones(xc.shape)
        mass = _local_mean(tmp, kernel, None, np.empty(xc.shape), tmp)
        mu_x = _local_mean(xc, kernel, mass, np.empty(xc.shape), tmp)
        var_x = _local_mean(np.multiply(xc, xc, out=tmp), kernel, mass, np.empty(xc.shape), tmp)
        var_x -= np.multiply(mu_x, mu_x, out=tmp)

    for change in changes:
        if change is None:
            yield None
            continue
        inner, crop, values = change
        y = xc.copy()
        y[_within(crop, outer)] = values
        mu_y = _local_mean(y, kernel, mass, np.empty(xc.shape), tmp)
        cov = _local_mean(np.multiply(xc, y, out=tmp), kernel, mass, np.empty(xc.shape), tmp)
        var_y = _local_mean(np.multiply(y, y, out=y), kernel, mass, tmp, y)
        # the map's arithmetic, in place on the inner box, in the order of
        # ((2 mu_x mu_y + c1)(2 cov + c2)) / ((mu_x^2 + mu_y^2 + c1)(var_x + var_y + c2))
        b = _within(inner, outer)
        mx, vx, my, vy, cv, out = mu_x[b], var_x[b], mu_y[b], var_y[b], cov[b], y[b]
        vy -= np.multiply(my, my, out=out)
        cv -= np.multiply(mx, my, out=out)
        cv *= 2
        cv += c2
        np.multiply(2, mx, out=out)
        out *= my
        out += c1
        out *= cv
        np.multiply(mx, mx, out=cv)
        my *= my
        cv += my
        cv += c1
        vy += vx
        vy += c2
        cv *= vy
        out /= cv
        yield inner, out
        del y, mu_y, cov, var_y, mx, vx, my, vy, cv, out  # before the next test's arrays


def _masked_mean(mask: np.ndarray, box, values: np.ndarray) -> float:
    """``grid[mask].mean()`` of the grid that holds ``values`` on ``box`` and
    1.0 elsewhere, gathered in the same order without building the grid."""
    lines = np.count_nonzero(mask, axis=2)  # set voxels on each (i, j) line
    gathered = np.ones(int(lines.sum()))
    inside = mask[box]
    # where each of the box's lines starts in ``gathered``, then each set
    # voxel's place along its line
    first = np.cumsum(lines).reshape(lines.shape) - lines
    first = first[box[:2]] + np.count_nonzero(mask[box[0], box[1], :box[2].start], axis=2) - 1
    index = np.cumsum(inside, axis=2)
    index += first[:, :, None]
    gathered[index[inside]] = values[inside]
    return float(gathered.mean())


def _ssim_means(reference: Volume3D, changes, masks):
    """For each test's ``_difference_crop``, in order, the mean of its local
    SSIM map over each of ``masks`` (boolean arrays on the reference grid)."""
    for ssim_map in _ssim_maps(reference.data, changes):
        means = ((1.0,) * len(masks) if ssim_map is None
                 else tuple(_masked_mean(mask, *ssim_map) for mask in masks))
        del ssim_map  # before the next map is built
        yield means


def ssim(reference: Volume3D, test: Volume3D, mask: BinaryMask) -> float:
    """Mean of the local SSIM map over voxels whose window center lies in the
    mask; value in [-1, 1]."""
    require_same_geometry(reference, test, "reference and test volumes")
    require_same_geometry(reference, mask, "volume and mask")
    if not mask.data.any():
        raise ValueError("mask is empty")
    ((mean,),) = _ssim_means(reference, [_difference_crop(reference, test)], [mask.data])
    return mean


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

    ``candidates`` is an iterable of ``(name, volume)`` pairs (a caller
    holding a dict passes its ``items()``); one record per pair comes back,
    in order, with ``image`` set to the name. The pairs are drawn one at a
    time: a candidate's PSNRs are computed and the crop its SSIM map reads
    is copied out, and the candidate is released before the next is drawn.
    """
    psnrs, changes = [], []
    for name, img in candidates:
        # psnr checks the geometry of img and both masks before img is cropped
        psnrs.append((name, psnr(original, img, head), psnr(original, img, removed)))
        changes.append(_difference_crop(original, img))
        del img  # before the next pair is drawn
    ssims = _ssim_means(original, changes, (head.data, removed.data))
    return [QualityRecord(*p, *s) for p, s in zip(psnrs, ssims)]
