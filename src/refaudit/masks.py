"""Head-mask extraction and the face region-of-interest crop.

The head-mask recipe (Otsu threshold, close with a radius-2 ball, fill holes,
keep the largest component) is a declared surrogate and is tagged
"head-mask-v1" in report metadata.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .errors import DegenerateInputError
from .volume import BinaryMask, Volume3D

HEAD_MASK_VERSION = "head-mask-v1"

_LABEL_26 = np.ones((3, 3, 3), dtype=bool)


def otsu_threshold(vol: Volume3D) -> float:
    """Bin edge maximizing between-class variance over a 256-bin
    histogram spanning [min, max]; ties break toward the lower edge.

    Foreground semantics downstream: voxel is foreground iff intensity is
    strictly greater than the returned threshold.
    """
    data = vol.data.ravel()
    lo, hi = float(data.min()), float(data.max())
    if lo == hi:
        raise DegenerateInputError("constant volume has no Otsu threshold")

    counts, edges = np.histogram(data, bins=256, range=(lo, hi))
    counts = counts.astype(np.float64)
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = counts.sum()
    cum_w = np.cumsum(counts)
    cum_m = np.cumsum(counts * centers)

    w0 = cum_w[:-1]  # split k separates bins [0, k) | [k, 256)
    w1 = total - w0
    with np.errstate(invalid="ignore", divide="ignore"):
        mu0 = cum_m[:-1] / w0
        mu1 = (cum_m[-1] - cum_m[:-1]) / w1
        var_b = w0 * w1 * (mu0 - mu1) ** 2
    var_b[(w0 == 0) | (w1 == 0)] = 0.0
    k = int(np.argmax(var_b)) + 1  # argmax takes the first (lowest) maximum
    return float(edges[k])


def ball_structure(radius: int) -> np.ndarray:
    """Ball structuring element: offsets with squared norm <= radius^2
    (the 6-connected cross at radius 1)."""
    r = int(radius)
    ax = np.arange(-r, r + 1)
    dx, dy, dz = np.meshgrid(ax, ax, ax, indexing="ij")
    return dx * dx + dy * dy + dz * dz <= r * r


def _largest_component(data: np.ndarray) -> np.ndarray:
    """The 26-connected foreground component of maximal voxel count (ties:
    lowest minimum x-fastest linear index)."""
    labels, n = ndimage.label(data, structure=_LABEL_26)
    if n == 0:
        return data.copy()
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    best = sizes.max()
    candidates = np.flatnonzero(sizes == best)
    if len(candidates) > 1:
        # tie: lowest minimum linear index in x-fastest order
        flat = labels.ravel(order="F")
        candidates = sorted(candidates, key=lambda c: int(np.argmax(flat == c)))
    return labels == candidates[0]


def head_mask(vol: Volume3D) -> BinaryMask:
    """Otsu foreground, closed with a radius-2 ball (outside the volume is
    background), holes filled (background not connected to the volume
    border), then the largest component."""
    closed = ndimage.binary_closing(vol.data > otsu_threshold(vol), structure=ball_structure(2))
    return BinaryMask.like(vol, _largest_component(ndimage.binary_fill_holes(closed)))


def face_roi(mask: BinaryMask) -> BinaryMask:
    """Crop a head mask down to the face: zero the 10 lowest axial slices
    intersecting the mask's bounding box (neck) and every voxel posterior to
    the bounding box's y midpoint (back of the head).

    Crop planes track the mask bounding box, not the scanner FOV; requires a
    RAS-oriented mask.
    """
    box = mask.bounding_box(0)
    if box is None:
        raise ValueError("face_roi requires a nonempty mask")
    _, ys, zs = box
    zmin = zs.start
    if zs.stop - zmin < 11:
        raise DegenerateInputError(
            f"mask bounding box spans {zs.stop - zmin} axial slices, need >= 11"
        )
    y_keep = int(np.ceil((ys.start + ys.stop - 1) / 2.0))  # keep y >= midpoint
    out = mask.data.copy()
    out[:, :, zmin : zmin + 10] = False
    out[:, :y_keep, :] = False
    return mask.with_data(out)
