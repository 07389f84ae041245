"""Head-mask extraction and the face region-of-interest crop.

The head-mask recipe (Otsu threshold, close with a radius-2 ball, fill holes,
keep the largest component) is a declared surrogate and is tagged
"head-mask-v1" in report metadata.

The closing and the hole fill are computed from array shifts and one
labelling, with the results of ``ndimage.binary_closing`` and
``ndimage.binary_fill_holes``. The radius-2 ball (33 offsets) is the 3x3x3
cube plus the six offsets two voxels along an axis, so a dilation by it is the
cube's dilation (three 1-voxel shift-ORs, one per axis) ORed with the input
shifted two voxels each way along each axis; the erosion is the same with AND,
where a shift that reaches past the array meets background. A hole is a
6-connected background component that touches none of the array's six faces.
"""

from __future__ import annotations

import numpy as np

from ._lazy import LazyModule
from .errors import DegenerateInputError
from .volume import BinaryMask, Volume3D

ndimage = LazyModule("scipy.ndimage")

HEAD_MASK_VERSION = "head-mask-v1"

_LABEL_26 = np.ones((3, 3, 3), dtype=bool)

# x-planes per block of the Otsu histogram's voxels above the minimum; each
# block of a C-ordered volume is contiguous
OTSU_BLOCK_PLANES = 16


def otsu_threshold(vol: Volume3D) -> float:
    """Bin edge maximizing between-class variance over a 256-bin
    histogram spanning [min, max]; ties break toward the lower edge.

    The bins are ``np.histogram(data, bins=256, range=(min, max))``'s,
    counted in two parts: the voxels at the minimum, which that histogram
    puts in bin 0 (its second edge is above the minimum), and the rest,
    binned ``OTSU_BLOCK_PLANES`` x-planes at a time. In a head volume most
    voxels are air or a defacing cut, at the minimum.

    Foreground semantics downstream: voxel is foreground iff intensity is
    strictly greater than the returned threshold.
    """
    data = vol.data
    lo, hi = float(data.min()), float(data.max())
    if lo == hi:
        raise DegenerateInputError("constant volume has no Otsu threshold")
    edges = np.linspace(lo, hi, 257)  # np.histogram's own edges
    if (np.diff(edges) <= 0).any():  # np.histogram's own test
        raise DegenerateInputError(
            f"intensity range [{lo!r}, {hi!r}] is too narrow for a 256-bin Otsu histogram")

    counts = np.zeros(256, dtype=np.intp)
    above = 0
    for i in range(0, data.shape[0], OTSU_BLOCK_PLANES):
        block = data[i : i + OTSU_BLOCK_PLANES]
        rest = block[block != lo]
        above += rest.size
        counts += np.histogram(rest, bins=256, range=(lo, hi))[0]
    counts[0] += data.size - above
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


def _along(axis: int, part) -> tuple:
    """An index taking ``part`` (a slice or one position) of ``axis`` and all
    of the other two."""
    index = [slice(None)] * 3
    index[axis] = part
    return tuple(index)


def _shift_combine(out: np.ndarray, src: np.ndarray, axis: int, step: int, erode: bool):
    """Combine ``out`` in place with ``src`` shifted ``step`` voxels each way
    along ``axis``: OR for a dilation, AND for an erosion, where the voxels a
    shift leaves uncovered meet background. Returns ``out``."""
    ahead, behind = _along(axis, slice(step, None)), _along(axis, slice(None, -step))
    if erode:
        out[ahead] &= src[behind]
        out[behind] &= src[ahead]
        out[_along(axis, slice(None, step))] = False
        out[_along(axis, slice(-step, None))] = False
    else:
        out[ahead] |= src[behind]
        out[behind] |= src[ahead]
    return out


def _ball2(data: np.ndarray, erode: bool) -> np.ndarray:
    """Dilation (or erosion) of ``data`` by the radius-2 ball, everything
    outside the array background: by the 3x3x3 cube one axis at a time, then
    with ``data`` shifted two voxels each way along each axis."""
    out = data
    for axis in range(3):
        out = _shift_combine(out.copy(), out, axis, 1, erode)
    for axis in range(3):
        _shift_combine(out, data, axis, 2, erode)
    return out


def _close_ball2(data: np.ndarray) -> np.ndarray:
    """``ndimage.binary_closing(data, structure=<radius-2 ball>)``: outside
    the array is background, so the closing leaves a 2-voxel outer ring
    background."""
    return _ball2(_ball2(data, erode=False), erode=True)


def _fill_holes(data: np.ndarray) -> np.ndarray:
    """``ndimage.binary_fill_holes(data)``: every 6-connected background
    component (``ndimage.label``'s default cross) that touches none of the
    array's six faces becomes foreground."""
    labels, n = ndimage.label(~data)
    filled = np.ones(n + 1, dtype=bool)  # by label; label 0 is the foreground
    for axis in range(3):
        for face in (0, -1):
            filled[labels[_along(axis, face)]] = False
    filled[0] = True
    return filled[labels]


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
    border), then the largest component.

    The closing is the 3x3x3 cube's dilation and erosion, each one axis at a
    time, combined with the foreground shifted two voxels along each axis
    (the ball is the cube plus those six offsets). The fill labels the
    closed mask's background once: a label found on any of the box's six
    faces stays background, every other label becomes foreground.

    The threshold is taken over the whole volume; the rest runs on the
    foreground's bounding box grown by 5 voxels, twice the ball radius plus
    one. The closing stays inside the box and leaves its outer ring
    background, and everything outside the box is background connected to
    the volume border, so the result equals the whole-grid recipe.
    """
    foreground = BinaryMask.like(vol, vol.data > otsu_threshold(vol))
    box = foreground.bounding_box(5)  # not None: the maximum is above the threshold
    out = np.zeros(vol.dims, dtype=bool)
    out[box] = _largest_component(_fill_holes(_close_ball2(foreground.data[box])))
    return BinaryMask.like(vol, out)


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
