"""Defacing and skull-stripping surrogates plus facial-voxel preprocessing
for regression inputs.

The quickshear implementation is a declared variant ("quickshear-v1"): a
single global shear plane supported by the sagittal convex hull of the brain
mask, not a bit-compatible clone of any public implementation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError
from .masks import head_mask
from .volume import BinaryMask, Volume3D, require_same_geometry

QUICKSHEAR_VERSION = "quickshear-v1"

DEFAULT_BUFFER_MM = 10.0


def _convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices in CCW order."""
    pts = np.unique(points, axis=0)  # sorts lexicographically
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def _shear_line(hull: np.ndarray):
    """Pick the supporting line of the hull's lower-anterior chain.

    Coordinates are (y, z) world mm. Among hull edges whose outward normal
    points anterior-inferior (n_y > 0, n_z < 0), take the one closest in
    angle to the 45-degree anterior-inferior diagonal. Degenerate hulls fall
    back to the supporting line at the extreme vertex in that direction.

    Returns (point, unit outward normal).
    """
    diag = np.array([1.0, -1.0]) / math.sqrt(2.0)
    if len(hull) >= 3:
        best = None
        for i in range(len(hull)):
            p, q = hull[i], hull[(i + 1) % len(hull)]
            d = q - p
            n = np.array([d[1], -d[0]])  # outward for CCW polygons
            norm = np.hypot(n[0], n[1])
            if norm == 0:
                continue
            n = n / norm
            if n[0] > 0 and n[1] < 0:
                score = float(n @ diag)
                if best is None or score > best[0]:
                    best = (score, p, n)
        if best is not None:
            return best[1], best[2]
    # hull is a point/segment, or no anterior-inferior edge exists
    scores = hull @ diag
    return hull[int(np.argmax(scores))], diag


def quickshear(
    vol: Volume3D,
    brain: BinaryMask,
    buffer_mm: float = DEFAULT_BUFFER_MM,
    *,
    head: BinaryMask,
):
    """Shear-plane defacing: zero everything anterior-inferior of a plane
    supported by the mid-sagittal convex hull of the brain mask, offset
    outward by ``buffer_mm``.

    The plane supports the hull, so brain voxels are never removed, and a
    larger buffer strictly shrinks the removed region. Returns
    ``(defaced, removed)`` where ``removed`` marks zeroed voxels inside
    ``head``, the volume's ``head_mask``.
    """
    require_same_geometry(vol, brain, "volume and brain mask")
    require_same_geometry(vol, head, "volume and head mask")
    if not 0.0 <= buffer_mm < math.inf:
        raise ValueError(f"buffer_mm must be finite and >= 0, got {buffer_mm}")
    idx = np.nonzero(brain.data)
    if len(idx[0]) == 0:
        raise ValueError("brain mask is empty")

    # project brain voxel centers onto the mid-sagittal (y, z) world plane
    A = vol.affine
    yz = (
        np.stack([idx[0], idx[1], idx[2]], axis=1) @ A[1:3, :3].T + A[1:3, 3]
    )
    hull = _convex_hull_2d(yz)
    point, normal = _shear_line(hull)
    offset_point = point + buffer_mm * normal

    nx, ny, nz = vol.dims
    ax = np.arange(nx)[:, None, None]
    ay = np.arange(ny)[None, :, None]
    az = np.arange(nz)[None, None, :]
    wy = A[1, 0] * ax + A[1, 1] * ay + A[1, 2] * az + A[1, 3]
    wz = A[2, 0] * ax + A[2, 1] * ay + A[2, 2] * az + A[2, 3]
    side = normal[0] * (wy - offset_point[0]) + normal[1] * (wz - offset_point[1])
    cut = side > 0

    defaced = np.where(cut, 0.0, vol.data)
    removed = BinaryMask.like(vol, cut & head.data)
    return vol.with_data(defaced), removed


def skull_strip(vol: Volume3D, brain: BinaryMask) -> Volume3D:
    """Zero all voxels outside the brain mask."""
    require_same_geometry(vol, brain, "volume and brain mask")
    return vol.with_data(np.where(brain.data, vol.data, 0.0))


def regression_preproc(
    vol: Volume3D, brain: BinaryMask, crop_box=None
) -> Volume3D:
    """Facial-voxel preprocessing for regression inputs: crop to the anterior
    third of the head's y extent, mask out the brain, then z-score the
    retained nonzero voxels (mean 0, SD 1).

    ``crop_box`` overrides the computed crop as ((x0,x1),(y0,y1),(z0,z1))
    half-open voxel ranges, e.g. to reproduce a fixed template-frame box.
    The input is assumed registered to a common frame already.
    """
    require_same_geometry(vol, brain, "volume and brain mask")
    if crop_box is None:
        ys = np.nonzero(head_mask(vol).data)[1]
        ymin, ymax = int(ys.min()), int(ys.max())
        extent = ymax - ymin + 1
        n_keep = int(math.ceil(extent / 3.0))
        crop_box = ((0, vol.dims[0]), (ymax - n_keep + 1, ymax + 1), (0, vol.dims[2]))

    (x0, x1), (y0, y1), (z0, z1) = crop_box
    if not (0 <= x0 < x1 <= vol.dims[0] and 0 <= y0 < y1 <= vol.dims[1] and 0 <= z0 < z1 <= vol.dims[2]):
        raise ValueError(f"crop box {crop_box} outside volume dims {vol.dims}")
    data = vol.data[x0:x1, y0:y1, z0:z1].copy()
    data[brain.data[x0:x1, y0:y1, z0:z1]] = 0.0

    retained = data != 0
    n = int(retained.sum())
    if n < 2:
        raise DegenerateInputError(f"only {n} voxels retained, need >= 2")
    vals = data[retained]
    sd = float(vals.std())
    if sd == 0.0:
        raise DegenerateInputError("retained voxels are constant")
    data[retained] = (vals - vals.mean()) / sd

    affine = vol.affine.copy()
    affine[:3, 3] = vol.affine[:3, 3] + vol.affine[:3, :3] @ np.array([x0, y0, z0], dtype=float)
    return Volume3D(
        data=data,
        spacing=vol.spacing,
        affine=affine,
        intensity_units="z-score",
        reorientation=vol.reorientation,
    )
