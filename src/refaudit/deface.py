"""Quickshear defacing surrogate.

The implementation is a declared variant ("quickshear-v1"): a single global
shear plane supported by the sagittal convex hull of the brain mask, not a
bit-compatible clone of any public implementation.
"""

from __future__ import annotations

import math

import numpy as np

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

