"""Quickshear defacing surrogate.

The implementation is a declared variant ("quickshear-v1"): a single global
shear plane supported by the sagittal convex hull of the brain mask, not a
bit-compatible clone of any public implementation.
"""

from __future__ import annotations

import math

import numpy as np

from ._lazy import LazyModule
from .volume import BinaryMask, Volume3D, require_same_geometry

spatial = LazyModule("scipy.spatial")

QUICKSHEAR_VERSION = "quickshear-v1"

DEFAULT_BUFFER_MM = 10.0


def _hull_cycle(points: np.ndarray):
    """qhull's convex hull of the 2D ``points``: its vertices in
    counter-clockwise order, started at the lexicographically smallest one
    so that the start, which ties in ``_shear_line`` follow, does not depend
    on qhull. None when the points span no polygon (fewer than three distinct
    points, or all on one line)."""
    try:
        hull = points[spatial.ConvexHull(points).vertices]
    except spatial.QhullError:
        return None
    return np.roll(hull, -np.lexsort((hull[:, 1], hull[:, 0]))[0], axis=0)


def _shear_line(points: np.ndarray):
    """Pick the supporting line of the lower-anterior chain of the convex
    hull of ``points``.

    Coordinates are (y, z) world mm. Among hull edges whose outward normal
    points anterior-inferior (n_y > 0, n_z < 0), take the one closest in
    angle to the 45-degree anterior-inferior diagonal; of equal edges the
    first from the cycle's start wins. Points that span no polygon and hulls
    with no such edge fall back to the supporting line at the extreme point
    in that direction.

    Returns (point, unit outward normal).
    """
    diag = np.array([1.0, -1.0]) / math.sqrt(2.0)
    hull = _hull_cycle(points)
    if hull is not None:
        best = None
        for i in range(len(hull)):
            p, q = hull[i], hull[(i + 1) % len(hull)]
            d = q - p
            n = np.array([d[1], -d[0]])  # outward for CCW polygons
            n = n / np.hypot(n[0], n[1])
            if n[0] > 0 and n[1] < 0:
                score = float(n @ diag)
                if best is None or score > best[0]:
                    best = (score, p, n)
        if best is not None:
            return best[1], best[2]
        points = hull  # a tie goes to the first vertex in cycle order
    scores = points @ diag
    return points[int(np.argmax(scores))], diag


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
    point, normal = _shear_line(yz)
    offset_point = point + buffer_mm * normal

    # side > 0 one x-plane at a time: the same expression, evaluated in the
    # same order per voxel as on the whole grid, with plane-sized temporaries
    nx, ny, nz = vol.dims
    ay = np.arange(ny)[:, None]
    az = np.arange(nz)[None, :]
    cut = np.empty(vol.dims, dtype=bool)
    for x in range(nx):
        wy = A[1, 0] * x + A[1, 1] * ay + A[1, 2] * az + A[1, 3]
        wz = A[2, 0] * x + A[2, 1] * ay + A[2, 2] * az + A[2, 3]
        side = normal[0] * (wy - offset_point[0]) + normal[1] * (wz - offset_point[1])
        np.greater(side, 0, out=cut[x])

    defaced = np.where(cut, 0.0, vol.data)
    cut &= head.data  # now the removed voxels: the cut inside the head
    return vol.with_data(defaced), BinaryMask.like(vol, cut)
