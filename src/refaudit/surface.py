"""Surface extraction and face-similarity distance metrics.

Marching cubes runs the classic 256-case table on the binary field at
iso-level 0.5, so triangle vertices sit at voxel-edge midpoints; ambiguous
cases are resolved by the standard table (no asymptotic decider). The field
is zero-padded by one voxel so surfaces close at the volume border.

MASD is the mean absolute surface distance between two meshes, computed
over mesh vertices via exact KD-tree nearest-neighbor queries, in mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._mc_tables import EDGE_ANCHORS, TRI_TABLE
from .errors import DegenerateInputError
from .masks import face_roi, head_mask
from .volume import BinaryMask, Volume3D, require_same_geometry


@dataclass(frozen=True)
class TriMesh:
    """Triangle surface mesh; vertices in world mm."""

    vertices: np.ndarray  # (n, 3) float64
    triangles: np.ndarray  # (m, 3) int64

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"triangles must be (m, 3), got {t.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle indices out of range")
        if t.size and (
            (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
        ).any():
            raise ValueError("degenerate (repeated-index) triangles")
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def area(self) -> float:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


def marching_cubes(mask: BinaryMask) -> TriMesh:
    """Extract the iso-0.5 surface of a binary mask as a welded triangle mesh
    with consistent outward orientation."""
    n_fg = mask.count()
    if n_fg == 0 or n_fg == mask.data.size:
        raise DegenerateInputError("marching cubes needs a nonempty, non-full mask")

    field = np.pad(mask.data, 1).astype(np.uint8)
    # case index over the (nx+1, ny+1, nz+1) cell lattice of the padded field
    ci = np.zeros(tuple(s - 1 for s in field.shape), dtype=np.uint16)
    corners = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
               (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    for bit, (dx, dy, dz) in enumerate(corners):
        ci |= field[dx : dx + ci.shape[0], dy : dy + ci.shape[1], dz : dz + ci.shape[2]].astype(np.uint16) << bit

    active = np.argwhere((ci != 0) & (ci != 255))
    rows = TRI_TABLE[ci[active[:, 0], active[:, 1], active[:, 2]]]  # (n_act, 16)

    tri_edges = rows[:, :15].reshape(-1, 5, 3)  # up to 5 triangles per cell
    valid = tri_edges[:, :, 0] >= 0
    cell = np.repeat(active, 5, axis=0).reshape(-1, 5, 3)[valid]  # (n_tri, 3)
    tri_edges = tri_edges[valid]  # (n_tri, 3) local edge ids

    anchors = EDGE_ANCHORS[tri_edges]  # (n_tri, 3, 4): di, dj, dk, axis
    corner = cell[:, None, :] + anchors[:, :, :3]  # lattice corner of each edge
    ny1, nz1 = ci.shape[1] + 1, ci.shape[2] + 1
    keys = (
        (corner[:, :, 0] * ny1 + corner[:, :, 1]) * nz1 + corner[:, :, 2]
    ) * 3 + anchors[:, :, 3]

    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    triangles = inverse.reshape(-1, 3)

    axis = uniq % 3
    rest = uniq // 3
    k = rest % nz1
    rest //= nz1
    j = rest % ny1
    i = rest // ny1
    # midpoint of the lattice edge, shifted back by the 1-voxel padding
    pts = np.stack([i, j, k], axis=1).astype(np.float64) - 1.0
    pts[np.arange(len(uniq)), axis] += 0.5
    vertices = pts @ mask.affine[:3, :3].T + mask.affine[:3, 3]

    mesh = TriMesh(vertices=vertices, triangles=triangles)
    if _signed_volume(mesh) < 0:
        mesh = TriMesh(vertices=vertices, triangles=triangles[:, ::-1])
    return mesh


def _signed_volume(mesh: TriMesh) -> float:
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def masd(a: TriMesh, b: TriMesh, directed: bool = False) -> float:
    """Mean absolute surface distance between two meshes, in mm.

    Symmetric by default: the vertex-to-nearest-vertex mean from a to b
    averaged with the mean from b to a. ``directed=True`` returns only the
    a-to-b direction. Distance sums use compensated accumulation so the
    result is independent of vertex order.
    """
    if a.n_vertices == 0 or b.n_vertices == 0:
        raise ValueError("masd requires nonempty meshes")
    d_ab = cKDTree(b.vertices).query(a.vertices)[0]
    mean_ab = math.fsum(d_ab) / len(d_ab)
    if directed:
        return mean_ab
    d_ba = cKDTree(a.vertices).query(b.vertices)[0]
    mean_ba = math.fsum(d_ba) / len(d_ba)
    return 0.5 * (mean_ab + mean_ba)


def face_distance_report(original: Volume3D, candidates, directed: bool = False, *,
                         head: BinaryMask) -> dict:
    """Composed face-similarity metric: head mask -> face ROI -> marching
    cubes, then MASD in mm (smaller means more similar) from the original's
    face mesh, built once from ``head`` (its ``head_mask``), to each
    candidate's. ``candidates`` maps names to volumes; the result maps the
    same names, in order, to their MASD."""
    require_same_geometry(original, head, "original volume and head mask")
    for candidate in candidates.values():
        require_same_geometry(original, candidate, "original and candidate volumes")
    reference = marching_cubes(face_roi(head))
    return {name: masd(reference, marching_cubes(face_roi(head_mask(c))), directed=directed)
            for name, c in candidates.items()}
