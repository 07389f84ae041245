"""NIfTI-1 subset I/O and resampling for 3D scalar volumes.

Scope: single-file NIfTI-1 (.nii / .nii.gz), little-endian, datatypes
uint8 / int16 / float32, 3D only. Files are reoriented to RAS at load time
(+x right, +y anterior, +z superior; axial slices are constant-z planes)
using the dominant axes of the affine. Every voxel keeps its world position;
no record of the file's own orientation is stored, and files are written
with the RAS affine.

All internal computation is float64; written payloads are float32.
Volumes are immutable: arrays are set read-only and every operation
returns a new object, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import gzip
import itertools
import math
import numbers
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    CorruptFileError,
    FormatError,
    GeometryMismatchError,
    UnsupportedDataTypeError,
)

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"
GZIP_MAGIC = b"\x1f\x8b"

# NIfTI-1 datatype code -> (numpy dtype, bitpix)
_DATATYPES = {2: ("<u1", 8), 4: ("<i2", 16), 16: ("<f4", 32)}
_FLOAT32_CODE = 16

# y-rows per block of the NIfTI reader's F-order to C-order conversion: the
# payload cache lines one x-plane of a block reads are still held when the
# next x-plane reads them again
NIFTI_READ_BLOCK_ROWS = 8
# z-planes per block of the NIfTI writer's payload: in F order each block is
# one contiguous run of the file
NIFTI_WRITE_BLOCK_PLANES = 16


def _check_geometry(data: np.ndarray, affine: np.ndarray):
    if data.ndim != 3 or min(data.shape) < 1:
        raise ValueError(f"expected 3D data, got shape {data.shape}")
    if affine.shape != (4, 4) or not np.isfinite(affine).all():
        raise ValueError("affine must be a finite 4x4 matrix")
    if abs(np.linalg.det(affine[:3, :3])) < 1e-12:
        raise ValueError("affine is singular")


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` set read-only, as every immutable record holds its arrays. An
    array that owns its memory is adopted without a copy (so the caller's
    array becomes read-only); every view is copied, read-only or not, so no
    caller array can change the record through its base."""
    if arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class _Grid:
    """A voxel grid and its voxel-index -> world-mm affine, the grid's only
    stored geometry.

    ``data`` is indexed ``[x, y, z]``; world coordinates follow RAS. Each
    subclass coerces its data in ``_coerce``; the geometry is then checked and
    both arrays are ``frozen``. The affine is always copied.
    """

    data: np.ndarray
    affine: np.ndarray

    def __post_init__(self):
        data = self._coerce(self.data)
        affine = np.array(self.affine, dtype=np.float64)
        _check_geometry(data, affine)
        object.__setattr__(self, "data", frozen(data))
        object.__setattr__(self, "affine", frozen(affine))

    @property
    def dims(self) -> tuple:
        return self.data.shape

    @property
    def spacing(self) -> tuple:
        """Voxel size in mm per axis: the lengths of the affine's columns."""
        return tuple(float(s) for s in np.linalg.norm(self.affine[:3, :3], axis=0))

    def with_data(self, data: np.ndarray):
        return replace(self, data=data)

    @classmethod
    def like(cls, grid: "_Grid", data):
        """``data`` on the affine of ``grid``."""
        return cls(data=data, affine=grid.affine)


class Volume3D(_Grid):
    """A scalar voxel grid; data is contiguous float64."""

    @staticmethod
    def _coerce(data) -> np.ndarray:
        return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


class BinaryMask(_Grid):
    """Boolean voxel set sharing the geometry of the volume it annotates."""

    @staticmethod
    def _coerce(data) -> np.ndarray:
        data = np.ascontiguousarray(np.asarray(data))
        if data.dtype != np.bool_:
            if not np.isin(data, (0, 1)).all():
                raise ValueError("mask data must be boolean or 0/1")
            data = data.astype(bool)
        return data

    def count(self) -> int:
        return int(self.data.sum())

    def bounding_box(self, pad: int):
        """Slices of the smallest box holding every set voxel, grown by
        ``pad`` voxels on each side and clipped to the grid; ``None`` when
        the mask is empty."""
        box = []
        for axis, n in enumerate(self.data.shape):
            hit = np.flatnonzero(self.data.any(axis=tuple(a for a in range(3) if a != axis)))
            if hit.size == 0:
                return None
            box.append(slice(max(int(hit[0]) - pad, 0), min(int(hit[-1]) + 1 + pad, n)))
        return tuple(box)


def require_same_geometry(a, b, what="operands"):
    if not (
        a.dims == b.dims
        and np.allclose(a.affine, b.affine, atol=1e-6)
    ):
        raise GeometryMismatchError(f"{what} do not share dims/affine")


# ---------------------------------------------------------------------------
# NIfTI-1 parsing


def _quaternion_affine(b, c, d, qoffset, pixdim, qfac):
    a2 = 1.0 - (b * b + c * c + d * d)
    a = np.sqrt(max(a2, 0.0))
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    scale = np.diag([pixdim[0], pixdim[1], pixdim[2] * qfac])
    affine = np.eye(4)
    affine[:3, :3] = rot @ scale
    affine[:3, 3] = qoffset
    return affine


def _dominant_axes(affine):
    """Assign each voxel axis to its dominant world axis (greedy, strongest
    columns first); returns None if the affine is already RAS-aligned."""
    R = affine[:3, :3]
    assign = {}
    remaining = {0, 1, 2}
    for j in sorted(range(3), key=lambda j: -np.max(np.abs(R[:, j]))):
        i = max(remaining, key=lambda i: abs(R[i, j]))
        assign[j] = i
        remaining.discard(i)
    perm = tuple(next(j for j in range(3) if assign[j] == i) for i in range(3))
    flips = tuple(bool(R[i, perm[i]] < 0) for i in range(3))
    if perm == (0, 1, 2) and not any(flips):
        return None
    return perm, flips


def _reorient_to_ras(data, affine):
    axes = _dominant_axes(affine)
    if axes is None:
        return data, affine
    perm, flips = axes
    new_data = np.transpose(data, axes=perm)
    for i, f in enumerate(flips):
        if f:
            new_data = np.flip(new_data, axis=i)
    # voxel_old = M3 @ voxel_new + t
    M = np.zeros((4, 4))
    M[3, 3] = 1.0
    for i in range(3):
        j = perm[i]
        if flips[i]:
            M[j, i] = -1.0
            M[j, 3] = data.shape[j] - 1
        else:
            M[j, i] = 1.0
    return np.ascontiguousarray(new_data), affine @ M


def read_nifti(raw: bytes) -> Volume3D:
    """Parse a NIfTI-1 single file (optionally gzip-compressed).

    The affine comes from the sform when ``sform_code > 0``, else the qform,
    else ``diag(pixdim[1:4])``; the spacing is read off the affine, so an
    sform file's ``pixdim`` need only be nonzero and finite.
    ``scl_slope``/``scl_inter`` are applied when the slope is nonzero. A ``dim[1..3]`` below 1, non-finite voxels (after
    scaling), a zero or non-finite pixdim and a non-finite or singular affine
    raise ``FormatError`` before the volume is reoriented to RAS.
    """
    if raw[:2] == GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError) as exc:
            raise CorruptFileError(f"gzip stream is corrupt: {exc}") from exc
    if len(raw) < HEADER_SIZE:
        raise CorruptFileError(
            f"file is {len(raw)} bytes, shorter than the {HEADER_SIZE}-byte header"
        )

    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr != HEADER_SIZE:
        if struct.unpack_from(">i", raw, 0)[0] == HEADER_SIZE:
            raise FormatError("big-endian NIfTI-1 is not supported")
        raise FormatError(f"sizeof_hdr is {sizeof_hdr}, expected {HEADER_SIZE}")
    magic = raw[344:348]
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r} (single-file NIfTI-1)")

    dim = struct.unpack_from("<8h", raw, 40)
    datatype, _bitpix = struct.unpack_from("<2h", raw, 70)
    pixdim = struct.unpack_from("<8f", raw, 76)
    (vox_offset,) = struct.unpack_from("<f", raw, 108)
    scl_slope, scl_inter = struct.unpack_from("<2f", raw, 112)
    qform_code, sform_code = struct.unpack_from("<2h", raw, 252)
    quatern = struct.unpack_from("<6f", raw, 256)
    srow = np.array(struct.unpack_from("<12f", raw, 280), dtype=np.float64).reshape(3, 4)

    ndim = dim[0]
    if ndim < 3 or any(d > 1 for d in dim[4 : 1 + max(ndim, 3)]):
        raise FormatError(f"only 3D volumes are supported, header dim={dim[: ndim + 1]}")
    if any(d < 1 for d in dim[1:4]):
        raise FormatError(f"dim {dim[1:4]} has an axis shorter than one voxel")
    nx, ny, nz = dim[1:4]

    if datatype not in _DATATYPES:
        raise UnsupportedDataTypeError(
            f"datatype code {datatype} not in supported set {sorted(_DATATYPES)}"
        )
    dtype, bitpix = _DATATYPES[datatype]

    scale = tuple(abs(float(p)) for p in pixdim[1:4])
    if not all(0 < s < math.inf for s in scale):
        raise FormatError(f"pixdim {pixdim[1:4]} is zero or not finite")

    if sform_code > 0:
        affine = np.eye(4)
        affine[:3, :] = srow
    elif qform_code > 0:
        if not all(map(math.isfinite, quatern)):
            raise FormatError(f"quaternion fields {quatern} are not all finite")
        qfac = -1.0 if pixdim[0] < 0 else 1.0
        affine = _quaternion_affine(
            quatern[0], quatern[1], quatern[2], quatern[3:6], scale, qfac
        )
    else:
        affine = np.diag(list(scale) + [1.0])

    if not np.isfinite(vox_offset):
        raise FormatError(f"vox_offset {vox_offset} is not finite")
    offset = int(round(vox_offset)) or VOX_OFFSET
    if offset < HEADER_SIZE:
        raise FormatError(f"vox_offset {offset} overlaps the header")
    nbytes = nx * ny * nz * (bitpix // 8)
    if len(raw) - offset < nbytes:
        raise CorruptFileError(
            f"data section truncated: need {nbytes} bytes, have {max(len(raw) - offset, 0)}"
        )
    # one copy: the payload is read in place and converted straight to C
    # order, a block of y-rows at a time
    payload = np.frombuffer(raw, dtype=dtype, count=nx * ny * nz, offset=offset)
    payload = payload.reshape((nx, ny, nz), order="F")
    data = np.empty((nx, ny, nz), dtype=np.float64)
    for j in range(0, ny, NIFTI_READ_BLOCK_ROWS):
        data[:, j : j + NIFTI_READ_BLOCK_ROWS] = payload[:, j : j + NIFTI_READ_BLOCK_ROWS]
    if scl_slope != 0.0 and (scl_slope, scl_inter) != (1.0, 0.0):
        if not (math.isfinite(scl_slope) and math.isfinite(scl_inter)):
            raise FormatError(f"scl_slope {scl_slope} or scl_inter {scl_inter} is not finite")
        # in place, with the bits of data * slope + inter; float32 factors
        # cannot overflow a float64 product
        data *= float(scl_slope)
        data += float(scl_inter)
    if not np.isfinite(data).all():
        raise FormatError("voxel values are not all finite")
    try:
        _check_geometry(data, affine)
    except ValueError as exc:
        raise FormatError(f"header geometry: {exc}") from None

    return Volume3D(*_reorient_to_ras(data, affine))


def _nifti_pieces(vol: _Grid):
    """The pieces ``write_nifti`` joins: the header, padded to ``VOX_OFFSET``,
    then the float32 little-endian F-order payload, one contiguous block of
    ``NIFTI_WRITE_BLOCK_PLANES`` z-planes at a time. The header is built, and
    the dims checked, at the call; each block is made as it is reached."""
    nx, ny, nz = vol.dims
    if max(nx, ny, nz) > np.iinfo(np.int16).max:
        raise ValueError(f"dims {vol.dims} overflow the NIfTI-1 int16 dim fields")

    hdr = bytearray(VOX_OFFSET)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, _FLOAT32_CODE, 32)
    struct.pack_into(
        "<8f", hdr, 76, 1.0, vol.spacing[0], vol.spacing[1], vol.spacing[2], 0, 0, 0, 0
    )
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)  # scl_slope, scl_inter
    struct.pack_into("<b", hdr, 123, 2)  # xyzt_units: millimeters
    descrip = b"refaudit"
    hdr[148 : 148 + len(descrip)] = descrip
    struct.pack_into("<2h", hdr, 252, 0, 1)  # qform_code=0, sform_code=1
    struct.pack_into("<12f", hdr, 280, *vol.affine[:3, :].ravel())
    hdr[344:348] = MAGIC

    # a block's transpose, C-ordered, is the block's F order
    blocks = (vol.data[:, :, k : k + NIFTI_WRITE_BLOCK_PLANES].T.astype("<f4", order="C")
              for k in range(0, nz, NIFTI_WRITE_BLOCK_PLANES))
    return itertools.chain([bytes(hdr)], blocks)


def write_nifti(vol: _Grid) -> bytes:
    """Serialize a grid (a mask as 0.0/1.0) as uncompressed NIfTI-1: float32
    little-endian payload, sform from the affine, magic "n+1\\0", vox_offset 352."""
    return b"".join(_nifti_pieces(vol))


def same_nifti(a: Volume3D, b: Volume3D) -> bool:
    """True when ``write_nifti`` would write ``a`` and ``b`` to the same bytes
    because they have the same dims, the same affine and the same float32
    payload bit for bit (float64 data that differ below float32's resolution
    compare equal; 0.0 and -0.0 do not). Found without writing either."""
    return (a.dims == b.dims and a.affine.tobytes() == b.affine.tobytes()
            and np.array_equal(a.data.astype("<f4").view("<u4"), b.data.astype("<f4").view("<u4")))


def read_nifti_file(path) -> Volume3D:
    return read_nifti(Path(path).read_bytes())


def write_nifti_file(vol: _Grid, path) -> None:
    """Write the bytes of ``write_nifti(vol)`` to ``path``, gzip-compressed
    when the suffix is .gz with mtime pinned to 0, so identical volumes give
    byte-identical files (``gzip.compress(write_nifti(vol), mtime=0)``). Each
    piece is written, or compressed, as it is made: no whole copy of the
    payload is held."""
    path = Path(path)
    pieces = _nifti_pieces(vol)  # a bad header raises before the file opens
    # gzip.compress(raw, mtime=0) is zlib's gzip wrapper (wbits 31) at level 9
    gz = zlib.compressobj(9, zlib.DEFLATED, 31) if path.suffix == ".gz" else None
    with path.open("wb") as f:
        for piece in pieces:
            f.write(gz.compress(piece) if gz else piece)
        if gz:
            f.write(gz.flush())


def read_mask_file(path) -> BinaryMask:
    """Load a NIfTI mask of any supported datatype (refaudit writes masks as
    float32 0.0/1.0); nonzero voxels are True."""
    vol = read_nifti_file(path)
    return BinaryMask.like(vol, vol.data != 0)


def write_mask_file(mask: BinaryMask, path) -> None:
    write_nifti_file(mask, path)


# ---------------------------------------------------------------------------
# Resampling


def integer_factors(factor) -> tuple:
    """The per-axis resampling factors of ``factor``, one integer for all
    three axes or three, each an integer >= 1 (numpy integers too), as Python
    ints; anything else, 2.5 or 2.0 among it, raises."""
    if isinstance(factor, numbers.Integral):
        factor = (factor,) * 3
    if not (np.shape(factor) == (3,)
            and all(isinstance(f, numbers.Integral) and f >= 1 for f in factor)):
        raise ValueError(f"factor must be one integer >= 1 or three, got {factor!r}")
    return tuple(int(f) for f in factor)


def downsample(vol: Volume3D, factor) -> Volume3D:
    """Block-mean pooling by integer factors.

    Dims not divisible by the factor are padded by edge replication before
    pooling. The affine's columns are multiplied by the factor and its
    translation adjusted so block centers keep their original world positions.
    """
    fx, fy, fz = integer_factors(factor)
    if (fx, fy, fz) == (1, 1, 1):
        return vol
    data = vol.data
    pads = [(-d) % f for d, f in zip(data.shape, (fx, fy, fz))]
    if any(pads):
        data = np.pad(data, [(0, p) for p in pads], mode="edge")
    nx, ny, nz = (s // f for s, f in zip(data.shape, (fx, fy, fz)))
    pooled = data.reshape(nx, fx, ny, fy, nz, fz).mean(axis=(1, 3, 5))

    f = np.array([fx, fy, fz], dtype=np.float64)
    affine = vol.affine.copy()
    affine[:3, :3] = vol.affine[:3, :3] * f
    affine[:3, 3] = vol.affine[:3, 3] + vol.affine[:3, :3] @ ((f - 1) / 2.0)
    return replace(vol, data=pooled, affine=affine)


# most target voxels one block of _trilinear_at evaluates, so that its
# corner terms stay in cache between the 8 passes over the block
TRILINEAR_BLOCK_VOXELS = 2**15


def _trilinear_at(src: np.ndarray, axes):
    """Trilinear interpolation of ``src`` with edge clamping on the grid
    spanned by ``axes``, three 1D arrays of fractional index coordinates (one
    per axis); returns shape ``(len(axes[0]), len(axes[1]), len(axes[2]))``.
    Evaluated in blocks of whole x slices, at most ``TRILINEAR_BLOCK_VOXELS``
    each (at least one slice); every voxel takes the same operations in the
    same order whatever the blocking."""
    corners = []
    for axis, c in enumerate(axes):
        n = src.shape[axis]
        c = np.clip(c, 0.0, n - 1.0)
        i0 = np.minimum(np.floor(c).astype(np.intp), n - 1)
        frac = c - i0
        corners.append(((i0, 1.0 - frac), (np.minimum(i0 + 1, n - 1), frac)))
    vals = np.zeros(tuple(len(c) for c in axes), dtype=np.float64)
    step = max(1, TRILINEAR_BLOCK_VOXELS // max(vals.shape[1] * vals.shape[2], 1))
    for x0 in range(0, vals.shape[0], step):
        x = slice(x0, x0 + step)
        for corner in range(8):
            (i, wi), (j, wj), (k, wk) = (corners[axis][corner >> axis & 1] for axis in range(3))
            w = wi[x, None, None] * wj[:, None] * wk
            w *= src.take(i[x], 0).take(j, 1).take(k, 2)  # the gather of src[np.ix_(i, j, k)]
            vals[x] += w
    return vals


def upsample_trilinear(vol: Volume3D, factor, z_range=None) -> Volume3D:
    """Trilinear interpolation onto a grid refined by integer factors; target
    voxel centers are evaluated in source index space with edge clamping.

    ``z_range = (z0, z1)`` evaluates only target slices ``z0 <= z < z1``: the
    result equals those slices of the full upsample bit for bit, and its
    affine maps index ``(0, 0, 0)`` to the full grid's ``(0, 0, z0)``.
    """
    fx, fy, fz = integer_factors(factor)
    dims = tuple(d * f for d, f in zip(vol.dims, (fx, fy, fz)))
    z0, z1 = (0, dims[2]) if z_range is None else (int(z) for z in z_range)
    if not 0 <= z0 < z1 <= dims[2]:
        raise ValueError(f"z_range must lie in [0, {dims[2]}] and be nonempty, got {z_range}")
    start, stop = (0, 0, z0), (dims[0], dims[1], z1)
    if (fx, fy, fz) == (1, 1, 1):
        if z_range is None:
            return vol
        data = vol.data[:, :, z0:z1]
    else:
        # target voxel j has source index (j + 0.5) / f - 0.5
        axes = [(np.arange(a, b) + 0.5) / f - 0.5 for a, b, f in zip(start, stop, (fx, fy, fz))]
        data = _trilinear_at(vol.data, axes)

    f = np.array([fx, fy, fz], dtype=np.float64)
    affine = vol.affine.copy()
    affine[:3, :3] = vol.affine[:3, :3] / f
    affine[:3, 3] = vol.affine[:3, 3] + vol.affine[:3, :3] @ ((np.array(start) + 0.5) / f - 0.5)
    return replace(vol, data=data, affine=affine)
