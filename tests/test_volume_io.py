import gzip
import math
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refaudit.ddim import DiffusionSchedule
from refaudit.errors import CorruptFileError, FormatError, UnsupportedDataTypeError
from refaudit.stats import ObservationTable
from refaudit.surface import TriMesh
from refaudit.volume import (
    HEADER_SIZE,
    NIFTI_READ_BLOCK_ROWS,
    NIFTI_WRITE_BLOCK_PLANES,
    TRILINEAR_BLOCK_VOXELS,
    VOX_OFFSET,
    BinaryMask,
    Volume3D,
    _trilinear_at,
    downsample,
    read_nifti,
    read_nifti_file,
    same_nifti,
    upsample_trilinear,
    write_mask_file,
    write_nifti,
    write_nifti_file,
)


def make_volume(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    affine = np.diag(list(spacing) + [1.0])
    affine[:3, 3] = origin
    return Volume3D(data=np.asarray(data, dtype=np.float64), affine=affine)


def random_volume(rng, dtype):
    dims = tuple(rng.integers(2, 9, size=3))
    if dtype == np.uint8:
        data = rng.integers(0, 256, size=dims).astype(np.uint8)
    elif dtype == np.int16:
        data = rng.integers(-3000, 3000, size=dims).astype(np.int16)
    else:
        data = rng.standard_normal(dims).astype(np.float32)
    # float32-representable spacing/origin so the header round-trips exactly
    spacing = tuple(float(s) for s in rng.integers(8, 129, size=3) / 32.0)
    origin = tuple(float(o) for o in rng.integers(-64, 64, size=3) / 2.0)
    return make_volume(data, spacing, origin)


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
    @pytest.mark.parametrize("compress", [False, True])
    def test_write_read_identity(self, rng, dtype, compress):
        for _ in range(5):
            vol = random_volume(rng, dtype)
            raw = write_nifti(vol)
            if compress:
                raw = gzip.compress(raw)
            back = read_nifti(raw)
            assert back.dims == vol.dims
            assert back.spacing == vol.spacing
            assert np.array_equal(back.data, vol.data)

    def test_gzip_transparency(self, rng):
        vol = random_volume(rng, np.int16)
        raw = write_nifti(vol)
        plain = read_nifti(raw)
        zipped = read_nifti(gzip.compress(raw))
        assert np.array_equal(plain.data, zipped.data)
        assert plain.spacing == zipped.spacing
        assert np.array_equal(plain.affine, zipped.affine)

    def test_file_size_is_header_plus_payload(self):
        vol = make_volume(np.zeros((4, 4, 4)))
        raw = write_nifti(vol)
        assert len(raw) == VOX_OFFSET + 4 * 64

    def test_header_dim_fields(self, rng):
        vol = random_volume(rng, np.float32)
        raw = write_nifti(vol)
        dim = struct.unpack_from("<8h", raw, 40)
        assert dim[0] == 3
        assert dim[1:4] == vol.dims

    @pytest.mark.parametrize("name", ["mask.nii", "mask.nii.gz"])
    def test_mask_file_equals_its_float64_copy_written_as_a_volume(self, rng, tmp_path, name):
        mask = BinaryMask(data=rng.random((5, 6, 7)) < 0.3,
                          affine=random_volume(rng, np.uint8).affine)
        write_mask_file(mask, tmp_path / name)
        write_nifti_file(Volume3D.like(mask, mask.data), tmp_path / f"volume-{name}")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"volume-{name}").read_bytes()

    def test_dims_overflow_is_range_error(self):
        vol = make_volume(np.zeros((40000, 1, 1)))
        with pytest.raises(ValueError, match="overflow"):
            write_nifti(vol)


def assemble_nifti(dims, datatype, payload, scl_slope=0.0, scl_inter=0.0,
                   pixdim=(1.0, 1.0, 1.0), magic=b"n+1\x00", sform=None):
    """Byte-level NIfTI-1 assembly, independent of the writer."""
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, *dims, 1, 1, 1, 1)
    bitpix = {2: 8, 4: 16, 16: 32, 8: 32}[datatype]
    struct.pack_into("<2h", hdr, 70, datatype, bitpix)
    struct.pack_into("<8f", hdr, 76, 1.0, *pixdim, 0, 0, 0, 0)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<2f", hdr, 112, scl_slope, scl_inter)
    if sform is not None:
        struct.pack_into("<2h", hdr, 252, 0, 1)
        struct.pack_into("<12f", hdr, 280, *np.asarray(sform)[:3, :].ravel())
    hdr[344:348] = magic
    return bytes(hdr) + b"\x00" * (VOX_OFFSET - HEADER_SIZE) + payload


def _valid_files():
    """One small valid file with its affine in the sform, and the same file
    with the affine in the qform instead."""
    rng = np.random.default_rng(3)
    affine = np.array([[0.0, 2.0, 0.0, 3.0], [-1.0, 0.0, 0.0, -4.0],
                       [0.0, 0.0, 1.5, 5.0], [0.0, 0.0, 0.0, 1.0]])
    vol = Volume3D(data=rng.standard_normal((3, 4, 5)), affine=affine)
    sform = write_nifti(vol)
    qform = bytearray(sform)
    struct.pack_into("<2h", qform, 252, 1, 0)  # qform_code 1, sform_code 0
    # quaternion (b, c, d) = (0, 0, -sqrt(1/2)): the affine's -90 degree turn about z
    struct.pack_into("<6f", qform, 256, 0.0, 0.0, -math.sqrt(0.5), 3.0, -4.0, 5.0)
    return {"sform": sform, "qform": bytes(qform)}


VALID_FILES = _valid_files()
FLOAT_FIELDS = ([76 + 4 * i for i in range(8)] + [108, 112, 116]  # pixdim, vox_offset, scl
                + [256 + 4 * i for i in range(6)] + [280 + 4 * i for i in range(12)])  # qform, srow
INT16_FIELDS = [40 + 2 * i for i in range(8)] + [70, 72, 252, 254]  # dim, datatype, bitpix, codes
HOSTILE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-30, 3.4e38,
                                  -3.4e38, -1.0]) | st.floats(width=32)
# one header field overwritten: (byte offset, struct format, value)
HEADER_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(FLOAT_FIELDS), st.just("<f"), HOSTILE_FLOATS),
    st.tuples(st.sampled_from(INT16_FIELDS), st.just("<h"), st.integers(-32768, 32767)))


class TestReader:
    def test_scl_slope_inter_applied(self):
        # 2x2x2 int16 with raw values 0..7, slope 2, inter 1 -> 1,3,...,15
        payload = np.arange(8, dtype="<i2").tobytes()
        raw = assemble_nifti((2, 2, 2), 4, payload, scl_slope=2.0, scl_inter=1.0)
        vol = read_nifti(raw)
        expected = np.arange(8, dtype=np.float64).reshape((2, 2, 2), order="F") * 2 + 1
        assert np.array_equal(vol.data, expected)

    def test_zero_slope_means_no_scaling(self):
        payload = np.arange(8, dtype="<i2").tobytes()
        raw = assemble_nifti((2, 2, 2), 4, payload, scl_slope=0.0, scl_inter=9.0)
        vol = read_nifti(raw)
        assert vol.data.ravel(order="F").tolist() == list(range(8))

    def test_bad_magic(self):
        raw = assemble_nifti((2, 2, 2), 4, bytes(16), magic=b"ni1\x00")
        with pytest.raises(FormatError, match="magic"):
            read_nifti(raw)

    def test_unsupported_datatype(self):
        raw = assemble_nifti((2, 2, 2), 8, bytes(32))  # int32 not supported
        with pytest.raises(UnsupportedDataTypeError):
            read_nifti(raw)

    def test_truncated_payload(self):
        raw = assemble_nifti((2, 2, 2), 4, bytes(15))
        with pytest.raises(CorruptFileError, match="truncated"):
            read_nifti(raw)

    def test_payload_decodes_in_one_copy_that_the_volume_adopts(self, rng, monkeypatch):
        values = rng.standard_normal((3, 4, 5)).astype(np.float32)
        payload = values.tobytes(order="F")
        raw = assemble_nifti(values.shape, 16, payload + b"trailing bytes")
        coerced = []
        coerce = Volume3D._coerce

        def spy(data):
            coerced.append((data, coerce(data)))
            return coerced[-1][1]

        monkeypatch.setattr(Volume3D, "_coerce", staticmethod(spy))
        vol = read_nifti(raw)
        (given, kept), = coerced
        assert given.dtype == np.float64 and given.flags.c_contiguous
        assert kept is given and vol.data is given  # adopted: no copy after the decode
        assert np.array_equal(vol.data, values)
        with pytest.raises(CorruptFileError, match="truncated"):
            read_nifti(assemble_nifti(values.shape, 16, payload[:-1]))

    def test_big_endian_rejected(self):
        raw = bytearray(assemble_nifti((2, 2, 2), 4, bytes(16)))
        struct.pack_into(">i", raw, 0, HEADER_SIZE)
        with pytest.raises(FormatError, match="big-endian"):
            read_nifti(bytes(raw))

    def test_4d_rejected(self):
        raw = bytearray(assemble_nifti((2, 2, 2), 4, bytes(64)))
        struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 2, 1, 1, 1)
        with pytest.raises(FormatError, match="3D"):
            read_nifti(bytes(raw))

    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("value", [0, -1, -32768])
    def test_axis_shorter_than_one_voxel_is_format_error(self, axis, value):
        # read as one voxel, it would take the first voxels of the payload
        raw = bytearray(assemble_nifti((4, 4, 4), 4, bytes(128)))
        struct.pack_into("<h", raw, 40 + 2 * axis, value)
        with pytest.raises(FormatError, match=r"dim \(.*\) has an axis shorter than one voxel"):
            read_nifti(bytes(raw))

    def test_valid_qform_file_reads_its_rotation(self):
        vol = read_nifti(VALID_FILES["qform"])
        expected = read_nifti(VALID_FILES["sform"])
        np.testing.assert_allclose(vol.affine, expected.affine, atol=1e-6)
        np.testing.assert_array_equal(vol.data, expected.data)

    @pytest.mark.parametrize("base, offset, value, message", [
        ("sform", 112, math.inf, "scl_slope"),
        ("sform", 80, math.nan, "pixdim"),
        ("qform", 260, math.inf, "quaternion"),
        ("sform", 284, 1e-30, "singular"),
        ("sform", 292, math.nan, "finite 4x4"),
    ])
    def test_non_finite_or_singular_header_is_format_error(self, base, offset, value, message):
        raw = bytearray(VALID_FILES[base])
        struct.pack_into("<f", raw, offset, value)
        with pytest.raises(FormatError, match=message):
            read_nifti(bytes(raw))

    def test_scaled_read_peaks_as_an_unscaled_one(self):
        # the slope and intercept are applied in place: no further volume
        payload = np.zeros((128,) * 3, "<i2").tobytes()
        peaks = []
        for scl in ((0.0, 0.0), (0.5, 2.0)):
            raw = assemble_nifti((128,) * 3, 4, payload, *scl)
            tracemalloc.start()
            try:
                read_nifti(raw)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**20, peaks

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_float32_slope_and_voxels_scale_finitely(self):
        # float32 slope, intercept and voxels stay below 2**256 in float64
        top = np.finfo(np.float32).max
        values = np.array([top, -top, 1.0, 0.0, -1.0, top, 2.0, -top], dtype="<f4")
        raw = assemble_nifti((2, 2, 2), 16, values.tobytes(), scl_slope=top, scl_inter=top)
        want = values.astype(np.float64) * float(top) + float(top)
        assert np.isfinite(want).all()
        assert read_nifti(raw).data.ravel(order="F").tobytes() == want.tobytes()

    def test_non_finite_voxel_is_format_error(self):
        payload = np.array([0, 1, np.nan, 3, 4, 5, 6, 7], dtype="<f4").tobytes()
        with pytest.raises(FormatError, match="voxel values are not all finite"):
            read_nifti(assemble_nifti((2, 2, 2), 16, payload))

    def test_reorientation_to_ras(self):
        # LAS file (x flipped): reader must flip back to RAS
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        affine = np.diag([-1.0, 1.0, 1.0, 1.0])
        affine[0, 3] = 1.0
        vol = Volume3D(data=data, affine=affine)
        back = read_nifti(write_nifti(vol))
        assert np.array_equal(back.data, data[::-1])
        # world position of every voxel is preserved by the reorientation
        assert np.allclose(back.affine @ [1, 0, 0, 1], affine @ [0, 0, 0, 1])
        assert back.affine[0, 0] > 0

    def test_permuted_axes_read_back(self):
        # voxel axes stored as (y, -x, z): the reader swaps the first two axes
        # and flips the new x axis
        affine = np.array([[0.0, -2, 0, 5], [1, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]])
        data = np.arange(4 * 6 * 8, dtype=np.float64).reshape(4, 6, 8)
        back = read_nifti(write_nifti(Volume3D(data=data, affine=affine)))
        assert np.array_equal(back.data, np.transpose(data, (1, 0, 2))[::-1])
        assert back.spacing == (2.0, 1.0, 3.0)
        # file voxel (1, 2, 3) is RAS voxel (6 - 1 - 2, 1, 3) at the same world position
        assert back.data[3, 1, 3] == data[1, 2, 3]
        assert np.allclose(back.affine @ [3, 1, 3, 1], affine @ [1, 2, 3, 1])
        assert np.all(np.diag(back.affine)[:3] > 0)


# (sform, the RAS array of a decoded file array): RAS, x flipped (LAS), and
# voxel axes stored as (y, -x, z)
ORIENTATIONS = {
    "ras": (np.diag([1.5, 1.0, 2.0, 1.0]), lambda a: a),
    "las": (np.diag([-1.0, 1.0, 1.0, 1.0]), lambda a: a[::-1]),
    "permuted": (np.array([[0.0, -2, 0, 5], [1, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]]),
                 lambda a: np.transpose(a, (1, 0, 2))[::-1]),
}
# ny on both sides of the reader's blocks of y-rows, and nz (1, 15, 17 and 33
# at 16 planes) on both sides of the writer's blocks of z-planes
_ROWS, _PLANES = NIFTI_READ_BLOCK_ROWS, NIFTI_WRITE_BLOCK_PLANES
BLOCK_DIMS = [(3, 1, 1), (2, _ROWS + 1, _PLANES - 1), (3, _ROWS - 1, _PLANES + 1),
              (2, 2 * _ROWS + 1, 2 * _PLANES + 1)]


class TestBlockedPayload:
    """The reader converts the payload a block of y-rows at a time and the
    writer emits it a block of z-planes at a time; both must equal the
    one-pass conversions bit for bit."""

    @pytest.mark.parametrize("dims", BLOCK_DIMS)
    @pytest.mark.parametrize("dtype, code", [("<u1", 2), ("<i2", 4), ("<f4", 16)])
    @pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
    @pytest.mark.parametrize("scl", [(0.0, 0.0), (0.5, -3.0),
                                     (float(np.float32(0.37)), float(np.float32(-12.3)))])
    def test_decode_equals_the_one_pass_conversion(self, rng, dims, dtype, code, orientation,
                                                   scl):
        values = {"<u1": lambda: rng.integers(0, 256, dims),
                  "<i2": lambda: rng.integers(-3000, 3000, dims),
                  "<f4": lambda: rng.standard_normal(dims)}[dtype]().astype(dtype)
        sform, to_ras = ORIENTATIONS[orientation]
        raw = assemble_nifti(dims, code, values.tobytes(order="F"), *scl, sform=sform)
        payload = np.frombuffer(raw, dtype=dtype, offset=VOX_OFFSET)
        want = payload.reshape(dims, order="F").astype(np.float64, order="C")
        if scl[0] != 0.0:
            want = want * scl[0] + scl[1]
        want = np.ascontiguousarray(to_ras(want))
        vol = read_nifti(raw)
        assert vol.data.flags.c_contiguous
        assert vol.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dims", BLOCK_DIMS)
    def test_payload_equals_the_one_pass_float32_copy(self, rng, dims):
        vol = make_volume(rng.standard_normal(dims) * 1e3)
        mask = BinaryMask(data=rng.random(dims) < 0.4, affine=vol.affine)
        for grid in (vol, mask):
            raw = write_nifti(grid)
            assert raw[VOX_OFFSET:] == grid.data.astype("<f4").tobytes(order="F")

    @pytest.mark.parametrize("dims", [(5, 6, 1), (6, 5, 2 * NIFTI_WRITE_BLOCK_PLANES + 1)])
    def test_files_hold_the_bytes_of_write_nifti(self, rng, tmp_path, dims):
        vol = random_volume(rng, np.float32).with_data(rng.standard_normal(dims) * 50)
        mask = BinaryMask.like(vol, rng.random(dims) < 0.3)
        for name, grid in (("volume", vol), ("mask", mask)):
            raw = write_nifti(grid)
            write_nifti_file(grid, tmp_path / f"{name}.nii")
            write_nifti_file(grid, tmp_path / f"{name}.nii.gz")
            assert (tmp_path / f"{name}.nii").read_bytes() == raw
            assert (tmp_path / f"{name}.nii.gz").read_bytes() == gzip.compress(raw, mtime=0)

    def test_phantom_files_hold_the_bytes_of_write_nifti(self, phantom_default, tmp_path):
        vol, brain, _ = phantom_default
        for name, grid in (("volume", vol), ("brain", brain)):
            write_nifti_file(grid, tmp_path / f"{name}.nii.gz")
            raw = (tmp_path / f"{name}.nii.gz").read_bytes()
            assert raw == gzip.compress(write_nifti(grid), mtime=0)
            back = read_nifti_file(tmp_path / f"{name}.nii.gz")
            assert np.array_equal(back.data, grid.data.astype(np.float32))

    @pytest.mark.parametrize("name", ["volume.nii", "volume.nii.gz"])
    def test_write_file_holds_no_whole_payload_copy(self, phantom_default, tmp_path, name):
        # the phantom's float32 payload is 8 MiB; the one-shot write peaked at 16 MiB
        vol = phantom_default[0]
        write_nifti_file(vol, tmp_path / name)  # imports and lazy set-up are not counted
        tracemalloc.start()
        try:
            write_nifti_file(vol, tmp_path / name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_dims_overflow_raises_before_the_file_is_created(self, tmp_path):
        with pytest.raises(ValueError, match="overflow"):
            write_nifti_file(make_volume(np.zeros((40000, 1, 1))), tmp_path / "v.nii.gz")
        assert not (tmp_path / "v.nii.gz").exists()


def with_pixdim(raw: bytes, pixdim) -> bytes:
    """An uncompressed NIfTI-1 file with ``pixdim[1:4]`` rewritten and its
    sform kept."""
    raw = bytearray(raw)
    struct.pack_into("<3f", raw, 80, *pixdim)
    return bytes(raw)


class TestSpacingFromAffine:
    def test_grid_stores_data_and_affine_only(self):
        assert [f.name for f in fields(Volume3D)] == ["data", "affine"]
        assert [f.name for f in fields(BinaryMask)] == ["data", "affine"]

    def test_sform_file_takes_its_spacing_from_the_sform(self, phantom_default):
        vol = phantom_default[0]
        copy = read_nifti(with_pixdim(write_nifti(vol), (1.0, 1.0, 1.0)))
        assert copy.spacing == vol.spacing == (2.0, 2.0, 2.0)
        assert np.array_equal(copy.affine, vol.affine)

    def test_written_pixdim_follows_the_affine(self, phantom_default):
        copy = read_nifti(with_pixdim(write_nifti(phantom_default[0]), (1.0, 1.0, 1.0)))
        assert struct.unpack_from("<3f", write_nifti(copy), 80) == (2.0, 2.0, 2.0)

    def test_oblique_affine_spacing_is_its_column_lengths(self, rng):
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        affine = np.eye(4)
        affine[:3, :3] = rotation * [0.7, 1.9, 2.6]
        affine[:3, 3] = [4.0, -2.0, 9.0]
        vol = Volume3D(data=np.zeros((2, 3, 4)), affine=affine)
        assert vol.spacing == pytest.approx([math.hypot(*affine[:3, j]) for j in range(3)],
                                            rel=1e-15)
        assert vol.spacing == pytest.approx((0.7, 1.9, 2.6), rel=1e-12)


def test_same_nifti_is_whether_the_written_bytes_are_equal(rng):
    data = rng.standard_normal((3, 4, 5))
    data[0, 0, 0] = 0.0
    vol = make_volume(data, (2.0, 2.0, 2.0))
    flipped_zero = data.copy()
    flipped_zero[0, 0, 0] = -0.0
    one_voxel = data.copy()
    one_voxel[1, 2, 3] += 1e-3
    others = [
        vol.with_data(data * (1 + 1e-12)),  # below float32's resolution
        vol.with_data(flipped_zero),
        vol.with_data(one_voxel),
        make_volume(data, (2.0, 2.0, 2.0), origin=(0.0, 0.0, 1.0)),
        make_volume(data.reshape(4, 3, 5), (2.0, 2.0, 2.0)),
    ]
    assert [same_nifti(vol, other) for other in others] == [True, False, False, False, False]
    for other in others:
        assert same_nifti(vol, other) == (write_nifti(vol) == write_nifti(other))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400)
@given(st.sampled_from(list(VALID_FILES.values())), HEADER_MUTATIONS)
def test_header_mutation_parses_finite_or_raises_format_error(raw, mutation):
    offset, fmt, value = mutation
    raw = bytearray(raw)
    struct.pack_into(fmt, raw, offset, value)
    try:
        vol = read_nifti(bytes(raw))
    except FormatError:
        return
    assert np.isfinite(vol.data).all()
    assert np.isfinite(vol.spacing).all() and np.isfinite(vol.affine).all()


class TestDownsample:
    def test_constant_stays_constant(self):
        vol = make_volume(np.full((6, 4, 8), 3.25))
        for factor in (2, (3, 2, 4), (1, 1, 2)):
            out = downsample(vol, factor)
            assert np.all(out.data == 3.25)

    def test_ramp_matches_bruteforce_block_means(self, rng):
        data = rng.standard_normal((6, 6, 6))
        vol = make_volume(data)
        out = downsample(vol, (2, 3, 1))
        # independent oracle: explicit block loops
        expected = np.empty((3, 2, 6))
        for i in range(3):
            for j in range(2):
                for k in range(6):
                    expected[i, j, k] = data[2 * i : 2 * i + 2, 3 * j : 3 * j + 3, k].mean()
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_x_ramp_example(self):
        data = np.broadcast_to(np.arange(4.0)[:, None, None], (4, 4, 4)).copy()
        out = downsample(make_volume(data), 2)
        assert np.allclose(out.data[:, 0, 0], [0.5, 2.5])

    def test_factor_one_is_identity(self, rng):
        vol = random_volume(rng, np.float32)
        assert downsample(vol, 1) is vol

    def test_nondivisible_pads_with_edge(self):
        data = np.arange(3.0)[:, None, None] * np.ones((3, 2, 2))
        out = downsample(make_volume(data), (2, 2, 2))
        # second x block is [2, 2] after edge padding
        assert out.dims == (2, 1, 1)
        assert out.data[1, 0, 0] == 2.0

    def test_block_center_world_position_preserved(self, rng):
        vol = random_volume(rng, np.float32)
        f = (2, 3, 2)
        out = downsample(vol, f)
        center = np.array([(fi - 1) / 2 for fi in f] + [1.0])
        want = vol.affine @ center
        got = out.affine @ np.array([0.0, 0, 0, 1])
        assert np.allclose(got, want, atol=1e-9)

    def test_bad_factor(self, rng):
        with pytest.raises(ValueError):
            downsample(random_volume(rng, np.uint8), 0)


class TestIntegerFactors:
    @pytest.mark.parametrize("factor", [2.5, (2.9, 1, 1), (2, 2.0, 2), (2, 2), "2"])
    def test_non_integer_factors_raise(self, rng, factor):
        vol = random_volume(rng, np.float32)
        for resample in (downsample, upsample_trilinear):
            with pytest.raises(ValueError, match="factor must be one integer >= 1 or three"):
                resample(vol, factor)

    def test_numpy_integer_factors_give_the_python_int_volume(self, rng):
        vol = make_volume(rng.standard_normal((6, 5, 4)))
        for resample in (downsample, upsample_trilinear):
            want = resample(vol, (2, 3, 1))
            got = resample(vol, (np.int64(2), np.uint8(3), np.int32(1)))
            assert got.data.tobytes() == want.data.tobytes()
            assert got.spacing == want.spacing and np.array_equal(got.affine, want.affine)
            assert resample(vol, np.int64(2)).data.tobytes() == resample(vol, 2).data.tobytes()


class TestUpsample:
    def test_linear_field_reproduced_at_interior(self):
        nx, ny, nz = 5, 4, 6
        gx, gy, gz = np.meshgrid(*(np.arange(n, dtype=float) for n in (nx, ny, nz)), indexing="ij")
        data = 2.0 * gx - 1.5 * gy + 0.25 * gz + 3.0
        out = upsample_trilinear(make_volume(data), (2, 2, 2))

        def src(j):
            return (j + 0.5) / 2.0 - 0.5

        # interior target voxels (away from the clamped border)
        for ti in (2, 3, 6):
            for tj in (2, 3, 5):
                for tk in (2, 4, 9):
                    want = 2.0 * src(ti) - 1.5 * src(tj) + 0.25 * src(tk) + 3.0
                    assert out.data[ti, tj, tk] == pytest.approx(want, abs=1e-12)

    def test_factor_one_is_identity(self, rng):
        vol = random_volume(rng, np.float32)
        assert upsample_trilinear(vol, (1, 1, 1)) is vol

    def test_two_voxel_ramp_against_pointwise_oracle(self):
        data = np.zeros((2, 1, 1))
        data[1] = 1.0
        out = upsample_trilinear(make_volume(data), (2, 1, 1))
        expected = [np.clip((j + 0.5) / 2 - 0.5, 0, 1) for j in range(4)]
        assert np.allclose(out.data[:, 0, 0], expected, atol=1e-12)

    def test_downsample_then_upsample_constant(self):
        vol = make_volume(np.full((8, 8, 8), 7.5))
        out = upsample_trilinear(downsample(vol, 2), 2)
        assert np.all(out.data == 7.5)

    def test_upsample_inverts_downsample_affine(self, rng):
        vol = random_volume(rng, np.float32)
        out = upsample_trilinear(downsample(vol, 2), 2)
        assert np.allclose(out.affine, vol.affine, atol=1e-9)

    @pytest.mark.parametrize("factor", [(2, 3, 3), (1, 1, 1)])
    def test_z_range_is_a_slice_of_the_full_upsample(self, rng, factor):
        affine = np.array([[0.0, -1.2, 0.1, 4.0], [0.9, 0.0, 0.0, -2.5],
                           [0.05, 0.0, 1.7, 11.0], [0.0, 0.0, 0.0, 1.0]])
        vol = Volume3D(rng.standard_normal((5, 4, 7)), affine)
        full = upsample_trilinear(vol, factor)
        nz = full.dims[2]
        for z0, z1 in [(0, nz), (0, 1), (4, nz - 2), (nz - 1, nz)]:
            part = upsample_trilinear(vol, factor, (z0, z1))
            assert np.array_equal(part.data, full.data[:, :, z0:z1])
            assert part.spacing == full.spacing
            assert np.array_equal(part.affine[:3, :3], full.affine[:3, :3])
            assert np.allclose(part.affine @ [0, 0, 0, 1], full.affine @ [0, 0, z0, 1],
                               rtol=0, atol=1e-12)

    @pytest.mark.parametrize("factor, z_range", [
        ((2, 3, 3), (3, 3)), ((2, 3, 3), (5, 2)), ((2, 3, 3), (-1, 4)), ((2, 3, 3), (0, 22)),
        ((2, 3, 3), (21, 22)), ((1, 1, 1), (3, 3)), ((1, 1, 1), (-1, 4)), ((1, 1, 1), (0, 8)),
    ])
    def test_empty_or_out_of_grid_z_range_raises(self, rng, factor, z_range):
        vol = make_volume(rng.standard_normal((5, 4, 7)))
        with pytest.raises(ValueError, match="z_range"):
            upsample_trilinear(vol, factor, z_range)


def trilinear_point(src, point):
    """Pointwise 8-corner trilinear formula with edge clamping: corner weights
    multiplied in axis order, corners summed with axis 0's bit fastest."""
    lo, frac = [], []
    for axis, c in enumerate(point):
        n = src.shape[axis]
        c = min(max(c, 0.0), n - 1.0)
        lo.append(min(math.floor(c), n - 1))
        frac.append(c - lo[-1])
    total = 0.0
    for corner in range(8):
        w, idx = 1.0, []
        for axis in range(3):
            up = corner >> axis & 1
            idx.append(min(lo[axis] + up, src.shape[axis] - 1))
            w *= frac[axis] if up else 1.0 - frac[axis]
        total += w * src[tuple(idx)]
    return total


class TestTrilinearAt:
    def assert_matches_pointwise(self, src, axes):
        got = _trilinear_at(src, axes)
        assert got.shape == tuple(len(a) for a in axes)
        for p in np.ndindex(got.shape):
            point = tuple(float(axes[axis][p[axis]]) for axis in range(3))
            assert got[p] == trilinear_point(src, point), p

    @pytest.mark.parametrize("factor", [2, 3])
    def test_upsample_coordinates_match_pointwise_formula(self, rng, factor):
        src = rng.standard_normal((4, 5, 3))
        axes = [(np.arange(n * factor) + 0.5) / factor - 0.5 for n in src.shape]
        self.assert_matches_pointwise(src, axes)

    def test_phantom_lattice_coordinates_match_pointwise_formula(self, rng):
        dims, step = (40, 33, 18), 16
        lattice = rng.standard_normal(tuple(d // step + 2 for d in dims))
        self.assert_matches_pointwise(lattice, [np.arange(d) / step for d in dims])

    def test_grid_of_several_blocks_and_a_ragged_one_matches_pointwise_formula(self, rng):
        dims, step = (37, 129, 20), 16
        slices = TRILINEAR_BLOCK_VOXELS // (dims[1] * dims[2])
        assert 2 * slices < dims[0] and dims[0] % slices  # three whole blocks, then part of one
        lattice = rng.standard_normal(tuple(d // step + 2 for d in dims))
        self.assert_matches_pointwise(lattice, [np.arange(d) / step for d in dims])


@given(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_roundtrip_property(nx, ny, nz, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-1000, 1000, size=(nx, ny, nz)).astype(np.int16)
    vol = make_volume(data, spacing=(0.5, 1.25, 2.0))
    back = read_nifti(write_nifti(vol))
    assert back.dims == (nx, ny, nz)
    assert back.spacing == (0.5, 1.25, 2.0)
    assert np.array_equal(back.data, vol.data)


GRIDS = pytest.mark.parametrize("grid", [Volume3D, BinaryMask], ids=["volume", "mask"])


class TestValidation:
    @GRIDS
    @pytest.mark.parametrize("value, message", [(0.0, "singular"), (math.nan, "finite"),
                                                (math.inf, "finite")],
                             ids=["singular", "nan", "inf"])
    def test_affine_must_be_invertible(self, grid, value, message):
        affine = np.eye(4)
        affine[1, 1] = value
        with pytest.raises(ValueError, match=message):
            grid(data=np.zeros((2, 2, 2)), affine=affine)

    @GRIDS
    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2, 1), (2, 0, 2)], ids=["2d", "4d", "empty"])
    def test_data_must_be_3d(self, grid, shape):
        with pytest.raises(ValueError, match="3D"):
            grid(data=np.zeros(shape), affine=np.eye(4))

    def test_mask_requires_binary_data(self):
        with pytest.raises(ValueError):
            BinaryMask(data=np.full((2, 2, 2), 0.5), affine=np.eye(4))

    def test_volumes_are_immutable(self, rng):
        vol = random_volume(rng, np.float32)
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0

    @GRIDS
    def test_writable_view_is_copied_and_affine_left_writable(self, grid):
        base = np.zeros((4, 2, 2), dtype=np.float64 if grid is Volume3D else bool)
        affine = np.eye(4)
        g = grid(base[:2], affine)
        base[0, 0, 0] = 1
        assert g.data[0, 0, 0] == 0
        assert base.flags.writeable and affine.flags.writeable
        affine[0, 0] = 2.0
        assert g.affine[0, 0] == 1.0

    @GRIDS
    def test_owned_array_is_adopted_without_a_copy(self, grid):
        data = np.zeros((2, 2, 2), dtype=np.float64 if grid is Volume3D else bool)
        assert grid(data, np.eye(4)).data is data
        assert not data.flags.writeable


# record type -> (a writable base array, the record built on a view of it,
# the field that holds the view)
RECORDS = {
    "Volume3D": (np.zeros((2, 2, 2)), lambda v: Volume3D(v, np.eye(4)), "data"),
    "BinaryMask": (np.zeros((2, 2, 2), bool), lambda v: BinaryMask(v, np.eye(4)), "data"),
    "DiffusionSchedule": (np.array([1.0, 0.9, 0.5]), DiffusionSchedule, "alpha_bar"),
    "TriMesh": (np.eye(3), lambda v: TriMesh(v, [[0, 1, 2]]), "vertices"),
    "ObservationTable": (np.array([0.5, 1.5]),
                         lambda v: ObservationTable(["a", "b"], [0, 0], [40.0, 50.0], [0, 1], v),
                         "y"),
}


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_read_only_view_is_copied_so_its_base_cannot_change_the_record(record):
    base, build, field = RECORDS[record]
    base = base.copy()
    view = base[:]
    view.setflags(write=False)
    held = getattr(build(view), field)
    before = held.copy()
    flat = base.reshape(-1)
    flat[-1] = not flat[-1]
    assert np.array_equal(held, before)
    assert base.flags.writeable


class TestBoundingBox:
    def mask(self, data):
        return BinaryMask(data=data, affine=np.eye(4))

    def test_empty_mask_has_no_box(self):
        assert self.mask(np.zeros((4, 5, 6), bool)).bounding_box(3) is None

    def test_pad_zero_is_tight(self, rng):
        data = np.zeros((12, 10, 9), bool)
        data[3:7, 2:9, 4:6] = rng.random((4, 7, 2)) < 0.6
        data[3, 2, 4] = data[6, 8, 5] = True
        box = self.mask(data).bounding_box(0)
        assert box == (slice(3, 7), slice(2, 9), slice(4, 6))
        assert data[box].sum() == data.sum()

    def test_pad_grows_each_side_and_is_clipped_at_both_borders(self):
        data = np.zeros((12, 10, 9), bool)
        data[2, 4, 5] = data[9, 5, 6] = True
        mask = self.mask(data)
        assert mask.bounding_box(2) == (slice(0, 12), slice(2, 8), slice(3, 9))
        assert mask.bounding_box(50) == (slice(0, 12), slice(0, 10), slice(0, 9))
