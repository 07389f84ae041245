"""Deterministic synthetic head phantoms.

A phantom is a union of analytic implicit surfaces rasterized onto a
configurable grid: a head ellipsoid with a thin skull shell and scalp layer,
a brain ellipsoid, and parametric nose/brow protrusions attached to the
anterior surface. Intensities: background 0, soft tissue 80 +- band-limited
noise, skull shell 40, brain 100. The geometry record keeps every implicit
parameter so tests can evaluate membership and surface offsets analytically.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .volume import BinaryMask, Volume3D, _trilinear_at

INTENSITY_BACKGROUND = 0.0
INTENSITY_SKULL = 40.0
INTENSITY_SOFT = 80.0
INTENSITY_BRAIN = 100.0

SHELL_BAND = (0.78, 0.90)  # head implicit values occupied by the skull shell
NOSE_BASE = (14.0, 10.0)  # nose base half-extent (x, z), mm
NOISE_LATTICE_STEP = 16  # voxels between the tissue-noise lattice points
RASTER_BLOCK_PLANES = 8  # x-planes generate_phantom rasterizes at a time

_RANGES = {
    "head_radii": (60.0, 100.0),
    "nose_length": (10.0, 40.0),
    "brow_depth": (4.0, 12.0),
    "noise_amplitude": (0.0, 8.0),
}


@dataclass(frozen=True)
class PhantomParams:
    head_radii: tuple = (65.0, 80.0, 75.0)  # mm semi-axes (x, y, z)
    nose_length: float = 22.0  # protrusion beyond the head surface, mm
    brow_depth: float = 8.0
    noise_amplitude: float = 4.0
    dims: tuple = (128, 128, 128)
    spacing: tuple = (2.0, 2.0, 2.0)

    def __post_init__(self):
        for name, (lo, hi) in _RANGES.items():
            value = getattr(self, name)
            if not all(lo <= v <= hi for v in np.atleast_1d(value)):
                raise ValueError(f"{name} {value} outside [{lo}, {hi}]")
        if len(self.dims) != 3 or any(d < 32 for d in self.dims):
            raise ValueError(f"dims {self.dims} too small, need >= 32 per axis")
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing {self.spacing} must be positive")


def _ellipsoid(coords, center, radii):
    """Implicit value sum(((w - c) / r)^2); <= 1 inside."""
    x, y, z = coords
    return (
        ((x - center[0]) / radii[0]) ** 2
        + ((y - center[1]) / radii[1]) ** 2
        + ((z - center[2]) / radii[2]) ** 2
    )


@dataclass(frozen=True)
class PhantomGeometry:
    """Analytic ground truth: implicit-surface parameters of one phantom."""

    seed: int
    params: PhantomParams
    head_center: tuple
    brain_center: tuple
    brain_radii: tuple
    nose_center: tuple
    nose_radii: tuple
    brow_center: tuple
    brow_radii: tuple

    @property
    def head_radii(self) -> tuple:
        return self.params.head_radii

    def contains_head(self, points):
        """Membership in the full head union (ellipsoid, nose, brow)."""
        points = np.asarray(points, dtype=np.float64)
        coords = (points[..., 0], points[..., 1], points[..., 2])
        return self._head_union(coords, _ellipsoid(coords, self.head_center, self.head_radii))

    def _head_union(self, coords, f_head):
        """Head ellipsoid, nose and brow membership at ``coords``, given the
        head ellipsoid's implicit values ``f_head`` there."""
        return (
            (f_head <= 1.0)
            | (_ellipsoid(coords, self.nose_center, self.nose_radii) <= 1.0)
            | (_ellipsoid(coords, self.brow_center, self.brow_radii) <= 1.0)
        )

    def nose_tip(self) -> np.ndarray:
        tip = np.array(self.nose_center, dtype=np.float64)
        tip[1] += self.nose_radii[1]
        return tip

    def to_json_dict(self) -> dict:
        """The record's fields and its parameters' in one flat dict, tuples
        as lists, plus the shell band and the tissue intensities."""
        record = asdict(self)
        record = {**record.pop("params"), **record, "shell_band": SHELL_BAND}
        return {
            **{name: list(v) if isinstance(v, tuple) else v for name, v in record.items()},
            "intensities": {
                "background": INTENSITY_BACKGROUND,
                "skull": INTENSITY_SKULL,
                "soft": INTENSITY_SOFT,
                "brain": INTENSITY_BRAIN,
            },
        }


def _derive_geometry(seed: int, params: PhantomParams) -> PhantomGeometry:
    rx, ry, rz = params.head_radii
    cx, cy, cz = 0.0, -10.0, 0.0

    # Protrusion centers sit slightly inside the head surface so the lateral
    # ends blend in without deep creases (the surface crop tests bound the
    # head mask by +-1 voxel around the analytic union); the y semi-axis is
    # extended by the same submersion so the tip protrudes exactly
    # nose_length / brow_depth beyond the local surface.
    z_frac = 0.25
    nose_sink = 5.0
    nose_z = cz - z_frac * rz
    nose_y = cy + ry * math.sqrt(1.0 - z_frac**2) - nose_sink
    nose_center = (cx, nose_y, nose_z)
    nose_radii = (NOSE_BASE[0], params.nose_length + nose_sink, NOSE_BASE[1])

    brow_frac = 0.35
    brow_sink = 6.0
    brow_z = cz + brow_frac * rz
    brow_y = cy + ry * math.sqrt(1.0 - brow_frac**2) - brow_sink
    brow_center = (cx, brow_y, brow_z)
    brow_radii = (0.35 * rx, params.brow_depth + brow_sink, 10.0)

    brain_center = (cx, cy - 0.12 * ry, cz + 0.10 * rz)
    brain_radii = (0.62 * rx, 0.62 * ry, 0.62 * rz)

    geom = PhantomGeometry(
        seed=seed,
        params=params,
        head_center=(cx, cy, cz),
        brain_center=brain_center,
        brain_radii=brain_radii,
        nose_center=nose_center,
        nose_radii=nose_radii,
        brow_center=brow_center,
        brow_radii=brow_radii,
    )
    fov = [(d - 1) / 2.0 * s for d, s in zip(params.dims, params.spacing)]
    tip_y = nose_y + params.nose_length
    margin = 3.0 * max(params.spacing)
    if tip_y > fov[1] - margin or rx > fov[0] - margin or rz + abs(cz) > fov[2] - margin:
        raise ValueError("phantom does not fit the grid with a 3-voxel margin")
    return geom


def _noise_lattice(dims, seed):
    """The coarse normal lattice of the band-limited tissue noise."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    return rng.standard_normal(tuple(d // NOISE_LATTICE_STEP + 2 for d in dims))


def generate_phantom(seed: int, params: PhantomParams | None = None):
    """Rasterize one phantom; returns (volume, brain mask, geometry record).

    Bitwise deterministic in (seed, params). The grid is rasterized in
    blocks of ``RASTER_BLOCK_PLANES`` x-planes, so the temporaries stay a
    block's size; every voxel takes the same operations whatever the
    blocking. Soft tissue carries band-limited noise: the lattice
    interpolated trilinearly, clipped to +-2.5 so tissue modes stay
    separated.
    """
    params = params or PhantomParams()
    geom = _derive_geometry(seed, params)

    nx, ny, nz = params.dims
    sx, sy, sz = params.spacing
    affine = np.diag([sx, sy, sz, 1.0])
    affine[:3, 3] = [-(d - 1) / 2.0 * s for d, s in zip(params.dims, params.spacing)]
    wx = np.arange(nx) * sx + affine[0, 3]
    wy = (np.arange(ny) * sy + affine[1, 3])[:, None]
    wz = np.arange(nz) * sz + affine[2, 3]
    lattice = _noise_lattice(params.dims, seed)
    axes = [np.arange(d) / NOISE_LATTICE_STEP for d in params.dims]

    data = np.full(params.dims, INTENSITY_BACKGROUND)
    brain = np.empty(params.dims, dtype=bool)
    for x0 in range(0, nx, RASTER_BLOCK_PLANES):
        x = slice(x0, x0 + RASTER_BLOCK_PLANES)
        coords = (wx[x, None, None], wy, wz)
        f_head = _ellipsoid(coords, geom.head_center, geom.head_radii)
        brain[x] = _ellipsoid(coords, geom.brain_center, geom.brain_radii) <= 1.0
        in_brain = brain[x]
        shell = (f_head >= SHELL_BAND[0]) & (f_head <= SHELL_BAND[1]) & ~in_brain
        soft = geom._head_union(coords, f_head) & ~in_brain & ~shell
        block = data[x]
        block[in_brain] = INTENSITY_BRAIN
        block[shell] = INTENSITY_SKULL
        noise = np.clip(_trilinear_at(lattice, (axes[0][x], axes[1], axes[2])), -2.5, 2.5)
        block[soft] = INTENSITY_SOFT + params.noise_amplitude * noise[soft]

    vol = Volume3D(data=data, affine=affine)
    return vol, BinaryMask.like(vol, brain), geom


@dataclass(frozen=True)
class PhantomCase:
    """One cohort subject. Its volume and brain mask are rasterized from
    its geometry's seed and parameters on first read and kept on the case,
    so they live as long as the case; ``dataclasses.replace(case)`` is an
    unbuilt copy. Give each thread its own copy: two threads reading an
    unbuilt case together would each rasterize it."""

    subject_id: str
    geometry: PhantomGeometry
    # (volume, brain) once built; not a functools.cached_property, which
    # before Python 3.12 locks every instance's first read behind one lock
    _raster: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _rasterized(self) -> tuple:
        if self._raster is None:
            volume, brain, _ = generate_phantom(self.geometry.seed, self.geometry.params)
            object.__setattr__(self, "_raster", (volume, brain))
        return self._raster

    @property
    def volume(self) -> Volume3D:
        return self._rasterized()[0]

    @property
    def brain(self) -> BinaryMask:
        return self._rasterized()[1]


def generate_cohort(n: int, seed: int, base: PhantomParams | None = None) -> list:
    """n unbuilt phantom cases with independent derived seeds and
    per-subject parameter jitter (head radii x U(0.93, 1.07), nose length
    +- 4 mm, brow +- 1.5 mm), clipped to the documented parameter ranges.
    Each case's geometry is derived here, so a base that does not fit the
    grid raises before any phantom is rasterized."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    base = base or PhantomParams()
    cases = []
    for i in range(n):
        subject_ss = np.random.SeedSequence(seed, spawn_key=(i,))
        rng = np.random.default_rng(subject_ss)
        radii = tuple(
            float(np.clip(r * rng.uniform(0.93, 1.07), *_RANGES["head_radii"]))
            for r in base.head_radii
        )
        nose = float(np.clip(base.nose_length + rng.uniform(-4, 4), *_RANGES["nose_length"]))
        brow = float(np.clip(base.brow_depth + rng.uniform(-1.5, 1.5), *_RANGES["brow_depth"]))
        params = replace(base, head_radii=radii, nose_length=nose, brow_depth=brow)
        subject_seed = int(subject_ss.generate_state(1)[0])
        cases.append(PhantomCase(subject_id=f"phantom-{i:03d}",
                                 geometry=_derive_geometry(subject_seed, params)))
    return cases
