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
from dataclasses import dataclass

import numpy as np

from .volume import BinaryMask, Volume3D, _trilinear_at

INTENSITY_BACKGROUND = 0.0
INTENSITY_SKULL = 40.0
INTENSITY_SOFT = 80.0
INTENSITY_BRAIN = 100.0

SHELL_BAND = (0.78, 0.90)  # head implicit values occupied by the skull shell

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
    nose_base: tuple = (14.0, 10.0)  # base half-extent (x, z), mm
    brow_depth: float = 8.0
    noise_amplitude: float = 4.0
    dims: tuple = (128, 128, 128)
    spacing: tuple = (2.0, 2.0, 2.0)

    def __post_init__(self):
        lo, hi = _RANGES["head_radii"]
        if not all(lo <= r <= hi for r in self.head_radii):
            raise ValueError(f"head radii {self.head_radii} outside [{lo}, {hi}] mm")
        lo, hi = _RANGES["nose_length"]
        if not lo <= self.nose_length <= hi:
            raise ValueError(f"nose length {self.nose_length} outside [{lo}, {hi}] mm")
        lo, hi = _RANGES["brow_depth"]
        if not lo <= self.brow_depth <= hi:
            raise ValueError(f"brow depth {self.brow_depth} outside [{lo}, {hi}] mm")
        lo, hi = _RANGES["noise_amplitude"]
        if not lo <= self.noise_amplitude <= hi:
            raise ValueError(f"noise amplitude {self.noise_amplitude} outside [{lo}, {hi}]")
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
    head_radii: tuple
    brain_center: tuple
    brain_radii: tuple
    nose_center: tuple
    nose_radii: tuple
    brow_center: tuple
    brow_radii: tuple
    shell_band: tuple = SHELL_BAND

    def head_value(self, points):
        points = np.asarray(points, dtype=np.float64)
        coords = (points[..., 0], points[..., 1], points[..., 2])
        return _ellipsoid(coords, self.head_center, self.head_radii)

    def contains_head(self, points):
        """Membership in the full head union (ellipsoid, nose, brow)."""
        points = np.asarray(points, dtype=np.float64)
        coords = (points[..., 0], points[..., 1], points[..., 2])
        return (
            (_ellipsoid(coords, self.head_center, self.head_radii) <= 1.0)
            | (_ellipsoid(coords, self.nose_center, self.nose_radii) <= 1.0)
            | (_ellipsoid(coords, self.brow_center, self.brow_radii) <= 1.0)
        )

    def contains_brain(self, points):
        points = np.asarray(points, dtype=np.float64)
        coords = (points[..., 0], points[..., 1], points[..., 2])
        return _ellipsoid(coords, self.brain_center, self.brain_radii) <= 1.0

    def nose_tip(self) -> np.ndarray:
        tip = np.array(self.nose_center, dtype=np.float64)
        tip[1] += self.nose_radii[1]
        return tip

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "head_center": list(self.head_center),
            "head_radii": list(self.head_radii),
            "brain_center": list(self.brain_center),
            "brain_radii": list(self.brain_radii),
            "nose_center": list(self.nose_center),
            "nose_radii": list(self.nose_radii),
            "brow_center": list(self.brow_center),
            "brow_radii": list(self.brow_radii),
            "shell_band": list(self.shell_band),
            "nose_length": self.params.nose_length,
            "brow_depth": self.params.brow_depth,
            "noise_amplitude": self.params.noise_amplitude,
            "dims": list(self.params.dims),
            "spacing": list(self.params.spacing),
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
    nose_radii = (params.nose_base[0], params.nose_length + nose_sink, params.nose_base[1])

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
        head_radii=(rx, ry, rz),
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


def _smooth_noise(dims, seed, lattice_step=16):
    """Band-limited noise: a coarse normal lattice interpolated trilinearly,
    clipped to +-2.5 so tissue modes stay separated."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    lat_dims = tuple(d // lattice_step + 2 for d in dims)
    lattice = rng.standard_normal(lat_dims)
    axes = [np.arange(d) / lattice_step for d in dims]
    return np.clip(_trilinear_at(lattice, axes), -2.5, 2.5)


def generate_phantom(seed: int, params: PhantomParams | None = None):
    """Rasterize one phantom; returns (volume, brain mask, geometry record).

    Bitwise deterministic in (seed, params).
    """
    params = params or PhantomParams()
    geom = _derive_geometry(seed, params)

    nx, ny, nz = params.dims
    sx, sy, sz = params.spacing
    affine = np.diag([sx, sy, sz, 1.0])
    affine[:3, 3] = [-(d - 1) / 2.0 * s for d, s in zip(params.dims, params.spacing)]
    wx = (np.arange(nx) * sx + affine[0, 3])[:, None, None]
    wy = (np.arange(ny) * sy + affine[1, 3])[None, :, None]
    wz = (np.arange(nz) * sz + affine[2, 3])[None, None, :]
    coords = (wx, wy, wz)

    f_head = _ellipsoid(coords, geom.head_center, geom.head_radii)
    f_brain = _ellipsoid(coords, geom.brain_center, geom.brain_radii)
    f_nose = _ellipsoid(coords, geom.nose_center, geom.nose_radii)
    f_brow = _ellipsoid(coords, geom.brow_center, geom.brow_radii)

    brain = f_brain <= 1.0
    shell = (f_head >= geom.shell_band[0]) & (f_head <= geom.shell_band[1]) & ~brain
    union = (f_head <= 1.0) | (f_nose <= 1.0) | (f_brow <= 1.0)
    soft = union & ~brain & ~shell

    data = np.full(params.dims, INTENSITY_BACKGROUND)
    data[brain] = INTENSITY_BRAIN
    data[shell] = INTENSITY_SKULL
    noise = _smooth_noise(params.dims, seed)
    data[soft] = INTENSITY_SOFT + params.noise_amplitude * noise[soft]

    vol = Volume3D(data=data, spacing=params.spacing, affine=affine)
    return vol, BinaryMask.like(vol, brain), geom


@dataclass(frozen=True)
class PhantomCase:
    subject_id: str
    volume: Volume3D
    brain: BinaryMask
    geometry: PhantomGeometry


def generate_cohort(n: int, seed: int, base: PhantomParams | None = None) -> list:
    """n phantoms with independent derived seeds and per-subject parameter
    jitter (head radii x U(0.93, 1.07), nose length +- 4 mm, brow +- 1.5 mm),
    clipped to the documented parameter ranges."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    base = base or PhantomParams()
    cases = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        radii = tuple(
            float(np.clip(r * rng.uniform(0.93, 1.07), *_RANGES["head_radii"]))
            for r in base.head_radii
        )
        nose = float(np.clip(base.nose_length + rng.uniform(-4, 4), *_RANGES["nose_length"]))
        brow = float(np.clip(base.brow_depth + rng.uniform(-1.5, 1.5), *_RANGES["brow_depth"]))
        params = PhantomParams(
            head_radii=radii,
            nose_length=nose,
            nose_base=base.nose_base,
            brow_depth=brow,
            noise_amplitude=base.noise_amplitude,
            dims=base.dims,
            spacing=base.spacing,
        )
        subject_seed = int(
            np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0]
        )
        vol, brain, geom = generate_phantom(subject_seed, params)
        cases.append(
            PhantomCase(
                subject_id=f"phantom-{i:03d}", volume=vol, brain=brain, geometry=geom
            )
        )
    return cases
