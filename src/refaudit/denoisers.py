"""Analytic and stub x0-predictors used for sampler verification and the
end-to-end demo, and ``reface``, the cascade they drive (trained networks are
out of scope; these close the loop deterministically or from closed-form
conditioning).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ._lazy import LazyModule
from .ddim import CascadeConfig, DiffusionSchedule, cascade_reface
from .volume import BinaryMask, Volume3D, downsample

ndimage = LazyModule("scipy.ndimage")


class VolumeDenoiser:
    """The fixed-prior x0-predictor: the exact posterior mean E[x0 | x_t]
    for data x0 ~ N(mu, s^2) under the forward process
    x_t = sqrt(abar) x0 + sqrt(1-abar) eps.

    ``mu`` is a scalar, an array or a ``Volume3D``. A ``mu`` shaped like x_t
    is used whole; a taller one is read on the condition's ``slab_range``
    axial slab. At ``s = 0`` the prediction is that slab of ``mu`` itself,
    with no arithmetic, so from a finite x_t the sampler returns it bit for
    bit: with the pre-defacing image this is the oracle that closes the
    refacing loop, with a surrogate fill the demo stub. ``s != 0`` needs the
    ``schedule``.

    A slab of a taller ``mu`` is a strided view, slow to read on every step,
    so it is copied once per chain: each thread keeps the last slab it was
    given, C-contiguous and read-only, and copies again only on a new
    ``slab_range``. Keeping every slab would hold more memory than a chain
    needs."""

    def __init__(self, mu, s: float = 0.0, schedule: DiffusionSchedule | None = None):
        self.mu = np.asarray(mu.data if isinstance(mu, Volume3D) else mu, dtype=np.float64)
        self.s2 = float(s) ** 2
        if self.s2 != 0.0 and schedule is None:
            raise ValueError(f"a prior SD s = {s} other than 0 needs the diffusion schedule")
        self.schedule = schedule
        self._last_slab = threading.local()

    def _slab(self, slab_range):
        last = self._last_slab
        if getattr(last, "range", None) != slab_range:
            z0, z1 = slab_range
            slab = np.ascontiguousarray(self.mu[:, :, z0:z1])
            slab.flags.writeable = False
            last.range, last.slab = slab_range, slab
        return last.slab

    def __call__(self, x_t, t, condition):
        mu, shape = self.mu, np.shape(x_t)
        if mu.ndim and mu.shape != shape:
            mu = self._slab(condition["slab_range"])
            if mu.shape != shape:
                raise ValueError(f"prior mean slab {mu.shape} does not match x_t {shape}")
        if self.s2 == 0.0:  # broadcast_to alone would cost more than the rest of the call
            return mu if mu.shape == shape else np.broadcast_to(mu, shape)
        a = self.schedule.alpha_bar[t]
        gain = np.sqrt(a) * self.s2 / (a * self.s2 + 1.0 - a)
        return mu + gain * (np.asarray(x_t) - np.sqrt(a) * mu)

    def final_sd(self, steps, eta: float) -> float:
        """Exact final SD of the DDIM chain along ``steps`` driven by this
        denoiser from N(0, 1) noise.

        Every step is linear in x_t plus independent noise, so the variance
        obeys v <- coef^2 v + sigma^2 with coef = sqrt(q) gain +
        sqrt(1 - q - sigma^2) sqrt(1 - a) / d, where a and q are alpha_bar at
        the jump's ends, d = a s^2 + 1 - a and gain = sqrt(a) s^2 / d. Built
        from ``schedule.alpha_bar`` alone, independently of ``ddim_step``.
        """
        if self.schedule is None:
            raise ValueError("final_sd needs the diffusion schedule")
        abar, s2, v = self.schedule.alpha_bar, self.s2, 1.0
        for t, p in zip(steps[:-1], steps[1:]):
            a, q = abar[t], abar[p]
            d = a * s2 + 1 - a
            gain = math.sqrt(a) * s2 / d
            sig2 = eta * eta * (1 - q) / (1 - a) * (1 - a / q) if p > 0 else 0.0
            coef = math.sqrt(q) * gain + math.sqrt(max(1 - q - sig2, 0)) * math.sqrt(1 - a) / d
            v = coef * coef * v + sig2
        return math.sqrt(v)


def mirror_fill(defaced: Volume3D, removed: BinaryMask) -> Volume3D:
    """Fill the removed region by local reflection through its boundary: each
    removed voxel takes the intensity at the point-reflection of itself
    through its nearest observed voxel (falling back to that voxel's value
    when the reflected point is itself removed or out of bounds).

    A deterministic, training-free surrogate that extends the remaining head
    shape across the cut; used as the demo's stub x0-predictor.
    """
    box = removed.bounding_box(1)
    if box is None:
        return defaced
    gone = removed.data
    # Every voxel of the one-voxel ring around the removed voxels' box is
    # observed (or the box meets the grid border), and an observed voxel
    # outside the box is strictly farther than its projection onto the ring,
    # so the feature transform of the box alone finds the nearest voxels.
    crop = gone[box]
    nearest = ndimage.distance_transform_edt(
        crop, sampling=defaced.spacing, return_distances=False, return_indices=True
    )
    local = np.nonzero(crop)
    origin = np.array([s.start for s in box])[:, None]
    near = nearest[(slice(None), *local)] + origin
    at = np.array(local) + origin
    mirror = 2 * near - at
    inside = ((mirror >= 0) & (mirror < np.array(gone.shape)[:, None])).all(axis=0)
    # out of bounds, the reflection falls back to the nearest observed voxel
    mirror = np.where(inside, mirror, near)
    data = defaced.data
    filled = data.copy()
    filled[tuple(at)] = np.where(gone[tuple(mirror)], data[tuple(near)], data[tuple(mirror)])
    return defaced.with_data(filled)


def reface(defaced: Volume3D, removed: BinaryMask, priors, config: CascadeConfig = CascadeConfig(),
           slab_workers: int | None = None) -> list[Volume3D]:
    """One ``cascade_reface`` of ``defaced`` per volume of ``priors``, in
    order: stage 1 is the ``VolumeDenoiser`` of the prior downsampled by
    ``config.downsample_factor``, stage 2 that of the prior itself. Each
    prior is drawn only after the previous refacing is made."""
    return [cascade_reface(defaced, removed,
                           VolumeDenoiser(downsample(prior, config.downsample_factor)),
                           VolumeDenoiser(prior), config, slab_workers)
            for prior in priors]
