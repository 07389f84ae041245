"""Analytic and stub x0-predictors used for sampler verification and the
end-to-end demo (trained networks are out of scope; these close the loop
deterministically or from closed-form conditioning).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .ddim import DiffusionSchedule
from .volume import BinaryMask, Volume3D


class DiracDenoiser:
    """Always predicts a fixed clean signal; the sampler then returns it
    exactly, regardless of seed."""

    def __init__(self, x_star):
        self.x_star = np.asarray(x_star, dtype=np.float64)

    def __call__(self, x_t, t, condition):
        return np.broadcast_to(self.x_star, np.shape(x_t))


class GaussianPosteriorDenoiser:
    """Exact posterior mean E[x0 | x_t] for scalar data x0 ~ N(mu, s^2) under
    the forward process x_t = sqrt(abar) x0 + sqrt(1-abar) eps."""

    def __init__(self, mu: float, s: float, schedule: DiffusionSchedule):
        self.mu = float(mu)
        self.s2 = float(s) ** 2
        self.schedule = schedule

    def __call__(self, x_t, t, condition):
        a = self.schedule.alpha_bar[t]
        gain = np.sqrt(a) * self.s2 / (a * self.s2 + 1.0 - a)
        return self.mu + gain * (np.asarray(x_t) - np.sqrt(a) * self.mu)


class ConditionStub:
    """Identity-on-condition stub: predicts x0 as one entry of the condition
    dict (a Volume3D or an array matching x_t)."""

    def __init__(self, key: str):
        self.key = key

    def __call__(self, x_t, t, condition):
        value = condition[self.key]
        data = value.data if isinstance(value, Volume3D) else np.asarray(value)
        if data.shape != np.shape(x_t):
            raise ValueError(
                f"condition {self.key!r} has shape {data.shape}, x_t {np.shape(x_t)}"
            )
        return data


class VolumeDenoiser:
    """Predicts x0 as the matching region of a fixed volume: the whole volume
    when shapes agree, else the condition's ``slab_range`` axial slab. With
    the pre-defacing image this is the oracle that closes the refacing loop;
    with a surrogate fill it is the demo stub."""

    def __init__(self, volume: Volume3D):
        self.volume = volume

    def __call__(self, x_t, t, condition):
        data = self.volume.data
        if data.shape == np.shape(x_t):
            return data
        z0, z1 = condition["slab_range"]
        slab = data[:, :, z0:z1]
        if slab.shape != np.shape(x_t):
            raise ValueError(
                f"volume slab {slab.shape} does not match x_t {np.shape(x_t)}"
            )
        return slab


def mirror_fill(defaced: Volume3D, removed: BinaryMask) -> Volume3D:
    """Fill the removed region by local reflection through its boundary: each
    removed voxel takes the intensity at the point-reflection of itself
    through its nearest observed voxel (falling back to that voxel's value
    when the reflected point is itself removed or out of bounds).

    A deterministic, training-free surrogate that extends the remaining head
    shape across the cut; used as the demo's stub x0-predictor.
    """
    gone = removed.data
    if not gone.any():
        return defaced
    nearest = ndimage.distance_transform_edt(
        gone, sampling=defaced.spacing, return_distances=False, return_indices=True
    )
    at = np.nonzero(gone)
    near = nearest[(slice(None), *at)]
    mirror = 2 * near - at
    inside = ((mirror >= 0) & (mirror < np.array(gone.shape)[:, None])).all(axis=0)
    # out of bounds, the reflection falls back to the nearest observed voxel
    mirror = np.where(inside, mirror, near)
    data = defaced.data
    filled = data.copy()
    filled[at] = np.where(gone[tuple(mirror)], data[tuple(near)], data[tuple(mirror)])
    return defaced.with_data(filled)
