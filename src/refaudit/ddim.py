"""Cascaded DDIM sampling mathematics: noise schedules, the x0-prediction
step, conditional sampling, slab tiling for the 2.5D super-resolution stage,
and slab merging.

The denoiser predicts the clean image x0 at each step. With the noise
estimate eps = (x_t - sqrt(abar_t) x0) / sqrt(1 - abar_t), the DDIM update
(Song, Meng & Ermon 2021) is

    x_prev = sqrt(abar_prev) x0
             + sqrt(1 - abar_prev - sigma^2) eps + sigma z,

with sigma = eta sqrt((1-abar_prev)/(1-abar_t)) sqrt(1 - abar_t/abar_prev).
It is linear in x_t and x0, so ``ddim_step`` computes it as

    x_prev = c_x x_t + c_0 x0 + sigma z,
    c_x = sqrt(1 - abar_prev - sigma^2) / sqrt(1 - abar_t),
    c_0 = sqrt(abar_prev) - c_x sqrt(abar_t).

At the data end abar_prev = 1 and sigma = 0, so c_x = 0 and c_0 = 1: the
last step returns the final x0 prediction exactly for any finite x_t.
eta=0 gives deterministic trajectories. The sampler core operates on plain
arrays; geometry-carrying volumes enter only at the cascade boundary.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

import numpy as np

from .volume import (
    BinaryMask,
    Volume3D,
    downsample,
    frozen,
    integer_factors,
    require_same_geometry,
    upsample_trilinear,
)

# x0-predictor: (x_t, t, condition) -> x0 estimate, same shape as x_t.
Denoiser = Callable[[np.ndarray, int, Any], np.ndarray]

# The cascade's fixed training schedule: T_STEPS linear betas.
T_STEPS = 1000
BETA_START = 1e-4
BETA_END = 0.02


@dataclass(frozen=True)
class DiffusionSchedule:
    """Signal retentions alpha_bar[0..T]: alpha_bar[0] = 1 at the data end,
    strictly decreasing to alpha_bar[T] > 0. These are exactly the sequences
    cumprod(1 - beta) with every per-step variance beta in (0, 1)."""

    alpha_bar: np.ndarray

    def __post_init__(self):
        abar = np.asarray(self.alpha_bar, dtype=np.float64)
        if abar.ndim != 1 or len(abar) < 2 or not np.isfinite(abar).all():
            raise ValueError("alpha_bar must be a finite 1D array of length T+1 >= 2")
        if abar[0] != 1.0 or not (np.diff(abar) < 0).all() or not abar[-1] > 0.0:
            raise ValueError(
                "alpha_bar must decrease strictly from alpha_bar[0] == 1 to alpha_bar[T] > 0"
            )
        object.__setattr__(self, "alpha_bar", frozen(abar))

    @property
    def num_steps(self) -> int:
        return len(self.alpha_bar) - 1

    def sigma(self, t: int, t_prev: int, eta: float) -> float:
        """DDIM noise scale for the jump t -> t_prev; 0 when eta = 0 and at
        the data end."""
        if not 0 <= t_prev < t <= self.num_steps:
            raise ValueError(f"need 0 <= t_prev < t <= T, got t={t}, t_prev={t_prev}")
        if not 0.0 <= eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {eta}")
        if eta == 0.0:
            return 0.0
        a, q = self.alpha_bar[t], self.alpha_bar[t_prev]
        return float(eta * np.sqrt((1.0 - q) / (1.0 - a)) * np.sqrt(1.0 - a / q))


def make_schedule(T: int) -> DiffusionSchedule:
    """T linear betas from BETA_START to BETA_END; alpha_bar by cumulative product."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    beta = np.linspace(BETA_START, BETA_END, T)
    return DiffusionSchedule(alpha_bar=np.concatenate([[1.0], np.cumprod(1.0 - beta)]))


def uniform_steps(T: int, n: int) -> list:
    """Uniformly spaced sampling subsequence: n jumps from T down to 0."""
    if not 1 <= n <= T:
        raise ValueError(f"need 1 <= n <= T, got n={n}, T={T}")
    seq = sorted({int(round(v)) for v in np.linspace(T, 0, n + 1)}, reverse=True)
    return seq


def thread_count() -> int:
    """The process's thread budget: ``REFAUDIT_THREADS`` if set, else the
    CPU count up to 8. The cohort pool of the CLI and the stage-2 slab
    workers of ``cascade_reface`` share it."""
    cap = os.environ.get("REFAUDIT_THREADS")
    if cap:
        try:
            return max(1, int(cap))
        except ValueError:
            raise ValueError(f"REFAUDIT_THREADS must be an integer, got {cap!r}") from None
    return min(os.cpu_count() or 1, 8)


def _require_chain(x) -> None:
    if not isinstance(x, np.ndarray) or x.dtype != np.float64:
        raise ValueError(f"the chain must be a float64 array, got {getattr(x, 'dtype', type(x))}")


def ddim_step(x, t: int, t_prev: int, x0_pred, schedule: DiffusionSchedule,
              eta: float = 0.0, rng=None):
    """One x0-parameterized DDIM update from step t to t_prev, written into
    the chain ``x`` (a float64 array) and returned."""
    sigma = schedule.sigma(t, t_prev, eta)
    _require_chain(x)
    x0_pred = np.asarray(x0_pred, dtype=np.float64)
    if x0_pred.shape != x.shape:
        raise ValueError(f"x0_pred shape {x0_pred.shape} != x_t shape {x.shape}")
    if sigma > 0.0 and rng is None:
        raise ValueError("eta > 0 requires an rng")
    a = schedule.alpha_bar[t]
    q = schedule.alpha_bar[t_prev]
    c_x = math.sqrt(max(1.0 - q - sigma * sigma, 0.0)) / math.sqrt(1.0 - a)
    c_0 = math.sqrt(q) - c_x * math.sqrt(a)
    # x0_pred may be a view of x: read it first. The noise fills tmp in
    # memory order, so tmp is C-ordered whatever x0_pred is
    tmp = np.multiply(c_0, x0_pred, order="C")
    x *= c_x
    x += tmp
    if sigma > 0.0:
        rng.standard_normal(out=tmp)
        tmp *= sigma
        x += tmp
    return x


def sample(denoiser: Denoiser, condition, schedule: DiffusionSchedule, steps, x,
           eta: float = 0.0, rng=None) -> np.ndarray:
    """Run the DDIM chain along ``steps`` (strictly decreasing, ending at the
    data end 0) from the start state ``x``, a float64 array that every step
    updates in place, and return ``x``.

    So the ``x_t`` a denoiser is called with changes after the call returns:
    a denoiser must not keep it, or a view of it, past its call."""
    steps = [int(s) for s in steps]
    if len(steps) < 2:
        raise ValueError("step subsequence must contain at least one jump")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"step subsequence must be strictly decreasing: {steps}")
    if steps[-1] != 0:
        raise ValueError(f"step subsequence must end at the data end (0): {steps}")
    if steps[0] > schedule.num_steps:
        raise ValueError(f"first step {steps[0]} exceeds schedule T={schedule.num_steps}")
    _require_chain(x)
    # a huge eta can overflow the chain; the finiteness check below reports it
    # once, and errstate is thread-local, so it is set here, not by callers
    with np.errstate(over="ignore", invalid="ignore"):
        for t, t_prev in zip(steps[:-1], steps[1:]):
            ddim_step(x, t, t_prev, denoiser(x, t, condition), schedule, eta=eta, rng=rng)
    if not np.isfinite(x).all():
        raise ValueError(f"the DDIM chain at eta={eta} ended in non-finite values")
    return x


# ---------------------------------------------------------------------------
# Slab tiling and merging for the 2.5D stage


@dataclass(frozen=True)
class SlabSpec:
    """Axial slab geometry of the super-resolution stage."""

    size: int = 8
    overlap: int = 4

    def __post_init__(self):
        if not 0 < self.overlap < self.size:
            raise ValueError(f"need 0 < overlap < size, got {self}")


def stage2_slabs(nz: int, spec: SlabSpec = SlabSpec()) -> list:
    """Half-open slab ranges tiling [0, nz) in order: starts at multiples of
    size - overlap and, if the last of those does not end at nz, a slab
    clamped to end there. The clamped slab replaces the last regular one
    when it would overlap the slab before that one.

    Every slab overlaps its neighbours and no slice lies under three slabs;
    a geometry that cannot tile so (any 2 * overlap > size, and some clamped
    tails) raises.
    """
    size = spec.size
    if nz < size:
        raise ValueError(f"nz={nz} smaller than slab size {size}")
    starts = list(range(0, nz - size + 1, size - spec.overlap))
    clamped = nz - size
    if starts[-1] != clamped:
        if len(starts) >= 2 and clamped < starts[-2] + size:
            starts.pop()
        starts.append(clamped)
    for i in range(2, len(starts)):
        if starts[i] < starts[i - 2] + size:
            raise ValueError(f"slab size {size} with overlap {spec.overlap} puts a slice under "
                             f"three slabs of nz={nz}")
    return [(s, s + size) for s in starts]


def merge_slabs(slabs, nz: int, spec: SlabSpec = SlabSpec()) -> np.ndarray:
    """Merge the slabs of the ``stage2_slabs(nz, spec)`` tiling, one per
    range in tiling order, into a full array spanning [0, nz).

    Within a k-slice overlap the incoming slab ramps with weights
    1/(k+1) ... k/(k+1) while the outgoing slab carries the complement, so
    every slice's weights sum to 1; non-overlap slices are copied.

    A slab given as ``None`` adds nothing; the weights still come from the
    full tiling, so only the slices that ``None`` slabs do not cover hold
    their merged value.
    """
    ranges = stage2_slabs(nz, spec)
    slabs = [None if s is None else np.asarray(s, dtype=np.float64) for s in slabs]
    given = [s for s in slabs if s is not None]
    if len(slabs) != len(ranges) or not given:
        raise ValueError(f"need one slab per range of the {len(ranges)}-slab tiling, with at "
                         f"least one slab given; got {len(slabs)}, {len(given)} given")
    lead = given[0].shape[:-1]
    for s, (z0, z1) in zip(slabs, ranges):
        if s is not None and (s.shape[:-1] != lead or s.shape[-1] != z1 - z0):
            raise ValueError(f"slab shape {s.shape} inconsistent with range ({z0}, {z1})")

    out = np.zeros(lead + (nz,), dtype=np.float64)
    for i, (s, (z0, z1)) in enumerate(zip(slabs, ranges)):
        if s is None:
            continue
        w = np.ones(z1 - z0)
        if i > 0:
            k = ranges[i - 1][1] - z0
            w[:k] = np.arange(1, k + 1) / (k + 1)
        if i < len(ranges) - 1:
            k = z1 - ranges[i + 1][0]
            w[-k:] = np.arange(k, 0, -1) / (k + 1)
        out[..., z0:z1] += s * w
    return out


# ---------------------------------------------------------------------------
# Two-stage cascade


@dataclass(frozen=True)
class CascadeConfig:
    """Sampler configuration; serializes into every run manifest."""

    sample_steps: int = 50
    eta: float = 0.0
    downsample_factor: tuple = (2, 2, 2)
    slab: SlabSpec = field(default_factory=SlabSpec)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not 1 <= self.sample_steps <= T_STEPS:
            raise ValueError(f"need 1 <= sample_steps <= t_steps, got "
                             f"sample_steps={self.sample_steps}, t_steps={T_STEPS}")
        try:  # tuple() of one integer raises: one value per axis, not one for all
            factor = integer_factors(tuple(self.downsample_factor))
        except (TypeError, ValueError):
            raise ValueError("downsample factors must be positive integers, one per axis, "
                             f"got {self.downsample_factor!r}") from None
        object.__setattr__(self, "downsample_factor", factor)

    def to_json_dict(self) -> dict:
        return {"t_steps": T_STEPS, "beta_start": BETA_START, "beta_end": BETA_END,
                **asdict(self), "downsample_factor": list(self.downsample_factor)}


def _stage_rng(seed: int, stage: int, index: int = 0):
    """The noise stream of one chain: stage 1 (``stage=0``) or stage-2 slab
    ``index`` (``stage=1``). Its three-int spawn key cannot equal a bootstrap
    key (two ints) or a cohort key (one int), so a demo's noise never
    repeats its resamples."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stage, index, 0)))


def cascade_reface(
    defaced: Volume3D,
    removed: BinaryMask,
    stage1: Denoiser,
    stage2: Denoiser,
    config: CascadeConfig = CascadeConfig(),
    slab_workers: int | None = None,
) -> Volume3D:
    """Two-stage refacing: a 3D low-resolution imputation pass conditioned on
    the downsampled defaced image, then slab-wise super-resolution
    conditioned on the defaced image and the upsampled stage-1 output.

    Each denoiser is called as ``denoiser(x_t, t, condition)`` with a dict
    condition. Stage 1 gets ``{"defaced_lowres": Volume3D}``, the downsampled
    defaced image. Each stage-2 slab gets ``{"defaced", "upsampled",
    "slab_range"}``: the defaced image's and the cropped stage-1 upsample's
    ``[:, :, z0:z1]`` arrays, shaped like x_t, and the slab's ``(z0, z1)``.
    Stage 1 is upsampled only on the slices from the first to the last
    sampled slab, which equal those slices of the full upsample bit for bit.

    Denoisers must be pure functions of ``(x_t, t, condition)``. The final
    composite preserves observed voxels: generated content replaces the input
    only inside ``removed``. So a slab that covers no slice of ``removed`` is
    never read and is not sampled, and an empty ``removed`` returns a copy of
    ``defaced`` before any sampling. Slab i of the full ``stage2_slabs``
    tiling draws from its own RNG stream (seed, 1, i) whichever slabs are
    sampled, so the merged result is invariant to slab completion order and
    every sampled chain is the one a full pass would draw.

    The sampled slabs' chains run on ``slab_workers`` threads (default
    ``thread_count()``, and never more than there are sampled slabs), so
    ``stage2`` is called concurrently from several threads and must be
    thread-safe; a pure function is. The output is bitwise the same for any
    worker count. A caller that already runs cascades in parallel passes
    its share of the thread budget.
    """
    require_same_geometry(defaced, removed, "defaced volume and removed mask")
    if slab_workers is not None and slab_workers < 1:
        raise ValueError(f"slab_workers must be >= 1, got {slab_workers}")
    schedule = make_schedule(T_STEPS)
    steps = uniform_steps(T_STEPS, config.sample_steps)
    ranges = stage2_slabs(defaced.dims[2], config.slab)
    touched = removed.data.any(axis=(0, 1))
    sampled = [i for i, (z0, z1) in enumerate(ranges) if touched[z0:z1].any()]
    if not sampled:
        return defaced.with_data(defaced.data.copy())

    low = downsample(defaced, config.downsample_factor)
    rng = _stage_rng(config.seed, 0)
    x_low = sample(stage1, {"defaced_lowres": low}, schedule, steps,
                   rng.standard_normal(low.dims), eta=config.eta, rng=rng)
    zlo, zhi = ranges[sampled[0]][0], ranges[sampled[-1]][1]
    up = upsample_trilinear(low.with_data(x_low), config.downsample_factor, (zlo, zhi))
    up_data = up.data[: defaced.dims[0], : defaced.dims[1]]

    # the chains are allocated here, not in the workers: memory a worker
    # thread allocates comes from its own malloc arena, which raises peak RSS
    slab_out = [None] * len(ranges)
    for i in sampled:
        z0, z1 = ranges[i]
        slab_out[i] = np.empty((defaced.dims[0], defaced.dims[1], z1 - z0))

    def run_slab(i):
        z0, z1 = ranges[i]
        cond2 = {
            "defaced": defaced.data[:, :, z0:z1],
            "upsampled": up_data[:, :, z0 - zlo : z1 - zlo],
            "slab_range": (z0, z1),
        }
        rng = _stage_rng(config.seed, 1, i)
        sample(stage2, cond2, schedule, steps, rng.standard_normal(out=slab_out[i]),
               eta=config.eta, rng=rng)

    workers = min(thread_count() if slab_workers is None else slab_workers, len(sampled))
    if workers == 1:
        for i in sampled:
            run_slab(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_slab, sampled))  # reading every result re-raises a failure
    # free the stage-1 upsample before the merge and the chains after it,
    # and composite in the merge buffer, so no second whole-grid array is made
    del up, up_data
    merged = merge_slabs(slab_out, defaced.dims[2], config.slab)
    del slab_out
    np.copyto(merged, defaced.data, where=~removed.data)
    return defaced.with_data(merged)
