import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from refaudit.ddim import (
    CascadeConfig,
    DiffusionSchedule,
    SlabSpec,
    _stage_rng,
    cascade_reface,
    ddim_step,
    make_schedule,
    merge_slabs,
    sample,
    stage2_slabs,
    uniform_steps,
)
from refaudit.denoisers import (
    DiracDenoiser,
    GaussianPosteriorDenoiser,
    VolumeDenoiser,
    mirror_fill,
)
from refaudit.deface import quickshear
from refaudit.volume import BinaryMask, Volume3D, downsample, upsample_trilinear


class TestSchedule:
    def test_single_step(self):
        sched = make_schedule(1, 0.5, 0.5)
        assert sched.alpha_bar.tolist() == [1.0, 0.5]

    def test_alpha_bar_strictly_decreasing_in_unit_interval(self):
        sched = make_schedule(100, 1e-3, 0.05)
        assert (np.diff(sched.alpha_bar) < 0).all()
        assert (sched.alpha_bar[1:] > 0).all() and (sched.alpha_bar[1:] < 1).all()

    def test_matches_running_product_recomputation(self):
        sched = make_schedule(1000, 1e-4, 0.02)
        acc = 1.0
        for t in range(1000):
            acc *= 1.0 - (1e-4 + (0.02 - 1e-4) * t / 999)
        assert sched.alpha_bar[-1] == pytest.approx(acc, rel=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            make_schedule(0)
        with pytest.raises(ValueError):
            make_schedule(10, 0.0, 0.02)
        with pytest.raises(ValueError):
            make_schedule(10, 0.03, 0.02)
        with pytest.raises(ValueError):
            make_schedule(10, 0.01, 1.0)

    def test_sigma_zero_when_eta_zero_and_at_data_end(self):
        sched = make_schedule(100)
        assert sched.sigma(50, 20, 0.0) == 0.0
        assert sched.sigma(20, 0, 1.0) == 0.0

    @pytest.mark.parametrize("eta", [-1.0, math.nan, math.inf])
    def test_sigma_rejects_negative_or_non_finite_eta(self, eta):
        with pytest.raises(ValueError, match="eta must be finite and >= 0"):
            make_schedule(100).sigma(50, 20, eta)

    @pytest.mark.parametrize("alpha_bar", [
        [0.9, 0.5, 0.1],
        [1.0, 0.5, 0.5, 0.1],
        [1.0, 0.5, 0.0],
        [1.0, 0.5, -0.1],
        [1.0],
        [1.0, math.nan, 0.1],
        [1.0, 0.5, -math.inf],
    ], ids=["first-not-1", "flat-step", "last-zero", "last-negative", "no-step", "nan",
            "minus-inf"])
    def test_rejects_invalid_alpha_bar(self, alpha_bar):
        with pytest.raises(ValueError, match="alpha_bar must"):
            DiffusionSchedule(alpha_bar=np.array(alpha_bar))

    def test_sigma_bounded_by_target_noise(self):
        sched = make_schedule(200)
        for t, p in ((200, 150), (150, 60), (60, 1)):
            sigma = sched.sigma(t, p, 1.0)
            assert sigma**2 <= 1.0 - sched.alpha_bar[p] + 1e-15


class TestDdimStep:
    def test_data_end_returns_prediction_exactly(self, rng):
        sched = make_schedule(100)
        x_t = rng.standard_normal((7,))
        x0 = rng.standard_normal((7,))
        out = ddim_step(x_t, 5, 0, x0, sched, eta=0.0)
        assert out.tobytes() == x0.tobytes()
        # sigma is 0 at the data end, so eta=1 draws no noise either
        g = np.random.default_rng(8)
        out = ddim_step(x_t, 5, 0, x0, sched, eta=1.0, rng=g)
        assert out.tobytes() == x0.tobytes()
        assert g.bit_generator.state == np.random.default_rng(8).bit_generator.state

    def test_matches_independent_formula_evaluation(self, rng):
        # the textbook eps form of the update, over jumps from the noise end
        # to the data end and over eta
        sched = make_schedule(500)
        x_t = rng.standard_normal((100,))
        x0 = rng.standard_normal((100,))
        jumps = [(500, 499), (500, 250), (300, 120), (120, 1), (2, 1), (1, 0), (500, 0)]
        for eta in (0.0, 0.5, 1.0):
            for t, p in jumps:
                got = ddim_step(x_t, t, p, x0, sched, eta=eta, rng=np.random.default_rng(t))
                a, q = sched.alpha_bar[t], sched.alpha_bar[p]
                sigma = eta * math.sqrt((1 - q) / (1 - a)) * math.sqrt(1 - a / q)
                eps = (x_t - math.sqrt(a) * x0) / math.sqrt(1 - a)
                z = np.random.default_rng(t).standard_normal((100,)) if sigma > 0 else 0.0
                want = math.sqrt(q) * x0 + math.sqrt(max(1 - q - sigma**2, 0.0)) * eps + sigma * z
                assert np.allclose(got, want, rtol=0.0, atol=1e-12), (eta, t, p)

    def test_eta_noise_term_matches_formula(self, rng):
        sched = make_schedule(500)
        x_t = rng.standard_normal((50,))
        x0 = rng.standard_normal((50,))
        t, p, eta = 400, 200, 0.7
        rng_a = np.random.default_rng(99)
        got = ddim_step(x_t, t, p, x0, sched, eta=eta, rng=rng_a)
        a, q = sched.alpha_bar[t], sched.alpha_bar[p]
        sigma = eta * math.sqrt((1 - q) / (1 - a)) * math.sqrt(1 - a / q)
        eps = (x_t - math.sqrt(a) * x0) / math.sqrt(1 - a)
        z = np.random.default_rng(99).standard_normal((50,))
        want = math.sqrt(q) * x0 + math.sqrt(1 - q - sigma**2) * eps + sigma * z
        assert np.allclose(got, want, atol=1e-12)

    def test_step_order_validation(self):
        sched = make_schedule(10)
        with pytest.raises(ValueError):
            ddim_step(np.zeros(2), 3, 3, np.zeros(2), sched)
        with pytest.raises(ValueError, match="need 0 <= t_prev < t <= T, got t=11, t_prev=3"):
            ddim_step(np.zeros(2), 11, 3, np.zeros(2), sched)

    def test_shape_mismatch(self):
        sched = make_schedule(10)
        with pytest.raises(ValueError):
            ddim_step(np.zeros(2), 3, 1, np.zeros(3), sched)


class TestSample:
    def test_dirac_denoiser_returns_target_bitwise(self, rng):
        sched = make_schedule(1000)
        steps = uniform_steps(1000, 50)
        x_star = rng.standard_normal((16,))
        for seed in (0, 1, 12345):
            out = sample(DiracDenoiser(x_star), None, sched, steps, eta=0.0,
                         rng=np.random.default_rng(seed), shape=(16,))
            assert np.array_equal(out, x_star)
            out = sample(DiracDenoiser(x_star), None, sched, steps, eta=1.0,
                         rng=np.random.default_rng(seed), shape=(16,))
            assert np.array_equal(out, x_star)

    def test_eta_zero_is_bitwise_deterministic(self, rng):
        sched = make_schedule(200)
        steps = uniform_steps(200, 20)
        den = GaussianPosteriorDenoiser(1.0, 2.0, sched)
        a = sample(den, None, sched, steps, eta=0.0, rng=np.random.default_rng(5), shape=(32,))
        b = sample(den, None, sched, steps, eta=0.0, rng=np.random.default_rng(5), shape=(32,))
        assert np.array_equal(a, b)

    def test_gaussian_map_is_monotone_in_initial_noise(self):
        sched = make_schedule(1000)
        steps = uniform_steps(1000, 50)
        den = GaussianPosteriorDenoiser(3.0, 2.0, sched)
        grid = np.linspace(-4, 4, 41)
        out = sample(den, None, sched, steps, eta=0.0, x_init=grid)
        assert (np.diff(out) > 0).all()

    def test_affine_shift_equivariance(self):
        # shifting the data mean by c and the start by sqrt(abar_T) c shifts
        # the eta=0 trajectory output by exactly c
        sched = make_schedule(500)
        steps = uniform_steps(500, 25)
        c = 2.5
        x0 = np.linspace(-2, 2, 11)
        base = sample(GaussianPosteriorDenoiser(1.0, 1.5, sched), None, sched,
                      steps, eta=0.0, x_init=x0)
        shifted = sample(GaussianPosteriorDenoiser(1.0 + c, 1.5, sched), None, sched,
                         steps, eta=0.0, x_init=x0 + math.sqrt(sched.alpha_bar[500]) * c)
        assert np.allclose(shifted, base + c, atol=1e-9)

    def test_full_schedule_moment_check(self):
        # eta=1 over every schedule step reproduces N(mu, s^2) within 4 SE
        mu, s, n = 3.0, 2.0, 10_000
        sched = make_schedule(1000)
        steps = list(range(1000, -1, -1))
        den = GaussianPosteriorDenoiser(mu, s, sched)
        out = sample(den, None, sched, steps, eta=1.0,
                     rng=np.random.default_rng(77), shape=(n,))
        se_mean = s / math.sqrt(n)
        assert abs(out.mean() - mu) < 4 * se_mean
        se_var = s * s * math.sqrt(2.0 / (n - 1))
        assert abs(out.var(ddof=1) - s * s) < 4 * se_var

    def test_fifty_step_subsequence_has_known_variance_deficit(self):
        # Coarse eta=1 subsequences undershoot the data variance because the
        # DDIM noise scale assumes x0 is known exactly; the exact recursion
        # predicts the deficit, and sampling must match it.
        mu, s, n = 3.0, 2.0, 20_000
        sched = make_schedule(1000)
        steps = uniform_steps(1000, 50)
        den = GaussianPosteriorDenoiser(mu, s, sched)
        expected_sd = den.final_sd(steps, eta=1.0)
        assert expected_sd == pytest.approx(1.8854, abs=2e-3)

        out = sample(den, None, sched, steps, eta=1.0, rng=np.random.default_rng(3), shape=(n,))
        se_sd = expected_sd / math.sqrt(2 * (n - 1))
        assert abs(out.std(ddof=1) - expected_sd) < 4 * se_sd

    def test_deterministic_subsequence_matches_recursion(self):
        # eta=0 has no injected noise; the same recursion predicts the SD
        mu, s, n = 3.0, 2.0, 20_000
        sched = make_schedule(1000)
        steps = uniform_steps(1000, 50)
        den = GaussianPosteriorDenoiser(mu, s, sched)
        expected_sd = den.final_sd(steps, eta=0.0)
        out = sample(den, None, sched, steps, eta=0.0, rng=np.random.default_rng(4), shape=(n,))
        se_sd = expected_sd / math.sqrt(2 * (n - 1))
        assert abs(out.std(ddof=1) - expected_sd) < 4 * se_sd

    def test_moment_check_script_prints_the_recursion(self, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "sampler_moment_check.py"
        spec = importlib.util.spec_from_file_location("sampler_moment_check", script)
        check = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check)
        assert check.main(["--n", "200"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.split() and line.split()[0].isdigit()]
        exact = {(int(r[0]), float(r[1])): r[4] for r in rows}
        assert exact == {
            (25, 0.0): "nan", (25, 1.0): "1.7864",
            (50, 0.0): "nan", (50, 1.0): "1.8854",
            (100, 0.0): "nan", (100, 1.0): "1.9402",
            (250, 0.0): "nan", (250, 1.0): "1.9753",
            (1000, 0.0): "nan", (1000, 1.0): "1.9937",
        }

    def test_non_finite_chain_raises_naming_eta(self):
        # sigma ~ 1e308 overflows sigma * z wherever |z| > ~2; the data-end
        # step then multiplies inf by c_x = 0
        sched = make_schedule(1000)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=r"DDIM chain at eta=1e\+308 ended in non-finite"):
            sample(DiracDenoiser(np.zeros(1000)), None, sched, uniform_steps(1000, 2),
                   eta=1e308, rng=np.random.default_rng(0), shape=(1000,))

    def test_subsequence_validation(self, rng):
        sched = make_schedule(100)
        den = DiracDenoiser(np.zeros(2))
        g = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample(den, None, sched, [], rng=g, shape=(2,))
        with pytest.raises(ValueError):
            sample(den, None, sched, [50, 60, 0], rng=g, shape=(2,))
        with pytest.raises(ValueError):
            sample(den, None, sched, [50, 20], rng=g, shape=(2,))  # no data end
        with pytest.raises(ValueError):
            sample(den, None, sched, [200, 0], rng=g, shape=(2,))  # beyond T


class TestSlabs:
    def test_spec_examples(self):
        assert stage2_slabs(16) == [(0, 8), (4, 12), (8, 16)]
        assert stage2_slabs(10) == [(0, 8), (2, 10)]

    def test_coverage_and_multiplicity_for_all_sizes(self):
        # every geometry either raises or tiles [0, nz) with overlapping
        # neighbours and every slice under one or two slabs
        tiled = rejected = 0
        for size in range(2, 17):
            for overlap in range(1, size):
                spec = SlabSpec(size, overlap)
                for nz in range(size, 301):
                    try:
                        ranges = stage2_slabs(nz, spec)
                    except ValueError as exc:
                        assert "three slabs" in str(exc)
                        rejected += 1
                        continue
                    tiled += 1
                    assert ranges[0][0] == 0 and ranges[-1][1] == nz
                    assert all(z1 - z0 == size for z0, z1 in ranges)
                    assert all(a0 < b0 < a1 for (a0, a1), (b0, _) in zip(ranges, ranges[1:]))
                    counts = np.zeros(nz, dtype=int)
                    for z0, z1 in ranges:
                        counts[z0:z1] += 1
                    assert counts.min() >= 1 and counts.max() <= 2
        assert tiled and rejected

    def test_clamped_tail_replaces_the_last_regular_slab(self):
        assert stage2_slabs(128, SlabSpec(7, 2))[-3:] == [(110, 117), (115, 122), (121, 128)]
        assert stage2_slabs(128, SlabSpec(11, 5))[-2:] == [(108, 119), (117, 128)]
        with pytest.raises(ValueError, match="puts a slice under three slabs"):
            stage2_slabs(128, SlabSpec(8, 5))

    def test_too_small_volume_raises(self):
        with pytest.raises(ValueError):
            stage2_slabs(7)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SlabSpec(size=8, overlap=8)
        with pytest.raises(ValueError):
            SlabSpec(size=8, overlap=0)


class TestMergeSlabs:
    def slabs_for(self, nz, fill):
        return [fill(z0, z1) for z0, z1 in stage2_slabs(nz)]

    def test_constant_slabs_merge_to_constant(self):
        slabs = self.slabs_for(20, lambda a, b: np.full((3, 3, b - a), 4.5))
        out = merge_slabs(slabs, 20)
        assert np.allclose(out, 4.5)

    def test_global_linear_field_is_reproduced_exactly(self):
        nz = 26
        field = np.arange(nz, dtype=float) * 0.7 - 3.0
        slabs = self.slabs_for(nz, lambda a, b: np.broadcast_to(field[a:b], (2, 2, b - a)).copy())
        out = merge_slabs(slabs, nz)
        assert np.allclose(out, np.broadcast_to(field, (2, 2, nz)), atol=1e-12)

    def test_constant_offset_ramps_through_overlap(self):
        # two slabs [0,8) and [4,12): values 0 and delta; the merged profile
        # must follow the 1/(k+1)..k/(k+1) cross-fade weights
        delta = 10.0
        slabs = [np.zeros((1, 1, 8)), np.full((1, 1, 8), delta)]
        assert stage2_slabs(12) == [(0, 8), (4, 12)]
        out = merge_slabs(slabs, 12)[0, 0]
        want = np.array([0, 0, 0, 0, delta / 5, 2 * delta / 5, 3 * delta / 5,
                         4 * delta / 5, delta, delta, delta, delta])
        assert np.allclose(out, want, atol=1e-12)

    def test_inconsistent_geometry_raises(self):
        with pytest.raises(ValueError):
            merge_slabs([np.zeros((2, 2, 8)), np.zeros((3, 2, 8))], 12)

    def test_none_slab_adds_nothing(self, rng):
        # slices that no None slab covers get the full merge bitwise; slices
        # that only None slabs cover stay 0
        nz = 30
        ranges = stage2_slabs(nz)
        slabs = [rng.standard_normal((4, 4, z1 - z0)) for z0, z1 in ranges]
        kept = [s if i in (1, 2, 5) else None for i, s in enumerate(slabs)]
        given_cover, none_cover = np.zeros(nz, bool), np.zeros(nz, bool)
        for s, (z0, z1) in zip(kept, ranges):
            (none_cover if s is None else given_cover)[z0:z1] = True
        exact = given_cover & ~none_cover
        assert exact.any() and (given_cover & none_cover).any() and (~given_cover).any()
        full, partial = merge_slabs(slabs, nz), merge_slabs(kept, nz)
        assert partial[..., exact].tobytes() == full[..., exact].tobytes()
        assert (partial[..., ~given_cover] == 0).all()

    def test_none_slabs_keep_the_checks_on_the_given_ones(self):
        with pytest.raises(ValueError, match="at least one slab given"):
            merge_slabs([None, None], 12)
        with pytest.raises(ValueError, match="inconsistent with range"):
            merge_slabs([np.zeros((2, 2, 8)), None, np.zeros((3, 2, 8))], 16)
        with pytest.raises(ValueError, match="one slab per range of the 3-slab tiling"):
            merge_slabs([None, np.zeros((2, 2, 8))], 16)


def full_tiling_cascade(defaced, removed, stage1, stage2, config):
    """The cascade as one chain per slab of the whole tiling, each slab i on
    its (seed, 1, i) stream, merged and composited inside ``removed``."""
    schedule = make_schedule(config.t_steps, config.beta_start, config.beta_end)
    steps = uniform_steps(config.t_steps, config.sample_steps)
    low = downsample(defaced, config.downsample_factor)
    x_low = sample(stage1, {"defaced_lowres": low}, schedule, steps, eta=config.eta,
                   rng=_stage_rng(config.seed, 0), shape=low.dims)
    nx, ny, nz = defaced.dims
    up = upsample_trilinear(low.with_data(x_low), config.downsample_factor).data[:nx, :ny, :nz]
    ranges = stage2_slabs(nz, config.slab)
    slabs = [sample(stage2, {"defaced": defaced.data[:, :, z0:z1], "upsampled": up[:, :, z0:z1],
                             "slab_range": (z0, z1)},
                    schedule, steps, eta=config.eta, rng=_stage_rng(config.seed, 1, i),
                    shape=(nx, ny, z1 - z0))
             for i, (z0, z1) in enumerate(ranges)]
    return np.where(removed.data, merge_slabs(slabs, nz, config.slab), defaced.data)


def ranges_meeting(gone, spec):
    """The slab ranges that cover a slice holding a voxel of ``gone``."""
    zs = np.flatnonzero(gone.any(axis=(0, 1)))
    return [(z0, z1) for z0, z1 in stage2_slabs(gone.shape[2], spec)
            if ((zs >= z0) & (zs < z1)).any()]


@st.composite
def slab_cases(draw):
    """A slab geometry, a volume tall enough for a gap wider than one slab,
    and a removed mask: a voxel in slice 0 and one in slice nz - 1, a single
    voxel in a slice two slabs cover, two blocks more than one slab apart,
    or nothing."""
    spec = draw(st.sampled_from([SlabSpec(), SlabSpec(6, 3), SlabSpec(4, 2), SlabSpec(7, 2),
                                 SlabSpec(11, 5)]))
    nx, ny, nz = 4, 6, draw(st.integers(3 * spec.size, 5 * spec.size))
    removed = np.zeros((nx, ny, nz), bool)

    def voxel(z):
        removed[draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1)), z] = True

    kind = draw(st.sampled_from(["ends", "overlap voxel", "two blocks", "empty"]))
    if kind == "ends":
        voxel(0)
        voxel(nz - 1)
    elif kind == "overlap voxel":
        counts = np.zeros(nz, int)
        for z0, z1 in stage2_slabs(nz, spec):
            counts[z0:z1] += 1
        voxel(draw(st.sampled_from(np.flatnonzero(counts == 2).tolist())))
    elif kind == "two blocks":
        gap = draw(st.integers(spec.size + 1, nz - 2))
        a = draw(st.integers(0, nz - gap - 2))
        b = draw(st.integers(a + 1, nz - gap - 1))
        c = draw(st.integers(b + gap + 1, nz))
        x0, y0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        removed[x0:, y0:, a:b] = True
        removed[:x0 + 1, :y0 + 1, b + gap:c] = True
    return spec, removed


class TestCascade:
    @given(case=slab_cases(), eta=st.sampled_from([0.0, 1.0]),
           steps=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=100)
    def test_equals_the_full_tiling_bitwise(self, case, eta, steps, seed):
        # predictions depend on x_t, so a slab on another noise stream, a
        # skipped slab that is read or a changed merge order would show
        spec, gone = case
        data = np.random.default_rng(seed).standard_normal(gone.shape)
        defaced = Volume3D(data=np.where(gone, 0.0, data), spacing=(1.0, 1.0, 1.0),
                           affine=np.eye(4))
        removed = BinaryMask.like(defaced, gone)
        config = CascadeConfig(sample_steps=steps, eta=eta, slab=spec, seed=seed)
        sampled = []

        def stage1(x, t, c):
            return c["defaced_lowres"].data + 0.05 * np.tanh(x)

        def stage2(x, t, c):
            sampled.append(c["slab_range"])
            return c["upsampled"] + 0.05 * np.tanh(x)

        out = cascade_reface(defaced, removed, stage1, stage2, config)
        assert sampled == [r for r in ranges_meeting(gone, spec) for _ in range(steps)]
        want = full_tiling_cascade(defaced, removed, stage1, stage2, config)
        assert out.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("factor", [(1, 1, 1), (2, 2, 2)])
    def test_stage2_reads_the_full_upsample_slices(self, small_phantom, small_head, factor):
        # the first sampled slab starts above slice 0, so a condition taken
        # from the cropped upsample at the wrong offset would show
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        config = CascadeConfig(sample_steps=3, seed=5, downsample_factor=factor)
        assert ranges_meeting(removed.data, config.slab)[0][0] > 0

        def stage1(x, t, c):
            return c["defaced_lowres"].data + 0.05 * np.tanh(x)

        def stage2(x, t, c):
            return c["upsampled"] + 0.05 * np.tanh(x)

        out = cascade_reface(defaced, removed, stage1, stage2, config)
        want = full_tiling_cascade(defaced, removed, stage1, stage2, config)
        assert out.data.tobytes() == want.tobytes()

    def test_identity_stubs_give_upsampled_stage1_inside_removed(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        config = CascadeConfig(sample_steps=10, seed=4)
        out = cascade_reface(defaced, removed, lambda x, t, c: c["defaced_lowres"].data,
                             lambda x, t, c: c["upsampled"], config)
        outside = ~removed.data
        assert np.array_equal(out.data[outside], defaced.data[outside])
        up = upsample_trilinear(downsample(defaced, 2), 2)
        assert np.allclose(out.data[removed.data], up.data[removed.data], atol=1e-12)

    def test_empty_removed_returns_defaced_exactly(self, small_phantom):
        vol, brain, _ = small_phantom
        removed = brain.with_data(np.zeros(vol.dims, bool))
        config = CascadeConfig(sample_steps=5, seed=0)

        def never(x_t, t, condition):
            raise AssertionError("a denoiser ran for an empty removed mask")

        out = cascade_reface(vol, removed, never, never, config)
        assert np.array_equal(out.data, vol.data)
        assert out.data is not vol.data

    def test_denoisers_see_only_the_documented_condition(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        calls = {1: [], 2: []}

        def recorder(stage):
            def denoise(x_t, t, condition):
                calls[stage].append((np.shape(x_t), {
                    k: v if k == "slab_range" else np.shape(v.data if isinstance(v, Volume3D) else v)
                    for k, v in condition.items()}))
                return np.zeros_like(x_t)
            return denoise

        config = CascadeConfig(sample_steps=2, seed=0)
        cascade_reface(defaced, removed, recorder(1), recorder(2), config)
        assert len(calls[1]) == 2
        for shape, seen in calls[1]:
            assert seen == {"defaced_lowres": shape}
        slab_ranges = [seen.pop("slab_range") for _, seen in calls[2]]
        for shape, seen in calls[2]:
            assert seen == {"defaced": shape, "upsampled": shape}
        # exactly the slabs that cover a slice holding a removed voxel, in
        # tiling order, each for both steps
        meeting = ranges_meeting(removed.data, config.slab)
        assert 0 < len(meeting) < len(stage2_slabs(defaced.dims[2], config.slab))
        assert slab_ranges == [r for r in meeting for _ in range(2)]

    def test_oracle_denoisers_close_the_loop(self, small_phantom, small_head):
        from refaudit.surface import face_distance_report

        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        config = CascadeConfig(sample_steps=10, seed=1)
        out = cascade_reface(defaced, removed,
                             VolumeDenoiser(downsample(vol, config.downsample_factor)),
                             VolumeDenoiser(vol), config)
        assert np.allclose(out.data, vol.data, atol=1e-9)
        distance = face_distance_report(vol, {"refaced": out}, head=small_head)["refaced"]
        assert distance == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_volume_denoisers_give_the_merged_volume_bitwise(self, small_phantom, small_head,
                                                             eta):
        # the last step returns the denoiser's x0 exactly, so a cascade whose
        # denoisers ignore x_t is the merged slabs of their volume inside
        # removed, however the intermediate steps are computed
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        filled = mirror_fill(defaced, removed)
        config = CascadeConfig(sample_steps=5, eta=eta, seed=6)
        out = cascade_reface(defaced, removed,
                             VolumeDenoiser(downsample(filled, config.downsample_factor)),
                             VolumeDenoiser(filled), config)
        nz = defaced.dims[2]
        merged = merge_slabs([filled.data[..., z0:z1] for z0, z1 in stage2_slabs(nz, config.slab)],
                             nz, config.slab)
        assert out.data.tobytes() == np.where(removed.data, merged, defaced.data).tobytes()

    def test_cascade_is_deterministic_given_seed(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        filled = mirror_fill(defaced, removed)
        config = CascadeConfig(sample_steps=8, seed=21)
        runs = [
            cascade_reface(defaced, removed,
                           VolumeDenoiser(downsample(filled, config.downsample_factor)),
                           VolumeDenoiser(filled), config)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].data, runs[1].data)

    def test_config_serializes_to_manifest_dict(self):
        config = CascadeConfig(seed=9)
        d = config.to_json_dict()
        assert d["t_steps"] == 1000 and d["sample_steps"] == 50
        assert d["downsample_factor"] == [2, 2, 2]
        assert d["slab"] == {"size": 8, "overlap": 4}
        assert d["seed"] == 9

    @pytest.mark.parametrize("kwargs, message", [
        ({"eta": -1.0}, "eta must be finite"),
        ({"eta": math.nan}, "eta must be finite"),
        ({"eta": math.inf}, "eta must be finite"),
        ({"sample_steps": 0}, "1 <= sample_steps <= t_steps"),
        ({"sample_steps": 1001}, "1 <= sample_steps <= t_steps"),
        ({"downsample_factor": (2, 0, 2)}, "downsample factors must be positive"),
    ])
    def test_config_rejects_bad_sampler_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            CascadeConfig(**kwargs)


class TestMirrorFill:
    def test_fill_only_touches_removed_region(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        filled = mirror_fill(defaced, removed)
        outside = ~removed.data
        assert np.array_equal(filled.data[outside], defaced.data[outside])
        assert (filled.data[removed.data] != 0).any()

    def test_empty_removed_is_identity(self, small_phantom):
        vol, brain, _ = small_phantom
        empty = brain.with_data(np.zeros(vol.dims, bool))
        assert mirror_fill(vol, empty) is vol

    @pytest.mark.parametrize("seed, shape, spacing", [
        (1234, (9, 10, 11), (1.0, 2.0, 1.5)),
        (5, (9, 10, 11), (1.0, 1.0, 1.0)),
        (6, (12, 8, 10), (2.0, 1.0, 1.0)),
        (7, (10, 13, 9), (0.5, 1.5, 3.0)),
        (8, (11, 11, 12), (1.0, 1.0, 2.0)),
    ], ids=["seed1234", "seed5-isotropic", "seed6", "seed7", "seed8"])
    def test_matches_per_voxel_reflection_rule(self, seed, shape, spacing):
        """Each removed voxel takes the value at its reflection through its
        nearest observed voxel, or that voxel's value when the reflection is
        out of bounds or removed; checked voxel by voxel, with both fallbacks
        reached by removed regions that touch the border. The nearest voxel
        comes from the feature transform of the whole grid, so a fill that
        transforms only the removed region's box must break distance ties
        the same way."""
        rng = np.random.default_rng(seed)
        vol = Volume3D(data=rng.standard_normal(shape), spacing=spacing,
                       affine=np.diag([*spacing, 1.0]))
        gx, gy, _ = np.indices(shape)
        interior = np.zeros(shape, bool)
        interior[2:-2, 3:-2, 2:-3] = True
        branches = {"mirrored": 0, "out of bounds": 0, "removed": 0}
        for gone in (rng.random(shape) < 0.5, gx + 2 * gy > 12, gy < 3,
                     interior & (rng.random(shape) < 0.7)):
            removed = BinaryMask.like(vol, gone)
            _, nearest = ndimage.distance_transform_edt(gone, sampling=spacing,
                                                        return_indices=True)
            observed = np.argwhere(~gone) * spacing
            expected = vol.data.copy()
            for p in zip(*np.nonzero(gone)):
                q = tuple(int(nearest[(axis, *p)]) for axis in range(3))
                assert not gone[q]
                nearest_mm = np.linalg.norm(observed - np.multiply(p, spacing), axis=1).min()
                assert np.linalg.norm(np.subtract(q, p) * spacing) == pytest.approx(nearest_mm)
                m = tuple(2 * qa - pa for qa, pa in zip(q, p))
                if not all(0 <= ma < n for ma, n in zip(m, shape)):
                    branches["out of bounds"] += 1
                    expected[p] = vol.data[q]
                elif gone[m]:
                    branches["removed"] += 1
                    expected[p] = vol.data[q]
                else:
                    branches["mirrored"] += 1
                    expected[p] = vol.data[m]
            np.testing.assert_array_equal(mirror_fill(vol, removed).data, expected)
        assert min(branches.values()) > 0, branches
