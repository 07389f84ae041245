import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from refaudit.ddim import (
    CascadeConfig,
    SlabSpec,
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
from refaudit.errors import ScheduleError
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

    def test_sigma_bounded_by_target_noise(self):
        sched = make_schedule(200)
        for t, p in ((200, 150), (150, 60), (60, 1)):
            sigma = sched.sigma(t, p, 1.0)
            assert sigma**2 <= 1.0 - sched.alpha_bar[p] + 1e-15


@dataclass
class _RiggedSchedule:
    alpha_bar: np.ndarray

    def sigma(self, t, t_prev, eta):
        return 0.0


class TestDdimStep:
    def test_data_end_returns_prediction_exactly(self, rng):
        sched = make_schedule(100)
        x_t = rng.standard_normal((7,))
        x0 = rng.standard_normal((7,))
        out = ddim_step(x_t, 5, 0, x0, sched, eta=0.0)
        assert np.array_equal(out, x0)

    def test_matches_independent_formula_evaluation(self, rng):
        sched = make_schedule(500)
        x_t = rng.standard_normal((100,))
        x0 = rng.standard_normal((100,))
        t, p = 300, 120
        got = ddim_step(x_t, t, p, x0, sched, eta=0.0)
        a, q = sched.alpha_bar[t], sched.alpha_bar[p]
        eps = (x_t - math.sqrt(a) * x0) / math.sqrt(1 - a)
        want = math.sqrt(q) * x0 + math.sqrt(1 - q) * eps
        assert np.allclose(got, want, atol=1e-12)

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

    def test_alpha_bar_one_above_data_end_is_schedule_error(self, rng):
        rigged = _RiggedSchedule(alpha_bar=np.array([1.0, 1.0, 0.5]))
        with pytest.raises(ScheduleError):
            ddim_step(np.zeros(3), 1, 0, np.zeros(3), rigged)

    def test_step_order_validation(self):
        sched = make_schedule(10)
        with pytest.raises(ValueError):
            ddim_step(np.zeros(2), 3, 3, np.zeros(2), sched)

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
        spec = SlabSpec()
        for nz in range(8, 301):
            ranges = stage2_slabs(nz, spec)
            counts = np.zeros(nz, dtype=int)
            for z0, z1 in ranges:
                assert 0 <= z0 < z1 <= nz and z1 - z0 == spec.size
                counts[z0:z1] += 1
            assert (counts >= 1).all()
            assert counts.max() <= 2

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
        ranges = stage2_slabs(nz)
        return [fill(z0, z1) for z0, z1 in ranges], ranges

    def test_constant_slabs_merge_to_constant(self):
        slabs, ranges = self.slabs_for(20, lambda a, b: np.full((3, 3, b - a), 4.5))
        out = merge_slabs(slabs, ranges)
        assert np.allclose(out, 4.5)

    def test_global_linear_field_is_reproduced_exactly(self):
        nz = 26
        field = np.arange(nz, dtype=float) * 0.7 - 3.0
        slabs, ranges = self.slabs_for(nz, lambda a, b: np.broadcast_to(field[a:b], (2, 2, b - a)).copy())
        out = merge_slabs(slabs, ranges)
        assert np.allclose(out, np.broadcast_to(field, (2, 2, nz)), atol=1e-12)

    def test_constant_offset_ramps_through_overlap(self):
        # two slabs [0,8) and [4,12): values 0 and delta; the merged profile
        # must follow the 1/(k+1)..k/(k+1) cross-fade weights
        delta = 10.0
        slabs = [np.zeros((1, 1, 8)), np.full((1, 1, 8), delta)]
        ranges = [(0, 4 + 4), (4, 12)]
        out = merge_slabs(slabs, ranges)[0, 0]
        want = np.array([0, 0, 0, 0, delta / 5, 2 * delta / 5, 3 * delta / 5,
                         4 * delta / 5, delta, delta, delta, delta])
        assert np.allclose(out, want, atol=1e-12)

    def test_order_independence(self, rng):
        nz = 30
        ranges = stage2_slabs(nz)
        slabs = [rng.standard_normal((4, 4, z1 - z0)) for z0, z1 in ranges]
        base = merge_slabs(slabs, ranges)
        perm = rng.permutation(len(slabs))
        shuffled = merge_slabs([slabs[i] for i in perm], [ranges[i] for i in perm])
        assert np.array_equal(base, shuffled)

    def test_inconsistent_geometry_raises(self):
        with pytest.raises(ValueError):
            merge_slabs([np.zeros((2, 2, 8)), np.zeros((3, 2, 8))], [(0, 8), (4, 12)])


class TestCascade:
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
        out = cascade_reface(vol, removed, lambda x, t, c: c["defaced_lowres"].data,
                             lambda x, t, c: c["upsampled"], config)
        assert np.array_equal(out.data, vol.data)

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
        ranges = stage2_slabs(defaced.dims[2], config.slab)
        assert slab_ranges == [r for r in ranges for _ in range(2)]

    def test_oracle_denoisers_close_the_loop(self, small_phantom, small_head):
        from refaudit.surface import face_distance_report

        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        config = CascadeConfig(sample_steps=10, seed=1)
        out = cascade_reface(defaced, removed,
                             VolumeDenoiser(downsample(vol, config.downsample_factor)),
                             VolumeDenoiser(vol), config)
        assert np.allclose(out.data, vol.data, atol=1e-9)
        assert face_distance_report(vol, {"refaced": out})["refaced"] == pytest.approx(0.0, abs=1e-9)

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

    def test_matches_per_voxel_reflection_rule(self, rng):
        """Each removed voxel takes the value at its reflection through its
        nearest observed voxel, or that voxel's value when the reflection is
        out of bounds or removed; checked voxel by voxel, with both fallbacks
        reached by removed regions that touch the border."""
        shape, spacing = (9, 10, 11), (1.0, 2.0, 1.5)
        vol = Volume3D(data=rng.standard_normal(shape), spacing=spacing,
                       affine=np.diag([*spacing, 1.0]))
        gx, gy, _ = np.indices(shape)
        branches = {"mirrored": 0, "out of bounds": 0, "removed": 0}
        for gone in (rng.random(shape) < 0.5, gx + 2 * gy > 12, gy < 3):
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
