import importlib.util
import contextvars
import math
import os
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import refaudit.ddim as ddim
import refaudit.denoisers as denoisers
from refaudit.ddim import (
    BETA_START,
    T_STEPS,
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
from refaudit.denoisers import VolumeDenoiser, mirror_fill, reface
from refaudit.deface import quickshear
from refaudit.stats import bootstrap_indices
from refaudit.volume import BinaryMask, Volume3D, downsample, upsample_trilinear


def load_moment_check():
    """``scripts/sampler_moment_check.py`` imported as a module."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "sampler_moment_check.py"
    spec = importlib.util.spec_from_file_location("sampler_moment_check", script)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    return check


class TestSchedule:
    def test_single_step(self):
        sched = make_schedule(1)
        assert sched.alpha_bar.tolist() == [1.0, 1.0 - BETA_START]

    def test_alpha_bar_strictly_decreasing_in_unit_interval(self):
        sched = make_schedule(100)
        assert (np.diff(sched.alpha_bar) < 0).all()
        assert (sched.alpha_bar[1:] > 0).all() and (sched.alpha_bar[1:] < 1).all()

    def test_matches_running_product_recomputation(self):
        sched = make_schedule(1000)
        acc = 1.0
        for t in range(1000):
            acc *= 1.0 - (1e-4 + (0.02 - 1e-4) * t / 999)
        assert sched.alpha_bar[-1] == pytest.approx(acc, rel=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            make_schedule(0)

    def test_alpha_bar_built_from_a_view_does_not_change_through_its_base(self):
        base = make_schedule(10).alpha_bar.copy()
        sched = DiffusionSchedule(alpha_bar=base[:])
        base[1] = 0.9
        assert sched.alpha_bar[1] == 1.0 - BETA_START

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
        out = ddim_step(x_t.copy(), 5, 0, x0, sched, eta=0.0)
        assert out.tobytes() == x0.tobytes()
        # sigma is 0 at the data end, so eta=1 draws no noise either
        g = np.random.default_rng(8)
        out = ddim_step(x_t.copy(), 5, 0, x0, sched, eta=1.0, rng=g)
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
                got = ddim_step(x_t.copy(), t, p, x0, sched, eta=eta,
                                rng=np.random.default_rng(t))
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
        got = ddim_step(x_t.copy(), t, p, x0, sched, eta=eta, rng=rng_a)
        a, q = sched.alpha_bar[t], sched.alpha_bar[p]
        sigma = eta * math.sqrt((1 - q) / (1 - a)) * math.sqrt(1 - a / q)
        eps = (x_t - math.sqrt(a) * x0) / math.sqrt(1 - a)
        z = np.random.default_rng(99).standard_normal((50,))
        want = math.sqrt(q) * x0 + math.sqrt(1 - q - sigma**2) * eps + sigma * z
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    @pytest.mark.parametrize("pred", ["separate", "x_t itself", "view of x_t", "F-ordered"])
    def test_out_equals_the_allocating_path(self, eta, pred):
        # the step updates x in place, and the prediction may alias it,
        # reversed, so reading it after x changed would show; the reference
        # is a step taken on copies. An F-ordered prediction must not reorder
        # the noise
        sched = make_schedule(100)
        x_t = np.random.default_rng(3).standard_normal((6, 5))
        predict = {"separate": lambda x: np.cos(x_t), "x_t itself": lambda x: x,
                   "view of x_t": lambda x: x[::-1, ::-1],
                   "F-ordered": lambda x: np.asfortranarray(np.cos(x_t))}[pred]
        want = ddim_step(x_t.copy(), 60, 30, predict(x_t.copy()).copy(), sched, eta=eta,
                         rng=np.random.default_rng(9))
        x = x_t.copy()
        got = ddim_step(x, 60, 30, predict(x), sched, eta=eta, rng=np.random.default_rng(9))
        assert got is x
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(want, x_t)

    @pytest.mark.parametrize("x", [np.zeros(2, np.float32), np.zeros(2, int), [0.0, 0.0]],
                             ids=["float32", "int", "list"])
    def test_chain_must_be_float64(self, x):
        with pytest.raises(ValueError, match="the chain must be a float64 array"):
            ddim_step(x, 3, 1, np.zeros(2), make_schedule(10))

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


def from_noise(den, sched, steps, shape, seed, eta=0.0):
    """``sample`` from standard normal noise of ``shape``, drawn from the
    stream of ``seed`` that the chain's own noise then continues."""
    rng = np.random.default_rng(seed)
    return sample(den, None, sched, steps, rng.standard_normal(shape), eta=eta, rng=rng)


class TestSample:
    def test_dirac_denoiser_returns_target_bitwise(self, rng):
        sched = make_schedule(1000)
        steps = uniform_steps(1000, 50)
        x_star = rng.standard_normal((16,))
        for seed in (0, 1, 12345):
            for eta in (0.0, 1.0):
                out = from_noise(VolumeDenoiser(x_star), sched, steps, (16,), seed, eta)
                assert np.array_equal(out, x_star)

    def test_array_mean_runs_each_scalar_mean_chain_bitwise(self):
        sched = make_schedule(1000)
        steps = uniform_steps(1000, 50)
        mu, start = np.array([3.0, -1.25]), np.array([0.7, -2.1])
        both = sample(VolumeDenoiser(mu, 2.0, sched), None, sched, steps, start.copy())
        for i in range(2):
            one = sample(VolumeDenoiser(mu[i], 2.0, sched), None, sched, steps,
                         start[i : i + 1].copy())
            assert both[i : i + 1].tobytes() == one.tobytes()

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_in_place_chain_equals_the_allocating_loop(self, eta):
        # the loop that steps a new copy of the chain each time is the
        # reference; s > 0 makes every prediction read x_t
        sched = make_schedule(1000)
        steps = uniform_steps(1000, 20)
        den = VolumeDenoiser(1.5, 2.0, sched)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 3, 8))
        for t, t_prev in zip(steps[:-1], steps[1:]):
            x = ddim_step(x.copy(), t, t_prev, den(x, t, None), sched, eta=eta, rng=rng)
        rng = np.random.default_rng(11)
        chain = rng.standard_normal((4, 3, 8))
        got = sample(den, None, sched, steps, chain, eta=eta, rng=rng)
        assert got is chain
        assert got.tobytes() == x.tobytes()

    @pytest.mark.parametrize("x", [np.zeros(4, np.float32), np.zeros(4, int), [0.0] * 4],
                             ids=["float32", "int", "list"])
    def test_chain_must_be_float64(self, x):
        def never(x_t, t, condition):
            raise AssertionError("the denoiser ran on a chain that is not float64")

        with pytest.raises(ValueError, match="the chain must be a float64 array"):
            sample(never, None, make_schedule(100), [50, 0], x)

    def test_eta_zero_is_bitwise_deterministic(self, rng):
        sched = make_schedule(200)
        steps = uniform_steps(200, 20)
        den = VolumeDenoiser(1.0, 2.0, sched)
        a = from_noise(den, sched, steps, (32,), 5)
        b = from_noise(den, sched, steps, (32,), 5)
        assert np.array_equal(a, b)

    def test_gaussian_map_is_monotone_in_initial_noise(self):
        sched = make_schedule(1000)
        steps = uniform_steps(1000, 50)
        den = VolumeDenoiser(3.0, 2.0, sched)
        out = sample(den, None, sched, steps, np.linspace(-4, 4, 41))
        assert (np.diff(out) > 0).all()

    def test_affine_shift_equivariance(self):
        # shifting the data mean by c and the start by sqrt(abar_T) c shifts
        # the eta=0 trajectory output by exactly c
        sched = make_schedule(500)
        steps = uniform_steps(500, 25)
        c = 2.5
        x0 = np.linspace(-2, 2, 11)
        base = sample(VolumeDenoiser(1.0, 1.5, sched), None, sched, steps, x0.copy())
        shifted = sample(VolumeDenoiser(1.0 + c, 1.5, sched), None, sched, steps,
                         x0 + math.sqrt(sched.alpha_bar[500]) * c)
        assert np.allclose(shifted, base + c, atol=1e-9)

    def test_full_schedule_moment_check(self):
        # eta=1 over every schedule step reproduces N(mu, s^2) within 4 SE
        mu, s, n = 3.0, 2.0, 10_000
        sched = make_schedule(1000)
        steps = list(range(1000, -1, -1))
        out = from_noise(VolumeDenoiser(mu, s, sched), sched, steps, (n,), 77, eta=1.0)
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
        den = VolumeDenoiser(mu, s, sched)
        expected_sd = den.final_sd(steps, eta=1.0)
        assert expected_sd == pytest.approx(1.8854, abs=2e-3)

        out = from_noise(den, sched, steps, (n,), 3, eta=1.0)
        se_sd = expected_sd / math.sqrt(2 * (n - 1))
        assert abs(out.std(ddof=1) - expected_sd) < 4 * se_sd

    def test_deterministic_subsequence_matches_recursion(self):
        # eta=0 has no injected noise; the same recursion predicts the SD
        mu, s, n = 3.0, 2.0, 20_000
        sched = make_schedule(1000)
        steps = uniform_steps(1000, 50)
        den = VolumeDenoiser(mu, s, sched)
        expected_sd = den.final_sd(steps, eta=0.0)
        out = from_noise(den, sched, steps, (n,), 4)
        se_sd = expected_sd / math.sqrt(2 * (n - 1))
        assert abs(out.std(ddof=1) - expected_sd) < 4 * se_sd

    def test_moment_check_script_prints_the_recursion(self, capsys):
        check = load_moment_check()
        assert check.main(["--n", "200"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.split() and line.split()[0].isdigit()]
        exact = {(int(r[0]), float(r[1])): r[4] for r in rows}
        assert exact == {
            (25, 0.0): "1.8827", (25, 1.0): "1.7864",
            (50, 0.0): "1.9404", (50, 1.0): "1.8854",
            (100, 0.0): "1.9699", (100, 1.0): "1.9402",
            (250, 0.0): "1.9878", (250, 1.0): "1.9753",
            (1000, 0.0): "1.9969", (1000, 1.0): "1.9937",
        }

    def test_moment_check_script_prints_each_row_once_with_its_exact_sd(self, capsys):
        # --t 250 is the ladder's last count, and eta=0 has an exact SD too
        check = load_moment_check()
        assert check.main(["--n", "2", "--t", "250"]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        rows = [line.split() for line in out.splitlines()
                if line.split() and line.split()[0].isdigit()]
        keys = [(int(r[0]), float(r[1])) for r in rows]
        assert keys == [(n, eta) for n in check.STEP_LADDER for eta in (0.0, 1.0)]
        den = VolumeDenoiser(3.0, 2.0, make_schedule(250))
        for (n, eta), row in zip(keys, rows):
            if eta == 0.0:
                assert row[4] == f"{den.final_sd(uniform_steps(250, n), 0.0):9.4f}".strip()

    def test_non_finite_chain_raises_naming_eta(self):
        # sigma ~ 1e308 overflows sigma * z wherever |z| > ~2; the data-end
        # step then multiplies inf by c_x = 0
        sched = make_schedule(1000)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=r"DDIM chain at eta=1e\+308 ended in non-finite"):
            from_noise(VolumeDenoiser(np.zeros(1000)), sched, uniform_steps(1000, 2), (1000,),
                       0, eta=1e308)

    def test_subsequence_validation(self, rng):
        sched = make_schedule(100)
        den = VolumeDenoiser(np.zeros(2))
        with pytest.raises(ValueError):
            sample(den, None, sched, [], np.zeros(2))
        with pytest.raises(ValueError):
            sample(den, None, sched, [50, 60, 0], np.zeros(2))
        with pytest.raises(ValueError):
            sample(den, None, sched, [50, 20], np.zeros(2))  # no data end
        with pytest.raises(ValueError):
            sample(den, None, sched, [200, 0], np.zeros(2))  # beyond T


class TestVolumeDenoiser:
    @pytest.mark.parametrize("t", [1, 500, 1000])
    def test_slab_pick_is_the_denoiser_of_the_slab(self, rng, t):
        sched = make_schedule(1000)
        mu = rng.standard_normal((4, 5, 20))
        x_t = rng.standard_normal((4, 5, 8))
        for z0 in (0, 6, 12):
            got = VolumeDenoiser(mu, 2.0, sched)(x_t, t, {"slab_range": (z0, z0 + 8)})
            want = VolumeDenoiser(mu[:, :, z0 : z0 + 8], 2.0, sched)(x_t, t, None)
            assert got.tobytes() == want.tobytes()

    def test_zero_sd_returns_the_slab_of_mu(self, rng):
        mu = rng.standard_normal((4, 5, 20))
        vol = Volume3D(data=mu, affine=np.eye(4))
        x_t = rng.standard_normal((4, 5, 8))
        for prior in (mu, vol):
            den = VolumeDenoiser(prior)
            assert den(x_t, 7, {"slab_range": (6, 14)}).tobytes() == mu[:, :, 6:14].tobytes()
            assert den(mu, 7, None).tobytes() == mu.tobytes()
        assert VolumeDenoiser(-1.5)(x_t, 7, None).tobytes() == np.full(x_t.shape, -1.5).tobytes()

    def test_slab_must_match_x_t(self, rng):
        with pytest.raises(ValueError, match=r"prior mean slab \(4, 5, 3\) does not match x_t"):
            VolumeDenoiser(np.zeros((4, 5, 20)))(np.zeros((4, 5, 8)), 7, {"slab_range": (17, 25)})

    @pytest.mark.parametrize("s", [2.0, -0.5])
    def test_nonzero_sd_needs_the_schedule(self, s):
        with pytest.raises(ValueError, match="needs the diffusion schedule"):
            VolumeDenoiser(0.0, s)
        with pytest.raises(ValueError, match="needs the diffusion schedule"):
            VolumeDenoiser(0.0).final_sd([50, 0], 0.0)


class TestSlabCopy:
    """A stage-2 slab of a taller prior is copied once per chain and thread."""

    def test_slab_is_a_read_only_contiguous_copy(self, rng):
        mu = rng.standard_normal((4, 5, 20))
        den = VolumeDenoiser(mu)
        got = den(np.zeros((4, 5, 8)), 7, {"slab_range": (6, 14)})
        assert got.flags.c_contiguous and not got.flags.writeable
        assert not np.shares_memory(got, mu)
        assert got.tobytes() == mu[:, :, 6:14].tobytes()
        assert den(np.zeros((4, 5, 8)), 3, {"slab_range": (6, 14)}) is got  # the chain's next step

    def test_alternating_ranges_each_get_their_own_slab(self, rng):
        mu = rng.standard_normal((4, 5, 20))
        den = VolumeDenoiser(mu)
        for z0 in (0, 12, 0, 6, 6, 12, 0):
            got = den(np.zeros((4, 5, 8)), 7, {"slab_range": (z0, z0 + 8)})
            assert got.tobytes() == mu[:, :, z0 : z0 + 8].tobytes(), z0

    def test_a_box_is_read_on_its_slab_and_copied_once(self, rng):
        # every box and x_t here are 4 x 5 x 8, so only the (slab_range, box)
        # key tells the slabs apart
        mu = rng.standard_normal((9, 10, 20))
        den = VolumeDenoiser(mu)
        boxes = [(slice(0, 4), slice(0, 5)), (slice(5, 9), slice(5, 10)), (slice(2, 6), slice(3, 8))]
        for z0, box in [(0, boxes[0]), (0, boxes[1]), (6, boxes[1]), (6, boxes[2]), (0, boxes[0])]:
            condition = {"slab_range": (z0, z0 + 8), "box": box}
            got = den(np.zeros((4, 5, 8)), 7, condition)
            assert got.flags.c_contiguous and not got.flags.writeable
            assert got.tobytes() == mu[box[0], box[1], z0 : z0 + 8].tobytes(), (z0, box)
            assert den(np.zeros((4, 5, 8)), 3, dict(condition)) is got  # the chain's next step

    @pytest.mark.parametrize("keyed_by", ["slab_range", "box"])
    def test_concurrent_threads_each_get_their_own_slab(self, rng, keyed_by):
        # four chains on four slab ranges of whole slices, or on four boxes
        # of one slab range
        if keyed_by == "slab_range":
            mu = rng.standard_normal((4, 5, 20))
            conditions = [{"slab_range": (z0, z0 + 8)} for z0 in (0, 4, 8, 12)]
        else:
            mu = rng.standard_normal((9, 10, 20))
            conditions = [{"slab_range": (6, 14), "box": (slice(x0, x0 + 4), slice(y0, y0 + 5))}
                          for x0, y0 in ((0, 0), (5, 5), (2, 3), (5, 0))]
        den = VolumeDenoiser(mu)
        barrier = threading.Barrier(len(conditions), timeout=30)  # more threads than cores
        wrong, done = [], []

        def chain(n):
            condition = conditions[n]
            box = condition.get("box", (slice(None), slice(None)))
            z0, z1 = condition["slab_range"]
            slabs = []
            for t in range(50, 0, -1):
                barrier.wait()  # the threads' steps interleave
                slabs.append(den(np.zeros((4, 5, 8)), t, condition))
            # each thread copied its slab once, and it is its own
            if any(got is not slabs[0] for got in slabs) or (
                    slabs[0].tobytes() != mu[box[0], box[1], z0:z1].tobytes()):
                wrong.append(n)
            done.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=chain, args=(n,)) for n in range(len(conditions))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == list(range(len(conditions))) and wrong == []


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
    schedule = make_schedule(T_STEPS)
    steps = uniform_steps(T_STEPS, config.sample_steps)

    def chain(denoiser, condition, shape, rng):
        return sample(denoiser, condition, schedule, steps, rng.standard_normal(shape),
                      eta=config.eta, rng=rng)

    low = downsample(defaced, config.downsample_factor)
    x_low = chain(stage1, {"defaced_lowres": low}, low.dims, _stage_rng(config.seed, 0))
    nx, ny, nz = defaced.dims
    up = upsample_trilinear(low.with_data(x_low), config.downsample_factor).data[:nx, :ny, :nz]
    ranges = stage2_slabs(nz, config.slab)
    slabs = [chain(stage2, {"defaced": defaced.data[:, :, z0:z1], "upsampled": up[:, :, z0:z1],
                            "slab_range": (z0, z1)},
                   (nx, ny, z1 - z0), _stage_rng(config.seed, 1, i))
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
    a block that touches no in-plane border of the grid, or nothing."""
    spec = draw(st.sampled_from([SlabSpec(), SlabSpec(6, 3), SlabSpec(4, 2), SlabSpec(7, 2),
                                 SlabSpec(11, 5)]))
    nx, ny, nz = 4, 6, draw(st.integers(3 * spec.size, 5 * spec.size))
    removed = np.zeros((nx, ny, nz), bool)

    def voxel(z):
        removed[draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1)), z] = True

    kind = draw(st.sampled_from(["ends", "overlap voxel", "two blocks", "interior block",
                                 "empty"]))
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
    elif kind == "interior block":
        # the in-plane box starts past index 0 and ends before the last
        # index, so a box taken at the wrong offset would show
        x0, y0 = draw(st.integers(1, nx - 2)), draw(st.integers(1, ny - 2))
        x1, y1 = draw(st.integers(x0 + 1, nx - 1)), draw(st.integers(y0 + 1, ny - 1))
        z0 = draw(st.integers(0, nz - 1))
        removed[x0:x1, y0:y1, z0 : draw(st.integers(z0 + 1, nz))] = True
    return spec, removed


def threads(budget):
    """``REFAUDIT_THREADS`` set to ``budget`` while the block runs."""
    return mock.patch.dict(os.environ, {"REFAUDIT_THREADS": str(budget)})


class TestFanOut:
    def test_results_come_back_in_item_order(self):
        # later items finish first, so completion order is the reverse
        def square(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        with threads(4):
            assert ddim.fan_out(square, range(8)) == [i * i for i in range(8)]
            assert ddim.fan_out(square, []) == []

    def test_a_budget_of_one_runs_in_the_calling_thread(self):
        with threads(1):
            idents = ddim.fan_out(lambda _: threading.get_ident(), range(5))
        assert idents == [threading.get_ident()] * 5

    def test_runs_min_of_budget_and_items_at_once(self):
        # each task waits at a barrier for the others, so the fan-out passes
        # only if all three run at once
        barrier = threading.Barrier(3, timeout=60)

        def meet(_):
            barrier.wait()
            return threading.get_ident()

        with threads(4):
            idents = ddim.fan_out(meet, range(3))
        assert len(set(idents)) == 3

    @pytest.mark.parametrize("n_items, share", [(1, 4), (2, 2), (3, 1), (5, 1)])
    def test_each_task_gets_its_share_of_the_budget(self, n_items, share):
        with threads(4):
            assert ddim.fan_out(lambda _: ddim.thread_count(), range(n_items)) == [share] * n_items
            assert ddim.thread_count() == 4

    def test_a_nested_fan_out_divides_the_share_again(self):
        def inner(n_items):
            return ddim.fan_out(lambda _: ddim.thread_count(), range(n_items))

        with threads(4):
            # 4 over 2 tasks gives each 2; 2 over 2 inner tasks gives each 1
            assert ddim.fan_out(inner, [2, 1]) == [[1, 1], [2]]
            assert ddim.thread_count() == 4

    def test_tasks_see_the_callers_context_and_leave_it_unchanged(self):
        var = contextvars.ContextVar("caller")
        token = var.set("outer")
        try:
            def task(i):
                seen = var.get()
                var.set(f"task {i}")  # set in the task's copy only
                return seen

            with threads(2):
                assert ddim.fan_out(task, range(4)) == ["outer"] * 4
                assert ddim.thread_count() == 2
            assert var.get() == "outer"
        finally:
            var.reset(token)

    @pytest.mark.parametrize("budget", [1, 4])
    def test_the_first_failure_in_item_order_is_raised(self, budget):
        # on a pool, item 4 fails before item 2 does, but item 2 comes first
        def fail(i):
            if i == 2:
                time.sleep(0.05)
            if i in (2, 4):
                raise ValueError(f"item {i}")
            return i

        with threads(budget), pytest.raises(ValueError, match="item 2"):
            ddim.fan_out(fail, range(6))


class TestCascade:
    @given(case=slab_cases(), eta=st.sampled_from([0.0, 1.0]),
           steps=st.integers(1, 4), seed=st.integers(0, 2**16), workers=st.integers(1, 3))
    @settings(max_examples=100)
    def test_equals_the_full_tiling_bitwise(self, case, eta, steps, seed, workers):
        # predictions depend on x_t, so a slab on another noise stream, a
        # skipped slab that is read or a changed merge order would show
        spec, gone = case
        data = np.random.default_rng(seed).standard_normal(gone.shape)
        defaced = Volume3D(data=np.where(gone, 0.0, data), affine=np.eye(4))
        removed = BinaryMask.like(defaced, gone)
        config = CascadeConfig(sample_steps=steps, eta=eta, slab=spec, seed=seed)
        sampled = []

        def stage1(x, t, c):
            return c["defaced_lowres"].data + 0.05 * np.tanh(x)

        def stage2(x, t, c):
            sampled.append(c["slab_range"])
            return c["upsampled"] + 0.05 * np.tanh(x)

        with threads(workers):
            out = cascade_reface(defaced, removed, stage1, stage2, config)
        # one worker calls in tiling order; several interleave their slabs
        want_calls = [r for r in ranges_meeting(gone, spec) for _ in range(steps)]
        assert (sampled if workers == 1 else sorted(sampled)) == want_calls
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

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_composite_is_the_merge_inside_removed_and_defaced_outside(
            self, monkeypatch, small_phantom, small_head, eta):
        # stage 2 is merged on the removed voxels' in-plane box alone, and the
        # merge is pasted into a copy of defaced inside removed: the composite
        # must equal the np.where selection from an untouched copy of the
        # merge, placed at the box
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        merges = []

        def kept_merge(*args, **kwargs):
            merged = real(*args, **kwargs)
            merges.append(merged.copy())
            return merged

        real = ddim.merge_slabs
        monkeypatch.setattr(ddim, "merge_slabs", kept_merge)
        config = CascadeConfig(sample_steps=3, eta=eta, seed=6)
        out = cascade_reface(defaced, removed,
                             lambda x, t, c: c["defaced_lowres"].data + 0.05 * np.tanh(x),
                             lambda x, t, c: c["upsampled"] + 0.05 * np.tanh(x), config)
        (merged,) = merges
        bx, by, _ = removed.bounding_box(0)
        nx, ny, nz = defaced.dims
        assert merged.shape == (bx.stop - bx.start, by.stop - by.start, nz)
        assert merged.shape[0] * merged.shape[1] < nx * ny
        placed = np.zeros(defaced.dims)
        placed[bx, by] = merged
        assert out.data.tobytes() == np.where(removed.data, placed, defaced.data).tobytes()
        observed = ~removed.data[bx, by]
        assert not np.array_equal(merged[observed], defaced.data[bx, by][observed])

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

        bx, by, _ = removed.bounding_box(0)
        defaced_read = []

        def recorder(stage):
            def denoise(x_t, t, condition):
                calls[stage].append((np.shape(x_t), {
                    k: v if k in ("slab_range", "box") else
                    np.shape(v.data if isinstance(v, Volume3D) else v)
                    for k, v in condition.items()}))
                if stage == 2:
                    z0, z1 = condition["slab_range"]
                    defaced_read.append(np.array_equal(condition["defaced"],
                                                       defaced.data[bx, by, z0:z1]))
                return np.zeros_like(x_t)
            return denoise

        config = CascadeConfig(sample_steps=2, seed=0)
        with threads(1):
            cascade_reface(defaced, removed, recorder(1), recorder(2), config)
        assert len(calls[1]) == 2
        for shape, seen in calls[1]:
            assert seen == {"defaced_lowres": shape}
        slab_ranges = [seen.pop("slab_range") for _, seen in calls[2]]
        # stage 2 sees the removed voxels' in-plane box, which is smaller than
        # a slice, and that box of the defaced image
        box_shape = (bx.stop - bx.start, by.stop - by.start, config.slab.size)
        assert box_shape[0] * box_shape[1] < defaced.dims[0] * defaced.dims[1]
        assert defaced_read and all(defaced_read)
        for shape, seen in calls[2]:
            assert seen == {"defaced": box_shape, "upsampled": box_shape, "box": (bx, by)}
            assert shape == box_shape
        # exactly the slabs that cover a slice holding a removed voxel, in
        # tiling order, each for both steps
        meeting = ranges_meeting(removed.data, config.slab)
        assert 0 < len(meeting) < len(stage2_slabs(defaced.dims[2], config.slab))
        assert slab_ranges == [r for r in meeting for _ in range(2)]

    def test_threaded_slabs_see_the_same_conditions(self, small_phantom, small_head):
        # the first three sampled slabs each wait at a barrier in their first
        # call, so the cascade passes only if three chains run at once
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        config = CascadeConfig(sample_steps=2, seed=0)
        meeting = ranges_meeting(removed.data, config.slab)
        assert len(meeting) >= 3
        barrier = threading.Barrier(3, timeout=60)
        calls = []

        def stage2(x_t, t, condition):
            if t == T_STEPS and condition["slab_range"] in meeting[:3]:
                barrier.wait()
            calls.append((condition["slab_range"], np.shape(x_t),
                          np.shape(condition["defaced"]), np.shape(condition["upsampled"])))
            return np.zeros_like(x_t)

        with threads(3):
            cascade_reface(defaced, removed, lambda x, t, c: np.zeros_like(x), stage2, config)
        bx, by, _ = removed.bounding_box(0)
        shape = (bx.stop - bx.start, by.stop - by.start, config.slab.size)
        assert sorted(calls) == [(r, shape, shape, shape) for r in meeting for _ in range(2)]

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_output_does_not_depend_on_the_thread_count(self, small_phantom, small_head, eta):
        # s > 0 makes every prediction read x_t, so a chain on another stream
        # or a step that read a changed x_t would show
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        config = CascadeConfig(sample_steps=5, eta=eta, seed=3)
        den = VolumeDenoiser(0.4, 2.0, make_schedule(T_STEPS))
        outs = []
        for w in (1, 2, 3):
            with threads(w):
                outs.append(cascade_reface(defaced, removed, den, den, config).data.tobytes())
        assert outs[0] == outs[1] == outs[2]
        assert outs[0] == full_tiling_cascade(defaced, removed, den, den, config).tobytes()

    def test_oracle_denoisers_close_the_loop(self, small_phantom, small_head):
        from refaudit.surface import face_distance_report

        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        config = CascadeConfig(sample_steps=10, seed=1)
        (out,) = reface(defaced, removed, [vol], config)
        assert np.allclose(out.data, vol.data, atol=1e-9)
        ((_, distance),) = face_distance_report(vol, [("refaced", out)], head=small_head)
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
        (out,) = reface(defaced, removed, [filled], config)
        nz = defaced.dims[2]
        merged = merge_slabs([filled.data[..., z0:z1] for z0, z1 in stage2_slabs(nz, config.slab)],
                             nz, config.slab)
        assert out.data.tobytes() == np.where(removed.data, merged, defaced.data).tobytes()

    def test_cascade_is_deterministic_given_seed(self, small_phantom, small_head):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        filled = mirror_fill(defaced, removed)
        config = CascadeConfig(sample_steps=8, seed=21)
        runs = reface(defaced, removed, [filled, filled], config)
        assert np.array_equal(runs[0].data, runs[1].data)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_reface_is_the_cascade_of_each_prior_in_order(self, small_phantom, small_head,
                                                          eta, workers):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        filled = mirror_fill(defaced, removed)
        config = CascadeConfig(sample_steps=3, eta=eta, seed=7)
        with threads(workers):
            outs = reface(defaced, removed, [vol, filled], config)
            want = [cascade_reface(defaced, removed,
                                   VolumeDenoiser(downsample(prior, config.downsample_factor)),
                                   VolumeDenoiser(prior), config)
                    for prior in (vol, filled)]
        assert [out.data.tobytes() for out in outs] == [w.data.tobytes() for w in want]
        assert outs[0].data.tobytes() != outs[1].data.tobytes()

    def test_reface_draws_each_prior_after_the_previous_refacing(
            self, monkeypatch, small_phantom, small_head):
        vol, brain, _ = small_phantom
        defaced, removed = quickshear(vol, brain, buffer_mm=8.0, head=small_head)
        made, drawn_at = [], []

        def counted_cascade(*args, **kwargs):
            out = real(*args, **kwargs)
            made.append(out)
            return out

        real = denoisers.cascade_reface
        monkeypatch.setattr(denoisers, "cascade_reface", counted_cascade)

        def priors():
            for prior in (vol, defaced, vol):
                drawn_at.append(len(made))
                yield prior

        outs = reface(defaced, removed, priors(), CascadeConfig(sample_steps=1, seed=0))
        assert drawn_at == [0, 1, 2]
        assert [id(out) for out in outs] == [id(out) for out in made]

    def test_noise_streams_never_equal_bootstrap_streams(self):
        # `refaudit demo --seed S` draws slab noise and bootstrap resamples
        # from the one seed S
        def bootstrap_seq(replicate, attempt):
            return np.random.SeedSequence(0, spawn_key=(replicate, attempt))

        assert (bootstrap_indices(50, 0, 3, 2).tolist()
                == np.random.default_rng(bootstrap_seq(3, 2)).integers(0, 50, size=50).tolist())
        cascade = {tuple(_stage_rng(0, *key).bit_generator.seed_seq.generate_state(4))
                   for key in [(0, 0)] + [(1, i) for i in range(32)]}
        assert len(cascade) == 33
        for replicate in range(1000):
            for attempt in range(10):
                words = tuple(bootstrap_seq(replicate, attempt).generate_state(4))
                assert words not in cascade, (replicate, attempt)

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

    @pytest.mark.parametrize("factor", [(2.5, 2.5, 2.5), 2, (2, 2), (0, 0, 0)])
    def test_config_takes_three_integer_downsample_factors(self, factor):
        # downsample would truncate 2.5 to 2 while the manifest recorded 2.5
        with pytest.raises(ValueError, match="downsample factors must be positive"):
            CascadeConfig(downsample_factor=factor)
        assert CascadeConfig(downsample_factor=(2, 2, 2)).downsample_factor == (2, 2, 2)
        numpy_ints = (np.int64(1), np.int32(2), np.uint8(3))
        stored = CascadeConfig(downsample_factor=numpy_ints).downsample_factor
        assert stored == numpy_ints
        assert all(type(f) is int for f in stored)


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
        vol = Volume3D(data=rng.standard_normal(shape), affine=np.diag([*spacing, 1.0]))
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
