import itertools
import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from refaudit.errors import DegenerateInputError, FitError, JoinError
from refaudit.stats import (
    BOOTSTRAP_BLOCK,
    OBSERVATION_COLUMNS,
    LmmFit,
    ObservationTable,
    StatSummary,
    bootstrap,
    bootstrap_cells,
    bootstrap_indices,
    bootstrap_replicates,
    correlation_report,
    _average_ranks,
    _design,
    _profile,
    _rank_codes,
    fit_lmm,
    rankdata,
    residualize,
    significance_stars,
    spearman,
    wilcoxon_signed_rank,
)


# replicate counts around one block of the bootstrap engine
BLOCK_COUNTS = [1, BOOTSTRAP_BLOCK - 1, BOOTSTRAP_BLOCK, BOOTSTRAP_BLOCK + 1]


def simulate_table(rng, n_subjects=200, n_visits=3, beta=(10.0, -0.5, 4.0),
                   sigma_r=3.0, sigma_e=2.0):
    sid, visit, age, sex, y = [], [], [], [], []
    intercepts = rng.normal(0.0, sigma_r, n_subjects)
    for i in range(n_subjects):
        s = i % 2
        base_age = rng.uniform(40, 80)
        for v in range(n_visits):
            a = base_age + v * rng.uniform(0.8, 1.5)
            sid.append(f"s{i:04d}")
            visit.append(v)
            age.append(a)
            sex.append(s)
            y.append(beta[0] + beta[1] * a + beta[2] * s + intercepts[i]
                     + rng.normal(0.0, sigma_e))
    return ObservationTable(
        subject_id=np.array(sid, dtype=object), visit=np.array(visit),
        age=np.array(age), sex=np.array(sex), y=np.array(y),
    )


class TestFitLmm:
    def test_zero_random_variance_matches_ols(self, rng):
        table = simulate_table(rng, n_subjects=150, sigma_r=0.0, sigma_e=1.5)
        fit = fit_lmm(table)
        X = np.column_stack([np.ones(len(table)), table.age, table.sex])
        ols = np.linalg.lstsq(X, table.y, rcond=None)[0]
        assert np.allclose(fit.beta, ols, atol=1e-6)

    def test_simulated_cohort_recovery(self):
        rng = np.random.default_rng(2024)
        beta = (10.0, -0.5, 4.0)
        table = simulate_table(rng, beta=beta, sigma_r=3.0, sigma_e=2.0)
        fit = fit_lmm(table)
        for b_hat, b_true, se in zip(fit.beta, beta, fit.beta_se):
            assert abs(b_hat - b_true) < 3.0 * se
        theta_true = (3.0 / 2.0) ** 2
        assert 0.5 * theta_true <= fit.theta <= 2.0 * theta_true

    def test_constant_target_interpolates_exactly(self):
        table = ObservationTable(
            subject_id=np.array(["a", "a", "b", "b", "c", "c"], dtype=object),
            visit=np.array([0, 1, 0, 1, 0, 1]),
            age=np.array([50.0, 51, 60, 61, 70, 71]),
            sex=np.array([0, 0, 1, 1, 0, 0]),
            y=np.full(6, 7.25),
        )
        fit = fit_lmm(table)
        assert np.allclose(fit.beta, [7.25, 0.0, 0.0], atol=1e-9)
        assert np.allclose(residualize(table, fit), 0.0, atol=1e-9)

    def test_loglik_beats_theta_grid(self, rng):
        table = simulate_table(rng, n_subjects=60, sigma_r=2.0, sigma_e=1.0)
        fit = fit_lmm(table)
        design = _design(table)
        assert fit.loglik >= _profile(*design, 0.0)[2] - 1e-9
        for theta in np.logspace(-4, 3, 100):
            assert fit.loglik >= _profile(*design, theta)[2] - 1e-7

    def test_rank_deficient_design_raises(self, rng):
        table = simulate_table(rng, n_subjects=20)
        same_sex = ObservationTable(
            subject_id=table.subject_id, visit=table.visit, age=table.age,
            sex=np.zeros(len(table), dtype=int), y=table.y,
        )
        with pytest.raises(FitError, match="rank deficient"):
            fit_lmm(same_sex)

    def test_too_few_subjects_raises(self):
        table = ObservationTable(
            subject_id=np.array(["a", "b"], dtype=object), visit=np.array([0, 0]),
            age=np.array([50.0, 60.0]), sex=np.array([0, 1]), y=np.array([1.0, 2.0]),
        )
        with pytest.raises(FitError, match="subjects"):
            fit_lmm(table)

    def test_single_visit_everywhere_pins_theta_to_zero(self, rng):
        table = simulate_table(rng, n_subjects=50, n_visits=1, sigma_r=2.0)
        fit = fit_lmm(table)
        assert fit.theta == 0.0
        assert fit.sigma_r2 == 0.0
        assert not fit.theta_identifiable


class TestObservationTable:
    def test_columns_are_the_fields_in_order(self):
        assert list(OBSERVATION_COLUMNS) == [f.name for f in fields(ObservationTable)]

    def test_columns_take_their_dtypes_and_freeze(self):
        table = ObservationTable(["a", "b"], [0, 1], [40, 50], [0, 1], [1, 2])
        for name, (_, dtype) in OBSERVATION_COLUMNS.items():
            column = getattr(table, name)
            assert column.dtype == np.dtype(dtype) and not column.flags.writeable, name

    def test_failed_check_leaves_the_callers_arrays_writable(self):
        sex = np.array([0, 2])
        with pytest.raises(ValueError, match="sex must be coded 0/1"):
            ObservationTable(["a", "b"], [0, 1], [40.0, 50.0], sex, [1.0, 2.0])
        assert sex.flags.writeable


class TestResidualize:
    def make_fit(self, beta):
        return LmmFit(beta=tuple(beta), beta_se=(0, 0, 0), sigma_r2=0.0, sigma_e2=1.0,
                      loglik=0.0, theta=0.0, theta_identifiable=True)

    def simple_table(self, rng, n=20):
        return ObservationTable(
            subject_id=np.array([f"s{i}" for i in range(n)], dtype=object),
            visit=np.zeros(n, dtype=int),
            age=rng.uniform(40, 80, n),
            sex=rng.integers(0, 2, n),
            y=rng.standard_normal(n),
        )

    def test_intercept_only(self, rng):
        table = self.simple_table(rng)
        ones = table.y * 0 + 1.0
        t = ObservationTable(subject_id=table.subject_id, visit=table.visit,
                             age=table.age, sex=table.sex, y=ones)
        assert np.allclose(residualize(t, self.make_fit((1.0, 0.0, 0.0))), 0.0)

    def test_age_effect_only(self, rng):
        table = self.simple_table(rng)
        t = ObservationTable(subject_id=table.subject_id, visit=table.visit,
                             age=table.age, sex=table.sex, y=table.age.copy())
        assert np.allclose(residualize(t, self.make_fit((0.0, 1.0, 0.0))), 0.0)

    def test_table_built_from_a_view_does_not_change_through_its_base(self, rng):
        table = self.simple_table(rng, n=4)
        b = np.arange(8.0).reshape(2, 4)
        t = ObservationTable(subject_id=table.subject_id, visit=table.visit,
                             age=table.age, sex=table.sex, y=b[0])
        b[0, 1] = 99.0
        assert t.y.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_matches_rowwise_hand_evaluation(self, rng):
        table = self.simple_table(rng)
        fit = self.make_fit((2.5, -0.25, 1.5))
        got = residualize(table, fit)
        for k in range(len(table)):
            want = table.y[k] - 2.5 + 0.25 * table.age[k] - 1.5 * table.sex[k]
            assert got[k] == pytest.approx(want, abs=1e-12)

    def test_ols_residuals_orthogonal_to_covariates(self, rng):
        # one visit per subject pins theta to 0, so the fit is ordinary least squares
        table = simulate_table(rng, n_subjects=240, n_visits=1, sigma_r=0.0)
        fit = fit_lmm(table)
        assert fit.theta == 0.0
        res = residualize(table, fit)
        scale = len(table) * float(np.abs(table.age).max())
        assert abs(res @ table.age) / scale < 1e-9
        assert abs(res @ table.sex) / scale < 1e-9
        assert abs(res.sum()) / len(table) < 1e-9


def rank_oracle(values):
    """Average ranks straight from the definition."""
    values = list(values)
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


class TestRankdata:
    @staticmethod
    def arrays():
        """Seeded arrays of lengths 1..700: continuous, integer-valued with
        many ties, and integer-valued with +-inf among them."""
        rng = np.random.default_rng(20)
        for n in [*range(1, 40), *rng.integers(40, 701, 60)]:
            yield rng.standard_normal(n)
            yield rng.integers(0, max(2, n // 8), n).astype(np.float64)
            tied = rng.integers(-3, 4, n).astype(np.float64)
            tied[rng.random(n) < 0.1] = np.inf
            tied[rng.random(n) < 0.1] = -np.inf
            yield tied

    def test_bitwise_equal_to_scipy(self):
        for a in self.arrays():
            assert rankdata(a).tobytes() == scipy.stats.rankdata(a).tobytes(), a

    @given(st.lists(st.sampled_from([-math.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 3.0, math.inf])
                    | st.floats(-1e6, 1e6), min_size=1, max_size=60),
           st.integers(0, 2**32 - 1), st.integers(1, 80))
    @settings(max_examples=300)
    def test_counted_ranks_of_a_resample_equal_its_own_ranks(self, values, seed, size):
        # a resample's ranks counted from the full array's codes are the
        # ranks of the resample itself, bit for bit, ties, -0.0 and +-inf included
        a = np.array(values)
        codes, n_distinct = _rank_codes(a)
        assert n_distinct == len(set(values))  # -0.0 == 0.0 in a set too
        idx = np.random.default_rng(seed).integers(0, len(a), size)
        assert _average_ranks(codes[idx], n_distinct).tobytes() == rankdata(a[idx]).tobytes()


class TestSpearman:
    def test_monotone_is_one(self, rng):
        x = np.sort(rng.standard_normal(20))
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_hand_computed_example(self):
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-12)

    def test_ties_match_average_rank_oracle(self, rng):
        for _ in range(20):
            x = rng.integers(0, 4, 12).astype(float)
            y = rng.integers(0, 4, 12).astype(float)
            rx, ry = np.array(rank_oracle(x)), np.array(rank_oracle(y))
            if rx.std() == 0 or ry.std() == 0:
                continue
            want = np.corrcoef(rx, ry)[0, 1]
            assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    @given(st.integers(0, 2**31 - 1), st.sampled_from(["exp", "affine", "cube"]))
    @settings(max_examples=25)
    def test_invariant_under_increasing_transforms(self, seed, kind):
        r = np.random.default_rng(seed)
        x = r.standard_normal(15)
        y = r.standard_normal(15)
        f = {"exp": np.exp, "affine": lambda v: 3 * v + 1, "cube": lambda v: v**3}[kind]
        assert spearman(f(x), y) == pytest.approx(spearman(x, y), abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("x, y", [
        ([1.0, 2.0, math.nan, 4.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 3.0, 4.0]),
    ], ids=["x", "y"])
    def test_nan_raises(self, x, y):
        with pytest.raises(ValueError, match="NaN"):
            spearman(x, y)


class TestSpearmanRows:
    """``spearman``'s input checks. It takes one sample of each variable: a
    (k, n) array of rows raises ValueError, as every shape but two 1D arrays
    of n >= 3 values does."""

    def test_zero_variance_y_raises(self):
        with pytest.raises(DegenerateInputError):
            spearman([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("x, y", [
        (np.zeros((2, 5)), np.arange(4.0)),
        (np.zeros((2, 2, 4)), np.arange(4.0)),
        (np.arange(4.0).reshape(2, 2), np.arange(2.0)),
        (np.arange(4.0), np.arange(4.0).reshape(2, 2)),
        (np.arange(8.0).reshape(2, 4), np.arange(4.0)),
    ], ids=["row-length", "3d-x", "n-below-3", "2d-y", "rows"])
    def test_shape_errors_raise(self, x, y):
        with pytest.raises(ValueError):
            spearman(x, y)


def wilcoxon_enumeration_p(diffs):
    """Full 2^n sign-pattern enumeration with average ranks."""
    d = np.asarray([v for v in diffs if v != 0.0])
    ranks = np.array(rank_oracle(np.abs(d)))
    n = len(d)
    w_obs = ranks[d > 0].sum()
    mean = n * (n + 1) / 4.0
    dev = abs(w_obs - mean)
    hits = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if abs(w - mean) >= dev - 1e-12:
            hits += 1
    return w_obs, hits / 2.0**n


class TestWilcoxon:
    def test_all_positive_n5(self):
        w, p = wilcoxon_signed_rank([5.0, 4, 3, 2, 1], [0.0, 0, 0, 0, 0])
        assert w == 15.0
        assert p == pytest.approx(2 / 32)

    def test_swapping_negates_and_preserves_p(self, rng):
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        w_ab, p_ab = wilcoxon_signed_rank(a, b)
        w_ba, p_ba = wilcoxon_signed_rank(b, a)
        n = 12
        assert w_ab + w_ba == pytest.approx(n * (n + 1) / 2)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 7, 9, 12])
    def test_exact_p_equals_enumeration(self, rng, n):
        for _ in range(5):
            diffs = rng.integers(-4, 5, n).astype(float)
            diffs[diffs == 0] = 1.0  # keep n fixed
            a = diffs
            b = np.zeros(n)
            w, p = wilcoxon_signed_rank(a, b)
            w_want, p_want = wilcoxon_enumeration_p(diffs)
            assert w == w_want
            assert p == pytest.approx(p_want, abs=1e-12)

    def test_normal_approximation_close_to_exact(self, rng):
        # n=30 goes through the normal path; the exact DP oracle is local
        for _ in range(5):
            diffs = rng.standard_normal(30)
            w, p = wilcoxon_signed_rank(diffs, np.zeros(30))
            ranks = np.array(rank_oracle(np.abs(diffs)))
            d2 = np.rint(2 * ranks).astype(int)
            total = int(d2.sum())
            counts = np.zeros(total + 1)
            counts[0] = 1.0
            for r in d2:
                counts[r:] += counts[: total + 1 - r].copy()
            mean2 = total / 2.0
            dev = abs(2 * w - mean2)
            sums = np.arange(total + 1)
            exact = counts[np.abs(sums - mean2) >= dev - 1e-9].sum() / 2.0**30
            assert p == pytest.approx(exact, abs=0.01)

    def test_normal_approximation_with_ties_matches_hand_formula(self, rng):
        # n=40 of 9 distinct magnitudes: the tie-corrected normal approximation
        for _ in range(5):
            diffs = rng.integers(-9, 10, 40).astype(float)
            diffs[diffs == 0] = 5.0
            w, p = wilcoxon_signed_rank(diffs, np.zeros(40))
            ranks = rank_oracle(np.abs(diffs))
            assert w == sum(r for r, d in zip(ranks, diffs) if d > 0)
            ties = sum(t**3 - t for t in Counter(ranks).values())
            var = 40 * 41 * 81 / 24.0 - ties / 48.0
            dev = w - 40 * 41 / 4.0
            z = (abs(dev) - 0.5) / math.sqrt(var) if dev else 0.0
            assert p == pytest.approx(min(1.0, math.erfc(z / math.sqrt(2.0))), rel=1e-12)

    def test_all_zero_differences_degenerate(self):
        with pytest.raises(DegenerateInputError):
            wilcoxon_signed_rank([1.0] * 6, [1.0] * 6)

    def test_one_to_four_nonzero_differences_match_enumeration(self, rng):
        # ties included; equal pairs are dropped before the differences are counted
        cases = [([1.0, 2, 3, 1, 1], [1.0, 2, 3, 0, 0]), ([2.0], [0.0]), ([-1.0, 3], [0.0, 0])]
        for n in (1, 2, 3, 4):
            for _ in range(5):
                diffs = rng.integers(1, 4, n) * rng.choice([-1.0, 1.0], n)
                cases.append((diffs, np.zeros(n)))
        for a, b in cases:
            w, p = wilcoxon_signed_rank(a, b)
            w_want, p_want = wilcoxon_enumeration_p(np.subtract(a, b))
            assert w == w_want
            assert p == pytest.approx(p_want, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [6, 30], ids=["exact", "normal"])
    @pytest.mark.parametrize("where", ["a", "b"])
    def test_nan_raises(self, rng, n, where):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        (a if where == "a" else b)[n // 2] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank(a, b)


class TestBootstrap:
    def test_constant_data_has_zero_width(self):
        s = bootstrap(np.full(10, 3.0), np.mean, n_boot=200, seed=1)
        assert s.mean == 3.0 and s.ci_low == 3.0 and s.ci_high == 3.0

    def test_same_seed_is_deterministic(self, rng):
        data = rng.standard_normal(30)
        a = bootstrap(data, np.mean, n_boot=300, seed=7)
        b = bootstrap(data, np.mean, n_boot=300, seed=7)
        assert a == b

    def test_replicates_use_per_replicate_streams(self):
        # replicate indices depend only on (seed, replicate, attempt)
        idx_a = bootstrap_indices(50, seed=3, replicate=11)
        idx_b = bootstrap_indices(50, seed=3, replicate=11)
        idx_c = bootstrap_indices(50, seed=3, replicate=12)
        assert np.array_equal(idx_a, idx_b)
        assert not np.array_equal(idx_a, idx_c)

    def test_identity_statistic_converges_to_sample_mean(self, rng):
        data = rng.standard_normal(100)
        s = bootstrap(data, np.mean, n_boot=10_000, seed=0)
        se = data.std(ddof=1) / math.sqrt(len(data)) / math.sqrt(10_000) * math.sqrt(1)
        # bootstrap mean of the mean has SE ~ sample SE / sqrt(n_boot)
        boot_se = data.std(ddof=1) / math.sqrt(len(data)) / math.sqrt(10_000)
        assert abs(s.mean - data.mean()) < 3 * data.std(ddof=1) / math.sqrt(len(data))
        assert abs(s.mean - data.mean()) < 30 * boot_se

    def test_degenerate_statistic_is_redrawn(self):
        calls = []

        def stat(rows, axis):
            calls.append(len(rows))
            if len(calls) < 3:
                return np.full(len(rows), np.nan)  # first draws rejected
            return np.mean(rows, axis=axis)

        assert bootstrap_replicates(np.arange(10.0), stat, 2, 0).shape == (2,)
        assert len(calls) >= 3

    def test_interval_orders_around_mean_for_mean_statistic(self, rng):
        data = rng.standard_normal(60)
        s = bootstrap(data, np.mean, n_boot=500, seed=2)
        assert s.ci_low <= s.mean <= s.ci_high

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            bootstrap(np.array([1.0]), np.mean)

    @pytest.mark.parametrize("n_boot", [0, -3])
    def test_needs_a_positive_replicate_count(self, n_boot):
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap(np.arange(5.0), np.mean, n_boot=n_boot)

    def test_vector_statistic_matches_scalar_components(self, rng):
        data = rng.standard_normal(40)
        reps = bootstrap_replicates(
            data, lambda x, axis: [np.mean(x, axis=axis), np.median(x, axis=axis)], 200, 5)
        assert reps.shape == (2, 200) and reps[1].flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(reps[0], bootstrap_replicates(data, np.mean, 200, 5))
        np.testing.assert_array_equal(reps[1], bootstrap_replicates(data, np.median, 200, 5))
        assert bootstrap(data, np.median, 200, 5) == StatSummary.from_replicates(reps[1])

    def test_vector_bootstrap_equals_its_scalar_components(self, rng):
        data = rng.standard_normal(25)
        summaries = bootstrap(data, lambda x, axis: [np.mean(x, axis=axis), np.median(x, axis=axis),
                                                     x.max(axis=axis)], 300, 9)
        assert summaries == [bootstrap(data, np.mean, 300, 9), bootstrap(data, np.median, 300, 9),
                             bootstrap(data, np.max, 300, 9)]

    def test_undefined_component_redraws_the_whole_replicate(self):
        data = np.arange(12.0)

        def max_or_undefined(x, axis):
            largest = x.max(axis=axis)
            return np.where(largest < 11.0, np.nan, largest)  # largest row not drawn

        scalar = bootstrap_replicates(data, max_or_undefined, 300, 2)
        vector = bootstrap_replicates(data, lambda x, axis: [np.mean(x, axis=axis),
                                                             max_or_undefined(x, axis)], 300, 2)
        np.testing.assert_array_equal(vector[1], scalar)
        # the mean is taken from the same accepted resample, never a rejected one
        accepted = []
        for r in range(300):
            idx = next(i for i in (bootstrap_indices(12, 2, r, a) for a in range(10))
                       if data[i].max() == 11.0)
            accepted.append(data[idx].mean())
        np.testing.assert_array_equal(vector[0], accepted)


class TestBlockedEngine:
    """The engine calls its statistic once per block of replicates; each
    replicate still equals the statistic of its own resample."""

    @pytest.mark.parametrize("n_boot", BLOCK_COUNTS)
    def test_scalar_replicates_equal_a_per_replicate_loop(self, rng, n_boot):
        data = rng.standard_normal(23)
        want = [np.median(data[bootstrap_indices(23, 8, r)]) for r in range(n_boot)]
        np.testing.assert_array_equal(bootstrap_replicates(data, np.median, n_boot, 8), want)

    def test_undefined_replicates_inside_a_block_are_redrawn_alone(self, monkeypatch):
        n, seed, n_boot = 15, 3, 3 * BOOTSTRAP_BLOCK + 2
        # replicate -> its attempts the statistic rejects: two neighbours inside
        # the second block, and one in the third block rejected twice
        rejects = {BOOTSTRAP_BLOCK + 1: 1, BOOTSTRAP_BLOCK + 2: 1, 2 * BOOTSTRAP_BLOCK + 4: 2}
        rejected = [bootstrap_indices(n, seed, r, a) for r, k in rejects.items() for a in range(k)]

        def mean_unless_rejected(x, axis):  # the data are 0..n-1, so a resample is its indices
            undefined = [any(np.array_equal(row, idx) for idx in rejected) for row in x]
            return np.where(undefined, np.nan, x.mean(axis=axis))

        drawn = []

        def recording_indices(n, seed, replicate, attempt=0):
            drawn.append((replicate, attempt))
            return bootstrap_indices(n, seed, replicate, attempt)

        monkeypatch.setattr("refaudit.stats.bootstrap_indices", recording_indices)
        got = bootstrap_replicates(np.arange(n), mean_unless_rejected, n_boot, seed)
        plain = bootstrap_replicates(np.arange(n), np.mean, n_boot, seed)
        for r in range(n_boot):
            idx = bootstrap_indices(n, seed, r, rejects.get(r, 0))
            assert got[r] == idx.mean(), r
            assert (got[r] == plain[r]) == (r not in rejects), r
        # one draw per replicate and attempt, as the benchmark's tracer counts them
        redraws = [(r, a) for r, k in rejects.items() for a in range(1, k + 1)]
        assert sorted(drawn[:n_boot + len(redraws)]) == sorted(
            [(r, 0) for r in range(n_boot)] + redraws)

    def test_replicate_undefined_on_every_attempt_raises_naming_it(self):
        with pytest.raises(DegenerateInputError, match="10 consecutive redraws of replicate 0"):
            bootstrap_replicates(np.arange(5.0), lambda x, axis: np.full(len(x), np.nan), 3, 0)

    def test_statistic_of_the_wrong_shape_raises(self):
        with pytest.raises(ValueError, match=r"statistic returned shape \(\) for 3 resamples"):
            bootstrap_replicates(np.arange(5.0), lambda x, axis: 1.0, 3, 0)

    def test_data_must_be_1d(self):
        with pytest.raises(ValueError, match="1D"):
            bootstrap_replicates(np.ones((5, 2)), np.mean, 3, 0)

    @pytest.mark.parametrize("n_boot", BLOCK_COUNTS)
    def test_cell_rows_equal_a_per_replicate_loop(self, monkeypatch, rng, n_boot):
        # two cells of each size share a resample set; row c of the engine's
        # (2, n_boot) replicates is cell c's a[idx].mean() on each replicate
        sizes = (2, 3, 8, 9, 129, 200)
        rows = [(f"s{i:03d}", (n, c), float(rng.normal(4.0, 1.5)))
                for n in sizes for c in (0, 1) for i in rng.permutation(n)]
        rows[0] = (*rows[0][:2], math.inf)
        replicates = {}

        def recording_bootstrap(data, statistic, n_boot, seed):
            replicates[len(data)] = bootstrap_replicates(data, statistic, n_boot, seed)
            return bootstrap(data, statistic, n_boot, seed)

        monkeypatch.setattr("refaudit.stats.bootstrap", recording_bootstrap)
        cells = bootstrap_cells(rows, n_boot, seed=5)
        for (n, c), cell in cells.items():
            a = np.array(list(cell.values.values()))
            want = [a[bootstrap_indices(n, 5, r)].mean() for r in range(n_boot)]
            np.testing.assert_array_equal(replicates[n][c], want)
            assert cell.summary == StatSummary.from_replicates(np.array(want))


class TestBootstrapCells:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sorted_cells_keep_input_order_of_values(self):
        rows = [("s2", "b", 3.0), ("s1", "a", 1.0), ("s0", "b", 5.0), ("s0", "a", 2.0),
                ("s1", "b", 4.0), ("s2", "a", float("inf"))]
        cells = bootstrap_cells(rows, n_boot=50, seed=4)
        assert list(cells) == ["a", "b"]
        assert list(cells["b"].values.items()) == [("s2", 3.0), ("s0", 5.0), ("s1", 4.0)]
        assert cells["b"].summary == bootstrap(np.array([3.0, 5.0, 4.0]), np.mean, 50, 4)
        assert cells["a"].summary.mean == math.inf

    def test_cells_sharing_resamples_equal_their_own_bootstraps(self, rng):
        # cells of 9 subjects share each replicate's resample; every cell must
        # still equal its own bootstrap of the mean bit for bit
        sizes = {"a": 1, "b": 2, "c": 9, "d": 9, "e": 30}
        rows = [(f"s{i:02d}", key, float(rng.normal(4.0, 1.5)))
                for key, n in sizes.items() for i in rng.permutation(n)]
        k = next(k for k, row in enumerate(rows) if row[1] == "d")
        rows[k] = (*rows[k][:2], math.inf)
        cells = bootstrap_cells(rows, n_boot=200, seed=6)
        assert {key: len(c.values) for key, c in cells.items()} == sizes
        (v,) = cells["a"].values.values()
        assert cells["a"].summary == StatSummary(v, v, v)
        assert cells["a"].summary.format() == f"{v:.2f} [{v:.2f}, {v:.2f}]"
        for key in "bcde":
            values = np.array(list(cells[key].values.values()))
            assert cells[key].summary == bootstrap(values, np.mean, 200, 6), key
        assert cells["d"].summary.ci_high == math.inf

    def test_duplicate_key_raises_naming_it(self):
        with pytest.raises(ValueError, match=r"duplicate row for \('s1', 'dpm'\)"):
            bootstrap_cells([("s1", "dpm", 1.0), ("s2", "dpm", 2.0), ("s1", "dpm", 3.0)], 10, 0)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            bootstrap_cells([("s1", "dpm", 1.0), ("s2", "dpm", float("nan"))], 10, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_values_whose_sum_could_overflow_raise_naming_the_cell(self):
        rows = [(f"s{i}", "big", v) for i, v in enumerate([1e308, -1e308, 1.0])]
        with pytest.raises(ValueError, match=r"cell 'big' holds values up to 1e\+308"):
            bootstrap_cells(rows, 2, 0)
        # the mean over the replicates sums n_boot of them
        rows = [(f"s{i}", "big", 1.5e307) for i in range(3)]
        summary = bootstrap_cells(rows, 10, 0)["big"].summary
        assert (summary.ci_low, summary.ci_high) == pytest.approx((1.5e307, 1.5e307))
        with pytest.raises(ValueError, match=r"so a sum of 20 of them overflows float64"):
            bootstrap_cells(rows, 20, 0)
        # a one-subject cell sums nothing
        assert bootstrap_cells(rows[:1], 1000, 0)["big"].summary.mean == 1.5e307

    def test_cell_holding_inf_and_minus_inf_raises_naming_it(self):
        rows = [("s1", "a", math.inf), ("s2", "a", 1.0), ("s1", "b", -math.inf),
                ("s2", "b", 1.0), ("s3", "b", math.inf)]
        with pytest.raises(ValueError, match=r"cell 'b' holds both inf and -inf"):
            bootstrap_cells(rows, 10, 0)


class TestFormatting:
    def test_table_cell_layout(self):
        s = StatSummary(mean=0.3391, ci_low=0.2849, ci_high=0.4021)
        assert s.format() == "0.34 [0.28, 0.40]"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("finite", [24, 25])
    def test_bound_next_to_an_infinite_replicate_is_inf(self, finite):
        # with 25 finite replicates the 2.5% bound lies between 1.0 and the first inf
        replicates = np.concatenate([np.full(finite, 1.0), np.full(1000 - finite, math.inf)])
        assert StatSummary.from_replicates(replicates).format() == "inf [inf, inf]"

    def test_stars_thresholds(self):
        assert significance_stars(5e-5) == "****"
        assert significance_stars(1e-4) == "****"
        assert significance_stars(5e-4) == "***"
        assert significance_stars(5e-3) == "**"
        assert significance_stars(0.05) == "*"
        assert significance_stars(0.051) == "ns"


class TestCorrelationReport:
    def table_and_predictions(self, rng, n=80, informative=True):
        table = simulate_table(rng, n_subjects=n, n_visits=2, sigma_r=1.0, sigma_e=2.0)
        fit = fit_lmm(table)
        res = residualize(table, fit)
        preds = {}
        keys = table.keys()
        noise = rng.standard_normal(len(keys))
        preds["original"] = {k: (res[i] if informative else noise[i]) for i, k in enumerate(keys)}
        preds["defaced"] = {k: float(v) for k, v in zip(keys, rng.standard_normal(len(keys)))}
        return table, preds

    def test_perfect_predictions_give_rho_one(self, rng):
        table, preds = self.table_and_predictions(rng)
        report = correlation_report({"original": preds["original"]}, table,
                                    seed=0, n_boot=100)
        m = report["methods"]["original"]
        assert m["rho_mean"] == pytest.approx(1.0, abs=1e-12)
        assert m["ci"][0] == pytest.approx(1.0, abs=1e-12)
        assert m["ci"][1] == pytest.approx(1.0, abs=1e-12)
        assert m["significant"]

    def test_null_predictions_overlap_zero_in_most_seeds(self):
        hits = 0
        n_seeds = 20
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed + 1000)
            table, preds = self.table_and_predictions(rng, n=60, informative=False)
            report = correlation_report({"original": preds["original"]}, table,
                                        seed=seed, n_boot=200)
            ci_low, ci_high = report["methods"]["original"]["ci"]
            if ci_low <= 0.0 <= ci_high:
                hits += 1
        assert hits >= 18  # >= 90% of seeds

    def test_pairwise_wilcoxon_over_paired_replicates(self, rng):
        table, preds = self.table_and_predictions(rng)
        report = correlation_report(preds, table, seed=3, n_boot=100)
        (entry,) = report["pairwise"]
        assert (entry["a"], entry["b"]) == ("defaced", "original")
        assert 0.0 <= entry["p"] <= 1.0
        assert entry["stars"] == significance_stars(entry["p"])

    def test_tied_method_redraws_the_whole_replicate(self, rng):
        """A method that is constant on a resample makes spearman undefined:
        the replicate is redrawn for every method, and each method's rho is
        ``spearman`` of its predictions on the accepted resample, bit for
        bit, also for a method whose predictions hold ties and +-inf."""
        table = simulate_table(rng, n_subjects=12, n_visits=2)
        resid = residualize(table, fit_lmm(table))
        keys = table.keys()
        hits = {keys[i] for i in rng.choice(len(keys), size=3, replace=False)}
        spiky = rng.choice([-math.inf, -1.0, -0.0, 0.0, 2.0, 3.5, math.inf], len(keys))
        preds = {"coarse": {k: float(k in hits) for k in keys},
                 "dpm": {k: float(r + rng.normal(0.0, 2.0)) for k, r in zip(keys, resid)},
                 "spiky": {k: float(v) for k, v in zip(keys, spiky)}}
        report = correlation_report(preds, table, seed=4, n_boot=200)

        methods = sorted(preds)
        aligned = np.array([[preds[m][k] for k in keys] for m in methods])
        want = []
        redraws = 0
        for r in range(200):
            for attempt in range(10):
                idx = bootstrap_indices(len(keys), 4, r, attempt)
                try:
                    want.append([spearman(row[idx], resid[idx]) for row in aligned])
                    break
                except DegenerateInputError:
                    redraws += 1
        assert redraws > 0
        want = dict(zip(methods, np.array(want).T.copy()))
        for m in methods:
            s = StatSummary.from_replicates(want[m])
            assert report["methods"][m]["rho_mean"] == s.mean
            assert report["methods"][m]["ci"] == [s.ci_low, s.ci_high]
        for entry in report["pairwise"]:
            assert (entry["w"], entry["p"]) == wilcoxon_signed_rank(want[entry["a"]],
                                                                    want[entry["b"]])

    @pytest.mark.parametrize("n_boot", BLOCK_COUNTS)
    def test_blocked_replicates_equal_spearman_on_each_accepted_resample(
            self, monkeypatch, rng, n_boot):
        table = simulate_table(rng, n_subjects=12, n_visits=2)
        resid = residualize(table, fit_lmm(table))
        keys = table.keys()
        n = len(keys)
        hit = int(rng.integers(n))
        # "coarse" is constant, so undefined, on each resample that misses row
        # ``hit``; the seed makes replicate 0 one of those
        seed = next(s for s in range(100) if hit not in bootstrap_indices(n, s, 0))
        spiky = rng.choice([-math.inf, -1.0, -0.0, 0.0, 2.0, 3.5, math.inf], n)
        preds = {"coarse": {k: float(i == hit) for i, k in enumerate(keys)},
                 "dpm": {k: float(r + rng.normal(0.0, 2.0)) for k, r in zip(keys, resid)},
                 "spiky": {k: float(v) for k, v in zip(keys, spiky)}}
        replicates = []

        def recording_replicates(data, statistic, n_boot, seed):
            replicates.append(bootstrap_replicates(data, statistic, n_boot, seed))
            return replicates[-1]

        monkeypatch.setattr("refaudit.stats.bootstrap_replicates", recording_replicates)
        correlation_report(preds, table, seed=seed, n_boot=n_boot)

        aligned = np.array([[preds[m][k] for k in keys] for m in sorted(preds)])
        want = []
        redraws = 0
        for r in range(n_boot):
            for attempt in range(10):
                idx = bootstrap_indices(n, seed, r, attempt)
                try:
                    want.append([spearman(row[idx], resid[idx]) for row in aligned])
                    break
                except DegenerateInputError:
                    redraws += 1
        assert redraws > 0
        (got,) = replicates
        np.testing.assert_array_equal(got, np.array(want).T)

    def test_join_error_lists_missing_keys(self, rng):
        table, preds = self.table_and_predictions(rng, n=20)
        first_key = table.keys()[0]
        del preds["original"][first_key]
        with pytest.raises(JoinError) as err:
            correlation_report(preds, table, seed=0, n_boot=10)
        assert first_key in err.value.missing_keys

    def test_report_cell_formatting(self, rng):
        table, preds = self.table_and_predictions(rng)
        report = correlation_report(preds, table, seed=1, n_boot=100)
        for entry in report["methods"].values():
            mean_str, rest = entry["cell"].split(" ", 1)
            assert len(mean_str.split(".")[-1]) == 2
            assert rest.startswith("[") and rest.endswith("]")
