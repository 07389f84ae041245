"""The inferential stack: random-intercept mixed-effects residualization,
Spearman rank correlation, percentile bootstrap summaries, and the Wilcoxon
signed-rank test.

Conventions (also embedded in report metadata): the mixed model is fit by
maximum likelihood (not REML); residualization subtracts fixed effects only;
bootstrap resamples rows (not subjects) with per-replicate RNG streams
derived from (seed, replicate); method comparisons in correlation reports
pair bootstrap replicates via identical resample indices.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, FitError, JoinError
from .volume import frozen

ML_CRITERION = "maximum likelihood"
WILCOXON_EXACT_MAX_N = 25

STATS_CONVENTIONS = {
    "lmm_criterion": "ML",
    "residualization": "fixed effects only",
    "bootstrap_resampling": "rows",
    "method_comparison": "wilcoxon over paired bootstrap replicates",
}


# ---------------------------------------------------------------------------
# Tables


# each column of an observation table, in field order: its CSV cell parser
# and its array dtype
OBSERVATION_COLUMNS = {
    "subject_id": (str, object),  # opaque string ids
    "visit": (int, np.int64),  # ordinal ints
    "age": (float, np.float64),  # years
    "sex": (int, np.int64),  # 0/1
    "y": (float, np.float64),  # target (HU or unitless)
}


@dataclass(frozen=True)
class ObservationTable:
    """Longitudinal records, one array per column of ``OBSERVATION_COLUMNS``."""

    subject_id: np.ndarray
    visit: np.ndarray
    age: np.ndarray
    sex: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name, (_, dtype) in OBSERVATION_COLUMNS.items():
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
            except OverflowError as exc:
                raise ValueError(f"{name} holds a value out of {np.dtype(dtype)} range") from exc
        n = len(self)
        if any(len(getattr(self, name)) != n for name in OBSERVATION_COLUMNS):
            raise ValueError("columns have mismatched lengths")
        if len(set(self.keys())) != n:
            raise ValueError("(subject_id, visit) keys are not unique")
        if not np.isfinite(self.age).all():
            raise ValueError("age must be finite")
        if not np.isfinite(self.y).all():
            raise ValueError("y must be finite")
        if not np.isin(self.sex, (0, 1)).all():
            raise ValueError("sex must be coded 0/1")
        for name in OBSERVATION_COLUMNS:
            object.__setattr__(self, name, frozen(getattr(self, name)))

    def __len__(self) -> int:
        return len(self.subject_id)

    def keys(self) -> list:
        return list(zip(self.subject_id, self.visit))

    @classmethod
    def from_csv(cls, path) -> "ObservationTable":
        """Parsed row by row, so a bad cell raises at the first one in file order."""
        rows = [[parse(row[name]) for name, (parse, _) in OBSERVATION_COLUMNS.items()]
                for row in read_csv_rows(path, OBSERVATION_COLUMNS, "observation")]
        return cls(*zip(*rows))


def read_csv_rows(path, required, kind: str) -> list:
    """Rows of a CSV file as dicts; ValueError naming the missing columns
    unless the header has every column in ``required``, and ValueError naming
    the file if it has no data row. A short row's missing fields read as "",
    which no number parser accepts."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = set(required) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{kind} CSV missing columns: {sorted(missing)}")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{kind} CSV {path} has no data rows")
    return rows


def read_predictions_csv(path) -> dict:
    """Prediction CSV (subject_id, visit, method, y_pred) as
    {method: {(subject_id, visit): y_pred}}. A NaN y_pred or a repeated
    (method, subject_id, visit) raises ValueError; +-inf is kept, as in
    ``bootstrap_cells``."""
    out: dict = {}
    for row in read_csv_rows(path, ("subject_id", "visit", "method", "y_pred"), "prediction"):
        key = (row["subject_id"], int(row["visit"]))
        y_pred = float(row["y_pred"])
        if math.isnan(y_pred):
            raise ValueError(f"y_pred of {row['method']!r} at {key!r} is NaN")
        per_method = out.setdefault(row["method"], {})
        if key in per_method:
            raise ValueError(f"duplicate prediction row for {(row['method'], *key)!r}")
        per_method[key] = y_pred
    return out


# ---------------------------------------------------------------------------
# Random-intercept mixed model (Eq: y = b0 + b1*age + b2*sex + r_subject + eps)


@dataclass(frozen=True)
class LmmFit:
    beta: tuple  # (intercept, age, sex) fixed effects
    beta_se: tuple
    sigma_r2: float
    sigma_e2: float
    loglik: float
    theta: float  # variance ratio sigma_r2 / sigma_e2
    theta_identifiable: bool


def _design(table: ObservationTable):
    X = np.column_stack(
        [np.ones(len(table)), table.age, table.sex.astype(np.float64)]
    )
    _, codes = np.unique(table.subject_id.astype(str), return_inverse=True)
    counts = np.bincount(codes)
    return X, table.y.astype(np.float64), codes, counts


def _profile(X, y, codes, counts, theta):
    """GLS profile of the ML criterion at fixed variance ratio theta.

    With V = sigma_e^2 (I + theta Z Z^T) and a random intercept per subject,
    W = V^-1 sigma_e^2 is block diagonal with W_i = I - theta/(1+theta n_i) J,
    so all quadratic forms reduce to per-subject sums.
    """
    n, p = X.shape
    c = theta / (1.0 + theta * counts)  # per-subject shrinkage
    sx = np.zeros((len(counts), p))
    np.add.at(sx, codes, X)
    sy = np.bincount(codes, weights=y, minlength=len(counts))

    xtx = X.T @ X - (sx * c[:, None]).T @ sx
    xty = X.T @ y - sx.T @ (c * sy)
    yty = float(y @ y - c @ (sy * sy))

    beta = np.linalg.solve(xtx, xty)
    rss = yty - 2.0 * float(beta @ xty) + float(beta @ xtx @ beta)
    rss = max(rss, 0.0)
    sigma_e2 = rss / n
    logdet = float(np.log1p(theta * counts).sum())
    if sigma_e2 > 0:
        loglik = -0.5 * (n * (math.log(2 * math.pi) + math.log(sigma_e2) + 1.0) + logdet)
    else:
        loglik = math.inf  # exact interpolation
    return beta, sigma_e2, loglik, xtx


def fit_lmm(table: ObservationTable) -> LmmFit:
    """ML fit of the random-intercept model via a 1D profiled likelihood over
    theta = sigma_r^2/sigma_e^2 in [0, 1e3] (coarse log-grid bracket, then
    golden-section to 1e-8 in log theta).
    """
    X, y, codes, counts = _design(table)
    if len(counts) < 3:
        raise FitError(f"need >= 3 subjects, got {len(counts)}")
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise FitError("design matrix [1, age, sex] is rank deficient")

    identifiable = bool((counts > 1).any())
    if not identifiable:
        theta_hat = 0.0  # single visit everywhere: ratio unidentifiable
    else:
        theta_hat = _maximize_theta(X, y, codes, counts)

    beta, sigma_e2, loglik, xtx = _profile(X, y, codes, counts, theta_hat)
    cov = sigma_e2 * np.linalg.inv(xtx)
    se = tuple(float(s) for s in np.sqrt(np.maximum(np.diag(cov), 0.0)))
    return LmmFit(
        beta=tuple(float(b) for b in beta),
        beta_se=se,
        sigma_r2=theta_hat * sigma_e2,
        sigma_e2=sigma_e2,
        loglik=loglik,
        theta=theta_hat,
        theta_identifiable=identifiable,
    )


def _maximize_theta(X, y, codes, counts):
    def nll(u):
        return -_profile(X, y, codes, counts, math.exp(u))[2]

    # coarse bracket over the log grid of theta in [1e-10, 1e3], boundary
    # theta=0 included at the end
    grid = np.linspace(math.log(1e-10), math.log(1e3), 33)
    vals = [nll(u) for u in grid]
    k = int(np.argmin(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = nll(c), nll(d)
    while b - a > 1e-8:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = nll(d)
    theta_hat = math.exp((a + b) / 2.0)
    if -_profile(X, y, codes, counts, 0.0)[2] <= min(fc, fd):
        return 0.0
    return theta_hat


def residualize(table: ObservationTable, fit: LmmFit) -> np.ndarray:
    """Per-row y - b0 - b1*age - b2*sex (fixed effects only; the random
    intercept is deliberately not subtracted)."""
    b0, b1, b2 = fit.beta
    return table.y - b0 - b1 * table.age - b2 * table.sex


# ---------------------------------------------------------------------------
# Rank statistics


def _rank_codes(a) -> np.ndarray:
    """Each value of a 1D array as its index among the array's sorted
    distinct values (-0.0 and 0.0 are one value), from one sort."""
    return np.unique(a, return_inverse=True)[1]


def _average_ranks(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """Average ranks 1..n of the values coded by ``codes``, a 1D array or an
    (m, n) stack of rows, each any draw of the codes ``_rank_codes`` gave an
    array of length ``n_codes``: a value's rank is the number of values
    below it in its row plus half of its own count + 1, an exact
    half-integer. Each row is counted in its own ``n_codes`` bins at once."""
    rows = np.atleast_2d(codes)
    offset = rows + n_codes * np.arange(len(rows))[:, None]
    counts = np.bincount(offset.ravel(), minlength=len(rows) * n_codes)
    counts = counts.reshape(len(rows), n_codes)
    below = counts.cumsum(axis=1) - counts
    return (below + 0.5 * (counts + 1)).ravel()[offset].reshape(codes.shape)


def rankdata(a) -> np.ndarray:
    """Ranks 1..n of a 1D array, tied values sharing their average rank, by
    one sort and counting; the ranks equal ``scipy.stats.rankdata``'s
    bit for bit on NaN-free input; NaN must be rejected before."""
    return _average_ranks(_rank_codes(a), len(a))


def _reject_nan(name: str, values: np.ndarray) -> None:
    if np.isnan(values).any():
        raise ValueError(f"{name} holds NaN")


def spearman(x, y) -> float:
    """Spearman rank correlation of two samples of n values, with average
    ranks for ties. DegenerateInputError if either has zero rank variance;
    ValueError on NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape or len(y) < 3:
        raise ValueError("spearman needs two 1D arrays of n >= 3 values")
    _reject_nan("spearman x", x)
    _reject_nan("spearman y", y)
    rho = _rank_correlations(rankdata(x), rankdata(y))
    if math.isnan(rho):
        raise DegenerateInputError("zero rank variance")
    return float(rho)


def _rank_correlations(rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """Spearman's rho of the rank vectors along the last axis of ``rx``
    against those of ``ry``, leading axes broadcast; NaN, with no numpy
    warning, where either side has zero rank variance. Exact in any
    summation order: n ranks sum to n(n+1)/2, so centred ranks are exact
    multiples of 1/2, and the partial sums of their products, multiples of
    1/4, stay exact below 2**51, as they do for n up to about 10**5."""
    rx = rx - rx.mean(axis=-1, keepdims=True)
    ry = ry - ry.mean(axis=-1, keepdims=True)
    rxy = np.einsum("...n,...n->...", rx, ry)
    # centred half-integer ranks are all 0 exactly when the ranks are constant
    den = np.sqrt(np.einsum("...n,...n->...", rx, rx) * np.einsum("...n,...n->...", ry, ry))
    return np.divide(rxy, den, out=np.full_like(rxy, math.nan), where=den > 0)


def wilcoxon_signed_rank(a, b) -> tuple:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Equal pairs are zero differences and are dropped, so a pair that is inf
    in both samples counts as zero; a finite-vs-inf pair keeps its infinite
    difference and takes the top rank. Ties get average ranks. Exact p by
    sign-pattern dynamic programming for n <= 25, normal approximation with
    continuity (and tie) correction otherwise. Returns (W, p) where W is the
    positive-rank sum. NaN raises ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("wilcoxon needs two equal-length 1D arrays")
    _reject_nan("wilcoxon a", a)
    _reject_nan("wilcoxon b", b)
    differ = a != b
    d = a[differ] - b[differ]
    if len(d) == 0:
        raise DegenerateInputError("all differences are zero")
    n = len(d)
    codes = _rank_codes(np.abs(d))
    ranks = _average_ranks(codes, n)
    w_pos = float(ranks[d > 0].sum())

    if n <= WILCOXON_EXACT_MAX_N:
        p = _wilcoxon_exact_p(ranks, w_pos)
    else:
        mean = n * (n + 1) / 4.0
        tie_counts = np.bincount(codes)
        tie_term = float((tie_counts**3 - tie_counts).sum()) / 48.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        dev = w_pos - mean
        z = (dev - 0.5 * np.sign(dev)) / math.sqrt(var) if dev != 0 else 0.0
        p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return w_pos, p


def _wilcoxon_exact_p(ranks, w_pos) -> float:
    """Exact two-sided p = P(|W - EW| >= |w - EW|) by DP over doubled ranks
    (average ranks become integers when doubled)."""
    d2 = np.rint(2.0 * ranks).astype(np.int64)
    total = int(d2.sum())  # = 2 * n(n+1)/2, always even
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in d2:
        counts[r:] += counts[: total + 1 - r]
    mean2 = total / 2.0
    dev = abs(2.0 * w_pos - mean2)
    sums = np.arange(total + 1, dtype=np.float64)
    hits = counts[np.abs(sums - mean2) >= dev - 1e-9].sum()
    return float(hits / 2.0 ** len(d2))


# ---------------------------------------------------------------------------
# Bootstrap


@dataclass(frozen=True)
class StatSummary:
    """Percentile-bootstrap summary: mean over replicates with the 2.5/97.5
    percentile interval."""

    mean: float
    ci_low: float
    ci_high: float

    def format(self) -> str:
        return f"{self.mean:.2f} [{self.ci_low:.2f}, {self.ci_high:.2f}]"

    @classmethod
    def from_replicates(cls, replicates: np.ndarray) -> "StatSummary":
        """Summary of one statistic's replicates, a contiguous 1D array (its
        layout sets the summation order of the mean, down to the last bits)."""
        ordered = np.sort(replicates)
        return cls(mean=float(replicates.mean()), ci_low=_percentile(ordered, 2.5),
                   ci_high=_percentile(ordered, 97.5))


def _percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile`` of a sorted array, except next to an infinite order
    statistic, where the linear interpolation would compute inf - inf = nan:
    there the bound is the interpolation's limit, the infinite value (nan
    only between -inf and inf)."""
    h = (len(ordered) - 1) * (q / 100)
    below, above = ordered[math.floor(h)], ordered[math.ceil(h)]
    if below == above:
        return float(below)
    if math.isinf(below) and math.isinf(above):
        return math.nan
    if math.isinf(below) or math.isinf(above):
        return float(below if math.isinf(below) else above)
    return float(np.percentile(ordered, q))


def bootstrap_indices(n: int, seed: int, replicate: int, attempt: int = 0) -> np.ndarray:
    """Resample indices for one replicate from an independent stream derived
    from (seed, replicate); results never depend on evaluation order."""
    ss = np.random.SeedSequence(seed, spawn_key=(replicate, attempt))
    return np.random.default_rng(ss).integers(0, n, size=n)


# replicates whose resamples one statistic call evaluates, sized for memory:
# a block of correlation_report's ranks holds this many (n,) rows per method;
# on perfbench's 200-subject correlate, 16 raised the peak RSS by 0.8 MiB
# and 8 by 0.1 MiB, in the same time
BOOTSTRAP_BLOCK = 8


def bootstrap_replicates(data, statistic, n_boot: int, seed: int) -> np.ndarray:
    """Replicates of ``statistic`` over resamples of the 1D array ``data``,
    shaped (n_boot,) for a scalar statistic or (k, n_boot) for a length-k
    vector one, with contiguous rows.

    Replicate r resamples ``data`` at ``bootstrap_indices(n, seed, r)``. The
    statistic is called as ``statistic(resamples, axis=-1)`` on an (m, n)
    stack of up to ``BOOTSTRAP_BLOCK`` replicates' resamples, one per row,
    and returns (m,) values, or (k, m) for a vector statistic (the
    ``vectorized`` convention of ``scipy.stats.bootstrap``). A NaN in any
    component marks that replicate undefined: it alone is redrawn from
    attempts 1, 2, ... of its own stream, up to 10 attempts, so every
    component of a replicate comes from one resample and no other replicate
    moves; DegenerateInputError if all 10 are undefined."""
    if n_boot < 1:
        raise ValueError(f"n_boot must be >= 1, got {n_boot}")
    data = np.asarray(data)
    if data.ndim != 1:
        raise ValueError(f"bootstrap data must be 1D, got shape {data.shape}")
    n = len(data)
    if n < 2:
        raise ValueError(f"need >= 2 rows to bootstrap, got {n}")

    def evaluate(replicates, attempt):  # (m,) or (k, m) values on these draws
        idx = np.stack([bootstrap_indices(n, seed, r, attempt) for r in replicates])
        values = np.asarray(statistic(data[idx], axis=-1), dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[-1] != len(idx):
            raise ValueError(f"statistic returned shape {values.shape} for {len(idx)} resamples")
        return values

    blocks = []
    for start in range(0, n_boot, BOOTSTRAP_BLOCK):
        block = range(start, min(start + BOOTSTRAP_BLOCK, n_boot))
        first = evaluate(block, 0)
        values = np.array(first, ndmin=2)
        undefined = np.flatnonzero(np.isnan(values).any(axis=0))
        for attempt in range(1, 10):
            if not len(undefined):
                break
            values[:, undefined] = evaluate([block[j] for j in undefined], attempt)
            undefined = undefined[np.isnan(values[:, undefined]).any(axis=0)]
        if len(undefined):
            raise DegenerateInputError(
                f"statistic undefined on 10 consecutive redraws of replicate {block[undefined[0]]}"
            )
        blocks.append(values)
    replicates = np.concatenate(blocks, axis=1)
    return replicates[0] if first.ndim == 1 else replicates


def bootstrap(data, statistic, n_boot: int = 1000, seed: int = 0):
    """Percentile bootstrap of ``statistic`` over resamples of ``data``, a
    StatSummary for a scalar statistic, a list of one per component for a
    vector one. ``statistic(resamples, axis=-1)`` reduces an (m, n) stack of
    resamples to (m,) or (k, m) values, and NaN marks a replicate to redraw
    (see ``bootstrap_replicates``); ``np.mean`` and ``np.median`` qualify."""
    replicates = bootstrap_replicates(data, statistic, n_boot, seed)
    if replicates.ndim == 1:
        return StatSummary.from_replicates(replicates)
    return [StatSummary.from_replicates(r) for r in replicates]


Cell = namedtuple("Cell", "values summary")  # {subject_id: value}, StatSummary of the mean


def bootstrap_cells(rows, n_boot: int, seed: int) -> dict:
    """Group (subject_id, cell, value) rows into {cell: Cell} in sorted cell
    order, values in input order (which decides the resamples drawn), and
    bootstrap each cell's mean, the cells of one size sharing each
    replicate's resample; a one-subject cell's summary is its value. A
    repeated (subject_id, cell), a NaN value, a cell holding both inf and
    -inf, or a bootstrapped cell whose finite values could sum past the
    float64 range (max(n, n_boot) times the largest magnitude overflows)
    raises ValueError naming it; +-inf alone is kept (an exact refacing's
    PSNR is inf)."""
    groups: dict = {}
    for sid, key, value in rows:
        if math.isnan(value):
            raise ValueError(f"value of ({sid!r}, {key!r}) is NaN")
        values = groups.setdefault(key, {})
        if sid in values:
            raise ValueError(f"duplicate row for ({sid!r}, {key!r})")
        values[sid] = value
    for key, values in groups.items():
        if math.inf in values.values() and -math.inf in values.values():
            raise ValueError(f"cell {key!r} holds both inf and -inf, so its mean is undefined")
        # a resample sums n values and the summary n_boot means, each at most
        # the largest finite magnitude (inf + finite is inf, with no overflow)
        terms = max(len(values), n_boot) if len(values) > 1 else 0
        largest = max((abs(v) for v in values.values() if math.isfinite(v)), default=0.0)
        if math.isinf(terms * largest):
            raise ValueError(f"cell {key!r} holds values up to {largest:g} in magnitude, "
                             f"so a sum of {terms} of them overflows float64")
    summaries = {}
    for n in {len(values) for values in groups.values()}:
        keys = [key for key, values in groups.items() if len(values) == n]
        # one row per cell. take() gathers C-contiguous rows, whose means sum
        # in each cell's own a[idx].mean() order; A[:, idx] lays its rows out
        # strided, and their means can differ in the last bit
        A = np.array([list(groups[key].values()) for key in keys])
        found = (bootstrap(np.arange(n), lambda idx, axis: A.take(idx, 1).mean(axis=axis),
                           n_boot, seed)
                 if n > 1 else [StatSummary(*[float(v)] * 3) for v in A[:, 0]])
        summaries.update(zip(keys, found))
    return {key: Cell(values, summaries[key]) for key, values in sorted(groups.items())}


def significance_stars(p: float) -> str:
    """Star rendering used in the correlation figures; '****' for p <= 1e-4."""
    for threshold, stars in ((1e-4, "****"), (1e-3, "***"), (1e-2, "**"), (5e-2, "*")):
        if p <= threshold:
            return stars
    return "ns"


# ---------------------------------------------------------------------------
# Correlation report


def correlation_report(
    predictions: dict,
    table: ObservationTable,
    seed: int = 0,
    n_boot: int = 1000,
) -> dict:
    """The correlation report document that ``refaudit correlate`` writes:
    Spearman correlation between per-method predictions and mixed-model
    residuals, with bootstrap summaries (``methods``, a cell is significant
    when its 95% CI does not overlap 0) and pairwise Wilcoxon comparisons
    over paired replicates (identical resample indices across methods).
    No method, or one that predicts one value for every row (named), raises
    ValueError: there is no rank correlation to bootstrap.
    """
    if not predictions:
        raise ValueError("correlation report needs the predictions of at least one method")
    fit = fit_lmm(table)
    resid = residualize(table, fit)
    keys = table.keys()

    methods = sorted(predictions)
    for m in methods:
        missing = [k for k in keys if k not in predictions[m]]
        if missing:
            raise JoinError(
                f"method {m!r} is missing predictions for {len(missing)} keys: "
                f"{missing[:5]}{'...' if len(missing) > 5 else ''}",
                missing_keys=missing,
            )
    # one row per method, in sorted order
    aligned = np.array([[predictions[m][k] for k in keys] for m in methods], dtype=np.float64)

    _reject_nan("predictions", aligned)
    _reject_nan("residuals", resid)
    # each column is sorted once; a resample's ranks are counted from its codes
    columns = [_rank_codes(row) for row in aligned]
    for m, codes in zip(methods, columns):
        if not codes.any():
            raise ValueError(f"method {m!r} predicts one value for every row, "
                             "so its rank correlation is undefined")
    resid_codes = _rank_codes(resid)
    n = len(table)

    def rhos(idx, axis):  # (m, n) resamples of row indices, shared by every method
        # one count per method: one call over all k + 1 rows was never faster
        rx = np.stack([_average_ranks(codes[idx], n) for codes in columns])
        return _rank_correlations(rx, _average_ranks(resid_codes[idx], n))

    replicates = dict(zip(methods, bootstrap_replicates(np.arange(n), rhos, n_boot, seed)))
    cells = {}
    for m in methods:
        s = StatSummary.from_replicates(replicates[m])
        cells[m] = {"rho_mean": s.mean, "ci": [s.ci_low, s.ci_high], "cell": s.format(),
                    "significant": s.ci_low > 0 or s.ci_high < 0}

    pairwise = []
    for i, ma in enumerate(methods):
        for mb in methods[i + 1 :]:
            try:
                w, p = wilcoxon_signed_rank(replicates[ma], replicates[mb])
            except DegenerateInputError:
                w, p = 0.0, 1.0  # identical replicate streams
            pairwise.append({"a": ma, "b": mb, "w": w, "p": p, "stars": significance_stars(p)})

    return {
        "n_rows": n,
        "seed": seed,
        "n_boot": n_boot,
        # strict JSON has no inf: an exact fit's log-likelihood is the text "inf"
        "model": {"beta": list(fit.beta), "sigma_r2": fit.sigma_r2, "sigma_e2": fit.sigma_e2,
                  "loglik": fit.loglik if math.isfinite(fit.loglik) else "inf",
                  "criterion": ML_CRITERION},
        "methods": cells,
        "pairwise": pairwise,
        "conventions": dict(STATS_CONVENTIONS),
    }
