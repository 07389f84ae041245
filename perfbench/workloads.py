"""The benchmark's four closed-loop workloads.

Each workload has one client that makes its next call only after the
previous one has returned. A workload generates its inputs from the seed in
``setup`` (run in its own process), loads them in ``prepare`` (untimed),
makes its calls in ``run`` (the timed pass) and checks what they returned in
``verify``. Calls go through module attributes (``cli.main``,
``ddim.cascade_reface``, ...) looked up at call time, so a tracer that
patches those attributes sees them.

- demo: ``refaudit demo`` with its defaults (128^3 phantoms, 50 steps,
  eta 0, 1000 bootstrap replicates) on 2 subjects and 2 worker threads. The
  write path: every imaging layer, the thread pool and gzip NIfTI output.
- rescore: scores one subject's existing files one CLI call at a time (masd
  against three candidates, quality for two refacings). The read path:
  NIfTI reads, masks, surface and quality; no sampling and no writes.
- reface-eta1: ``mirror_fill`` and two ``cascade_reface`` calls at eta 1,
  the only workload that reaches the sampler's noise branch.
- stats: ``correlate`` on a 200-subject table and on a 12-subject one whose
  tied predictions make some bootstrap replicates redraw, ``masd --table
  --compare`` on a 200-subject table (normal-approximation Wilcoxon) and a
  20-subject one (exact Wilcoxon), and ``quality --table``. Statistics only.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refaudit
from refaudit import cli, ddim, deface, denoisers, masks, phantom, volume

ORACLE_TOLERANCE = 1e-9
FILES = ("original", "defaced", "removed", "refaced_oracle", "refaced_stub")


@dataclass
class Op:
    """One call of a pass. ``error`` is set when the call raised or exited
    nonzero, ``problems`` when its outputs failed a check."""

    name: str
    subject: str | None = None
    error: str | None = None
    value: object = None
    outputs: dict = field(default_factory=dict)  # output name -> bytes
    problems: list = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.subject} {self.name}" if self.subject else self.name


def _cli(name: str, argv: list, subject: str | None = None) -> Op:
    op = Op(name, subject)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising call is a failed operation
        op.error = f"raised {type(exc).__name__}: {exc}"
    else:
        if rc != 0:
            op.error = f"exit {rc}: {err.getvalue().strip()}"
    op.outputs["stdout"] = out.getvalue().encode()
    return op


def _call(op: Op, fn, *args):
    try:
        op.value = fn(*args)
    except Exception as exc:  # a raising call is a failed operation
        op.error = f"raised {type(exc).__name__}: {exc}"
    return op


def _csv_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _check_finite(op: Op, rows: list, columns) -> None:
    """Every metric must be finite, except the PSNR of an oracle refacing:
    it equals the original, and PSNR is +inf at zero error by convention."""
    for row in rows:
        oracle = row.get("image") in ("refaced-oracle", "refaced") and op.name != "quality stub"
        for col in columns:
            if row.get(col, "") == "":
                continue
            if oracle and col.startswith("psnr") and row[col] == "inf":
                continue
            if not math.isfinite(float(row[col])):
                op.problems.append(f"{col}={row[col]} is not finite")


def _check_oracle(op: Op, original, refaced, removed) -> None:
    """Inside ``removed`` the oracle refacing must reproduce the original."""
    inside = removed.data
    err = float(np.max(np.abs(refaced.data[inside] - original.data[inside]), initial=0.0))
    if not err <= ORACLE_TOLERANCE:
        op.problems.append(f"oracle refacing differs from the original by {err:.3g} inside removed")


def _subject_files(case, seed: int, out: Path) -> None:
    """Write one subject's demo images, exactly as ``refaudit demo`` writes
    them. With eta 0 the analytic denoisers make the cascade's output
    independent of the step count, so one step suffices."""
    vol, brain = case.volume, case.brain
    head = masks.head_mask(vol)
    defaced, removed = deface.quickshear(vol, brain, buffer_mm=10.0, head=head)
    config = ddim.CascadeConfig(sample_steps=1, seed=seed)
    factor = config.downsample_factor
    oracle = ddim.cascade_reface(
        defaced, removed, denoisers.VolumeDenoiser(volume.downsample(vol, factor)),
        denoisers.VolumeDenoiser(vol), config)
    filled = denoisers.mirror_fill(defaced, removed)
    stub = ddim.cascade_reface(
        defaced, removed, denoisers.VolumeDenoiser(volume.downsample(filled, factor)),
        denoisers.VolumeDenoiser(filled), config)
    sid = case.subject_id
    for name, vol_out in (("original", vol), ("defaced", defaced),
                          ("refaced_oracle", oracle), ("refaced_stub", stub)):
        volume.write_nifti_file(vol_out, out / f"{sid}_{name}.nii.gz")
    volume.write_mask_file(removed, out / f"{sid}_removed.nii.gz")


class Demo:
    name = "demo"

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.options = ["-n", "1", "--steps", "2", "--boot", "20"] if small else ["-n", "2"]

    def setup(self, inputs: Path) -> None:
        """The demo's only input is its argument list."""

    def prepare(self, inputs: Path) -> None:
        pass

    def run(self, out: Path, tracer) -> list:
        return [_cli("demo", ["demo", str(out / "demo"), *self.options, "--seed", str(self.seed)])]

    def verify(self, ops: list, out: Path) -> None:
        op = ops[0]
        out = out / "demo"
        if op.error:
            return
        for path in sorted(out.iterdir()):
            op.outputs[path.name] = path.read_bytes()
        masd_rows = _csv_rows(op.outputs["masd.csv"].decode())
        _check_finite(op, masd_rows, ["masd_mm"])
        for row in masd_rows:
            if row["method"] == "refaced-oracle" and row["masd_mm"] != "0.000":
                op.problems.append(f"{row['subject_id']} oracle masd prints {row['masd_mm']}")
        _check_finite(op, _csv_rows(op.outputs["quality.csv"].decode()),
                      ["psnr_head", "psnr_face", "ssim_head", "ssim_face"])
        for sid in sorted({row["subject_id"] for row in masd_rows}):
            _check_oracle(op, volume.read_nifti_file(out / f"{sid}_original.nii.gz"),
                          volume.read_nifti_file(out / f"{sid}_refaced_oracle.nii.gz"),
                          volume.read_mask_file(out / f"{sid}_removed.nii.gz"))


class Rescore:
    name = "rescore"

    def __init__(self, seed: int, small: bool):
        self.seed = seed

    def setup(self, inputs: Path) -> None:
        _subject_files(phantom.generate_cohort(1, self.seed)[0], self.seed, inputs)

    def prepare(self, inputs: Path) -> None:
        self.inputs = inputs
        self.sid = next(inputs.glob("*_original.nii.gz")).name.split("_")[0]

    def run(self, out: Path, tracer) -> list:
        sid = self.sid
        f = {name: str(self.inputs / f"{sid}_{name}.nii.gz") for name in FILES}
        calls = [
            (f"masd {method}", ["masd", f["original"], f[name], "--subject-id", sid,
                                "--method", method])
            for method, name in (("defaced", "defaced"), ("refaced-oracle", "refaced_oracle"),
                                 ("refaced-stub", "refaced_stub"))
        ] + [
            (f"quality {kind}", ["quality", f["original"], f["defaced"], f[f"refaced_{kind}"],
                                 "--removed", f["removed"], "--subject-id", sid])
            for kind in ("oracle", "stub")
        ]
        ops = []
        for name, argv in calls:
            with tracer.subject(sid) if tracer else contextlib.nullcontext():
                ops.append(_cli(name, argv, sid))
        return ops

    def verify(self, ops: list, out: Path) -> None:
        for op in ops:
            if op.error:
                continue
            rows = _csv_rows(op.outputs["stdout"].decode())
            if op.name.startswith("masd"):
                _check_finite(op, rows, ["masd_mm"])
                if op.name == "masd refaced-oracle" and rows[0]["masd_mm"] != "0.000":
                    op.problems.append(f"{op.subject} oracle masd prints {rows[0]['masd_mm']}")
            else:
                _check_finite(op, rows, ["psnr_head", "psnr_face", "ssim_head", "ssim_face"])


class RefaceEta1:
    name = "reface-eta1"

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.config = ddim.CascadeConfig(sample_steps=2 if small else 50, eta=1.0, seed=seed)

    def setup(self, inputs: Path) -> None:
        case = phantom.generate_cohort(1, self.seed)[0]
        head = masks.head_mask(case.volume)
        defaced, removed = deface.quickshear(case.volume, case.brain, buffer_mm=10.0, head=head)
        volume.write_nifti_file(case.volume, inputs / "original.nii")
        volume.write_nifti_file(defaced, inputs / "defaced.nii")
        volume.write_mask_file(removed, inputs / "removed.nii")

    def prepare(self, inputs: Path) -> None:
        self.original = volume.read_nifti_file(inputs / "original.nii")
        self.defaced = volume.read_nifti_file(inputs / "defaced.nii")
        self.removed = volume.read_mask_file(inputs / "removed.nii")

    def _reface(self, source):
        factor = self.config.downsample_factor
        low = denoisers.VolumeDenoiser(volume.downsample(source, factor))
        return ddim.cascade_reface(self.defaced, self.removed, low,
                                   denoisers.VolumeDenoiser(source), self.config)

    def run(self, out: Path, tracer) -> list:
        filled = _call(Op("mirror_fill"), denoisers.mirror_fill, self.defaced, self.removed)
        oracle = _call(Op("cascade oracle"), self._reface, self.original)
        stub = Op("cascade stub")
        if filled.error:
            stub.error = "no mirror fill"
        else:
            _call(stub, self._reface, filled.value)
        return [filled, oracle, stub]

    def verify(self, ops: list, out: Path) -> None:
        for op in ops:
            if op.error:
                continue
            data = op.value.data
            op.outputs["data"] = data.tobytes()
            if not np.isfinite(data).all():
                op.problems.append("non-finite voxels")
            if op.name == "cascade oracle":
                _check_oracle(op, self.original, op.value, self.removed)


class Stats:
    name = "stats"
    METHODS = ("dpm", "mirror", "popavg", "shuffled")
    DISTANCE_METHODS = {"popavg": 5.5, "dpm": 3.8, "stub": 4.1}
    TIES_SUBJECTS = 12
    IMAGES = {"defaced": (12.5, 3.0, 0.86, 0.02), "refaced-oracle": (60.0, 55.0, 0.999, 0.99),
              "refaced-stub": (15.2, 5.5, 0.90, 0.18)}
    REPORTS = {"correlate": "report.json", "correlate ties": "report_ties.json"}

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.subjects, self.paired_small = (30, 10) if small else (200, 20)
        self.boot = 50 if small else 1000

    def setup(self, inputs: Path) -> None:
        """A longitudinal table (3 visits, random intercept plus age and sex
        effects), per-method predictions of its residual, two distance
        tables, a quality table and a small longitudinal table with tied
        predictions."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(7,)))
        n = self.subjects
        pred = []

        def predict(row, resid):
            for method, strength in zip(self.METHODS, (1.0, 0.6, 0.3, 0.0)):
                guess = strength * resid + rng.normal(0.0, 2.0)
                pred.append([row[0], row[1], method, f"{guess:.6f}"])

        obs = _longitudinal(rng, n, predict)
        _write_csv(inputs / "observations.csv", OBSERVATION_COLUMNS, obs)
        _write_csv(inputs / "predictions.csv", PREDICTION_COLUMNS, pred)
        for tag, count in (("large", n), ("small", self.paired_small)):
            rows = [[f"s{i:03d}", method, f"{abs(rng.normal(mu, 1.2)):.3f}"]
                    for i in range(count) for method, mu in self.DISTANCE_METHODS.items()]
            _write_csv(inputs / f"distances_{tag}.csv", ["subject_id", "method", "masd_mm"], rows)
        rows = []
        for i in range(n):
            for image, (ph, pf, sh, sf) in self.IMAGES.items():
                rows.append([f"s{i:03d}", image, f"{rng.normal(ph, 0.5):.2f}",
                             f"{rng.normal(pf, 0.5):.2f}", f"{min(sh + rng.normal(0, 0.01), 1):.4f}",
                             f"{min(sf + rng.normal(0, 0.01), 1):.4f}"])
        _write_csv(inputs / "quality_table.csv",
                   ["subject_id", "image", "psnr_head", "psnr_face", "ssim_head", "ssim_face"], rows)
        # A small table whose "coarse" method predicts 0 on all but three
        # rows: about one resample in twenty draws none of them, spearman is
        # undefined there and correlation_report redraws the replicate.
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(8,)))
        pred = []

        def predict_ties(row, resid):
            pred.append([row[0], row[1], "dpm", f"{resid + rng.normal(0.0, 2.0):.6f}"])

        obs = _longitudinal(rng, self.TIES_SUBJECTS, predict_ties)
        hits = rng.choice(len(obs), size=3, replace=False)
        pred += [[row[0], row[1], "coarse", "1" if k in hits else "0"]
                 for k, row in enumerate(obs)]
        _write_csv(inputs / "observations_ties.csv", OBSERVATION_COLUMNS, obs)
        _write_csv(inputs / "predictions_ties.csv", PREDICTION_COLUMNS, pred)

    def prepare(self, inputs: Path) -> None:
        self.inputs = inputs
        self.schema = json.loads((Path(refaudit.__file__).parent / "schemas"
                                  / "correlate_report.schema.json").read_text())

    def run(self, out: Path, tracer) -> list:
        common = ["--boot", str(self.boot), "--seed", str(self.seed)]
        i = self.inputs
        return [
            *(_cli(name, ["correlate", str(i / f"observations{suffix}.csv"),
                          str(i / f"predictions{suffix}.csv"), *common,
                          "--out", str(out / self.REPORTS[name])])
              for name, suffix in (("correlate", ""), ("correlate ties", "_ties"))),
            *(_cli(f"masd table {tag}", ["masd", "--table", str(i / f"distances_{tag}.csv"),
                                         *common, "--compare", "popavg", "dpm"])
              for tag in ("large", "small")),
            _cli("quality table", ["quality", "--table", str(i / "quality_table.csv"), *common]),
        ]

    def verify(self, ops: list, out: Path) -> None:
        import jsonschema

        for op in ops:
            if op.error:
                continue
            if op.name in self.REPORTS:
                name = self.REPORTS[op.name]
                op.outputs[name] = (out / name).read_bytes()
                report = json.loads(op.outputs[name])
                try:
                    jsonschema.validate(report, self.schema)
                except jsonschema.ValidationError as exc:
                    op.problems.append(f"report does not match its schema: {exc.message}")
                if not all(math.isfinite(x) for x in _numbers(report)):
                    op.problems.append("report holds a non-finite number")
            else:
                rows = _csv_rows(op.outputs["stdout"].decode())
                _check_finite(op, rows, ["mean", "ci_low", "ci_high", "w", "p"])


OBSERVATION_COLUMNS = ["subject_id", "visit", "age", "sex", "y"]
PREDICTION_COLUMNS = ["subject_id", "visit", "method", "y_pred"]


def _longitudinal(rng, n: int, predict) -> list:
    """Rows of ``n`` subjects at 3 visits (random intercept plus age and sex
    effects); ``predict(row, residual)`` is called after each row is drawn."""
    age0 = rng.uniform(20.0, 80.0, n)
    sex = rng.integers(0, 2, n)
    intercept = rng.normal(0.0, 3.0, n)
    rows = []
    for i in range(n):
        for visit in range(3):
            age = age0[i] + 1.5 * visit
            resid = intercept[i] + rng.normal(0.0, 1.0)
            y = 30.0 + 0.4 * age + 2.0 * sex[i] + resid
            rows.append([f"s{i:03d}", visit, f"{age:.3f}", sex[i], f"{y:.6f}"])
            predict(rows[-1], resid)
    return rows


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, float) or (isinstance(doc, int) and not isinstance(doc, bool)):
        yield doc


WORKLOADS = {w.name: w for w in (Demo, Rescore, RefaceEta1, Stats)}
