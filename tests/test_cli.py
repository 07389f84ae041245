import csv
import gzip
import hashlib
import importlib.util
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refaudit.cli as cli
import refaudit.masks as masks
import refaudit.phantom as phantom
import refaudit.stats as stats
from refaudit.cli import main
from refaudit.ddim import CascadeConfig, SlabSpec
from refaudit.deface import quickshear
from refaudit.denoisers import mirror_fill
from refaudit.masks import head_mask
from refaudit.phantom import generate_cohort, generate_phantom
from refaudit.quality import quality_report
from refaudit.surface import face_distance_report
from refaudit.errors import FormatError, GeometryMismatchError
from refaudit.volume import (
    BinaryMask,
    Volume3D,
    read_nifti_file,
    write_mask_file,
    write_nifti,
    write_nifti_file,
)

from conftest import SMALL_PARAMS
from test_volume_io import HEADER_MUTATIONS, assemble_nifti, with_pixdim


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


def exit_code(args):
    """Exit code of the CLI, whether argparse or the command rejects ``args``."""
    try:
        return run_cli(args)[0]
    except SystemExit as exc:
        return exc.code


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


DISTANCE_HEADER = ["subject_id", "method", "masd_mm"]
QUALITY_HEADER = ["subject_id", "image", "psnr_head", "psnr_face", "ssim_head", "ssim_face"]


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


def distance_rows():
    return [[f"s{i}", "dpm", f"{0.5 + 0.1 * i:.3f}"] for i in range(3)]


def quality_rows():
    return [[f"s{i}", "refaced", f"{20 + i}", f"{11 + i}", "0.9", "0.2"] for i in range(3)]


def load_script(name):
    """A script under scripts/ imported as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_correlate_inputs(tmp_path, subjects, sexes, y=None, y_pred=None):
    """Observation and prediction CSVs for ``subjects`` subjects with two
    visits each, sex alternating over ``sexes``; ``y`` and ``y_pred`` map a
    (subject_id, visit) key to the cell text that replaces its value."""
    rng = np.random.default_rng(11)
    obs_rows, pred_rows = [], []
    for i in range(subjects):
        for visit in range(2):
            key = (f"s{i}", visit)
            obs_rows.append([*key, f"{rng.uniform(45, 75):.3f}", sexes[i % len(sexes)],
                             (y or {}).get(key, f"{rng.normal(0, 2):.4f}")])
            pred_rows.append([*key, "dpm", (y_pred or {}).get(key, f"{rng.normal():.4f}")])
    return (write_csv(tmp_path / "obs.csv", ["subject_id", "visit", "age", "sex", "y"], obs_rows),
            write_csv(tmp_path / "preds.csv", ["subject_id", "visit", "method", "y_pred"],
                      pred_rows))


def add_method(preds, method, values):
    """Append a method to the prediction CSV ``preds``: its k-th row holds
    ``values[k]`` for the key of the file's k-th row."""
    with open(preds, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    write_csv(preds, header, rows + [[sid, visit, method, value]
                                     for (sid, visit, _, _), value in zip(rows, values)])


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """One small phantom written to disk: original, defaced, removed, brain."""
    out = tmp_path_factory.mktemp("subject")
    cohort = generate_cohort(1, seed=17, base=SMALL_PARAMS)
    case = cohort[0]
    head = head_mask(case.volume)
    defaced, removed = quickshear(case.volume, case.brain, buffer_mm=8.0, head=head)
    paths = {
        "original": out / "orig.nii.gz",
        "defaced": out / "defaced.nii.gz",
        "removed": out / "removed.nii.gz",
    }
    write_nifti_file(case.volume, paths["original"])
    write_nifti_file(defaced, paths["defaced"])
    write_mask_file(removed, paths["removed"])
    return paths


@pytest.mark.parametrize("numpy_kwargs, python_kwargs", [
    ({"seed": np.uint32(3)}, {"seed": 3}),
    ({"sample_steps": np.int64(50)}, {"sample_steps": 50}),
    ({"eta": np.float32(0.5)}, {"eta": 0.5}),
    ({"slab": SlabSpec(np.int64(8), 4)}, {"slab": SlabSpec(8, 4)}),
    ({"downsample_factor": (np.int64(2),) * 3}, {"downsample_factor": (2, 2, 2)}),
], ids=["seed", "sample_steps", "eta", "slab", "downsample_factor"])
def test_numpy_config_scalars_write_as_their_python_twins(numpy_kwargs, python_kwargs):
    assert (cli._json_text(CascadeConfig(**numpy_kwargs).to_json_dict())
            == cli._json_text(CascadeConfig(**python_kwargs).to_json_dict()))


def test_numpy_phantom_dims_write_as_their_python_twins():
    numpy_dims = replace(SMALL_PARAMS, dims=tuple(np.int64(d) for d in SMALL_PARAMS.dims))
    assert (cli._json_text(generate_phantom(1, numpy_dims)[2].to_json_dict())
            == cli._json_text(generate_phantom(1, SMALL_PARAMS)[2].to_json_dict()))


@pytest.mark.parametrize("value, error", [(object(), TypeError), (math.inf, ValueError),
                                          (np.float32(math.nan), ValueError)])
def test_json_writer_rejects_what_strict_json_cannot_hold(value, error):
    with pytest.raises(error):
        cli._json_text({"value": value})


def test_demo_sampler_flags_default_to_the_config_defaults():
    args = cli.build_parser().parse_args(["demo", "out"])
    config = CascadeConfig()
    assert ((args.steps, args.eta, (args.downsample,) * 3, args.slab_size, args.overlap)
            == (config.sample_steps, config.eta, config.downsample_factor, SlabSpec().size,
                SlabSpec().overlap))


def test_thread_cap_env_var(monkeypatch):
    from refaudit.cli import thread_count

    monkeypatch.setenv("REFAUDIT_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("REFAUDIT_THREADS", "abc")
    with pytest.raises(ValueError, match="REFAUDIT_THREADS must be an integer, got 'abc'"):
        thread_count()
    monkeypatch.delenv("REFAUDIT_THREADS")
    assert thread_count() >= 1


def no_cohort(*args, **kwargs):
    raise AssertionError("generate_cohort called before the arguments were checked")


def small_cohort(n, seed):
    return generate_cohort(n, seed, base=SMALL_PARAMS)


@pytest.mark.parametrize("flag, value, message", [
    ("--eta", "-1", "eta must be finite and >= 0, got -1.0"),
    ("--eta", "nan", "eta must be finite and >= 0, got nan"),
    ("--steps", "0", "need 1 <= sample_steps <= t_steps"),
    ("--steps", "5000", "need 1 <= sample_steps <= t_steps"),
    ("--downsample", "0", "downsample factors must be positive"),
    ("--downsample", "129", "--downsample 129 exceeds the phantoms' 128 voxels"),
    ("--buffer-mm", "nan", "--buffer-mm: must be finite and >= 0, got nan"),
    ("--buffer-mm", "inf", "--buffer-mm: must be finite and >= 0, got inf"),
    ("--buffer-mm", "-1", "--buffer-mm: must be finite and >= 0, got -1.0"),
    ("--slab-size", "200", "nz=128 smaller than slab size 200"),
    ("--overlap", "5", "slab size 8 with overlap 5 puts a slice under three slabs"),
    ("--seed", "-1", "--seed: must be a non-negative integer, got -1"),
])
def test_bad_sampler_setting_exits_2_before_the_cohort_is_built(
        monkeypatch, tmp_path, capsys, flag, value, message):
    monkeypatch.setattr(cli, "generate_cohort", no_cohort)
    assert exit_code(["demo", str(tmp_path / "out"), "-n", "2", flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["phantom", "demo"])
def test_zero_count_exits_2_before_the_out_dir_is_made(monkeypatch, tmp_path, capsys, command):
    monkeypatch.setattr(cli, "generate_cohort", no_cohort)
    assert exit_code([command, str(tmp_path / "out"), "-n", "0"]) == 2
    assert "--count: must be a positive integer, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["phantom", "masd", "quality", "correlate"])
def test_negative_seed_exits_2_before_any_output(monkeypatch, tmp_path, capsys, command):
    monkeypatch.setattr(cli, "generate_cohort", no_cohort)
    monkeypatch.chdir(tmp_path)
    positional = {"phantom": ["out"], "correlate": ["obs.csv", "preds.csv"]}
    assert exit_code([command, *positional.get(command, []), "--seed", "-1"]) == 2
    assert "--seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_demo_manifest_lists_only_the_files_it_wrote(monkeypatch, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    monkeypatch.setattr(cli, "generate_cohort", small_cohort)
    assert run_cli(["demo", str(out), "-n", "2", "--steps", "1", "--boot", "20"])[0] == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    images = ("defaced", "original", "refaced_oracle", "refaced_stub", "removed")
    assert files == ["masd.csv", *(f"phantom-{i:03d}_{name}.nii.gz" for i in range(2)
                                   for name in images), "quality.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*files, "manifest.json",
                                                            "notes.txt"])


@pytest.mark.parametrize("existing", [False, True])
def test_failing_demo_leaves_only_what_was_there(monkeypatch, tmp_path, capsys, existing):
    # the second subject fails after both have written their volumes
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
    scored = []

    def fail_second(*args, **kwargs):
        scored.append(args[0])
        if len(scored) == 2:
            raise ValueError("scoring failed")
        return face_distance_report(*args, **kwargs)

    monkeypatch.setenv("REFAUDIT_THREADS", "1")
    monkeypatch.setattr(cli, "generate_cohort", small_cohort)
    monkeypatch.setattr(cli, "face_distance_report", fail_second)
    assert exit_code(["demo", str(out), "-n", "2", "--steps", "2", "--boot", "50"]) == 2
    assert "scoring failed" in capsys.readouterr().err
    assert len(scored) == 2
    if existing:
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
    else:
        assert not out.exists()

    # a phantom run whose second subject's volume write fails, after the
    # first subject wrote its volume, brain mask and record
    written = []

    def fail_second_volume(vol, path):
        written.append(Path(path).name)
        if len(written) == 2:
            raise OSError("disk full")
        write_nifti_file(vol, path)

    monkeypatch.setattr(cli, "write_nifti_file", fail_second_volume)
    assert exit_code(["phantom", str(out), "-n", "2", "--write-brain-masks"]) == 3
    assert "disk full" in capsys.readouterr().err
    assert written == ["phantom-000.nii.gz", "phantom-001.nii.gz"]
    if existing:
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
    else:
        assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_eta_exits_2_naming_eta(monkeypatch, tmp_path, capsys):
    # the noise term overflows, so the chain ends in inf * 0 = nan
    monkeypatch.setattr(cli, "generate_cohort", small_cohort)
    assert exit_code(["demo", str(tmp_path / "out"), "-n", "1", "--steps", "2",
                      "--eta", "1e308"]) == 2
    assert "DDIM chain at eta=1e+308 ended in non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_clamped_tail_geometry_runs(monkeypatch, tmp_path):
    # on 64 slices the 8/3 tiling's clamped slab replaces the last regular
    # one, which would otherwise put slices 56 and 57 under three slabs
    monkeypatch.setattr(cli, "generate_cohort", small_cohort)
    out = tmp_path / "out"
    rc, _ = run_cli(["demo", str(out), "-n", "1", "--steps", "1", "--boot", "50",
                     "--slab-size", "8", "--overlap", "3"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sampler_config"]["slab"] == {"size": 8, "overlap": 3}


def test_demo_outputs_do_not_depend_on_the_thread_count(monkeypatch, tmp_path):
    # phantom and demo share the cohort run; each must give the same bytes
    for argv, n_files in [
        (["demo", "-n", "2", "--steps", "2", "--boot", "50"],
         13),  # 5 NIfTIs per subject, masd.csv, quality.csv, manifest.json
        (["phantom", "-n", "2", "--write-brain-masks"],
         7),  # a volume, a brain mask and a JSON record per subject, manifest.json
    ]:
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("REFAUDIT_THREADS", threads)
            out = tmp_path / f"{argv[0]}-threads-{threads}"
            rc, _ = run_cli([argv[0], str(out), *argv[1:]])
            assert rc == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == n_files
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], (argv[0], name)


@pytest.mark.parametrize("command", ["phantom", "demo"])
def test_bad_thread_cap_exits_2_before_the_cohort_is_built(monkeypatch, tmp_path, capsys, command):
    monkeypatch.setattr(cli, "generate_cohort", no_cohort)
    monkeypatch.setenv("REFAUDIT_THREADS", "abc")
    rc, _ = run_cli([command, str(tmp_path / "out"), "-n", "2"])
    assert rc == 2
    assert "REFAUDIT_THREADS must be an integer, got 'abc'" in capsys.readouterr().err


class TestPhantomCommand:
    def test_writes_cohort_files(self, tmp_path):
        rc, _ = run_cli(["phantom", str(tmp_path / "c"), "-n", "3", "--seed", "2"])
        assert rc == 0
        names = sorted(p.name for p in (tmp_path / "c").iterdir())
        assert sum(n.endswith(".nii.gz") for n in names) == 3
        assert sum(n.endswith(".json") for n in names) == 4  # 3 subjects + manifest
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["tool"] == "refaudit" and manifest["seed"] == 2

    def test_same_seed_is_byte_identical(self, tmp_path):
        run_cli(["phantom", str(tmp_path / "a"), "-n", "2", "--seed", "5"])
        run_cli(["phantom", str(tmp_path / "b"), "-n", "2", "--seed", "5"])
        for name in ("phantom-000.nii.gz", "phantom-001.nii.gz", "phantom-000.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_outputs_match_their_recorded_digests(self, tmp_path):
        # voxels are hashed after decoding, since gzip bytes depend on the zlib build
        out = tmp_path / "c"
        rc, _ = run_cli(["phantom", str(out), "-n", "2", "--seed", "5", "--write-brain-masks"])
        assert rc == 0
        want = {
            "phantom-000.json": "bd80c6813c603042e43ee4f048cca0fe995994ba259d591ba001dd1a1180a45d",
            "phantom-000.nii.gz": "ce253712f1cfb7555ddb42de462b268c599ac699a0bc37fb1377e39064217606",
            "phantom-000_brain.nii.gz":
                "0f2f8a018f8df3bebc6675195784c9f04b3ce599a8c0e7cffb10db6b535e6c32",
            "phantom-001.json": "51285d4a9d2916085dff9f8f04e02e629f0d8d970ed344adb0f394626dc791fd",
            "phantom-001.nii.gz": "a4e16664e5f893d119f568d9be651d774e8067f9db971521f368abce89d849eb",
            "phantom-001_brain.nii.gz":
                "8d881eb199b973ab2cb547da666227e9dfb5dd4225a11e191a13fd3457a24da8",
        }
        got = {}
        for name in want:
            path = out / name
            data = (path.read_text().encode() if path.suffix == ".json"
                    else read_nifti_file(path).data.tobytes())
            got[name] = hashlib.sha256(data).hexdigest()
        assert got == want

    def test_invalid_out_dir_exits_2_with_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc, _ = run_cli(["phantom", str(blocker), "-n", "1"])
        assert rc == 2
        assert str(blocker) in capsys.readouterr().err


class TestMasdCommand:
    def test_self_distance_is_zero(self, small_files):
        rc, out = run_cli(["masd", str(small_files["original"]), str(small_files["original"]),
                           "--subject-id", "p0", "--method", "self"])
        assert rc == 0
        rows = csv_rows(out)
        assert rows == [{"subject_id": "p0", "method": "self", "masd_mm": "0.000"}]

    def test_matches_library_recomputation(self, small_files):
        rc, out = run_cli(["masd", str(small_files["original"]), str(small_files["defaced"])])
        value = float(csv_rows(out)[0]["masd_mm"])
        orig = read_nifti_file(small_files["original"])
        defaced = read_nifti_file(small_files["defaced"])
        want = face_distance_report(orig, {"defaced": defaced}, head=head_mask(orig))["defaced"]
        assert value == pytest.approx(want, abs=5e-4)  # CLI prints 3 decimals

    def test_directed_flag(self, small_files):
        _, out_sym = run_cli(["masd", str(small_files["original"]), str(small_files["defaced"])])
        _, out_dir = run_cli(["masd", str(small_files["original"]), str(small_files["defaced"]),
                              "--directed"])
        orig = read_nifti_file(small_files["original"])
        defaced = read_nifti_file(small_files["defaced"])
        assert float(csv_rows(out_dir)[0]["masd_mm"]) == pytest.approx(
            face_distance_report(orig, {"defaced": defaced}, directed=True,
                                 head=head_mask(orig))["defaced"], abs=5e-4)
        assert out_sym != out_dir

    def test_sform_file_with_another_pixdim_is_the_same_geometry(self, small_files, tmp_path):
        copy = tmp_path / "copy.nii"
        raw = gzip.decompress(small_files["original"].read_bytes())
        copy.write_bytes(with_pixdim(raw, (1.0, 1.0, 1.0)))
        rc, out = run_cli(["masd", str(small_files["original"]), str(copy)])
        assert rc == 0
        assert csv_rows(out)[0]["masd_mm"] == "0.000"

    def test_unreadable_file_exits_3(self, tmp_path):
        rc, _ = run_cli(["masd", str(tmp_path / "nope.nii"), str(tmp_path / "nope.nii")])
        assert rc == 3

    def test_table_with_unwritable_summary_exits_3_before_any_csv(self, tmp_path):
        table = write_csv(tmp_path / "d.csv", DISTANCE_HEADER, distance_rows())
        rc, out = run_cli(["masd", "--table", table, "--boot", "20", "--summary", str(tmp_path)])
        assert rc == 3 and out == ""

    def test_table_aggregation_matches_bootstrap(self, tmp_path):
        rng = np.random.default_rng(0)
        values = {f"s{i:02d}": 0.5 + 0.05 * rng.standard_normal() for i in range(15)}
        table = tmp_path / "d.csv"
        with open(table, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "method", "masd_mm"])
            for sid, v in values.items():
                w.writerow([sid, "dpm", f"{v:.6f}"])
        rc, out = run_cli(["masd", "--table", str(table), "--boot", "400", "--seed", "9"])
        assert rc == 0
        row = csv_rows(out)[0]
        vals = np.array([float(f"{v:.6f}") for v in values.values()])
        want = stats.bootstrap(vals, np.mean, n_boot=400, seed=9)
        assert float(row["mean"]) == pytest.approx(want.mean, abs=5e-4)
        assert row["cell"] == want.format()

    def test_compare_pairs_per_subject_distances(self, tmp_path):
        # cohort comparison convention: Wilcoxon over per-subject paired distances
        rng = np.random.default_rng(4)
        subjects = [f"s{i:02d}" for i in range(15)]
        pop = {s: 0.8 + 0.1 * rng.standard_normal() for s in subjects}
        dpm = {s: pop[s] - 0.3 + 0.05 * rng.standard_normal() for s in subjects}
        table = tmp_path / "d.csv"
        with open(table, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "method", "masd_mm"])
            for s in subjects:
                w.writerow([s, "popavg", f"{pop[s]:.6f}"])
                w.writerow([s, "dpm", f"{dpm[s]:.6f}"])
        rc, out = run_cli(["masd", "--table", str(table), "--boot", "50",
                           "--seed", "1", "--compare", "popavg", "dpm"])
        assert rc == 0
        wrow = [r for r in csv_rows(out) if r["kind"] == "wilcoxon"][0]
        a = np.array([float(f"{pop[s]:.6f}") for s in subjects])
        b = np.array([float(f"{dpm[s]:.6f}") for s in subjects])
        w_want, p_want = stats.wilcoxon_signed_rank(a, b)
        assert float(wrow["w"]) == pytest.approx(w_want)
        assert float(wrow["p"]) == pytest.approx(p_want, rel=1e-4)
        assert int(wrow["n"]) == len(subjects)

    def test_compare_of_three_subjects_gets_the_exact_p(self, tmp_path):
        rows = [[f"s{i}", m, f"{d + i:.3f}"] for i in range(3) for m, d in (("a", 1), ("b", 0))]
        table = write_csv(tmp_path / "d.csv", DISTANCE_HEADER, rows)
        rc, out = run_cli(["masd", "--table", table, "--boot", "20", "--compare", "a", "b"])
        assert rc == 0
        wrow = [r for r in csv_rows(out) if r["kind"] == "wilcoxon"][0]
        # three positive differences: W = 6, and 2 of the 8 sign patterns are as extreme
        assert (float(wrow["w"]), float(wrow["p"]), int(wrow["n"])) == (6.0, 0.25, 3)


class TestQualityCommand:
    def test_identical_refaced_scores_one(self, small_files):
        rc, out = run_cli([
            "quality", str(small_files["original"]), str(small_files["defaced"]),
            str(small_files["original"]), "--removed", str(small_files["removed"]),
            "--subject-id", "p0",
        ])
        assert rc == 0
        rows = {r["image"]: r for r in csv_rows(out)}
        assert rows["refaced"]["ssim_head"] == "1.0000"
        assert rows["refaced"]["psnr_head"] == "inf"

    def test_summary_of_an_exact_refacing_is_strict_json_with_inf_as_text(self, small_files,
                                                                          tmp_path):
        summary = tmp_path / "q.json"
        rc, out = run_cli([
            "quality", str(small_files["original"]), str(small_files["defaced"]),
            str(small_files["original"]), "--removed", str(small_files["removed"]),
            "--summary", str(summary),
        ])
        assert rc == 0
        records = {r["image"]: r for r in json.loads(summary.read_text(),
                                                     parse_constant=reject_nan)["records"]}
        assert records["refaced"]["psnr_face"] == "inf" == csv_rows(out)[1]["psnr_face"]
        assert records["refaced"]["psnr_head"] == "inf"
        assert isinstance(records["defaced"]["psnr_face"], float)

    def test_unwritable_summary_exits_3_before_any_csv(self, small_files, tmp_path):
        rc, out = run_cli([
            "quality", str(small_files["original"]), str(small_files["defaced"]),
            str(small_files["original"]), "--removed", str(small_files["removed"]),
            "--summary", str(tmp_path),
        ])
        assert rc == 3 and out == ""

    def test_deterministic_output(self, small_files):
        args = ["quality", str(small_files["original"]), str(small_files["defaced"]),
                str(small_files["original"]), "--removed", str(small_files["removed"])]
        assert run_cli(args) == run_cli(args)

    def test_geometry_mismatch_exits_4(self, small_files, tmp_path):
        import refaudit as ra

        other, _, _ = ra.generate_phantom(0)  # default 128^3 grid
        path = tmp_path / "other.nii.gz"
        write_nifti_file(other, path)
        rc, _ = run_cli(["quality", str(small_files["original"]), str(path),
                         str(small_files["original"]), "--removed", str(small_files["removed"])])
        assert rc == 4

    def test_table_aggregation_matches_bootstrap(self, tmp_path):
        rng = np.random.default_rng(1)
        table = tmp_path / "q.csv"
        rows = []
        for i in range(12):
            rows.append({"subject_id": f"s{i}", "image": "refaced",
                         "psnr_head": f"{20 + rng.standard_normal():.4f}",
                         "psnr_face": f"{11 + rng.standard_normal():.4f}",
                         "ssim_head": f"{0.9 + 0.01 * rng.standard_normal():.5f}",
                         "ssim_face": f"{0.2 + 0.01 * rng.standard_normal():.5f}"})
        with open(table, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        rc, out = run_cli(["quality", "--table", str(table), "--boot", "300", "--seed", "3"])
        assert rc == 0
        got = {(r["image"], r["metric"]): r for r in csv_rows(out)}
        vals = np.array([float(r["psnr_head"]) for r in rows])
        want = stats.bootstrap(vals, np.mean, n_boot=300, seed=3)
        assert got[("refaced", "psnr_head")]["cell"] == want.format()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_table_equals_one_bootstrap_per_metric(self, tmp_path):
        # every (image, metric) cell shares its size's resamples; the output
        # is that of four bootstrap_cells calls, one per metric, byte for byte
        rng = np.random.default_rng(8)
        rows = [[f"s{i:02d}", image, *(f"{v:.3f}" for v in rng.normal(20.0, 4.0, 4))]
                for image, n in (("refaced", 9), ("defaced", 9), ("stub", 14), ("one", 1))
                for i in rng.permutation(n)]
        rows[3][2] = "inf"
        rows[20][5] = "-inf"
        table = write_csv(tmp_path / "q.csv", QUALITY_HEADER, rows)
        rc, out = run_cli(["quality", "--table", table, "--boot", "150", "--seed", "5"])
        assert rc == 0

        cells = {metric: stats.bootstrap_cells([(r[0], r[1], float(r[k])) for r in rows], 150, 5)
                 for k, metric in enumerate(cli.QUALITY_METRICS, start=2)}
        want = io.StringIO()
        cli._write_csv(want, ["image", "metric", "n", "mean", "ci_low", "ci_high", "cell"],
                       [[image, metric, len(values), cli._fmt(s.mean, 2), cli._fmt(s.ci_low, 2),
                         cli._fmt(s.ci_high, 2), s.format()]
                        for image in cells["psnr_head"] for metric in cli.QUALITY_METRICS
                        for values, s in [cells[metric][image]]])
        assert out == want.getvalue()
        assert len(csv_rows(out)) == 16


class TestCorrelateCommand:
    def write_inputs(self, tmp_path, perfect=True):
        rng = np.random.default_rng(8)
        sid, visit, age, sex, y = [], [], [], [], []
        for i in range(50):
            for v in range(2):
                sid.append(f"s{i:03d}")
                visit.append(v)
                age.append(rng.uniform(45, 75))
                sex.append(i % 2)
                y.append(20 - 0.3 * age[-1] + 2.5 * sex[-1] + rng.normal(0, 2))
        obs = tmp_path / "obs.csv"
        with open(obs, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "visit", "age", "sex", "y"])
            for row in zip(sid, visit, age, sex, y):
                w.writerow(row)
        table = stats.ObservationTable.from_csv(obs)
        res = stats.residualize(table, stats.fit_lmm(table))
        preds = tmp_path / "preds.csv"
        with open(preds, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "visit", "method", "y_pred"])
            for k, key in enumerate(table.keys()):
                value = res[k] if perfect else rng.standard_normal()
                w.writerow([key[0], key[1], "dpm", f"{value:.6f}"])
        return obs, preds

    def test_perfect_predictions_get_rho_one(self, tmp_path):
        obs, preds = self.write_inputs(tmp_path)
        rc, out = run_cli(["correlate", str(obs), str(preds), "--boot", "100", "--seed", "0"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["methods"]["dpm"]["rho_mean"] == pytest.approx(1.0)
        assert doc["methods"]["dpm"]["cell"] == "1.00 [1.00, 1.00]"

    def test_report_validates_against_packaged_schema(self, tmp_path):
        import importlib.resources as ir

        import jsonschema

        obs, preds = self.write_inputs(tmp_path)
        rc, out = run_cli(["correlate", str(obs), str(preds), "--boot", "50", "--seed", "1"])
        schema = json.loads(
            ir.files("refaudit").joinpath("schemas/correlate_report.schema.json").read_text()
        )
        jsonschema.validate(json.loads(out), schema)

    def test_exact_fit_report_is_strict_json_with_inf_as_text(self, tmp_path):
        import importlib.resources as ir

        import jsonschema

        constant = {(f"s{i}", visit): "5" for i in range(6) for visit in range(2)}
        obs, preds = write_correlate_inputs(tmp_path, 6, (0, 1), y=constant)
        rc, out = run_cli(["correlate", obs, preds, "--boot", "20"])
        assert rc == 0
        doc = json.loads(out, parse_constant=reject_nan)
        assert doc["model"]["loglik"] == "inf"
        schema = json.loads(
            ir.files("refaudit").joinpath("schemas/correlate_report.schema.json").read_text()
        )
        jsonschema.validate(doc, schema)

    def test_out_flag_writes_file(self, tmp_path):
        obs, preds = self.write_inputs(tmp_path)
        target = tmp_path / "report.json"
        rc, out = run_cli(["correlate", str(obs), str(preds), "--boot", "50",
                           "--seed", "1", "--out", str(target)])
        assert rc == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["kind"] == "correlation-report"
        assert doc["version"]

    @pytest.mark.parametrize("boot", [3, 4])
    def test_two_methods_on_fewer_than_five_replicates(self, tmp_path, boot):
        obs, preds = write_correlate_inputs(tmp_path, 10, (0, 1))
        add_method(preds, "popavg", [f"{v:.4f}" for v in np.random.default_rng(5).normal(size=20)])
        out = tmp_path / "report.json"
        rc, _ = run_cli(["correlate", obs, preds, "--boot", str(boot), "--out", str(out)])
        assert rc == 0
        [pair] = json.loads(out.read_text())["pairwise"]
        assert (pair["a"], pair["b"]) == ("dpm", "popavg") and 0 < pair["p"] <= 1

    def test_constant_prediction_method_exits_2_naming_it(self, tmp_path, capsys):
        obs, preds = write_correlate_inputs(tmp_path, 10, (0, 1))
        add_method(preds, "flat", ["1.5"] * 20)
        out = tmp_path / "report.json"
        rc, _ = run_cli(["correlate", obs, preds, "--boot", "20", "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "method 'flat' predicts one value" in capsys.readouterr().err

    def test_join_failure_exits_5(self, tmp_path, capsys):
        obs, preds = self.write_inputs(tmp_path)
        lines = preds.read_text().splitlines()
        preds.write_text("\n".join(lines[:-1]) + "\n")  # drop one key
        rc, _ = run_cli(["correlate", str(obs), str(preds)])
        assert rc == 5
        assert "missing" in capsys.readouterr().err


class TestDemoCommand:
    def test_single_subject_demo_artifacts(self, tmp_path):
        out_dir = tmp_path / "demo"
        rc, _ = run_cli(["demo", str(out_dir), "-n", "1", "--seed", "3",
                         "--steps", "10", "--boot", "50"])
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["sampler_config"]["sample_steps"] == 10
        assert manifest["sampler_config"]["slab"] == {"size": 8, "overlap": 4}
        assert manifest["seed"] == 3 and manifest["version"]
        masd_rows = csv_rows((out_dir / "masd.csv").read_text())
        by_method = {r["method"]: float(r["masd_mm"]) for r in masd_rows}
        assert by_method["refaced-oracle"] == 0.0
        assert by_method["refaced-stub"] < by_method["defaced"]
        quality_rows = csv_rows((out_dir / "quality.csv").read_text())
        oracle = [r for r in quality_rows if r["image"] == "refaced-oracle"][0]
        assert float(oracle["ssim_head"]) == 1.0
        for name in ("phantom-000_original.nii.gz", "phantom-000_defaced.nii.gz",
                     "phantom-000_removed.nii.gz", "phantom-000_refaced_oracle.nii.gz",
                     "phantom-000_refaced_stub.nii.gz"):
            assert (out_dir / name).exists()

    def test_single_subject_tables_aggregate_as_the_demo_does(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "generate_cohort", small_cohort)
        out = tmp_path / "demo"
        assert run_cli(["demo", str(out), "-n", "1", "--steps", "1", "--boot", "50"])[0] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        summary = tmp_path / "masd.json"
        rc, text = run_cli(["masd", "--table", str(out / "masd.csv"), "--boot", "50",
                            "--summary", str(summary)])
        assert rc == 0
        assert json.loads(summary.read_text())["methods"] == manifest["masd_cells"]
        for method, cell in manifest["masd_cells"].items():
            mean = cell.split()[0]
            assert cell == f"{mean} [{mean}, {mean}]", method
        assert [r["n"] for r in csv_rows(text)] == ["1"] * 3
        rc, text = run_cli(["quality", "--table", str(out / "quality.csv"), "--boot", "50"])
        assert rc == 0
        assert [r["n"] for r in csv_rows(text)] == ["1"] * 12


class TestOriginalSideOnce:
    def test_demo_subject_builds_one_head_mask_of_the_original(self, monkeypatch, tmp_path):
        masked = []

        def counting_head_mask(vol):
            masked.append(vol)
            return real(vol)

        real = masks.head_mask
        for name, module in list(sys.modules.items()):
            if name == "refaudit" or name.startswith("refaudit."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counting_head_mask)
        case = generate_cohort(1, seed=5, base=SMALL_PARAMS)[0]
        cli._demo_subject(case, tmp_path, CascadeConfig(sample_steps=1, seed=5), 10.0)
        # the original's mask, then one per candidate inside face_distance_report
        assert len(masked) == 4
        assert sum(vol is case.volume for vol in masked) == 1

    @pytest.mark.parametrize("function", ["quickshear", "face_distance_report",
                                          "quality_report"])
    def test_shifted_head_mask_is_a_geometry_mismatch(self, small_phantom, small_head,
                                                      function):
        vol, brain, _ = small_phantom
        affine = small_head.affine.copy()
        affine[0, 3] += 1.0
        shifted = replace(small_head, affine=affine)
        calls = {
            "quickshear": lambda: quickshear(vol, brain, buffer_mm=10.0, head=shifted),
            "face_distance_report": lambda: face_distance_report(vol, {"self": vol},
                                                                 head=shifted),
            "quality_report": lambda: quality_report(vol, {"self": vol}.items(), small_head,
                                                     head=shifted),
        }
        with pytest.raises(GeometryMismatchError):
            calls[function]()

    @staticmethod
    def demo_subject_writes(monkeypatch, tmp_path, case):
        """The names ``cli.write_nifti_file`` is called with while ``case``
        runs through ``_demo_subject``."""
        written = []

        def counting_write(vol, path):
            written.append(Path(path).name)
            return real(vol, path)

        real = cli.write_nifti_file
        monkeypatch.setattr(cli, "write_nifti_file", counting_write)
        cli._demo_subject(case, tmp_path, CascadeConfig(sample_steps=1, seed=5), 10.0)
        return written

    def test_oracle_file_is_a_copy_of_the_originals(self, monkeypatch, tmp_path):
        # the oracle's float32 payload is the original's: the file is copied,
        # not compressed a second time
        case = generate_cohort(1, seed=5, base=SMALL_PARAMS)[0]
        written = self.demo_subject_writes(monkeypatch, tmp_path, case)
        sid = case.subject_id
        assert written == [f"{sid}_original.nii.gz", f"{sid}_defaced.nii.gz",
                           f"{sid}_removed.nii.gz", f"{sid}_refaced_stub.nii.gz"]
        assert ((tmp_path / f"{sid}_refaced_oracle.nii.gz").read_bytes()
                == (tmp_path / f"{sid}_original.nii.gz").read_bytes())

    def test_an_oracle_that_differs_is_written(self, monkeypatch, tmp_path):
        refaced = []

        def shifted_cascade(*args, **kwargs):
            vol = real(*args, **kwargs)
            if not refaced:  # the oracle is refaced first
                vol = vol.with_data(vol.data + 0.5)
            refaced.append(vol)
            return vol

        real = cli.cascade_reface
        monkeypatch.setattr(cli, "cascade_reface", shifted_cascade)
        case = generate_cohort(1, seed=5, base=SMALL_PARAMS)[0]
        written = self.demo_subject_writes(monkeypatch, tmp_path, case)
        path = tmp_path / f"{case.subject_id}_refaced_oracle.nii.gz"
        assert path.name in written
        assert np.array_equal(read_nifti_file(path).data, refaced[0].data.astype(np.float32))
        assert not np.array_equal(read_nifti_file(path).data, case.volume.data.astype(np.float32))


SCIPY_SUBMODULES = ("scipy.ndimage", "scipy.spatial", "scipy.stats")


def child_env(**env) -> dict:
    """This process's environment plus ``env``, with the refaudit under test
    first on ``PYTHONPATH``."""
    import refaudit

    src = str(Path(refaudit.__file__).resolve().parents[1])
    return {**os.environ, **env,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def fresh_cli(argv, prelude="", **env):
    """Run ``cli.main(argv)`` (or, for ``argv`` None, only import ``refaudit``
    and ``refaudit.cli``) in a fresh interpreter, after the Python lines
    ``prelude``, with ``env`` added to the environment. Returns the exit code
    and those of ``SCIPY_SUBMODULES`` the process loaded."""
    env = child_env(**env)
    code = "\n".join([
        "import json, sys",
        "import refaudit, refaudit.cli as cli",
        prelude,
        "argv = json.loads(sys.argv[1])",
        "rc = None if argv is None else cli.main(argv)",
        f"print(json.dumps([rc, [m for m in {SCIPY_SUBMODULES!r} if m in sys.modules]]))",
    ])
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    rc, loaded = json.loads(done.stdout.splitlines()[-1])
    return rc, loaded


def child_peak_rss_mib(argv, **env) -> float:
    """The peak RSS, in MiB, of ``refaudit argv`` run to success in a fresh
    interpreter with ``env`` added to the environment. ``os.wait4`` reports
    that child's own peak, where ``RUSAGE_CHILDREN`` keeps the largest of
    every child this process has waited for."""
    proc = subprocess.Popen([sys.executable, "-m", "refaudit.cli", *argv], env=child_env(**env),
                            stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.returncode = 0  # reaped here, so Popen must not wait for it again
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return usage.ru_maxrss / 1024  # KiB on Linux


class TestCohortRun:
    """``phantom`` and ``demo`` rasterize each phantom on the pool thread that
    runs its subject, and free it with the subject."""

    def test_each_phantom_is_built_once_on_a_pool_thread(self, monkeypatch, tmp_path):
        built, cohorts = [], []

        def counting(seed, params=None):
            built.append(threading.current_thread())
            return real(seed, params)

        def kept_cohort(n, seed):
            cohorts.append(small_cohort(n, seed))
            return cohorts[-1]

        real = phantom.generate_phantom
        monkeypatch.setattr(phantom, "generate_phantom", counting)
        monkeypatch.setattr(cli, "generate_cohort", kept_cohort)
        monkeypatch.setenv("REFAUDIT_THREADS", "2")
        for argv in (["phantom", "-n", "3", "--write-brain-masks"],
                     ["demo", "-n", "3", "--steps", "1", "--boot", "20"]):
            built.clear()
            assert run_cli([argv[0], str(tmp_path / argv[0]), *argv[1:]])[0] == 0
            assert len(built) == 3, argv[0]
            assert threading.main_thread() not in built, argv[0]
        # the cohort's own cases stay unbuilt: reading one rasterizes it now
        built.clear()
        for cohort in cohorts:
            for case in cohort:
                case.volume
        assert len(built) == 6

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_peak_rss_does_not_grow_with_the_subject_count(self, tmp_path):
        # one phantom is 18 MiB (a float64 volume and a bool brain mask); a
        # run that held all its phantoms grew by 72 MiB from 2 subjects to 6
        peaks = {n: child_peak_rss_mib(["phantom", str(tmp_path / f"n{n}"), "-n", str(n)],
                                       REFAUDIT_THREADS="1")
                 for n in (2, 6)}
        assert peaks[6] - peaks[2] < 18.0, peaks


class TestImportFootprint:
    """scipy.stats, scipy.ndimage and scipy.spatial each cost a process
    tenths of a second and tens of MiB to import; refaudit imports each at
    its first call, so a command loads only what it calls."""

    def test_importing_refaudit_loads_no_scipy_submodule(self):
        assert fresh_cli(None) == (None, [])

    @pytest.mark.parametrize("command", ["correlate", "masd-table", "quality-table", "phantom"])
    def test_statistics_and_phantom_commands_load_none(self, tmp_path, command):
        obs, preds = write_correlate_inputs(tmp_path, 6, (0, 1))
        argv = {
            "correlate": ["correlate", obs, preds, "--boot", "20", "--out",
                          str(tmp_path / "c.json")],
            "masd-table": ["masd", "--table", write_csv(tmp_path / "d.csv", DISTANCE_HEADER,
                                                        distance_rows()), "--boot", "20"],
            "quality-table": ["quality", "--table", write_csv(tmp_path / "q.csv", QUALITY_HEADER,
                                                              quality_rows()), "--boot", "20"],
            "phantom": ["phantom", str(tmp_path / "phantoms"), "-n", "1"],
        }[command]
        assert fresh_cli(argv) == (0, [])

    def test_scoring_a_pair_loads_what_it_calls(self, small_files):
        original, defaced = str(small_files["original"]), str(small_files["defaced"])
        assert fresh_cli(["masd", original, defaced]) == (0, ["scipy.ndimage", "scipy.spatial"])
        assert fresh_cli(["quality", original, defaced, original, "--removed",
                          str(small_files["removed"])]) == (0, ["scipy.ndimage"])

    def test_first_scipy_calls_on_two_threads_write_the_one_thread_bytes(self, tmp_path):
        # the two subject threads reach head_mask's ndimage.label, the first
        # scipy call of the process, at about the same moment
        prelude = ("from refaudit.phantom import PhantomParams, generate_cohort\n"
                   f"cli.generate_cohort = lambda n, seed: generate_cohort(n, seed, base={SMALL_PARAMS!r})")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            rc, loaded = fresh_cli(["demo", str(out), "-n", "2", "--steps", "2", "--boot", "50"],
                                   prelude, REFAUDIT_THREADS=threads)
            assert (rc, loaded) == (0, ["scipy.ndimage", "scipy.spatial"])
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 13  # 5 NIfTIs per subject, masd.csv, quality.csv, manifest.json
        assert outputs[0] == outputs[1]


class TestHostileInputs:
    @pytest.mark.parametrize("boot", ["0", "-3"])
    @pytest.mark.parametrize("command", ["masd", "quality", "correlate", "demo"])
    def test_nonpositive_boot_exits_2_before_any_work(self, tmp_path, capsys, command, boot):
        if command == "masd":
            args = ["masd", "--table", write_csv(tmp_path / "d.csv", DISTANCE_HEADER, distance_rows())]
        elif command == "quality":
            args = ["quality", "--table", write_csv(tmp_path / "q.csv", QUALITY_HEADER, quality_rows())]
        elif command == "correlate":
            args = ["correlate", *map(str, TestCorrelateCommand().write_inputs(tmp_path))]
        else:
            args = ["demo", str(tmp_path / "demo"), "-n", "1", "--steps", "1"]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--boot", boot])
        assert exc.value.code == 2
        assert "--boot: must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "demo").exists()

    def test_duplicate_distance_row_exits_2(self, tmp_path, capsys):
        table = write_csv(tmp_path / "d.csv", DISTANCE_HEADER,
                          distance_rows() + [["s1", "dpm", "0.9"]])
        rc, _ = run_cli(["masd", "--table", table, "--boot", "20"])
        assert rc == 2
        assert "duplicate row for ('s1', 'dpm')" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", ["-2.0", "-inf"])
    def test_negative_distance_exits_2_naming_its_row(self, tmp_path, capsys, value):
        rows = [["s0", "dpm", value], ["s1", "dpm", "1.0"], ["s0", "popavg", "0.5"]]
        rc, out = run_cli(["masd", "--table", write_csv(tmp_path / "d.csv", DISTANCE_HEADER, rows),
                           "--boot", "20"])
        assert rc == 2 and out == ""
        assert f"masd_mm of ('s0', 'dpm') is {float(value)}, below 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distances_inf_and_minus_inf_exit_2(self, tmp_path, capsys):
        rows = [["s0", "dpm", "inf"], ["s1", "dpm", "-inf"], ["s2", "dpm", "1.0"]]
        rc, out = run_cli(["masd", "--table", write_csv(tmp_path / "d.csv", DISTANCE_HEADER, rows),
                           "--boot", "20"])
        assert rc == 2 and out == ""
        assert "masd_mm of ('s1', 'dpm') is -inf, below 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quality_cell_holding_inf_and_minus_inf_exits_2_naming_it(self, tmp_path, capsys):
        rows = quality_rows()
        rows[0][3], rows[2][3] = "inf", "-inf"
        rc, out = run_cli(["quality", "--table", write_csv(tmp_path / "q.csv", QUALITY_HEADER, rows),
                           "--boot", "20"])
        assert rc == 2 and out == ""
        assert ("cell ('refaced', 'psnr_face') holds both inf and -inf"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_distances_whose_sum_overflows_exit_2_naming_the_cell(self, tmp_path, capsys):
        rows = [[f"s{i}", "dpm", "1e308"] for i in range(3)]
        rc, out = run_cli(["masd", "--table", write_csv(tmp_path / "d.csv", DISTANCE_HEADER, rows),
                           "--boot", "20"])
        assert rc == 2 and out == ""
        assert "cell 'dpm' holds values up to 1e+308" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_quality_cell_whose_sum_overflows_exits_2_naming_it(self, tmp_path, capsys):
        rows = quality_rows()
        for row in rows:
            row[2] = "-1e308"
        rc, out = run_cli(["quality", "--table", write_csv(tmp_path / "q.csv", QUALITY_HEADER, rows),
                           "--boot", "20"])
        assert rc == 2 and out == ""
        assert "cell ('refaced', 'psnr_head') holds values up to 1e+308" in capsys.readouterr().err

    def test_duplicate_quality_row_exits_2(self, tmp_path, capsys):
        table = write_csv(tmp_path / "q.csv", QUALITY_HEADER, quality_rows() + quality_rows()[:1])
        rc, _ = run_cli(["quality", "--table", table, "--boot", "20"])
        assert rc == 2
        assert "duplicate row for ('s0', 'refaced')" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_compare_drops_a_subject_infinite_for_both_methods(self, tmp_path, capsys):
        # s4 is inf for both methods: an equal pair, dropped as a zero
        # difference; s5 is inf for one only and takes the top rank
        a = ["0.5", "0.9", "1.1", "0.4", "inf", "inf"]
        b = ["0.7", "0.6", "1.6", "0.2", "inf", "1.0"]
        rows = [[f"s{i}", method, v] for i, pair in enumerate(zip(a, b))
                for method, v in zip("ab", pair)]
        rc, out = run_cli(["masd", "--table", write_csv(tmp_path / "d.csv", DISTANCE_HEADER, rows),
                           "--boot", "20", "--compare", "a", "b"])
        err = capsys.readouterr().err
        assert rc == 0, err
        assert "Warning" not in err
        wrow = [r for r in csv_rows(out) if r["kind"] == "wilcoxon"][0]
        w, p = float(wrow["w"]), float(wrow["p"])
        assert math.isfinite(w) and math.isfinite(p)
        w_want, p_want = stats.wilcoxon_signed_rank([0.5, 0.9, 1.1, 0.4, 9.0],
                                                    [0.7, 0.6, 1.6, 0.2, 1.0])
        assert w == w_want and p == pytest.approx(p_want, rel=1e-5)
        assert wrow["n"] == "6"

    def test_compare_of_methods_sharing_no_subject_exits_2_naming_both(self, tmp_path, capsys):
        rows = [["s0", "a", "0.5"], ["s1", "a", "0.9"], ["s2", "b", "0.7"], ["s3", "b", "0.6"]]
        rc, out = run_cli(["masd", "--table", write_csv(tmp_path / "d.csv", DISTANCE_HEADER, rows),
                           "--compare", "a", "b"])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == "refaudit: --compare methods 'a' and 'b' share no subject\n"

    def test_compare_of_identical_distances_exits_2(self, tmp_path, capsys):
        rows = [[f"s{i}", m, v] for i, v in enumerate(["0.5", "0.9"]) for m in "ab"]
        rc, out = run_cli(["masd", "--table", write_csv(tmp_path / "d.csv", DISTANCE_HEADER, rows),
                           "--compare", "a", "b"])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == "refaudit: all differences are zero\n"

    def test_repeated_prediction_row_exits_2_without_report(self, tmp_path, capsys):
        obs, preds = write_correlate_inputs(tmp_path, 6, (0, 1))
        with open(preds, "a", newline="") as fh:
            csv.writer(fh).writerow(["s2", "1", "dpm", "99.0"])
        target = tmp_path / "report.json"
        rc, _ = run_cli(["correlate", obs, preds, "--boot", "20", "--out", str(target)])
        assert rc == 2
        assert "duplicate prediction row for ('dpm', 's2', 1)" in capsys.readouterr().err
        assert not target.exists()

    def test_demo_subject_with_empty_changed_area_fails_before_any_work(
            self, monkeypatch, tmp_path):
        def no_cascade(*args, **kwargs):
            raise AssertionError("cascade_reface called on an empty changed area")

        monkeypatch.setattr(cli, "cascade_reface", no_cascade)
        case = generate_cohort(1, seed=5, base=SMALL_PARAMS)[0]
        with pytest.raises(ValueError, match="phantom-000: --buffer-mm 500.0 leaves no face "
                                             "voxel to remove"):
            cli._demo_subject(case, tmp_path, CascadeConfig(sample_steps=1, seed=5), 500.0)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_value_exits_2_and_inf_is_kept(self, tmp_path, capsys):
        rows = distance_rows()
        rows[1][2] = "nan"
        rc, out = run_cli(["masd", "--table", write_csv(tmp_path / "d.csv", DISTANCE_HEADER, rows),
                           "--boot", "20"])
        assert rc == 2 and out == ""
        assert "('s1', 'dpm') is NaN" in capsys.readouterr().err
        rows = quality_rows()
        for row in rows:
            row[2] = "inf"  # the PSNR of an exact refacing
        rc, out = run_cli(["quality", "--table", write_csv(tmp_path / "q.csv", QUALITY_HEADER, rows),
                           "--boot", "20"])
        assert rc == 0
        got = {r["metric"]: r for r in csv_rows(out)}
        assert got["psnr_head"]["mean"] == "inf"
        assert got["psnr_face"]["n"] == "3"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_inf_cell_has_inf_interval(self, tmp_path):
        rows = quality_rows()
        for row in rows:
            row[2] = "inf"  # the PSNR of an exact refacing
        rc, out = run_cli(["quality", "--table", write_csv(tmp_path / "q.csv", QUALITY_HEADER, rows),
                           "--boot", "20"])
        assert rc == 0
        got = {r["metric"]: r for r in csv_rows(out)}["psnr_head"]
        assert (got["mean"], got["ci_low"], got["ci_high"]) == ("inf", "inf", "inf")
        assert got["cell"] == "inf [inf, inf]"

    def test_nan_vox_offset_is_format_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "v.nii"
        write_nifti_file(generate_cohort(1, seed=17, base=SMALL_PARAMS)[0].volume, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 108, float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="vox_offset nan is not finite"):
            read_nifti_file(path)
        rc, out = run_cli(["masd", str(path), str(path)])
        assert rc == 3 and out == ""
        assert "vox_offset nan is not finite" in capsys.readouterr().err

    def test_nan_voxel_is_format_error_exit_3(self, tmp_path, capsys):
        vol = generate_cohort(1, seed=17, base=SMALL_PARAMS)[0].volume
        data = vol.data.copy()
        data[10, 20, 30] = np.nan
        path = tmp_path / "v.nii.gz"
        write_nifti_file(vol.with_data(data), path)
        rc, out = run_cli(["masd", str(path), str(path)])
        assert rc == 3 and out == ""
        assert "voxel values are not all finite" in capsys.readouterr().err

    def test_intensity_range_too_narrow_for_otsu_exits_2_naming_it(self, tmp_path, capsys):
        # int16 0/1 scaled to 1e6 and the next float64 above it
        payload = np.tile(np.array([0, 1], dtype="<i2"), 32).tobytes()
        path = tmp_path / "f.nii"
        path.write_bytes(assemble_nifti((4, 4, 4), 4, payload, scl_slope=1.2e-10, scl_inter=1e6))
        rc, out = run_cli(["masd", str(path), str(path)])
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert "intensity range [1000000.0, 1000000.0000000001]" in err and "bins" not in err

    def test_aggression_sweep_nonpositive_boot_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            load_script("aggression_sweep").main(["--boot", "0"])
        assert exc.value.code == 2
        assert "--boot: must be a positive integer" in capsys.readouterr().err

    def test_aggression_sweep_one_subject_writes_a_row_and_a_cell_per_buffer(self, tmp_path,
                                                                             capsys):
        sweep = load_script("aggression_sweep")
        out = tmp_path / "sweep.csv"
        assert sweep.main(["--n", "1", "--boot", "10", "--out", str(out)]) == 0
        assert b"\r" not in out.read_bytes()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["buffer_mm"]) for r in rows] == list(sweep.BUFFERS_MM)
        removed = [int(r["removed_voxels"]) for r in rows]
        assert all(a > b for a, b in zip(removed, removed[1:]))
        assert all(math.isfinite(float(r["masd_mm"])) for r in rows)
        cells = capsys.readouterr().out.split("masd cell (bootstrap mean [95% CI])\n")[1]
        assert [float(line.split()[0]) for line in cells.splitlines()] == list(sweep.BUFFERS_MM)

    def test_moment_check_flags_out_of_range_exit_2(self, capsys):
        moment_check = load_script("sampler_moment_check")
        for flags, message in ((["--t", "0"], "--t: must be an integer >= 250, got 0"),
                               (["--t", "30"], "--t: must be an integer >= 250, got 30"),
                               (["--n", "1"], "--n: must be an integer >= 2, got 1"),
                               (["--seed", "-1"], "--seed: must be a non-negative integer, got -1"),
                               (["--mu", "nan"], "DDIM chain at eta=0.0 ended in non-finite"),
                               (["--s", "1e200"], "Numerical result out of range"),
                               (["--s", "-1"], "--s: must be finite and >= 0, got -1.0"),
                               (["--s", "nan"], "--s: must be finite and >= 0, got nan")):
            with pytest.raises(SystemExit) as exc:
                moment_check.main(flags)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_moment_check_out_of_memory_exits_2(self, monkeypatch, capsys):
        moment_check = load_script("sampler_moment_check")

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(moment_check, "sample", out_of_memory)
        with pytest.raises(SystemExit) as exc:
            moment_check.main(["--n", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Unable to allocate 7.28 TiB" in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_aggression_sweep_bad_out_path_exits_3_before_the_sweep(self, tmp_path, capsys,
                                                                     where):
        sweep = load_script("aggression_sweep")
        sweep.generate_cohort = no_cohort
        out = tmp_path if where == "directory" else tmp_path / "missing" / "sweep.csv"
        assert sweep.main(["--n", "1", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "I/O error" in captured.err and str(out) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "missing").exists()

    def test_aggression_sweep_negative_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            load_script("aggression_sweep").main(["--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_aggression_sweep_nonpositive_n_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            load_script("aggression_sweep").main(["--n", "0"])
        assert exc.value.code == 2
        assert "--n: must be a positive integer, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("subjects, sexes, message", [
        (2, (0, 1), "need >= 3 subjects, got 2"),
        (4, (1, 1), "design matrix [1, age, sex] is rank deficient"),
    ])
    def test_unfittable_observations_exit_2(self, tmp_path, capsys, subjects, sexes, message):
        obs, preds = write_correlate_inputs(tmp_path, subjects, sexes)
        rc, out = run_cli(["correlate", obs, preds, "--boot", "20"])
        assert rc == 2 and out == ""
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("column, value, message", [
        ("y", "nan", "y must be finite"),
        ("y", "-inf", "y must be finite"),
        ("y_pred", "nan", "y_pred of 'dpm' at ('s1', 0) is NaN"),
    ])
    def test_non_finite_observation_or_nan_prediction_exits_2_without_report(
            self, tmp_path, capsys, column, value, message):
        obs, preds = write_correlate_inputs(tmp_path, 6, (0, 1), **{column: {("s1", 0): value}})
        target = tmp_path / "report.json"
        rc, _ = run_cli(["correlate", obs, preds, "--boot", "20", "--out", str(target)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not target.exists()

    def test_first_bad_observation_cell_in_row_order_is_named(self, tmp_path, capsys):
        # row s0/1's y comes after row s0/0's columns and before row s1/0's visit
        obs, preds = write_correlate_inputs(tmp_path, 6, (0, 1), y={("s0", 1): "abc"})
        rows = list(csv.reader(io.StringIO(Path(obs).read_text())))
        rows[3][1] = "x"  # the visit of (s1, 0)
        write_csv(obs, rows[0], rows[1:])
        rc, out = run_cli(["correlate", obs, preds, "--boot", "20"])
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == "refaudit: could not convert string to float: 'abc'\n"

    @pytest.mark.parametrize("column", ["visit", "sex"])
    def test_observation_int_beyond_int64_exits_2(self, tmp_path, capsys, column):
        obs, preds = write_correlate_inputs(tmp_path, 6, (0, 1))
        rows = list(csv.reader(io.StringIO(Path(obs).read_text())))
        rows[1][rows[0].index(column)] = str(2**70)
        write_csv(obs, rows[0], rows[1:])
        rc, out = run_cli(["correlate", obs, preds, "--boot", "20"])
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == f"refaudit: {column} holds a value out of int64 range\n"

    def test_infinite_prediction_is_kept(self, tmp_path):
        obs, preds = write_correlate_inputs(tmp_path, 6, (0, 1), y_pred={("s1", 0): "inf"})
        rc, out = run_cli(["correlate", obs, preds, "--boot", "20"])
        assert rc == 0
        json.loads(out, parse_constant=reject_nan)

    def test_short_distance_row_exits_2(self, tmp_path, capsys):
        table = write_csv(tmp_path / "d.csv", DISTANCE_HEADER, distance_rows() + [["s9", "dpm"]])
        rc, _ = run_cli(["masd", "--table", table, "--boot", "20"])
        assert rc == 2
        assert "could not convert string to float: ''" in capsys.readouterr().err

    def test_quality_table_missing_columns_exits_2(self, tmp_path, capsys):
        header = ["subject_id", "image", "psnr_head", "ssim_head"]
        table = write_csv(tmp_path / "q.csv", header, [[f"s{i}", "refaced", "20", "0.9"]
                                                      for i in range(3)])
        rc, _ = run_cli(["quality", "--table", table, "--boot", "20"])
        assert rc == 2
        assert "quality CSV missing columns: ['psnr_face', 'ssim_face']" in capsys.readouterr().err


HOSTILE_CELLS = ("nan", "inf", "-inf", "", "abc")
TABLE_ATTACKS = ("cell", "duplicate", "short", "few subjects")
FLAG_ATTACKS = ("boot", "seed")
OBSERVATION_HEADER = ["subject_id", "visit", "age", "sex", "y"]
PREDICTION_HEADER = ["subject_id", "visit", "method", "y_pred"]


@st.composite
def attacks(draw, names):
    """The attacks of one run: up to two of ``names``, so that about a third
    of the runs are clean and reach the success path."""
    return {draw(st.sampled_from(names)) for _ in range(draw(st.integers(0, 2)))}


@st.composite
def attacked(draw, rows, attacks, numeric):
    """``rows`` after the table attacks in ``attacks``: a hostile token in
    one cell of a ``numeric`` column, a repeated row (a duplicate key), a row
    cut short."""
    rows = [list(row) for row in rows]
    if not rows:
        return rows

    def any_row():
        return rows[draw(st.integers(0, len(rows) - 1))]

    if "cell" in attacks:
        any_row()[draw(st.sampled_from(numeric))] = draw(st.sampled_from(HOSTILE_CELLS))
    if "duplicate" in attacks:
        rows.append(list(any_row()))
    if "short" in attacks:
        any_row().pop()
    return rows


@st.composite
def subjects(draw, attacks, most):
    """Subject ids, 0 to 2 of them under the "few subjects" attack and 5 to
    ``most`` otherwise, and a generator for the finite cells."""
    low, high = (0, 2) if "few subjects" in attacks else (5, most)
    ids = [f"s{i}" for i in range(draw(st.integers(low, high)))]
    return ids, np.random.default_rng(draw(st.integers(0, 2**16)))


@st.composite
def flags(draw, attacks):
    """``--boot`` and ``--seed``, hostile under the "boot" and "seed" attacks."""
    boot = draw(st.sampled_from(["0", "-3", "abc", "2.5"] if "boot" in attacks else ["1", "9"]))
    seed = draw(st.sampled_from(["-1", "abc", "1e3"] if "seed" in attacks
                                else ["0", "7", str(2**70)]))
    return ["--boot", boot, "--seed", seed]


@st.composite
def correlate_argv(draw, tmp):
    """``correlate`` over observation and prediction CSVs written to ``tmp``;
    the table attacks hit one of the two."""
    chosen = draw(attacks(TABLE_ATTACKS + FLAG_ATTACKS + ("single sex", "missing prediction")))
    target = draw(st.sampled_from(["observations", "predictions"]))
    ids, rng = draw(subjects(chosen, 6))
    sexes = (1,) if "single sex" in chosen else (0, 1)  # one sex: a rank-deficient design
    methods = draw(st.sampled_from(["a", "ab"]))  # two methods add the pairwise Wilcoxon
    observations, predictions = [], []
    for i, sid in enumerate(ids):
        for visit in range(draw(st.integers(1, 2))):
            observations.append([sid, visit, f"{rng.uniform(40, 80):.2f}", sexes[i % len(sexes)],
                                 f"{rng.normal(0, 2):.4f}"])
            predictions += [[sid, visit, method, f"{rng.normal():.4f}"] for method in methods]
    if "missing prediction" in chosen and predictions:
        predictions.pop(draw(st.integers(0, len(predictions) - 1)))
    # y and y_pred come first: hypothesis draws the first elements most often
    if target == "observations":
        observations = draw(attacked(observations, chosen, (4, 1, 2, 3)))
    else:
        predictions = draw(attacked(predictions, chosen, (3, 1)))
    return ["correlate", write_csv(tmp / "obs.csv", OBSERVATION_HEADER, observations),
            write_csv(tmp / "preds.csv", PREDICTION_HEADER, predictions), *draw(flags(chosen))]


@st.composite
def table_argv(draw, tmp, command, header, names):
    """``command --table`` over (subject_id, name, value...) rows, every
    subject having every name."""
    chosen = draw(attacks(TABLE_ATTACKS + FLAG_ATTACKS))
    ids, rng = draw(subjects(chosen, 7))
    rows = [[sid, name, *(f"{v:.4f}" for v in rng.uniform(0.1, 40.0, len(header) - 2))]
            for sid in ids for name in names]
    rows = draw(attacked(rows, chosen, range(2, len(header))))
    return [command, "--table", write_csv(tmp / "table.csv", header, rows), *draw(flags(chosen))]


@pytest.fixture(scope="module")
def subject_bytes():
    """One small subject as uncompressed NIfTI bytes: original, defaced,
    refaced (mirror fill) and removed mask, plus the removed mask shifted by
    1 mm and cut by one slice (two other geometries) and the original
    shifted to a maximum of 0 (no PSNR peak)."""
    case = generate_cohort(1, seed=17, base=SMALL_PARAMS)[0]
    defaced, removed = quickshear(case.volume, case.brain, buffer_mm=8.0,
                                  head=head_mask(case.volume))
    shifted = removed.affine.copy()
    shifted[0, 3] += 1.0
    masks = {"removed": removed, "shifted removed": replace(removed, affine=shifted),
             "cut removed": BinaryMask(data=removed.data[:, :, 1:], affine=removed.affine)}
    zero_peak = case.volume.with_data(case.volume.data - case.volume.data.max())
    return {"original": write_nifti(case.volume), "defaced": write_nifti(defaced),
            "zero-peak original": write_nifti(zero_peak),
            "refaced": write_nifti(mirror_fill(defaced, removed)),
            **{name: write_nifti(Volume3D(data=m.data.astype(np.float64), affine=m.affine))
               for name, m in masks.items()}}


MASD_FILES = ["original", "refaced"]
QUALITY_FILES = ["original", "defaced", "refaced", "removed"]


@st.composite
def files_attack(draw, names):
    """One attack on the files ``names``: (name, (offset, format, value)) for
    one header field of that file overwritten or, when the removed mask is
    among them, ("removed", name of that mask on another geometry)."""
    target = draw(st.sampled_from(names + (["other geometry"] if "removed" in names else [])))
    if target == "other geometry":
        return "removed", draw(st.sampled_from(["shifted removed", "cut removed"]))
    return target, draw(HEADER_MUTATIONS)


def write_attacked(tmp, raw, names, attack):
    """The files ``names`` of ``raw`` written to ``tmp`` after ``attack``;
    {name: path}."""
    files = {name: raw[name] for name in names}
    target, how = attack
    if isinstance(how, str):
        files[target] = raw[how]
    else:
        mutated = bytearray(files[target])
        struct.pack_into(how[1], mutated, how[0], how[2])
        files[target] = bytes(mutated)
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp / f"{name}.nii")
        Path(paths[name]).write_bytes(data)
    return paths


def contract_run(argv):
    """Exit code and stdout of one CLI run, asserting the exit-code contract."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return rc, out.getvalue()


class FlagsAccepted(Exception):
    """Raised in place of the cohort build: every flag passed its checks."""


def accept_flags(*args, **kwargs):
    raise FlagsAccepted


HOSTILE_FLAG_VALUES = ("-1", "0", "1e308", str(10**30), "nan", "inf", "-inf", "abc", "", "2.5")
COHORT_FLAGS = {"phantom": ("-n", "--seed"),
                "demo": ("-n", "--seed", "--eta", "--steps", "--downsample", "--slab-size",
                         "--overlap", "--buffer-mm")}


@st.composite
def cohort_argv(draw, out):
    """``phantom`` or ``demo`` writing to ``out``, with one to three of its
    flags set to hostile values."""
    command = draw(st.sampled_from(sorted(COHORT_FLAGS)))
    argv = [command, out]
    for flag in draw(st.sets(st.sampled_from(COHORT_FLAGS[command]), min_size=1, max_size=3)):
        argv += [flag, draw(st.sampled_from(HOSTILE_FLAG_VALUES))]
    return argv


def reject_nan(token):
    """``parse_constant`` hook that fails on NaN, Infinity or -Infinity in
    JSON output, none of which strict JSON has."""
    raise AssertionError(f"JSON output holds {token}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestExitCodeContract:
    """Hostile CSV cells, NIfTI headers, mask geometries and flags end in
    exit 0/2/3/4/5, never in a traceback, and a successful run writes no NaN
    into its JSON."""

    @given(st.data())
    @settings(max_examples=500)
    def test_correlate(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = contract_run(data.draw(correlate_argv(Path(tmp))))
        if rc == 0:
            json.loads(out, parse_constant=reject_nan)

    @given(st.data())
    @settings(max_examples=150)
    def test_masd_table(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            argv = data.draw(table_argv(Path(tmp), "masd", DISTANCE_HEADER, "ab"))
            compare = data.draw(st.sampled_from([[], ["a", "b"], ["b", "a"], ["a", "a"],
                                                 ["a", "zzz"]]))
            summary = Path(tmp) / "summary.json"
            rc, _ = contract_run([*argv, *(["--compare", *compare] if compare else []),
                                  "--summary", str(summary)])
            if rc == 0:
                json.loads(summary.read_text(), parse_constant=reject_nan)

    @given(st.data())
    @settings(max_examples=100)
    def test_quality_table(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            contract_run(data.draw(table_argv(Path(tmp), "quality", QUALITY_HEADER,
                                              ("defaced", "refaced"))))

    @given(st.data())
    @settings(max_examples=300)
    def test_phantom_and_demo_flags(self, data):
        # a run that passes every flag check stops at the cohort build
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "generate_cohort", accept_flags):
            out = Path(tmp) / "out"
            argv = data.draw(cohort_argv(str(out)))
            try:
                rc, _ = contract_run(argv)
            except FlagsAccepted:
                return
            assert rc == 2, argv
            assert not out.exists(), argv

    @given(attack=files_attack(MASD_FILES))
    @settings(max_examples=60)
    def test_masd_files(self, subject_bytes, attack):
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_attacked(Path(tmp), subject_bytes, MASD_FILES, attack)
            contract_run(["masd", paths["original"], paths["refaced"]])

    @given(attack=files_attack(QUALITY_FILES))
    @settings(max_examples=60)
    def test_quality_files(self, subject_bytes, attack):
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_attacked(Path(tmp), subject_bytes, QUALITY_FILES, attack)
            contract_run(["quality", paths["original"], paths["defaced"], paths["refaced"],
                          "--removed", paths["removed"]])

    @pytest.mark.parametrize("value", [0, -4])
    def test_axis_shorter_than_one_voxel_exits_3(self, subject_bytes, value):
        # read as one voxel wide, the first voxels would make a constant
        # volume, and masd would exit 2 on its Otsu threshold
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_attacked(Path(tmp), subject_bytes, MASD_FILES,
                                   ("original", (42, "<h", value)))
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
                rc = main(["masd", paths["original"], paths["original"]])
        assert rc == 3 and out.getvalue() == ""
        assert err.getvalue().startswith(f"refaudit: I/O error: dim ({value}, ")

    @pytest.mark.parametrize("kind", ["observation", "prediction", "distance", "quality"])
    def test_header_only_csv_exits_2_naming_the_file(self, tmp_path, kind):
        # a header without data rows is no table to analyse, so no command
        # may report on it; nothing goes to stdout, --summary or --out
        def table(name, header, rows):
            return write_csv(tmp_path / f"{name}.csv", header, [] if name == kind else rows)

        report = tmp_path / "report.json"
        if kind in ("observation", "prediction"):
            argv = ["correlate",
                    table("observation", OBSERVATION_HEADER,
                          [[f"s{i}", 0, 50 + i, i % 2, 0.5 * i] for i in range(6)]),
                    table("prediction", PREDICTION_HEADER,
                          [[f"s{i}", 0, "a", 0.1 * i] for i in range(6)]),
                    "--out", str(report)]
        elif kind == "distance":
            argv = ["masd", "--table", table(kind, DISTANCE_HEADER, []),
                    "--summary", str(report)]
        else:
            argv = ["quality", "--table", table(kind, QUALITY_HEADER, [])]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
            rc = main(argv)
        assert rc == 2
        assert err.getvalue() == f"refaudit: {kind} CSV {tmp_path / kind}.csv has no data rows\n"
        assert out.getvalue() == ""
        assert not report.exists()

    def test_quality_zero_peak_original_exits_2_naming_the_peak(self, subject_bytes):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_attacked(Path(tmp), subject_bytes, QUALITY_FILES,
                                   ("original", "zero-peak original"))
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = main(["quality", paths["original"], paths["defaced"], paths["refaced"],
                           "--removed", paths["removed"]])
        assert rc == 2
        assert err.getvalue().startswith("refaudit: PSNR peak (the reference maximum) is 0")

    @staticmethod
    def quality_with(tmp, subject_bytes, **replaced):
        """Exit code, stdout and stderr of a ``quality`` run on the subject's
        files with some replaced by the bytes given, and whether its
        ``--summary`` was written."""
        paths = {}
        for name in QUALITY_FILES:
            paths[name] = tmp / f"{name}.nii"
            paths[name].write_bytes(replaced.get(name, subject_bytes[name]))
        summary = tmp / "summary.json"
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["quality", *(str(paths[n]) for n in ("original", "defaced", "refaced")),
                       "--removed", str(paths["removed"]), "--summary", str(summary)])
        return rc, out.getvalue(), err.getvalue(), summary.exists()

    @pytest.mark.parametrize("attack, code, message", [
        ("truncated", 3, "refaudit: I/O error: data section truncated"),
        ("infinite slope", 3, "refaudit: I/O error: scl_slope inf"),
        ("cut removed", 4, "refaudit: geometry mismatch: reference and test volumes"),
        ("shifted removed", 4, "refaudit: geometry mismatch: reference and test volumes"),
    ])
    def test_bad_second_candidate_exits_before_any_output(self, tmp_path, subject_bytes, attack,
                                                          code, message):
        # the refacing is read only after the defacing has been scored
        refaced = bytearray(subject_bytes["refaced"])
        if attack == "truncated":
            refaced = refaced[:len(refaced) // 2]
        elif attack == "infinite slope":
            struct.pack_into("<f", refaced, 112, math.inf)
        else:
            refaced = subject_bytes[attack]
        rc, out, err, summarised = self.quality_with(tmp_path, subject_bytes,
                                                     refaced=bytes(refaced))
        assert (rc, out, summarised) == (code, "", False)
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize("first, second", [("original", "removed"),
                                               ("removed", "defaced"), ("defaced", "refaced")])
    @pytest.mark.parametrize("kinds", [("truncated", "bad magic"), ("bad magic", "truncated")])
    def test_first_bad_input_in_read_order_is_reported(self, tmp_path, subject_bytes, first,
                                                       second, kinds):
        # read order: the original, the --removed masks, the defacing, the refacing
        def spoiled(name, kind):
            raw = bytearray(subject_bytes[name])
            if kind == "truncated":
                return bytes(raw[:len(raw) // 2])
            raw[344:348] = b"bad!"
            return bytes(raw)

        rc, out, err, summarised = self.quality_with(
            tmp_path, subject_bytes, **{first: spoiled(first, kinds[0]),
                                        second: spoiled(second, kinds[1])})
        assert (rc, out, summarised) == (3, "", False)
        want = {"truncated": "data section truncated", "bad magic": "bad magic"}[kinds[0]]
        assert err.startswith(f"refaudit: I/O error: {want}")


# (argv, the flag the error names); A, B, C, T and X are never created
MODE_FLAG_CASES = [
    (["masd", "A", "B", "--summary", "S", "--compare", "a", "b", "--boot", "5"], "--compare"),
    (["masd", "A", "B", "--summary", "S"], "--summary"),
    (["masd", "A", "B", "--compare", "a", "b"], "--compare"),
    (["masd", "--table", "T", "--directed"], "--directed"),
    (["masd", "A", "--table", "T", "--summary", "S"], "--table"),
    (["quality", "--table", "T", "--summary", "S", "--removed", "X"], "--removed"),
    (["quality", "--table", "T", "--summary", "S"], "--summary"),
    (["quality", "--table", "T", "--removed", "X"], "--removed"),
    (["quality", "A", "B", "C", "--table", "T"], "--table"),
    (["masd", "A", "B", "--boot", "7"], "--boot"),
    (["masd", "A", "B", "--boot", "1000"], "--boot"),
    (["masd", "--table", "T", "--method", "foo", "--subject-id", "bar"], "--method"),
    (["masd", "--table", "T", "--subject-id", ""], "--subject-id"),
    (["quality", "A", "B", "C", "--removed", "X", "--boot", "5"], "--boot"),
    (["quality", "--table", "T", "--subject-id", "x"], "--subject-id"),
]


class TestModeFlags:
    """``masd`` and ``quality`` each have a pair mode and a ``--table`` mode;
    a flag the chosen mode would ignore exits 2 naming it, before any input
    is read and without writing the summary."""

    @pytest.mark.parametrize("argv, flag", MODE_FLAG_CASES,
                             ids=[" ".join(argv) for argv, _ in MODE_FLAG_CASES])
    def test_flag_the_mode_ignores_exits_2(self, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
            rc = main(argv)
        assert rc == 2
        assert err.getvalue().startswith(f"refaudit: {flag} ")
        assert out.getvalue() == ""
        assert list(tmp_path.iterdir()) == []

    def test_flags_not_given_take_their_defaults(self, tmp_path, small_files):
        table = write_csv(tmp_path / "d.csv", DISTANCE_HEADER, [["s0", "a", "1.0"]])
        rc, _ = run_cli(["masd", "--table", table, "--summary", str(tmp_path / "s.json")])
        assert rc == 0
        assert json.loads((tmp_path / "s.json").read_text())["n_boot"] == 1000
        rc, out = run_cli(["masd", str(small_files["original"]), str(small_files["defaced"])])
        assert rc == 0
        (row,) = csv_rows(out)
        assert (row["subject_id"], row["method"]) == ("subject", "candidate")
