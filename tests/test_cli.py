import csv
import importlib.util
import io
import json
import struct
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import refaudit.cli as cli
import refaudit.stats as stats
from refaudit.cli import main
from refaudit.deface import quickshear
from refaudit.masks import head_mask
from refaudit.phantom import generate_cohort
from refaudit.surface import face_distance_report
from refaudit.errors import FormatError
from refaudit.volume import (
    read_nifti_file,
    write_mask_file,
    write_nifti_file,
)

from conftest import SMALL_PARAMS


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


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


@pytest.mark.parametrize("flag, value, message", [
    ("--eta", "-1", "eta must be finite and >= 0, got -1.0"),
    ("--eta", "nan", "eta must be finite and >= 0, got nan"),
    ("--steps", "0", "need 1 <= sample_steps <= t_steps"),
    ("--steps", "5000", "need 1 <= sample_steps <= t_steps"),
    ("--downsample", "0", "downsample factors must be positive"),
])
def test_bad_sampler_setting_exits_2_before_the_cohort_is_built(
        monkeypatch, tmp_path, capsys, flag, value, message):
    monkeypatch.setattr(cli, "generate_cohort", no_cohort)
    rc, _ = run_cli(["demo", str(tmp_path / "out"), "-n", "2", flag, value])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_demo_outputs_do_not_depend_on_the_thread_count(monkeypatch, tmp_path):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("REFAUDIT_THREADS", threads)
        out = tmp_path / f"threads-{threads}"
        rc, _ = run_cli(["demo", str(out), "-n", "2", "--steps", "2", "--boot", "50"])
        assert rc == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 13  # 5 NIfTIs per subject, masd.csv, quality.csv, manifest.json
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name


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
        want = face_distance_report(orig, {"defaced": defaced})["defaced"]
        assert value == pytest.approx(want, abs=5e-4)  # CLI prints 3 decimals

    def test_directed_flag(self, small_files):
        _, out_sym = run_cli(["masd", str(small_files["original"]), str(small_files["defaced"])])
        _, out_dir = run_cli(["masd", str(small_files["original"]), str(small_files["defaced"]),
                              "--directed"])
        orig = read_nifti_file(small_files["original"])
        defaced = read_nifti_file(small_files["defaced"])
        assert float(csv_rows(out_dir)[0]["masd_mm"]) == pytest.approx(
            face_distance_report(orig, {"defaced": defaced}, directed=True)["defaced"], abs=5e-4)
        assert out_sym != out_dir

    def test_unreadable_file_exits_3(self, tmp_path):
        rc, _ = run_cli(["masd", str(tmp_path / "nope.nii"), str(tmp_path / "nope.nii")])
        assert rc == 3

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

    def test_out_flag_writes_file(self, tmp_path):
        obs, preds = self.write_inputs(tmp_path)
        target = tmp_path / "report.json"
        rc, out = run_cli(["correlate", str(obs), str(preds), "--boot", "50",
                           "--seed", "1", "--out", str(target)])
        assert rc == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["kind"] == "correlation-report"
        assert doc["version"]

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

    def test_duplicate_quality_row_exits_2(self, tmp_path, capsys):
        table = write_csv(tmp_path / "q.csv", QUALITY_HEADER, quality_rows() + quality_rows()[:1])
        rc, _ = run_cli(["quality", "--table", table, "--boot", "20"])
        assert rc == 2
        assert "duplicate row for ('s0', 'refaced')" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
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

    def test_aggression_sweep_nonpositive_boot_exits_2(self, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "aggression_sweep.py"
        spec = importlib.util.spec_from_file_location("aggression_sweep", script)
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        with pytest.raises(SystemExit) as exc:
            sweep.main(["--boot", "0"])
        assert exc.value.code == 2
        assert "--boot: must be a positive integer" in capsys.readouterr().err

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
