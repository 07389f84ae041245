"""Batch front-end: phantom generation, surface-distance and quality
reports, the correlation report, and a self-contained end-to-end demo.

Exit codes: 0 ok, 2 argument error, 3 I/O error, 4 geometry mismatch,
5 join failure. Every command is deterministic given --seed; JSON outputs
embed seed, configuration, and tool version. CSV output is locale
independent (period decimal separator, no grouping). Multi-subject work,
and each refacing's stage-2 slabs, fan out across threads (together capped
by REFAUDIT_THREADS); rows keep input order regardless of completion order.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ddim import CascadeConfig, SlabSpec, stage2_slabs, thread_count
from .deface import DEFAULT_BUFFER_MM, QUICKSHEAR_VERSION, quickshear
from .denoisers import mirror_fill, reface
from .errors import FormatError, GeometryMismatchError, JoinError
from .masks import HEAD_MASK_VERSION, head_mask
from .quality import QUALITY_CONVENTIONS, QualityRecord, intersection_mask, quality_report
from .stats import (
    STATS_CONVENTIONS,
    bootstrap_cells,
    correlation_report,
    ObservationTable,
    read_csv_rows,
    read_predictions_csv,
    significance_stars,
    wilcoxon_signed_rank,
)
from .surface import face_distance_report
from .phantom import PhantomParams, generate_cohort
from .volume import read_mask_file, read_nifti_file, same_nifti, write_mask_file, write_nifti_file

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_IO = 3
EXIT_GEOMETRY = 4
EXIT_JOIN = 5

# the defaults of the flags _check_mode_flags must see unset, applied after it
FLAG_DEFAULTS = {"boot": 1000, "subject_id": "subject", "method": "candidate"}

CONVENTIONS = {
    "head_mask": HEAD_MASK_VERSION,
    "quickshear": QUICKSHEAR_VERSION,
    **QUALITY_CONVENTIONS,
    **STATS_CONVENTIONS,
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _base_metadata(seed) -> dict:
    return {"tool": "refaudit", "version": __version__, "seed": seed,
            "conventions": dict(CONVENTIONS)}


@contextmanager
def _output_dir(path: str):
    """Yield the output directory ``path``, made if missing. If the body
    raises, delete the files it added there and the directories made here;
    files that were already there stay."""
    out = Path(path)
    made = [p for p in (out, *out.parents) if not p.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"invalid output directory {out}: {exc}") from exc
    if not out.is_dir():
        raise ValueError(f"invalid output directory {out}: not a directory")
    before = set(out.iterdir())
    try:
        yield out
    except BaseException:
        for p in set(out.iterdir()) - before:
            p.unlink(missing_ok=True)
        for d in made:
            with suppress(OSError):
                d.rmdir()
        raise


def _fmt(x: float, decimals: int = 3) -> str:
    return f"{x:.{decimals}f}"


def _json_scalar(value):
    """A numpy scalar as the Python scalar it holds; nothing else is JSON."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(doc: dict) -> str:
    """The layout of every JSON file refaudit writes: strict JSON, so a
    non-finite float raises rather than becoming ``Infinity`` or ``NaN``."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_scalar) + "\n"


def _write_csv(fh, header, rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _check_mode_flags(args, paths, table_only, pair_only) -> None:
    """Reject, as an argument error, a flag the chosen mode would ignore:
    positional ``paths`` or a ``pair_only`` flag with ``--table``, or a
    ``table_only`` flag without it. A path not given is None, even an empty
    one counts as given; a flag not given is None or False."""
    if args.table and any(getattr(args, name) is not None for name in paths):
        raise ValueError("--table takes no positional paths")
    for name in pair_only if args.table else table_only:
        if getattr(args, name) not in (None, False):
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} does not apply with --table" if args.table
                             else f"{flag} needs --table")


def _quality_row(subject_id: str, rec) -> list:
    return [subject_id, rec.image, _fmt(rec.psnr_head, 2), _fmt(rec.psnr_face, 2),
            _fmt(rec.ssim_head, 4), _fmt(rec.ssim_face, 4)]


def _run_cohort(args, kind: str, subject, finish=None) -> int:
    """The cohort run of ``phantom`` and ``demo``: derive ``args.count``
    subjects from ``args.seed``, call ``subject(case, out)`` for each on the
    thread pool, then write ``manifest.json`` with the fields that
    ``finish(out, results)`` returns (results in subject order). A failure
    removes what the run wrote.

    Each task gets its own unbuilt copy of its case, so its phantom is
    rasterized on the worker and freed with the subject: the run holds only
    the phantoms its workers are using."""
    workers = thread_count()
    with _output_dir(args.out_dir) as out:
        cohort = generate_cohort(args.count, args.seed)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda case: subject(replace(case), out), cohort))
        manifest = {**_base_metadata(args.seed), "kind": kind, "count": args.count,
                    "subjects": [c.subject_id for c in cohort],
                    **(finish(out, results) if finish else {})}
        (out / "manifest.json").write_text(_json_text(manifest))
    return EXIT_OK


# ---------------------------------------------------------------------------
# phantom


def cmd_phantom(args) -> int:
    def write_case(case, out):
        write_nifti_file(case.volume, out / f"{case.subject_id}.nii.gz")
        if args.write_brain_masks:
            write_mask_file(case.brain, out / f"{case.subject_id}_brain.nii.gz")
        record = {**_base_metadata(args.seed), "subject_id": case.subject_id,
                  "geometry": case.geometry.to_json_dict()}
        (out / f"{case.subject_id}.json").write_text(_json_text(record))

    return _run_cohort(args, "phantom-cohort", write_case)


# ---------------------------------------------------------------------------
# masd


MASD_HEADER = ("subject_id", "method", "masd_mm")


def _read_distance_table(path):
    """(subject_id, method, masd_mm) rows; a negative distance, -inf among
    them, raises ValueError naming its row."""
    rows = [(r["subject_id"], r["method"], float(r["masd_mm"]))
            for r in read_csv_rows(path, MASD_HEADER, "distance")]
    for sid, method, d in rows:
        if d < 0:
            raise ValueError(f"masd_mm of ({sid!r}, {method!r}) is {d}, below 0")
    return rows


def cmd_masd(args) -> int:
    if args.table:
        cells = bootstrap_cells(_read_distance_table(args.table), args.boot, args.seed)
        rows = [["masd", method, "", len(values), _fmt(s.mean), _fmt(s.ci_low),
                 _fmt(s.ci_high), s.format(), "", ""]
                for method, (values, s) in cells.items()]
        if args.compare:
            a, b = args.compare
            if a not in cells or b not in cells:
                raise ValueError(f"--compare methods {a!r}/{b!r} not both present")
            # Wilcoxon pairs per-subject distances of the two methods
            per_a, per_b = cells[a].values, cells[b].values
            shared = sorted(set(per_a) & set(per_b))
            if not shared:
                raise ValueError(f"--compare methods {a!r} and {b!r} share no subject")
            w, p = wilcoxon_signed_rank(np.array([per_a[s] for s in shared]),
                                        np.array([per_b[s] for s in shared]))
            rows.append(["wilcoxon", a, b, len(shared), "", "", "", significance_stars(p),
                         _fmt(w, 1), f"{p:.6g}"])
        if args.summary:  # before the CSV, so a bad path leaves stdout empty
            summary = {**_base_metadata(args.seed), "kind": "masd-aggregate",
                       "n_boot": args.boot,
                       "methods": {m: c.summary.format() for m, c in cells.items()}}
            Path(args.summary).write_text(_json_text(summary))
        _write_csv(sys.stdout, ["kind", "method", "peer", "n", "mean", "ci_low", "ci_high",
                                "cell", "w", "p"], rows)
        return EXIT_OK

    if not (args.original and args.candidate):
        raise ValueError("masd needs ORIGINAL and CANDIDATE paths (or --table)")
    original = read_nifti_file(args.original)
    candidate = read_nifti_file(args.candidate)
    ((_, d),) = face_distance_report(original, [(args.method, candidate)],
                                     directed=args.directed, head=head_mask(original))
    _write_csv(sys.stdout, MASD_HEADER, [[args.subject_id, args.method, _fmt(d)]])
    return EXIT_OK


# ---------------------------------------------------------------------------
# quality


QUALITY_METRICS = tuple(f.name for f in fields(QualityRecord))[1:]  # after ``image``
QUALITY_HEADER = ("subject_id", "image", *QUALITY_METRICS)


def cmd_quality(args) -> int:
    if args.table:
        table = read_csv_rows(args.table, QUALITY_HEADER, "quality")
        seen = set()
        for r in table:
            key = (r["subject_id"], r["image"])
            if key in seen:
                raise ValueError(f"duplicate row for {key!r}")
            seen.add(key)
        # one call, so the (image, metric) cells of one size share each resample
        cells = bootstrap_cells([(r["subject_id"], (r["image"], metric), float(r[metric]))
                                 for r in table for metric in QUALITY_METRICS],
                                args.boot, args.seed)
        rows = []
        for image in sorted({image for image, _ in cells}):
            for metric in QUALITY_METRICS:
                values, s = cells[image, metric]
                rows.append([image, metric, len(values), _fmt(s.mean, 2), _fmt(s.ci_low, 2),
                             _fmt(s.ci_high, 2), s.format()])
        _write_csv(sys.stdout, ["image", "metric", "n", "mean", "ci_low", "ci_high", "cell"], rows)
        return EXIT_OK

    if not (args.original and args.defaced and args.refaced and args.removed):
        raise ValueError("quality needs ORIGINAL DEFACED REFACED and --removed MASK")
    original = read_nifti_file(args.original)
    removed = intersection_mask([read_mask_file(p) for p in args.removed])
    # each candidate is read when quality_report draws it, so one is held at a time
    candidates = ((name, read_nifti_file(path))
                  for name, path in (("defaced", args.defaced), ("refaced", args.refaced)))
    records = quality_report(original, candidates, removed, head=head_mask(original))
    if args.summary:  # before the CSV, so a bad path leaves stdout empty
        summary = {**_base_metadata(args.seed), "kind": "quality-report",
                   "masks_used": list(args.removed),
                   # strict JSON has no inf: a non-finite PSNR is its CSV cell's text
                   "records": [{k: _fmt(v, 2) if isinstance(v, float) and not math.isfinite(v)
                                else v for k, v in rec.__dict__.items()} for rec in records]}
        Path(args.summary).write_text(_json_text(summary))
    _write_csv(sys.stdout, QUALITY_HEADER, [_quality_row(args.subject_id, rec) for rec in records])
    return EXIT_OK


# ---------------------------------------------------------------------------
# correlate


def cmd_correlate(args) -> int:
    table = ObservationTable.from_csv(args.observations)
    predictions = read_predictions_csv(args.predictions)
    report = correlation_report(predictions, table, seed=args.seed, n_boot=args.boot)
    text = _json_text({**_base_metadata(args.seed), "kind": "correlation-report", **report})
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# demo


DEMO_IMAGES = ("original", "defaced", "removed", "refaced_oracle", "refaced_stub")


def _demo_subject(case, out, config, buffer_mm, slab_workers=None):
    vol, brain = case.volume, case.brain
    head = head_mask(vol)
    defaced, removed = quickshear(vol, brain, buffer_mm=buffer_mm, head=head)
    if not removed.data.any():
        raise ValueError(f"{case.subject_id}: --buffer-mm {buffer_mm} leaves no face voxel "
                         "to remove, so there is nothing to reface or score")
    refaced_oracle, refaced_stub = reface(
        defaced, removed, (vol, mirror_fill(defaced, removed)), config, slab_workers)

    sid = case.subject_id
    files = [f"{sid}_{name}.nii.gz" for name in DEMO_IMAGES]
    for name, image in zip(files, (vol, defaced, removed, refaced_oracle, refaced_stub)):
        if image is refaced_oracle and same_nifti(image, vol):
            # the oracle's file is the original's: copy it rather than compress it again
            shutil.copyfile(out / files[0], out / name)
        else:
            write_nifti_file(image, out / name)

    masd_rows = [(sid, method, d) for method, d in face_distance_report(
        vol, [("defaced", defaced), ("refaced-oracle", refaced_oracle),
              ("refaced-stub", refaced_stub)], head=head)]
    quality_rows = [_quality_row(sid, rec) for rec in quality_report(
        vol, [("refaced-oracle", refaced_oracle), ("defaced", defaced),
              ("refaced-stub", refaced_stub)], removed, head=head)]
    return masd_rows, quality_rows, files


def cmd_demo(args) -> int:
    config = CascadeConfig(
        sample_steps=args.steps,
        eta=args.eta,
        downsample_factor=(args.downsample,) * 3,
        slab=SlabSpec(size=args.slab_size, overlap=args.overlap),
        seed=args.seed,
    )
    # a slab taller than the phantoms, or a downsample factor wider, fails
    # here, before any output or phantom
    dims = PhantomParams().dims
    stage2_slabs(dims[2], config.slab)
    if args.downsample > min(dims):
        raise ValueError(f"--downsample {args.downsample} exceeds the phantoms' "
                         f"{min(dims)} voxels")

    def finish(out, results):
        masd_rows = [row for rows, _, _ in results for row in rows]
        with open(out / "masd.csv", "w", newline="") as fh:
            _write_csv(fh, MASD_HEADER, [[sid, method, _fmt(d)] for sid, method, d in masd_rows])
        with open(out / "quality.csv", "w", newline="") as fh:
            _write_csv(fh, QUALITY_HEADER, [row for _, rows, _ in results for row in rows])
        return {
            "buffer_mm": args.buffer_mm,
            "n_boot": args.boot,
            "sampler_config": config.to_json_dict(),
            "masd_cells": {m: c.summary.format()
                           for m, c in bootstrap_cells(masd_rows, args.boot, args.seed).items()},
            # what this run wrote, not what else the directory holds
            "files": sorted(["masd.csv", "quality.csv", *(f for _, _, files in results
                                                         for f in files)]),
        }

    # the cohort pool runs min(cap, n) subjects at once; each subject's
    # stage-2 slabs share what is left of the thread cap
    cap = thread_count()
    slab_workers = cap // min(cap, args.count)
    # _demo_subject is looked up per call, so a wrapper set on the module applies
    return _run_cohort(args, "demo-run",
                       lambda case, out: _demo_subject(case, out, config, args.buffer_mm,
                                                       slab_workers),
                       finish)


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refaudit",
        description="Defacing/refacing risk-audit toolkit on synthetic head phantoms.",
    )
    parser.add_argument("--version", action="version", version=f"refaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=nonnegative_int, default=0)
    boot = argparse.ArgumentParser(add_help=False)
    boot.add_argument("--boot", type=positive_int)

    p = sub.add_parser("phantom", parents=[seed], help="generate a phantom cohort")
    p.add_argument("out_dir")
    p.add_argument("-n", "--count", type=positive_int, default=3)
    p.add_argument("--write-brain-masks", action="store_true")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("masd", parents=[seed, boot],
                       help="face surface distance (single pair or cohort table)")
    p.add_argument("original", nargs="?")
    p.add_argument("candidate", nargs="?")
    p.add_argument("--subject-id")
    p.add_argument("--method")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--table", help="CSV of subject_id,method,masd_mm to aggregate")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="Wilcoxon on per-subject paired distances of two methods")
    p.add_argument("--summary", help="write a JSON summary here")
    p.set_defaults(func=cmd_masd, mode_flags=(("original", "candidate"),
                                              ("compare", "summary", "boot"),
                                              ("directed", "method", "subject_id")))

    p = sub.add_parser("quality", parents=[seed, boot], help="masked PSNR/SSIM report")
    p.add_argument("original", nargs="?")
    p.add_argument("defaced", nargs="?")
    p.add_argument("refaced", nargs="?")
    p.add_argument("--removed", action="append",
                   help="changed-area mask NIfTI (repeatable; intersection is used)")
    p.add_argument("--subject-id")
    p.add_argument("--table", help="CSV of per-subject quality rows to aggregate")
    p.add_argument("--summary", help="write a JSON summary here")
    p.set_defaults(func=cmd_quality, mode_flags=(("original", "defaced", "refaced"), ("boot",),
                                                 ("removed", "summary", "subject_id")))

    p = sub.add_parser("correlate", parents=[seed, boot],
                       help="prediction-vs-residual correlation report")
    p.add_argument("observations")
    p.add_argument("predictions")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("demo", parents=[seed, boot], help="end-to-end phantom walkthrough")
    p.add_argument("out_dir")
    p.add_argument("-n", "--count", type=positive_int, default=10)
    p.add_argument("--buffer-mm", type=nonnegative_float, default=DEFAULT_BUFFER_MM)
    p.add_argument("--downsample", type=int, default=CascadeConfig.downsample_factor[0])
    p.add_argument("--slab-size", type=int, default=SlabSpec.size)
    p.add_argument("--overlap", type=int, default=SlabSpec.overlap)
    p.add_argument("--eta", type=float, default=CascadeConfig.eta)
    p.add_argument("--steps", type=int, default=CascadeConfig.sample_steps)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "mode_flags" in args:  # masd and quality: a pair of files or a --table
            _check_mode_flags(args, *args.mode_flags)
        for name, value in FLAG_DEFAULTS.items():
            if getattr(args, name, value) is None:
                setattr(args, name, value)
        return args.func(args)
    except JoinError as exc:
        print(f"refaudit: join error: {exc}", file=sys.stderr)
        return EXIT_JOIN
    except GeometryMismatchError as exc:
        print(f"refaudit: geometry mismatch: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (FormatError, OSError) as exc:
        print(f"refaudit: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"refaudit: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT


if __name__ == "__main__":
    sys.exit(main())
