#!/usr/bin/env python3
"""Defacing-aggression sweep on a phantom cohort.

For each phantom, quickshear at several buffers and report the face surface
distance to the original: the deeper the cut (smaller buffer), the larger the
distance. Emits a per-subject CSV and a bootstrap-aggregated cell per buffer.

Usage: python scripts/aggression_sweep.py [--n 10] [--seed 42] [--out sweep.csv]
"""

import argparse
import sys
from dataclasses import replace

from refaudit.cli import EXIT_IO, _write_csv, nonnegative_int, positive_int
from refaudit.deface import quickshear
from refaudit.masks import head_mask
from refaudit.phantom import generate_cohort
from refaudit.stats import bootstrap_cells
from refaudit.surface import face_distance_report

BUFFERS_MM = (0.0, 5.0, 10.0, 20.0)


def sweep_subject(case) -> list:
    """(subject_id, buffer_mm, removed_voxels, masd_mm) rows of one case,
    printed as they are made."""
    head = head_mask(case.volume)
    removed_voxels = {}

    def cut(buffer_mm):
        # made when face_distance_report draws it, so one defaced volume is held
        defaced, removed = quickshear(case.volume, case.brain, buffer_mm=buffer_mm, head=head)
        removed_voxels[buffer_mm] = removed.count()
        return buffer_mm, defaced

    rows = []
    for buffer_mm, d in face_distance_report(case.volume, map(cut, BUFFERS_MM), head=head):
        rows.append((case.subject_id, buffer_mm, removed_voxels[buffer_mm], d))
        print(f"{case.subject_id} buffer {buffer_mm:5.1f} mm: "
              f"removed {removed_voxels[buffer_mm]:7d} voxels, masd {d:6.3f} mm")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=positive_int, default=10)
    parser.add_argument("--seed", type=nonnegative_int, default=42)
    parser.add_argument("--boot", type=positive_int, default=1000)
    parser.add_argument("--out", default=None, help="per-subject CSV path")
    args = parser.parse_args(argv)
    try:  # a bad --out path fails here, before the sweep rather than after it
        out = open(args.out, "w", newline="") if args.out else None
    except OSError as exc:
        print(f"aggression_sweep: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    rows = []
    # an unbuilt copy of each case, so that no phantom outlives its subject
    for case in map(replace, generate_cohort(args.n, seed=args.seed)):
        rows.extend(sweep_subject(case))

    if out:
        with out:
            _write_csv(out, ["subject_id", "buffer_mm", "removed_voxels", "masd_mm"], rows)

    print("\nbuffer_mm  masd cell (bootstrap mean [95% CI])")
    cells = bootstrap_cells([(sid, b, d) for sid, b, _, d in rows], args.boot, args.seed)
    for buffer_mm, cell in cells.items():
        print(f"{buffer_mm:9.1f}  {cell.summary.format()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
