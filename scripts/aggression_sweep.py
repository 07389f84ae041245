#!/usr/bin/env python3
"""Defacing-aggression sweep on a phantom cohort.

For each phantom, quickshear at several buffers and report the face surface
distance to the original: the deeper the cut (smaller buffer), the larger the
distance. Emits a per-subject CSV and a bootstrap-aggregated cell per buffer.

Usage: python scripts/aggression_sweep.py [--n 10] [--seed 42] [--out sweep.csv]
"""

import argparse
import csv
import sys

from refaudit.cli import nonnegative_int, positive_int
from refaudit.deface import quickshear
from refaudit.masks import head_mask
from refaudit.phantom import generate_cohort
from refaudit.stats import bootstrap_cells
from refaudit.surface import face_distance_report

BUFFERS_MM = (0.0, 5.0, 10.0, 20.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=positive_int, default=10)
    parser.add_argument("--seed", type=nonnegative_int, default=42)
    parser.add_argument("--boot", type=positive_int, default=1000)
    parser.add_argument("--out", default=None, help="per-subject CSV path")
    args = parser.parse_args(argv)

    rows = []
    for case in generate_cohort(args.n, seed=args.seed):
        head = head_mask(case.volume)
        cuts = {b: quickshear(case.volume, case.brain, buffer_mm=b, head=head)
                for b in BUFFERS_MM}
        distances = face_distance_report(case.volume, {b: cut[0] for b, cut in cuts.items()},
                                         head=head)
        for buffer_mm, (_, removed) in cuts.items():
            d = distances[buffer_mm]
            rows.append((case.subject_id, buffer_mm, removed.count(), d))
            print(f"{case.subject_id} buffer {buffer_mm:5.1f} mm: "
                  f"removed {removed.count():7d} voxels, masd {d:6.3f} mm")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "buffer_mm", "removed_voxels", "masd_mm"])
            w.writerows(rows)

    print("\nbuffer_mm  masd cell (bootstrap mean [95% CI])")
    if args.n == 1:  # a bootstrap needs two subjects; one subject's cell is its distance
        cells = {b: f"{d:.2f}" for _, b, _, d in rows}
    else:
        cells = {b: cell.summary.format() for b, cell in bootstrap_cells(
            [(sid, b, d) for sid, b, _, d in rows], args.boot, args.seed).items()}
    for buffer_mm, cell in cells.items():
        print(f"{buffer_mm:9.1f}  {cell}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
