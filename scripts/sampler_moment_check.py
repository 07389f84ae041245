#!/usr/bin/env python3
"""Distributional check of the x0-prediction DDIM sampler on scalar Gaussian
data, where the posterior-mean denoiser is available in closed form.

Prints the sample mean/SD against the target N(mu, s^2) for several step
subsequences and eta values, alongside the exact SD predicted by the
linear-Gaussian variance recursion. Coarse eta=1 subsequences undershoot the
data SD (the DDIM noise scale assumes the clean image is known exactly);
the deficit vanishes as the subsequence refines.

Usage: python scripts/sampler_moment_check.py [--mu 3] [--s 2] [--n 10000]
"""

import argparse
import sys

import numpy as np

from refaudit.cli import nonnegative_int
from refaudit.ddim import make_schedule, sample, uniform_steps
from refaudit.denoisers import GaussianPosteriorDenoiser

STEP_LADDER = (25, 50, 100, 250)  # step counts checked below the full schedule


def int_at_least(minimum):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value}")
        return value
    return parse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mu", type=float, default=3.0)
    parser.add_argument("--s", type=float, default=2.0)
    parser.add_argument("--n", type=int_at_least(2), default=10_000)  # the SD uses ddof=1
    parser.add_argument("--t", type=int_at_least(STEP_LADDER[-1]), default=1000)
    parser.add_argument("--seed", type=nonnegative_int, default=0)
    args = parser.parse_args(argv)
    try:
        report(args)
    except (ValueError, OverflowError) as exc:  # a --mu or --s the chain cannot carry
        parser.error(str(exc))
    return 0


def report(args):
    schedule = make_schedule(args.t)
    denoiser = GaussianPosteriorDenoiser(args.mu, args.s, schedule)
    print(f"target: N({args.mu}, {args.s}^2), {args.n} samples per row\n")
    print(f"{'steps':>6} {'eta':>4} {'mean':>8} {'sd':>8} {'exact sd':>9} {'sd/s':>6}")
    for n_steps in (*STEP_LADDER, args.t):
        steps = uniform_steps(args.t, n_steps)
        for eta in (0.0, 1.0):
            rng = np.random.default_rng(args.seed)
            out = sample(denoiser, None, schedule, steps, eta=eta, rng=rng,
                         shape=(args.n,))
            exact = denoiser.final_sd(steps, eta) if eta else float("nan")
            print(f"{n_steps:6d} {eta:4.1f} {out.mean():8.4f} {out.std(ddof=1):8.4f} "
                  f"{exact:9.4f} {out.std(ddof=1) / args.s:6.4f}")


if __name__ == "__main__":
    sys.exit(main())
