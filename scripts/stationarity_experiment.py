"""Stationarity scan demo: stationary panel vs midsample correlation jump.

Draws two synthetic Gaussian panels with the same seed, one stationary and
one whose pairwise correlation jumps at T/2, then runs the global KS scan
and the local expanding-window scan on both, with reshuffle and MC controls.
"""
import argparse
import sys

import numpy as np

sys.path.insert(0, "src")

from corrstat import dataio, stationarity, synthgen


def switching_panel(n_series, n_steps, rho_before, rho_after, seed):
    """Equicorrelated Gaussian panel whose correlation jumps at T/2."""
    half = n_steps // 2
    first = synthgen.sample_panel(synthgen.equicorr_correlation(n_series, rho_before),
                                  half, seed, synthgen.FAMILY_GAUSSIAN)
    second = synthgen.sample_panel(synthgen.equicorr_correlation(n_series, rho_after),
                                   n_steps - half, seed, synthgen.FAMILY_GAUSSIAN, replica=1)
    returns = np.concatenate([first.returns, second.returns], axis=1)
    times = tuple(str(t) for t in range(n_steps))
    return dataio.ReturnPanel(first.tickers, times, returns)


def print_scan(title, report):
    print(f"\n{title}")
    header = f"{report.cells[0].dim_name:>6} {report.cells[0].threshold_name:>6} "
    header += f"{'fraction':>9} {'denom':>6}  controls"
    print(header)
    for cell in report.cells:
        controls = "  ".join(f"{k}={v:.4f}" for k, v in sorted(cell.controls.items()))
        print(f"{cell.dim_value:>6g} {cell.threshold_value:>6g} "
              f"{cell.fraction:>9.4f} {cell.denominator:>6d}  {controls}")
    if report.skipped:
        print(f"  ({len(report.skipped)} pair/window combinations skipped)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-series", type=int, default=20)
    parser.add_argument("--n-steps", type=int, default=1000)
    parser.add_argument("--rho-before", type=float, default=0.2)
    parser.add_argument("--rho-after", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    truth = synthgen.equicorr_correlation(args.n_series, args.rho_before)
    stationary = synthgen.sample_panel(truth, args.n_steps, args.seed, synthgen.FAMILY_GAUSSIAN)
    switching = switching_panel(args.n_series, args.n_steps,
                                args.rho_before, args.rho_after, args.seed)

    windows = (25, 50, 100)
    for name, panel in (("stationary", stationary), ("switching", switching)):
        report = stationarity.global_scan(
            panel, windows, (0.01, 0.05, 0.10),
            reshuffle_seed=7, mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=11,
            dataset=name,
        )
        print_scan(f"global scan, {name} panel "
                   f"(rho {args.rho_before} -> {args.rho_after})", report)

    t1 = min(200, args.n_steps // 4)
    config = stationarity.LocalTestConfig(t1, 50, (1, 2, 3, 4, 5))
    for name, panel in (("stationary", stationary), ("switching", switching)):
        report = stationarity.local_scan(
            panel, [config], mc_family=synthgen.FAMILY_GAUSSIAN, mc_seed=11,
            dataset=name,
        )
        print_scan(f"local scan (t1={t1}, tau=50), {name} panel", report)


if __name__ == "__main__":
    main()
