"""q-ratio band demo: regime switch vs stationary twin, with spectral join.

Builds a panel whose correlation jumps midsample and its same-seed
stationary twin, computes the chained q series and the MC non-optimality
band for each, flags band violations, and prints the per-window spectral
deltas so violations can be compared against the co-occurrence flag.
"""
import argparse
import sys

sys.path.insert(0, "src")

from corrstat import corrdist, dataio, portfolio, spectral, synthgen
# scripts/ is sys.path[0] when this file runs as a script
from stationarity_experiment import switching_panel


def run_case(name, panel, t1, t2, replicas, mc_seed, band_sigmas):
    truth = synthgen.sample_estimate_as_truth(panel)
    qs = portfolio.q_series(panel, t1, t2)
    band = portfolio.mc_band(panel.n_series, t1, t2, replicas, truth,
                             seed=mc_seed)
    flags = portfolio.flag_band_violations(qs, band, n_sigma=band_sigmas)
    limit = band.mean + band_sigmas * band.sd
    print(f"\n{name}: band mean={band.mean:.4f} sd={band.sd:.4f} "
          f"limit(mean+{band_sigmas:g}sd)={limit:.4f}")

    snapshots = {}
    for window in dataio.window_slices(panel.n_steps, t2):
        corr = corrdist.corr_matrix(panel, window=window)
        snapshots[window] = spectral.spectral_snapshot(corr)

    print(f"{'sample':>6} {'windows':>20} {'q':>8} {'violation':>9} "
          f"{'d_market':>9} {'d_sector':>9} {'d_ipr':>9} {'co-occur':>8}")
    for exp, violation in zip(qs, flags):
        prev = snapshots.get(exp.t1_range)
        curr = snapshots.get(exp.t2_range)
        d_cols = f"{'-':>9} {'-':>9} {'-':>9} {'-':>8}"
        if prev is not None and curr is not None:
            delta = spectral.spectral_delta(prev, curr)
            flag = spectral.co_occurrence_flag(delta)
            d_ipr = "n/a" if delta.d_ipr is None else f"{delta.d_ipr:+.3f}"
            d_cols = (f"{delta.d_market:+9.3f} {delta.d_sector:+9.3f} "
                      f"{d_ipr:>9} {str(flag):>8}")
        windows = f"{exp.t1_range}->{exp.t2_range}"
        print(f"{exp.sample:>6d} {windows:>20} {exp.q:>8.4f} "
              f"{str(violation):>9} {d_cols}")
    return any(flags)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-series", type=int, default=20)
    parser.add_argument("--n-steps", type=int, default=800)
    parser.add_argument("--t1", type=int, default=100)
    parser.add_argument("--t2", type=int, default=100)
    parser.add_argument("--rho-before", type=float, default=0.1)
    parser.add_argument("--rho-after", type=float, default=0.8)
    parser.add_argument("--replicas", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--mc-seed", type=int, default=7)
    parser.add_argument("--band-sigmas", type=float, default=5.0)
    args = parser.parse_args()

    truth = synthgen.equicorr_correlation(args.n_series, args.rho_before)
    stationary = synthgen.sample_panel(truth, args.n_steps, args.seed, synthgen.FAMILY_GAUSSIAN)
    switching = switching_panel(args.n_series, args.n_steps,
                                args.rho_before, args.rho_after, args.seed)

    hit_stationary = run_case("stationary twin", stationary, args.t1, args.t2,
                              args.replicas, args.mc_seed, args.band_sigmas)
    hit_switching = run_case("regime switch", switching, args.t1, args.t2,
                             args.replicas, args.mc_seed, args.band_sigmas)
    print(f"\nband violated: switching={hit_switching} "
          f"stationary={hit_stationary}")


if __name__ == "__main__":
    main()
