#!/usr/bin/env python3
"""Watch the most-probable binning take over as the gas grows.

For a family of lattice gases at fixed mean energy, print how much of the
microstate mass the argmax binning carries, how far the variational fit sits
from it, and how the tagged-particle energy distribution compares with the
peak-state approximation.  The law and the peak are counted, not
enumerated, so the sizes reach N in the thousands.  The numbers illustrate
the equivalence (in the large-N limit) of averaging over all binning states
and keeping only the most probable one.
"""

import argparse
import sys

from microcanon import ensemble, ontology
from microcanon.errors import DegenerateEnergy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=3, help="number of energy bins")
    ap.add_argument("--mean-excess", type=float, default=2 / 3,
                    help="excess energy per particle (lattice units)")
    ap.add_argument("--sizes", default="3,9,30,90,300,1000,3000,10000",
                    help="comma-separated particle counts")
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    print("n,states,argmax_mass,peak_delta,max_fit_gap")
    for n in sizes:
        e = round(args.mean_excess * n)
        spec = ensemble.GasSpec(n=n, m=args.m, e_units=e)
        best = ensemble.most_probable_binnings(spec)[0]
        states = ensemble.count_binnings(spec)
        peak_mass = ensemble.multiplicity(best) / ensemble.total_multiplicity(spec)
        delta = ontology.peak_approximation_delta(spec, best)
        try:
            fit = ensemble.boltzmann_fit(spec)
            gap = max(abs(x - p) for x, p in zip(best, fit.predicted)) / n
        except DegenerateEnergy:  # boundary energies have no finite-beta fit
            gap = float("nan")
        print(f"{n},{states},{peak_mass:.6f},{delta:.6g},{gap:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
