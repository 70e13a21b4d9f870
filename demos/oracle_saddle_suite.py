#!/usr/bin/env python3
# Usage:
#   python3 demos/oracle_saddle_suite.py [--samples 200000] [--k 2]
#
# Exercises the linear-Gaussian oracle end to end: closed-form distortion,
# a Monte-Carlo cross-check, the perturbation grid around the saddle, and
# the characteristic-function matching residual for two jammer families.

import argparse

from latentjam.oracle import (OracleSpec, isotropic_matching, matching_residual,
                              matching_samples, mc_game_value, saddle_strategy,
                              saddle_verify, scalar_saddle_distortion)
from latentjam.rng import derive_seed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = OracleSpec(sigma_x_sq=1.0, P_t=1.0, P_a=1.0, sigma_n_sq=0.0, k=args.k)
    d_star = scalar_saddle_distortion(spec)
    print(f"spec: sigma_x^2=1 P_t=1 P_a=1 sigma_n^2=0 k={args.k}")
    print(f"closed-form distortion D* = {d_star}")

    mc = mc_game_value(spec, saddle_strategy(spec), args.samples,
                       derive_seed(args.seed, "demo/mc"))
    print(f"Monte-Carlo at the saddle = {mc.value:.5f} +- {mc.std_error:.5f} "
          f"({mc.samples} samples)")

    print("\nperturbation grid (jammer rows must not gain, codec rows must not win):")
    report = saddle_verify(spec, samples=args.samples,
                           seed=derive_seed(args.seed, "demo/verify"))
    for row in report.rows:
        print(f"  {'ok ' if row.ok else 'BAD'} {row.side:6s} {row.name:28s} "
              f"J = {row.value:.5f} +- {row.std_error:.5f}")
    print(f"verdict: passed={report.passed}  "
          f"max jammer gain {report.max_jammer_gain:+.5f}, "
          f"max codec loss {report.max_codec_loss:+.5f}")

    print("\nmatching residual (small means the optimal estimator is linear):")
    for family, param in (("gaussian", spec.P_a), ("uniform", 1.0)):
        x, zn = matching_samples(spec, (family, param), args.samples,
                                 derive_seed(args.seed, f"demo/match/{family}"))
        res = matching_residual(x, zn, isotropic_matching(spec))
        print(f"  {family:8s} jammer: residual = {res:.4f}")


if __name__ == "__main__":
    main()
