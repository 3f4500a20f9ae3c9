#!/usr/bin/env python3
"""Walk through the temporal-correlation experiment end to end.

A single qubit driven by H = omega * sigma_x is interrogated at three equally
spaced instants by a probe qubit riding a scattering interferometer.  The
dichotomic observable asks "is the system still where it started?"; its
two-time correlators assemble into K = C12 + C23 - C13, which any
macrorealistic, noninvasively measurable system keeps at or below 1.

The quantum answer is K(theta) = 2 cos(theta) - cos(2 theta) with
theta = (energy gap) x (spacing), which tops out at 1.5.  This script sweeps
a full 2 pi cycle on the maximally mixed state and locates the windows where
the classical bound breaks.
"""

import math

import numpy as np

from lgsim import Evolution, analytic_k, find_violations, maximally_mixed, sweep

evo = Evolution(omega=1.0)
rho_sys = maximally_mixed()

print("sweeping K over theta in [0, 2*pi], 721 points, system = I/2 ...")
results = sweep(evo, rho_sys, probe_eps=1.0, theta_min=0.0,
                theta_max=2 * math.pi, steps=721)

print(f"\n{'theta':>10} {'C12':>9} {'C23':>9} {'C13':>9} {'K':>9} {'2cos-cos2':>10}")
for r in results[::90]:
    print(f"{r.theta:10.4f} {r.c12:9.4f} {r.c23:9.4f} {r.c13:9.4f} "
          f"{r.k:9.4f} {analytic_k(r.theta):10.4f}")

worst = np.max(np.abs(results.k - analytic_k(results.theta)))
print(f"\nmax |K_circuit - K_analytic| over the grid: {worst:.2e}")

top = results.theta[results.k >= results.k.max() - 1e-12]
print(f"grid maxima K = {results.k.max():.9f} at theta = "
      + ", ".join(f"{t:.6f}" for t in top)
      + f"  (pi/3 = {math.pi/3:.6f}, 5pi/3 = {5*math.pi/3:.6f})")

print("\nviolation windows (K > 1):")
for lo, hi in find_violations(results):
    print(f"  theta in ({lo:.6f}, {hi:.6f})"
          f"   width/pi = {(hi - lo)/math.pi:.4f}")
print(f"expected: (0, pi/2) and (3pi/2, 2pi); pi/2 = {math.pi/2:.6f}")

print("""
The same curve is produced by |0><0|, |1><1| or any diagonal mixture of the
two: the violation does not care how mixed the system is.  Try it by swapping
maximally_mixed() for lgsim.classical_mixture(0.3, 0.7) above.""")
