#!/usr/bin/env python3
"""Why the maximally mixed state is the right target for this test.

The interferometric measurement is only fair if reading the correlator does
not disturb the system's later evolution.  Here we send different system
states through the scattering circuit and compare what comes out (tracing
out the probe) with what went in.  I/2 emerges untouched at every setting;
a pure state is slammed all the way to I/2 at the right phase gap.

The second half shows the low-polarization probe trick: a pseudo-pure probe
(1-eps) I/2 + eps |0><0| scales the raw signal by eps, and dividing by a
zero-time reference experiment recovers the ideal correlator exactly.
"""

import math

import numpy as np

from lgsim import (
    Evolution,
    correlation_circuit,
    correlation_oracle,
    max_disturbance,
    maximally_mixed,
    observable_from_state,
    pure_density,
    KET0,
)

evo = Evolution(omega=1.0)
obs = observable_from_state(KET0)
times = np.linspace(0.0, math.pi, 5)

print("disturbance of the system state, max over a 5x5 grid of time pairs")
print(f"{'system state':>14} {'max trace distance to input':>30}")
for label, rho_sys in (("I/2", maximally_mixed()), ("|0><0|", pure_density(KET0))):
    worst = max_disturbance(rho_sys, obs, evo, times)  # pure probe: eps = 1
    print(f"{label:>14} {worst:>30.3e}")

print("""
I/2 is invariant under every branch of the interferometer, so probing it is
noninvasive.  The pure state is dragged to I/2 (distance 1/2) at phase gap
pi/4 and flipped all the way to |1><1| (distance 1) at gap pi/2.
""")

print("pseudo-pure probe: raw signal scales with eps, normalization undoes it")
t_k, t_m = 0.0, math.pi / 6  # theta = pi/3, ideal correlator = 0.5
ideal = correlation_oracle(maximally_mixed(), obs, evo, t_k, t_m)
print(f"{'eps':>6} {'raw':>12} {'raw/eps':>12} {'normalized':>12}")
for eps in (1.0, 0.5, 0.2, 0.05):
    raw, normalized = correlation_circuit(maximally_mixed(), obs, evo,
                                          t_k, t_m, probe_eps=eps)
    print(f"{eps:6.2f} {raw:12.6f} {raw/eps:12.6f} {normalized:12.6f}")
print(f"\nideal correlator cos(pi/3) = {ideal:.6f}")
