"""Forward problem: from a piecewise-constant weight to its spectral measure.

Builds a two-segment diagonal weight, normalizes its trace, and computes
the atomic spectral measure together with the additive Herglotz constant
of the Weyl function; the linear one is 0 on every weight of the class.
The atoms sit near (but not on) the free lattice; the masses alternate
around the free value pi/type.
"""

import numpy as np

from canspec import (
    Hamiltonian,
    exponential_type,
    herglotz_constants,
    normalize_trace,
    spectral_measure,
    weyl_function,
)

w = 1.2
H = Hamiltonian.from_segments([(0, 1, w, 0, 1 / w), (1, 2, 1 / w, 0, w)])
Ht, time_change = normalize_trace(H)
print(f"trace-2 form lives on [0, {Ht.ell:.6f}], exponential type {exponential_type(Ht):.6f}")

mu = spectral_measure(Ht, window=60.0)
_, residual = herglotz_constants(Ht, mu)
print(f"\n{mu.positions.size} atoms in [-60, 60]; Herglotz c={mu.herglotz_c:.2e}")
print(f"lattice model of the atoms beyond the window: off by {residual:+.1e} at z = i")

print("\natoms nearest the origin (position, mass):")
center = mu.zero_index
for i in range(center - 3, center + 4):
    print(f"  {mu.positions[i]:+10.6f}   {mu.masses[i]:.6f}")

free_spacing = np.pi / exponential_type(Ht)
gaps = np.diff(mu.positions)[-10:]
print(f"\nouter atom spacing {gaps.mean():.6f} vs free spacing pi/type = {free_spacing:.6f}")
print(
    f"the tail model continues the atoms at the fitted type mu.type = {mu.type:.9f}, "
    f"spacing pi/mu.type = {np.pi / mu.type:.9f} (pi/exponential_type = {free_spacing:.9f})"
)

m = weyl_function(Ht, 0.5 + 1.0j)
print(f"\nWeyl function at 0.5+1i: {m.m:.6f} (positive imaginary part)")
