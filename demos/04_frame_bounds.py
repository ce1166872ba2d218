"""Comparability certificates: frame bounds of sectioned quadratic forms.

The free measure gives the identity form (bounds exactly 1).  A lattice
perturbed by bounded shifts keeps a healthy lower bound that stabilizes
as the section grows, which is the numerical substitute for the
norm-comparability condition.  Shrinking a mass pushes the lower bound
down.
"""

import numpy as np

from canspec import SpectralMeasure, frame_bounds
from canspec.oracles import free_fixture

_, mu_free = free_fixture(np.pi, window=200.0)
lo, hi = frame_bounds(mu_free, np.pi, 150)
print(f"free measure:        bounds ({lo:.12f}, {hi:.12f})")

window = np.pi * (128 + 8)
k = np.arange(-int(window / np.pi), int(window / np.pi) + 1)
shift = 0.2 * np.cos(2.399 * k)
shift[k == 0] = 0.0
mu_kadec = SpectralMeasure(np.pi * k + shift, np.full(k.size, np.pi), window, herglotz_c=0.0)
for half in (32, 64, 128):
    lo, hi = frame_bounds(mu_kadec, 1.0, half)
    print(f"shifted lattice N={half:4d}: bounds ({lo:.6f}, {hi:.6f})")

weak = np.full(k.size, np.pi)
weak[np.abs(k) <= 3] *= 0.05  # starve the center of mass
mu_weak = SpectralMeasure(np.pi * k.astype(float), weak, window, herglotz_c=0.0)
lo, hi = frame_bounds(mu_weak, 1.0, 64)
print(f"mass-starved center: bounds ({lo:.6f}, {hi:.6f})  <- comparability degrading")
