"""Inverse problem on the cleanest input: the free spectral measure.

Atoms at the integers with unit masses are the spectral data of the
identity weight on [0, pi].  Recovering from a window of 401 atoms
reproduces the identity to around 1e-12 away from the endpoints, and the
chain position map is the identity on the bandwidth interval.
"""

import numpy as np

from canspec import GridConfig, RecoveryPipeline
from canspec.oracles import free_fixture

H_true, mu = free_fixture(np.pi, window=200.0)
print(f"input: {mu.positions.size} atoms at the integers, masses 1, c = {mu.herglotz_c}")

# the bandwidth is the measure's own type, pi here
cfg = GridConfig.for_bandwidth(
    mu.type, s_samples=33, pw_truncation=128, measure_window=mu.window, r_samples=65
)
res = RecoveryPipeline(mu, c=mu.herglotz_c, cfg=cfg).run()
H = res.hamiltonian
print(f"recovered interval [0, {H.ell:.12f}] (true pi = {np.pi:.12f})")

mids = 0.5 * (H.edges[:-1] + H.edges[1:])
inner = (mids > 0.02 * np.pi) & (mids < 0.98 * np.pi)
err = np.max(np.abs(H.matrices[inner] - np.eye(2)))
print(f"sup deviation from the identity on the interior: {err:.2e}")

print("\nchain position table (s, position):")
for row in res.zeta_table[:: len(res.zeta_table) // 8]:
    print(f"  s = {row[0]:.4f}  ->  {row[1]:.10f}")

print("\ndiagnostics:")
for key, val in res.diagnostics.items():
    print(f"  {key}: {val:.3e}" if isinstance(val, float) else f"  {key}: {val}")
