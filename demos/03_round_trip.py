"""Round trip on a genuinely perturbed weight, with convergence evidence.

A two-segment diagonal weight goes through the full pipeline: trace
normalization, spectral measure, Herglotz constant, recovery.  Doubling
every grid parameter roughly halves the relative L1 error, which is the
practical convergence certificate at desk scale.
"""

from canspec import Hamiltonian, herglotz_constants
from canspec.oracles import roundtrip, step_fixture

H = step_fixture(w=1.2, trace_normalized=False)
print("input segments (r0, r1, h11, h12, h22):")
for seg in H.segments:
    print("  ", tuple(round(v, 6) for v in seg))

for label, kwargs in [
    ("base grids ", dict(window=100.0, pw_truncation=128, s_samples=33, r_samples=65)),
    ("doubled    ", dict(window=200.0, pw_truncation=256, s_samples=65, r_samples=129)),
]:
    rep = roundtrip(H, **kwargs)
    print(
        f"{label}: relative L1 error {rep.max_l1_relative:.4e}, "
        f"interior sup {rep.sup_error_interior.max():.4e}, "
        f"tail model residual {herglotz_constants(rep.normalized, rep.measure)[1]:+.1e}"
    )

print("\nrecovered segment values around the jump (midpoint, h11, h22):")
rep = roundtrip(H, window=100.0, pw_truncation=128, s_samples=33, r_samples=65)
Hr = rep.result.hamiltonian
jump = rep.normalized.edges[1]
for r0, r1, h11, h12, h22 in Hr.segments:
    mid = 0.5 * (r0 + r1)
    if abs(mid - jump) < 0.2:
        marker = " <- jump" if r0 <= jump <= r1 else ""
        print(f"  {mid:.4f}  {h11:.4f}  {h22:.4f}{marker}")
