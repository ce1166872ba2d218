"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them).
The final test gates the propagation determinant drift ``|det M - 1|``
on the forward fixtures of criteria 1-9, over their zero-scan grids and
atoms.
"""

import time

import numpy as np
import pytest

from canspec import forward, oracles
from canspec.inverse import RecoveryPipeline
from canspec.model import GridConfig, Hamiltonian, SpectralMeasure


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def free_roundtrip():
    """Criterion-1 pipeline: computed measure of the free weight, full grids."""
    t0 = time.perf_counter()
    H = Hamiltonian.identity(np.pi)
    mu = forward.spectral_measure(H, 200.0)
    cfg = GridConfig.for_bandwidth(
        np.pi, s_samples=129, pw_truncation=256, measure_window=200.0, r_samples=257
    )
    pipe = RecoveryPipeline(mu, c=0.0, cfg=cfg)
    result = pipe.run()
    elapsed = time.perf_counter() - t0
    return pipe, result, elapsed


def test_criterion_01_free_round_trip(free_roundtrip):
    pipe, result, elapsed = free_roundtrip
    H = result.hamiltonian
    mids = 0.5 * (H.edges[:-1] + H.edges[1:])
    inner = (mids >= 0.02 * np.pi) & (mids <= 0.98 * np.pi)
    sup = float(np.max(np.abs(H.matrices[inner] - np.eye(2))))
    ok = sup <= 5e-3 and elapsed <= 60.0
    _report(1, ok, f"free round trip sup error {sup:.2e} (<=5e-3), runtime {elapsed:.1f}s (<=60s)")


def test_criterion_02_perturbed_round_trip():
    H = oracles.step_fixture(1.2)
    base = oracles.roundtrip(H, window=100.0, pw_truncation=128, s_samples=33, r_samples=65)
    fine = oracles.roundtrip(H, window=200.0, pw_truncation=256, s_samples=65, r_samples=129)
    ratio = fine.max_l1_relative / base.max_l1_relative
    ok = fine.max_l1_relative <= 0.05 and base.max_l1_relative <= 0.05 and 0.375 <= ratio <= 0.625
    _report(
        2,
        ok,
        f"step round trip L1 {base.max_l1_relative:.2e} -> {fine.max_l1_relative:.2e} "
        f"(<=5%), doubling ratio {ratio:.3f} in [0.375, 0.625]",
    )


def test_criterion_03_kernel_identity(step_hamiltonian, step_measure):
    H0, mu0 = oracles.free_fixture(np.pi, 200.0)
    worst_free = 0.0
    for s in (np.pi / 2, np.pi):
        for w in (0.0, 1.0, 1 + 0.5j):
            worst_free = max(worst_free, oracles.kernel_identity_check(H0, mu0, s, w))
    a = forward.exponential_type(step_hamiltonian)
    worst_step = 0.0
    for s in (a / 2, a):
        for w in (0.0, 1.0, 1 + 0.5j):
            worst_step = max(
                worst_step, oracles.kernel_identity_check(step_hamiltonian, step_measure, s, w)
            )
    ok = worst_free <= 1e-10 and worst_step <= 1e-3
    _report(
        3,
        ok,
        f"inverted-kernel identity: free {worst_free:.2e} (<=1e-10), "
        f"step {worst_step:.2e} (<=1e-3)",
    )


def test_criterion_04_trace_identities(step_hamiltonian, step_measure):
    H0, mu0 = oracles.free_fixture(np.pi, 200.0)
    worst_free = max(
        float(np.max(oracles.trace_identity_check(H0, mu0, r)))
        for r in (np.pi / 2, np.pi)
    )
    worst_step = max(
        float(np.max(oracles.trace_identity_check(step_hamiltonian, step_measure, r)))
        for r in (float(step_hamiltonian.edges[1]), step_hamiltonian.ell)
    )
    ok = worst_free <= 1e-4 and worst_step <= 1e-3
    _report(
        4,
        ok,
        f"integrated-weight identities: free {worst_free:.2e} (<=1e-4), "
        f"step {worst_step:.2e} (<=1e-3)",
    )


def test_criterion_05_herglotz_constants():
    H = Hamiltonian.identity(1.0)
    mu = forward.spectral_measure(H, 200.0 * np.pi)
    rng = np.random.default_rng(1)
    herglotz_ok = True
    for _ in range(20):
        z = complex(rng.uniform(-10, 10), rng.uniform(0.01, 5.0))
        if forward.weyl_function(H, z).m.imag <= 0:
            herglotz_ok = False
    # Im m(i) - window sum - tail, from the relative residual r and beyond = tail (1 + r)
    _, r = forward.herglotz_constants(H, mu)
    window_sum = np.sum(mu.masses / (1 + mu.positions**2)) / np.pi
    beyond = forward.weyl_function(H, 1j).m.imag - window_sum
    residual = r * beyond / (1 + r)
    ok = abs(residual) <= 1e-4 and abs(mu.herglotz_c) <= 1e-8 and herglotz_ok
    _report(
        5,
        ok,
        f"free tail residual {abs(residual):.2e} (<=1e-4), "
        f"|c|={abs(mu.herglotz_c):.2e} (<=1e-8), Weyl function Herglotz at 20 points: "
        f"{herglotz_ok}",
    )


def test_criterion_06_chain_position(free_roundtrip, step_measure):
    _, result, _ = free_roundtrip
    s_grid, zetas = result.zeta_table[1:, 0], result.zeta_table[1:, 1]
    zeta_err = float(np.max(np.abs(zetas - s_grid)))
    consistency = result.diagnostics["definitional_residual_max"]
    step = _step_pipe(step_measure)
    step_zetas = step.run().zeta_table[1:, 1]
    increasing = bool(np.all(np.diff(zetas) > 0) and np.all(np.diff(step_zetas) > 0))
    ok = zeta_err <= 1e-4 and consistency <= 1e-6 and increasing
    _report(
        6,
        ok,
        f"chain position: free |zeta(s)-s| {zeta_err:.2e} (<=1e-4) over "
        f"{s_grid.size} samples, definitional residual {consistency:.2e} "
        f"(<=1e-6), strictly increasing on fixtures: {increasing}",
    )


def _step_pipe(step_measure):
    cfg = GridConfig.for_bandwidth(
        step_measure.type, s_samples=17, pw_truncation=128, measure_window=step_measure.window
    )
    return RecoveryPipeline(step_measure, c=step_measure.herglotz_c, cfg=cfg)


def test_criterion_07_lacunary_growth():
    rep = oracles.nonpw_example(0.1, 6)
    prod_ok = bool(np.all(rep.partial_product_errors <= 1e-12))
    ratio_ok = bool(np.all(rep.ratios >= 0.1))
    growth_ok = bool(np.all(np.diff(rep.lambda_over) > 0))
    ok = prod_ok and ratio_ok and growth_ok
    _report(
        7,
        ok,
        f"lacunary weight: partial products match closed form to "
        f"{np.max(rep.partial_product_errors):.1e} (<=1e-12), scaled growth "
        f"{np.min(rep.ratios):.3f} (>=0.1), |E|/lambda strictly increasing: {growth_ok}",
    )


def test_criterion_08_diagonal_condition():
    worst_unit = 0.0
    for n in range(1, 6):
        for s in (0.5, 1.0):
            got = oracles.diag_necessary_condition(lambda t: np.ones_like(t), n, s)
            worst_unit = max(worst_unit, abs(got - n / (2 * n + 1)))
    w = lambda t: 1.5 + 0.3 * np.sin(2.0 * t)
    worst_general = 0.0
    for n in (1, 3, 5):
        got = oracles.diag_necessary_condition(w, n, 1.0)
        brute = oracles.diag_necessary_condition(w, n, 1.0, num_points=40001, rule="trapezoid")
        worst_general = max(worst_general, abs(got - brute))
    ok = worst_unit <= 1e-10 and worst_general <= 1e-6
    _report(
        8,
        ok,
        f"diagonal admissibility ratio: unit-weight error {worst_unit:.1e} (<=1e-10), "
        f"brute-force oracle gap {worst_general:.1e} (<=1e-6)",
    )


def test_criterion_09_frame_bounds():
    from canspec.pwspace import frame_bounds

    _, mu0 = oracles.free_fixture(np.pi, 200.0)
    lo, hi = frame_bounds(mu0, np.pi, 150)
    free_ok = abs(lo - 1.0) <= 1e-8 and abs(hi - 1.0) <= 1e-8
    # one fixed perturbed-lattice measure, growing finite sections
    window = np.pi * (256 + 8)
    k = np.arange(-int(window / np.pi), int(window / np.pi) + 1)
    d = 0.2 * np.cos(2.399 * k)
    d[k == 0] = 0.0
    mu = SpectralMeasure(np.pi * k + d, np.full(k.size, np.pi), window, herglotz_c=0.0)
    kadec = np.array([frame_bounds(mu, 1.0, half)[0] for half in (64, 128, 256)])
    stable = float(np.max(kadec) - np.min(kadec)) / float(np.min(kadec))
    kadec_ok = bool(np.all(kadec >= 0.05)) and stable <= 0.10
    ok = free_ok and kadec_ok
    _report(
        9,
        ok,
        f"frame bounds: free ({lo:.9f}, {hi:.9f}) within 1e-8 of 1; perturbed-lattice "
        f"floor {kadec.min():.3f} (>=0.05), spread {stable:.1%} (<=10%) over half-sizes "
        f"(64, 128, 256)",
    )


def test_criterion_10_determinant_preservation(step_hamiltonian):
    weights = [
        (Hamiltonian.identity(np.pi), 200.0),  # criteria 1, 3, 4, 9
        (step_hamiltonian, 100.0),  # criterion 2
        (step_hamiltonian, 200.0),  # criteria 2, 3, 4, 6
        (Hamiltonian.identity(1.0), 200.0 * np.pi),  # criterion 5
    ]
    res = 0.0
    count = 0
    for H, window in weights:
        # the zero scan's default grid, step pi/(4 type), plus the atoms
        step = np.pi / (4.0 * forward.exponential_type(H))
        grid = np.linspace(-window, window, int(np.ceil(2 * window / step)) + 1)
        z = np.concatenate([grid, forward.spectral_measure(H, window).positions])
        res = max(res, forward.det_residual(H, z))
        count += z.size
    # criterion 7: the lacunary weight at its growth frequencies
    lacunary = np.pi * 3.0 ** np.arange(2, 7, 2) / 2.0
    res = max(res, forward.det_residual(oracles.section5_hamiltonian(0.1, 18), lacunary))
    count += lacunary.size
    ok = res <= 1e-10
    _report(
        10,
        ok,
        f"determinant drift on the fixtures of criteria 1-9: max |det-1| = {res:.2e} "
        f"(<=1e-10) across {count} spectral parameters",
    )
