import numpy as np
import pytest

from canspec import forward, oracles
from canspec.model import Hamiltonian, NumericalError, ValidationError


class TestFreeFixture:
    def test_lattice_and_masses(self):
        H, mu, c = oracles.free_fixture(np.pi, 10.0)
        np.testing.assert_allclose(mu.positions, np.arange(-10, 11))
        np.testing.assert_allclose(mu.masses, 1.0)
        assert c == 0.0

    def test_unit_interval(self):
        _, mu, _ = oracles.free_fixture(1.0, 10.0)
        np.testing.assert_allclose(mu.positions, np.pi * np.arange(-3, 4))
        np.testing.assert_allclose(mu.masses, np.pi)

    def test_matches_forward_solver(self):
        H, mu, _ = oracles.free_fixture(np.pi, 10.5)
        computed = forward.spectral_measure(H, 10.5)
        np.testing.assert_allclose(computed.positions, mu.positions, atol=1e-12)
        np.testing.assert_allclose(computed.masses, mu.masses, rtol=1e-12)


class TestRoundtrip:
    def test_free_identity(self):
        rep = oracles.roundtrip(
            Hamiltonian.identity(np.pi),
            window=100.0,
            pw_truncation=128,
            s_samples=33,
            r_samples=65,
        )
        assert np.max(rep.sup_error_interior) < 5e-3
        assert rep.diagnostics["ell_error"] < 1e-4

    def test_step_within_tolerance(self, step_hamiltonian):
        rep = oracles.roundtrip(
            step_hamiltonian, window=100.0, pw_truncation=128, s_samples=33, r_samples=65
        )
        assert rep.max_l1_relative < 0.05

    def test_nondiagonal_weight(self):
        # off-diagonal entries exercise the cross-pairing and the origin
        # branch of the boundary data (asymmetric measure, c != 0)
        H = Hamiltonian.from_segments(
            [(0.0, 1.0, 1.2, 0.3, 1.0), (1.0, 2.0, 1.0, -0.2, 1.1)]
        )
        rep = oracles.roundtrip(
            H, window=100.0, pw_truncation=128, s_samples=33, r_samples=65
        )
        assert abs(rep.measure.herglotz_c) > 0.01  # genuinely asymmetric
        assert rep.max_l1_relative < 0.02

    def test_near_free_error_scales_linearly(self):
        # error of a weight eps-close to free stays a small multiple of eps
        eps = 0.01
        H = Hamiltonian.from_segments([(0.0, 2.0, 1 + eps, 0.0, 1 / (1 + eps))])
        rep = oracles.roundtrip(
            H, window=100.0, pw_truncation=128, s_samples=33, r_samples=65
        )
        base = oracles.roundtrip(
            Hamiltonian.identity(2.0),
            window=100.0,
            pw_truncation=128,
            s_samples=33,
            r_samples=65,
        )
        assert base.max_l1_relative < 1e-4
        assert rep.max_l1_relative < 0.5 * eps


class TestKernelIdentity:
    @pytest.mark.parametrize("w", [0.0, 1.0, 1 + 0.5j])
    @pytest.mark.parametrize("s_frac", [0.5, 1.0])
    def test_free(self, free_pi, w, s_frac):
        H, mu, _ = free_pi
        res = oracles.kernel_identity_check(H, mu, np.pi * s_frac, w)
        assert res < 1e-10

    @pytest.mark.parametrize("w", [0.0, 1 + 0.5j])
    def test_step(self, step_hamiltonian, step_measure, w):
        a = forward.exponential_type(step_hamiltonian)
        for s in (a / 2, a):
            res = oracles.kernel_identity_check(step_hamiltonian, step_measure, s, w)
            assert res < 1e-3


class TestTraceIdentities:
    def test_free_window_200(self, free_pi):
        H, mu, _ = free_pi
        for r in (np.pi / 2, np.pi):
            res = oracles.trace_identity_check(H, mu, r)
            assert np.max(res) < 1e-4

    def test_free_resonant_tail_is_exact(self, free_pi):
        # at r = pi the tail sine terms vanish on the lattice; the closed-form
        # remainder leaves roundoff only
        H, mu, _ = free_pi
        assert np.max(oracles.trace_identity_check(H, mu, np.pi)) <= 1e-12

    def test_off_diagonal_vanishes_for_diagonal_weight(self, free_pi):
        H, mu, _ = free_pi
        res = oracles.trace_identity_check(H, mu, 0.6 * np.pi)
        assert res[2] < 1e-6

    def test_step_fixture(self, step_hamiltonian, step_measure):
        H = step_hamiltonian
        for r in (float(H.edges[1]), H.ell):
            res = oracles.trace_identity_check(H, step_measure, r)
            assert np.max(res) < 1e-3


class TestChainData:
    def test_free_weight_is_s_times_identity(self):
        H = Hamiltonian.identity(np.pi)
        for s in (0.0, 0.3, 2.0, np.pi):
            np.testing.assert_allclose(oracles.chain_data(H, s), s * np.eye(2), rtol=0, atol=1e-15)

    def test_step_at_its_type_is_the_whole_integral(self, step_hamiltonian):
        H = step_hamiltonian
        whole = np.einsum("n,nij->ij", H.lengths, H.matrices)
        got = oracles.chain_data(H, forward.exponential_type(H))
        np.testing.assert_allclose(got, whole, rtol=1e-15, atol=0)
        # the first segment, of type sqrt(det) * length, ends at its chain point
        first = oracles.chain_data(H, np.sqrt(H.determinants()[0]) * H.lengths[0])
        np.testing.assert_allclose(first, H.lengths[0] * H.matrices[0], rtol=1e-14, atol=0)


class TestNonPwExample:
    def test_partial_products_closed_form(self):
        rep = oracles.nonpw_example(0.1, 6)
        assert np.all(rep.partial_product_errors < 1e-12)

    def test_growth_certificate(self):
        rep = oracles.nonpw_example(0.1, 6)
        assert np.all(rep.ratios >= 0.1)
        assert np.all(np.diff(rep.lambda_over) > 0)
        assert np.all(rep.tail_factor_bounds < 1.001)

    def test_h_range_enforced(self):
        with pytest.raises(ValidationError, match="1/9"):
            oracles.nonpw_example(0.2, 6)
        with pytest.raises(ValidationError, match="1/9"):
            oracles.nonpw_example(1.0 / 9.0, 6)

    def test_overflow_is_a_numerical_error(self):
        # raw overflow warnings would surface here as RuntimeWarning errors
        with pytest.raises(NumericalError, match="overflowed"):
            oracles.nonpw_example(1e-62, 10)

    def test_kmax_must_be_small_even(self):
        with pytest.raises(ValidationError):
            oracles.nonpw_example(0.1, 5)
        with pytest.raises(ValidationError):
            oracles.nonpw_example(0.1, 12)


class TestDiagNecessaryCondition:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_unit_weight_closed_form(self, n, s):
        got = oracles.diag_necessary_condition(lambda t: np.ones_like(t), n, s)
        assert got == pytest.approx(n / (2 * n + 1), abs=1e-10)

    def test_special_case_printed(self):
        got = oracles.diag_necessary_condition(lambda t: np.ones_like(t), 1, 1.0)
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_constant_weight_scales(self):
        # constant kappa: exponents telescope to a single factor kappa
        kappa, n = 1.7, 3
        got = oracles.diag_necessary_condition(lambda t: np.full_like(t, kappa), n, 1.0)
        assert got == pytest.approx(kappa * n / (2 * n + 1), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_brute_force_oracle_agreement(self, n):
        w = lambda t: 1.5 + 0.3 * np.sin(2.0 * t)
        got = oracles.diag_necessary_condition(w, n, 1.0)
        oracle = oracles.diag_necessary_condition(
            w, n, 1.0, num_points=40001, rule="trapezoid"
        )
        assert abs(got - oracle) < 1e-6

    @pytest.mark.parametrize("n, s", [(20, 1e8), (1, 1e200)])
    def test_large_bandwidth_closed_form(self, n, s):
        # the powers of s cancel: s^(2n+1) itself overflows here
        got = oracles.diag_necessary_condition(lambda t: np.ones_like(t), n, s)
        assert got == pytest.approx(n / (2 * n + 1), rel=1e-9)

    def test_depth_guard(self):
        with pytest.raises(ValidationError):
            oracles.diag_necessary_condition(lambda t: np.ones_like(t), 21, 1.0)

    def test_positive_weight_required(self):
        with pytest.raises(ValidationError):
            oracles.diag_necessary_condition(lambda t: -np.ones_like(t), 1, 1.0)
