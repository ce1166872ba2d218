import numpy as np
import pytest
import scipy.linalg

from canspec import forward, oracles
from canspec.model import (
    J,
    Hamiltonian,
    InvariantViolation,
    NumericalError,
    TransferMatrix,
    ValidationError,
    normalize_trace,
)


def free_matrix(r, z):
    return np.array(
        [[np.cos(r * z), np.sin(r * z)], [-np.sin(r * z), np.cos(r * z)]]
    )


def smooth_weight(seed, segments):
    """Trace-normalized ``R(th) diag(e^g, e^-g) R(th)^T`` with smooth seeded ``g``, ``th``."""
    rng = np.random.default_rng(seed)
    x = (np.arange(segments) + 0.5) / segments
    k = np.arange(1, 4)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(2, 3))
    g, th = ((0.3 / k) * np.cos(2.0 * np.pi * k * x[:, None] + phases[:, None, :])).sum(axis=2)
    c, s, e = np.cos(th), np.sin(th), np.exp(g)
    mats = np.empty((segments, 2, 2))
    mats[:, 0, 0] = c * c * e + s * s / e
    mats[:, 1, 1] = s * s * e + c * c / e
    mats[:, 0, 1] = mats[:, 1, 0] = c * s * (e - 1.0 / e)
    scale = 0.5 * (mats[:, 0, 0] + mats[:, 1, 1])
    lengths = np.full(segments, np.pi / segments) * scale
    return Hamiltonian.from_lengths(lengths, mats / scale[:, None, None])


def bisection_zeros(H, window, step=None, passes=60):
    """Zeros of theta_minus(ell, .) by plain bisection of sign-change scan brackets.

    The scan step defaults to the one ``find_zeros`` uses, ``pi / (4 type)``.
    """
    step = np.pi / (4.0 * forward.exponential_type(H)) if step is None else step
    grid = np.linspace(-window, window, int(np.ceil(2 * window / step)) + 1)
    vals = forward.transfer_entries(H, H.ell, grid)[:, 1, 0]
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    lo, hi, flo = grid[idx], grid[idx + 1], vals[idx]
    for _ in range(passes):
        mid = 0.5 * (lo + hi)
        fm = forward.transfer_entries(H, H.ell, mid)[:, 1, 0]
        take = flo * fm <= 0
        hi, lo, flo = np.where(take, mid, hi), np.where(take, lo, mid), np.where(take, flo, fm)
    zeros = np.concatenate([0.5 * (lo + hi), [0.0]])
    # a bracket may straddle the origin, whose zero is exact
    zeros[np.abs(zeros) < 1e-12] = 0.0
    return np.unique(zeros)


class TestPropagate:
    @pytest.mark.parametrize("z", [0.7, -4.0, 2.3 + 1.1j, 120.0])
    @pytest.mark.parametrize("r", [0.3, 1.0, np.pi])
    def test_free_closed_form(self, r, z):
        H = Hamiltonian.identity(np.pi)
        M = forward.propagate(H, r, z)
        np.testing.assert_allclose(M.entries, free_matrix(r, z), atol=1e-12 * max(1, abs(np.exp(1j * r * z))))

    def test_zero_energy_gives_identity(self, step_hamiltonian):
        M = forward.propagate(step_hamiltonian, step_hamiltonian.ell, 0.0)
        assert np.array_equal(M.entries, np.eye(2))

    def test_r_outside_interval(self):
        H = Hamiltonian.identity(1.0)
        with pytest.raises(ValidationError):
            forward.propagate(H, 1.5, 1.0)

    def test_partial_segment(self):
        H = Hamiltonian.identity(2.0)
        M = forward.propagate(H, 0.77, 1.3)
        np.testing.assert_allclose(M.entries, free_matrix(0.77, 1.3), atol=1e-14)

    def test_determinant_preserved_on_step(self, step_hamiltonian):
        zs = np.linspace(-80, 80, 401)
        M = forward.transfer_entries(step_hamiltonian, step_hamiltonian.ell, zs)
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        assert np.max(np.abs(det - 1.0)) < 1e-12

    def test_cocycle_property(self, step_hamiltonian):
        H = step_hamiltonian
        r1 = float(H.edges[1])
        r2 = H.ell
        shifted = Hamiltonian.from_lengths([H.ell - r1], [H.matrices[1]])
        for z in [0.9, 3.7, 1.0 + 0.5j]:
            full = forward.propagate(H, r2, z).entries
            left = forward.propagate(shifted, r2 - r1, z).entries
            right = forward.propagate(H, r1, z).entries
            np.testing.assert_allclose(full, left @ right, atol=1e-12)

    def test_transfer_matrix_invariant_guard(self):
        with pytest.raises(InvariantViolation):
            TransferMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]), 1.0, 0.0)

    def test_section5_partial_products(self):
        # exact two-valued lacunary products: diag(h^{-k/2}, h^{k/2})
        h = 0.1
        H = oracles.section5_hamiltonian(h, 20)
        for k in (2, 4, 6):
            lam = np.pi * 3.0**k / 2.0
            M = forward.propagate(H, float(H.edges[k]), lam).entries.real
            target = np.diag([h ** (-k / 2), h ** (k / 2)])
            rel = np.max(np.abs(M - target)) / np.max(np.abs(target))
            assert rel < 1e-12


class TestSegmentKernel:
    @pytest.mark.parametrize(
        "z", [np.linspace(-40.0, 40.0, 81), np.array([0.3 + 0.8j, -7.0 + 2.0j])]
    )
    def test_theta_columns_equal_transfer_columns(self, step_hamiltonian, z):
        H = step_hamiltonian
        M = forward.transfer_entries(H, H.ell, z)
        tp, tm, _, _ = forward.theta_and_derivative(H, H.ell, z)
        assert np.array_equal(tp, M[..., 0, 0])
        assert np.array_equal(tm, M[..., 1, 0])

    def test_origin_is_exact_identity(self, step_hamiltonian):
        z = np.array([0.7, -30.0, 2.0 + 1.5j])
        M, dM = forward._propagate(step_hamiltonian, 0.0, z, derivative=True)
        assert np.array_equal(M, np.broadcast_to(np.eye(2), (3, 2, 2)))
        assert np.array_equal(dM, np.zeros((3, 2, 2)))

    @pytest.mark.parametrize("z", [0.9, 12.0, 1.0 + 0.5j])
    def test_segment_edge_is_one_exponential(self, step_hamiltonian, z):
        H = step_hamiltonian
        r1 = float(H.edges[1])
        got = forward.transfer_entries(H, r1, np.asarray(z))
        # J X' = z H X on one constant segment: X(r) = exp(-z r J H) X(0)
        want = scipy.linalg.expm(-z * r1 * J @ H.matrices[0])
        np.testing.assert_allclose(got, want, atol=1e-13 * max(1.0, np.abs(want).max()))

    def test_positions_broadcast_against_parameters(self, step_hamiltonian):
        # each point stops at its own r; a shared r gives the same products
        H = step_hamiltonian
        rs = np.array([0.0, 0.4, float(H.edges[1]), 1.7, H.ell])
        z = np.array([0.9, 2.5 + 0.3j])
        M = forward._propagate(H, rs[:, None], z[None, :])[0]
        assert M.shape == (5, 2, 2, 2)
        for i, r in enumerate(rs):
            assert np.array_equal(M[i], forward.transfer_entries(H, r, z))


class TestThetaDerivative:
    def test_free_closed_form(self):
        H = Hamiltonian.identity(np.pi)
        z = 1.7
        tp, tm, dp, dm = forward.theta_and_derivative(H, np.pi, np.asarray(z))
        assert tm == pytest.approx(-np.sin(np.pi * z), abs=1e-14)
        assert dm == pytest.approx(-np.pi * np.cos(np.pi * z), abs=1e-13)
        assert dp == pytest.approx(-np.pi * np.sin(np.pi * z), abs=1e-13)

    def test_zero_energy_derivative_is_weight_integral(self):
        H = Hamiltonian.from_segments(
            [(0.0, 1.0, 3.0, 0.0, 1.0), (1.0, 2.0, 1.0, 0.0, 3.0)]
        )
        _, _, dp, dm = forward.theta_and_derivative(H, 2.0, np.asarray(0.0))
        assert dm == pytest.approx(-4.0, abs=1e-15)  # -integral of h11
        assert dp == pytest.approx(0.0, abs=1e-15)  # -integral of h12

    def test_central_difference_oracle(self):
        H = Hamiltonian.from_segments(
            [(0.0, 1.0, 3.0, 0.0, 1.0), (1.0, 2.0, 1.0, 0.0, 3.0)]
        )
        Ht, _ = normalize_trace(H)
        d = 1e-5
        for z0 in [0.4, 1.9, 6.3]:
            _, tm_p, _, _ = forward.theta_and_derivative(Ht, Ht.ell, np.asarray(z0 + d))
            _, tm_m, _, _ = forward.theta_and_derivative(Ht, Ht.ell, np.asarray(z0 - d))
            _, _, _, dm = forward.theta_and_derivative(Ht, Ht.ell, np.asarray(z0))
            assert abs(dm - (tm_p - tm_m) / (2 * d)) < 1e-6


class TestFindZeros:
    def test_free_pi_integers(self):
        H = Hamiltonian.identity(np.pi)
        zeros = forward.find_zeros(H, 5.5, 0.5)
        np.testing.assert_allclose(zeros, np.arange(-5, 6), atol=1e-12)

    def test_free_unit_multiples_of_pi(self):
        H = Hamiltonian.identity(1.0)
        zeros = forward.find_zeros(H, 7.0, 0.5)
        np.testing.assert_allclose(zeros, np.pi * np.arange(-2, 3), atol=1e-12)

    def test_step_against_dense_scan(self, step_hamiltonian):
        H = step_hamiltonian
        zeros = forward.find_zeros(H, 10.0)
        # independent oracle: brute-force sign-change scan at step 1e-3
        oracle = bisection_zeros(H, 10.0, step=1e-3, passes=50)
        assert zeros.size == oracle.size
        np.testing.assert_allclose(zeros, oracle, atol=1e-9)

    def test_coarse_step_rejected(self):
        H = Hamiltonian.identity(np.pi)
        with pytest.raises(ValidationError, match="step"):
            forward.find_zeros(H, 5.0, 2.0)

    def test_zero_always_included(self, step_hamiltonian):
        zeros = forward.find_zeros(step_hamiltonian, 3.0)
        assert 0.0 in zeros

    @pytest.mark.parametrize("seed, segments", [(0, 50), (1, 120), (2, 200)])
    def test_matches_bisection_reference(self, seed, segments):
        H = smooth_weight(seed, segments)
        zeros = forward.find_zeros(H, 40.0)
        ref = bisection_zeros(H, 40.0)
        assert zeros.size == ref.size
        assert np.all(np.abs(zeros - ref) <= 1e-13 * np.abs(ref))

    def test_propagation_count(self, monkeypatch):
        # one scan plus a few joint derivative passes, not one pass per bisection
        H = smooth_weight(3, 200)
        calls = {"plain": 0, "derivative": 0}
        plain, joint = forward.transfer_entries, forward.theta_and_derivative

        def count(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(forward, "transfer_entries", count("plain", plain))
        monkeypatch.setattr(forward, "theta_and_derivative", count("derivative", joint))
        forward.find_zeros(H, 60.0)
        assert calls["plain"] <= 1
        assert calls["derivative"] <= 6

    def test_wrong_derivative_sign_falls_back_to_brackets(self, monkeypatch):
        H = smooth_weight(4, 100)
        ref = bisection_zeros(H, 30.0)
        joint = forward.theta_and_derivative

        def flipped(*args):
            tp, tm, dp, dm = joint(*args)
            return tp, tm, -dp, -dm

        monkeypatch.setattr(forward, "theta_and_derivative", flipped)
        zeros = forward.find_zeros(H, 30.0)
        assert zeros.size == ref.size
        assert np.all(np.abs(zeros - ref) <= 1e-13 * (1.0 + np.abs(ref)))

    def test_unconverged_refinement_raises(self, monkeypatch):
        H = smooth_weight(5, 50)
        joint = forward.theta_and_derivative

        def no_root(*args):
            tp, tm, dp, dm = joint(*args)
            return tp, np.ones_like(tm), dp, dm

        monkeypatch.setattr(forward, "theta_and_derivative", no_root)
        with pytest.raises(NumericalError, match="did not converge"):
            forward.find_zeros(H, 10.0)


class TestSpectralMeasure:
    def test_free_pi_unit_masses(self):
        H = Hamiltonian.identity(np.pi)
        mu = forward.spectral_measure(H, 5.5)
        np.testing.assert_allclose(mu.positions, np.arange(-5, 6), atol=1e-12)
        np.testing.assert_allclose(mu.masses, 1.0, rtol=1e-12)

    def test_free_unit_masses_pi(self):
        H = Hamiltonian.identity(1.0)
        mu = forward.spectral_measure(H, 7.0)
        np.testing.assert_allclose(mu.masses, np.pi, rtol=1e-12)

    def test_step_masses_positive(self, step_measure):
        assert np.all(step_measure.masses > 0)
        assert step_measure.mass_at_zero > 0

    def test_incompatible_weight_rejected(self):
        H = Hamiltonian.from_segments(
            [(0.0, 1.0, 0.0, 0.0, 2.0), (1.0, 2.0, 1.0, 0.0, 1.0)]
        )
        with pytest.raises(ValidationError, match="rank-one"):
            forward.spectral_measure(H, 5.0)


class TestWeylFunction:
    @pytest.mark.parametrize("ell", [1.0, np.pi, 2.5])
    def test_free_coth(self, ell):
        H = Hamiltonian.identity(ell)
        m = forward.weyl_function(H, 1j).m
        assert m == pytest.approx(1j / np.tanh(ell), abs=1e-14)

    def test_free_limit_at_infinity(self):
        H = Hamiltonian.identity(np.pi)
        m = forward.weyl_function(H, 40j).m
        assert m == pytest.approx(1j, abs=1e-12)

    def test_herglotz_property_step(self, step_hamiltonian):
        m = forward.weyl_function(step_hamiltonian, 0.3 + 0.7j).m
        assert m.imag > 0

    def test_rejects_lower_half_plane(self, step_hamiltonian):
        with pytest.raises(ValidationError):
            forward.weyl_function(step_hamiltonian, 1.0 - 1j)


class TestHerglotzConstants:
    def test_free_unit_interval(self):
        H = Hamiltonian.identity(1.0)
        mu = forward.spectral_measure(H, 200.0 * np.pi)
        assert abs(mu.herglotz_b) < 1e-4
        assert abs(mu.herglotz_c) < 1e-8

    def test_free_pi_interval(self):
        H = Hamiltonian.identity(np.pi)
        mu = forward.spectral_measure(H, 200.0)
        assert abs(mu.herglotz_b) < 1e-4
        assert abs(mu.herglotz_c) < 1e-8

    def test_symmetric_weight_c_vanishes(self, step_hamiltonian, step_measure):
        assert abs(step_measure.herglotz_c) < 1e-10

    @pytest.mark.parametrize("ell, window", [(np.pi, 200.0), (1.0, 200.0 * np.pi)])
    def test_closed_form_tail_is_exact_on_free_weights(self, ell, window):
        mu = forward.spectral_measure(Hamiltonian.identity(ell), window)
        assert abs(mu.herglotz_b) <= 1e-14

    @pytest.mark.parametrize("window", [30.0, 60.0, 200.0])
    def test_parity_split_tail_on_alternating_masses(self, step_hamiltonian, window):
        # the step fixture's outer masses alternate; a plain band mean misses b
        mu = forward.spectral_measure(step_hamiltonian, window)
        assert abs(mu.herglotz_b) <= 1e-12


class TestWeylTitchmarsh:
    @pytest.mark.parametrize("z", [0.9, 2.7, 1.1 + 0.4j])
    def test_constant_first_basis_vector(self, step_hamiltonian, z):
        # transform of (1,0) equals -theta_minus/(z*sqrt(pi)) for any weight
        H = step_hamiltonian
        got = forward.weyl_titchmarsh(H, H.ell, lambda t: np.tile([1.0, 0.0], (len(t), 1)), z)
        tm = forward.propagate(H, H.ell, z).theta_minus
        assert got == pytest.approx(-tm / (z * np.sqrt(np.pi)), abs=1e-13)

    @pytest.mark.parametrize("z", [0.9, 2.7])
    def test_constant_second_basis_vector(self, step_hamiltonian, z):
        H = step_hamiltonian
        got = forward.weyl_titchmarsh(H, H.ell, lambda t: np.tile([0.0, 1.0], (len(t), 1)), z)
        tp = forward.propagate(H, H.ell, z).theta_plus
        assert got == pytest.approx((tp - 1.0) / (z * np.sqrt(np.pi)), abs=1e-13)

    def test_free_closed_forms(self):
        H = Hamiltonian.identity(np.pi)
        r, z = 2.0, 1.3
        got = forward.weyl_titchmarsh(H, r, lambda t: np.tile([1.0, 0.0], (len(t), 1)), z)
        assert got == pytest.approx(np.sin(r * z) / (z * np.sqrt(np.pi)), abs=1e-14)
        got = forward.weyl_titchmarsh(H, r, lambda t: np.tile([0.0, 1.0], (len(t), 1)), z)
        assert got == pytest.approx((np.cos(r * z) - 1) / (z * np.sqrt(np.pi)), abs=1e-14)

    @pytest.mark.parametrize("w", [0.5, 1.5 + 0.3j])
    def test_solution_maps_to_kernel(self, step_hamiltonian, w):
        # transforming the solution itself yields sqrt(pi) times the kernel
        H = step_hamiltonian
        r = H.ell
        wbar = np.conj(w)

        def X(ts):
            out = np.empty((len(ts), 2), dtype=complex)
            for i, t in enumerate(ts):
                M = forward.transfer_entries(H, float(t), np.asarray(wbar))
                out[i] = M[:, 0]
            return out

        for z in [0.7, 2.2]:
            got = forward.weyl_titchmarsh(H, r, X, z)
            want = np.sqrt(np.pi) * oracles._debranges_kernel(
                H, r, w, np.asarray([z], dtype=float)
            )[0]
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("z", [0.9, 1.1 + 0.4j])
    def test_profile_matches_per_node_propagation(self, step_hamiltonian, z):
        H = step_hamiltonian
        r = 1.5
        nodes, weights = forward.quadrature_grid(H, r)
        X = np.column_stack([np.cos(nodes), 1.0 + nodes**2])
        theta = np.array([forward.transfer_entries(H, t, np.asarray(z))[:, 0] for t in nodes])
        hx = np.einsum("nij,nj->ni", H.sample(nodes), X)
        want = np.sum(weights * np.sum(hx * theta, axis=1)) / np.sqrt(np.pi)
        assert abs(forward.weyl_titchmarsh(H, r, X, z) - want) <= 1e-14 * max(1.0, abs(want))

    def test_work_linear_in_segments(self, monkeypatch):
        # count the spectral parameters that pass through the segment factors
        seen = []
        cs = forward._cs

        def counted(delta):
            seen.append(np.size(delta))
            return cs(delta)

        monkeypatch.setattr(forward, "_cs", counted)
        X = lambda t: np.column_stack([np.cos(t), 1.0 + t**2])
        work = {}
        for n in (100, 400):
            seen.clear()
            H = smooth_weight(6, n)
            forward.weyl_titchmarsh(H, H.ell, X, 1.3 + 0.2j)
            work[n] = sum(seen)
        assert work[400] <= 4 * work[100]

    def test_grid_misalignment_rejected(self, step_hamiltonian):
        H = step_hamiltonian
        with pytest.raises(ValidationError, match="misalignment"):
            forward.weyl_titchmarsh(H, H.ell, np.zeros((5, 2)), 1.0)

    def test_empty_interval(self, step_hamiltonian):
        H = step_hamiltonian
        got = forward.weyl_titchmarsh(H, 0.0, lambda t: np.zeros((len(t), 2)), 1.0)
        assert got == 0.0


class TestTypeFunctions:
    def test_exponential_type_free(self):
        assert forward.exponential_type(Hamiltonian.identity(np.pi)) == pytest.approx(np.pi)

    def test_unit_determinant_weight(self):
        H = Hamiltonian.from_segments([(0.0, 1.5, 1.2, 0.0, 1 / 1.2)])
        assert forward.exponential_type(H, 1.0) == pytest.approx(1.0)

    def test_scaled_weight(self):
        H = Hamiltonian.from_segments([(0.0, 1.0, 4.0, 0.0, 1.0)])
        assert forward.exponential_type(H, 1.0) == pytest.approx(2.0)

    def test_type_inverse_round_trip(self, step_hamiltonian):
        H = step_hamiltonian
        for s in [0.3, 1.0, 1.7]:
            r = forward.type_inverse(H, s)
            assert forward.exponential_type(H, r) == pytest.approx(s, abs=1e-12)


class TestHermiteBiehler:
    def test_modulus_inequality_upper_half_plane(self, step_hamiltonian):
        H = step_hamiltonian
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 3.0))
            M = forward.propagate(H, H.ell, z)
            Mc = forward.propagate(H, H.ell, np.conj(z))
            E = M.theta_plus + 1j * M.theta_minus
            E_conj = Mc.theta_plus + 1j * Mc.theta_minus
            assert abs(E_conj) < abs(E)
