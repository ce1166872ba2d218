import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from canspec import forward, oracles
from canspec.model import (
    J,
    Hamiltonian,
    InvariantViolation,
    NumericalError,
    SpectralMeasure,
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


def expm_product(H, r, z):
    """Ordered product of the segment exponentials ``expm(-z d_j J H_j)`` over ``[0, r]``."""
    M = np.broadcast_to(np.eye(2, dtype=complex), z.shape + (2, 2))
    for lo, hi, h in zip(H.edges[:-1], H.edges[1:], H.matrices):
        if lo >= r:
            break
        M = scipy.linalg.expm(-(z * (min(hi, r) - lo))[:, None, None] * (J @ h)) @ M
    return M


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

    @pytest.mark.parametrize("inside", [False, True])
    @pytest.mark.parametrize("z", [np.linspace(-30.0, 30.0, 37), np.linspace(-30.0, 30.0, 37) + 0.4j])
    def test_blocks_against_expm_product(self, inside, z):
        H = smooth_weight(8, 300)
        k = 256
        r = 0.5 * float(H.edges[k] + H.edges[k + 1]) if inside else float(H.edges[k])
        # the reached segments fill two blocks and part of a third
        rows = forward._BLOCK_PAIRS // z.size
        assert 2 * rows < k < 3 * rows
        M, dM = forward._propagate(H, r, z, derivative=True)
        want = expm_product(H, r, z)
        np.testing.assert_allclose(M, want, rtol=0, atol=1e-12 * np.abs(want).max())
        h = 1e-6
        fd = (expm_product(H, r, z + h) - expm_product(H, r, z - h)) / (2 * h)
        np.testing.assert_allclose(dM, fd, rtol=0, atol=1e-8 * np.abs(fd).max())
        # the one-column pass of theta_and_derivative carries the same numbers
        tp, tm, dp, dm = forward.theta_and_derivative(H, r, z)
        for got, col in zip((tp, tm, dp, dm), (M[:, 0, 0], M[:, 1, 0], dM[:, 0, 0], dM[:, 1, 0])):
            assert np.array_equal(got, col)


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
        zeros, _, _ = forward.find_zeros(H, 5.5, 0.5)
        np.testing.assert_allclose(zeros, np.arange(-5, 6), atol=1e-12)

    def test_free_unit_multiples_of_pi(self):
        H = Hamiltonian.identity(1.0)
        zeros, _, _ = forward.find_zeros(H, 7.0, 0.5)
        np.testing.assert_allclose(zeros, np.pi * np.arange(-2, 3), atol=1e-12)

    def test_step_against_dense_scan(self, step_hamiltonian):
        H = step_hamiltonian
        zeros, _, _ = forward.find_zeros(H, 10.0)
        # independent oracle: brute-force sign-change scan at step 1e-3
        oracle = bisection_zeros(H, 10.0, step=1e-3, passes=50)
        assert zeros.size == oracle.size
        np.testing.assert_allclose(zeros, oracle, atol=1e-9)

    def test_coarse_step_rejected(self):
        H = Hamiltonian.identity(np.pi)
        with pytest.raises(ValidationError, match="step"):
            forward.find_zeros(H, 5.0, 2.0)

    def test_zero_type_rejected(self):
        # every segment is rank one: theta_minus is a polynomial with five
        # zeros in [-5, 5] that no type-based scan step separates
        H = Hamiltonian.from_segments(
            [(0, 1, 1, 0, 0), (1, 2, 1, 1, 1), (2, 3, 1, 0, 0), (3, 4, 0.5, -0.5, 0.5),
             (4, 5, 1, 0, 0)]
        )
        assert H.is_compatible() and forward.exponential_type(H) == 0.0
        assert bisection_zeros(H, 5.0, step=1e-3, passes=50).size == 5
        with pytest.raises(ValidationError, match="type 0"):
            forward.find_zeros(H, 5.0)
        with pytest.raises(ValidationError, match="type 0"):
            forward.spectral_measure(H, 5.0)
        mu = SpectralMeasure(np.array([0.0]), np.array([1.0]), 5.0)
        with pytest.raises(ValidationError, match="type 0"):
            forward.herglotz_constants(H, mu)

    def test_zero_always_included(self, step_hamiltonian):
        zeros, _, _ = forward.find_zeros(step_hamiltonian, 3.0)
        assert 0.0 in zeros

    @pytest.mark.parametrize("seed, segments", [(0, 50), (1, 120), (2, 200)])
    def test_matches_bisection_reference(self, seed, segments):
        H = smooth_weight(seed, segments)
        zeros, _, _ = forward.find_zeros(H, 40.0)
        ref = bisection_zeros(H, 40.0)
        assert zeros.size == ref.size
        assert np.all(np.abs(zeros - ref) <= 1e-13 * np.abs(ref))

    def test_propagation_count(self, monkeypatch):
        # one scan plus a few joint derivative passes, not one pass per bisection;
        # interpolated seeds and per-root stopping keep the derivative passes near
        # two points per zero (five before them)
        H = smooth_weight(3, 200)
        calls = {"plain": 0, "derivative": 0}
        points = {"plain": 0, "derivative": 0}
        plain, joint = forward.transfer_entries, forward.theta_and_derivative

        def count(key, fn):
            def wrapped(*args):
                calls[key] += 1
                points[key] += np.size(args[2])
                return fn(*args)

            return wrapped

        monkeypatch.setattr(forward, "transfer_entries", count("plain", plain))
        monkeypatch.setattr(forward, "theta_and_derivative", count("derivative", joint))
        zeros, _, _ = forward.find_zeros(H, 60.0)
        assert calls["plain"] <= 1
        assert calls["derivative"] <= 6
        assert points["derivative"] <= 2.5 * zeros.size

    @pytest.mark.parametrize(
        "weight, window",
        [("free", 5.5), ("step", 10.0), ("step", 200.0), ("smooth", 60.0)],
    )
    def test_masses_equal_a_mass_pass(self, step_hamiltonian, weight, window):
        H = {
            "free": Hamiltonian.identity(np.pi),
            "step": step_hamiltonian,
            "smooth": smooth_weight(3, 200),
        }[weight]
        zeros, tp, dm = forward.find_zeros(H, window)
        ref_tp, _, _, ref_dm = forward.theta_and_derivative(H, H.ell, zeros)
        assert np.array_equal(tp, ref_tp) and np.array_equal(dm, ref_dm)
        mu = forward.spectral_measure(H, window)
        assert np.array_equal(mu.positions, zeros)
        assert np.array_equal(mu.masses, -np.pi / (ref_tp * ref_dm))

    def test_short_scan_grid(self):
        # 7 scan points: every seed interpolates through all of them
        zeros, _, _ = forward.find_zeros(Hamiltonian.identity(np.pi), 1.3, 0.5)
        np.testing.assert_allclose(zeros, [-1.0, 0.0, 1.0], rtol=0, atol=1e-12)

    def test_wrong_derivative_sign_falls_back_to_brackets(self, monkeypatch):
        H = smooth_weight(4, 100)
        ref = bisection_zeros(H, 30.0)
        joint = forward.theta_and_derivative

        def flipped(*args):
            tp, tm, dp, dm = joint(*args)
            return tp, tm, -dp, -dm

        monkeypatch.setattr(forward, "theta_and_derivative", flipped)
        zeros, _, _ = forward.find_zeros(H, 30.0)
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


@st.composite
def random_weights(draw):
    """Trace-normalized weights of 1-50 segments ``R(a) diag(1, m) R(a)^T``.

    Each segment is rank one (``m = 0``) or has eigenvalue ratio ``1 / m``
    at most ``e^2``, at a random rotation ``a``; at least one segment has
    full rank, since a weight of type 0 has no scan step.
    """
    segment = st.tuples(
        st.floats(0.05, 1.0),  # length before normalization
        st.floats(0.0, np.pi),  # rotation
        st.floats(0.0, 2.0),  # log of the eigenvalue ratio
        st.booleans(),  # rank one
    )
    lengths, angles, log_ratio, rank_one = map(
        np.array, zip(*draw(st.lists(segment, min_size=1, max_size=50)))
    )
    assume(not np.all(rank_one))
    c, s = np.cos(angles), np.sin(angles)
    m = np.where(rank_one, 0.0, np.exp(-log_ratio))
    mats = np.empty((len(angles), 2, 2))
    mats[:, 0, 0] = c * c + s * s * m
    mats[:, 1, 1] = s * s + c * c * m
    mats[:, 0, 1] = mats[:, 1, 0] = c * s * (1.0 - m)
    H, _ = normalize_trace(Hamiltonian.from_lengths(lengths, mats))
    return H


class TestFindZerosProperties:
    """``find_zeros`` on random weights against plain bisection at the same scan."""

    WINDOW = 20.0

    # Rank-one segments put pairs of zeros closer than any scan step, and the
    # scan misses both zeros of such a pair (bisection_zeros scans at the same
    # step and misses them too).  The gap warning that this sometimes trips is
    # shown rather than raised: the properties below concern the refinement.
    @pytest.mark.filterwarnings("default:consecutive zeros further apart:RuntimeWarning")
    @settings(max_examples=30)
    @given(random_weights())
    def test_zeros_and_masses(self, H):
        assume(H.is_compatible())
        zeros, tp, dm = forward.find_zeros(H, self.WINDOW)
        ref = bisection_zeros(H, self.WINDOW)
        assert zeros.size == ref.size
        assert np.all(np.abs(zeros - ref) <= 1e-13 * (1.0 + np.abs(ref)))
        masses = -np.pi / (tp * dm)
        ref_tp, _, _, ref_dm = forward.theta_and_derivative(H, H.ell, zeros)
        assert np.all(masses > 0)
        assert np.array_equal(masses, -np.pi / (ref_tp * ref_dm))
        probes = np.concatenate([zeros, [-self.WINDOW, self.WINDOW]])
        # det M = 1 holds to roundoff relative to |M|^2, and rank-one segments
        # make |M| grow like a power of |z|
        size = np.max(np.abs(forward.transfer_entries(H, H.ell, probes)))
        assert forward.det_residual(H, probes) <= max(1e-10, 1e-13 * size**2)


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
        assert step_measure.masses[step_measure.zero_index] > 0

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


@pytest.fixture(scope="module", params=["free", "step"])
def weight_and_measure(request, step_hamiltonian, step_measure):
    if request.param == "step":
        return step_hamiltonian, step_measure
    H = Hamiltonian.identity(np.pi)
    return H, forward.spectral_measure(H, 200.0)


def herglotz_tail_terms(H, mu):
    """``(z, mass, step)`` of each lattice sum ``mass Im psi(z) / (step pi)`` in ``b``."""
    spacing = np.pi / forward.exponential_type(H)
    step = 2.0 * spacing
    return [((first + 1j) / step, mass, step) for _, first, mass in mu.tail_lattices(spacing)]


class TestDigamma:
    """``forward._digamma`` against ``scipy.special.psi``."""

    def test_herglotz_arguments(self, weight_and_measure):
        for z, _, _ in herglotz_tail_terms(*weight_and_measure):
            ref = scipy.special.psi(z).imag
            assert abs(forward._digamma(z).imag - ref) <= 1e-13 * abs(ref)

    def test_grid(self):
        z = np.geomspace(0.05, 1e6, 80)[:, None] + 1j * np.geomspace(1e-6, 3.0, 20)
        ours = np.array([forward._digamma(complex(v)).imag for v in z.ravel()])
        ref = scipy.special.psi(z.ravel()).imag
        assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 1e-13

    def test_herglotz_b_against_scipy_reference(self, weight_and_measure):
        H, mu = weight_and_measure
        tail = sum(
            mass * scipy.special.psi(z).imag / (step * np.pi)
            for z, mass, step in herglotz_tail_terms(H, mu)
        )
        window_sum = float(np.sum(mu.masses / (1.0 + mu.positions**2)) / np.pi)
        b_ref = float(forward.weyl_function(H, 1j).m.imag) - window_sum - tail
        assert abs(mu.herglotz_b - b_ref) <= 1e-16


def quadrature_grid(H, r):
    """Composite 8-point Gauss-Legendre grid aligned with the segments inside ``[0, r]``."""
    eff = forward._effective_lengths(H, r)
    d = eff[eff > 0.0][:, None]
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(8)
    lo = H.edges[: d.shape[0], None]
    return (lo + 0.5 * d * (gl_nodes + 1.0)).ravel(), (0.5 * d * gl_weights).ravel()


def weyl_titchmarsh(H, r, X, z):
    """Reference transform ``(1/sqrt(pi)) int_0^r <H(t) X(t), Theta(t, z)> dt``.

    :func:`quadrature_grid` quadrature; ``Theta`` at each node comes from
    its own propagation.
    """
    nodes, weights = quadrature_grid(H, r)
    if len(nodes) == 0:
        return 0.0
    theta = np.array([forward.transfer_entries(H, t, np.asarray(z))[:, 0] for t in nodes])
    hx = np.einsum("nij,nj->ni", H.sample(nodes), X(nodes))
    return complex(np.sum(weights * np.sum(hx * theta, axis=1)) / np.sqrt(np.pi))


class TestWeylTitchmarsh:
    """Integral identities of the solution ``Theta(t, z)`` along ``[0, r]``."""

    @pytest.mark.parametrize("z", [0.9, 2.7, 1.1 + 0.4j])
    def test_constant_first_basis_vector(self, step_hamiltonian, z):
        # transform of (1,0) equals -theta_minus/(z*sqrt(pi)) for any weight
        H = step_hamiltonian
        got = weyl_titchmarsh(H, H.ell, lambda t: np.tile([1.0, 0.0], (len(t), 1)), z)
        tm = forward.propagate(H, H.ell, z).theta_minus
        assert got == pytest.approx(-tm / (z * np.sqrt(np.pi)), abs=1e-13)

    @pytest.mark.parametrize("z", [0.9, 2.7])
    def test_constant_second_basis_vector(self, step_hamiltonian, z):
        H = step_hamiltonian
        got = weyl_titchmarsh(H, H.ell, lambda t: np.tile([0.0, 1.0], (len(t), 1)), z)
        tp = forward.propagate(H, H.ell, z).theta_plus
        assert got == pytest.approx((tp - 1.0) / (z * np.sqrt(np.pi)), abs=1e-13)

    def test_free_closed_forms(self):
        H = Hamiltonian.identity(np.pi)
        r, z = 2.0, 1.3
        got = weyl_titchmarsh(H, r, lambda t: np.tile([1.0, 0.0], (len(t), 1)), z)
        assert got == pytest.approx(np.sin(r * z) / (z * np.sqrt(np.pi)), abs=1e-14)
        got = weyl_titchmarsh(H, r, lambda t: np.tile([0.0, 1.0], (len(t), 1)), z)
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
            got = weyl_titchmarsh(H, r, X, z)
            want = np.sqrt(np.pi) * oracles._debranges_kernel(
                H, r, w, np.asarray([z], dtype=float)
            )[0]
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("z", [0.9, 1.1 + 0.4j])
    def test_profile_matches_per_node_propagation(self, step_hamiltonian, z):
        # continuing M(edge, z) from each node's segment edge by one partial
        # segment gives the same profile as propagating to every node
        H = step_hamiltonian
        r = 1.5
        nodes, weights = quadrature_grid(H, r)
        seg = np.searchsorted(H.edges, nodes, side="right") - 1
        theta = []
        for t, k in zip(nodes, seg):
            part = Hamiltonian.from_lengths([t - H.edges[k]], H.matrices[k : k + 1])
            M = forward.transfer_entries(part, part.ell, np.asarray(z)) @ forward.transfer_entries(
                H, float(H.edges[k]), np.asarray(z)
            )
            theta.append(M[:, 0])
        X = lambda t: np.column_stack([np.cos(t), 1.0 + t**2])
        hx = np.einsum("nij,nj->ni", H.sample(nodes), X(nodes))
        got = np.sum(weights * np.sum(hx * np.array(theta), axis=1)) / np.sqrt(np.pi)
        want = weyl_titchmarsh(H, r, X, z)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_work_linear_in_segments(self, monkeypatch):
        # count the spectral parameters that pass through the segment factors
        seen = []
        cs = forward._cs

        def counted(delta):
            seen.append(np.size(delta))
            return cs(delta)

        monkeypatch.setattr(forward, "_cs", counted)
        z = np.concatenate([np.linspace(-3.0, 3.0, 47), [1.3 + 0.2j, 0.7, 2.1]])
        work = {}
        for n in (100, 400):
            H = smooth_weight(6, n)
            work[n] = 0
            # r at the end and inside segment n // 3, which reaches n // 3 + 1 segments
            for r, reached in ((H.ell, n), (float(H.edges[n // 3]) + 1e-9, n // 3 + 1)):
                for kernel in (forward.transfer_entries, forward.theta_and_derivative):
                    seen.clear()
                    kernel(H, r, z)
                    # each reached segment meets each point once, in capped blocks
                    assert sum(seen) == reached * z.size
                    assert max(seen) <= forward._BLOCK_PAIRS
                    work[n] += sum(seen)
        assert work[400] <= 4 * work[100]

    def test_empty_interval(self, step_hamiltonian):
        # no segment lies in [0, 0]: the solution starts at (1, 0), the transform is 0
        H = step_hamiltonian
        z = np.array([1.0, 0.9 + 0.3j])
        assert np.array_equal(forward.transfer_entries(H, 0.0, z), np.broadcast_to(np.eye(2), (2, 2, 2)))
        got = weyl_titchmarsh(H, 0.0, lambda t: np.zeros((len(t), 2)), 1.0)
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
