import numpy as np
import pytest
import scipy.linalg

from canspec import pwspace
from canspec.model import ComparabilityError, SpectralMeasure, ValidationError
from canspec.pwspace import (
    PWBasis,
    apply_inverse,
    build_operator,
    frame_bounds,
    lattice_points,
    sinc_kernel,
    sinc_kernel_dt,
)


def explicit_gram(mu, basis):
    """``(phi m) phi^T + I - (pi/L) phi_lat phi_lat^T`` as matrix products."""
    phi = basis.functions_at(mu.positions)
    gram = (phi * mu.masses) @ phi.T
    if mu.positions.size > 1:
        lam = mu.lattice_type()
        lattice = lattice_points(float(np.max(np.abs(mu.positions))), lam)
        phi_lat = basis.functions_at(lattice)
        gram += np.eye(basis.size) - (np.pi / lam) * (phi_lat @ phi_lat.T)
    return gram


@pytest.fixture(scope="module")
def free_measure(free_pi):
    return free_pi[1]


@pytest.fixture(scope="module")
def near_node_measure():
    """Unit masses on the integers, three atoms moved off their node by at most 1e-6."""
    positions = np.arange(-40, 41).astype(float)
    positions[[45, 23, 70]] += [1e-6, -4e-7, 3e-9]
    return SpectralMeasure(positions, np.ones(positions.size), 40.5)


class TestSincKernel:
    def test_diagonal_value(self):
        for s in [0.5, 1.0, np.pi]:
            assert sinc_kernel(s, 1.7, 1.7) == pytest.approx(s / np.pi, rel=1e-15)

    def test_vanishes_at_lattice(self):
        s = 1.3
        for k in [1, -2, 5]:
            assert abs(sinc_kernel(s, 0.4 + np.pi * k / s, 0.4)) < 1e-15

    def test_series_branch_value(self):
        # Taylor oracle: sin(u)/(pi u) = (1 - u^2/6 + ...) / pi at u = 1e-6
        got = sinc_kernel(1.0, 1e-6, 0.0)
        want = (1.0 - 1e-12 / 6.0) / np.pi
        assert got == pytest.approx(want, rel=1e-15)

    def test_branch_agreement_near_switch(self):
        # series and closed form agree where the branch changes over
        s = 2.0
        u = 0.99e-4
        series = sinc_kernel(s, u, 0.0)
        closed = np.sin(s * u) / (np.pi * u)
        assert series == pytest.approx(closed, rel=1e-12)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValidationError):
            sinc_kernel(0.0, 1.0, 0.0)


class TestSincKernelDt:
    def test_zero_on_diagonal(self):
        assert sinc_kernel_dt(1.7, 0.3, 0.3) == 0.0

    def test_printed_value(self):
        # (sin(pi) - pi cos(pi)) / (pi * pi^2) = 1/pi^2
        assert sinc_kernel_dt(1.0, np.pi, 0.0) == pytest.approx(1 / np.pi**2, rel=1e-14)

    def test_odd_in_argument(self):
        assert sinc_kernel_dt(1.2, 0.7, 0.1) == pytest.approx(
            -sinc_kernel_dt(1.2, 0.1, 0.7), rel=1e-14
        )

    @pytest.mark.parametrize("x,t", [(0.9, 0.2), (2.5, -1.3), (0.30001, 0.3)])
    def test_finite_difference_consistency(self, x, t):
        s, d = 1.4, 1e-5
        fd = (sinc_kernel(s, x, t + d) - sinc_kernel(s, x, t - d)) / (2 * d)
        assert abs(sinc_kernel_dt(s, x, t) - fd) < 1e-7


class TestFunctionsAt:
    @pytest.mark.parametrize("s", [1.0, np.pi, 3.14249])
    def test_matches_high_precision(self, s):
        # one sine per point loses digits next to a node; the near-node
        # branch must keep the assembly at the per-pair accuracy everywhere
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        basis = PWBasis(s, 128)
        rng = np.random.default_rng(17)
        nodes = basis.nodes[np.abs(basis.nodes) <= 399.0]
        offsets = np.array([0.0, 1e-5, 9e-5, 1.1e-4, 3e-4, 1e-3, 1e-2, 0.3])
        picked = rng.choice(nodes, 6, replace=False)
        xs = np.concatenate(
            [
                (picked[:, None] + offsets).ravel(),
                (picked[:, None] - offsets).ravel(),
                rng.uniform(-400.0, 400.0, 40),
            ]
        )
        got = basis.functions_at(xs)

        # reference: sqrt(pi/s) (-1)^k sin(sx) / (pi (x - pi k/s)), exact nodes
        ms = mp.mpf(s)
        scale = mp.sqrt(mp.pi / ms) / mp.pi
        want = np.empty_like(got)
        for j, x in enumerate(xs):
            mx = mp.mpf(x)
            sx = mp.sin(ms * mx)
            for i, k in enumerate(range(-basis.half_size, basis.half_size + 1)):
                u = mx - mp.pi * k / ms
                want[i, j] = float(scale * ms if u == 0 else (-1) ** k * scale * sx / u)
        assert np.max(np.abs(got - want)) <= 1e-13


class TestDerivativesAt:
    @pytest.mark.parametrize(
        "s,half,window",
        [(np.pi, 190, 200.0), (np.pi / 2, 95, 200.0), (0.05, 3, 200.0)],
        ids=["pi", "half-pi", "small-s"],
    )
    def test_matches_dense_kernel_derivative(self, s, half, window):
        # the dense form: sqrt(pi/s) d/dt sinc_s(node - t) for every pair
        basis = PWBasis(s, half)
        rng = np.random.default_rng(5)
        nodes = basis.nodes
        picked = rng.choice(nodes, min(nodes.size, 8), replace=False)
        points = np.concatenate(
            [
                picked,  # exact node hits
                picked + 1e-9,
                picked - 1e-9,
                [-window, -0.999 * window, 0.999 * window, window],
                rng.uniform(-window, window, 381),
            ]
        )
        got = basis.derivatives_at(points)
        want = np.sqrt(np.pi / s) * sinc_kernel_dt(s, nodes[:, None], points[None, :])
        assert got.shape == want.shape
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestDividedDifferences:
    @pytest.mark.parametrize("n", [1, 2, 381])
    def test_toeplitz_factor_matches_outer_differences(self, n):
        # c_j c_k (v_j - v_k) / (x_j - x_k) over nodes x_k = pi k/s with
        # c_k = (-1)^k sqrt(pi/s)/pi: the factor (-1)^(j-k) / (pi^2 (j - k))
        # is the same for every s
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        got = pwspace._divided_differences(v)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)
        k = np.arange(n) - n // 2
        off = ~np.eye(n, dtype=bool)
        for s in (0.3, np.pi, 7.0):
            x = np.pi * k / s
            c = np.where(k % 2 == 0, 1.0, -1.0) * np.sqrt(np.pi / s) / np.pi
            want = (
                np.subtract.outer(v, v)[off]
                / np.subtract.outer(x, x)[off]
                * np.multiply.outer(c, c)[off]
            )
            assert np.allclose(got[off], want, rtol=1e-13, atol=0.0)


class TestBuildOperator:
    @pytest.mark.parametrize("s_frac", [1.0, 0.5])
    def test_free_measure_gives_identity(self, free_pi, s_frac):
        _, mu, _ = free_pi
        s = np.pi * s_frac
        half = int(np.floor(0.95 * mu.window * s / np.pi))
        op = build_operator(mu, s, half)
        assert np.max(np.abs(op.gram - np.eye(op.basis.size))) < 1e-12

    def test_gram_bit_exact_symmetry(self, step_measure_small):
        op = build_operator(step_measure_small, 1.0, 12)
        assert np.array_equal(op.gram, op.gram.T)

    def test_gram_psd(self, step_measure_small):
        # the tail-completed Gram: Loewner entries equal the matrix products
        op = build_operator(step_measure_small, 2.0, 30)
        want = explicit_gram(step_measure_small, op.basis)
        assert np.max(np.abs(op.gram - want)) <= 1e-13 * np.max(np.abs(op.gram))
        assert np.linalg.eigvalsh(op.gram).min() > 0.0

    @pytest.mark.parametrize(
        "measure,s,half",
        [
            pytest.param("wide_measure", np.pi, 256, id="wide-seed0"),
            pytest.param("free_measure", np.pi, 190, id="on-nodes-pi"),
            pytest.param("free_measure", np.pi / 2, 95, id="on-nodes-half-pi"),
            pytest.param("near_node_measure", np.pi, 30, id="near-nodes"),
        ],
    )
    def test_loewner_entries_match_matrix_products(self, request, measure, s, half):
        mu = request.getfixturevalue(measure)
        op = build_operator(mu, s, half)
        want = explicit_gram(mu, op.basis)
        assert np.max(np.abs(op.gram - want)) <= 1e-13 * np.max(np.abs(op.gram))

    def test_single_atom_has_no_completion(self):
        # one atom: the rank-one form m phi phi^T, not positive definite for n > 1
        mu = SpectralMeasure(np.array([0.0]), np.array([2.0]), 10.0)
        basis, gram, phi, _ = pwspace._section(mu, 1.3, 3)
        want = 2.0 * np.outer(phi[:, 0], phi[:, 0])
        assert np.max(np.abs(gram - want)) <= 1e-13 * np.max(np.abs(gram))
        assert build_operator(mu, 1.3, 0).gram == pytest.approx(2.0 * 1.3 / np.pi, rel=1e-15)

    def test_rank_one_mass_update(self):
        # doubling the origin mass adds a rank-one block to the free Gram
        ell = np.pi
        k = np.arange(-40, 41)
        base = np.full(k.size, 1.0)
        mu0 = SpectralMeasure(k.astype(float), base, 40.5)
        extra = base.copy()
        extra[40] += 1.0
        mu1 = SpectralMeasure(k.astype(float), extra, 40.5)
        s = np.pi
        op0 = build_operator(mu0, s, 30)
        op1 = build_operator(mu1, s, 30)
        diff = op1.gram - op0.gram
        e0 = np.zeros(op0.basis.size)
        e0[op0.basis.center] = 1.0
        want = (s / np.pi) * np.outer(e0, e0)  # phi_0(0)^2 = s/pi
        np.testing.assert_allclose(diff, want, atol=1e-13)

    def test_basis_outside_window_rejected(self, free_pi):
        _, mu, _ = free_pi
        with pytest.raises(ValidationError, match="window"):
            build_operator(mu, np.pi, 1000)

    def test_parseval_windowed(self, step_measure_small):
        # the quadratic form of op.gram equals the atomwise and latticewise sums
        mu = step_measure_small
        op = build_operator(mu, 1.5, 16)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(op.basis.size)
        lam = mu.lattice_type()
        lattice = lattice_points(float(np.max(np.abs(mu.positions))), lam)
        pointwise = (
            np.sum(mu.masses * (op.atom_matrix.T @ c) ** 2)
            + c @ c
            - (np.pi / lam) * np.sum((op.basis.functions_at(lattice).T @ c) ** 2)
        )
        assert pointwise == pytest.approx(c @ op.gram @ c, rel=1e-12)


class TestApplyInverse:
    def test_identity_case(self, free_pi):
        _, mu, _ = free_pi
        op = build_operator(mu, np.pi, 100)
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(op.basis.size)
        np.testing.assert_allclose(apply_inverse(op, rhs), rhs, atol=1e-11)

    def test_inverse_consistency(self, step_measure_small):
        op = build_operator(step_measure_small, 1.8, 20)
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal(op.basis.size)
        x = apply_inverse(op, rhs)
        np.testing.assert_allclose(op.gram @ x, rhs, atol=1e-10 * np.linalg.norm(rhs))

    def test_complex_right_hand_side(self, step_measure_small):
        op = build_operator(step_measure_small, 1.8, 20)
        rhs = np.linspace(-1, 1, op.basis.size) + 1j * np.ones(op.basis.size)
        x = apply_inverse(op, rhs)
        np.testing.assert_allclose(op.gram @ x, rhs, atol=1e-10)

    def test_block_equals_column_solves(self, step_measure_small):
        op = build_operator(step_measure_small, 1.8, 20)
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal((op.basis.size, 2))
        x = apply_inverse(op, rhs)
        assert x.shape == rhs.shape
        for k in range(2):
            col = apply_inverse(op, rhs[:, k])
            np.testing.assert_allclose(x[:, k], col, rtol=0, atol=1e-14 * np.max(np.abs(col)))

    def test_zero_column_returns_zeros(self, step_measure_small):
        op = build_operator(step_measure_small, 1.8, 20)
        rhs = np.zeros((op.basis.size, 2))
        rhs[:, 1] = np.linspace(-1, 1, op.basis.size)
        x = apply_inverse(op, rhs)
        assert np.all(x[:, 0] == 0.0)
        np.testing.assert_allclose(op.gram @ x[:, 1], rhs[:, 1], atol=1e-10)

    @staticmethod
    def _misfactored(mu, scale):
        """Operator whose Cholesky factor is that of ``scale * gram``."""
        op = build_operator(mu, 1.8, 20)
        cho = scipy.linalg.cho_factor(scale * op.gram)
        return pwspace.PWOperator(op.basis, op.gram, op.atom_matrix, cho)

    def test_refinement_repairs_a_slightly_wrong_factor(self, step_measure_small):
        op = self._misfactored(step_measure_small, 1 + 1e-9)
        rhs = np.zeros((op.basis.size, 2))
        rhs[:, 1] = np.linspace(-1, 1, op.basis.size)
        x = apply_inverse(op, rhs)
        # one refinement step on the failing column; the zero column is untouched
        assert np.all(x[:, 0] == 0.0)
        res = np.linalg.norm(op.gram @ x[:, 1] - rhs[:, 1]) / np.linalg.norm(rhs[:, 1])
        assert res <= 1e-12

    def test_refinement_failure_raises(self, step_measure_small):
        op = self._misfactored(step_measure_small, 1 + 1e-3)
        with pytest.raises(ComparabilityError, match="inverse application failed"):
            apply_inverse(op, np.linspace(-1, 1, op.basis.size))

    def test_size_mismatch(self, step_measure_small):
        op = build_operator(step_measure_small, 1.8, 20)
        with pytest.raises(ValidationError):
            apply_inverse(op, np.ones(3))


class TestFrameBounds:
    def test_free_measure_unit_bounds(self, free_pi):
        _, mu, _ = free_pi
        lo, hi = frame_bounds(mu, np.pi, 150)
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)

    def test_deleting_an_atom_lowers_the_floor(self):
        # removing an atom the section can see strictly lowers the floor
        # (at the aligned bandwidth the deleted site is a blind spot)
        k = np.arange(-40, 41)
        mu_full = SpectralMeasure(k.astype(float), np.full(k.size, 1.0), 40.5)
        keep = np.abs(k - 35) > 0
        mu_del = SpectralMeasure(
            k[keep].astype(float), np.full(int(keep.sum()), 1.0), 40.5
        )
        s = np.pi / 2
        lo_full, _ = frame_bounds(mu_full, s, 19)
        lo_del, _ = frame_bounds(mu_del, s, 19)
        assert lo_full > 0.95
        assert lo_del < lo_full - 0.05

    def test_reports_a_section_that_is_not_positive_definite(self):
        # no atoms at 1 <= |k| <= 12: the section at s = pi has a null vector,
        # which the certificate reports where the factorization fails
        k = np.arange(-60, 61)
        k = k[(k == 0) | (np.abs(k) > 12)]
        mu = SpectralMeasure(k.astype(float), np.ones(k.size), 60.5)
        lo, hi = frame_bounds(mu, np.pi, 40)
        assert lo <= 1e-12
        assert hi == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(ComparabilityError):
            build_operator(mu, np.pi, 40)

    def test_kadec_style_stability(self):
        # perturbed integer-pi lattice keeps a healthy lower frame bound
        window = np.pi * (128 + 8)
        k = np.arange(-int(window / np.pi), int(window / np.pi) + 1)
        d = 0.2 * np.cos(2.399 * k)
        d[k == 0] = 0.0
        mu = SpectralMeasure(np.pi * k + d, np.full(k.size, np.pi), window)
        bounds = [frame_bounds(mu, 1.0, half)[0] for half in (64, 128)]
        assert min(bounds) > 0.05
        assert abs(bounds[1] - bounds[0]) / bounds[0] < 0.1


class TestEvaluate:
    def test_unit_coefficient_reproduces_basis_function(self):
        basis = PWBasis(1.3, 10)
        c = np.zeros(basis.size)
        c[basis.center + 3] = 1.0
        xs = np.linspace(-2, 2, 7)
        got = basis.functions_at(xs).T @ c
        want = np.sqrt(np.pi / 1.3) * sinc_kernel(1.3, xs, basis.nodes[basis.center + 3])
        # at x = 0 the function vanishes exactly; atol covers the kernel's roundoff there
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-16)

    def test_interpolation_at_nodes(self):
        basis = PWBasis(2.0, 8)
        rng = np.random.default_rng(11)
        c = rng.standard_normal(basis.size)
        (got,) = basis.functions_at(basis.nodes[5]).T @ c
        assert got == pytest.approx(c[5] * np.sqrt(2.0 / np.pi), rel=1e-12)

    def test_shifted_kernel_expansion_converges(self):
        s, t0 = 1.0, 0.37
        for half, tol in [(40, 0.02), (160, 0.005)]:
            basis = PWBasis(s, half)
            c = basis.kernel_coefficients(t0)
            xs = np.linspace(-3, 3, 11)
            got = basis.functions_at(xs).T @ c
            want = sinc_kernel(s, xs, t0)
            assert np.max(np.abs(got - want)) < tol
