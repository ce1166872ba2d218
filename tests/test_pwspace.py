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
    sinc_kernel,
    sinc_kernel_dt,
)


def _reach_lattice(mu, lam):
    """Points ``pi k / lam`` covering the atoms' reach plus half a spacing."""
    kmax = int(np.floor((np.max(np.abs(mu.positions)) + 0.5 * np.pi / lam) * lam / np.pi))
    return np.pi * np.arange(-kmax, kmax + 1) / lam


def explicit_gram(mu, basis):
    """``(phi m) phi^T + I - (pi/L) phi_lat phi_lat^T`` as matrix products."""
    phi = basis.functions_at(mu.positions)
    gram = (phi * mu.masses) @ phi.T
    if mu.positions.size > 1:
        lam = mu.type
        lattice = _reach_lattice(mu, lam)
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
    return SpectralMeasure(positions, np.ones(positions.size), 40.5, herglotz_c=0.0)


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
        # sinc_kernel has no branch off the diagonal; sinc_kernel_dt switches
        # from its series to the closed form at |s u| = 1/4, and both sides of
        # the switch agree with the closed form there
        s = 2.0
        for w in (0.25 * (1 - 1e-12), 0.25, -0.25 * (1 - 1e-12)):
            u = w / s
            closed = (np.sin(w) - w * np.cos(w)) / (np.pi * u**2)
            assert sinc_kernel_dt(s, u, 0.0) == pytest.approx(closed, rel=5e-14)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValidationError):
            sinc_kernel(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_bandwidth(self, s):
        mu = SpectralMeasure(np.arange(-5.0, 6.0), np.ones(11), 6.0, herglotz_c=0.0)
        for build in (
            lambda: sinc_kernel(s, 1.0, 0.0),
            lambda: sinc_kernel_dt(s, 1.0, 0.0),
            lambda: PWBasis(s, 3),
            lambda: frame_bounds(mu, s, 3),
        ):
            with pytest.raises(ValidationError, match="bandwidth"):
                build()


@pytest.mark.parametrize("s", [np.pi, 1e3, 1e4])
def test_kernels_match_high_precision(s):
    # relative accuracy over w = s u in [1e-9, 5], both signs: the switch is
    # in w, so it holds at every bandwidth (a switch at a fixed |u| lets a
    # truncated series run out to |w| = 1 at s = 1e4)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    w = np.logspace(-9, np.log10(5.0), 200)
    u = np.concatenate([w, -w]) / s
    got, got_dt = sinc_kernel(s, u, 0.0), sinc_kernel_dt(s, u, 0.0)
    ms = mp.mpf(s)
    for x, k, k_dt in zip(u, got, got_dt):
        mx = mp.mpf(x)
        sin, cos = mp.sin(ms * mx), mp.cos(ms * mx)
        want, want_dt = sin / (mp.pi * mx), (sin - ms * mx * cos) / (mp.pi * mx**2)
        assert abs(k - want) <= 1e-13 * abs(want)
        assert abs(k_dt - want_dt) <= 1e-13 * abs(want_dt)


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
        _, mu = free_pi
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
        mu = SpectralMeasure(np.array([0.0]), np.array([2.0]), 10.0, herglotz_c=0.0)
        basis, gram, phi, _ = pwspace._section(mu, 1.3, 3)
        want = 2.0 * np.outer(phi[:, 0], phi[:, 0])
        assert np.max(np.abs(gram - want)) <= 1e-13 * np.max(np.abs(gram))
        assert build_operator(mu, 1.3, 0).gram == pytest.approx(2.0 * 1.3 / np.pi, rel=1e-15)

    def test_rank_one_mass_update(self):
        # doubling the origin mass adds a rank-one block to the free Gram
        ell = np.pi
        k = np.arange(-40, 41)
        base = np.full(k.size, 1.0)
        mu0 = SpectralMeasure(k.astype(float), base, 40.5, herglotz_c=0.0)
        extra = base.copy()
        extra[40] += 1.0
        mu1 = SpectralMeasure(k.astype(float), extra, 40.5, herglotz_c=0.0)
        s = np.pi
        op0 = build_operator(mu0, s, 30)
        op1 = build_operator(mu1, s, 30)
        diff = op1.gram - op0.gram
        e0 = np.zeros(op0.basis.size)
        e0[op0.basis.center] = 1.0
        want = (s / np.pi) * np.outer(e0, e0)  # phi_0(0)^2 = s/pi
        np.testing.assert_allclose(diff, want, atol=1e-13)

    def test_basis_outside_window_rejected(self, free_pi):
        _, mu = free_pi
        with pytest.raises(ValidationError, match="window"):
            build_operator(mu, np.pi, 1000)

    def test_parseval_windowed(self, step_measure_small):
        # the quadratic form of op.gram equals the atomwise and latticewise sums
        mu = step_measure_small
        op = build_operator(mu, 1.5, 16)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(op.basis.size)
        lam = mu.type
        lattice = _reach_lattice(mu, lam)
        pointwise = (
            np.sum(mu.masses * (op.atom_matrix.T @ c) ** 2)
            + c @ c
            - (np.pi / lam) * np.sum((op.basis.functions_at(lattice).T @ c) ** 2)
        )
        assert pointwise == pytest.approx(c @ op.gram @ c, rel=1e-12)


@pytest.fixture(scope="module")
def lone_atom_measure():
    return SpectralMeasure(np.array([0.0]), np.array([2.0]), 10.0, herglotz_c=0.0)


SECTIONS = [
    pytest.param("free_measure", np.pi, 190, id="free"),
    pytest.param("step_measure_small", 2.0, 30, id="step"),
    pytest.param("wide_measure", np.pi, 256, id="wide-seed0"),
    pytest.param("lone_atom_measure", 1.3, 0, id="lone-atom"),
]


class TestOneSincMatrix:
    """A section evaluates the atoms and its completion lattice in one sinc matrix."""

    @pytest.mark.parametrize("measure,s,half", SECTIONS)
    def test_one_functions_at_call_per_section(self, request, monkeypatch, measure, s, half):
        mu = request.getfixturevalue(measure)
        calls = []
        functions_at = PWBasis.functions_at

        def counted(self, points):
            calls.append(np.size(points))
            return functions_at(self, points)

        monkeypatch.setattr(PWBasis, "functions_at", counted)
        build_operator(mu, s, half, np.zeros(mu.completion_lattice[0].size))
        assert calls == [mu.positions.size + mu.completion_lattice[0].size]

    @pytest.mark.parametrize("measure,s,half", SECTIONS)
    def test_atom_matrix_is_the_atom_evaluation(self, request, measure, s, half):
        mu = request.getfixturevalue(measure)
        op = build_operator(mu, s, half)
        assert np.array_equal(op.atom_matrix, op.basis.functions_at(mu.positions))

    @pytest.mark.parametrize("measure,s,half", SECTIONS)
    def test_lattice_pairing_is_the_lattice_evaluation(self, request, measure, s, half):
        mu = request.getfixturevalue(measure)
        lattice = mu.completion_lattice[0]
        pairing = np.random.default_rng(5).standard_normal(lattice.size)
        op = build_operator(mu, s, half, pairing)
        if lattice.size == 0:
            assert op.lattice_pairing is None
            return
        want = op.basis.functions_at(lattice) @ pairing
        assert np.max(np.abs(op.lattice_pairing - want)) <= 1e-15 * np.max(np.abs(want))


class TestBasisInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_points(self, bad):
        basis = PWBasis(1.0, 3)
        points = np.array([0.5, bad])
        for evaluate in (basis.functions_at, basis.derivatives_at):
            with pytest.raises(ValidationError, match="finite"):
                evaluate(points)
        for center in (bad, complex(bad, 1.0), complex(0.5, bad)):
            with pytest.raises(ValidationError, match="finite"):
                basis.kernel_coefficients(center)

    @pytest.mark.parametrize(
        "half",
        [2.7, 3.0, np.float64(3.0), "3", None],
        ids=["float", "integral-float", "numpy-float", "string", "none"],
    )
    def test_rejects_nonintegral_half_size(self, step_measure_small, half):
        with pytest.raises(ValidationError, match="half-size"):
            PWBasis(1.0, half)
        with pytest.raises(ValidationError, match="half-size"):
            build_operator(step_measure_small, 1.0, half)

    def test_accepts_numpy_integer_half_size(self):
        basis = PWBasis(1.0, np.int64(3))
        assert basis.size == 7
        xs = np.linspace(-4.0, 4.0, 9)
        assert np.array_equal(basis.functions_at(xs), PWBasis(1.0, 3).functions_at(xs))


class TestApplyInverse:
    def test_identity_case(self, free_pi):
        _, mu = free_pi
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

    def test_nan_factor_fails_the_residual_gates(self, step_measure_small):
        # NaN passes no gate: the solve is unchecked, the residual is not
        op = build_operator(step_measure_small, 1.8, 20)
        nan_factor = (np.full_like(op.gram, np.nan), False)
        op = pwspace.PWOperator(op.basis, op.gram, op.atom_matrix, nan_factor)
        with pytest.raises(ComparabilityError, match="relative residual nan"):
            apply_inverse(op, np.linspace(-1, 1, op.basis.size))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_nonfinite_right_hand_side(self, step_measure_small, bad):
        op = build_operator(step_measure_small, 1.8, 20)
        rhs = np.ones(op.basis.size, dtype=type(bad))
        rhs[3] = bad
        with pytest.raises(ValidationError, match="right-hand side is not finite"):
            apply_inverse(op, rhs)

    def test_size_mismatch(self, step_measure_small):
        op = build_operator(step_measure_small, 1.8, 20)
        with pytest.raises(ValidationError):
            apply_inverse(op, np.ones(3))


class TestFrameBounds:
    def test_free_measure_unit_bounds(self, free_pi):
        _, mu = free_pi
        lo, hi = frame_bounds(mu, np.pi, 150)
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)

    def test_deleting_an_atom_lowers_the_floor(self):
        # removing an atom the section can see strictly lowers the floor
        # (at the aligned bandwidth the deleted site is a blind spot)
        k = np.arange(-40, 41)
        mu_full = SpectralMeasure(k.astype(float), np.full(k.size, 1.0), 40.5, herglotz_c=0.0)
        keep = np.abs(k - 35) > 0
        mu_del = SpectralMeasure(
            k[keep].astype(float), np.full(int(keep.sum()), 1.0), 40.5, herglotz_c=0.0
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
        mu = SpectralMeasure(k.astype(float), np.ones(k.size), 60.5, herglotz_c=0.0)
        lo, _ = frame_bounds(mu, np.pi, 40)
        assert lo <= 1e-12
        with pytest.raises(ComparabilityError):
            build_operator(mu, np.pi, 40)

    def test_kadec_style_stability(self):
        # perturbed integer-pi lattice keeps a healthy lower frame bound
        window = np.pi * (128 + 8)
        k = np.arange(-int(window / np.pi), int(window / np.pi) + 1)
        d = 0.2 * np.cos(2.399 * k)
        d[k == 0] = 0.0
        mu = SpectralMeasure(np.pi * k + d, np.full(k.size, np.pi), window, herglotz_c=0.0)
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
