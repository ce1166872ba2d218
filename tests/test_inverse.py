import tracemalloc

import numpy as np
import pytest
import scipy.interpolate
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from canspec import forward, oracles
from canspec.inverse import (
    RecoveryPipeline,
    _free_model,
    _lattice_rows,
    _lerch_remainder,
    _pchip,
    _scaled_e1,
    _top_eigenprojection,
    boundary_cosine_values,
    lattice_tail_sums,
    recentering_moment,
)
from canspec.model import GridConfig, Hamiltonian, NumericalError, SpectralMeasure, normalize_trace
from canspec.pwspace import PWBasis, build_operator


@pytest.fixture(scope="module")
def free_pipeline(free_pi):
    _, mu = free_pi
    cfg = GridConfig.for_bandwidth(
        np.pi, s_samples=17, pw_truncation=256, measure_window=200.0
    )
    return RecoveryPipeline(mu, c=0.0, cfg=cfg)


@pytest.fixture(scope="module")
def smooth_pipeline():
    """Smooth 64-segment weight (log-eigenvalue and rotation modes), window 400."""
    x = (np.arange(64) + 0.5) / 64
    g = 0.3 * np.cos(2 * np.pi * x + 0.7) + 0.15 * np.cos(4 * np.pi * x + 2.9)
    th = 0.3 * np.cos(2 * np.pi * x + 4.1) + 0.1 * np.cos(6 * np.pi * x + 1.3)
    c, sn, e = np.cos(th), np.sin(th), np.exp(g)
    segments = [
        (k * np.pi / 64, (k + 1) * np.pi / 64, h11, h12, h22)
        for k, (h11, h12, h22) in enumerate(
            zip(c * c * e + sn * sn / e, c * sn * (e - 1 / e), sn * sn * e + c * c / e)
        )
    ]
    H, _ = normalize_trace(Hamiltonian.from_segments(segments))
    mu = forward.spectral_measure(H, 400.0)
    cfg = GridConfig.for_bandwidth(mu.type, s_samples=9, pw_truncation=64, measure_window=400.0)
    return RecoveryPipeline(mu, c=mu.herglotz_c, cfg=cfg)


@pytest.fixture(scope="module")
def step_pipeline(step_measure):
    cfg = GridConfig.for_bandwidth(
        step_measure.type, s_samples=17, pw_truncation=256, measure_window=step_measure.window
    )
    return RecoveryPipeline(step_measure, c=step_measure.herglotz_c, cfg=cfg)


@pytest.fixture(scope="module")
def wide_pipeline(wide_measure, wide_workload):
    """The pipeline of the wide-roundtrip benchmark, seed 0, instance 0."""
    settings = dict(wide_workload.WIDE_SETTINGS)
    window = settings.pop("window")
    cfg = GridConfig.for_bandwidth(wide_measure.type, measure_window=window, **settings)
    return RecoveryPipeline(wide_measure, c=wide_measure.herglotz_c, cfg=cfg)


@pytest.fixture(scope="module")
def short_pipeline():
    """Unit atoms on -40..40 in a window of 60: the full-bandwidth basis reaches past the atoms."""
    mu = SpectralMeasure(np.arange(-40, 41.0), np.ones(81), 60.0, herglotz_c=0.0)
    cfg = GridConfig.for_bandwidth(np.pi, s_samples=9, pw_truncation=256, measure_window=60.0)
    pipe = RecoveryPipeline(mu, c=0.0, cfg=cfg)
    assert pipe.a_edge > pipe.r_eff + np.pi / pipe.lattice
    return pipe


def _lattice(extent, lam):
    """Points ``pi k / lam`` covering ``[-extent, extent]`` plus half a spacing."""
    kmax = int(np.floor((extent + 0.5 * np.pi / lam) * lam / np.pi))
    return np.pi * np.arange(-kmax, kmax + 1) / lam


# -- reference: one lattice and one frequency at a time ----------------------

_EM_ORDER = 25
_EM_WEIGHTS = scipy.special.bernoulli(2 * _EM_ORDER)[2::2] / np.arange(2, 2 * _EM_ORDER + 1, 2)


def _scalar_lerch_remainder(theta, q):
    """``sum_{i >= 0} exp(1j theta i) / (q + i)^2`` by Euler-Maclaurin, one scalar pair."""
    a = abs(theta)
    x = a * q
    integral = 1.0 / q
    if x > 0:
        si, ci = scipy.special.sici(x)
        integral += 1j * a * np.exp(-1j * x) * (-ci + 1j * (0.5 * np.pi - si))
    n = np.arange(2 * _EM_ORDER)
    taylor = np.convolve(
        (1j * a) ** n / scipy.special.factorial(n), (-1.0) ** n * (n + 1) / q ** (n + 2)
    )
    value = integral + 0.5 / q**2 - taylor[1 : n.size : 2] @ _EM_WEIGHTS
    return complex(np.conj(value) if theta < 0 else value)


def _scalar_oscillating_sum(omega, first, step, terms=64):
    tau = first + step * np.arange(terms)
    head = np.sum(np.exp(1j * omega * tau) / tau**2)
    tau_end = first + step * terms
    theta = np.remainder(omega * step + np.pi, 2.0 * np.pi) - np.pi
    tail = np.exp(1j * omega * tau_end) * _scalar_lerch_remainder(theta, tau_end / step)
    return complex(head + tail / step**2)


def _scalar_lattice_tail_sums(s, first, step):
    plain = scipy.special.zeta(2.0, first / step) / step**2
    one = _scalar_oscillating_sum(s, first, step)
    two = _scalar_oscillating_sum(2.0 * s, first, step)
    return (
        0.5 * (plain - two.real),
        1.5 * plain + 0.5 * two.real - 2.0 * one.real,
        0.5 * two.imag - one.imag,
    )


def _reference_slice(pipe, s):
    """``slice_at(s)`` evaluated the long way, as three separate sinc passes.

    The Gram matrix from outer differences and divisions, the in-core
    lattice paired through its own ``functions_at`` call, the tails one
    lattice at a time.  Returns the sine component at the origin, the values
    (sine, cosine columns) and the 2x2 measure Gram ``norms``.
    """
    mu = pipe.mu
    t, m = mu.positions, mu.masses
    basis = PWBasis(s, pipe.cfg.basis_half_size(s))
    nodes, c, center = basis.nodes, basis._node_factors, basis.center
    phi = basis.functions_at(t)
    lam = mu.type
    reach = float(np.max(np.abs(t)))
    lattice = _lattice(reach, lam)
    phi_lat = basis.functions_at(lattice)
    v = phi @ (m * np.sin(s * t)) - (np.pi / lam) * (phi_lat @ np.sin(s * lattice))
    diag = 1.0 + np.square(phi) @ m - (np.pi / lam) * np.sum(np.square(phi_lat), axis=1)
    v = v / c
    with np.errstate(invalid="ignore"):
        gram = np.subtract.outer(v, v) / np.subtract.outer(nodes, nodes)
    gram *= np.multiply.outer(c, c)
    np.fill_diagonal(gram, diag)

    # the completion lattice inside the core: it stops at the atoms' reach
    core_lattice = _lattice(min(pipe.a_edge, reach), lam)
    core_cosine = (np.pi / lam) * _free_model(lam, core_lattice)[1]
    model = np.zeros((basis.size, 2))
    model[center, 0] = np.sqrt(np.pi * s)
    model[:, 1] = np.sqrt(np.pi / s) * _free_model(s, nodes)[1]
    core = pipe.core_mask
    rhs = model.copy()
    rhs[:, 1] += phi[:, core] @ (m[core] * pipe.boundary_cosine)
    rhs[:, 1] -= basis.functions_at(core_lattice) @ core_cosine
    coeffs = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)

    free = np.column_stack(_free_model(s, t))
    values = free + phi.T @ (coeffs - model)
    tails = np.zeros((2, 2))
    for side, first, mass in mu.tail_lattices:
        sine2, cosine2, cross = _scalar_lattice_tail_sums(s, first, 2.0 * np.pi / lam)
        tails += mass * np.array([[sine2, side * cross], [side * cross, cosine2]])
    norms = values.T @ (m[:, None] * values) + tails
    edge = np.pi * basis.half_size / s
    band = (np.abs(t) > 0.5 * pipe.r_eff) & (np.abs(t) <= edge)
    if np.any(band):
        weight = (1.0 / pipe.r_eff) / (2.0 / pipe.r_eff - 1.0 / edge)
        vb, fb, mb = values[band], free[band], m[band, None]
        norms += weight * (vb.T @ (mb * vb) - fb.T @ (mb * fb))
    return np.sqrt(s / np.pi) * coeffs[center, 0], values, norms


class TestSliceReference:
    @pytest.mark.parametrize("fixture", ["step_pipeline", "wide_pipeline", "short_pipeline"])
    @pytest.mark.parametrize("frac", [0.13, 0.5, 0.77, 1.0])
    def test_slice_matches_three_pass_reference(self, request, fixture, frac):
        pipe = request.getfixturevalue(fixture)
        s = frac * pipe.a
        sine0, values, norms = _reference_slice(pipe, s)
        row, got = pipe.slice_at(s)

        def rel(got, want, scale=None):
            return np.max(np.abs(got - want)) / np.max(np.abs(want if scale is None else scale))

        assert rel(row[2], sine0) <= 1e-12
        assert rel(got[:, 0], values[:, 0]) <= 1e-12
        assert rel(got[:, 1], values[:, 1]) <= 1e-12
        # the rest of the row is the norms over pi: compared at their scale
        zeta = 0.5 * sine0 + norms[1, 1] / (2.0 * np.pi)
        residual = abs(norms[0, 0] / np.pi - sine0)
        want = np.array([s, zeta, sine0, norms[0, 1] / np.pi, norms[1, 1] / np.pi, residual])
        assert rel(np.pi * np.array(row), np.pi * want, norms) <= 1e-12


class TestLatticeTailSums:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "s,step",
        [
            (np.pi, 2.0),  # resonant: theta = 0 at s and at 2s
            (np.pi / 2, 2.0),  # resonant at 2s only
            (np.pi - 0.5e-8, 2.0),  # near resonance
            (2.1, 2.0),
            (0.37, 0.9),
        ],
    )
    def test_array_pass_matches_scalar_calls(self, s, step):
        first = np.array([201.0, 202.0, 187.3, 188.3, 5.5])
        got = lattice_tail_sums(s, first, step)
        want = np.array([_scalar_lattice_tail_sums(s, f, step) for f in first]).T
        for g, w in zip(got, want):
            assert g.shape == first.shape
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13 * np.max(np.abs(w)))


#: worst relative error of ``_lerch_remainder`` against mpmath on the grid of
#: TestSpecialFunctions is 9.4e-13 (theta 2, q 1000); with SciPy's sine and
#: cosine integrals it was 1.6e-10, from cancelling Si against pi/2
LERCH_REMAINDER_BOUND = 2e-12


class TestSpecialFunctions:
    """The tail sums' special functions against mpmath at 30 digits."""

    def test_lerch_remainder(self):
        mp = pytest.importorskip("mpmath")
        theta = np.array([0.0, 0.05, 0.7, 2.0, -3.0, 3.1])
        q = np.array([65.0, 164.0, 300.0, 1000.0])
        got = _lerch_remainder(theta, q)
        with mp.workdps(30):
            want = np.array(
                [[complex(mp.lerchphi(mp.expj(t), 2, v)) for v in q] for t in theta]
            )
        assert np.max(np.abs(got - want) / np.abs(want)) <= LERCH_REMAINDER_BOUND

    @pytest.mark.parametrize("direction", [-1j, 1.0], ids=["imaginary", "real"])
    def test_scaled_e1(self, direction):
        # the tail sums call it at z = -1j x; the series stops at |z| = 2
        mp = pytest.importorskip("mpmath")
        x = np.concatenate([np.geomspace(1e-6, 1e4, 200), [1.99, 2.0, 2.01, 2.1]])
        got = np.array([_scaled_e1(complex(direction * v)) for v in x])
        with mp.workdps(30):
            want = np.array(
                [complex(mp.exp(z) * mp.e1(z)) for z in (mp.mpc(direction * v) for v in x)]
            )
        assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-14

    def test_resonant_row_is_hurwitz_zeta(self):
        # the omega = 0 row of the lattice pass: 64 explicit terms, then the
        # remainder at theta = 0, which is the zeta's asymptotic series
        mp = pytest.importorskip("mpmath")
        q = np.concatenate([np.geomspace(1e-2, 1e6, 200), [15.5, 16.0, 16.5]])
        got = _lattice_rows(np.array([0.0]), q, 1.0)[0]
        with mp.workdps(30):
            want = np.array([float(mp.zeta(2, v)) for v in q])
        assert not np.any(got.imag)
        assert np.max(np.abs(got.real - want) / want) <= 2e-15


class TestRecenteringMoment:
    def test_symmetric_measure_vanishes(self, free_pi):
        _, mu = free_pi
        assert recentering_moment(mu) == 0.0

    def test_two_atom_closed_form(self):
        mu = SpectralMeasure(
            np.array([-2.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]), 5.0, herglotz_c=0.0
        )
        want = (1 / 2 - 1 / 10) / np.pi  # 2/(5 pi)
        assert recentering_moment(mu) == pytest.approx(want, rel=1e-15)
        assert recentering_moment(mu) == pytest.approx(2 / (5 * np.pi), rel=1e-15)

    def test_mirror_symmetry_cancellation(self):
        pos = np.array([-7.3, -2.2, 0.0, 2.2, 7.3])
        mass = np.array([0.7, 1.3, 1.0, 1.3, 0.7])
        mu = SpectralMeasure(pos, mass, 10.0, herglotz_c=0.0)
        assert abs(recentering_moment(mu)) < 1e-14


class TestSineComponent:
    def test_free_values_and_zero(self, free_pipeline):
        pipe = free_pipeline
        for s in [pipe.cfg.s_grid[2], pipe.cfg.s_grid[-1]]:
            row, values = pipe.slice_at(s)
            t = pipe.mu.positions
            want = np.where(t == 0.0, s, np.sin(s * t) / np.where(t == 0, 1, t))
            np.testing.assert_allclose(values[:, 0], want, atol=1e-8)
            assert row[2] == pytest.approx(s, abs=1e-12)

    def test_free_slope_pattern(self, free_pipeline):
        # value derivative of the sine component at the lattice: (-1)^k a/t
        pipe = free_pipeline
        t = pipe.mu.positions[pipe.core_mask]
        assert abs(pipe.slope_values[t == 0.0][0]) < 1e-10
        nz = t != 0.0
        want = np.cos(np.pi * t[nz]) * np.pi / t[nz]
        np.testing.assert_allclose(pipe.slope_values[nz], want, atol=1e-8)

    def test_step_oracle(self, step_pipeline, step_hamiltonian):
        # recovered sine component matches -theta_minus(xi(s), t)/t; the
        # window edge degrades at the O(perturbation / window) level
        pipe = step_pipeline
        H = step_hamiltonian
        s = pipe.cfg.s_grid[8]
        values = pipe.slice_at(s)[1]
        xi = forward.type_inverse(H, s)
        t = pipe.mu.positions
        _, tm, _, dm = forward.theta_and_derivative(H, xi, t)
        want = -np.where(t == 0, np.real(dm), np.real(tm) / np.where(t == 0, 1, t))
        scale = np.max(np.abs(want))
        err = np.abs(values[:, 0] - want) / scale
        assert np.max(err[np.abs(t) <= 100.0]) < 1e-3
        assert np.max(err) < 3e-3


class TestBoundaryCosine:
    def test_free_closed_form(self, free_pipeline):
        pipe = free_pipeline
        t = pipe.mu.positions[pipe.core_mask]
        want = np.where(t == 0, 0.0, (np.cos(np.pi * t) - 1.0) / np.where(t == 0, 1, t))
        np.testing.assert_allclose(pipe.boundary_cosine, want, atol=1e-8)

    def test_zero_slope_raises(self):
        with pytest.raises(NumericalError, match="slope"):
            boundary_cosine_values(
                np.array([0.0, 1.0]),
                np.array([1.0, 1.0]),
                0.0,
                0.0,
                np.array([0.0, 0.0]),
            )


class TestBoundaryCosineOrigin:
    def test_origin_branch_nondiagonal(self):
        # the origin value must reproduce the z-derivative of the first
        # solution component; nonzero only for asymmetric measures, which
        # pins the normalization of the moment/constant combination
        from canspec.model import Hamiltonian, GridConfig, normalize_trace

        H = Hamiltonian.from_segments([(0.0, 2.0, 1.3, 0.25, 0.9)])
        Ht, _ = normalize_trace(H)
        mu = forward.spectral_measure(Ht, 60.0)
        cfg = GridConfig.for_bandwidth(
            mu.type, s_samples=9, pw_truncation=64, measure_window=60.0
        )
        pipe = RecoveryPipeline(mu, c=mu.herglotz_c, cfg=cfg)
        pts = mu.positions[pipe.core_mask]
        iz = int(np.nonzero(pts == 0.0)[0][0])
        _, _, dp, _ = forward.theta_and_derivative(Ht, Ht.ell, np.asarray(0.0))
        assert pipe.boundary_cosine[iz] == pytest.approx(float(np.real(dp)), abs=1e-4)


class TestProjectedCosine:
    def test_full_bandwidth_matches_boundary(self, step_pipeline):
        pipe = step_pipeline
        got = pipe.slice_at(pipe.a)[1][pipe.core_mask, 1]
        scale = np.max(np.abs(pipe.boundary_cosine))
        assert np.max(np.abs(got - pipe.boundary_cosine)) / scale < 1e-8

    def test_free_closed_form(self, free_pipeline):
        pipe = free_pipeline
        s = pipe.cfg.s_grid[7]
        values = pipe.slice_at(s)[1]
        t = pipe.mu.positions
        want = np.where(t == 0, 0.0, (np.cos(s * t) - 1.0) / np.where(t == 0, 1, t))
        np.testing.assert_allclose(values[:, 1], want, atol=1e-7)

    def test_step_oracle(self, step_pipeline, step_hamiltonian):
        # recovered cosine component matches (theta_plus(xi(s), t) - 1)/t:
        # exactly at the full bandwidth, and at the O(perturbation/window)
        # model level at interior bandwidths
        pipe = step_pipeline
        H = step_hamiltonian
        for s, tol, region in [
            (pipe.cfg.s_grid[8], 5e-3, np.ones_like(pipe.core_mask)),
            (pipe.a, 1e-6, pipe.core_mask),
        ]:
            values = pipe.slice_at(s)[1]
            xi = forward.type_inverse(H, s)
            t = pipe.mu.positions
            tp, _, dp, _ = forward.theta_and_derivative(H, xi, t)
            want = np.where(
                t == 0, np.real(dp), (np.real(tp) - 1.0) / np.where(t == 0, 1, t)
            )
            scale = np.max(np.abs(want))
            assert np.max(np.abs(values[:, 1] - want)[region]) / scale < tol


class TestChainPosition:
    def test_free_identity_map(self, free_pipeline):
        s, zeta = free_pipeline.run().zeta_table[:, :2].T
        assert np.max(np.abs(zeta - s)) < 1e-4

    def test_zero_at_zero(self, free_pipeline):
        # the slice table starts at the origin: zeta(0) = 0, and N(0) = 0
        assert tuple(free_pipeline.run().zeta_table[0]) == (0.0,) * 6

    def test_strictly_increasing_on_fixtures(self, free_pipeline, step_pipeline):
        for pipe in (free_pipeline, step_pipeline):
            zs = [pipe.slice_at(s)[0][1] for s in pipe.cfg.s_grid]
            assert np.all(np.diff(zs) > 0)

    def test_step_matches_type_inverse(self, step_pipeline, step_hamiltonian):
        pipe = step_pipeline
        for s in pipe.cfg.s_grid[::4]:
            xi = forward.type_inverse(step_hamiltonian, s)
            assert abs(pipe.slice_at(s)[0][1] - xi) < 2e-3

    def test_free_norms_are_integrated_weight(self, free_pipeline):
        # the 2x2 measure Gram over pi is int_0^zeta H = s I on the free weight:
        # pins the cosine norm and the cross term, not only the sine norm, whose
        # norm over pi is N11 up to the residual
        for s in free_pipeline.cfg.s_grid:
            _, _, n11, n12, n22, residual = free_pipeline.slice_at(s)[0]
            np.testing.assert_allclose([n11, n12, n22], [s, 0.0, s], rtol=0, atol=1e-13)
            assert abs(n11 - s) + residual <= 1e-13

    def test_sine_norm_identity_free(self, free_pipeline):
        # reproducing identity at the stated tolerance where the tail
        # completion is exact
        for s in free_pipeline.cfg.s_grid[::5]:
            assert free_pipeline.slice_at(s)[0][5] < 1e-4

    def test_sine_norm_identity_step(self, step_pipeline, step_hamiltonian):
        # perturbed fixtures carry an O(perturbation/window) model error;
        # exact at the full bandwidth, halving when the window doubles
        assert step_pipeline.slice_at(step_pipeline.a)[0][5] < 1e-4
        res_200 = max(step_pipeline.slice_at(s)[0][5] for s in step_pipeline.cfg.s_grid[::5])
        assert res_200 < 5e-4
        mu_400 = forward.spectral_measure(step_hamiltonian, 400.0)
        cfg = GridConfig.for_bandwidth(
            step_pipeline.a, s_samples=17, pw_truncation=512, measure_window=400.0
        )
        pipe_400 = RecoveryPipeline(mu_400, c=mu_400.herglotz_c, cfg=cfg)
        res_400 = max(pipe_400.slice_at(s)[0][5] for s in step_pipeline.cfg.s_grid[::5])
        assert res_400 < 0.7 * res_200


class TestSliceData:
    """Every slice's ``int_0^zeta H`` against the exact ``oracles.chain_data``.

    The pipeline's slice data at bandwidth ``s`` are ``N11``, ``N12`` and
    ``N22`` of its slice table row.
    """

    # Max over the s grid of |N - chain_data| per entry (N11, N12, N22) at the
    # calibration, on the default grid at window 200 (wide: pw 128 and 33
    # samples at window 400, as in WIDE_SETTINGS):
    #   free    2.2e-15  6.3e-16  4.0e-15
    #   step    6.6e-4   7.0e-16  2.6e-3
    #   split   3.6e-4   7.6e-16  2.4e-3
    #   wide    9.6e-5   3.1e-4   6.0e-3
    # Roundoff entries are bounded at 4 times the calibration, model-error
    # entries at 1.1 times.  A change that improves a slice tightens its bound.
    BOUNDS = {
        "free": (1e-14, 3e-15, 2e-14),
        "step": (7.3e-4, 3e-15, 2.9e-3),
        "split": (4.0e-4, 3.1e-15, 2.7e-3),
        "wide": (1.1e-4, 3.5e-4, 6.7e-3),
    }

    @pytest.mark.parametrize("name", list(BOUNDS))
    def test_each_slice_against_the_exact_integral(self, name, wide_hamiltonian, wide_measure):
        grid = {}
        if name == "wide":
            H, mu, grid = wide_hamiltonian, wide_measure, dict(pw_truncation=128, s_samples=33)
        else:
            w = 1.2
            split = [(0.0, 1.3, w, 0.0, 1 / w), (1.3, 2.0, 1 / w, 0.0, w)]
            H = {
                "free": Hamiltonian.identity(np.pi),
                "step": oracles.step_fixture(w),
                "split": Hamiltonian.from_segments(split),
            }[name]
            H, _ = normalize_trace(H)
            mu = forward.spectral_measure(H, 200.0)
        cfg = GridConfig.for_bandwidth(mu.type, measure_window=mu.window, **grid)
        pipe = RecoveryPipeline(mu, c=mu.herglotz_c, cfg=cfg)
        err = np.zeros(3)
        for s in cfg.s_grid:
            got, N = pipe.slice_at(s)[0][2:5], oracles.chain_data(H, s)
            err = np.maximum(err, np.abs(np.subtract(got, (N[0, 0], N[0, 1], N[1, 1]))))
        assert np.all(err <= self.BOUNDS[name]), err


class TestPipelineState:
    def test_slices_and_run_leave_state_alone(self, free_pipeline):
        # each slice builds its own section: nothing is stored or replaced
        pipe = free_pipeline
        before = dict(vars(pipe))
        contents = {k: v.copy() for k, v in before.items() if hasattr(v, "copy")}
        pipe.slice_at(pipe.a)
        pipe.run()
        after = vars(pipe)
        assert after.keys() == before.keys()
        assert all(after[k] is v for k, v in before.items())
        for k, v in contents.items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(after[k], v)
            else:
                assert after[k] == v, k


class TestPchip:
    def test_equals_scipy_bitwise(self):
        # SciPy's PchipInterpolator is the reference: same slopes, coefficients,
        # interval search and evaluation order, so every bit agrees
        rng = np.random.default_rng(23)
        flat = sign_changes = 0
        for draw in range(300):
            n = int(rng.integers(3, 61))
            x = np.cumsum(rng.uniform(0.01, 2.0, n)) - rng.uniform(0.0, 1.0)
            y = {
                0: np.cumsum(rng.uniform(0.0, 1.0, (n, 2)), axis=0),  # monotone runs
                1: np.round(np.cumsum(rng.normal(size=(n, 2)), axis=0)),  # flat steps
                2: rng.normal(size=(n, 2)),  # sign changes
            }[draw % 3]
            m = np.diff(y, axis=0)
            flat += bool(np.any(m == 0))
            sign_changes += bool(np.any(np.sign(m[1:]) * np.sign(m[:-1]) < 0))
            xnew = np.concatenate([np.sort(rng.uniform(x[0], x[-1], 40)), x, [x[-1]]])
            want = scipy.interpolate.PchipInterpolator(x, y)(xnew)
            got = _pchip(x, y, xnew)
            assert got.tobytes() == want.tobytes(), (draw, np.max(np.abs(got - want)))
        assert flat >= 50 and sign_changes >= 100


class TestAssembly:
    def test_step_weight_integrates_to_slice_data(self, step_pipeline):
        # the recovered cells integrate back to int_0^zeta H of each slice at
        # its chain point; N11 is off by the interpolant's curvature inside a
        # cell of the r grid, N12 vanishes on the diagonal fixture
        res = step_pipeline.run()
        H = res.hamiltonian
        cum = np.cumsum(H.matrices[:, 0, :] * H.lengths[:, None], axis=0)
        cum = np.vstack([[0.0, 0.0], cum])
        zetas = res.zeta_table[1:, 1]
        got = np.column_stack([np.interp(zetas, H.edges, cum[:, j]) for j in range(2)])
        want = res.zeta_table[1:, 2:4]
        assert np.max(np.abs(got[:, 0] - want[:, 0])) < 3e-5
        assert np.max(np.abs(got[:, 1] - want[:, 1])) < 1e-15

    def test_krein_error_at_the_chain_points(self, free_pipeline, step_pipeline):
        # max_k |int_0^zeta_k sqrt(det H_rec) - s_k| / a, the type read off
        # the recovered weight by the forward solver
        errors = []
        for pipe in (free_pipeline, step_pipeline):
            res = pipe.run()
            want = max(
                abs(forward.exponential_type(res.hamiltonian, zeta) - s)
                for s, zeta in res.zeta_table[:, :2]
            ) / pipe.a
            errors.append(res.diagnostics["krein_relative_error"])
            assert errors[-1] == pytest.approx(want, rel=1e-9, abs=1e-14)
        assert errors[0] <= 1e-13


def _traced_peak(f):
    """``f()`` and the peak of its traced allocations above those alive before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = f()
    return out, tracemalloc.get_traced_memory()[1] - before


class TestSliceTable:
    """``zeta_table``, the slice table: ``run``'s one intermediate, a row per bandwidth."""

    def test_rows_are_the_slices_bitwise(self, free_pipeline, step_pipeline):
        for pipe in (free_pipeline, step_pipeline):
            res = pipe.run()
            table = res.zeta_table
            assert table.shape == (pipe.cfg.s_samples, 6)
            residual, definitional = [], []
            for row, s in zip(table[1:], pipe.cfg.s_grid):
                want = pipe.slice_at(s)[0]
                assert want[0] == s
                assert row.tobytes() == np.array(want).tobytes()
                _, zeta, n11, _, n22, sine_norm_residual = want
                residual.append(sine_norm_residual)
                definitional.append(abs(2.0 * zeta - n11 - n22))
            # the gated diagnostics read the table and keep their bits
            assert res.diagnostics["sine_norm_residual_max"] == max(residual)
            assert res.diagnostics["definitional_residual_max"] == max(definitional)

    def test_one_section_alive_at_a_time(self, free_pi):
        # construction peaks no higher than the full-bandwidth section alone,
        # and run() adds the table: no slice outlives its row; the slack holds
        # the small per-slice arrays
        _, mu = free_pi
        cfg = GridConfig.for_bandwidth(np.pi, s_samples=129, measure_window=200.0)
        slack = 2**17
        tracemalloc.start()
        try:
            RecoveryPipeline(mu, c=0.0, cfg=cfg)  # the measure's cached lattices
            half = cfg.basis_half_size(np.pi)
            section = _traced_peak(lambda: build_operator(mu, np.pi, half))[1]
            pipe, init = _traced_peak(lambda: RecoveryPipeline(mu, c=0.0, cfg=cfg))
            res, run = _traced_peak(pipe.run)
        finally:
            tracemalloc.stop()
        assert init <= section + slack
        assert run <= section + res.zeta_table.nbytes + slack


class TestReconstruct:
    def test_free_recovers_identity(self, free_pi):
        _, mu = free_pi
        cfg = GridConfig.for_bandwidth(
            np.pi, s_samples=33, pw_truncation=128, measure_window=200.0, r_samples=65
        )
        res = RecoveryPipeline(mu, c=0.0, cfg=cfg).run()
        H = res.hamiltonian
        assert H.ell == pytest.approx(np.pi, abs=1e-4)
        mids = 0.5 * (H.edges[:-1] + H.edges[1:])
        inner = (mids > 0.02 * np.pi) & (mids < 0.98 * np.pi)
        assert np.max(np.abs(H.matrices[inner] - np.eye(2))) < 5e-3

    def test_trace_identically_two(self, free_pi):
        _, mu = free_pi
        cfg = GridConfig.for_bandwidth(
            np.pi, s_samples=17, pw_truncation=64, measure_window=200.0, r_samples=33
        )
        res = RecoveryPipeline(mu, c=0.0, cfg=cfg).run()
        traces = res.hamiltonian.traces()
        np.testing.assert_allclose(traces, 2.0, rtol=1e-14)

    def test_diagnostics_contract(self, free_pi):
        _, mu = free_pi
        cfg = GridConfig.for_bandwidth(
            np.pi, s_samples=17, pw_truncation=64, measure_window=200.0, r_samples=33
        )
        res = RecoveryPipeline(mu, c=0.0, cfg=cfg).run()
        d = res.diagnostics
        assert d["definitional_residual_max"] <= 1e-6
        assert d["sine_norm_residual_max"] <= 1e-4
        assert d["krein_relative_error"] <= 1e-2
        assert d["lattice_type"] == np.pi
        assert res.zeta_table[0, 1] == 0.0
        assert res.zeta_table[-1, 0] == pytest.approx(np.pi)

    def test_bandwidth_estimated_when_missing(self, free_pi):
        _, mu = free_pi
        sub = SpectralMeasure(mu.positions, mu.masses, mu.window, herglotz_c=0.0)
        cfg = GridConfig.for_bandwidth(
            sub.type, s_samples=17, pw_truncation=64,
            measure_window=sub.window, r_samples=33,
        )
        res = RecoveryPipeline(sub, c=0.0, cfg=cfg).run()
        assert res.hamiltonian.ell == pytest.approx(np.pi, abs=1e-3)

    @pytest.mark.parametrize("c,a", [(1e308, np.pi), (1e200, np.pi), (0.0, 1e300)])
    def test_overflowing_boundary_data_rejected(self, c, a):
        _, mu = oracles.free_fixture(np.pi, 50.0)
        cfg = GridConfig.for_bandwidth(a, s_samples=9, pw_truncation=16, measure_window=50.0)
        with pytest.raises(NumericalError, match="boundary cosine data overflowed"):
            RecoveryPipeline(mu, c=c, cfg=cfg)

    def test_section_at_huge_bandwidth_rejected(self):
        # the basis cap 0.95 window s / pi overflows, then s t in the section
        _, mu = oracles.free_fixture(np.pi, 50.0)
        cfg = GridConfig.for_bandwidth(1e308, s_samples=9, pw_truncation=16, measure_window=50.0)
        with pytest.raises(NumericalError, match=r"section at bandwidth 1e\+308 is not finite"):
            RecoveryPipeline(mu, c=0.0, cfg=cfg)

    def test_degenerate_measure_rejected(self):
        # starving most atoms of mass breaks bounded invertibility
        k = np.arange(-60, 61)
        masses = np.full(k.size, 1.0)
        masses[np.abs(k) % 7 != 0] = 1e-12
        mu = SpectralMeasure(k.astype(float), masses, 60.5, herglotz_c=0.0)
        cfg = GridConfig.for_bandwidth(
            np.pi, s_samples=9, pw_truncation=32, measure_window=60.5
        )
        with pytest.raises(NumericalError):
            RecoveryPipeline(mu, c=0.0, cfg=cfg).run()

    def test_psd_projection_matches_eigh(self):
        # trace-2 cells with a negative eigenvalue become 2 v v^T of the top eigenvector
        rng = np.random.default_rng(7)
        h11, h12 = rng.uniform(-2.0, 4.0, 10_000), rng.uniform(-2.0, 2.0, 10_000)
        h22 = 2.0 - h11
        half_gap = np.sqrt(((h11 - h22) / 2.0) ** 2 + h12**2)
        neg = half_gap > 1.0
        h11, h12, h22, half_gap = h11[neg], h12[neg], h22[neg], half_gap[neg]
        cells = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
        v = np.linalg.eigh(cells)[1][:, :, 1]
        want = 2.0 * v[:, :, None] * v[:, None, :]
        got = _top_eigenprojection(h11, h12, half_gap)
        assert neg.sum() > 5000
        for value, (i, j) in zip(got, [(0, 0), (0, 1), (1, 1)]):
            assert np.max(np.abs(value - want[:, i, j])) <= 4e-15


@pytest.fixture(scope="module")
def symmetric_step_reports():
    """Round trips of the step split at 1 of 2, keyed by ``w``."""
    return {w: oracles.roundtrip(oracles.step_fixture(w)) for w in (1.2, 1.05)}


class TestAsymmetricSteps:
    """``diag(w, 1/w)`` then ``diag(1/w, w)`` on ``[0, 2]``, split off the middle.

    Their zeros are not equally spaced, so the type comes from a fit to all
    the atoms; no single gap gives it.
    """

    @pytest.mark.parametrize("w", [1.2, 1.05])
    @pytest.mark.parametrize("split", [1.1, 1.2, 1.3, 1.5, 1.7])
    def test_recovers_like_the_symmetric_step(self, symmetric_step_reports, split, w):
        H = Hamiltonian.from_segments([(0.0, split, w, 0.0, 1 / w), (split, 2.0, 1 / w, 0.0, w)])
        report, ref = oracles.roundtrip(H), symmetric_step_reports[w]
        assert report.max_l1_relative <= ref.max_l1_relative
        assert report.diagnostics["sine_norm_residual_max"] == pytest.approx(
            ref.diagnostics["sine_norm_residual_max"], rel=0.05
        )


@st.composite
def full_rank_weights(draw):
    """Weights of 2-6 segments ``R(a) diag(1, m) R(a)^T`` with ``1/m`` at most ``e``.

    Lengths are 0.2-1 before trace normalization.  No segment is rank one:
    next to one the scan can miss a pair of zeros.
    """
    segment = st.tuples(
        st.floats(0.2, 1.0),  # length before normalization
        st.floats(0.0, np.pi),  # rotation
        st.floats(0.0, 1.0),  # log of the eigenvalue ratio
    )
    lengths, angles, log_ratio = map(
        np.array, zip(*draw(st.lists(segment, min_size=2, max_size=6)))
    )
    c, s, m = np.cos(angles), np.sin(angles), np.exp(-log_ratio)
    off = c * s * (1.0 - m)
    mats = np.stack([c * c + s * s * m, off, off, s * s + c * c * m], axis=-1)
    return Hamiltonian.from_lengths(lengths, mats.reshape(-1, 2, 2))


class TestRoundtripProperties:
    """Forward then inverse on random weights of the paper's class, window 200."""

    #: calibrated on 175 draws of this strategy: the largest L1 was 7.0e-2, and
    #: the three above 0.05 (the wide-roundtrip bound) were all 2-segment weights
    #: of length 0.4 to 0.6 before normalization, with the fewest atoms
    L1_BOUND = 0.1

    @settings(max_examples=15)
    @given(full_rank_weights())
    def test_recovers_within_bound(self, H):
        assert oracles.roundtrip(H).max_l1_relative < self.L1_BOUND


class TestAtomsShortOfWindow:
    """Unit atoms that stop short of the window: the free measure on one completion lattice."""

    @pytest.mark.parametrize("reach,window", [(40, 60.0), (100, 200.0)])
    def test_free_measure_recovers_identity(self, reach, window):
        # the Gram and the cosine pairing continue the atoms by the same
        # lattice, so the model is the free measure inside the basis too
        k = np.arange(-reach, reach + 1.0)
        mu = SpectralMeasure(k, np.ones(k.size), window, herglotz_c=0.0)
        cfg = GridConfig.for_bandwidth(np.pi, s_samples=33, measure_window=window, r_samples=65)
        pipe = RecoveryPipeline(mu, c=0.0, cfg=cfg)
        assert pipe.a_edge > reach
        res = pipe.run()
        assert np.max(np.abs(res.hamiltonian.matrices - np.eye(2))) <= 1e-12
        np.testing.assert_allclose(res.zeta_table[:, 1], res.zeta_table[:, 0], rtol=0, atol=1e-12)
        for s in cfg.s_grid:
            # the norms are pi N, and the sine norm over pi is N11 up to the residual
            _, _, n11, n12, n22, residual = pipe.slice_at(s)[0]
            got = np.pi * np.array([n11, n12, n22])
            np.testing.assert_allclose(got, np.pi * s * np.array([1, 0, 1]), rtol=0, atol=1e-12)
            assert np.pi * (abs(n11 - s) + residual) <= 1e-12


class TestBandMassPair:
    """Parity-split outer-band masses of ``SpectralMeasure.tail_lattices``."""

    def test_alternating_pattern(self):
        k = np.arange(-20, 21)
        masses = np.where(k % 2 == 0, 2.0, 1.0)
        mu = SpectralMeasure(k.astype(float), masses, 20.5, herglotz_c=0.0)
        for side in (1.0, -1.0):
            (_, first_next, m_next), (_, first_after, m_after) = [
                lat for lat in mu.tail_lattices if lat[0] == side
            ]
            assert (first_next, first_after) == (21.0, 22.0)
            assert m_after == pytest.approx(2.0)  # same parity as the outermost atom
            assert m_next == pytest.approx(1.0)

    def test_constant_pattern(self):
        k = np.arange(-15, 15)
        mu = SpectralMeasure(k.astype(float), np.full(k.size, 0.7), 15.5, herglotz_c=0.0)
        masses = [mass for _, _, mass in mu.tail_lattices]
        assert masses == pytest.approx([0.7] * 4)


def _brute_force_tails(pipe, s, terms=2**22, chunk=2**19):
    """Explicit lattice-model sums over ``terms`` points per side, plus the
    oscillation-averaged remainder; returns the tails and a bound on the
    error of that remainder (exact only where the oscillation averages)."""
    spacing = np.pi / pipe.lattice
    sine = cosine = cross = bound = 0.0
    for side, first, mass in pipe.mu.tail_lattices:
        for start in range(0, terms // 2, chunk // 2):
            t = side * (first + 2.0 * spacing * np.arange(start, start + chunk // 2))
            sv = np.sin(s * t) / t
            cv = (np.cos(s * t) - 1.0) / t
            sine += mass * float(np.sum(sv * sv))
            cosine += mass * float(np.sum(cv * cv))
            cross += mass * float(np.sum(sv * cv))
        rest = 0.5 * mass / (spacing * (first + spacing * (terms - 1)))
        sine += 0.5 * rest
        cosine += 1.5 * rest
        bound += 2.5 * rest  # (cos - 1)^2 in [0, 4] against its mean 3/2
    return np.array([sine, cosine, cross]), bound


class TestModelTails:
    def test_free_full_bandwidth_exact(self, free_pipeline):
        # sin(pi n) = 0 on the free lattice: the sine tail vanishes and the
        # reproducing identity holds to roundoff
        assert abs(free_pipeline._model_tails(np.pi)[0, 0]) <= 1e-15
        assert free_pipeline.slice_at(np.pi)[0][5] <= 1e-12

    @pytest.mark.parametrize("fixture", ["free_pipeline", "smooth_pipeline"])
    @pytest.mark.parametrize("frac", [1.0, 0.5, 0.77])
    def test_matches_brute_force(self, request, fixture, frac):
        pipe = request.getfixturevalue(fixture)
        s = frac * pipe.a
        want, bound = _brute_force_tails(pipe, s)
        tails = pipe._model_tails(s)
        got = np.array([tails[0, 0], tails[1, 1], tails[0, 1]])
        # at (near-)resonant s the brute force's own 1/T remainder limits it
        tol = 1e-12 if frac == 0.77 else bound
        assert np.max(np.abs(got - want)) <= tol

    def test_near_resonance_bounded_and_exact(self, free_pipeline):
        # gap |1 - exp(2i s h)| = 1e-8 on the unit free lattice; the exact
        # tails are Lerch transcendents, and the cost must not grow with the gap
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        s = np.pi - 0.5e-8
        tracemalloc.start()
        try:
            got = free_pipeline._model_tails(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18

        ms, q = mp.mpf(s), 201  # both sides: unit masses at 201, 202, ...

        def osc(w):
            return mp.expj(w * q) * mp.lerchphi(mp.expj(w), 2, q)

        plain, one, two = mp.zeta(2, q), osc(ms), osc(2 * ms)
        sine = 2 * 0.5 * (plain - mp.re(two))
        cosine = 2 * (1.5 * plain + 0.5 * mp.re(two) - 2 * mp.re(one))
        assert got[0, 0] == pytest.approx(float(sine), abs=1e-15)
        assert got[1, 1] == pytest.approx(float(cosine), abs=1e-15)
        assert abs(got[0, 1]) <= 1e-15
