import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from canspec import cli, forward, oracles
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


def rotated(angles, m):
    """``R(a) diag(1, m) R(a)^T`` for each angle ``a``, shape ``angles.shape + (2, 2)``."""
    c, s = np.cos(angles), np.sin(angles)
    mats = np.empty(np.shape(angles) + (2, 2))
    mats[..., 0, 0] = c * c + s * s * m
    mats[..., 1, 1] = s * s + c * c * m
    mats[..., 0, 1] = mats[..., 1, 0] = c * s * (1.0 - m)
    return mats


def rotated_rank_one(angle, scale=2.0):
    """``scale R(angle) diag(1, 0) R(angle)^T``: its determinant is roundoff, not 0."""
    return scale * rotated(angle, 0.0)


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

    @pytest.mark.parametrize("z", [800j, np.inf, np.nan, 1e300], ids=str)
    def test_non_finite_entries_raise(self, z):
        # cosh(800) overflows, and cos and sin of inf or 1e300 are nan: the
        # determinant gate reads nan there; a nan z warns of nothing
        warns = contextlib.nullcontext() if np.isnan(z) else pytest.warns(RuntimeWarning)
        with pytest.raises(NumericalError, match="not finite"), warns:
            forward.propagate(Hamiltonian.identity(1.0), 1.0, z)

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
        M, dM, _ = forward._propagate(step_hamiltonian, 0.0, z, derivative=True)
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
        M, dM, _ = forward._propagate(H, r, z, derivative=True)
        want = expm_product(H, r, z)
        np.testing.assert_allclose(M, want, rtol=0, atol=1e-12 * np.abs(want).max())
        h = 1e-6
        fd = (expm_product(H, r, z + h) - expm_product(H, r, z - h)) / (2 * h)
        np.testing.assert_allclose(dM, fd, rtol=0, atol=1e-8 * np.abs(fd).max())
        # the one-column pass of theta_and_derivative carries the same numbers
        tp, tm, dp, dm = forward.theta_and_derivative(H, r, z)
        for got, col in zip((tp, tm, dp, dm), (M[:, 0, 0], M[:, 1, 0], dM[:, 0, 0], dM[:, 1, 0])):
            assert np.array_equal(got, col)

    @pytest.mark.parametrize("shift", [0.0, 0.4j])
    @pytest.mark.parametrize("size", [1, 57, 400])
    def test_point_alone_equals_batch(self, size, shift):
        # find_zeros propagates some zeros again alone and keeps the batched values
        # of the rest, so a point's value must not depend on the other points
        H = smooth_weight(8, 300)
        z = np.linspace(-30.0, 37.0, size) + shift
        # the 300 segments fill several blocks at 57 and 400 points
        assert size == 1 or forward._BLOCK_PAIRS // size < H.nsegments
        M = forward.transfer_entries(H, H.ell, z)
        theta = forward.theta_and_derivative(H, H.ell, z)
        for j, x in enumerate(z):
            assert np.array_equal(forward.transfer_entries(H, H.ell, x), M[j])
            alone = forward.theta_and_derivative(H, H.ell, x)
            assert all(np.array_equal(a, b[j]) for a, b in zip(alone, theta))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_cs_branches(self, dtype):
        def masked_cs(delta):
            # the series fix-up applied on every call, as a reference
            w = np.sqrt(delta)
            c = np.cos(w)
            small = np.abs(delta) < 1e-12
            w[small] = 1.0
            s = np.sin(w) / w
            s[small] = 1.0 - delta[small] / 6.0
            return c, s

        shift = 0.3j if dtype is complex else 0.0
        mixed = np.array([[0.0, 1e-13, 0.5], [0.5, 1e-13 * (1 + shift), 0.5 + shift]], dtype)
        for delta in (mixed, mixed[:, 2:], mixed[:, :2]):
            for got, want in zip(forward._cs(delta), masked_cs(delta)):
                assert got.dtype == want.dtype and np.array_equal(got, want)


def scan_weight(name, workloads):
    """The weights of the scan tests; ``workloads`` is ``perfbench/workloads.py``."""
    I = np.eye(2)
    if name == "free":
        return Hamiltonian.identity(np.pi)
    if name == "step":
        return oracles.step_fixture()
    if name == "smooth-1000":
        return workloads.smooth_weight(0, 0, 1000)
    if name == "rank-one":
        return Hamiltonian.from_lengths([1.0, 0.5, 1.0], [I, np.diag([2.0, 0.0]), I])
    # det 1e-20 at trace 2e-10 is full rank under the rank-one rule, so the
    # scan divides by sqrt(det) = 1e-10
    return Hamiltonian.from_lengths([1.0, 0.5, 1.0], [I, 1e-10 * I, I])


SCAN_WEIGHTS = ["free", "step", "smooth-1000", "rank-one", "det-1e-20"]


def scan_grid(H, window):
    """The grid of ``find_zeros``: step ``pi / (4 type)`` across ``[-window, window]``."""
    step = np.pi / (4.0 * forward.exponential_type(H))
    return np.linspace(-window, window, int(np.ceil(2 * window / step)) + 1)


def roundoff_scale(H, z):
    """``eps (segments + type |z|)``: the product's roundoff and its phases' relative to ``|M|``."""
    return np.finfo(float).eps * (H.nsegments + forward.exponential_type(H) * np.abs(z))


def mp_transfer(mpmath, H, zs):
    """``M(ell, z)`` and ``dM/dz`` for each ``z`` in ``zs``, as products of the segment exponentials at 40 digits.

    ``A = z d K`` with ``K = -J H`` is traceless and ``A^2 = -w^2 I`` with
    ``w = z d sqrt(det H)``, so ``exp(A) = c I + s K`` with ``c = cos(w)``
    and ``s = sin(w)/sqrt(det H)`` (``c = 1``, ``s = z d`` when ``det H =
    0``).  Their z-derivatives are ``-det(H) d s`` and ``d c`` (``0`` and
    ``d``), and ``dM`` follows the product rule.  The segment data are the
    float entries, exactly.
    """
    with mpmath.workdps(40):
        zs = [mpmath.mpmathify(z) for z in zs]
        one, zero = mpmath.mpf(1), mpmath.mpf(0)
        M = [[one, zero, zero, one] for _ in zs]
        dM = [[zero] * 4 for _ in zs]
        for d, h in zip(H.lengths, H.matrices):
            d, h00, h01, h11 = (mpmath.mpf(float(x)) for x in (d, h[0, 0], h[0, 1], h[1, 1]))
            det = h00 * h11 - h01 * h01
            root = mpmath.sqrt(det)
            for k, z in enumerate(zs):
                w = z * d * root
                c, s = (mpmath.cos(w), mpmath.sin(w) / root) if root else (one, z * d)
                dc, ds = -det * d * s, d * c
                F = [c + s * h01, s * h11, -s * h00, c - s * h01]
                dF = [dc + ds * h01, ds * h11, -ds * h00, dc - ds * h01]
                M[k], dM[k] = _mp_product(F, M[k]), [
                    a + b for a, b in zip(_mp_product(dF, M[k]), _mp_product(F, dM[k]))
                ]
        return tuple(
            np.array([[[complex(m[0]), complex(m[1])], [complex(m[2]), complex(m[3])]] for m in A])
            for A in (M, dM)
        )


def _mp_product(f, m):
    """The 2x2 product ``f m`` of row-major entry lists."""
    return [
        f[0] * m[0] + f[1] * m[2], f[0] * m[1] + f[1] * m[3],
        f[2] * m[0] + f[3] * m[2], f[2] * m[1] + f[3] * m[3],
    ]


class TestScan:
    """The one-column scan pass of ``find_zeros``, whose factors come from phase tables."""

    # Calibration: over these weights and windows the largest difference from
    # transfer_entries is 1.28 roundoff_scale (step weight at window 200), the
    # sum of the two sides' roundoff.  The bound is 4, about three times that.
    @pytest.mark.parametrize("window", [20.0, 200.0, 1000.0])
    @pytest.mark.parametrize("name", SCAN_WEIGHTS)
    def test_scan_matches_transfer_entries(self, name, window, wide_workload):
        H = scan_weight(name, wide_workload)
        grid = scan_grid(H, window)
        M, dM, counts = forward._propagate(H, H.ell, grid, columns=1)
        assert M.shape == (grid.size, 2, 1) and dM is None
        # the Sturm counts at the two ends of the grid
        assert counts.shape == (2,) and counts.dtype.kind == "i" and np.all(counts >= 0)
        scan = M[:, 1, 0]
        ref = forward.transfer_entries(H, H.ell, grid)
        tp, ref = ref[:, 0, 0], ref[:, 1, 0]
        size = np.max(np.abs(ref))
        assert np.max(np.abs(scan - ref)) <= 4.0 * roundoff_scale(H, window) * size
        clear = np.abs(ref) > 1e-9 * np.hypot(tp, ref)
        assert np.array_equal(np.sign(scan[clear]), np.sign(ref[clear]))

    @pytest.mark.parametrize(
        "z", [np.array([0.0, 1.0, 2.5, 3.0]), np.linspace(-5.0, 5.0, 11) + 0.5j]
    )
    def test_scan_needs_a_uniform_real_grid(self, step_hamiltonian, z):
        with pytest.raises(ValueError, match="uniform real grid"):
            forward._propagate(step_hamiltonian, step_hamiltonian.ell, z, columns=1)


class TestMpmathOracle:
    """Float propagation against 40-digit products of the segment exponentials."""

    # Calibration: the largest error is 0.51 roundoff_scale for transfer_entries
    # (the 1000-segment weight at |z| = 20: the product's roundoff) and 0.66
    # for the scan (the det-1e-20 weight at |z| = 20).  The bound is 2.
    @pytest.mark.parametrize("name", SCAN_WEIGHTS)
    def test_large_z(self, name, wide_workload):
        mpmath = pytest.importorskip("mpmath")
        H = scan_weight(name, wide_workload)
        windows = (20.0, 200.0, 1000.0)
        # |z| = window: both ends of the scan grid and a point at Im z = 1
        zs = [np.array([-w, w, complex(np.sqrt(w * w - 1.0), 1.0)]) for w in windows]
        refs = mp_transfer(mpmath, H, np.concatenate(zs))[0].reshape(len(windows), 3, 2, 2)
        for window, z, ref in zip(windows, zs, refs):
            size = np.max(np.abs(ref), axis=(1, 2))
            bound = 2.0 * roundoff_scale(H, window) * size
            got = forward.transfer_entries(H, H.ell, z)
            assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= bound)
            scan = forward._propagate(H, H.ell, scan_grid(H, window), columns=1)[0][:, 1, 0]
            assert np.all(np.abs(scan[[0, -1]] - ref[:2, 1, 0].real) <= bound[:2])

    # Calibration: the largest error is 0.51 roundoff_scale (the 1000-segment
    # weight at the Im z = 1 point of window 20; 0.27 at the small |z|).
    # The bound is 2.
    @pytest.mark.parametrize("name", SCAN_WEIGHTS)
    def test_derivative(self, name, wide_workload):
        mpmath = pytest.importorskip("mpmath")
        H = scan_weight(name, wide_workload)
        # small |z|, where delta is far below 1, and the points of test_large_z
        z = [1e-8, -1e-3, 3e-3]
        for w in (20.0, 200.0, 1000.0):
            z += [-w, w, complex(np.sqrt(w * w - 1.0), 1.0)]
        z = np.array(z)
        dref = mp_transfer(mpmath, H, z)[1][:, :, 0]
        _, _, dp, dm = forward.theta_and_derivative(H, H.ell, z)
        size = np.max(np.abs(dref), axis=1)
        bound = 2.0 * roundoff_scale(H, np.maximum(np.abs(z), 1.0)) * size
        assert np.all(np.max(np.abs(np.stack([dp, dm], axis=1) - dref), axis=1) <= bound)


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
        zeros, _, _ = forward.find_zeros(H, 5.5)
        np.testing.assert_allclose(zeros, np.arange(-5, 6), atol=1e-12)

    def test_free_unit_multiples_of_pi(self):
        H = Hamiltonian.identity(1.0)
        zeros, _, _ = forward.find_zeros(H, 7.0)
        np.testing.assert_allclose(zeros, np.pi * np.arange(-2, 3), atol=1e-12)

    def test_step_against_dense_scan(self, step_hamiltonian):
        H = step_hamiltonian
        zeros, _, _ = forward.find_zeros(H, 10.0)
        # independent oracle: brute-force sign-change scan at step 1e-3
        oracle = bisection_zeros(H, 10.0, step=1e-3, passes=50)
        assert zeros.size == oracle.size
        np.testing.assert_allclose(zeros, oracle, atol=1e-9)

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
        # a lone atom fits no type: the tail model has no spacing, whatever the weight
        mu = SpectralMeasure(np.array([0.0]), np.array([1.0]), 5.0, herglotz_c=0.0)
        with pytest.raises(NumericalError, match="beyond window 5 needs two atoms"):
            forward.herglotz_constants(H, mu)

    @pytest.mark.parametrize("window", [1e15, 1e308])
    def test_huge_window_raises_before_the_grid(self, monkeypatch, window):
        # 8e15 scan steps of 1/4 would not fit in memory: the cap comes first
        def linspace(*args, **kwargs):
            raise AssertionError("find_zeros made the scan grid")

        monkeypatch.setattr(np, "linspace", linspace)
        with pytest.raises(ValidationError, match=f"over the cap of {forward._SCAN_POINTS}"):
            forward.find_zeros(Hamiltonian.identity(np.pi), window)

    def test_scan_cap_boundary(self, monkeypatch):
        # window 5 takes 40 steps of 1/4, so 41 points, the cap; window 5.1 takes 42 points
        monkeypatch.setattr(forward, "_SCAN_POINTS", 41)
        H = Hamiltonian.identity(np.pi)
        assert forward.find_zeros(H, 5.0)[0].size == 11
        with pytest.raises(ValidationError, match="needs 42 scan points"):
            forward.find_zeros(H, 5.1)

    def test_zero_always_included(self, step_hamiltonian):
        zeros, _, _ = forward.find_zeros(step_hamiltonian, 3.0)
        assert 0.0 in zeros

    @pytest.mark.parametrize("window, n", [(20.1, 41), (200.1, 401)])
    def test_origin_between_grid_points(self, window, n):
        # an odd number of scan cells: the origin is inside a sign change, not
        # a grid point, and the scan finds it like any other zero
        H = Hamiltonian.identity(np.pi)
        assert 0.0 not in scan_grid(H, window)
        mu = forward.spectral_measure(H, window)
        assert mu.positions.size == n and np.count_nonzero(mu.positions == 0.0) == 1
        np.testing.assert_allclose(mu.positions, np.arange(n) - n // 2, rtol=0, atol=1e-12)
        assert np.array_equal(mu.masses, np.full(n, 1.0))

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
        # two points per zero (five before them).  The scan carries one column,
        # and its phase tables take at most 2 ceil(sqrt(n)) + 2 phases per segment
        # where cosines and sines would take 2 n.  It also counts the zeros, so
        # it is the only pass without the derivative
        H = smooth_weight(3, 200)
        joint_passes = {"calls": 0, "points": 0}
        evaluated = [0]
        scans = []  # (columns, points, exp/cos/sin evaluations) of each pass without derivative
        propagate, joint = forward._propagate, forward.theta_and_derivative

        class CountingNumpy:
            """numpy, counting the elements that exp, cos and sin evaluate."""

            def __getattr__(self, name):
                fn = getattr(np, name)
                if name not in ("exp", "cos", "sin"):
                    return fn

                def counted(x, *args, **kwargs):
                    evaluated[0] += np.size(x)
                    return fn(x, *args, **kwargs)

                return counted

        def plain_pass(H, r, z, derivative=False, columns=2):
            before = evaluated[0]
            out = propagate(H, r, z, derivative, columns)
            if not derivative:
                scans.append((columns, np.size(z), evaluated[0] - before))
            return out

        def count(*args):
            joint_passes["calls"] += 1
            joint_passes["points"] += np.size(args[2])
            return joint(*args)

        monkeypatch.setattr(forward, "np", CountingNumpy())
        monkeypatch.setattr(forward, "_propagate", plain_pass)
        monkeypatch.setattr(forward, "theta_and_derivative", count)
        zeros, _, _ = forward.find_zeros(H, 60.0)
        assert len(scans) == 1
        columns, n, phases = scans[0]
        assert columns == 1 and n == scan_grid(H, 60.0).size
        assert phases <= (2 * int(np.ceil(np.sqrt(n))) + 2) * H.nsegments
        assert joint_passes["calls"] <= 6
        assert joint_passes["points"] <= 2.5 * zeros.size

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
        # 12 scan points, fewer than the stencil: every seed interpolates through all of them
        zeros, _, _ = forward.find_zeros(Hamiltonian.identity(np.pi), 1.3)
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


def count_weight(name, workloads):
    """The weights of the zero-count tests; ``workloads`` is ``perfbench/workloads.py``."""
    I, rank_one = np.eye(2), np.diag([2.0, 0.0])
    if name == "wide":
        return workloads.smooth_weight(0, 0, workloads.WIDE_SEGMENTS)
    if name == "alternation":
        # twelve unit segments, I and diag(2, 0) in turn
        return Hamiltonian.from_lengths([1.0] * 12, [I, rank_one] * 6)
    if name.startswith("free-"):
        return Hamiltonian.identity(float(name[5:]))
    if name == "gap":
        # its largest zero gap at window 200 is 1.543 pi/type, and no zero is missed
        tilted = np.array([[0.55241224, 0.2873928], [0.2873928, 0.81546721]])
        H = Hamiltonian.from_lengths([0.75, 1, 1, 1], [I, np.diag([1, 1 / np.e]), tilted, I])
        return normalize_trace(H)[0]
    return scan_weight(name, workloads)


class TestZeroCount:
    """The Sturm count of the scan certifies ``find_zeros``."""

    # counts checked against a sign count at step pi/(64 type) and, on the
    # rank-one weights, at step 1e-3; the free weights' zeros are the multiples
    # of pi/ell
    @pytest.mark.parametrize(
        "name, window, count",
        [
            ("free", 200.0, 401),
            ("free-1", 200.0 * np.pi, 401),
            ("free-2.5", 300.0, 477),
            ("step", 200.0, 255),
            ("smooth-1000", 200.0, 400),
            ("wide", 400.0, 800),
            ("rank-one", 20.0, 25),
            ("alternation", 20.0, 83),
            ("gap", 200.0, 377),
        ],
    )
    def test_count(self, name, window, count, wide_workload):
        H = count_weight(name, wide_workload)
        low, high = forward._scan(H, scan_grid(H, window))[2:]
        # the atoms of free pi at +-200 and free 1 at +-200 pi sit on the window
        # edges, where theta_minus vanishes to roundoff: each edge may count or not
        edges = 2 if name in ("free", "free-1") else 0
        assert (low, high) == (count - edges, count)

    @pytest.mark.parametrize("k, raw", [(5, 9), (6, 13)])
    def test_window_edge_on_a_zero(self, step_hamiltonian, k, raw):
        # the step's zeros are the multiples of pi/2, so both edges of the window
        # k pi/2 are on a zero; their Sturm counts include them at k = 6 and not
        # at k = 5, and the sign of theta_plus there tells which
        H = step_hamiltonian
        window = float(forward.find_zeros(H, 10.0)[0][6 + k])
        assert window == pytest.approx(k * np.pi / 2, rel=1e-15)
        grid = scan_grid(H, window)
        counts = forward._propagate(H, H.ell, grid, columns=1)[2]
        assert np.sum(counts) + 1 == raw
        # just inside and just outside the edges the counts are exact
        below, above = (forward._scan(H, scan_grid(H, window + d))[2:] for d in (-1e-9, 1e-9))
        assert below == (2 * k - 1,) * 2 and above == (2 * k + 1,) * 2
        assert forward._scan(H, grid)[2:] == (2 * k - 1, 2 * k + 1)
        zeros = forward.find_zeros(H, window)[0]
        assert zeros.size == 2 * k + 1 and zeros[-1] == -zeros[0] == window

    @pytest.mark.parametrize("name, count, found", [("rank-one", 25, 5), ("alternation", 83, 39)])
    def test_missed_pairs_raise(self, name, count, found, wide_workload):
        H = count_weight(name, wide_workload)
        assert bisection_zeros(H, 20.0, step=1e-3, passes=50).size == count
        with pytest.raises(NumericalError, match=f"counts {count} zeros .* found {found}:"):
            forward.spectral_measure(H, 20.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wide_gaps_are_not_an_alarm(self, wide_workload):
        mu = forward.spectral_measure(count_weight("gap", wide_workload), 200.0)
        assert mu.positions.size == 377

    def test_relative_det_rule(self, monkeypatch, wide_workload):
        # |M(ell, 20)| is 2.1e9 and det M - 1 is -1.0, roundoff of eps |M|^2;
        # the CLI gate passes it, and still fails a determinant perturbed by 1e-6
        # of the product m11 m22 (1% of |M|^2 here)
        H, z = count_weight("alternation", wide_workload), np.array([-20.0, 7.3, 20.0])
        M = forward.transfer_entries(H, H.ell, z)
        assert np.max(np.abs(M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0] - 1.0)) > 0.5
        gate = cli._GATES["max_det_residual"]
        assert forward.det_residual(H, z) <= gate
        exact = forward.transfer_entries

        def perturbed(*args):
            M = exact(*args).copy()
            M[..., 0, 0] *= 1.0 + 1e-6
            return M

        monkeypatch.setattr(forward, "transfer_entries", perturbed)
        assert forward.det_residual(H, z) > gate


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
    m = np.where(rank_one, 0.0, np.exp(-log_ratio))
    H, _ = normalize_trace(Hamiltonian.from_lengths(lengths, rotated(angles, m)))
    return H


#: Bound on ``forward.det_residual``, ``|det M - 1| / (1 + |M|^2)``, on the
#: property weights.  Calibration: the largest of the 24 draws of
#: TestFindZerosProperties that return zeros is 6.3e-15 (12 segments at window
#: 5, |M| up to 952).  As ``|M|^2 <= 4 max|M_ij|^2``, it never allows more than 2.5e-14
#: beyond the former ``max(1e-10, 1e-13 max|M_ij|^2)``, and far less at small |M|.
DET_RESIDUAL_BOUND = 2.5e-14


class TestFindZerosProperties:
    """``find_zeros`` on random weights against a dense sign count and plain bisection."""

    # Rank-one segments put pairs of zeros closer than the scan step, and the
    # scan misses both zeros of such a pair (bisection_zeros at the scan step
    # misses them too); the Sturm count then raises instead.  The window puts
    # the origin on the scan grid or inside a sign change.
    @settings(max_examples=30)
    @given(random_weights(), st.floats(5.0, 30.0))
    def test_zeros_and_masses(self, H, window):
        assume(H.is_compatible())
        dense = bisection_zeros(H, window, step=1e-3, passes=50).size
        ref = bisection_zeros(H, window)
        try:
            zeros, tp, dm = forward.find_zeros(H, window)
        except NumericalError as exc:
            assert f"counts {dense} zeros" in str(exc) and dense > ref.size
            return
        assert zeros.size == dense == ref.size
        assert np.count_nonzero(zeros == 0.0) == 1
        assert np.all(np.abs(zeros - ref) <= 1e-13 * (1.0 + np.abs(ref)))
        masses = -np.pi / (tp * dm)
        ref_tp, _, _, ref_dm = forward.theta_and_derivative(H, H.ell, zeros)
        assert np.all(masses > 0)
        assert np.array_equal(masses, -np.pi / (ref_tp * ref_dm))
        probes = np.concatenate([zeros, [-window, window]])
        assert forward.det_residual(H, probes) <= DET_RESIDUAL_BOUND


class TestHerglotzProperty:
    """The Weyl function of random weights maps the upper half-plane into itself."""

    Z = (np.array([-50.0, -3.0, 0.0, 0.7, 40.0])[:, None] + 1j * np.array([1e-3, 0.5, 20.0])).ravel()

    @settings(max_examples=60)
    @given(random_weights())
    def test_weyl_function_and_hermite_biehler(self, H):
        # weyl_function raises InvariantViolation where Im m <= 0
        assert all(forward.weyl_function(H, z).m.imag > 0 for z in self.Z)
        # E = theta_plus + i theta_minus is Hermite-Biehler: |E(conj z)| < |E(z)|
        upper, lower = (forward.transfer_entries(H, H.ell, z) for z in (self.Z, self.Z.conj()))
        E = lambda M: np.abs(M[:, 0, 0] + 1j * M[:, 1, 0])
        assert np.all(E(lower) < E(upper))


class TestSpectralMeasure:
    # On one segment theta_plus = C and dtheta_minus = -d C h11 at each zero,
    # and C = cos(~k pi) rounds to +-1, so the free masses are pi / ell exactly.
    def test_free_pi_unit_masses(self):
        H = Hamiltonian.identity(np.pi)
        mu = forward.spectral_measure(H, 5.5)
        np.testing.assert_allclose(mu.positions, np.arange(-5, 6), atol=1e-12)
        assert np.array_equal(mu.masses, np.full(11, 1.0))

    def test_free_unit_masses_pi(self):
        H = Hamiltonian.identity(1.0)
        mu = forward.spectral_measure(H, 7.0)
        assert np.array_equal(mu.masses, np.full(5, np.pi))

    @pytest.mark.parametrize(
        "ell, window, n", [(np.pi, 200.0, 401), (1.0, 200.0 * np.pi, 401), (2.5, 300.0, 477)]
    )
    def test_free_masses_exact_at_wide_windows(self, ell, window, n):
        mu = forward.spectral_measure(Hamiltonian.identity(ell), window)
        assert np.array_equal(mu.masses, np.full(n, np.pi / ell))

    def test_step_masses_positive(self, step_measure):
        assert np.all(step_measure.masses > 0)
        assert step_measure.masses[step_measure.zero_index] > 0

    def test_incompatible_weight_rejected(self):
        H = Hamiltonian.from_segments(
            [(0.0, 1.0, 0.0, 0.0, 2.0), (1.0, 2.0, 1.0, 0.0, 1.0)]
        )
        with pytest.raises(ValidationError, match="rank-one"):
            forward.spectral_measure(H, 5.0)

    def test_rotated_incompatible_end_segment_rejected(self):
        # R(pi/2) diag(2, 0) R(pi/2)^T has h11 = 7.5e-33 and h12 = 1.2e-16, not
        # exact zeros; taken as compatible, it gives the 13 atoms of I on [0, 1] alone
        H = Hamiltonian.from_lengths([1.0, 0.5], [np.eye(2), rotated_rank_one(np.pi / 2)])
        assert H.matrices[1, 0, 0] != 0.0 and H.matrices[1, 0, 1] != 0.0
        assert not H.is_compatible()
        with pytest.raises(ValidationError, match="rank-one"):
            forward.spectral_measure(H, 20.0)


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

    def test_overflow_raises_instead_of_nan(self):
        # cos(z) overflows once type * Im z passes about 709
        with pytest.raises(NumericalError, match="not finite"), pytest.warns(RuntimeWarning):
            forward.weyl_function(Hamiltonian.identity(1.0), 1e4j)
        with pytest.raises(NumericalError, match="not finite"), pytest.warns(RuntimeWarning):
            forward.spectral_measure(Hamiltonian.identity(800.0), 1.0)


def tail_residual(H, mu):
    """``Im m(i) - window sum - tail`` from the relative residual ``r`` of ``herglotz_constants``.

    With ``beyond = Im m(i) - window sum = tail (1 + r)`` it is ``r beyond / (1 + r)``.
    """
    _, r = forward.herglotz_constants(H, mu)
    window_sum = np.sum(mu.masses / (1.0 + mu.positions**2)) / np.pi
    beyond = forward.weyl_function(H, 1j).m.imag - window_sum
    return r * beyond / (1.0 + r)


def found_weight():
    """The trace-normalized ``[I, diag(1, 1/e), I, I]`` (lengths 0.2, 1, 1, 1)."""
    eye = np.eye(2)
    H = Hamiltonian.from_lengths([0.2, 1, 1, 1], [eye, np.diag([1, 1 / np.e]), eye, eye])
    return normalize_trace(H)[0]


class TestHerglotzConstants:
    def test_free_unit_interval(self):
        H = Hamiltonian.identity(1.0)
        mu = forward.spectral_measure(H, 200.0 * np.pi)
        assert abs(tail_residual(H, mu)) < 1e-4
        assert abs(mu.herglotz_c) < 1e-8

    def test_free_pi_interval(self):
        H = Hamiltonian.identity(np.pi)
        mu = forward.spectral_measure(H, 200.0)
        assert abs(tail_residual(H, mu)) < 1e-4
        assert abs(mu.herglotz_c) < 1e-8

    def test_symmetric_weight_c_vanishes(self, step_hamiltonian, step_measure):
        assert abs(step_measure.herglotz_c) < 1e-10

    @pytest.mark.parametrize("ell, window", [(np.pi, 200.0), (1.0, 200.0 * np.pi)])
    def test_closed_form_tail_is_exact_on_free_weights(self, ell, window):
        H = Hamiltonian.identity(ell)
        assert abs(tail_residual(H, forward.spectral_measure(H, window))) <= 1e-14

    @pytest.mark.parametrize("window", [30.0, 60.0, 200.0])
    def test_parity_split_tail_on_alternating_masses(self, step_hamiltonian, window):
        # the step fixture's outer masses alternate; a plain band mean misses the tail
        mu = forward.spectral_measure(step_hamiltonian, window)
        assert abs(tail_residual(step_hamiltonian, mu)) <= 1e-12

    def test_one_weyl_evaluation(self, step_hamiltonian, monkeypatch):
        # c and the tail check share the single m(i) of the forward solve
        calls = []
        weyl = forward.weyl_function
        monkeypatch.setattr(forward, "weyl_function", lambda H, z: calls.append(z) or weyl(H, z))
        forward.spectral_measure(step_hamiltonian, 30.0)
        assert calls == [1j]

    def test_found_weight_at_window_200(self):
        # the tail model is off by -5.2% here, well inside the bound
        H = found_weight()
        mu = forward.spectral_measure(H, 200.0)
        assert abs(forward.herglotz_constants(H, mu)[1]) <= forward.TAIL_MODEL_TOL

    def test_tail_is_the_measures_tail_lattices(self):
        # the step split at 1.2 of 2: its fitted type is not its exact type, and
        # the tail is the lattice model at the fitted spacing that the inverse sums
        split = [(0.0, 1.2, 1.2, 0.0, 1 / 1.2), (1.2, 2.0, 1 / 1.2, 0.0, 1.2)]
        H = normalize_trace(Hamiltonian.from_segments(split))[0]
        mu = forward.spectral_measure(H, 200.0)
        assert mu.type != forward.exponential_type(H)
        step = 2.0 * np.pi / mu.type
        tail = sum(
            mass * scipy.special.psi((first + 1j) / step).imag / (step * np.pi)
            for _, first, mass in mu.tail_lattices
        )
        window_sum = np.sum(mu.masses / (1.0 + mu.positions**2)) / np.pi
        r = (forward.weyl_function(H, 1j).m.imag - window_sum - tail) / tail
        assert abs(forward.herglotz_constants(H, mu)[1] - r) <= 1e-12

    @pytest.mark.parametrize("weight, window", [("step", 1.0), ("found", 10.0), ("found", 20.0)])
    def test_too_small_window_raises(self, step_hamiltonian, weight, window):
        # a lone atom, which fits no type, and the found weight at -32.4% and +36.5%
        H = step_hamiltonian if weight == "step" else found_weight()
        with pytest.raises(NumericalError, match=rf"tail model beyond window {window:g} "):
            forward.spectral_measure(H, window)


@pytest.fixture(scope="module", params=["free", "step"])
def weight_and_measure(request, step_hamiltonian, step_measure):
    if request.param == "step":
        return step_hamiltonian, step_measure
    H = Hamiltonian.identity(np.pi)
    return H, forward.spectral_measure(H, 200.0)


def herglotz_tail_terms(H, mu):
    """``(z, mass, step)`` of each lattice sum ``mass Im psi(z) / (step pi)`` of the tail."""
    step = 2.0 * np.pi / mu.type
    return [((first + 1j) / step, mass, step) for _, first, mass in mu.tail_lattices]


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

    def test_tail_residual_against_scipy_reference(self, weight_and_measure):
        H, mu = weight_and_measure
        tail = sum(
            mass * scipy.special.psi(z).imag / (step * np.pi)
            for z, mass, step in herglotz_tail_terms(H, mu)
        )
        window_sum = float(np.sum(mu.masses / (1.0 + mu.positions**2)) / np.pi)
        residual_ref = float(forward.weyl_function(H, 1j).m.imag) - window_sum - tail
        assert abs(tail_residual(H, mu) - residual_ref) <= 1e-16


class TestBernoulliTable:
    """``forward._BERNOULLI``, the one exact table of the asymptotic series."""

    def test_exact_values(self):
        # reduced integer pairs, read here as fractions
        assert all(den > 0 and math.gcd(num, den) == 1 for num, den in forward._BERNOULLI)
        table = tuple(Fraction(*b) for b in forward._BERNOULLI)
        assert len(table) == 26
        assert table[:7] == (
            1, Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
            Fraction(5, 66), Fraction(-691, 2730),
        )
        assert table[13] == Fraction(8553103, 6)
        assert table[25] == Fraction(495057205241079648212477525, 66)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for k, b in enumerate(forward._BERNOULLI):
            assert Fraction(*b) == Fraction(*(int(v) for v in mp.bernfrac(2 * k)))

    def test_digamma_series_keeps_its_bits(self):
        # the literal terms before the table: herglotz_c and the zeros stay bitwise
        literal = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
        assert forward._PSI_SERIES == literal


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

    def test_rotated_rank_one_weight_has_type_zero(self):
        # the roundoff determinants (5.6e-17, -1.1e-16) must add no type: as a
        # type of 7.5e-9 they set a scan step of 1.05e8, which finds only the origin
        H = Hamiltonian.from_lengths([1.0] * 4, [rotated_rank_one(a) for a in (0.3, 1.2, 2.0, 0.7)])
        assert forward.exponential_type(H) == 0.0
        with pytest.raises(ValidationError, match="type 0"):
            forward.find_zeros(H, 5.0)
        with pytest.raises(ValidationError, match="type 0"):
            forward.spectral_measure(H, 5.0)
        with pytest.raises(ValidationError, match="type 0"):
            forward.type_inverse(H, 0.0)

    def test_type_inverse_at_the_total_type(self):
        # a trailing rank-one run adds no type: the chain ends where the type does
        H = Hamiltonian.from_lengths([1.0, 0.5], [np.eye(2), np.diag([2.0, 0.0])])
        assert forward.type_inverse(H, forward.exponential_type(H)) == 1.0
        # a leading run maps the origin to its right end
        H = Hamiltonian.from_lengths([0.5, 1.0], [np.diag([2.0, 0.0]), np.eye(2)])
        assert forward.type_inverse(H, 0.0) == 0.5


@st.composite
def rank_one_weights(draw):
    """1-20 segments ``c R(a) diag(1, 0) R(a)^T`` of random length, angle ``a`` and scale ``c``."""
    segment = st.tuples(st.floats(0.05, 2.0), st.floats(0.0, np.pi), st.floats(0.1, 10.0))
    lengths, angles, scales = map(np.array, zip(*draw(st.lists(segment, min_size=1, max_size=20))))
    return Hamiltonian.from_lengths(lengths, scales[:, None, None] * rotated(angles, 0.0))


@st.composite
def mixed_weights(draw):
    """Segments ``c R(a) diag(1, m) R(a)^T``, rank one (``m = 0``) or of ratio ``1/m <= e^2``.

    Runs of 0-4 rank-one segments lead and trail 1-16 segments of either
    kind; at least one segment has full rank.
    """
    segment = st.tuples(
        st.floats(0.05, 2.0),  # length
        st.floats(0.0, np.pi),  # rotation
        st.floats(0.1, 10.0),  # scale
        st.floats(0.0, 2.0),  # log of the eigenvalue ratio
        st.booleans(),  # rank one
    )
    lead = draw(st.lists(segment, max_size=4))
    middle = draw(st.lists(segment, min_size=1, max_size=16))
    trail = draw(st.lists(segment, max_size=4))
    rows = [(*seg[:4], True) for seg in lead] + middle + [(*seg[:4], True) for seg in trail]
    assume(not all(seg[4] for seg in rows))
    lengths, angles, scales, log_ratio, rank_one = map(np.array, zip(*rows))
    m = np.where(rank_one, 0.0, np.exp(-log_ratio))
    return Hamiltonian.from_lengths(lengths, scales[:, None, None] * rotated(angles, m))


class TestRankOneProperties:
    """The rank-one rule of ``Hamiltonian.determinants`` as read by the type functions."""

    @settings(max_examples=30)
    @given(rank_one_weights())
    def test_rank_one_weights_have_type_zero(self, H):
        assert forward.exponential_type(H) == 0.0
        with pytest.raises(ValidationError):
            forward.spectral_measure(H, 5.0)

    @settings(max_examples=30)
    @given(mixed_weights())
    def test_type_inverse_round_trip(self, H):
        total = forward.exponential_type(H)
        assert total > 0.0
        for s in np.linspace(0.0, total, 41):
            r = forward.type_inverse(H, s)
            assert abs(forward.exponential_type(H, r) - s) <= 1e-12 * (1.0 + s)


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
