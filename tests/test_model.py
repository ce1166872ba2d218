import importlib
import pkgutil

import numpy as np
import pytest

import canspec
from canspec import forward, oracles
from canspec.model import (
    GridConfig,
    Hamiltonian,
    SpectralMeasure,
    ValidationError,
    dumps_hamiltonian,
    dumps_measure,
    loads_hamiltonian,
    loads_measure,
    normalize_trace,
)


class TestHamiltonianValidation:
    def test_identity_constructor(self):
        H = Hamiltonian.identity(np.pi)
        assert H.ell == np.pi
        assert H.nsegments == 1
        assert np.array_equal(H.matrices[0], np.eye(2))

    def test_psd_violation_reports_segment(self):
        with pytest.raises(ValidationError, match="segment 0"):
            Hamiltonian.from_segments([(0.0, 1.0, 1.0, 1.1, 1.0)])

    def test_tiling_gap_rejected(self):
        with pytest.raises(ValidationError, match="tiling"):
            Hamiltonian.from_segments(
                [(0.0, 1.0, 1.0, 0.0, 1.0), (1.5, 2.0, 1.0, 0.0, 1.0)]
            )

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="diagonal"):
            Hamiltonian.from_segments([(0.0, 1.0, -0.1, 0.0, 1.0)])

    def test_zero_trace_rejected(self):
        with pytest.raises(ValidationError, match="trace"):
            Hamiltonian.from_segments([(0.0, 1.0, 0.0, 0.0, 0.0)])

    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            Hamiltonian.from_segments([(0.5, 1.0, 1.0, 0.0, 1.0)])

    def test_rank_one_segment_allowed(self):
        H = Hamiltonian.from_segments([(0.0, 1.0, 1.0, 1.0, 1.0)])
        assert H.determinants()[0] == 0.0

    def test_compatibility_flag(self):
        H = Hamiltonian.from_segments(
            [(0.0, 1.0, 0.0, 0.0, 2.0), (1.0, 2.0, 1.0, 0.0, 1.0)]
        )
        assert not H.is_compatible()
        assert oracles.step_fixture().is_compatible()

    def test_rank_one_rule(self):
        # 2 R(0.3) diag(1, 0) R(0.3)^T has determinant 5.6e-17 in floating point;
        # rank one is det <= PSD_SLACK (tr/2)^2, so 1e-13 is and 1e-11 is not
        c, s = np.cos(0.3), np.sin(0.3)
        rotated = 2.0 * np.array([[c * c, c * s], [c * s, s * s]])
        mats = [rotated, np.eye(2), np.diag([1.0, 1e-13]), np.diag([1.0, 1e-11])]
        H = Hamiltonian.from_lengths([1.0] * 4, mats)
        assert np.array_equal(H.determinants(), [0.0, 1.0, 0.0, 1e-11])

    def test_compatibility_reads_the_rank_one_rule(self):
        # R(pi/2) diag(2, 0) R(pi/2)^T: h11 = 7.5e-33 and h12 = 1.2e-16, not exact zeros
        c = np.cos(np.pi / 2)
        end = 2.0 * np.array([[c * c, c], [c, 1.0]])
        assert end[0, 0] != 0.0 and end[0, 1] != 0.0
        assert not Hamiltonian.from_lengths([1.0, 0.5], [np.eye(2), end]).is_compatible()
        assert not Hamiltonian.from_lengths([0.5, 1.0], [end, np.eye(2)]).is_compatible()
        # rank one but not proportional to diag(0, 1): compatible
        tilted = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert Hamiltonian.from_lengths([1.0, 0.5], [np.eye(2), tilted]).is_compatible()


class TestJsonRoundTrip:
    def test_identity_json(self):
        text = (
            '{"ell": 3.1415926535897931, "segments": [{"r0": 0, "r1": '
            '3.1415926535897931, "h": [[1, 0], [0, 1]]}]}'
        )
        H = loads_hamiltonian(text)
        assert H.ell == np.pi
        assert np.array_equal(H.matrices[0], np.eye(2))

    def test_serialize_load_bit_exact(self):
        H = oracles.step_fixture(1.2)
        text = dumps_hamiltonian(H)
        H2 = loads_hamiltonian(text)
        assert np.array_equal(H.edges, H2.edges)
        assert np.array_equal(H.matrices, H2.matrices)
        assert dumps_hamiltonian(H2) == text

    def test_section5_generator_shape(self):
        H = oracles.section5_hamiltonian(0.1, 20)
        assert H.nsegments == 20
        np.testing.assert_allclose(H.lengths, [3.0**-j for j in range(1, 21)])
        assert np.array_equal(H.matrices[0], np.eye(2))
        assert np.array_equal(H.matrices[1], np.diag([0.1, 10.0]))
        text = dumps_hamiltonian(H)
        H2 = loads_hamiltonian(text)
        assert np.array_equal(H.matrices, H2.matrices)

    def test_mismatched_ell_rejected(self):
        text = '{"ell": 2.0, "segments": [{"r0": 0, "r1": 1.0, "h": [[1, 0], [0, 1]]}]}'
        with pytest.raises(ValidationError, match="ell"):
            loads_hamiltonian(text)

    def test_parse_error(self):
        with pytest.raises(ValidationError, match="parse"):
            loads_hamiltonian("{not json")

    def test_measure_round_trip(self):
        mu = SpectralMeasure(
            np.array([-2.5, 0.0, 1.25]),
            np.array([0.5, 1.0, 2.0]),
            10.0,
            herglotz_b=0.0,
            herglotz_c=0.125,
        )
        text = dumps_measure(mu)
        mu2 = loads_measure(text)
        assert np.array_equal(mu.positions, mu2.positions)
        assert np.array_equal(mu.masses, mu2.masses)
        assert mu2.herglotz_c == 0.125
        assert dumps_measure(mu2) == text


class TestSpectralMeasureInvariants:
    def test_zero_atom_required(self):
        with pytest.raises(ValidationError, match="origin"):
            SpectralMeasure(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 5.0)

    def test_two_zero_atoms_rejected(self):
        with pytest.raises(ValidationError, match="origin"):
            SpectralMeasure(
                np.array([-1e-14, 1e-14]), np.array([1.0, 1.0]), 5.0
            )

    def test_positive_mass_required(self):
        with pytest.raises(ValidationError, match="positive"):
            SpectralMeasure(np.array([0.0, 1.0]), np.array([1.0, -1.0]), 5.0)

    def test_sorted_positions_required(self):
        with pytest.raises(ValidationError, match="increasing"):
            SpectralMeasure(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 5.0)

    def test_type_is_pi_on_free_measures(self, free_pi):
        # bitwise: the free round trip's arithmetic starts from this number
        _, mu, _ = free_pi
        assert mu.type == np.pi
        assert forward.spectral_measure(Hamiltonian.identity(np.pi), 200.0).type == np.pi

    def test_tail_lattices_anchor_at_outermost_atoms(self):
        mu = SpectralMeasure(np.array([-3.0, -1.0, 0.0, 2.0]), np.ones(4), 5.0)
        lattices = mu.tail_lattices(0.5)
        assert [(side, first) for side, first, _ in lattices] == [
            (1.0, 2.5), (1.0, 3.0), (-1.0, 3.5), (-1.0, 4.0)
        ]


def _reference_completion_lattice(mu):
    """The completion lattice by its defining formula, kept here as the reference."""
    lam = mu.type
    reach = float(np.max(np.abs(mu.positions)))
    kmax = int(np.floor((reach + 0.5 * np.pi / lam) * lam / np.pi))
    points = np.pi * np.arange(-kmax, kmax + 1) / lam
    return points, np.full(points.size, -np.pi / lam)


class TestCompletionLattice:
    @pytest.fixture(
        params=["free", "step", "short-atoms", "asymmetric"], scope="class"
    )
    def measure(self, request, free_pi, step_measure):
        if request.param == "free":
            return free_pi[1]
        if request.param == "step":
            return step_measure
        if request.param == "short-atoms":
            # unit atoms on -40..40 that stop short of the window 60
            k = np.arange(-40, 41).astype(float)
            return SpectralMeasure(k, np.ones(k.size), 60.0)
        return SpectralMeasure(
            np.array([-2.9, -1.7, -0.4, 0.0, 1.1, 2.3, 3.6, 5.2]),
            np.array([0.4, 0.9, 1.3, 2.0, 0.7, 1.1, 0.5, 0.8]),
            6.0,
        )

    def test_matches_the_formula(self, measure):
        points, weights = measure.completion_lattice
        want_points, want_weights = _reference_completion_lattice(measure)
        assert np.array_equal(points, want_points)
        assert np.array_equal(weights, want_weights)

    def test_read_only_and_built_once(self, measure):
        lattice = measure.completion_lattice
        assert measure.completion_lattice is lattice
        for array in lattice:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_lone_atom_has_none(self):
        mu = SpectralMeasure(np.array([0.0]), np.array([2.0]), 10.0)
        points, weights = mu.completion_lattice
        assert points.size == 0 and weights.size == 0
        assert not points.flags.writeable and not weights.flags.writeable
        assert mu.completion_lattice is mu.completion_lattice


class TestNormalizeTrace:
    def test_identity_unchanged(self):
        H = Hamiltonian.identity(np.pi)
        Ht, tc = normalize_trace(H)
        assert Ht.ell == pytest.approx(np.pi, abs=1e-15)
        assert np.allclose(Ht.matrices, np.eye(2))
        assert np.allclose(tc[:, 0], tc[:, 1])

    def test_single_segment_closed_form(self):
        H = Hamiltonian.from_segments([(0.0, 1.0, 0.1, 0.0, 10.0)])
        Ht, tc = normalize_trace(H)
        assert Ht.ell == pytest.approx(5.05)
        np.testing.assert_allclose(
            Ht.matrices[0], np.diag([2 * 0.1 / 10.1, 2 * 10 / 10.1]), rtol=1e-15
        )
        # linear time change r -> 5.05 r
        assert tc[-1, 1] == pytest.approx(5.05 * tc[-1, 0])

    def test_two_segment_closed_form(self):
        H = Hamiltonian.from_segments(
            [(0.0, 1.0, 3.0, 0.0, 1.0), (1.0, 2.0, 1.0, 0.0, 3.0)]
        )
        Ht, tc = normalize_trace(H)
        assert Ht.ell == pytest.approx(4.0)
        np.testing.assert_allclose(Ht.matrices[0], np.diag([1.5, 0.5]))
        np.testing.assert_allclose(Ht.matrices[1], np.diag([0.5, 1.5]))
        np.testing.assert_allclose(tc[:, 1], 2 * tc[:, 0])

    def test_idempotent(self, step_hamiltonian):
        Ht, _ = normalize_trace(step_hamiltonian)
        Ht2, _ = normalize_trace(Ht)
        assert np.allclose(Ht.edges, Ht2.edges)
        assert np.allclose(Ht.matrices, Ht2.matrices)

    def test_preserves_exponential_type(self):
        H = Hamiltonian.from_segments(
            [(0.0, 0.7, 4.0, 0.5, 1.0), (0.7, 2.0, 1.0, -0.25, 2.0)]
        )
        Ht, _ = normalize_trace(H)
        assert forward.exponential_type(Ht) == pytest.approx(
            forward.exponential_type(H), rel=1e-14
        )


class TestGridConfig:
    def test_small_truncation_rejected(self):
        with pytest.raises(ValidationError):
            GridConfig.for_bandwidth(np.pi, pw_truncation=4)

    def test_s_grid_must_increase(self):
        # a negative bandwidth gives a decreasing grid of negative points
        with pytest.raises(ValidationError):
            GridConfig.for_bandwidth(-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_s_grid_must_be_finite(self, bad):
        # the grid is derived from the bandwidth, which must be positive and finite
        with pytest.raises(ValidationError, match="finite"):
            GridConfig(bad, 129, 256, 200.0, 257)

    def test_two_s_samples_rejected(self):
        with pytest.raises(ValidationError, match="s_samples"):
            GridConfig.for_bandwidth(np.pi, s_samples=2)

    @pytest.mark.parametrize("a,n", [(np.pi, 129), (2.0, 65), (0.7, 3)])
    def test_s_grid_is_the_uniform_grid(self, a, n):
        cfg = GridConfig.for_bandwidth(a, s_samples=n)
        want = np.linspace(0.0, a, n)[1:]
        assert cfg.s_grid.tobytes() == want.tobytes()
        assert cfg.s_grid[-1] == cfg.bandwidth == a
        assert cfg.s_grid is cfg.s_grid
        with pytest.raises(ValueError):
            cfg.s_grid[0] = 1.0

    def test_basis_half_size_clamps_to_window(self):
        cfg = GridConfig.for_bandwidth(np.pi, measure_window=200.0, pw_truncation=256)
        assert cfg.basis_half_size(np.pi) == 190
        assert cfg.basis_half_size(np.pi / 128) >= 1
        cfg2 = GridConfig.for_bandwidth(np.pi, measure_window=2000.0, pw_truncation=256)
        assert cfg2.basis_half_size(np.pi) == 256

    def test_bandwidth_property(self):
        cfg = GridConfig.for_bandwidth(2.0, s_samples=65)
        assert cfg.bandwidth == pytest.approx(2.0)
        assert cfg.s_grid.size == 64


@pytest.mark.parametrize(
    "name", ["canspec"] + [f"canspec.{m.name}" for m in pkgutil.iter_modules(canspec.__path__)]
)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
