"""Phase-space core: construction, algebra, overlaps, decomposition."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (
    DoubleHomodyneSetting,
    GaussianOperator,
    HomodyneSetting,
    SqueezedThermalDecomposition,
    TeleportConfig,
    UnphysicalStateError,
    coherent,
    condition_fock,
    condition_homodyne,
    decompose_single_mode,
    displace,
    is_physical,
    overlap,
    photon_number,
    remote_prep,
    rotate,
    squeeze,
    squeezing_from_photon_number,
    symplectic_eigenvalues,
    thermal,
    transpose_wigner,
    twb,
    twb_fock,
    vacuum,
    wigner_eval,
)
from twinbeam import gaussian
from twinbeam.gaussian import add_points, require_physical

# r for a twin beam with N = 1 photon per arm (lam = 1/sqrt(3))
R_N1 = 0.6584789484624085


class TestGaussianOperator:
    def test_vacuum(self):
        v = vacuum(2)
        assert v.n_modes == 2
        np.testing.assert_allclose(v.cov, 0.25 * np.eye(4))
        np.testing.assert_allclose(v.mean, 0.0)
        assert v.weight == 1.0

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ([0.0], 0.25 * np.eye(1)),  # odd length
            ([0.0, 0.0], 0.25 * np.eye(4)),  # shape mismatch
            ([0.0, 0.0], [[0.25, 0.1], [0.0, 0.25]]),  # asymmetric
            ([0.0, 0.0], [[0.25, 0.0], [0.0, -0.25]]),  # not positive definite
            ([0.0, np.nan], 0.25 * np.eye(2)),  # non-finite
        ],
    )
    def test_rejects_bad_arrays(self, mean, cov):
        with pytest.raises(ValueError):
            GaussianOperator(mean=np.array(mean, dtype=float), cov=np.array(cov, dtype=float))

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf])
    def test_rejects_bad_weight(self, weight):
        with pytest.raises(ValueError):
            GaussianOperator(mean=np.zeros(2), cov=0.25 * np.eye(2), weight=weight)

    def test_arrays_immutable(self):
        v = vacuum(1)
        with pytest.raises(ValueError):
            v.mean[0] = 1.0
        with pytest.raises(ValueError):
            v.cov[0, 0] = 1.0

    def test_family_of_means(self):
        family = GaussianOperator(mean=np.zeros((3, 5, 4)), cov=0.25 * np.eye(4))
        assert family.n_modes == 2
        assert family.mean.shape == (3, 5, 4)
        with pytest.raises(ValueError):
            GaussianOperator(mean=np.zeros((3, 4)), cov=0.25 * np.eye(3))
        with pytest.raises(ValueError):
            GaussianOperator(mean=np.zeros(()), cov=0.25 * np.eye(2))


    def test_with_mean_shares_covariance_and_weight(self):
        state = GaussianOperator(mean=np.zeros(4), cov=twb(0.6).cov, weight=0.5)
        require_physical(state)
        mean = np.ones((3, 4))
        family = state.with_mean(mean)
        assert family.mean is mean and family.cov is state.cov and family.weight == 0.5
        assert family.min_symplectic_eigenvalue == state.min_symplectic_eigenvalue
        with pytest.raises(ValueError):
            family.mean[0, 0] = 2.0  # taken over read-only
        for bad in (np.array([0.0, np.inf, 0.0, 0.0]), np.zeros(2), np.zeros(())):
            with pytest.raises(ValueError, match="mean must"):
                state.with_mean(bad)


class TestConstructors:
    def test_coherent_mean_and_cov(self):
        z = 0.7 - 1.2j
        c = coherent(z)
        np.testing.assert_allclose(c.mean, [0.7, -1.2])
        np.testing.assert_allclose(c.cov, 0.25 * np.eye(2))

    def test_thermal_cov(self):
        t = thermal(1.5)
        np.testing.assert_allclose(t.cov, np.eye(2))
        with pytest.raises(ValueError):
            thermal(-0.1)

    def test_twb_cov_entries(self):
        # cosh(2r)/4 = 1/2 and sinh(2r)/4 = sqrt(3)/4 at N = 1
        s = twb(R_N1)
        np.testing.assert_allclose(s.cov[0, 0], 0.5, atol=1e-15)
        np.testing.assert_allclose(s.cov[0, 2], 0.4330127018922193, atol=1e-15)
        np.testing.assert_allclose(s.cov[1, 3], -0.4330127018922193, atol=1e-15)
        assert s.cov[0, 1] == 0.0 and s.cov[0, 3] == 0.0
        with pytest.raises(ValueError):
            twb(-0.5)

    @pytest.mark.parametrize("r", [0.0, 0.3, R_N1, 2.0])
    def test_twb_rotated_quadratures(self, r):
        s = twb(r)
        plus_x = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        minus_x = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        plus_y = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2.0)
        minus_y = np.array([0.0, 1.0, 0.0, -1.0]) / math.sqrt(2.0)
        # the squeezed combinations suffer cosh - sinh cancellation, so
        # their relative error grows like e^{4r} ulp
        np.testing.assert_allclose(plus_x @ s.cov @ plus_x, math.exp(2 * r) / 4, rtol=1e-14)
        np.testing.assert_allclose(minus_x @ s.cov @ minus_x, math.exp(-2 * r) / 4, rtol=1e-12)
        np.testing.assert_allclose(minus_y @ s.cov @ minus_y, math.exp(2 * r) / 4, rtol=1e-14)
        np.testing.assert_allclose(plus_y @ s.cov @ plus_y, math.exp(-2 * r) / 4, rtol=1e-12)

    def test_twb_sigma_pm_frozen(self):
        s = twb(R_N1)
        plus = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        minus = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(plus @ s.cov @ plus, 0.9330127018922193, atol=1e-15)
        np.testing.assert_allclose(minus @ s.cov @ minus, 0.0669872981077807, atol=1e-15)

    @pytest.mark.parametrize("n", [0.0, 0.1, 1.0, 5.0, 20.0])
    def test_photon_number_round_trip(self, n):
        r = squeezing_from_photon_number(n)
        np.testing.assert_allclose(photon_number(r), n, rtol=1e-13, atol=1e-15)
        # N counts both arms, so one arm is thermal with occupation N/2
        arm_cov = twb(r).cov[:2, :2]
        np.testing.assert_allclose(arm_cov, thermal(n / 2).cov, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("r", [math.nan, math.inf, 400.0])
    def test_twb_rejects_non_finite_or_overflowing_r(self, r):
        with pytest.raises(ValueError):
            twb(r)

    def test_photon_number_rejects_negative(self):
        with pytest.raises(ValueError):
            squeezing_from_photon_number(-1.0)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_photon_number_rejects_non_finite(self, n):
        with pytest.raises(ValueError):
            squeezing_from_photon_number(n)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: photon_number(math.nan), "r"),
            (lambda: photon_number(-1.0), "r"),
            (lambda: squeeze(vacuum(1), 0, 800.0), "r"),
            (lambda: squeeze(vacuum(1), 0, 400.0), "r"),  # exp(r) is finite, the covariance is not
            (lambda: squeeze(vacuum(1), 0, math.inf), "r"),
            (lambda: squeeze(vacuum(1), 0, math.nan), "r"),
            (lambda: thermal(1e308), "n_th"),
            (lambda: displace(coherent(1e308), 0, 1e308), "alpha"),
            (lambda: squeeze(vacuum(1), 0, 0.5, math.nan), "phase"),
            (lambda: squeeze(vacuum(1), 0, 0.5, -math.inf), "phase"),
            (lambda: rotate(vacuum(1), 0, math.nan), "phi"),
            (lambda: rotate(vacuum(2), 1, math.inf), "phi"),
            (lambda: vacuum(1.5), "n_modes"),
            (lambda: vacuum(True), "n_modes"),
        ],
        ids=[
            "photon-number-nan",
            "photon-number-negative",
            "squeeze",
            "squeeze-400",
            "squeeze-inf",
            "squeeze-nan",
            "thermal",
            "displace",
            "squeeze-phase-nan",
            "squeeze-phase-inf",
            "rotate-nan",
            "rotate-inf",
            "vacuum-float",
            "vacuum-bool",
        ],
    )
    def test_scalar_constructors_name_a_bad_parameter(self, build, name):
        # a NaN result, an OverflowError or a RuntimeWarning is a failure here
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=rf"\b{name}\b"):
                build()


class TestWigner:
    def test_vacuum_origin(self):
        assert wigner_eval(vacuum(1), [0.0, 0.0]) == pytest.approx(
            2.0 / math.pi, abs=1e-15
        )

    def test_coherent_peak_and_tail(self):
        z = 1.0 + 0.0j
        c = coherent(z)
        assert wigner_eval(c, [1.0, 0.0]) == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert wigner_eval(c, [0.0, 0.0]) == pytest.approx(0.08615711720739454, abs=1e-15)

    @pytest.mark.parametrize(
        "state",
        [vacuum(1), coherent(0.8 - 0.5j), thermal(0.7), squeeze(vacuum(1), 0, 0.6, 0.9)],
    )
    def test_normalization_on_grid(self, state):
        xs = np.linspace(-7.0, 7.0, 401)
        grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
        vals = wigner_eval(state, np.stack([grid_x, grid_y], axis=-1))
        integral = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_point_shape_validation(self):
        with pytest.raises(ValueError):
            wigner_eval(vacuum(1), [0.0, 0.0, 0.0])

    def test_far_point_has_zero_density(self):
        # the squared distance overflows: 0.0, no RuntimeWarning
        assert wigner_eval(vacuum(1), (1e200, 0.0)) == 0.0


class TestOverlap:
    @pytest.mark.parametrize(
        "state",
        [vacuum(1), coherent(1.3 + 0.4j), twb(0.9), squeeze(vacuum(1), 0, 0.8, 0.3)],
    )
    def test_pure_state_purity(self, state):
        assert overlap(state, state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_th", [0.0, 0.5, 1.0, 3.0])
    def test_thermal_purity(self, n_th):
        assert overlap(thermal(n_th), thermal(n_th)) == pytest.approx(
            1.0 / (2.0 * n_th + 1.0), rel=1e-13
        )

    @pytest.mark.parametrize("z", [0.3, 1.0 + 1.0j, -2.0 + 0.5j])
    def test_coherent_overlap(self, z):
        assert overlap(coherent(0.0), coherent(z)) == pytest.approx(
            math.exp(-abs(z) ** 2), rel=1e-13
        )

    def test_symmetry_and_mode_check(self):
        a, b = thermal(0.4), squeeze(vacuum(1), 0, 0.5, 1.1)
        assert overlap(a, b) == pytest.approx(overlap(b, a), rel=1e-14)
        with pytest.raises(ValueError):
            overlap(vacuum(1), vacuum(2))

    def test_weight_scales_overlap(self):
        v = vacuum(1)
        scaled = GaussianOperator(mean=v.mean, cov=v.cov, weight=3.0)
        assert overlap(scaled, v) == pytest.approx(3.0, rel=1e-14)

    def test_far_apart_states_have_zero_overlap(self):
        # the squared distance overflows: 0.0, no RuntimeWarning
        assert overlap(coherent(1e160), coherent(0)) == 0.0


class TestNormalDensity:
    # inv(cov) = [[4, -3], [-3, 4]]: at (1e308, 1e308) both terms of
    # delta @ inv overflow, with opposite signs, so the form sums to NaN
    COV = np.array([[4.0, 3.0], [3.0, 4.0]]) / 7.0

    def test_overflowing_form_gives_zero(self):
        assert gaussian.normal_density(np.array([1e308, 1e308]), self.COV) == 0.0
        assert gaussian.normal_density(np.array([1e200, 0.0]), self.COV) == 0.0

    def test_overflowing_family_members_give_zero(self):
        delta = np.array([[1e308, 1e308], [0.0, 0.0], [-1e200, 3.0]])
        dens = gaussian.normal_density(delta, self.COV)
        assert dens[0] == dens[2] == 0.0
        assert dens[1] == pytest.approx(1.0 / (2.0 * math.pi * math.sqrt(1.0 / 7.0)), rel=1e-14)


class TestRequireEfficiency:
    @pytest.mark.parametrize(
        "value", [1.0, 1e-300, np.float64(0.5), np.array([0.2, 1.0]), np.array([[0.7]])]
    )
    def test_accepts_the_unit_interval(self, value):
        gaussian.require_efficiency(value, "eta")

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.1, 1.0 + 1e-12, math.nan, math.inf, np.array([0.5, math.nan]), np.array([[1.0], [0.0]])],
    )
    def test_rejects_outside_the_unit_interval_and_nan(self, value):
        with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\]$"):
            gaussian.require_efficiency(value, "eta")

    @pytest.mark.parametrize("value", [0.0, 1.5, math.nan])
    @pytest.mark.parametrize(
        "site, name",
        [
            (lambda v: HomodyneSetting(efficiency=v), "efficiency"),
            (lambda v: DoubleHomodyneSetting(coherent(0.0), v), "efficiency"),
            (lambda v: TeleportConfig(0.5, eta=v), "eta"),
            (lambda v: remote_prep(0.5, v, 0.1), "eta"),
            (lambda v: condition_fock(twb_fock(0.3, 10), 0.1, v), "eta"),
        ],
    )
    def test_every_site_keeps_its_message(self, site, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\]$"):
            site(value)

    def test_settings_take_one_efficiency(self):
        for build in (HomodyneSetting, lambda efficiency: DoubleHomodyneSetting(coherent(0.0), efficiency)):
            with pytest.raises(ValueError, match="efficiency must be one number"):
                build(efficiency=np.array([0.5, 0.9]))


class TestModeOps:
    def test_displace_moves_mean_only(self):
        s = twb(0.5)
        moved = displace(s, 1, 1.0 - 2.0j)
        np.testing.assert_array_equal(moved.cov, s.cov)
        np.testing.assert_allclose(moved.mean, [0.0, 0.0, 1.0, -2.0])
        with pytest.raises(ValueError):
            displace(s, 2, 1.0)

    def test_squeeze_vacuum(self):
        s = squeeze(vacuum(1), 0, 0.7)
        np.testing.assert_allclose(
            np.diag(s.cov), [math.exp(-1.4) / 4, math.exp(1.4) / 4], rtol=1e-14
        )

    @pytest.mark.parametrize("phase", [0.0, 0.4, math.pi / 2, 2.0])
    def test_squeeze_phase_is_rotation(self, phase):
        direct = squeeze(vacuum(1), 0, 0.6, phase)
        rotated = rotate(squeeze(vacuum(1), 0, 0.6), 0, phase)
        np.testing.assert_allclose(direct.cov, rotated.cov, atol=1e-15)

    def test_rotate_quarter_turn_swaps_quadratures(self):
        s = squeeze(vacuum(1), 0, 0.5)
        q = rotate(s, 0, math.pi / 2)
        np.testing.assert_allclose(q.cov[0, 0], s.cov[1, 1], rtol=1e-14)
        np.testing.assert_allclose(q.cov[1, 1], s.cov[0, 0], rtol=1e-14)

    def test_transpose_wigner_flips_y(self):
        s = displace(squeeze(vacuum(1), 0, 0.5, 0.3), 0, 1.0 + 2.0j)
        t = transpose_wigner(s)
        np.testing.assert_allclose(t.mean, [1.0, -2.0])
        np.testing.assert_allclose(t.cov[0, 0], s.cov[0, 0])
        np.testing.assert_allclose(t.cov[1, 1], s.cov[1, 1])
        np.testing.assert_allclose(t.cov[0, 1], -s.cov[0, 1])
        # involution
        np.testing.assert_array_equal(transpose_wigner(t).cov, s.cov)
        # the hand formula transpose_wigner replaced, on one and two modes and a family
        for op in (s, displace(squeeze(twb(0.7), 1, 0.4, 1.1), 1, np.array([1.0 - 2.0j, 0.5j]))):
            flip = np.tile([1.0, -1.0], op.n_modes)
            np.testing.assert_array_equal(transpose_wigner(op).mean, flip * op.mean)
            np.testing.assert_array_equal(transpose_wigner(op).cov, op.cov * np.outer(flip, flip))


def _random_map(data, kind: str):
    """A random two-mode (X, Y): a symplectic X (a squeeze, then a beam
    splitter) with Y = 0, or thermal loss X = sqrt(T) I, Y = (2M+1)(1-T)/4 I."""
    if kind == "loss":
        t, m = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 3.0))
        return math.sqrt(t) * np.eye(4), 0.25 * (2.0 * m + 1.0) * (1.0 - t) * np.eye(4)
    r = data.draw(st.floats(-1.0, 1.0))
    phase, theta = data.draw(st.floats(0.0, math.pi)), data.draw(st.floats(0.0, math.pi))
    c, s = math.cos(phase), math.sin(phase)
    rot = np.array([[c, -s], [s, c]])
    sq = np.eye(4)
    sq[:2, :2] = rot @ np.diag([math.exp(-r), math.exp(r)]) @ rot.T
    cos_t, sin_t = math.cos(theta) * np.eye(2), math.sin(theta) * np.eye(2)
    return np.block([[cos_t, sin_t], [-sin_t, cos_t]]) @ sq, np.zeros((4, 4))


class TestGaussianMap:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        r=st.floats(0.0, 1.5),
        squeezing=st.floats(-1.0, 1.0),
        alphas=st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=3),
        kinds=st.tuples(*[st.sampled_from(["symplectic", "loss"])] * 2),
    )
    def test_maps_compose(self, data, r, squeezing, alphas, kinds):
        # map(map(op, X1, Y1), X2, Y2) = map(op, X2 X1, X2 Y1 X2^T + Y2)
        state = displace(squeeze(twb(r), 0, squeezing, 0.3), 1, np.array(alphas))
        (x1, y1), (x2, y2) = (_random_map(data, kind) for kind in kinds)
        two = gaussian.gaussian_map(gaussian.gaussian_map(state, x1, y1), x2, y2)
        one = gaussian.gaussian_map(state, x2 @ x1, x2 @ y1 @ x2.T + y2)
        assert two.weight == one.weight == state.weight
        scale = np.abs(one.cov).max()
        np.testing.assert_allclose(two.cov, one.cov, rtol=1e-12, atol=1e-12 * scale)
        scale = max(1.0, np.abs(one.mean).max())
        np.testing.assert_allclose(two.mean, one.mean, rtol=1e-12, atol=1e-12 * scale)


class TestSymplectic:
    def test_vacuum_and_twb_are_minimal(self):
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum(1).cov), [0.25], atol=1e-12)
        np.testing.assert_allclose(
            symplectic_eigenvalues(twb(1.0).cov), [0.25, 0.25], atol=1e-12
        )

    def test_thermal_eigenvalue(self):
        np.testing.assert_allclose(
            symplectic_eigenvalues(thermal(1.0).cov), [0.75], atol=1e-12
        )

    def test_subvacuum_is_unphysical(self):
        bad = GaussianOperator(mean=np.zeros(2), cov=0.125 * np.eye(2))
        assert not is_physical(bad)
        with pytest.raises(UnphysicalStateError):
            decompose_single_mode(bad)

    def test_error_states_eigenvalue_margin_and_tolerance(self):
        # a shortfall that six significant digits of the eigenvalue would hide, as at twb(5.5)
        bad = GaussianOperator(mean=np.zeros(2), cov=(0.25 - 1.75e-8) * np.eye(2))
        nu = bad.min_symplectic_eigenvalue
        with pytest.raises(UnphysicalStateError) as info:
            condition_homodyne(bad, HomodyneSetting(0, 0.0, 0.8), 0.3)
        pattern = r"eigenvalue (\S+) is (\S+) below (\S+), beyond the tolerance (\S+)$"
        match = re.search(pattern, str(info.value))
        assert match, str(info.value)
        stated_nu, shortfall, bound, tol = map(float, match.groups())
        assert stated_nu == nu
        assert shortfall == pytest.approx(0.25 - nu, rel=1e-2)
        assert (bound, tol) == (gaussian.VACUUM_VARIANCE, gaussian.PHYSICALITY_TOL)

    def test_spectrum_is_computed_once_per_operator(self, monkeypatch):
        calls = []
        spectrum = gaussian.symplectic_eigenvalues
        monkeypatch.setattr(gaussian, "symplectic_eigenvalues", lambda cov: calls.append(cov) or spectrum(cov))
        beam = twb(0.7)
        assert is_physical(beam)
        require_physical(beam)
        for x in (-0.4, 0.0, 0.9):
            assert condition_homodyne(beam, HomodyneSetting(mode=0), x).probability_density > 0.0
        assert len(calls) == 1
        assert beam.min_symplectic_eigenvalue == pytest.approx(0.25, abs=1e-12)

    def test_random_symplectic_sequences_stay_physical(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(20):
            state = twb(rng.uniform(0.0, 1.5))
            for _ in range(4):
                mode = int(rng.integers(0, 2))
                state = squeeze(state, mode, rng.uniform(-0.8, 0.8), rng.uniform(0, math.pi))
                state = rotate(state, mode, rng.uniform(0, 2 * math.pi))
                state = displace(state, mode, complex(rng.normal(), rng.normal()))
            assert is_physical(state)
            assert symplectic_eigenvalues(state.cov)[0] >= 0.25 - 1e-9


class TestDecomposition:
    def test_frozen_example(self):
        # diag(1/6, 1/2) is the N = 1, eta = 0.8 conditional covariance
        state = GaussianOperator(mean=np.zeros(2), cov=np.diag([1 / 6, 0.5]))
        dec = decompose_single_mode(state)
        assert dec.n_th == pytest.approx(0.07735026918962584, abs=1e-14)
        assert dec.squeeze_r == pytest.approx(0.27465307216702745, abs=1e-14)
        assert dec.squeeze_phase == 0.0
        assert dec.displacement == 0.0

    def test_thermal_has_no_squeezing(self):
        dec = decompose_single_mode(thermal(2.0))
        assert dec.squeeze_r == 0.0
        assert dec.squeeze_phase == 0.0
        assert dec.n_th == pytest.approx(2.0, abs=1e-12)

    def test_displacement_reported(self):
        state = displace(thermal(0.3), 0, -1.5 + 0.25j)
        dec = decompose_single_mode(state)
        assert dec.displacement == pytest.approx(-1.5 + 0.25j)

    @pytest.mark.parametrize("n_th", [0.0, 0.2, 1.7])
    @pytest.mark.parametrize("r", [0.0, 0.35, 1.1])
    @pytest.mark.parametrize("phase", [0.0, 0.7, 2.9])
    def test_reconstruction_idempotent(self, n_th, r, phase):
        original = SqueezedThermalDecomposition(
            displacement=0.4 - 0.9j, squeeze_r=r, squeeze_phase=phase, n_th=n_th
        )
        state = original.to_operator()
        dec = decompose_single_mode(state)
        round_trip = dec.to_operator()
        np.testing.assert_allclose(round_trip.cov, state.cov, atol=1e-10)
        np.testing.assert_allclose(round_trip.mean, state.mean, atol=1e-12)
        assert dec.n_th == pytest.approx(n_th, abs=1e-10)
        assert dec.squeeze_r == pytest.approx(r, abs=1e-10)
        if r > 0:
            assert dec.squeeze_phase == pytest.approx(phase % math.pi, abs=1e-9)

    def test_random_states_round_trip(self):
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(25):
            state = displace(
                rotate(
                    squeeze(thermal(rng.uniform(0, 2)), 0, rng.uniform(0, 1.2)),
                    0,
                    rng.uniform(0, math.pi),
                ),
                0,
                complex(rng.normal(), rng.normal()),
            )
            dec = decompose_single_mode(state)
            np.testing.assert_allclose(dec.to_operator().cov, state.cov, atol=1e-10)

    def test_rejects_multimode(self):
        with pytest.raises(ValueError):
            decompose_single_mode(twb(0.4))


class TestBatched:
    STATES = [twb(0.6), squeeze(thermal(0.3), 0, 0.5, 0.8)]
    AMPLITUDES = np.array([[0.0, 1.0 - 0.5j], [-2.0 + 0.3j, 0.7j]])

    @pytest.mark.parametrize("state", STATES)
    def test_displace_matches_scalar_calls(self, state):
        family = displace(state, 0, self.AMPLITUDES)
        assert family.mean.shape == self.AMPLITUDES.shape + state.mean.shape
        np.testing.assert_array_equal(family.cov, state.cov)
        for idx, alpha in np.ndenumerate(self.AMPLITUDES):
            np.testing.assert_array_equal(family.mean[idx], displace(state, 0, complex(alpha)).mean)

    @pytest.mark.parametrize("state", STATES)
    def test_overlap_matches_scalar_calls(self, state):
        family = displace(state, 0, self.AMPLITUDES)
        got = overlap(family, state)
        assert got.shape == self.AMPLITUDES.shape
        for idx, alpha in np.ndenumerate(self.AMPLITUDES):
            one = overlap(displace(state, 0, complex(alpha)), state)
            assert isinstance(one, float)
            assert got[idx] == pytest.approx(one, rel=1e-13)

    @pytest.mark.parametrize("state", STATES)
    def test_wigner_eval_matches_scalar_calls(self, state):
        rng = np.random.Generator(np.random.Philox(2))
        points = rng.normal(size=(3, 2, state.mean.size))
        got = wigner_eval(state, points)
        assert got.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            one = wigner_eval(state, points[idx])
            assert isinstance(one, float)
            assert got[idx] == pytest.approx(one, rel=1e-13)
        # a family evaluated at one point gives one value per member
        family = displace(state, 0, self.AMPLITUDES)
        values = wigner_eval(family, points[0, 0])
        for idx, alpha in np.ndenumerate(self.AMPLITUDES):
            one = wigner_eval(displace(state, 0, complex(alpha)), points[0, 0])
            assert values[idx] == pytest.approx(one, rel=1e-13)

    def test_family_maps_match_scalar_calls(self):
        amplitudes = self.AMPLITUDES.ravel()
        family = displace(twb(0.6), 1, amplitudes)
        for k, alpha in enumerate(amplitudes):
            one = displace(twb(0.6), 1, alpha)
            np.testing.assert_allclose(
                squeeze(family, 1, 0.4, 0.2).mean[k], squeeze(one, 1, 0.4, 0.2).mean, atol=1e-15
            )
            flipped = transpose_wigner(family).mean[k]
            np.testing.assert_array_equal(flipped, transpose_wigner(one).mean)

    @pytest.mark.parametrize("op", [np.add, np.subtract])
    def test_add_points_equals_plain_operation(self, op):
        rng = np.random.Generator(np.random.Philox(4))
        family = rng.normal(size=(50, 3, 4))
        for a, b in [
            (family, rng.normal(size=4)),  # a family and one point
            (rng.normal(size=(3, 4)), family),  # broadcast over a leading axis
            (family[..., :2], family[..., 2:]),  # strided mode blocks
            (family[..., ::2], rng.normal(size=2)),  # x columns only: no pair view
            (rng.normal(size=2), rng.normal(size=2)),  # one point each
        ]:
            got = add_points(a, b, op)
            assert got.dtype == float
            np.testing.assert_array_equal(got, op(a, b))

    def test_displace_multimode_family_matches_scalar_calls(self):
        state = displace(twb(0.6), 0, 0.3 - 0.2j)
        amplitudes = np.linspace(-2.0, 2.0, 40) * (1.0 - 0.5j)
        for mode in (0, 1):
            family = displace(state, mode, amplitudes)
            assert family.mean.shape == (40, 4)
            for k, alpha in enumerate(amplitudes):
                np.testing.assert_array_equal(family.mean[k], displace(state, mode, alpha).mean)
            np.testing.assert_array_equal(displace(state, mode, 0.5).mean, displace(state, mode, 0.5 + 0j).mean)

    def test_single_state_operations_reject_a_family(self):
        family = displace(thermal(0.3), 0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            decompose_single_mode(family)
