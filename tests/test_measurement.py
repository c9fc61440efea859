"""Homodyne and double-homodyne conditioning against closed forms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (
    ConditionalOutcome,
    DoubleHomodyneSetting,
    HomodyneSetting,
    TeleportConfig,
    UnphysicalStateError,
    coherent,
    condition_homodyne,
    displace,
    double_homodyne_condition,
    evolve,
    homodyne_density,
    is_physical,
    overlap,
    remote_prep,
    rotate,
    sample_double_homodyne,
    sample_homodyne,
    squeeze,
    squeezing_from_photon_number,
    teleport_monte_carlo,
    twb,
    vacuum,
)
from twinbeam import measurement
from twinbeam.channels import LossChannel
from twinbeam.gaussian import GaussianOperator, lower_factor

N_GRID = (0.1, 1.0, 5.0, 20.0)
X_GRID = (-2.0, 0.0, 0.7, 1.3)
# a squeezed, rotated reference: S^1/2 of its records has a cross term
SQUEEZED_REFERENCE = squeeze(coherent(1.0 - 0.5j), 0, 1.0, 0.7)


def _closed_forms(n: float, eta: float, x: float):
    """Conditional mean, variances and record density of the heralded arm."""
    a_x = eta * math.sqrt(n * (n + 2.0)) * x / (1.0 + eta * n)
    sigma1 = 0.25 * (1.0 + n * (1.0 - eta)) / (1.0 + eta * n)
    sigma2 = 0.25 * (1.0 + n)
    record_var = 0.25 * (1.0 + n) + (1.0 - eta) / (4.0 * eta)
    density = math.exp(-0.5 * x * x / record_var) / math.sqrt(2.0 * math.pi * record_var)
    return a_x, sigma1, sigma2, density


class TestHomodyneSetting:
    def test_noise_variance(self):
        assert HomodyneSetting(efficiency=1.0).noise_variance == 0.0
        assert HomodyneSetting(efficiency=0.8).noise_variance == pytest.approx(

            0.0625, abs=1e-15
        )
        assert HomodyneSetting(efficiency=0.5).noise_variance == pytest.approx(
            0.25, abs=1e-15
        )

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.2])
    def test_efficiency_bounds(self, eta):
        with pytest.raises(ValueError):
            HomodyneSetting(efficiency=eta)

    def test_phase_folded(self):
        assert HomodyneSetting(phase=2.0 * math.pi + 0.3).phase == pytest.approx(0.3)

    def test_mode_nonnegative(self):
        with pytest.raises(ValueError):
            HomodyneSetting(mode=-1)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_phase_finite(self, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            HomodyneSetting(0, phase, 0.8)

    @pytest.mark.parametrize("mode", [0.5, 1.0, True, False, "0", None])
    def test_mode_integer(self, mode):
        with pytest.raises(ValueError, match="mode must be an integer"):
            HomodyneSetting(mode, 0.0, 0.8)

    def test_numpy_integer_mode(self):
        assert HomodyneSetting(np.int64(1)).mode == 1


class TestConditionHomodyne:
    @pytest.mark.parametrize("n", N_GRID)
    @pytest.mark.parametrize("eta", (0.55, 0.8, 1.0))
    @pytest.mark.parametrize("x", X_GRID)
    def test_matches_closed_forms(self, n, eta, x):
        r = squeezing_from_photon_number(n)
        out = condition_homodyne(
            twb(r), HomodyneSetting(mode=0, efficiency=eta), x
        )
        a_x, sigma1, sigma2, density = _closed_forms(n, eta, x)
        assert out.state.n_modes == 1
        assert out.state.mean[0] == pytest.approx(a_x, abs=1e-12)
        assert out.state.mean[1] == pytest.approx(0.0, abs=1e-12)
        assert out.state.cov[0, 0] == pytest.approx(sigma1, abs=1e-12)
        assert out.state.cov[1, 1] == pytest.approx(sigma2, abs=1e-12)
        assert out.state.cov[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert out.probability_density == pytest.approx(density, abs=1e-12)

    def test_density_consistent_with_homodyne_density(self):
        state = twb(0.9)
        setting = HomodyneSetting(mode=0, efficiency=0.7)
        for x in X_GRID:
            out = condition_homodyne(state, setting, x)
            assert out.probability_density == pytest.approx(homodyne_density(state, setting, x), rel=1e-13)

    def test_conditioning_on_second_mode_is_symmetric(self):
        state = twb(0.8)
        a = condition_homodyne(state, HomodyneSetting(mode=0), 0.6)
        b = condition_homodyne(state, HomodyneSetting(mode=1), 0.6)
        np.testing.assert_allclose(a.state.mean, b.state.mean, atol=1e-14)
        np.testing.assert_allclose(a.state.cov, b.state.cov, atol=1e-14)

    @pytest.mark.parametrize("phi", [0.3, 1.2, 2.5])
    def test_phase_covariance(self, phi):
        # measuring x_phi == rotate all modes by -phi, measure x, rotate back
        state = displace(twb(0.7), 1, 0.4 + 0.2j)
        direct = condition_homodyne(state, HomodyneSetting(mode=0, phase=phi), 0.45)
        turned = rotate(rotate(state, 0, -phi), 1, -phi)
        via = condition_homodyne(turned, HomodyneSetting(mode=0), 0.45)
        back = rotate(via.state, 0, phi)
        assert via.probability_density == pytest.approx(
            direct.probability_density, rel=1e-12
        )
        np.testing.assert_allclose(back.mean, direct.state.mean, atol=1e-12)
        np.testing.assert_allclose(back.cov, direct.state.cov, atol=1e-12)

    def test_sigma2_independent_of_record_and_efficiency(self):
        r = squeezing_from_photon_number(1.0)
        values = {
            condition_homodyne(
                twb(r), HomodyneSetting(mode=0, efficiency=eta), x
            ).state.cov[1, 1]
            for eta in (0.6, 1.0)
            for x in (-1.0, 2.0)
        }
        assert all(v == pytest.approx(0.5, abs=1e-13) for v in values)

    def test_quarter_efficiency_threshold_exact(self):
        for n in N_GRID:
            r = squeezing_from_photon_number(n)
            out = condition_homodyne(
                twb(r), HomodyneSetting(mode=0, efficiency=0.5), 1.3
            )
            assert abs(out.state.cov[0, 0] - 0.25) <= 1e-13

    def test_validation(self):
        with pytest.raises(ValueError):
            condition_homodyne(vacuum(1), HomodyneSetting(mode=0), 0.0)
        with pytest.raises(ValueError, match="^mode index 2 out of range for 2 modes$"):
            condition_homodyne(twb(0.5), HomodyneSetting(mode=2), 0.0)
        with pytest.raises(UnphysicalStateError):  # the only way in for an unphysical state
            GaussianOperator(mean=np.zeros(4), cov=0.1 * np.eye(4))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_density_needs_a_finite_record(self, x):
        with pytest.raises(ValueError):
            homodyne_density(twb(0.5), HomodyneSetting(mode=0), x)

    def test_huge_record_has_zero_density(self):
        # as remote_prep reports; the squared distance would overflow
        out = condition_homodyne(twb(0.5), HomodyneSetting(mode=0), 1e200)
        assert out.probability_density == 0.0
        assert np.all(np.isfinite(out.state.mean))
        assert homodyne_density(twb(0.5), HomodyneSetting(mode=0), -1e200) == 0.0

    def test_huge_records_in_an_array_have_zero_density(self):
        densities = homodyne_density(twb(0.5), HomodyneSetting(mode=0), [1e200, 0.0, -1e300])
        assert densities[0] == densities[2] == 0.0 and densities[1] > 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [0.0, math.nan], [[math.inf]]])
    def test_conditioning_names_a_non_finite_record(self, x):
        # before any arithmetic on it: no "mean must be finite", no RuntimeWarning
        with pytest.raises(ValueError, match="x must be finite"):
            condition_homodyne(twb(0.5), HomodyneSetting(mode=0, efficiency=0.8), x)

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.floats(0.0, 3.0),
        eta=st.floats(0.05, 1.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        mode=st.integers(0, 1),
        xs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
    )
    def test_record_array_matches_scalar_calls(self, r, eta, phase, mode, xs):
        beam = twb(r)
        state = GaussianOperator(mean=[0.1, -0.2, 0.3, 0.4], cov=beam.cov)
        setting = HomodyneSetting(mode, phase, eta)
        batch = condition_homodyne(state, setting, np.array(xs))
        assert batch.state.mean.shape == (len(xs), 2)
        for k, x in enumerate(xs):
            one = condition_homodyne(state, setting, x)
            np.testing.assert_array_equal(batch.state.mean[k], one.state.mean)
            np.testing.assert_array_equal(batch.state.cov, one.state.cov)
            assert batch.probability_density[k] == pytest.approx(one.probability_density, rel=1e-14, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
        index=st.integers(0, 4),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_a_non_finite_record_anywhere_raises(self, xs, index, bad):
        xs[index % len(xs)] = bad
        setting = HomodyneSetting(mode=1, efficiency=0.7)
        with pytest.raises(ValueError, match="x must be finite"):
            condition_homodyne(twb(0.8), setting, xs)
        with pytest.raises(ValueError, match="x must be finite"):
            homodyne_density(twb(0.8), setting, xs)


class TestStrongSqueezing:
    """The factor form holds the e^{-2r}/4 variances out to r = 12: every
    twin beam is physical, and homodyne conditioning matches the closed
    forms within 4 max(1e-12, eps e^{2r}) relative.  r and eta stay off the
    subnormal range, where the closed forms' photon number and mean have no
    relative precision."""

    @pytest.mark.parametrize("r", [9.5, 10.0, 12.0])
    def test_twin_beam_constructs(self, r):
        assert is_physical(twb(r))

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(0.0, 12.0))
    def test_twin_beam_is_physical(self, r):
        assert is_physical(twb(r))

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.one_of(st.just(0.0), st.floats(1e-100, 12.0)),
        eta=st.floats(1e-9, 1.0),
        x=st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3)),
    )
    def test_conditioning_matches_remote_prep(self, r, eta, x):
        out = condition_homodyne(twb(r), HomodyneSetting(0, 0.0, eta), x)
        want = remote_prep(r, eta, x)
        tol = 4.0 * max(1e-12, np.finfo(float).eps * math.exp(2.0 * r))
        for got, ref in (
            (out.state.mean[0], want.a_x_eta),
            (out.state.cov[0, 0], want.sigma1_sq),
            (out.state.cov[1, 1], want.sigma2_sq),
            (out.probability_density, want.outcome_density),
        ):
            assert abs(got - ref) <= tol * abs(ref), (got, ref)


class TestSampling:
    def test_seed_determinism(self):
        state = twb(0.6)
        setting = HomodyneSetting(mode=0, efficiency=0.9)
        assert sample_homodyne(state, setting, seed=42) == sample_homodyne(
            state, setting, seed=42
        )
        assert sample_homodyne(state, setting, seed=42) != sample_homodyne(
            state, setting, seed=43
        )
        a = sample_homodyne(state, setting, seed=7, n_samples=5)
        b = sample_homodyne(state, setting, seed=7, n_samples=5)
        np.testing.assert_array_equal(a, b)

    def test_pinned_draws(self):
        # the first records of both streams, pinned across rewrites: a
        # sampler that reorders its draws or maps them differently fails
        state = evolve(twb(0.8), LossChannel(0.1, 0.2))
        homodyne = HomodyneSetting(0, 0.3, 0.8)
        double = DoubleHomodyneSetting(coherent(1.0 - 0.5j), 0.9)
        xs = [-0.6192341320653059, 0.70475951818412, 0.34181254855939397]
        alphas = [
            -1.721623882796583 - 0.32129080684499256j,
            -0.6016690849108232 + 1.0165948433040704j,
            -1.3225775009355232 - 0.3772535668159902j,
        ]
        assert sample_homodyne(state, homodyne, 5) == pytest.approx(xs[0], rel=1e-13)
        assert sample_homodyne(state, homodyne, 5, 3) == pytest.approx(xs, rel=1e-13)
        assert sample_double_homodyne(state, double, 5) == pytest.approx(alphas[0], rel=1e-13)
        assert sample_double_homodyne(state, double, 5, 3) == pytest.approx(alphas, rel=1e-13)

    @pytest.mark.parametrize("n_samples", [2.7, 2.0, True, "3", -1])
    def test_sample_count_checked(self, n_samples):
        state = twb(0.5)
        setting = DoubleHomodyneSetting(reference=coherent(0.0))
        with pytest.raises(ValueError, match="n_samples"):
            sample_homodyne(state, HomodyneSetting(0, 0.0, 0.8), seed=1, n_samples=n_samples)
        with pytest.raises(ValueError, match="n_samples"):
            sample_double_homodyne(state, setting, seed=1, n_samples=n_samples)

    def test_empty_and_numpy_sample_counts(self):
        state = twb(0.5)
        setting = DoubleHomodyneSetting(reference=coherent(0.0))
        assert sample_homodyne(state, HomodyneSetting(), seed=1, n_samples=0).shape == (0,)
        assert sample_double_homodyne(state, setting, seed=1, n_samples=0).shape == (0,)
        np.testing.assert_array_equal(
            sample_double_homodyne(state, setting, seed=1, n_samples=np.int32(3)),
            sample_double_homodyne(state, setting, seed=1, n_samples=3),
        )

    def test_sample_statistics(self):
        # one twin-beam arm with N = 1 has record variance (1 + N)/4 = 1/2
        r = squeezing_from_photon_number(1.0)
        draws = sample_homodyne(
            twb(r), HomodyneSetting(mode=0), seed=7, n_samples=100_000
        )
        assert float(np.var(draws)) == pytest.approx(0.5, abs=0.01)
        assert float(np.mean(draws)) == pytest.approx(0.0, abs=0.01)


class TestDoubleHomodyne:
    def test_setting_validation(self):
        with pytest.raises(ValueError):
            DoubleHomodyneSetting(reference=twb(0.3))
        with pytest.raises(ValueError):
            DoubleHomodyneSetting(reference=coherent(0.0), efficiency=0.0)
        with pytest.raises(UnphysicalStateError):  # so no reference can be unphysical
            GaussianOperator(mean=np.zeros(2), cov=0.1 * np.eye(2))
        assert DoubleHomodyneSetting(
            reference=coherent(0.0), efficiency=0.8
        ).delta_sq == pytest.approx(0.25, abs=1e-15)

    def test_huge_record_has_zero_density(self):
        # the squared distance overflows: 0.0, no RuntimeWarning
        setting = DoubleHomodyneSetting(coherent(0))
        assert double_homodyne_condition(twb(0.5), setting, 1e200).probability_density == 0.0

    @pytest.mark.parametrize(
        "alpha", [complex(math.nan, 0.0), complex(0.0, math.inf), [0.5, complex(-math.inf, 1.0)]]
    )
    def test_a_non_finite_record_is_named(self, alpha):
        # no "mean must be finite", no RuntimeWarning and no density of 0.0
        setting = DoubleHomodyneSetting(coherent(0.0), 0.9)
        for f in (double_homodyne_condition, homodyne_density):
            with pytest.raises(ValueError, match="^alpha must be finite$"):
                f(twb(0.5), setting, alpha)

    def test_requires_two_mode_state(self):
        setting = DoubleHomodyneSetting(reference=coherent(0.0))
        with pytest.raises(ValueError):
            double_homodyne_condition(vacuum(1), setting, 0.0)

    def test_conditions_more_than_two_modes(self):
        # one rule for both detectors: a third, uncorrelated mode passes through
        setting = DoubleHomodyneSetting(coherent(0.3 - 0.2j), 0.9)
        pair = evolve(twb(0.6), LossChannel(0.2, 0.1))
        extra = displace(squeeze(vacuum(1), 0, 0.4, 0.3), 0, 0.5j)
        cov = np.block([[pair.cov, np.zeros((4, 2))], [np.zeros((2, 4)), extra.cov]])
        three = GaussianOperator(np.r_[pair.mean, extra.mean], cov)
        one = double_homodyne_condition(pair, setting, 0.4 + 0.1j)
        both = double_homodyne_condition(three, setting, 0.4 + 0.1j)
        np.testing.assert_allclose(both.state.mean, np.r_[one.state.mean, extra.mean], atol=1e-14)
        joint = np.block([[one.state.cov, np.zeros((2, 2))], [np.zeros((2, 2)), extra.cov]])
        np.testing.assert_allclose(both.state.cov, joint, atol=1e-14)
        assert both.probability_density == pytest.approx(one.probability_density, rel=1e-13)
        assert homodyne_density(three, setting, 0.4 + 0.1j) == both.probability_density

    @pytest.mark.parametrize("alpha", [0.0, 1.0 + 0.5j, -0.3 - 2.0j])
    def test_unentangled_beam_leaves_vacuum(self, alpha):
        # r = 0: the record carries no information about the far mode
        setting = DoubleHomodyneSetting(reference=coherent(0.7 - 0.1j))
        out = double_homodyne_condition(twb(0.0), setting, alpha)
        np.testing.assert_allclose(out.state.mean, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(out.state.cov, 0.25 * np.eye(2), atol=1e-14)

    def test_record_density_normalized(self):
        state = evolve(twb(0.6), LossChannel(0.2, 0.4))
        setting = DoubleHomodyneSetting(reference=coherent(0.4 + 0.9j), efficiency=0.85)
        xs = np.linspace(-7.0, 7.0, 161)
        records = xs[:, None] + 1j * xs[None, :]
        vals = double_homodyne_condition(state, setting, records).probability_density
        integral = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_sampler_determinism_and_distribution(self):
        state = evolve(twb(0.8), LossChannel(0.1, 0.2))
        setting = DoubleHomodyneSetting(reference=coherent(1.0 - 0.5j), efficiency=0.9)
        a = sample_double_homodyne(state, setting, seed=3, n_samples=4)
        b = sample_double_homodyne(state, setting, seed=3, n_samples=4)
        np.testing.assert_array_equal(a, b)
        assert isinstance(sample_double_homodyne(state, setting, seed=3), complex)
        draws = sample_double_homodyne(state, setting, seed=11, n_samples=200_000)
        # for a zero-mean beam the record averages to -conj(reference mean)
        assert float(np.mean(draws.real)) == pytest.approx(-1.0, abs=0.02)
        assert float(np.mean(draws.imag)) == pytest.approx(0.5, abs=0.02)

    def test_block_draws_continue_one_stream(self):
        # draws from one Generator in blocks, single draws first, concatenate to
        # one call's draws bit for bit, also where S^1/2 has a cross term (whose
        # rounding in a matmul changed with the batch size)
        state = evolve(twb(0.8), LossChannel(0.1, 0.2))
        homodyne = HomodyneSetting(0, 0.3, 0.8)
        sizes = (1, 63, 64, 1000, 5)
        for reference in (coherent(1.0 - 0.5j), SQUEEZED_REFERENCE):
            setting = DoubleHomodyneSetting(reference=reference, efficiency=0.9)
            for sampler, kind in ((sample_double_homodyne, setting), (sample_homodyne, homodyne)):
                rng = np.random.Generator(np.random.Philox(42))
                singles = [sampler(state, kind, rng) for _ in range(64)]
                blocks = np.concatenate([singles, *(sampler(state, kind, rng, k) for k in sizes)])
                assert (blocks == sampler(state, kind, 42, 64 + sum(sizes))).all()

    @pytest.mark.parametrize(
        "setting, bound",
        [(DoubleHomodyneSetting(SQUEEZED_REFERENCE, 0.9), 1.5), (HomodyneSetting(0, 0.3, 0.8), 1.05)],
        ids=["double_homodyne", "homodyne"],
    )
    def test_records_made_in_the_draws_buffer(self, setting, bound):
        # the records take the draws' buffer: the double homodyne's one
        # temporary is its cross term, half a record array; the homodyne has none
        state = evolve(twb(0.8), LossChannel(0.1, 0.2))
        sample_homodyne(state, setting, 1, 2)  # fills the setting's cached properties first
        rng = np.random.Generator(np.random.Philox(5))
        tracemalloc.start()
        try:
            records = sample_homodyne(state, setting, rng, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * records.nbytes + 2**13  # and the call's few small arrays

    def test_record_covariance(self):
        # the points (Re alpha, -Im alpha) have covariance S = the arm's
        # + the transposed reference's + (delta^2 / 2) I, here within 6 standard errors
        state = evolve(twb(0.8), LossChannel(0.1, 0.2))
        setting = DoubleHomodyneSetting(SQUEEZED_REFERENCE, efficiency=0.9)
        n = 200_000
        alphas = sample_double_homodyne(state, setting, 17, n)
        s = state.cov[:2, :2] + setting.transposed_reference.cov + 0.5 * setting.delta_sq * np.eye(2)
        stderr = np.sqrt((np.outer(s.diagonal(), s.diagonal()) + s * s) / n)
        assert (abs(np.cov(alphas.real, -alphas.imag) - s) <= 6.0 * stderr).all()

    @pytest.mark.parametrize("seed", [2.7, True, "3", -1, None])
    def test_seed_checked(self, seed):
        state = twb(0.5)
        with pytest.raises(ValueError, match="seed"):
            sample_homodyne(state, HomodyneSetting(), seed, 3)
        with pytest.raises(ValueError, match="seed"):
            sample_double_homodyne(state, DoubleHomodyneSetting(coherent(0.0)), seed, 3)

    def test_per_sample_teleport_matches_monte_carlo(self):
        # the vectorized estimator must equal the explicit op pipeline
        z = 0.9 + 0.2j
        config = TeleportConfig(r=0.7, gamma_t=0.3, thermal_photons=0.5, eta=0.9)
        resource = evolve(twb(config.r), config.channel())
        setting = DoubleHomodyneSetting(reference=coherent(z), efficiency=config.eta)
        alphas = sample_double_homodyne(resource, setting, seed=3, n_samples=100)
        fids = []
        for alpha in alphas:
            out = double_homodyne_condition(resource, setting, complex(alpha))
            corrected = displace(out.state, 0, -complex(alpha))
            fids.append(overlap(coherent(z), corrected))
        direct = teleport_monte_carlo(z, config, n_samples=100, seed=3)
        assert direct == pytest.approx(float(np.mean(fids)), abs=1e-12)

    def test_outcome_type(self):
        out = double_homodyne_condition(
            twb(0.4), DoubleHomodyneSetting(reference=coherent(0.0)), 0.2 + 0.1j
        )
        assert isinstance(out, ConditionalOutcome)
        assert out.probability_density > 0.0
        # evaluated once, on first read
        assert out.probability_density is out.probability_density


class TestBatchedRecords:
    STATE = evolve(twb(0.7), LossChannel(0.3, 0.5))
    SETTING = DoubleHomodyneSetting(reference=coherent(0.9 + 0.2j), efficiency=0.9)
    RECORDS = np.array([[0.0, 1.0 + 0.5j, -0.3 - 2.0j], [2.2j, -1.1, 0.4 - 0.4j]])

    def test_records_match_scalar_calls(self):
        batch = double_homodyne_condition(self.STATE, self.SETTING, self.RECORDS)
        assert batch.probability_density.shape == self.RECORDS.shape
        assert batch.state.mean.shape == self.RECORDS.shape + (2,)
        for idx, alpha in np.ndenumerate(self.RECORDS):
            one = double_homodyne_condition(self.STATE, self.SETTING, complex(alpha))
            assert isinstance(one.probability_density, float)
            assert batch.probability_density[idx] == pytest.approx(
                one.probability_density, rel=1e-13
            )
            np.testing.assert_allclose(
                batch.state.mean[idx], one.state.mean, rtol=1e-13, atol=1e-15
            )
            np.testing.assert_array_equal(batch.state.cov, one.state.cov)

    @pytest.mark.parametrize(
        "setting, record",
        [(SETTING, 0.5 - 0.5j), (HomodyneSetting(0, 0.7, 0.8), 0.3)],
        ids=["double_homodyne", "homodyne"],
    )
    def test_batched_state_matches_scalar_calls(self, setting, record):
        # one conditioning rule for both detectors: a family of states
        # conditions member by member
        shifts = np.array([0.0, 0.4 - 1.0j, -2.0 + 0.3j])
        family = displace(self.STATE, 0, shifts)
        batch = condition_homodyne(family, setting, record)
        for k, shift in enumerate(shifts):
            one = condition_homodyne(displace(self.STATE, 0, shift), setting, record)
            assert batch.probability_density[k] == pytest.approx(
                one.probability_density, rel=1e-13
            )
            np.testing.assert_allclose(batch.state.mean[k], one.state.mean, rtol=1e-13, atol=1e-15)

    def test_single_state_operations_reject_a_family(self):
        family = displace(self.STATE, 1, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            sample_homodyne(family, HomodyneSetting(mode=0), seed=1)
        with pytest.raises(ValueError):
            sample_double_homodyne(family, self.SETTING, seed=1)
        with pytest.raises(ValueError):
            DoubleHomodyneSetting(reference=coherent(np.array([0.0, 1.0j])))


class TestReusedUpdate:
    """The record-independent part of the update, kept on the setting for
    the state factor it came from."""

    LOSSY = evolve(twb(0.7), LossChannel(0.3, 0.5))
    SQUEEZED = squeeze(twb(1.1), 1, 0.4, 0.3)
    # detector -> (setting class, its arguments, a record)
    DETECTORS = {
        "homodyne": (HomodyneSetting, (0, 0.7, 0.8), 0.3),
        "double_homodyne": (DoubleHomodyneSetting, (SQUEEZED_REFERENCE, 0.8), 0.5 - 0.4j),
    }

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_alternating_states_match_fresh_settings(self, detector):
        # two states in turn on one setting, a sampler on a displaced copy and
        # a displaced family, each sharing a factor with one of them: every
        # call equals, bit for bit, the same call on a setting of its own
        kind, args, record = self.DETECTORS[detector]
        shared = kind(*args)
        family = displace(self.LOSSY, 1, np.array([0.0, 0.4 - 1.0j, -2.0 + 0.3j]))
        calls = (
            lambda s: condition_homodyne(self.LOSSY, s, record),
            lambda s: condition_homodyne(self.SQUEEZED, s, record),
            lambda s: sample_homodyne(displace(self.SQUEEZED, 1, 0.2j), s, seed=3, n_samples=5),
            lambda s: condition_homodyne(family, s, record),
            lambda s: condition_homodyne(self.LOSSY, s, [record, 2 * record]),
            lambda s: homodyne_density(self.SQUEEZED, s, record),
            lambda s: condition_homodyne(self.SQUEEZED, s, record),
        )
        for call in calls * 2:
            got, want = call(shared), call(kind(*args))
            if isinstance(got, ConditionalOutcome):
                np.testing.assert_array_equal(got.state.mean, want.state.mean)
                np.testing.assert_array_equal(got.state.factor, want.state.factor)
                got, want = got.probability_density, want.probability_density
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_kept_arrays_are_read_only(self, detector):
        kind, args, record = self.DETECTORS[detector]
        setting = kind(*args)
        condition_homodyne(self.LOSSY, setting, record)
        _, _, gain, s_factor, factor = measurement._update(self.LOSSY, setting)
        for array in (gain, s_factor, factor):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_one_qr_for_many_records(self, detector, monkeypatch):
        kind, args, record = self.DETECTORS[detector]
        setting, pre_arrays = kind(*args), []

        def counted(pre_array):
            pre_arrays.append(pre_array)
            return lower_factor(pre_array)

        monkeypatch.setattr(measurement, "lower_factor", counted)
        for k in range(100):
            assert condition_homodyne(self.LOSSY, setting, record * (1 + k / 50)).probability_density > 0
        assert len(pre_arrays) == 1


def _record_batch():
    """Records of shape (), (k,) or (k, j), as float or complex arrays or
    as Python floats and complex numbers; some batches are large enough
    that their points are added as complex pairs."""
    value = st.floats(-6.0, 6.0)
    kinds = {float: value, complex: st.builds(complex, value, value)}
    shape = st.one_of(
        st.just(()),
        st.tuples(st.integers(0, 40)),
        st.tuples(st.integers(1, 6), st.integers(1, 8)),
    )

    def batch(args):
        shape, dtype = args
        size = math.prod(shape)
        return st.lists(kinds[dtype], min_size=size, max_size=size).map(
            lambda values: np.array(values, dtype=dtype).reshape(shape)
        )

    return st.one_of(*kinds.values(), st.tuples(shape, st.sampled_from(list(kinds))).flatmap(batch))


class TestPipelineProperty:
    """Batched conditioning -> correction -> overlap equals the per-record calls."""

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(0.0, 2.0),
        gamma_t=st.floats(0.0, 1.5),
        m=st.floats(0.0, 1.0),
        eta=st.floats(0.05, 1.0),
        z=st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        records=_record_batch(),
        shift=st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        mode=st.sampled_from([0, 1]),
        family=st.booleans(),
    )
    def test_batched_equals_per_record(self, r, gamma_t, m, eta, z, records, shift, mode, family):
        resource = evolve(twb(r), LossChannel(gamma_t, m))
        reference = coherent(z)
        setting = DoubleHomodyneSetting(reference=reference, efficiency=eta)
        shape = np.shape(records)
        # a family with nonzero means: one member per record along the last axis
        shifts = shift * np.linspace(1.0, -0.5, shape[-1] if shape else 3) if family else shift
        state = displace(resource, mode, shifts)

        batch = double_homodyne_condition(state, setting, records)
        fids = overlap(displace(batch.state, 0, -np.asarray(records)), reference)
        dens = batch.probability_density

        full = np.broadcast_shapes(shape, np.shape(shifts))
        assert np.shape(dens) == np.shape(fids) == full
        assert batch.state.mean.shape == full + (2,)
        member_shifts = np.broadcast_to(shifts, full)
        for idx in np.ndindex(full):
            alpha = records if np.ndim(records) == 0 else np.broadcast_to(records, full)[idx].item()
            one = double_homodyne_condition(
                displace(resource, mode, complex(member_shifts[idx])), setting, alpha
            )
            fid = overlap(displace(one.state, 0, -alpha), reference)
            assert np.asarray(dens)[idx] == pytest.approx(one.probability_density, rel=1e-13)
            assert np.asarray(fids)[idx] == pytest.approx(fid, rel=1e-13)
            np.testing.assert_allclose(batch.state.mean[idx], one.state.mean, rtol=1e-13, atol=1e-15)
            np.testing.assert_array_equal(batch.state.cov, one.state.cov)


def _textbook(state, mode, C, R, y):
    """The kept mode's conditional mean and covariance and the record density
    for a record y = C z + v, v ~ N(0, R), of the quadratures z of ``mode``
    of a two-mode state: the joint normal of (y, kept quadratures)
    conditioned on y, built from its blocks with np.linalg.inv."""
    m, k = slice(2 * mode, 2 * mode + 2), slice(2 - 2 * mode, 4 - 2 * mode)
    s_yy = C @ state.cov[m, m] @ C.T + R
    s_ky = state.cov[k, m] @ C.T
    s_yy_inv = np.linalg.inv(s_yy)
    innovation = y - C @ state.mean[m]
    mean = state.mean[k] + s_ky @ s_yy_inv @ innovation
    cov = state.cov[k, k] - s_ky @ s_yy_inv @ s_ky.T
    density = math.exp(-0.5 * innovation @ s_yy_inv @ innovation) / math.sqrt(
        np.linalg.det(2.0 * math.pi * s_yy)
    )
    return mean, cov, density


def _agrees(outcome: ConditionalOutcome, reference, scale: float) -> bool:
    """Mean, covariance and density agree to rel 1e-12; means and
    covariance entries near zero against the input covariance's ``scale``."""
    mean, cov, density = reference
    return (
        np.allclose(outcome.state.mean, mean, rtol=1e-12, atol=1e-12 * math.sqrt(scale))
        and np.allclose(outcome.state.cov, cov, rtol=1e-12, atol=1e-12 * scale)
        and math.isclose(outcome.probability_density, density, rel_tol=1e-12)
    )


def _homodyne_model(setting: HomodyneSetting):
    """C and R of a homodyne record: the measured quadrature plus the
    equivalent noise of an inefficient detector."""
    eta = setting.efficiency
    C = np.array([[math.cos(setting.phase), math.sin(setting.phase)]])
    return C, np.array([[(1 - eta) / (4 * eta)]])


def _double_homodyne_model(setting: DoubleHomodyneSetting):
    """C, R and the record offset of a double-homodyne record: the measured
    mode's point, broadened by the transposed reference and the split
    detection's excess noise, read at the transposed reference's mean."""
    flip = np.diag([1.0, -1.0])
    eta = setting.efficiency
    R = flip @ setting.reference.cov @ flip + 0.5 * (1 - eta) / eta * np.eye(2)
    return np.eye(2), R, flip @ setting.reference.mean


@st.composite
def _two_mode_states(draw):
    """Damped twin beams, then squeezed, rotated or displaced on either mode."""
    channel = LossChannel(draw(st.floats(0.0, 1.5)), draw(st.floats(0.0, 1.0)))
    state = evolve(twb(draw(st.floats(0.0, 1.5))), channel)
    for _ in range(draw(st.integers(0, 3))):
        mode, op = draw(st.integers(0, 1)), draw(st.sampled_from(["squeeze", "rotate", "displace"]))
        if op == "squeeze":
            state = squeeze(state, mode, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0 * math.pi)))
        elif op == "rotate":
            state = rotate(state, mode, draw(st.floats(0.0, 2.0 * math.pi)))
        else:
            alpha = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
            state = displace(state, mode, alpha)
    return state


def _record(reference_mean, s_yy, t):
    """A record t standard deviations (per whitened axis) from its mean."""
    return reference_mean + np.linalg.cholesky(s_yy) @ np.asarray(t)


class TestTextbookConditioning:
    """Both conditioners against the textbook conditioning of a joint normal."""

    @settings(max_examples=120, deadline=None)
    @given(
        state=_two_mode_states(),
        mode=st.integers(0, 1),
        phase=st.floats(0.0, 2.0 * math.pi),
        eta=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        t=st.floats(-4.0, 4.0),
    )
    def test_homodyne(self, state, mode, phase, eta, t):
        setting = HomodyneSetting(mode, phase, eta)
        C, R = _homodyne_model(setting)
        m = slice(2 * mode, 2 * mode + 2)
        x = _record(C @ state.mean[m], C @ state.cov[m, m] @ C.T + R, [t])
        out = condition_homodyne(state, setting, float(x[0]))
        assert _agrees(out, _textbook(state, mode, C, R, x), np.abs(state.cov).max())

    @settings(max_examples=120, deadline=None)
    @given(
        state=_two_mode_states(),
        eta=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        z=st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        r_ref=st.floats(0.0, 0.8),
        phi_ref=st.floats(0.0, 2.0 * math.pi),
        t=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    )
    def test_double_homodyne(self, state, eta, z, r_ref, phi_ref, t):
        setting = DoubleHomodyneSetting(displace(squeeze(vacuum(1), 0, r_ref, phi_ref), 0, z), eta)
        C, R, offset = _double_homodyne_model(setting)
        y = _record(state.mean[:2], state.cov[:2, :2] + R, t)
        # the POVM element of alpha is centred on (Re alpha, -Im alpha) + offset
        point = y - offset
        out = double_homodyne_condition(state, setting, complex(point[0], -point[1]))
        assert _agrees(out, _textbook(state, 0, C, R, y), np.abs(state.cov).max())

    @pytest.mark.parametrize("detector", ["homodyne", "double homodyne"])
    @pytest.mark.parametrize("perturbed", ["C", "R"])
    def test_a_perturbed_model_disagrees(self, detector, perturbed):
        # the comparison resolves a 1e-9 relative change of C or R
        state = displace(evolve(twb(0.8), LossChannel(0.3, 0.2)), 1, 0.4 - 0.3j)
        if detector == "homodyne":
            setting = HomodyneSetting(1, 0.7, 0.8)
            C, R = _homodyne_model(setting)
            y = np.array([0.9])
            out = condition_homodyne(state, setting, 0.9)
        else:
            setting = DoubleHomodyneSetting(displace(squeeze(vacuum(1), 0, 0.4, 0.5), 0, 0.3 + 0.2j), 0.8)
            C, R, offset = _double_homodyne_model(setting)
            y = np.array([0.9, -0.6])
            point = y - offset
            out = double_homodyne_condition(state, setting, complex(point[0], -point[1]))
        mode = setting.mode if detector == "homodyne" else 0
        scale = np.abs(state.cov).max()
        assert _agrees(out, _textbook(state, mode, C, R, y), scale)
        if perturbed == "C":
            C = C * (1 + 1e-9)
        else:
            R = R * (1 + 1e-9)
        assert not _agrees(out, _textbook(state, mode, C, R, y), scale)
