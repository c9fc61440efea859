"""Damping channel: frozen examples, semigroup law, fixed point."""

import math

import numpy as np
import pytest

from twinbeam import (
    LossChannel,
    coherent,
    displace,
    effective_kappa_contribution,
    evolve,
    is_physical,
    squeeze,
    thermal,
    twb,
    vacuum,
)

LN2 = math.log(2.0)


def _sigma_minus_sq(state) -> float:
    c = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
    return float(c @ state.cov @ c)


class TestLossChannel:
    def test_properties(self):
        ch = LossChannel(gamma_t=LN2, thermal_photons=1.0)
        assert ch.transmission == pytest.approx(0.5, abs=1e-15)
        assert ch.added_variance == pytest.approx(0.375, abs=1e-15)

    @pytest.mark.parametrize("gamma_t, m", [(-0.1, 0.0), (0.1, -0.5)])
    def test_validation(self, gamma_t, m):
        with pytest.raises(ValueError):
            LossChannel(gamma_t=gamma_t, thermal_photons=m)


class TestEvolve:
    def test_frozen_difference_quadrature(self):
        # r = ln 2, gamma_t = ln 2, M = 1 halves the squeezed variance
        # 1/16 and adds 3/8 of diffusion
        evolved = evolve(twb(LN2), LossChannel(LN2, 1.0))
        assert _sigma_minus_sq(evolved) == pytest.approx(0.40625, abs=1e-13)

    def test_identity_at_zero_damping(self):
        s = twb(0.8)
        out = evolve(s, LossChannel(0.0, 5.0))
        np.testing.assert_allclose(out.cov, s.cov, atol=1e-15)
        np.testing.assert_allclose(out.mean, s.mean, atol=1e-15)

    def test_vacuum_bath_fixes_vacuum(self):
        out = evolve(vacuum(1), LossChannel(1.3, 0.0))
        np.testing.assert_allclose(out.cov, 0.25 * np.eye(2), atol=1e-15)

    def test_mean_contraction(self):
        out = evolve(coherent(2.0 - 1.0j), LossChannel(2.0 * LN2, 0.0))
        np.testing.assert_allclose(out.mean, [1.0, -0.5], atol=1e-14)

    @pytest.mark.parametrize("gt1", [0.0, 0.4, 1.1])
    @pytest.mark.parametrize("gt2", [0.0, 0.7, 2.3])
    @pytest.mark.parametrize("m", [0.0, 0.5, 2.0])
    def test_semigroup_composition(self, gt1, gt2, m):
        s = twb(0.9)
        two_step = evolve(evolve(s, LossChannel(gt1, m)), LossChannel(gt2, m))
        one_step = evolve(s, LossChannel(gt1 + gt2, m))
        np.testing.assert_allclose(two_step.cov, one_step.cov, atol=1e-12)
        np.testing.assert_allclose(two_step.mean, one_step.mean, atol=1e-12)

    @pytest.mark.parametrize("m", [0.0, 1.0, 3.5])
    def test_long_time_fixed_point(self, m):
        out = evolve(twb(1.2), LossChannel(1e3, m))
        bath = 0.25 * (2.0 * m + 1.0)
        np.testing.assert_allclose(out.cov, bath * np.eye(4), atol=1e-9)
        np.testing.assert_allclose(out.mean, np.zeros(4), atol=1e-9)

    @pytest.mark.parametrize("gamma_t", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("m", [0.0, 0.7])
    def test_physicality_preserved(self, gamma_t, m):
        out = evolve(twb(1.4), LossChannel(gamma_t, m))
        assert is_physical(out)
        # the hand formula evolve replaced, on a state with a mean and correlations
        scale = math.sqrt(math.exp(-gamma_t))
        added = 0.25 * (2.0 * m + 1.0) * (1.0 - math.exp(-gamma_t))
        for s in (twb(1.4), displace(squeeze(twb(1.4), 0, 0.3, 0.7), 1, 0.5 - 1.0j)):
            out = evolve(s, LossChannel(gamma_t, m))
            want = (scale * scale) * s.cov + added * np.eye(4)
            np.testing.assert_allclose(out.cov, want, rtol=1e-15, atol=0)
            np.testing.assert_array_equal(out.mean, scale * s.mean)

    @pytest.mark.parametrize(
        "channel",
        [
            LossChannel(np.array([0.1, 0.2])),
            LossChannel(0.1, np.array([0.0, 0.5])),
            LossChannel(np.array([[0.1], [0.2]]), np.array([0.0, 0.5])),
        ],
    )
    def test_rejects_a_grid_of_channels(self, channel):
        with pytest.raises(ValueError, match=r"^evolve takes one channel, not a grid$"):
            evolve(twb(0.5), channel)

    def test_zero_dimensional_fields_are_one_channel(self):
        out = evolve(twb(0.5), LossChannel(np.array(0.1), np.array(0.2)))
        np.testing.assert_array_equal(out.cov, evolve(twb(0.5), LossChannel(0.1, 0.2)).cov)

    def test_weight_preserved(self):
        from twinbeam.gaussian import GaussianOperator

        s = GaussianOperator(mean=np.zeros(2), cov=0.3 * np.eye(2), weight=2.5)
        assert evolve(s, LossChannel(0.5, 0.2)).weight == 2.5


class TestKappaContribution:
    def test_frozen_example(self):
        assert effective_kappa_contribution(
            LN2, LossChannel(LN2, 1.0)
        ) == pytest.approx(1.625, abs=1e-13)

    @pytest.mark.parametrize("r", [0.0, LN2, 2.0])
    @pytest.mark.parametrize("gamma_t", [0.0, LN2, 1.0])
    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
    def test_equals_four_times_evolved_variance(self, r, gamma_t, m):
        ch = LossChannel(gamma_t, m)
        evolved = evolve(twb(r), ch)
        assert effective_kappa_contribution(r, ch) == pytest.approx(
            4.0 * _sigma_minus_sq(evolved), abs=1e-12
        )

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValueError):
            effective_kappa_contribution(-0.1, LossChannel(0.2))

    def test_thermal_input_relaxes_monotonically(self):
        # variance moves toward the bath value from either side
        hot = evolve(thermal(3.0), LossChannel(0.5, 0.0))
        cold = evolve(thermal(0.0), LossChannel(0.5, 3.0))
        assert 0.25 < hot.cov[0, 0] < thermal(3.0).cov[0, 0]
        assert 0.25 < cold.cov[0, 0] < thermal(3.0).cov[0, 0]
