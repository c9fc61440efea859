"""Damping channel: frozen examples, semigroup law, fixed point."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeam import (
    LossChannel,
    coherent,
    TeleportConfig,
    displace,
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

    @settings(max_examples=200, deadline=None)
    @given(
        gamma_t=st.floats(0.0, allow_infinity=False) | st.sampled_from([1e-300, 0.1, 1e300]),
        m=st.floats(0.0, allow_infinity=False),
        as_array=st.booleans(),
    )
    # 2M + 1 is finite exactly up to M = float max / 2: the largest bath that builds, the
    # smallest that does not, and M = 1e308, whose added variance was inf * 0 = NaN
    @example(gamma_t=0.0, m=0.5 * sys.float_info.max, as_array=False)
    @example(gamma_t=0.0, m=0.5 * sys.float_info.max, as_array=True)
    @example(gamma_t=0.0, m=math.nextafter(0.5 * sys.float_info.max, math.inf), as_array=False)
    @example(gamma_t=0.0, m=1e308, as_array=True)
    def test_every_channel_that_builds_has_finite_figures(self, gamma_t, m, as_array):
        gamma_t, m = (np.array([0.0, v]) if as_array else v for v in (gamma_t, m))
        if 2.0 * float(np.max(m)) + 1.0 == math.inf:
            with pytest.raises(ValueError, match=r"^the channel noise \(2M \+ 1\)\(1 - e\^\{-gamma_t\}\) overflows$"):
                LossChannel(gamma_t, m)
            return
        channel = LossChannel(gamma_t, m)
        assert np.isfinite(channel.transmission).all()
        assert np.isfinite(channel.added_variance).all()


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
            # the noise is appended to the factor and re-triangularized by a QR:
            # entry (i, j) within 4 eps of its own scale sqrt(want_ii want_jj)
            # (4 eps relative on the diagonal), a zero entry included
            entry_scale = np.sqrt(np.outer(want.diagonal(), want.diagonal()))
            err = np.abs(out.cov - want) / entry_scale
            assert err.max() <= 4 * np.finfo(float).eps, err.max()
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


class TestKappaContribution:
    # at eta = 1, kappa^2 is the squeezing and channel damping contribution alone
    def test_frozen_example(self):
        assert TeleportConfig(LN2, LN2, 1.0).kappa_sq == pytest.approx(1.625, abs=1e-13)

    @pytest.mark.parametrize("r", [0.0, LN2, 2.0])
    @pytest.mark.parametrize("gamma_t", [0.0, LN2, 1.0])
    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
    def test_equals_four_times_evolved_variance(self, r, gamma_t, m):
        ch = LossChannel(gamma_t, m)
        evolved = evolve(twb(r), ch)
        assert TeleportConfig(r, gamma_t, m).kappa_sq == pytest.approx(
            4.0 * _sigma_minus_sq(evolved), abs=1e-12
        )

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValueError):
            TeleportConfig(-0.1, 0.2).kappa_sq

    def test_thermal_input_relaxes_monotonically(self):
        # variance moves toward the bath value from either side
        hot = evolve(thermal(3.0), LossChannel(0.5, 0.0))
        cold = evolve(thermal(0.0), LossChannel(0.5, 3.0))
        assert 0.25 < hot.cov[0, 0] < thermal(3.0).cov[0, 0]
        assert 0.25 < cold.cov[0, 0] < thermal(3.0).cov[0, 0]
