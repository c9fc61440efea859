"""Remote preparation and teleportation: closed forms, identities, MC."""

import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeam import (
    IMPOSSIBLE,
    DoubleHomodyneSetting,
    GaussianOperator,
    HomodyneSetting,
    LossChannel,
    RemotePrepResult,
    TeleportConfig,
    coherent,
    condition_homodyne,
    decompose_single_mode,
    displace,
    double_homodyne_condition,
    eta_threshold,
    evolve,
    fidelity_coherent,
    overlap,
    photon_number,
    remote_prep,
    sample_double_homodyne,
    squeezing_from_photon_number,
    teleport_gaussian,
    teleport_monte_carlo,
    twb,
    vacuum,
)
from twinbeam.protocols import MC_BLOCK

LN2 = math.log(2.0)
N_GRID = (0.1, 1.0, 5.0, 20.0)


class TestRemotePrep:
    def test_frozen_example(self):
        # N = 1, eta = 0.8, x = 0.5
        res = remote_prep(squeezing_from_photon_number(1.0), 0.8, 0.5)
        assert res.a_x_eta == pytest.approx(0.38490017945975047, abs=1e-13)
        assert res.sigma1_sq == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert res.sigma2_sq == pytest.approx(0.5, abs=1e-14)
        assert res.n_th == pytest.approx(0.07735026918962584, abs=1e-13)
        assert res.r_squeeze == pytest.approx(0.27465307216702745, abs=1e-13)
        assert res.is_squeezed
        assert res.outcome_density == pytest.approx(0.425930674029803, abs=1e-14)

    def test_ideal_limit(self):
        res = remote_prep(squeezing_from_photon_number(1.0), 1.0, 0.5)
        assert res.a_x_eta == pytest.approx(0.4330127018922193, abs=1e-13)
        assert res.sigma1_sq == pytest.approx(0.125, abs=1e-14)
        assert res.n_th == 0.0
        assert res.r_squeeze == pytest.approx(0.34657359027997264, abs=1e-14)

    @pytest.mark.parametrize("n", N_GRID)
    @pytest.mark.parametrize("eta", (0.55, 0.8, 1.0))
    @pytest.mark.parametrize("x", (-2.0, 0.7))
    def test_pipeline_equivalence(self, n, eta, x):
        # the closed forms must match conditioning plus decomposition
        r = squeezing_from_photon_number(n)
        res = remote_prep(r, eta, x)
        out = condition_homodyne(twb(r), HomodyneSetting(mode=0, efficiency=eta), x)
        dec = decompose_single_mode(out.state)
        assert out.state.mean[0] == pytest.approx(res.a_x_eta, abs=1e-12)
        assert out.state.cov[0, 0] == pytest.approx(res.sigma1_sq, abs=1e-12)
        assert out.state.cov[1, 1] == pytest.approx(res.sigma2_sq, abs=1e-12)
        assert out.probability_density == pytest.approx(res.outcome_density, abs=1e-12)
        assert dec.n_th == pytest.approx(res.n_th, abs=1e-11)
        assert dec.squeeze_r == pytest.approx(res.r_squeeze, abs=1e-11)

    @pytest.mark.parametrize("n", N_GRID)
    def test_determinant_identity(self, n):
        # 2 n_th + 1 = 4 sqrt(sigma1 sigma2)
        res = remote_prep(squeezing_from_photon_number(n), 0.8, 0.0)
        assert 2.0 * res.n_th + 1.0 == pytest.approx(
            4.0 * math.sqrt(res.sigma1_sq * res.sigma2_sq), abs=1e-12
        )

    def test_squeezing_verdict_triplet(self):
        r = squeezing_from_photon_number(1.0)
        verdicts = [remote_prep(r, eta, 0.0).is_squeezed for eta in (0.4, 0.5, 0.6)]
        assert verdicts == [False, False, True]

    def test_validation(self):
        with pytest.raises(ValueError):
            remote_prep(-0.1, 0.8, 0.0)
        with pytest.raises(ValueError):
            remote_prep(0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            remote_prep(0.5, 1.1, 0.0)

    @pytest.mark.parametrize(
        "r, eta, x",
        [
            (math.nan, 0.8, 0.1),
            (math.inf, 0.8, 0.1),
            (0.5, math.nan, 0.1),
            (0.5, 0.8, math.nan),
            (0.5, 0.8, math.inf),
            (200.0, 0.8, 0.1),  # the squared photon number overflows
            (400.0, 0.8, 0.1),  # the photon number itself overflows
            (10.0, 0.8, 1e300),  # the heralded displacement overflows
        ],
    )
    def test_rejects_non_finite_and_overflow(self, r, eta, x):
        with pytest.raises(ValueError):
            remote_prep(r, eta, x)

    def test_zero_beam_prepares_vacuum_stats(self):
        res = remote_prep(0.0, 0.9, 1.0)
        assert res.a_x_eta == 0.0
        assert res.sigma1_sq == pytest.approx(0.25, abs=1e-15)
        assert res.sigma2_sq == pytest.approx(0.25, abs=1e-15)
        assert not res.is_squeezed


class TestTeleportConfig:
    def test_kappa_frozen(self):
        config = TeleportConfig(r=LN2, gamma_t=LN2, thermal_photons=1.0, eta=0.8)
        assert config.kappa_sq == pytest.approx(1.875, abs=1e-13)
        ideal = TeleportConfig(r=LN2)
        assert ideal.kappa_sq == pytest.approx(0.25, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            TeleportConfig(r=-0.5)
        with pytest.raises(ValueError):
            TeleportConfig(r=0.5, eta=0.0)
        with pytest.raises(ValueError):
            TeleportConfig(r=0.5, gamma_t=-1.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"r": math.nan},
            {"r": math.inf},
            {"r": 0.5, "gamma_t": math.nan},
            {"r": 0.5, "gamma_t": math.inf},
            {"r": 0.5, "thermal_photons": math.nan},
            {"r": 0.5, "thermal_photons": math.inf},
            {"r": 0.5, "eta": math.nan},
        ],
    )
    def test_rejects_non_finite(self, fields):
        with pytest.raises(ValueError):
            TeleportConfig(**fields)


class TestOneConfiguration:
    GRIDS = [
        TeleportConfig(r=np.array([0.5, 0.6])),
        TeleportConfig(r=0.5, eta=np.array([0.9])),
        TeleportConfig(r=0.5, gamma_t=np.array([[0.1], [0.2]]), thermal_photons=np.array([0.0, 0.3])),
    ]

    @pytest.mark.parametrize("config", GRIDS)
    def test_simulations_reject_a_grid(self, config):
        with pytest.raises(ValueError, match="one configuration"):
            teleport_gaussian(coherent(0.0), config)
        with pytest.raises(ValueError, match="one configuration"):
            teleport_monte_carlo(0.0, config, 10, 1)

    def test_zero_dimensional_fields_are_one_configuration(self):
        config = TeleportConfig(r=np.array(0.5), eta=np.float64(0.9))
        want = teleport_gaussian(coherent(0.0), TeleportConfig(r=0.5, eta=0.9)).cov
        np.testing.assert_array_equal(teleport_gaussian(coherent(0.0), config).cov, want)


class TestTeleportGaussian:
    def test_adds_half_kappa_per_quadrature(self):
        config = TeleportConfig(r=0.3, gamma_t=0.2, thermal_photons=0.4, eta=0.9)
        out = teleport_gaussian(coherent(1.0 + 1.0j), config)
        np.testing.assert_allclose(out.mean, [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            out.cov, (0.25 + 0.5 * config.kappa_sq) * np.eye(2), atol=1e-14
        )
        # the hand formula teleport_gaussian replaced, on a squeezed input; the
        # noise is appended to the factor and re-triangularized: 4 eps of the scale
        state = GaussianOperator(mean=[0.3, -1.2], cov=[[0.9, 0.4], [0.4, 0.3]])
        for s in (coherent(1.0 + 1.0j), state):
            out = teleport_gaussian(s, config)
            np.testing.assert_array_equal(out.mean, s.mean)
            want = s.cov + 0.5 * config.kappa_sq * np.eye(2)
            np.testing.assert_allclose(out.cov, want, rtol=0, atol=4 * np.finfo(float).eps * np.abs(want).max())

    def test_requires_single_mode(self):
        with pytest.raises(ValueError):
            teleport_gaussian(twb(0.2), TeleportConfig(r=0.5))

    @pytest.mark.parametrize("z", [0.0, 2.0, -1.0 + 3.0j])
    @pytest.mark.parametrize(
        "config",
        [
            TeleportConfig(r=0.0),
            TeleportConfig(r=LN2),
            TeleportConfig(r=LN2, gamma_t=LN2, thermal_photons=1.0, eta=0.8),
            TeleportConfig(r=2.0, gamma_t=1.0, thermal_photons=0.5, eta=0.7),
        ],
    )
    def test_fidelity_identity(self, z, config):
        # overlap with the teleported state equals 1/(1 + kappa^2)
        out = teleport_gaussian(coherent(z), config)
        expected = 1.0 / (1.0 + config.kappa_sq)
        assert overlap(coherent(z), out) == pytest.approx(expected, abs=1e-12)
        assert fidelity_coherent(config) == pytest.approx(expected, abs=1e-15)

    def test_classical_boundary(self):
        assert fidelity_coherent(TeleportConfig(r=0.0)) == 0.5

    def test_frozen_fidelities(self):
        # kappa^2 = 1/8 + 3/2 = 1.625 at perfect detection
        assert fidelity_coherent(
            TeleportConfig(r=LN2, gamma_t=LN2, thermal_photons=1.0)
        ) == pytest.approx(0.38095238095238093, abs=1e-14)
        assert fidelity_coherent(
            TeleportConfig(r=LN2, gamma_t=LN2, thermal_photons=1.0, eta=0.8)
        ) == pytest.approx(0.34782608695652173, abs=1e-14)

    def test_monotonicity(self):
        base = dict(gamma_t=0.4, thermal_photons=0.5, eta=0.8)
        fids = [fidelity_coherent(TeleportConfig(r=r, **base)) for r in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(fids, fids[1:]))
        fids = [
            fidelity_coherent(TeleportConfig(r=1.0, gamma_t=g, thermal_photons=0.5, eta=0.8))
            for g in (0.0, 0.3, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(fids, fids[1:]))
        fids = [
            fidelity_coherent(TeleportConfig(r=1.0, gamma_t=0.3, thermal_photons=0.5, eta=e))
            for e in (0.5, 0.7, 0.9, 1.0)
        ]
        assert all(a < b for a, b in zip(fids, fids[1:]))


class TestEtaThreshold:
    def test_frozen_values(self):
        assert eta_threshold(LN2, 0.0, 0.0) == pytest.approx(
            0.5714285714285714, abs=1e-15
        )
        assert eta_threshold(0.0, 0.0, 0.0) == 1.0
        assert eta_threshold(0.1, 1.0, 1.0) == IMPOSSIBLE

    @pytest.mark.parametrize("r", [0.0, 0.2, 1.0, 3.0])
    @pytest.mark.parametrize("gamma_t", [0.0, 0.5, 2.0, 10.0])
    def test_vacuum_bath_always_feasible(self, r, gamma_t):
        thr = eta_threshold(r, gamma_t, 0.0)
        assert thr != IMPOSSIBLE
        assert 0.5 <= thr <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(0.0, 20.0), gamma_t=st.floats(0.0, 50.0), as_array=st.booleans())
    def test_vacuum_bath_is_never_impossible(self, r, gamma_t, as_array):
        # no epsilon: at M = 0 the exact test's bath side is 0
        args = (np.array([r]), np.array([gamma_t]), np.array([0.0])) if as_array else (r, gamma_t, 0.0)
        assert IMPOSSIBLE not in np.ravel(eta_threshold(*args))

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("r, gamma_t", [(0.05, 1.0), (0.3, 0.2), (1.5, 0.05)])
    def test_bath_just_past_the_boundary_is_impossible(self, r, gamma_t, as_array):
        # M with a - 1 = +-1e-9, a = e^{-gamma_t - 2r} + (2M + 1)(1 - e^{-gamma_t})
        t = math.exp(-gamma_t)
        for delta, impossible in ((1e-9, True), (-1e-9, False)):
            m = (t * -math.expm1(-2.0 * r) + delta) / (2.0 * -math.expm1(-gamma_t))
            a = TeleportConfig(r, gamma_t, m).kappa_sq
            assert a - 1.0 == pytest.approx(delta, rel=1e-3)
            args = (np.array([r]), np.array([gamma_t]), np.array([m])) if as_array else (r, gamma_t, m)
            assert (IMPOSSIBLE in np.ravel(eta_threshold(*args))) == impossible

    @pytest.mark.parametrize(
        "r, gamma_t, m",
        [(LN2, 0.0, 0.0), (LN2, 0.2, 0.3), (1.0, 0.5, 0.2), (2.0, 0.1, 1.0)],
    )
    def test_fidelity_is_one_half_at_threshold(self, r, gamma_t, m):
        thr = eta_threshold(r, gamma_t, m)
        assert thr != IMPOSSIBLE
        config = TeleportConfig(r=r, gamma_t=gamma_t, thermal_photons=m, eta=thr)
        assert fidelity_coherent(config) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("gamma_t", [0.1, 0.8, 2.0])
    @pytest.mark.parametrize("m", [0.2, 1.0, 3.0])
    def test_squeezing_bound_equivalence(self, r, gamma_t, m):
        # impossible exactly when e^{-2r} > (2M+1) - 2M e^{gamma_t}
        impossible = eta_threshold(r, gamma_t, m) == IMPOSSIBLE
        bound = (2.0 * m + 1.0) - 2.0 * m * math.exp(gamma_t)
        assert impossible == (math.exp(-2.0 * r) > bound + 1e-12)

    @pytest.mark.parametrize(
        "r, gamma_t, m",
        [(math.nan, 0.5, 0.0), (0.5, math.nan, 0.0), (0.5, 0.5, math.nan), (math.inf, 0.5, 0.0)],
    )
    def test_rejects_non_finite(self, r, gamma_t, m):
        with pytest.raises(ValueError):
            eta_threshold(r, gamma_t, m)

    def test_threshold_matches_contribution(self):
        a = TeleportConfig(0.9, 0.4, 0.6).kappa_sq
        assert eta_threshold(0.9, 0.4, 0.6) == pytest.approx(1.0 / (2.0 - a), rel=1e-14)


class TestBroadcast:
    def test_grid_equals_scalar_calls(self):
        rng = np.random.default_rng(5)
        r = np.append(rng.uniform(0.0, 3.0, 40), 0.0).reshape(-1, 1, 1, 1)
        gamma_t = np.append(rng.uniform(0.0, 2.0, 15), 1.0).reshape(-1, 1, 1)
        m = np.array([0.0, 1.0]).reshape(-1, 1)
        grid = TeleportConfig(r, gamma_t, m, np.array([0.6, 1.0]))
        kappa_sq = grid.kappa_sq
        fidelity = fidelity_coherent(grid)
        threshold = eta_threshold(r, gamma_t, m)
        assert kappa_sq.shape == fidelity.shape == (41, 16, 2, 2)
        assert threshold.shape == (41, 16, 2, 1)
        assert IMPOSSIBLE in threshold
        for i, j, k, n in np.ndindex(kappa_sq.shape):
            config = TeleportConfig(r[i, 0, 0, 0], gamma_t[j, 0, 0], m[k, 0], grid.eta[n])
            assert kappa_sq[i, j, k, n] == config.kappa_sq
            assert fidelity[i, j, k, n] == fidelity_coherent(config)
            assert threshold[i, j, k, 0] == eta_threshold(config.r, config.gamma_t, config.thermal_photons)
        # numbers still give Python floats
        a = TeleportConfig(0.9, 0.4, 0.6).kappa_sq
        assert type(a) is type(eta_threshold(0.9, 0.4, 0.6)) is type(TeleportConfig(0.9).kappa_sq) is float

    @pytest.mark.parametrize(
        "r, gamma_t, m, eta",
        [([0.5, math.nan], 0.0, 0.0, 1.0), (0.5, [0.0, -1.0], 0.0, 1.0), (0.5, 0.0, [0.0, math.inf], 1.0), (0.5, 0.0, 0.0, [0.9, 0.0])],
    )
    def test_rejects_any_invalid_element(self, r, gamma_t, m, eta):
        r, gamma_t, m, eta = (np.asarray(v) for v in (r, gamma_t, m, eta))
        with pytest.raises(ValueError):
            TeleportConfig(r, gamma_t, m, eta)
        if eta.ndim == 0:
            with pytest.raises(ValueError):
                eta_threshold(r, gamma_t, m)

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6),
        # efficiencies whose excess noise (1 - eta)/eta is finite, as remote_prep requires
        eta=st.lists(st.floats(math.ldexp(1.0, -1024), 1.0, exclude_min=True), min_size=1, max_size=4),
        x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
    )
    # 2 sinh(r)^2 with an array's ** 2 (x * x, not C pow) moves N here by 1 ulp
    @example(r=[2.8984114981603737], eta=[0.8], x=[0.3])
    def test_remote_prep_grid_equals_scalar_calls_bit_for_bit(self, r, eta, x):
        axes = np.reshape(r, (-1, 1, 1)), np.reshape(eta, (-1, 1)), np.array(x)
        grid = remote_prep(*axes)
        n = photon_number(axes[0])
        for i, j, k in np.ndindex(len(r), len(eta), len(x)):
            point = remote_prep(r[i], eta[j], x[k])
            assert float.hex(n[i, 0, 0]) == float.hex(photon_number(r[i]))
            for field in fields(RemotePrepResult):
                want = getattr(point, field.name)
                got = np.broadcast_to(getattr(grid, field.name), (len(r), len(eta), len(x)))[i, j, k]
                if field.name == "is_squeezed":
                    assert type(want) is bool and got == want
                else:
                    assert type(want) is float and float.hex(float(got)) == float.hex(want)


class TestOverflow:
    """Figures that would not be finite raise ValueError, for numbers and
    arrays alike; a numpy warning on the way would fail the test."""

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("gamma_t", [0.0, 0.1])
    def test_bath_noise_overflow_raises(self, gamma_t, as_array):
        # 2M + 1 overflows: inf * 0 at gamma_t = 0, inf beyond; the channel,
        # and so every config and threshold, refuses it where it is built
        r, gamma_t, m = (np.array([v]) if as_array else v for v in (0.3, gamma_t, 1e308))
        message = r"^the channel noise \(2M \+ 1\)\(1 - e\^\{-gamma_t\}\) overflows$"
        for build in (
            lambda: LossChannel(gamma_t, m),
            lambda: TeleportConfig(r, gamma_t, m),
            lambda: eta_threshold(r, gamma_t, m),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize(
        "r, message",
        [
            (300.0, "the closed forms overflow at r=300.0, x=0.0"),  # N (N + 2) = inf; inf * 0
            (400.0, "photon number overflows at r=400.0"),
            (355.4, "photon number overflows at r=355.4"),  # sinh^2 r is finite, 2 sinh^2 r is not
        ],
    )
    def test_remote_prep_overflow_names_the_point(self, r, message, as_array):
        # an array's first offending point in C order: r = 300 (or 400), x = 0
        args = (np.array([[0.5], [r]]), 0.8, np.array([0.0, 1.0])) if as_array else (r, 0.8, 0.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            remote_prep(*args)

    @pytest.mark.parametrize("eta", [5e-324, np.array([0.9, 5e-324])])
    def test_efficiency_noise_overflow_raises(self, eta):
        # (1 - eta)/eta overflows: the config refuses eta where it is built
        with pytest.raises(ValueError, match="^eta 5e-324 is too small: its record noise overflows$"):
            TeleportConfig(0.3, eta=eta)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_kappa_sq_of_finite_terms_that_overflow_raises(self, as_array):
        # each term is finite, their sum is not
        r, gamma_t, m, eta = (np.array([v]) if as_array else v for v in (0.3, 50.0, 8e307, 1e-308))
        config = TeleportConfig(r, gamma_t, m, eta)
        for figure in (lambda: config.kappa_sq, lambda: fidelity_coherent(config)):
            with pytest.raises(ValueError, match="^kappa_sq overflows$"):
                figure()


class TestMonteCarlo:
    def test_deterministic(self):
        config = TeleportConfig(r=LN2, gamma_t=0.3, thermal_photons=0.5, eta=0.9)
        a = teleport_monte_carlo(1.0 + 0.5j, config, n_samples=2000, seed=9)
        b = teleport_monte_carlo(1.0 + 0.5j, config, n_samples=2000, seed=9)
        assert a == b
        assert a != teleport_monte_carlo(1.0 + 0.5j, config, n_samples=2000, seed=10)

    @pytest.mark.parametrize("z", [0.0, 1.2 - 0.7j])
    @pytest.mark.parametrize(
        "config",
        [
            TeleportConfig(r=LN2),
            TeleportConfig(r=0.6, gamma_t=0.4, thermal_photons=0.8, eta=0.75),
        ],
    )
    def test_statistical_agreement(self, z, config):
        estimate = teleport_monte_carlo(z, config, n_samples=40_000, seed=123)
        assert estimate == pytest.approx(fidelity_coherent(config), abs=0.01)

    def test_pinned_estimate(self):
        # the estimate of the record-by-record pipeline, pinned across rewrites
        config = TeleportConfig(0.9, 0.3, 0.2, 0.8)
        estimate = teleport_monte_carlo(0.3 - 0.2j, config, 10**6, 3)
        assert estimate == pytest.approx(0.5762924998392626, rel=1e-12)

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, 2.0, True, "10"])
    def test_sample_count_checked(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            teleport_monte_carlo(0.0, TeleportConfig(r=0.5), n_samples, seed=1)

    @pytest.mark.parametrize("seed", [2.7, True, "3", -1])
    def test_seed_checked(self, seed):
        # a float, bool or string seed is not rounded or parsed into another seed
        with pytest.raises(ValueError, match="seed"):
            teleport_monte_carlo(0.1, TeleportConfig(0.5), 100, seed)

    @pytest.mark.parametrize(
        "config",
        [
            TeleportConfig(r=LN2),
            TeleportConfig(r=0.6, gamma_t=0.4, thermal_photons=0.8, eta=0.75),
            TeleportConfig(0.9, 0.3, 0.2, 0.8),
        ],
    )
    def test_blocks_equal_one_shot_pipeline(self, config):
        # the one-shot pipeline of the README, on all records at once: the
        # blocked estimate must equal it exactly, at and around block edges
        z = 0.3 - 0.2j
        resource = evolve(twb(config.r), config.channel())
        setting = DoubleHomodyneSetting(reference=coherent(z), efficiency=config.eta)
        block = MC_BLOCK
        for n in (1, 63, 64, 65, block - 1, block, block + 1, 250_001):
            alphas = sample_double_homodyne(resource, setting, n, n)
            states = double_homodyne_condition(resource, setting, alphas).state
            one_shot = float(np.mean(overlap(displace(states, 0, -alphas), coherent(z))))
            assert teleport_monte_carlo(z, config, n, n) == one_shot, n

    def test_memory_stays_bounded(self):
        # a million records stream through blocks: only the fidelities are
        # kept whole (8 MB), not the records, means and densities
        config = TeleportConfig(0.9, 0.3, 0.2, 0.8)
        tracemalloc.start()
        try:
            teleport_monte_carlo(0.3 - 0.2j, config, 10**6, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_numpy_sample_count(self):
        config = TeleportConfig(r=0.5)
        assert teleport_monte_carlo(0.1, config, np.int64(50), 2) == teleport_monte_carlo(0.1, config, 50, 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            teleport_monte_carlo(0.0, TeleportConfig(r=0.5), n_samples=0, seed=1)
        # closed forms accept r = 400; the twin-beam covariance overflows
        with pytest.raises(ValueError):
            teleport_monte_carlo(0, TeleportConfig(r=400), 10, 1)


def test_impossible_literal_value():
    assert IMPOSSIBLE == "impossible"


def test_vacuum_is_not_special_cased():
    # teleporting vacuum through an ideal infinite-squeezing-free setup
    out = teleport_gaussian(vacuum(1), TeleportConfig(r=0.0))
    np.testing.assert_allclose(out.cov, 0.75 * np.eye(2), atol=1e-15)
