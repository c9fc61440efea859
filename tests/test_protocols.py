"""Remote preparation and teleportation: closed forms, identities, MC."""

import math
import tracemalloc

import numpy as np
import pytest

from twinbeam import (
    IMPOSSIBLE,
    DoubleHomodyneSetting,
    GaussianOperator,
    HomodyneSetting,
    LossChannel,
    TeleportConfig,
    coherent,
    condition_homodyne,
    decompose_single_mode,
    displace,
    double_homodyne_condition,
    effective_kappa_contribution,
    eta_threshold,
    evolve,
    fidelity_coherent,
    overlap,
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
        # the hand formula teleport_gaussian replaced, on a squeezed weighted input
        state = GaussianOperator(mean=[0.3, -1.2], cov=[[0.9, 0.4], [0.4, 0.3]], weight=1.7)
        for s in (coherent(1.0 + 1.0j), state):
            out = teleport_gaussian(s, config)
            np.testing.assert_array_equal(out.mean, s.mean)
            np.testing.assert_array_equal(out.cov, s.cov + 0.5 * config.kappa_sq * np.eye(2))
            assert out.weight == s.weight

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
        a = effective_kappa_contribution(0.9, LossChannel(0.4, 0.6))
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
        a = effective_kappa_contribution(0.9, LossChannel(0.4, 0.6))
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


class TestOverflow:
    """Figures that would not be finite raise ValueError, for numbers and
    arrays alike; a numpy warning on the way would fail the test."""

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("gamma_t", [0.0, 0.1])
    def test_bath_noise_overflow_raises(self, gamma_t, as_array):
        # 2M + 1 overflows: inf * 0 at gamma_t = 0, inf beyond
        r, gamma_t, m = (np.array([v]) if as_array else v for v in (0.3, gamma_t, 1e308))
        config = TeleportConfig(r, gamma_t, m)
        for figure in (
            lambda: effective_kappa_contribution(r, LossChannel(gamma_t, m)),
            lambda: config.kappa_sq,
            lambda: fidelity_coherent(config),
            lambda: eta_threshold(r, gamma_t, m),
        ):
            with pytest.raises(ValueError, match="overflows"):
                figure()

    @pytest.mark.parametrize("eta", [5e-324, np.array([0.9, 5e-324])])
    def test_efficiency_noise_overflow_raises(self, eta):
        config = TeleportConfig(0.3, eta=eta)
        with pytest.raises(ValueError, match="overflows"):
            config.kappa_sq
        with pytest.raises(ValueError, match="overflows"):
            fidelity_coherent(config)


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
