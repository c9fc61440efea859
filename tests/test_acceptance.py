"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every expected number below is recomputed inline from the
closed-form expressions, independent of the library internals it is
checking.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from twinbeam import (
    HomodyneSetting,
    IMPOSSIBLE,
    LossChannel,
    TeleportConfig,
    coherent,
    condition_homodyne,
    decompose_single_mode,
    eta_threshold,
    evolve,
    fidelity_coherent,
    overlap,
    remote_prep,
    squeeze,
    squeezing_from_photon_number,
    teleport_gaussian,
    teleport_monte_carlo,
    twb,
)
from twinbeam.cli import (
    DENSITY_TOL,
    MOMENT_TOL,
    PURITY_TOL,
    run_oracle_check,
)

N_GRID = (0.1, 1.0, 5.0, 20.0)
X_GRID = (-2.0, 0.0, 0.7, 1.3)


@contextlib.contextmanager
def criterion(number, label):
    """Print one ACCEPTANCE verdict line for the enclosed checks."""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS: {label}", flush=True)


def closed_forms(n, eta, x):
    """Independent reference values for the conditional state."""
    a_x = eta * math.sqrt(n * (n + 2.0)) * x / (1.0 + eta * n)
    s1 = 0.25 * (1.0 + n * (1.0 - eta)) / (1.0 + eta * n)
    s2 = 0.25 * (1.0 + n)
    n_th = 0.5 * (math.sqrt((1.0 + n) * (1.0 + n * (1.0 - eta)) / (1.0 + eta * n)) - 1.0)
    r_sq = 0.25 * math.log((1.0 + n) * (1.0 + eta * n) / (1.0 + n * (1.0 - eta)))
    record_var = (1.0 + n) / 4.0 + (1.0 - eta) / (4.0 * eta)
    density = math.exp(-0.5 * x * x / record_var) / math.sqrt(2.0 * math.pi * record_var)
    return a_x, s1, s2, n_th, r_sq, density


def conditioned(n, eta, x):
    r = squeezing_from_photon_number(n)
    setting = HomodyneSetting(mode=0, phase=0.0, efficiency=eta)
    return condition_homodyne(twb(r), setting, x)


def test_01_ideal_conditioning_matches_closed_forms():
    with criterion(1, "ideal heralded state matches closed forms to 1e-12"):
        for n in N_GRID:
            for x in X_GRID:
                a_x, s1, s2, n_th, r_sq, density = closed_forms(n, 1.0, x)
                res = remote_prep(squeezing_from_photon_number(n), 1.0, x)
                out = conditioned(n, 1.0, x)
                for got, want in (
                    (res.a_x_eta, a_x),
                    (res.sigma1_sq, s1),
                    (res.sigma2_sq, s2),
                    (res.n_th, n_th),
                    (res.r_squeeze, r_sq),
                    (res.outcome_density, density),
                    (out.state.mean[0], a_x),
                    (out.state.cov[0, 0], s1),
                    (out.state.cov[1, 1], s2),
                    (out.state.cov[0, 1], 0.0),
                    (out.probability_density, density),
                ):
                    assert got == pytest.approx(want, abs=1e-12)


def test_02_noisy_conditioning_matches_closed_forms():
    with criterion(2, "noisy-record heralded state matches closed forms to 1e-12"):
        for eta in (0.55, 0.8):
            for n in N_GRID:
                for x in X_GRID:
                    a_x, s1, s2, n_th, r_sq, density = closed_forms(n, eta, x)
                    res = remote_prep(squeezing_from_photon_number(n), eta, x)
                    out = conditioned(n, eta, x)
                    assert res.a_x_eta == pytest.approx(a_x, abs=1e-12)
                    assert res.sigma1_sq == pytest.approx(s1, abs=1e-12)
                    assert res.sigma2_sq == pytest.approx(s2, abs=1e-12)
                    assert res.outcome_density == pytest.approx(density, abs=1e-12)
                    assert out.state.mean[0] == pytest.approx(a_x, abs=1e-12)
                    assert out.state.cov[0, 0] == pytest.approx(s1, abs=1e-12)
                    assert out.state.cov[1, 1] == pytest.approx(s2, abs=1e-12)
                    dec = decompose_single_mode(out.state)
                    assert dec.n_th == pytest.approx(n_th, abs=1e-12)
                    assert dec.squeeze_r == pytest.approx(r_sq, abs=1e-12)
                    # thermal occupation and the two variances are one datum
                    assert 2.0 * n_th + 1.0 == pytest.approx(
                        4.0 * math.sqrt(s1 * s2), abs=1e-12
                    )


def test_03_half_efficiency_boundary():
    with criterion(3, "eta = 1/2 pins the heralded variance at vacuum"):
        for n in N_GRID:
            res = remote_prep(squeezing_from_photon_number(n), 0.5, 0.3)
            assert abs(res.sigma1_sq - 0.25) <= 1e-14
            assert res.is_squeezed is False
            out = conditioned(n, 0.5, 0.3)
            assert abs(out.state.cov[0, 0] - 0.25) <= 1e-13
        for n in (1.0, 5.0):
            r = squeezing_from_photon_number(n)
            below = remote_prep(r, 0.5 - 1e-9, 0.0).is_squeezed
            above = remote_prep(r, 0.5 + 1e-9, 0.0).is_squeezed
            assert below is False and above is True
        verdicts = [remote_prep(1.0, eta, 0.0).is_squeezed for eta in (0.4, 0.5, 0.6)]
        assert verdicts == [False, False, True]


def test_04_number_basis_oracle_agrees():
    with criterion(4, "number-basis oracle grid within tolerances in under 10 s"):
        start = time.perf_counter()
        rows = run_oracle_check(
            (0.3, 1.0 / math.sqrt(3.0), 0.8), (0.6, 0.8, 1.0), (-1.0, 0.0, 0.7)
        ).rows()
        elapsed = time.perf_counter() - start
        assert len(rows) == 27
        for row in rows:
            assert row["pass"] is True
            assert row["max_moment_err"] <= MOMENT_TOL
            assert row["purity_err"] <= PURITY_TOL
            assert row["density_err"] <= DENSITY_TOL
        assert elapsed < 10.0


def test_05_kappa_decomposition():
    with criterion(5, "kappa^2 equals damped two-mode squeezing plus record noise"):
        for r in (0.0, math.log(2.0), 2.0):
            for gamma_t in (0.0, math.log(2.0), 1.0):
                for m in (0.0, 0.5, 1.0):
                    channel = LossChannel(gamma_t=gamma_t, thermal_photons=m)
                    damped = evolve(twb(r), channel)
                    # variance of (x_1 - x_2)/sqrt(2) after damping both arms
                    var_minus = 0.5 * (
                        damped.cov[0, 0] + damped.cov[2, 2] - 2.0 * damped.cov[0, 2]
                    )
                    assert 4.0 * var_minus == pytest.approx(
                        TeleportConfig(r, gamma_t, m).kappa_sq, abs=1e-12
                    )
                    for eta in (0.7, 1.0):
                        config = TeleportConfig(
                            r=r, gamma_t=gamma_t, thermal_photons=m, eta=eta
                        )
                        want = 4.0 * var_minus + (1.0 - eta) / eta
                        assert config.kappa_sq == pytest.approx(want, abs=1e-12)


def test_06_fidelity_is_overlap():
    with criterion(6, "coherent-state fidelity equals the output overlap"):
        for r in (0.0, math.log(2.0)):
            for gamma_t in (0.0, 0.5):
                for m in (0.0, 1.0):
                    for eta in (0.8, 1.0):
                        config = TeleportConfig(
                            r=r, gamma_t=gamma_t, thermal_photons=m, eta=eta
                        )
                        want = 1.0 / (1.0 + config.kappa_sq)
                        assert fidelity_coherent(config) == pytest.approx(want, abs=1e-12)
                        for z in (0.0, 2.0, -1.0 + 3.0j):
                            state = coherent(z)
                            got = overlap(state, teleport_gaussian(state, config))
                            assert got == pytest.approx(want, abs=1e-12)
        assert fidelity_coherent(TeleportConfig(r=0.0)) == 0.5


def test_07_efficiency_threshold():
    with criterion(7, "vacuum-bath threshold always exists and sits at fidelity 1/2"):
        for r in (0.0, 0.3, 1.0, 2.0):
            for gamma_t in (0.0, 0.5, 2.0, 10.0):
                assert eta_threshold(r, gamma_t, 0.0) != IMPOSSIBLE
        assert eta_threshold(0.1, 1.0, 1.0) == IMPOSSIBLE
        for r, gamma_t, m in (
            (math.log(2.0), math.log(2.0), 0.25),
            (1.0, 0.3, 0.0),
            (0.4, 0.1, 0.6),
        ):
            eta_min = eta_threshold(r, gamma_t, m)
            assert eta_min != IMPOSSIBLE and eta_min < 1.0
            config = TeleportConfig(r=r, gamma_t=gamma_t, thermal_photons=m, eta=eta_min)
            assert fidelity_coherent(config) == pytest.approx(0.5, abs=1e-12)


def test_08_monte_carlo_estimator():
    with criterion(8, "Monte Carlo fidelity matches the closed form in under 5 s"):
        start = time.perf_counter()
        config = TeleportConfig(r=math.log(2.0))  # kappa^2 = 1/4, F = 0.8
        est = teleport_monte_carlo(0.9 + 0.2j, config, n_samples=100_000, seed=20260817)
        assert abs(est - 0.8) <= 0.012
        assert teleport_monte_carlo(
            0.9 + 0.2j, config, n_samples=100_000, seed=20260817
        ) == est
        runs = np.array(
            [
                teleport_monte_carlo(0.9 + 0.2j, config, n_samples=5_000, seed=seed)
                for seed in range(20)
            ]
        )
        stderr = runs.std(ddof=1) / math.sqrt(len(runs))
        assert abs(runs.mean() - 0.8) <= 3.0 * stderr
        assert time.perf_counter() - start < 5.0


def test_09_channel_semigroup_and_fixed_point():
    with criterion(9, "loss channel composes as a semigroup and relaxes to the bath"):
        seed_state = squeeze(coherent(1.0 - 0.5j), 0, 0.6, 0.4)
        for g1 in (0.2, 0.7):
            for g2 in (0.2, 0.7):
                for m in (0.0, 0.5, 1.3):
                    two_step = evolve(
                        evolve(seed_state, LossChannel(g1, m)), LossChannel(g2, m)
                    )
                    one_step = evolve(seed_state, LossChannel(g1 + g2, m))
                    np.testing.assert_allclose(two_step.mean, one_step.mean, atol=1e-12)
                    np.testing.assert_allclose(two_step.cov, one_step.cov, atol=1e-12)
        for m in (0.0, 0.5, 1.3):
            relaxed = evolve(seed_state, LossChannel(1e3, m))
            np.testing.assert_allclose(relaxed.mean, 0.0, atol=1e-9)
            np.testing.assert_allclose(
                relaxed.cov, (2.0 * m + 1.0) / 4.0 * np.eye(2), atol=1e-9
            )
