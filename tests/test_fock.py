"""Number-basis oracle: wavefunctions, conditioning, moment extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import (
    DegenerateOutcomeError,
    FockVector,
    HomodyneSetting,
    QuadratureGrid,
    UnphysicalStateError,
    condition_fock,
    condition_homodyne,
    gauss_hermite_grid,
    homodyne_density,
    moments_fock,
    quadrature_wavefunction,
    remote_prep,
    twb,
    twb_fock,
)

LAM_N1 = 1.0 / math.sqrt(3.0)  # twin beam with N = 1
R_N1 = math.atanh(LAM_N1)


def _rho(rows: np.ndarray) -> np.ndarray:
    """The density matrix sum_k |f_k><f_k| = F^T conj(F) of amplitude rows F."""
    return np.swapaxes(rows, -1, -2) @ rows.conj()


def _dense_moments(rho: np.ndarray) -> tuple:
    """Reference moments: traces of rho against products of the truncated
    ladder operator's dense matrices."""
    dim = rho.shape[0]
    a = np.zeros((dim, dim))
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    xq = 0.5 * (a + a.T)
    yq = 0.5j * (a.T - a)
    mean_x = np.trace(rho @ xq).real
    mean_y = np.trace(rho @ yq).real
    var_x = np.trace(rho @ xq @ xq).real - mean_x**2
    var_y = np.trace(rho @ yq @ yq).real - mean_y**2
    cov_xy = np.trace(rho @ (0.5 * (xq @ yq + yq @ xq))).real - mean_x * mean_y
    return mean_x, mean_y, var_x, var_y, cov_xy, np.trace(rho @ rho).real


class TestTwbFock:
    def test_zero_is_double_vacuum(self):
        state = twb_fock(0.0, 4)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(state.amps.real, expected)
        assert state.leakage == 0.0

    def test_amplitudes_and_leakage(self):
        state = twb_fock(0.8, 40)
        diag = np.diagonal(state.amps).real
        np.testing.assert_allclose(
            diag, math.sqrt(1 - 0.64) * 0.8 ** np.arange(41), rtol=1e-14
        )
        assert state.amps[3, 2] == 0.0
        assert state.leakage == pytest.approx(1.130782121458171e-08, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            twb_fock(1.0, 10)
        with pytest.raises(ValueError):
            twb_fock(-0.1, 10)
        with pytest.raises(ValueError):
            twb_fock(0.5, 200)  # dimension cap

    def test_cutoff_cap(self):
        assert twb_fock(0.5, 127).amps.shape == (128, 128)
        with pytest.raises(ValueError, match=r"cutoff must lie in \[0, 127\]"):
            twb_fock(0.5, 128)

    @pytest.mark.parametrize("cutoff", [3.5, 1.0, True, "3", -1])
    def test_cutoff_must_be_an_integer(self, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            twb_fock(0.5, cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            quadrature_wavefunction(0.1, cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            FockVector(cutoff=cutoff, amps=[1.0, 0.0])

    def test_numpy_integer_cutoff(self):
        state = twb_fock(0.5, np.int64(3))
        assert type(state.cutoff) is int
        np.testing.assert_array_equal(state.amps, twb_fock(0.5, 3).amps)

    def test_fock_vector_shape_checks(self):
        with pytest.raises(ValueError):
            FockVector(cutoff=3, amps=np.zeros(3))
        with pytest.raises(ValueError):
            FockVector(cutoff=3, amps=np.zeros((4, 5)))

    def test_real_amplitudes_stay_real(self):
        assert twb_fock(0.5, 10).amps.dtype == np.float64
        assert FockVector(cutoff=1, amps=[1, 0]).amps.dtype == np.float64
        assert FockVector(cutoff=1, amps=[1j, 0]).amps.dtype == np.complex128

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_fock_vector_needs_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="amps must be finite"):
            FockVector(cutoff=1, amps=[bad, 0.0])


class TestWavefunction:
    def test_ground_state(self):
        psi = quadrature_wavefunction(0.0, 3)
        assert psi[0] == pytest.approx(0.8932438417380023, abs=1e-15)
        assert psi[1] == 0.0

    def test_explicit_low_orders(self):
        x = 0.37
        psi = quadrature_wavefunction(x, 2)
        psi0 = (2.0 / math.pi) ** 0.25 * math.exp(-x * x)
        assert psi[0] == pytest.approx(psi0, rel=1e-14)
        assert psi[1] == pytest.approx(2.0 * x * psi0, rel=1e-14)
        assert psi[2] == pytest.approx((2.0 * x * psi[1] - psi0) / math.sqrt(2.0), rel=1e-13)

    def test_far_records_vanish_without_warnings(self):
        # x * x overflows beyond ~1e154 and 2x beyond ~9e307; every psi_p is 0 there
        psi = quadrature_wavefunction(np.array([1e200, -1e308, 1.7e308]), 10)
        assert not psi.any()
        with pytest.raises(DegenerateOutcomeError):
            condition_fock(twb_fock(0.3, 20), 1e308, 0.8)

    def test_orthonormality(self):
        # trapezoid on a wide grid resolves the p, q <= 20 Gram matrix
        xs = np.linspace(-9.0, 9.0, 6001)
        table = quadrature_wavefunction(xs, 20)
        gram = np.trapezoid(table[:, :, None] * table[:, None, :], xs, axis=0)
        np.testing.assert_allclose(gram, np.eye(21), atol=1e-8)

    def test_ground_state_variance(self):
        xs = np.linspace(-6.0, 6.0, 4001)
        density = quadrature_wavefunction(xs, 0)[:, 0] ** 2
        norm = np.trapezoid(density, xs)
        var = np.trapezoid(xs**2 * density, xs)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [0.3, math.nan]])
    def test_non_finite_record_is_named(self, x):
        with pytest.raises(ValueError, match=r"record x=(nan|inf|-inf) must be finite"):
            quadrature_wavefunction(x, 5)

    def test_vectorized_matches_scalar(self):
        xs = np.array([-1.4, 0.0, 2.2])
        table = quadrature_wavefunction(xs, 12)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(
                table[i], quadrature_wavefunction(float(x), 12), rtol=1e-14
            )


class TestQuadratureGrid:
    def test_weights_normalized(self):
        grid = gauss_hermite_grid(40)
        assert float(np.sum(grid.weights)) == pytest.approx(1.0, rel=1e-13)

    def test_integrates_gaussian_moments(self):
        # E[(mu + sqrt(2) s u)^2] = mu^2 + s^2 under the weight
        grid = gauss_hermite_grid(20)
        mu, s = 0.7, 1.3
        nodes = mu + math.sqrt(2.0) * s * grid.points
        assert float(grid.weights @ nodes) == pytest.approx(mu, rel=1e-13)
        assert float(grid.weights @ nodes**2) == pytest.approx(
            mu * mu + s * s, rel=1e-13
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_hermite_grid(0)

    @pytest.mark.parametrize("points, weights", [([0.0, 1.0], [1.0]), ([[0.0]], [[1.0]]), ([], [])])
    def test_points_and_weights_must_match(self, points, weights):
        with pytest.raises(ValueError, match="points and weights must be matching 1-D arrays"):
            QuadratureGrid(points=points, weights=weights)

    @pytest.mark.parametrize("n_nodes", [2.5, 3.0, True, "4"])
    def test_node_count_must_be_an_integer(self, n_nodes):
        with pytest.raises(ValueError, match="n_nodes must be an integer"):
            gauss_hermite_grid(n_nodes)


class TestConditionFock:
    def test_ideal_frozen_moments(self):
        # lam = 1/sqrt(3), x = 0.5: mean sqrt(3)/4, variances 1/8 and 1/2
        state = twb_fock(LAM_N1, 40)
        density, rows = condition_fock(state, 0.5, 1.0)
        m = moments_fock(rows)
        assert density == pytest.approx(0.43939128946772243, abs=1e-12)
        assert m.mean_x == pytest.approx(0.4330127018922193, abs=1e-12)
        assert m.mean_y == pytest.approx(0.0, abs=1e-13)
        assert m.var_x == pytest.approx(0.125, abs=1e-12)
        assert m.var_y == pytest.approx(0.5, abs=1e-12)
        assert m.cov_xy == pytest.approx(0.0, abs=1e-13)
        assert m.purity == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("lam", (0.3, LAM_N1, 0.8))
    @pytest.mark.parametrize("eta", (0.6, 0.8))
    @pytest.mark.parametrize("x", (0.0, 0.7))
    def test_noisy_record_matches_gaussian_engine(self, lam, eta, x):
        r = math.atanh(lam)
        density, rows = condition_fock(twb_fock(lam, 40), x, eta)
        m = moments_fock(rows)
        out = condition_homodyne(twb(r), HomodyneSetting(mode=0, efficiency=eta), x)
        assert density == pytest.approx(out.probability_density, abs=1e-6)
        assert m.mean_x == pytest.approx(out.state.mean[0], abs=1e-5)
        assert m.var_x == pytest.approx(out.state.cov[0, 0], abs=1e-5)
        assert m.var_y == pytest.approx(out.state.cov[1, 1], abs=1e-5)
        n_th = remote_prep(r, eta, x).n_th
        assert m.purity == pytest.approx(1.0 / (2.0 * n_th + 1.0), abs=1e-4)

    def test_density_matches_marginal_distribution(self):
        state = twb_fock(LAM_N1, 40)
        for x in (-1.0, 0.2, 1.5):
            density, _ = condition_fock(state, x, 1.0)
            assert density == pytest.approx(homodyne_density(twb(R_N1), HomodyneSetting(mode=0), x), abs=1e-9)

    def test_truncation_stability(self):
        # deepening the cutoff must not move the answer at tolerance
        coarse_density, coarse = condition_fock(twb_fock(0.8, 30), 0.7, 0.8)
        fine_density, fine = condition_fock(twb_fock(0.8, 60), 0.7, 0.8)
        mc, mf = moments_fock(coarse), moments_fock(fine)
        assert coarse_density == pytest.approx(fine_density, abs=1e-5)
        assert mc.var_x == pytest.approx(mf.var_x, abs=1e-5)
        assert mc.purity == pytest.approx(mf.purity, abs=1e-5)

    def test_node_count_stability(self):
        state = twb_fock(0.8, 40)
        d40, rows40 = condition_fock(state, 0.7, 0.6, gauss_hermite_grid(40))
        d80, rows80 = condition_fock(state, 0.7, 0.6, gauss_hermite_grid(80))
        assert d40 == pytest.approx(d80, abs=1e-10)
        np.testing.assert_allclose(_rho(rows40), _rho(rows80), atol=1e-9)

    def test_degenerate_record(self):
        with pytest.raises(DegenerateOutcomeError):
            condition_fock(twb_fock(0.3, 20), 40.0, 1.0)
        # an array names its first such record in C order
        with pytest.raises(DegenerateOutcomeError, match=r"record x=40\.0 has"):
            condition_fock(twb_fock(0.3, 20), [[0.1, 0.2], [40.0, 50.0]], 0.8, gauss_hermite_grid(4))

    def test_density_floor_sits_at_1e_300(self):
        # x = 19 has density ~1e-290 and conditions; x = 19.5 has ~8e-307, not zero, and does not
        density, rows = condition_fock(twb_fock(0.3, 20), 19.0, 1.0)
        assert 1e-300 < density < 1e-280
        assert moments_fock(rows).purity == pytest.approx(1.0)
        with pytest.raises(DegenerateOutcomeError, match=r"record x=19\.5 has"):
            condition_fock(twb_fock(0.3, 20), 19.5, 1.0)

    def test_validation(self):
        single = FockVector(cutoff=2, amps=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            condition_fock(single, 0.0, 1.0)
        with pytest.raises(ValueError):
            condition_fock(twb_fock(0.3, 10), 0.0, 0.0)

    @pytest.mark.parametrize("eta", [1.0, 0.7])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_record_is_named(self, x, eta):
        with pytest.raises(ValueError, match=f"record x={x} must be finite"):
            condition_fock(twb_fock(0.3, 10), x, eta)

    def test_record_array_shapes(self):
        xs = np.array([[-0.5, 0.0, 0.2], [1.0, 1.5, -2.0]])
        density, rows = condition_fock(twb_fock(0.5, 12), xs, 0.8, gauss_hermite_grid(6))
        assert density.shape == xs.shape and rows.shape == xs.shape + (6, 13)
        assert rows.dtype == np.float64  # real amplitudes give real rows
        np.testing.assert_allclose(np.trace(_rho(rows), axis1=-2, axis2=-1), 1.0, rtol=0.0, atol=1e-14)
        density, rows = condition_fock(twb_fock(0.5, 12), 0.2, 0.8, gauss_hermite_grid(6))
        assert isinstance(density, float) and rows.shape == (6, 13)
        _, rows = condition_fock(twb_fock(0.5, 12), xs, 1.0, gauss_hermite_grid(6))
        assert rows.shape == xs.shape + (1, 13)  # an ideal record has one node

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.0, 0.7),
        eta=st.sampled_from([1.0, 0.9, 0.6, 0.3]),
        xs=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=6),
    )
    def test_record_array_equals_stacked_records(self, lam, eta, xs):
        state, grid = twb_fock(lam, 40), gauss_hermite_grid(16)
        density, rows = condition_fock(state, np.array(xs), eta, grid)
        singles = [condition_fock(state, x, eta, grid) for x in xs]
        np.testing.assert_allclose(density, [d for d, _ in singles], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(rows, np.stack([f for _, f in singles]), rtol=0.0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.0, 0.7),
        eta=st.sampled_from([1.0, 0.8, 0.4]),
        xs=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=4),
    )
    def test_real_and_complex_amplitudes_agree(self, lam, eta, xs):
        real = twb_fock(lam, 40)
        cplx = FockVector(cutoff=40, amps=real.amps.astype(complex))
        d_real, rows_real = condition_fock(real, xs, eta)
        d_cplx, rows_cplx = condition_fock(cplx, xs, eta)
        assert rows_real.dtype == np.float64 and rows_cplx.dtype == np.complex128
        np.testing.assert_allclose(d_real, d_cplx, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(rows_real, rows_cplx, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(moments_fock(rows_real), moments_fock(rows_cplx), rtol=0.0, atol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(
        xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
        index=st.integers(0, 4),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        eta=st.sampled_from([1.0, 0.7]),
    )
    def test_a_non_finite_record_anywhere_raises(self, xs, index, bad, eta):
        xs[index % len(xs)] = bad
        with pytest.raises(ValueError, match="must be finite"):
            condition_fock(twb_fock(0.4, 10), xs, eta, gauss_hermite_grid(4))


class TestMomentsFock:
    def test_vacuum(self):
        rows = np.zeros((1, 5))
        rows[0, 0] = 1.0
        m = moments_fock(rows)
        assert m.mean_x == 0.0 and m.mean_y == 0.0
        assert m.var_x == pytest.approx(0.25, abs=1e-15)
        assert m.var_y == pytest.approx(0.25, abs=1e-15)
        assert m.purity == pytest.approx(1.0, abs=1e-15)

    def test_thermal_mixture(self):
        # occupation 1: variances 3/4, purity 1/3
        n = np.arange(61)
        weights = 0.5 ** (n + 1)
        m = moments_fock(np.diag(np.sqrt(weights / weights.sum())))
        assert m.var_x == pytest.approx(0.75, abs=1e-12)
        assert m.var_y == pytest.approx(0.75, abs=1e-12)
        assert m.purity == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_coherent_like_displacement(self):
        # single-mode conditioning output carries the heralded mean
        _, rows = condition_fock(twb_fock(LAM_N1, 40), 1.3, 1.0)
        m = moments_fock(rows)
        assert m.mean_x == pytest.approx(math.sqrt(3.0) / 4.0 * 2.6, abs=1e-10)

    def test_validation(self):
        with pytest.raises(UnphysicalStateError):
            moments_fock(np.zeros((3, 4)))  # trace 0
        with pytest.raises(UnphysicalStateError):
            moments_fock(math.sqrt(0.5) * np.eye(4))  # trace 2
        with pytest.raises(UnphysicalStateError, match="shape"):
            moments_fock(np.array([1.0, 0.0]))  # one row needs a node axis

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_non_finite_rho_raises(self, bad):
        rows = np.diag([1.0, 0.0, 0.0]).astype(type(bad))
        rows[1, 2] = bad
        with pytest.raises(UnphysicalStateError, match="rows must be finite"):
            moments_fock(rows)

    def test_real_rho_matches_its_complex_copy(self):
        _, rows = condition_fock(twb_fock(0.6, 30), 0.4, 0.7)
        assert rows.dtype == np.float64
        np.testing.assert_allclose(moments_fock(rows), moments_fock(rows.astype(complex)), rtol=0.0, atol=1e-15)

    @staticmethod
    def _random_rows(rng, shape, complex_rows, top=0.0):
        """Rows of unit total weight, a share ``top`` of it in a last row on
        the top three levels, where the truncated {a, a^dag} is p rather
        than 2p + 1 at p = cutoff."""
        rows = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_rows else 0.0)
        rows /= np.sqrt(np.sum(np.abs(rows) ** 2, axis=(-2, -1), keepdims=True))
        psi = np.zeros(shape[-1], dtype=rows.dtype)
        psi[-3:] = rng.normal(size=min(shape[-1], 3)) + (1j * rng.normal(size=min(shape[-1], 3)) if complex_rows else 0.0)
        psi = np.broadcast_to(psi / np.linalg.norm(psi), shape[:-2] + (1, shape[-1]))
        return np.concatenate((math.sqrt(1.0 - top) * rows, math.sqrt(top) * psi), axis=-2)

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 40),
        nodes=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        top=st.floats(0.0, 1.0),
        complex_rows=st.booleans(),
    )
    def test_matches_dense_truncated_operators(self, dim, nodes, seed, top, complex_rows):
        rows = self._random_rows(np.random.default_rng(seed), (nodes, dim), complex_rows, top)
        np.testing.assert_allclose(moments_fock(rows), _dense_moments(_rho(rows)), rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        dim=st.integers(1, 30),
        nodes=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        top=st.floats(0.0, 1.0),
        complex_rows=st.booleans(),
    )
    def test_stack_equals_per_record_calls(self, records, dim, nodes, seed, top, complex_rows):
        shape = (*records, nodes, dim)
        stack = self._random_rows(np.random.default_rng(seed), shape, complex_rows, top)
        moments = moments_fock(stack)
        assert all(np.shape(m) == tuple(records) for m in moments)
        for k in np.ndindex(*records):
            one = moments_fock(stack[k])
            assert all(type(m) is float for m in one)
            np.testing.assert_allclose([m[k] for m in moments], one, rtol=0.0, atol=1e-15)

    def test_cutoff_zero(self):
        # one level: x and y are the zero matrix
        assert moments_fock(np.ones((1, 1))) == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        assert moments_fock(np.ones((1, 1))) == _dense_moments(np.ones((1, 1)))

    def test_cutoff_one(self):
        # two levels: <a> = rho[1, 0], a^2 = 0, {a, a^dag} = identity
        rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        rows = np.linalg.cholesky(rho).T  # rho = L L^dag = F^T conj(F) for F = L^T
        expected = (0.2, 0.1, 0.25 - 0.04, 0.25 - 0.01, -0.02, 0.36 + 0.16 + 2 * 0.05)
        np.testing.assert_allclose(moments_fock(rows), expected, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(moments_fock(rows), _dense_moments(rho), rtol=0.0, atol=1e-15)

    def test_complex_pure_state_has_unit_purity(self):
        psi = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
        m = moments_fock(psi[None, :])
        assert m.purity == pytest.approx(1.0, abs=1e-15)
        assert (m.mean_x, m.mean_y) == pytest.approx((0.0, 0.5), abs=1e-15)
