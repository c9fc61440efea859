"""Homodyne and double-homodyne measurements on Gaussian states.

Both detectors are one conditional Gaussian measurement, ``_update``: the
Kalman measurement update (Kalman 1960; Serafini, *Quantum Continuous
Variables*, ch. 5) for a record y = C z + v of the measured mode's
quadratures z, with noise v ~ N(0, R), in square-root form (Kaminski,
Bryson and Schmidt, IEEE TAC 16, 727 (1971); Bierman, *Factorization
Methods for Discrete Sequential Estimation*, 1977): one QR of the state's
covariance factor gives the record covariance's factor, the gain and the
conditional factor, with no covariance formed.  Homodyne at angle phi has
C = (cos phi, sin phi) and R = (1 - eta) / (4 eta), an inefficient
detector's equivalent noise; double homodyne has C = I_2 and
R = ref_t.cov + (delta^2 / 2) I_2, the transposed reference broadened by
the excess noise delta^2 = (1 - eta) / eta.  The conditional covariance
does not depend on the record, so an array of records gives the family of
conditional states as one batched operator.  A complex record
alpha = x + iy is read as the phase-space point (x, -y): the conjugated
records, viewed as float pairs, are the points with no copy, and the
samplers return the records the same way.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gaussian import (
    GaussianOperator,
    add_points,
    as_finite_array,
    from_factor,
    lower_factor,
    normal_density,
    require_all,
    require_count,
    require_efficiency,
    require_physical,
    require_single,
    transpose_wigner,
)


def as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    """The record stream of ``seed``: a Generator passes through, so
    successive calls continue one stream; an integer seed starts a Philox
    stream.  ValueError for anything else, such as 2.7, True or "3"."""
    if isinstance(seed, np.random.Generator):
        return seed
    # Philox is counter-based: reproducible and cheap to fork by seed.
    return np.random.Generator(np.random.Philox(require_count(seed, "seed")))


@dataclass(frozen=True)
class HomodyneSetting:
    """Which quadrature is measured, and how well.

    Attributes:
        mode: index of the measured mode.
        phase: quadrature angle; 0 measures x, pi/2 measures y.
        efficiency: detector efficiency eta in (0, 1].
    """

    mode: int = 0
    phase: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self):
        require_count(self.mode, "mode")
        phase = float(self.phase)
        if not math.isfinite(phase):
            raise ValueError("phase must be finite")
        require_all(np.size(self.efficiency) == 1, "efficiency must be one number, not an array")
        require_efficiency(self.efficiency, "efficiency")
        object.__setattr__(self, "phase", phase % (2.0 * math.pi))

    @property
    def noise_variance(self) -> float:
        """Equivalent Gaussian record noise (1 - eta) / (4 eta)."""
        return (1.0 - self.efficiency) / (4.0 * self.efficiency)

    @cached_property
    def _model(self):
        block = np.array([[math.cos(self.phase), math.sin(self.phase)]])
        return self.mode, block, np.array([[math.sqrt(self.noise_variance)]])


@dataclass(frozen=True)
class DoubleHomodyneSetting:
    """Joint x/y measurement against a single-mode reference state."""

    reference: GaussianOperator
    efficiency: float = 1.0

    def __post_init__(self):
        if self.reference.n_modes != 1:
            raise ValueError("reference must be a single-mode state")
        require_single(self.reference, "reference")
        require_physical(self.reference, "reference")
        require_all(np.size(self.efficiency) == 1, "efficiency must be one number, not an array")
        require_efficiency(self.efficiency, "efficiency")

    @cached_property
    def transposed_reference(self) -> GaussianOperator:
        """The reference's transpose, whose displacements are the POVM elements."""
        return transpose_wigner(self.reference)

    @property
    def delta_sq(self) -> float:
        """Total excess noise (1 - eta) / eta of the split detection."""
        return (1.0 - self.efficiency) / self.efficiency

    @cached_property
    def _model(self):
        excess = math.sqrt(0.5 * self.delta_sq) * np.eye(2)
        return 0, np.eye(2), np.hstack([self.transposed_reference.factor, excess])


@dataclass(frozen=True)
class ConditionalOutcome:
    """Result of conditioning: outcome density and the remaining state.

    For an array of records, ``probability_density`` is an array of the
    records' shape and ``state`` the matching family of states.  The
    density is evaluated on first read, so a caller that needs only the
    states does not pay for it.
    """

    state: GaussianOperator
    _density: Callable[[], float | np.ndarray] = field(repr=False)

    @cached_property
    def probability_density(self) -> float | np.ndarray:
        return self._density()


def _update(state: GaussianOperator, setting):
    """Square-root Kalman update of ``state`` for the record y = C z + v of
    ``setting``, whose ``_model`` is (mode, C on that mode, a factor of v's
    covariance R).  With L's rows split into the measured L_z and the kept
    L_k, one QR triangularizes [[sqrt(R), C L_z], [0, L_k]] to
    [[S^1/2, 0], [G, L_k']]: S = C L L^T C^T + R is the record covariance,
    K = G S^-1/2 the gain and L_k' the kept modes' factor given y.  Returns
    C z, the kept modes' mean, K, S^1/2 and L_k'."""
    require_physical(state)
    mode, block, noise = setting._model
    if mode >= state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    factor, measured = state.factor, slice(2 * mode, 2 * mode + 2)
    # a view when the first mode is measured, as both protocols do
    kept = slice(2, None) if mode == 0 else np.r_[: 2 * mode, 2 * mode + 2 : len(factor)]
    m, k = noise.shape
    pre = np.zeros((len(factor) - 2 + m, len(factor) + k))
    pre[:m, :k] = noise
    pre[:m, k:] = block @ factor[measured]
    pre[m:, k:] = factor[kept]
    post = lower_factor(pre)
    s_factor = post[:m, :m]
    gain = np.linalg.solve(s_factor.T, post[m:, :m].T).T
    return state.mean[..., measured] @ block.T, state.mean[..., kept], gain, s_factor, post[m:, m:]


def homodyne_density(state: GaussianOperator, setting: HomodyneSetting, x):
    """Probability density of the homodyne record value ``x``, noise included,
    or an array of densities for an array of records; 0.0 for a record so far
    out that its squared distance overflows."""
    x = as_finite_array(x, "x")  # 0-d for one record
    require_single(state, "homodyne")
    record_mean, _, _, s_factor, _ = _update(state, setting)
    return normal_density(x[..., None] - record_mean, s_factor)


def condition_homodyne(
    state: GaussianOperator, setting: HomodyneSetting, outcome
) -> ConditionalOutcome:
    """Condition a multimode state on a homodyne record value.

    Returns the outcome density together with the normalized Gaussian
    state of the unmeasured modes.  The measured mode is traced out.  An
    array of records gives one density per record and the family of
    conditional states, all sharing one covariance.
    """
    outcome = as_finite_array(outcome, "x")
    require_single(state, "homodyne conditioning")
    record_mean, mean, gain, s_factor, factor = _update(state, setting)
    if state.n_modes < 2:
        raise ValueError("conditioning requires at least two modes")
    shift = outcome[..., None] - record_mean  # records along the leading axes
    return ConditionalOutcome(
        state=from_factor(mean + shift @ gain.T, factor),
        _density=lambda: normal_density(shift, s_factor),
    )


def sample_homodyne(
    state: GaussianOperator,
    setting: HomodyneSetting,
    seed: int | np.random.Generator,
    n_samples: int | None = None,
):
    """Draw homodyne record values; identical seeds give identical draws.

    Returns a scalar when ``n_samples`` is None, else an array of that
    length from the same deterministic stream.  A Generator ``seed`` is
    drawn from and left advanced, so draws of k blocks from one Generator
    concatenate to the draws of one call with its seed.
    """
    size = None if n_samples is None else require_count(n_samples, "n_samples")
    require_single(state, "homodyne sampling")
    record_mean, _, _, s_factor, _ = _update(state, setting)
    draws = as_generator(seed).normal(record_mean[0], s_factor[0, 0], size=size)
    return float(draws) if n_samples is None else draws


def double_homodyne_condition(
    state: GaussianOperator, setting: DoubleHomodyneSetting, alpha
) -> ConditionalOutcome:
    """Condition the second mode on a joint x/y record ``alpha``.

    The first mode of ``state`` is measured against the setting's
    reference; the density is per unit area in the complex record plane.
    An array of records, or a family of states, broadcasts: one density
    and one conditional state per record, all sharing one covariance.
    """
    record_mean, mean, gain, s_factor, factor = _update(state, setting)
    if state.n_modes != 2:
        raise ValueError("double homodyne conditioning expects a two-mode state")
    # the POVM element is centred on the transposed reference displaced by
    # alpha, i.e. shifted by the point (Re alpha, -Im alpha)
    offset = add_points(setting.transposed_reference.mean, record_mean, np.subtract)
    shift = add_points(np.asarray(alpha, dtype=complex)[..., None].conj().view(float), offset)
    return ConditionalOutcome(
        state=from_factor(add_points(mean, shift @ gain.T), factor),
        _density=lambda: normal_density(shift, s_factor),
    )


def sample_double_homodyne(
    state: GaussianOperator,
    setting: DoubleHomodyneSetting,
    seed: int | np.random.Generator,
    n_samples: int | None = None,
):
    """Draw joint records alpha = x + iy; seeds and Generators as for
    :func:`sample_homodyne`."""
    require_single(state, "double homodyne sampling")
    size = 1 if n_samples is None else require_count(n_samples, "n_samples")
    record_mean, _, _, s_factor, _ = _update(state, setting)
    if state.n_modes != 2:
        raise ValueError("double homodyne conditioning expects a two-mode state")
    draws = as_generator(seed).standard_normal((size, 2)) @ s_factor.T
    # the observed point record_mean + draws is the POVM centre
    # ref_t.mean + (x, -y); the record x + iy is its conjugated offset
    alpha = draws.view(complex)[:, 0]
    alpha += complex(*(record_mean - setting.transposed_reference.mean))
    np.conjugate(alpha, out=alpha)
    return complex(alpha[0]) if n_samples is None else alpha
