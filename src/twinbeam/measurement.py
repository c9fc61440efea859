"""Homodyne and double-homodyne measurements on Gaussian states.

Both detectors are one conditional Gaussian measurement, ``_update``: the
Kalman measurement update (Kalman 1960; Serafini, *Quantum Continuous
Variables*, ch. 5) for a record y = C z + v of the measured mode's
quadratures z, with noise v ~ N(0, R).  Homodyne at angle phi has
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
    normal_density,
    require_count,
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
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        object.__setattr__(self, "phase", phase % (2.0 * math.pi))

    @property
    def noise_variance(self) -> float:
        """Equivalent Gaussian record noise (1 - eta) / (4 eta)."""
        return (1.0 - self.efficiency) / (4.0 * self.efficiency)

    @cached_property
    def _model(self):
        return self.mode, [[math.cos(self.phase), math.sin(self.phase)]], (self.noise_variance,)


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
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")

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
        return 0, np.eye(2), (self.transposed_reference.cov, 0.5 * self.delta_sq * np.eye(2))


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
    """Kalman update of ``state`` for the record y = C z + v of ``setting``,
    whose ``_model`` is (mode, C on that mode, v's independent noise
    covariances R_i).  Returns C z, the kept modes' mean, their gain
    K = P_kz C^T S^-1, S = C P C^T + sum R_i and their covariance given y."""
    require_physical(state)
    mode, block, noises = setting._model
    if mode >= state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    # C spans every quadrature, zero off the measured mode: seeded draws are
    # pinned to the last-bit rounding of full-width products, not 2 x 2 ones
    C = np.zeros((len(block), len(state.cov)))
    C[:, 2 * mode : 2 * mode + 2] = block
    s = sum(noises, C @ state.cov @ C.T)
    # a view when the first mode is measured, as both protocols do
    kept = slice(2, None) if mode == 0 else np.r_[: 2 * mode, 2 * mode + 2 : len(state.cov)]
    cross = (state.cov @ C.T)[kept]
    # a 1 x 1 S divides: a solve would round the homodyne gain differently
    gain = cross / s if len(s) == 1 else np.linalg.solve(s, cross.T).T
    cov = state.cov[kept][:, kept] - gain @ cross.T
    return state.mean @ C.T, state.mean[..., kept], gain, s, 0.5 * (cov + cov.T)


def homodyne_density(state: GaussianOperator, setting: HomodyneSetting, x):
    """Probability density of the homodyne record value ``x``, noise included,
    or an array of densities for an array of records; 0.0 for a record so far
    out that its squared distance overflows."""
    x = as_finite_array(x, "x")  # 0-d for one record
    require_single(state, "homodyne")
    record_mean, _, _, s, _ = _update(state, setting)
    return state.weight * normal_density(x[..., None] - record_mean, s)


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
    record_mean, mean, gain, s, cov = _update(state, setting)
    if state.n_modes < 2:
        raise ValueError("conditioning requires at least two modes")
    shift = outcome[..., None] - record_mean  # records along the leading axes
    return ConditionalOutcome(
        state=GaussianOperator(mean=mean + shift @ gain.T, cov=cov),
        _density=lambda: state.weight * normal_density(shift, s),
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
    record_mean, _, _, s, _ = _update(state, setting)
    draws = as_generator(seed).normal(record_mean[0], math.sqrt(s[0, 0]), size=size)
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
    record_mean, mean, gain, s, cov = _update(state, setting)
    if state.n_modes != 2:
        raise ValueError("double homodyne conditioning expects a two-mode state")
    # the POVM element is centred on the transposed reference displaced by
    # alpha, i.e. shifted by the point (Re alpha, -Im alpha)
    offset = add_points(setting.transposed_reference.mean, record_mean, np.subtract)
    shift = add_points(np.asarray(alpha, dtype=complex)[..., None].conj().view(float), offset)
    mean = add_points(mean, shift @ gain.T)
    return ConditionalOutcome(
        state=GaussianOperator(mean=np.zeros(2), cov=cov).with_mean(mean),
        _density=lambda: state.weight * normal_density(shift, s),
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
    record_mean, _, _, s, _ = _update(state, setting)
    if state.n_modes != 2:
        raise ValueError("double homodyne conditioning expects a two-mode state")
    draws = as_generator(seed).standard_normal((size, 2)) @ np.linalg.cholesky(s).T
    # the observed point record_mean + draws is the POVM centre
    # ref_t.mean + (x, -y); the record x + iy is its conjugated offset
    alpha = draws.view(complex)[:, 0]
    alpha += complex(*(record_mean - setting.transposed_reference.mean))
    np.conjugate(alpha, out=alpha)
    return complex(alpha[0]) if n_samples is None else alpha
