"""Homodyne and double-homodyne measurements on Gaussian states.

Conditioning is computed with exact Gaussian identities (Schur
complements), never by discretizing a measurement kernel.  The
conditional covariance does not depend on the record, so
``double_homodyne_condition`` takes an array of records at once and
returns the family of conditional states as one batched operator.
A complex record alpha = x + iy is read as the phase-space point
(x, -y): the conjugated records, viewed as float pairs, are the points
with no copy, and the samplers return the records the same way.

Detector efficiency ``eta`` follows the equivalent-noise picture: an
inefficient homodyne of a quadrature behaves like a perfect one whose
record picks up independent Gaussian noise of variance
(1 - eta) / (4 eta).
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


def _direction(setting: HomodyneSetting, n_modes: int) -> np.ndarray:
    if setting.mode >= n_modes:
        raise ValueError(f"mode {setting.mode} out of range for {n_modes} modes")
    c = np.zeros(2 * n_modes)
    c[2 * setting.mode] = math.cos(setting.phase)
    c[2 * setting.mode + 1] = math.sin(setting.phase)
    return c


def _homodyne_record(state: GaussianOperator, setting: HomodyneSetting, what: str):
    """The measured direction c, and the record's mean and variance, noise
    included, for one physical state."""
    require_single(state, what)
    require_physical(state)
    c = _direction(setting, state.n_modes)
    return c, float(c @ state.mean), float(c @ state.cov @ c) + setting.noise_variance


def homodyne_density(state: GaussianOperator, setting: HomodyneSetting, x):
    """Probability density of the homodyne record value ``x``, noise included,
    or an array of densities for an array of records; 0.0 for a record so far
    out that its squared distance overflows."""
    x = as_finite_array(x, "x")  # 0-d for one record
    _, mean, var = _homodyne_record(state, setting, "homodyne")
    with np.errstate(over="ignore"):  # an overflowing square gives exp(-inf) = 0
        density = state.weight * np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
    return float(density) if density.ndim == 0 else density


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
    c, record_mean, record_var = _homodyne_record(state, setting, "homodyne conditioning")
    n = state.n_modes
    if n < 2:
        raise ValueError("conditioning requires at least two modes")
    shift = outcome - record_mean
    gain = state.cov @ c / record_var
    mean = state.mean + np.multiply.outer(shift, gain)  # records along the leading axes
    cov = state.cov - np.outer(gain, state.cov @ c)
    keep = np.ones(2 * n, dtype=bool)
    keep[2 * setting.mode : 2 * setting.mode + 2] = False
    cov = cov[np.ix_(keep, keep)]
    return ConditionalOutcome(
        state=GaussianOperator(mean=mean[..., keep], cov=0.5 * (cov + cov.T)),
        _density=lambda: homodyne_density(state, setting, outcome),
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
    _, mean, variance = _homodyne_record(state, setting, "homodyne sampling")
    rng = as_generator(seed)
    draws = rng.normal(mean, math.sqrt(variance), size=size)
    return float(draws) if n_samples is None else draws


def _double_homodyne_blocks(state: GaussianOperator, setting: DoubleHomodyneSetting):
    """Observation mean/covariance pieces for measuring the first mode."""
    require_physical(state)
    if state.n_modes != 2:
        raise ValueError("double homodyne conditioning expects a two-mode state")
    # POVM element: transposed Wigner function of the displaced reference,
    # broadened by the split detection's excess noise when eta < 1.
    ref_t = setting.transposed_reference
    noise = 0.5 * setting.delta_sq * np.eye(2)
    s_obs = state.cov[:2, :2] + ref_t.cov + noise
    gain = np.linalg.solve(s_obs.T, state.cov[:2, 2:]).T
    cov_cond = state.cov[2:, 2:] - gain @ state.cov[:2, 2:]
    return ref_t, s_obs, gain, 0.5 * (cov_cond + cov_cond.T)


def double_homodyne_condition(
    state: GaussianOperator, setting: DoubleHomodyneSetting, alpha
) -> ConditionalOutcome:
    """Condition the second mode on a joint x/y record ``alpha``.

    The first mode of ``state`` is measured against the setting's
    reference; the density is per unit area in the complex record plane.
    An array of records, or a family of states, broadcasts: one density
    and one conditional state per record, all sharing one covariance.
    """
    ref_t, s_obs, gain, cov_cond = _double_homodyne_blocks(state, setting)
    offset = add_points(ref_t.mean, state.mean[..., :2], np.subtract)
    # the POVM element is centred on the transposed reference displaced by
    # alpha, i.e. shifted by the point (Re alpha, -Im alpha)
    shift = add_points(np.asarray(alpha, dtype=complex)[..., None].conj().view(float), offset)
    mean_cond = add_points(state.mean[..., 2:], shift @ gain.T)
    return ConditionalOutcome(
        state=GaussianOperator(mean=np.zeros(2), cov=cov_cond).with_mean(mean_cond),
        _density=lambda: state.weight * normal_density(shift, s_obs),
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
    ref_t, s_obs, _, _ = _double_homodyne_blocks(state, setting)
    rng = as_generator(seed)
    draws = rng.standard_normal((size, 2)) @ np.linalg.cholesky(s_obs).T
    # the observed point state.mean[:2] + draws is the POVM centre
    # ref_t.mean + (x, -y); the record x + iy is its conjugated offset
    alpha = draws.view(complex)[:, 0]
    alpha += complex(*(state.mean[:2] - ref_t.mean))
    np.conjugate(alpha, out=alpha)
    return complex(alpha[0]) if n_samples is None else alpha
