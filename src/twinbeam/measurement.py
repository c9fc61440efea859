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
does not depend on the record, so an array of records, or a family of
states, gives the family of conditional states as one batched operator.

One conditioning, one density and one sampler serve both detectors
(``double_homodyne_condition`` and ``sample_double_homodyne`` are other
names for them); beside ``_model``, a setting maps its records to offsets
from the record mean, ``_shift``, and standard normal draws to records in
place, ``_records``: elementwise through the lower-triangular S^1/2, with
no matmul, so a record rounds alike at any batch size.  A complex record
alpha = x + iy is the point (x, -y) from the transposed reference's mean:
the conjugated records, viewed as float pairs, are the points with no
copy.  Conditioning needs at least two modes; sampling takes one state.
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
    mode_block,
    normal_density,
    require_all,
    require_count,
    require_detector_efficiency,
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
        efficiency = require_detector_efficiency(self.efficiency, "efficiency")
        object.__setattr__(self, "efficiency", efficiency)
        object.__setattr__(self, "phase", phase % (2.0 * math.pi))

    @property
    def noise_variance(self) -> float:
        """Equivalent Gaussian record noise (1 - eta) / (4 eta)."""
        return (1.0 - self.efficiency) / (4.0 * self.efficiency)

    @cached_property
    def _model(self):
        block = np.array([[math.cos(self.phase), math.sin(self.phase)]])
        return self.mode, block, np.array([[math.sqrt(self.noise_variance)]])

    def _shift(self, x, record_mean):
        """Records ``x`` as offsets from ``record_mean``, along the leading axes."""
        return as_finite_array(x, "x")[..., None] - record_mean

    def _records(self, draws, s_factor, record_mean):
        """The records of standard normal ``draws``, of shape (n, 1), through
        ``s_factor`` about ``record_mean``."""
        draws *= s_factor  # in place, (n, 1) by (1, 1): rounded as Generator.normal rounds
        draws += record_mean
        return draws[:, 0]


@dataclass(frozen=True)
class DoubleHomodyneSetting:
    """Joint x/y measurement against a single-mode reference state."""

    reference: GaussianOperator
    efficiency: float = 1.0

    def __post_init__(self):
        if self.reference.n_modes != 1:
            raise ValueError("reference must be a single-mode state")
        require_single(self.reference, "reference")
        efficiency = require_detector_efficiency(self.efficiency, "efficiency")
        object.__setattr__(self, "efficiency", efficiency)

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

    def _shift(self, alpha, record_mean):
        """Records ``alpha`` as offsets from ``record_mean`` of their POVM
        elements, the transposed reference displaced by alpha: centred on
        ref_t.mean + (Re alpha, -Im alpha)."""
        points = np.asarray(alpha, dtype=complex)[..., None].conj().view(float)
        require_all(np.isfinite(points), "alpha must be finite")
        offset = add_points(self.transposed_reference.mean, record_mean, np.subtract)
        return add_points(points, offset)

    def _records(self, draws, s_factor, record_mean):
        """The records whose POVM elements are centred at standard normal
        ``draws``, of shape (n, 2), through ``s_factor`` about ``record_mean``."""
        x, y = draws.T  # S^1/2 is lower-triangular: y takes x's term before x is scaled
        y *= s_factor[1, 1]
        y += s_factor[1, 0] * x
        x *= s_factor[0, 0]
        alpha = draws.view(complex)[:, 0]
        alpha += complex(*(record_mean - self.transposed_reference.mean))
        return np.conjugate(alpha, out=alpha)


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
    mode, block, noise = setting._model
    factor, measured = state.factor, mode_block(mode, state.n_modes)
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


def homodyne_density(state: GaussianOperator, setting: HomodyneSetting | DoubleHomodyneSetting, x):
    """Probability density of the record ``x`` of either detector, noise
    included, or an array of densities for an array of records; 0.0 for a
    record so far out that its squared distance overflows."""
    record_mean, _, _, s_factor, _ = _update(state, setting)
    return normal_density(setting._shift(x, record_mean), s_factor)


def condition_homodyne(
    state: GaussianOperator, setting: HomodyneSetting | DoubleHomodyneSetting, outcome
) -> ConditionalOutcome:
    """Condition a multimode state on a record of either detector.

    Returns the outcome density together with the normalized Gaussian
    state of the unmeasured modes.  The measured mode is traced out.  An
    array of records, or a family of states, broadcasts: one density and
    one conditional state per record, all sharing one covariance.  The
    double-homodyne density is per unit area in the complex record plane.
    """
    record_mean, mean, gain, s_factor, factor = _update(state, setting)
    if state.n_modes < 2:
        raise ValueError("conditioning requires at least two modes")
    shift = setting._shift(outcome, record_mean)  # records along the leading axes
    return ConditionalOutcome(
        state=from_factor(add_points(mean, shift @ gain.T), factor),
        _density=lambda: normal_density(shift, s_factor),
    )


def sample_homodyne(
    state: GaussianOperator,
    setting: HomodyneSetting | DoubleHomodyneSetting,
    seed: int | np.random.Generator,
    n_samples: int | None = None,
):
    """Draw records of either detector; identical seeds give identical draws.

    Returns one record when ``n_samples`` is None, else an array of that
    length from the same deterministic stream.  A Generator ``seed`` is
    drawn from and left advanced, so draws of k blocks from one Generator
    concatenate to the draws of one call with its seed.
    """
    size = 1 if n_samples is None else require_count(n_samples, "n_samples")
    require_single(state, "sampling")
    record_mean, _, _, s_factor, _ = _update(state, setting)
    draws = as_generator(seed).standard_normal((size, len(s_factor)))
    records = setting._records(draws, s_factor, record_mean)
    return records[0].item() if n_samples is None else records


double_homodyne_condition = condition_homodyne
sample_double_homodyne = sample_homodyne
