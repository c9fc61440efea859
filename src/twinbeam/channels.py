"""Single-mode damping into a thermal background.

The channel is parametrized by the dimensionless damping ``gamma_t``
(decay-rate times time) and the mean photon number ``thermal_photons``
of the bath.  Acting on a Gaussian state it contracts means by
e^{-gamma_t/2} and drives every quadrature variance toward the bath
value (2 thermal_photons + 1)/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianOperator, gaussian_map, require_all
from .gaussian import require_finite_nonnegative, require_physical


@dataclass(frozen=True)
class LossChannel:
    """Damping by ``gamma_t`` into a bath holding ``thermal_photons``.

    Fields may be arrays that broadcast against each other: a grid of
    channels, for the closed forms; :func:`evolve` takes one channel.
    """

    gamma_t: float
    thermal_photons: float = 0.0

    def __post_init__(self):
        require_finite_nonnegative("gamma_t", self.gamma_t)
        require_finite_nonnegative("thermal_photons", self.thermal_photons)

    @property
    def transmission(self) -> float:
        """Amplitude-squared survival e^{-gamma_t}."""
        return _exp(-self.gamma_t)

    @property
    def added_variance(self) -> float:
        """Diffusion added per quadrature: (2M + 1)(1 - e^{-gamma_t})/4."""
        return 0.25 * (2.0 * self.thermal_photons + 1.0) * (1.0 - self.transmission)


def evolve(state: GaussianOperator, channel: LossChannel) -> GaussianOperator:
    """Apply one channel to every mode of ``state``: the Gaussian map
    X = sqrt(T) I, Y = (added variance) I, which contracts covariances toward
    the bath variance.  The fixed point is the thermal state of the bath.
    """
    require_physical(state)
    require_all(np.ndim(channel.added_variance) == 0, "evolve takes one channel, not a grid")
    eye = np.eye(2 * state.n_modes)
    return gaussian_map(state, math.sqrt(channel.transmission) * eye, channel.added_variance * eye)


def effective_kappa_contribution(r: float, channel: LossChannel) -> float:
    """Teleportation noise from squeezing plus channel damping.

    Equals e^{-gamma_t - 2r} + (2M + 1)(1 - e^{-gamma_t}): four times the
    variance of the damped twin-beam difference quadrature.  An array of
    r, or a grid of channels, broadcasts.  Raises ValueError where 2M + 1
    overflows, as it does for an M near the float limit.
    """
    require_finite_nonnegative("r", r)
    t = channel.transmission
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = t * _exp(-2.0 * r) + (2.0 * channel.thermal_photons + 1.0) * (1.0 - t)
    require_all(kappa < math.inf, "the channel noise (2M + 1)(1 - e^{-gamma_t}) overflows")
    return kappa


def _exp(x):
    """``math.exp`` of a number or of each array element: correctly
    rounded, as ``np.exp`` may not be, so array results equal the scalar
    ones bit for bit.  Axis-shaped arrays cost one call per axis value."""
    if isinstance(x, np.ndarray):
        return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return math.exp(x)
