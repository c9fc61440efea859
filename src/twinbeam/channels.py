"""Single-mode damping into a thermal background.

The channel is parametrized by the dimensionless damping ``gamma_t``
(decay-rate times time) and the mean photon number ``thermal_photons``
of the bath.  Acting on a Gaussian state it contracts means by
e^{-gamma_t/2} and drives every quadrature variance toward the bath
value (2 thermal_photons + 1)/4.  Every channel that builds has finite figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianOperator, elementwise, gaussian_map, require_all
from .gaussian import require_finite_nonnegative


@dataclass(frozen=True)
class LossChannel:
    """Damping by ``gamma_t`` into a bath holding ``thermal_photons``.

    Fields may be arrays that broadcast against each other: a grid of
    channels, for the closed forms; :func:`evolve` takes one channel.
    """

    gamma_t: float
    thermal_photons: float = 0.0

    def __post_init__(self):
        require_finite_nonnegative(self.gamma_t, "gamma_t")
        m = self.thermal_photons  # 2M + 1 is finite exactly where M < 2^1023: M <= float max / 2
        valid = (0.0 <= m) & (m < 2.0**1023)
        if not (valid.all() if isinstance(valid, np.ndarray) else valid):
            require_finite_nonnegative(m, "thermal_photons")
            raise ValueError("the channel noise (2M + 1)(1 - e^{-gamma_t}) overflows")

    @property
    def transmission(self) -> float:
        """Amplitude-squared survival e^{-gamma_t}."""
        return elementwise(math.exp, -self.gamma_t)

    @property
    def added_variance(self) -> float:
        """Diffusion added per quadrature: (2M + 1)(1 - e^{-gamma_t})/4."""
        return 0.25 * (2.0 * self.thermal_photons + 1.0) * (1.0 - self.transmission)


def evolve(state: GaussianOperator, channel: LossChannel) -> GaussianOperator:
    """Apply one channel to every mode of ``state``: the Gaussian map
    X = sqrt(T) I, Y = (added variance) I, which contracts covariances toward
    the bath variance.  The fixed point is the thermal state of the bath.
    """
    added = channel.added_variance
    require_all(np.ndim(added) == 0, "evolve takes one channel, not a grid")
    eye = np.eye(2 * state.n_modes)
    return gaussian_map(state, math.sqrt(channel.transmission) * eye, math.sqrt(added) * eye)
