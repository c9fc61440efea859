"""End-to-end protocols built on the Gaussian primitives.

Two protocols share the twin beam as their entanglement resource:

* remote preparation: one arm is homodyned; the other collapses to a
  displaced squeezed thermal state whose parameters are closed forms
  in the beam strength, the record value and the detector efficiency;
* teleportation: the channel damps both twin-beam arms, a joint x/y
  measurement against the input state is taken on one of them, and the
  record is undone by a corrective displacement of the other.  The
  surviving imperfection is one number, kappa^2, added as kappa^2/2 of
  extra variance per quadrature of the teleported state.  Its one closed
  form, ``TeleportConfig.kappa_sq``, takes r, M and eta as checked on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import LossChannel, evolve
from .gaussian import (
    GaussianOperator,
    coherent,
    displace,
    elementwise,
    gaussian_map,
    overlap,
    photon_number,
    require_all,
    require_count,
    require_efficiency,
    require_finite_nonnegative,
    twb,
)
from .measurement import (
    DoubleHomodyneSetting,
    as_generator,
    double_homodyne_condition,
    sample_double_homodyne,
)

# Records per block of teleport_monte_carlo: a block's temporaries, a few
# arrays of 16 bytes per record, stay in cache.
MC_BLOCK = 32768

# Distinguished return value of eta_threshold: no efficiency in (0, 1]
# makes the teleported state conditionally squeezed.
IMPOSSIBLE = "impossible"


@dataclass(frozen=True)
class RemotePrepResult:
    """Closed-form description of the remotely prepared state.

    Attributes:
        a_x_eta: heralded displacement of the prepared state (along x).
        sigma1_sq: variance of the conditionally squeezed x quadrature.
        sigma2_sq: variance of the conjugate y quadrature.
        n_th: effective thermal occupation of the prepared state.
        r_squeeze: effective squeezing parameter of the prepared state.
        is_squeezed: True when sigma1_sq drops strictly below vacuum 1/4.
        outcome_density: probability density of the homodyne record.
    """

    a_x_eta: float
    sigma1_sq: float
    sigma2_sq: float
    n_th: float
    r_squeeze: float
    is_squeezed: bool
    outcome_density: float


@dataclass(frozen=True)
class TeleportConfig:
    """Resource squeezing r, channel damping, bath photons and efficiency.

    Fields may be arrays that broadcast against each other: a grid of
    configurations, over which :attr:`kappa_sq` and
    :func:`fidelity_coherent` broadcast, every point equal to its scalar
    config; the simulations (:func:`teleport_gaussian`,
    :func:`teleport_monte_carlo`) take one configuration.
    """

    r: float
    gamma_t: float = 0.0
    thermal_photons: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        require_finite_nonnegative(self.r, "r")
        require_efficiency(self.eta, "eta")
        # LossChannel validates gamma_t and thermal_photons, once: the config keeps it
        object.__setattr__(self, "_channel", LossChannel(self.gamma_t, self.thermal_photons))

    def channel(self) -> LossChannel:
        return self._channel

    @property
    def kappa_sq(self) -> float:
        """Total added noise e^{-gamma_t - 2r} + (2M+1)(1 - e^{-gamma_t})
        + (1 - eta)/eta, of finite terms; ValueError where their sum overflows."""
        r, m, eta, t = self.r, self.thermal_photons, self.eta, self.channel().transmission
        with np.errstate(over="ignore"):  # the terms are finite; their sum may overflow
            kappa = (t * elementwise(math.exp, -2.0 * r) + (2.0 * m + 1.0) * (1.0 - t)
                     + (1.0 - eta) / eta)
        require_all(kappa < math.inf, "kappa_sq overflows")
        return kappa

    def require_single(self, what: str) -> None:
        """Reject a grid of configurations where one is needed."""
        if any(np.ndim(v) for v in (self.r, self.gamma_t, self.thermal_photons, self.eta)):
            raise ValueError(f"{what} takes one configuration, not a grid")


@np.errstate(over="ignore", invalid="ignore")
def remote_prep(r: float, eta: float, x: float) -> RemotePrepResult:
    """Closed-form state prepared by homodyning one twin-beam arm.

    Args:
        r: twin-beam squeezing parameter, r >= 0.
        eta: homodyne efficiency in (0, 1], with a finite (1 - eta)/eta.
        x: recorded quadrature value.

    The prepared state is squeezed iff eta > 1/2 (for any r > 0); at
    eta = 1/2 the conditional x variance equals the vacuum value 1/4.
    Arrays broadcast, each field over the arguments it depends on, every
    point equal to its scalar call.  Raises ValueError for non-finite
    inputs and where the closed forms overflow, naming the first such point.
    """
    n = photon_number(r)  # which checks r
    require_efficiency(eta, "eta")
    require_all(abs(x) < math.inf, "x must be finite")
    a_x = eta * elementwise(math.sqrt, n * (n + 2.0)) * x / (1.0 + eta * n)
    finite = abs(a_x) < math.inf
    if not (finite.all() if isinstance(finite, np.ndarray) else finite):
        i = np.argmin(finite)  # the first point, in C order, that overflows
        at_r, at_x = (np.broadcast_to(v, np.shape(a_x)).flat[i].item() for v in (r, x))
        raise ValueError(f"the closed forms overflow at r={at_r}, x={at_x}")
    sigma1 = 0.25 * (1.0 + n * (1.0 - eta)) / (1.0 + eta * n)
    sigma2 = 0.25 * (1.0 + n)
    ratio = (1.0 + n) * (1.0 + eta * n) / (1.0 + n * (1.0 - eta))
    inv_purity = elementwise(math.sqrt, (1.0 + n) * (1.0 + n * (1.0 - eta)) / (1.0 + eta * n))
    n_th = elementwise(lambda v: max(0.0, v), 0.5 * (inv_purity - 1.0))
    r_squeeze = 0.25 * elementwise(math.log, ratio)
    record_var = 0.25 * (1.0 + n) + (1.0 - eta) / (4.0 * eta)
    norm = elementwise(math.sqrt, 2.0 * math.pi * record_var)
    density = elementwise(math.exp, -0.5 * x * x / record_var) / norm
    return RemotePrepResult(a_x, sigma1, sigma2, n_th, r_squeeze, sigma1 < 0.25, density)


def teleport_gaussian(state: GaussianOperator, config: TeleportConfig) -> GaussianOperator:
    """Average teleported state: the input's Gaussian map X = I, Y = (kappa^2/2) I."""
    if state.n_modes != 1:
        raise ValueError("teleportation acts on a single-mode input")
    config.require_single("teleport_gaussian")
    return gaussian_map(state, np.eye(2), math.sqrt(0.5 * config.kappa_sq) * np.eye(2))


def fidelity_coherent(config: TeleportConfig) -> float:
    """Teleportation fidelity for coherent inputs: 1 / (1 + kappa^2)."""
    return 1.0 / (1.0 + config.kappa_sq)


def eta_threshold(r, gamma_t, thermal_photons=0.0):
    """Smallest efficiency at which teleportation beats the classical 1/2.

    Returns the threshold as a float when some eta in (0, 1] reaches
    fidelity 1/2, else the string ``IMPOSSIBLE``.  With a vacuum bath
    (thermal_photons = 0) a threshold always exists.  Array arguments
    broadcast to an object array of such values.
    """
    config = TeleportConfig(r, gamma_t, thermal_photons)
    a = config.kappa_sq  # at eta = 1 the detector term is exactly +0.0
    # min(1, 1/(2 - a)) = 1/(2 - min(a, 1))
    threshold = np.asarray(1.0 / (2.0 - np.fmin(a, 1.0))).astype(object)
    # a > 1 <=> 2M (1 - e^{-gamma_t}) > e^{-gamma_t} (1 - e^{-2r}), negated: expm1 cancels
    # on neither side, and at M = 0 the left side is exactly 0, so a vacuum bath never fails
    bath = 2.0 * thermal_photons * elementwise(math.expm1, -gamma_t)
    threshold[bath < config.channel().transmission * elementwise(math.expm1, -2.0 * r)] = IMPOSSIBLE
    return threshold if threshold.ndim else threshold.item()


def teleport_monte_carlo(
    z: complex, config: TeleportConfig, n_samples: int, seed: int | np.random.Generator
) -> float:
    """Monte Carlo fidelity estimate for a coherent input ``z``.

    Simulates the full record-by-record protocol: damp both twin-beam
    arms, draw joint x/y records against the input, condition, undo the
    record by displacement, and average the per-record fidelity with
    the input.  The estimator's expectation is exactly
    :func:`fidelity_coherent`; identical seeds give identical estimates,
    and a Generator ``seed`` is drawn from and left advanced.

    The conditional covariance does not depend on the record, so each
    block of records is conditioned as one batched operator.  The blocks
    draw from one stream and fill one array of fidelities, averaged once,
    so the estimate does not depend on the block size.
    """
    n_samples = require_count(n_samples, "n_samples", minimum=1)
    config.require_single("teleport_monte_carlo")
    resource = evolve(twb(config.r), config.channel())
    reference = coherent(z)
    setting = DoubleHomodyneSetting(reference=reference, efficiency=config.eta)
    rng = as_generator(seed)
    fidelities = np.empty(n_samples)
    for start in range(0, n_samples, MC_BLOCK):
        block = fidelities[start : start + MC_BLOCK]
        alphas = sample_double_homodyne(resource, setting, rng, len(block))
        # keep only the states: the outcome's lazy density holds every record's shift
        states = double_homodyne_condition(resource, setting, alphas).state
        block[:] = overlap(displace(states, 0, -alphas), reference)
    return float(np.mean(fidelities))
