"""Twin-beam remote state preparation and teleportation in Gaussian phase space.

The package keeps every protocol computation in closed Gaussian form
(states are mean vectors plus covariance factors) and ships an
independent truncated number-basis oracle so the two routes can be
cross-validated to tight tolerances.
"""

from .channels import LossChannel, evolve
from .fock import (
    DegenerateOutcomeError,
    FockMoments,
    FockVector,
    QuadratureGrid,
    condition_fock,
    gauss_hermite_grid,
    moments_fock,
    quadrature_wavefunction,
    twb_fock,
)
from .gaussian import (
    GaussianOperator,
    SqueezedThermalDecomposition,
    UnphysicalStateError,
    coherent,
    decompose_single_mode,
    displace,
    is_physical,
    overlap,
    photon_number,
    rotate,
    squeeze,
    squeezing_from_photon_number,
    symplectic_eigenvalues,
    thermal,
    transpose_wigner,
    twb,
    vacuum,
    wigner_eval,
)
from .measurement import (
    ConditionalOutcome,
    DoubleHomodyneSetting,
    HomodyneSetting,
    condition_homodyne,
    double_homodyne_condition,
    homodyne_density,
    sample_double_homodyne,
    sample_homodyne,
)
from .protocols import (
    IMPOSSIBLE,
    RemotePrepResult,
    TeleportConfig,
    eta_threshold,
    fidelity_coherent,
    remote_prep,
    teleport_gaussian,
    teleport_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionalOutcome",
    "DegenerateOutcomeError",
    "DoubleHomodyneSetting",
    "FockMoments",
    "FockVector",
    "GaussianOperator",
    "HomodyneSetting",
    "IMPOSSIBLE",
    "LossChannel",
    "QuadratureGrid",
    "RemotePrepResult",
    "SqueezedThermalDecomposition",
    "TeleportConfig",
    "UnphysicalStateError",
    "coherent",
    "condition_fock",
    "condition_homodyne",
    "decompose_single_mode",
    "displace",
    "double_homodyne_condition",
    "eta_threshold",
    "evolve",
    "fidelity_coherent",
    "gauss_hermite_grid",
    "homodyne_density",
    "is_physical",
    "moments_fock",
    "overlap",
    "photon_number",
    "quadrature_wavefunction",
    "remote_prep",
    "rotate",
    "sample_double_homodyne",
    "sample_homodyne",
    "squeeze",
    "squeezing_from_photon_number",
    "symplectic_eigenvalues",
    "teleport_gaussian",
    "teleport_monte_carlo",
    "thermal",
    "transpose_wigner",
    "twb",
    "twb_fock",
    "vacuum",
    "wigner_eval",
]
