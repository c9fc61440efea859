"""The package's public surface."""

import types

PUBLIC = """
    ConditionalOutcome DegenerateOutcomeError DoubleHomodyneSetting FockMoments
    FockVector GaussianOperator HomodyneSetting IMPOSSIBLE LossChannel
    QuadratureGrid RemotePrepResult SqueezedThermalDecomposition TeleportConfig
    UnphysicalStateError coherent condition_fock condition_homodyne
    decompose_single_mode displace double_homodyne_condition eta_threshold evolve
    fidelity_coherent gauss_hermite_grid homodyne_density is_physical moments_fock
    overlap photon_number quadrature_wavefunction remote_prep rotate
    sample_double_homodyne sample_homodyne squeeze squeezing_from_photon_number
    symplectic_eigenvalues teleport_gaussian teleport_monte_carlo thermal
    transpose_wigner twb twb_fock vacuum wigner_eval
""".split()


def test_every_public_name_is_importable():
    # the star import gives exactly these names, so nothing removed lingers
    # and nothing is added unlisted; with no __all__ it also gives the
    # submodules loaded so far
    namespace = {}
    exec("from twinbeam import *", namespace)
    del namespace["__builtins__"]
    names = {name for name, value in namespace.items() if not isinstance(value, types.ModuleType)}
    assert names == set(PUBLIC)
    assert len(set(PUBLIC)) == len(PUBLIC)
    modules = {name for name, value in namespace.items() if isinstance(value, types.ModuleType)}
    assert {"channels", "fock", "gaussian", "measurement", "protocols"} <= modules
