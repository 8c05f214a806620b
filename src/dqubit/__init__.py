"""Simulation and inference toolkit for metastable D-manifold qubits in
nuclear-spin-zero trapped ions: polarization-resolved photon-scattering
detection, population tomography, coherent quartet rotations, synthetic
field-insensitive qubit construction, and Ramsey coherence analysis under
magnetic noise.
"""
__version__ = "0.4.0"  # part of every config hash: outputs may change between versions

from .atom import (
    BA138,
    AtomConstants,
    Manifold,
    Polarization,
    ZeemanState,
    cg_weight,
    jz_expectation,
    qubit_sensitivity,
    zeeman_splitting,
)
from .dynamics import (
    DecayModel,
    EffectiveDrive,
    FitFailureError,
    drive_hamiltonian,
    evolve,
    fit_rabi,
    make_synth_states,
    prepare_d1_by_rotation,
    prepare_d2_by_rotation,
    project_synth,
    stirap_prepare,
    wigner_populations,
)
from .ramsey import (
    NoiseModel,
    RamseyScan,
    benchmark_suite,
    calibrate_noise,
    calibrate_residual_rate,
    fit_t2star,
    ramsey_scan,
)
from .scatter import (
    BeamColor,
    BeamConfig,
    DetectionMatrix,
    NonTerminatingError,
    PumpModel,
    build_model,
    chain_expected_counts,
    detection_matrix_d,
    detection_matrix_s,
    find_dark_states,
    simulate_pumping,
)
from .tomography import (
    CountsVector,
    PopulationEstimate,
    SingularSystemError,
    UndefinedStateError,
    solve_constrained,
    solve_direct,
    solve_s,
    synth_counts,
)

