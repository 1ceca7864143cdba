"""lindmet: frequency metrology under Markovian noise.

Liouville-space simulation of controlled open-qubit dynamics, quantum Fisher
information and sensitivity evaluation, and gradient-free optimization of
piecewise-constant control pulses.
"""
from ._kern import BACKEND as KERNEL_BACKEND
from .channels import (EncodingModel, ancilla_extend, amplitude_damping,
                       build_scenario, frequency_encoding, parallel_dephasing,
                       transverse_dephasing, two_qubit_uncorrelated_dephasing)
from .config import NmrConfig, RunConfig, load_nmr_config, load_run_config
from .harness import run_experiment, run_nmr_protocol, t2_from_linewidth
from .liouville import (NoiseChannel, dissipator_superop, hamiltonian_superop,
                        lindbladian, sandwich_superop, unvectorize, vectorize)
from .metrology import (drho_domega, qfi_eigen, qfi_fidelity, sensitivity,
                        uhlmann_fidelity)
from .optimizer import OptimizerOptions, multi_start, nelder_mead
from .propagation import ControlSchedule, PropagationError, SlicedDynamics
from .schemes import (MetrologyResult, SchemeConfig, run_control_enhanced,
                      run_scheme)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND", "EncodingModel", "ancilla_extend", "amplitude_damping",
    "build_scenario", "frequency_encoding", "parallel_dephasing",
    "transverse_dephasing", "two_qubit_uncorrelated_dephasing", "NmrConfig",
    "RunConfig", "load_nmr_config", "load_run_config", "run_experiment",
    "run_nmr_protocol", "t2_from_linewidth", "NoiseChannel",
    "dissipator_superop", "hamiltonian_superop", "lindbladian",
    "sandwich_superop", "unvectorize", "vectorize", "drho_domega", "qfi_eigen",
    "qfi_fidelity", "sensitivity", "uhlmann_fidelity", "OptimizerOptions",
    "multi_start", "nelder_mead", "ControlSchedule", "PropagationError",
    "SlicedDynamics", "MetrologyResult", "SchemeConfig", "run_control_enhanced",
    "run_scheme",
]
