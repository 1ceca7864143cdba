"""lindmet: frequency metrology under Markovian noise.

Liouville-space simulation of controlled open-qubit dynamics, quantum Fisher
information and sensitivity evaluation, and gradient-free optimization of
piecewise-constant control pulses.

Importing lindmet before numpy defaults BLAS and OpenMP to one thread: on
the 8x8 matrices of this package (one qubit's superoperators as Van Loan
blocks) a second thread only spins and doubles the CPU time. A value
already set in the environment wins.
"""
import os

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _variable in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_variable, "1")
del _variable

from ._kern import BACKEND as KERNEL_BACKEND
from .channels import (EncodingModel, Site, ancilla_extend, amplitude_damping,
                       build_scenario, parallel_dephasing, transverse_dephasing)
from .config import NmrConfig, RunConfig, load_nmr_config, load_run_config
from .harness import run_experiment, run_nmr_protocol, t2_from_linewidth
from .liouville import (NoiseChannel, dissipator_superop, hamiltonian_superop,
                        lindbladian, unvectorize, vectorize)
from .metrology import (drho_domega, qfi_eigen, qfi_fidelity, sensitivity,
                        uhlmann_fidelity)
from .optimizer import OptimizerOptions, multi_start, nelder_mead
from .propagation import ControlSchedule, PropagationError, SlicedDynamics
from .schemes import MetrologyResult, SchemeConfig, run_scheme

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND", "EncodingModel", "Site", "ancilla_extend", "amplitude_damping",
    "build_scenario", "parallel_dephasing", "transverse_dephasing", "NmrConfig", "RunConfig",
    "load_nmr_config", "load_run_config", "run_experiment", "run_nmr_protocol",
    "t2_from_linewidth", "NoiseChannel", "dissipator_superop",
    "hamiltonian_superop", "lindbladian", "unvectorize", "vectorize",
    "drho_domega", "qfi_eigen", "qfi_fidelity", "sensitivity",
    "uhlmann_fidelity", "OptimizerOptions", "multi_start", "nelder_mead",
    "ControlSchedule", "PropagationError", "SlicedDynamics", "MetrologyResult",
    "SchemeConfig", "run_scheme",
]
