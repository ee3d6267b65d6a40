"""Two-path interferometry on truncated two-mode Fock space: state
families, counting likelihoods, classical and quantum Fisher information,
Cramer-Rao bounds, and seeded maximum-likelihood phase estimation.

Importing qfilab before numpy gives OpenBLAS one thread (see README.md,
"Threads")."""

import os as _os
import sys as _sys

# OpenBLAS reads this once, when numpy (or scipy's bundled copy) loads.
# Its idle worker spins: on 2 cores `qfi catalog:zeta_noon:3:300` (4 ms of
# work) took 0.22 s of CPU in 0.14 s of wall time, 0.14 s on one thread.
# A second thread pays only on large matmuls (README.md, "Threads"). Left
# alone if the user set the variable, and if numpy is already loaded, when
# it could no longer change this process and would only cap its children.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .catalog import (
    InvalidNError,
    Moment,
    PhotonDistribution,
    PoleProximityError,
    TailTooHeavyError,
    distribution_from_state,
    dual_fock,
    noon,
    tmsv,
    tmsv_cutoff_for,
    tmsv_noon,
    zeta,
    zeta_dual_fock,
    zeta_noon,
    zeta_noon_doubled,
)
from .curves import SpecError, crossing_mean, fig3a_point, fig3b_point
from .estimation import (
    DegenerateLikelihoodError,
    EstimationRun,
    default_window,
    mle_phase,
    run_estimation,
    sample_outcomes,
)
from .fisher import (
    FisherReport,
    classical_fi,
    fi_observable,
    fi_scan,
    likelihood,
    likelihood_period,
    likelihood_with_derivative,
    max_qfi_bound,
    qfi_pure,
    sector_fi_decomposition,
)
from .fock import (
    CutoffViolationError,
    EmptyStateError,
    SectorComponent,
    TwoModeState,
    apply_beamsplitter,
    apply_phase,
    beamsplitter_matrix,
    expect,
    load_state,
    make_state,
    save_state,
    sector_decompose,
    splitter_columns,
    state_from_json_dict,
    state_to_json_dict,
    vacuum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
