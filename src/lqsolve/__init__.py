"""lq (0<q<1) regularized least-squares regression solvers.

A cyclic coordinate thresholding solver with a provably wider stable
step-size range than the classical full-vector iteration, plus
stationarity and local-minimizer diagnostics and a compressed-sensing
experiment harness.
"""

from .core import (ProblemInstance, column_norms_sq, l_max,
                   min_eig_symmetric, objective, spectral_norm_sq)
from .diagnostics import (LocalMinCertificate, StationarityReport,
                          certify_local_min, check_relative_error,
                          check_stationary, check_update_optimality)
from .errors import (AsymmetricMatrix, CorruptFile, DimensionMismatch,
                     InvalidInstance, LqsolveError, NotStationary)
from .harness import (ExperimentResult, GeneratedInstance, InstanceSpec,
                      add_noise_snr, generate_instance, rmse, run_experiment)
from .prox import ProxParams, prox_scalar, prox_vector
from .solvers import (STOP_RULES, IterationTrace, SolverConfig, SolverState,
                      gaita_run, jaita_run)

__version__ = "0.1.0"
