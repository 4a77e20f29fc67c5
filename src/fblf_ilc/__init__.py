"""Barrier-constrained iterative learning control: fractional barrier
Lyapunov functions, saturated learning laws, and desk-scale simulation."""

from .barrier import (BarrierDomainError, BarrierKind, blf_d1, blf_d2,
                      blf_eval, ibp_probe, verify_order)
from .controller import ControllerConfig, Mode, robust_term
from .engine import RunResult, check_delta_L, monitor_L, run, run_iteration
from .learner import ParamMemory, TimeGrid, sat
from .plant import (ErrorModelI, ErrorModelII, LyapunovCertificate,
                    UncertaintySpec, scalar_model_i, scalar_model_ii)

__all__ = [
    "BarrierDomainError", "BarrierKind", "blf_eval", "blf_d1", "blf_d2",
    "verify_order", "ibp_probe",
    "ControllerConfig", "Mode", "robust_term",
    "RunResult", "run", "run_iteration", "monitor_L", "check_delta_L",
    "ParamMemory", "TimeGrid", "sat",
    "ErrorModelI", "ErrorModelII", "UncertaintySpec", "LyapunovCertificate",
    "scalar_model_i", "scalar_model_ii",
]

__version__ = "0.1.0"
