"""Controller configuration and the robust control term.

The control input is u = -theta_hat - s, where s is either the
discontinuous unit-vector action or its eps-smoothed continuous
replacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# below this, z is treated as exactly zero (the set-valued point of the
# discontinuous action); avoids 0/0 on denormals
_Z_ZERO = 1e-300


class Mode(Enum):
    DISC = "disc"
    CONT = "cont"


@dataclass(frozen=True)
class ControllerConfig:
    mode: Mode
    bound: float          # b_V for model I, b_e for model II (squared internally)
    gamma: float
    theta_bar: float
    eps: float | None = None

    def __post_init__(self):
        if not self.bound > 0:
            raise ValueError("bound must be positive")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.theta_bar > 0:
            raise ValueError("theta_bar must be positive")
        if self.mode is Mode.CONT and not (self.eps is not None and self.eps > 0):
            raise ValueError("continuous mode requires eps > 0")


def robust_term(config: ControllerConfig, m: int):
    """The robust action s(z, rho) of config's mode, for m inputs.

    disc: the unit-vector action (z/||z||) rho, exactly zero at z = 0;
    cont: its smoothed replacement mu/(||mu|| + eps) rho with mu = z rho.
    """
    if config.mode is Mode.CONT:
        eps = config.eps

        def robust(z, rho):
            mu = z * rho
            return (rho / (math.sqrt(float(mu @ mu)) + eps)) * mu
        return robust

    zero = np.zeros(m)

    def robust(z, rho):
        nz = math.sqrt(float(z @ z))
        if nz < _Z_ZERO:
            return zero
        return (rho / nz) * z
    return robust
