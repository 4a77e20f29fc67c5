"""Controller configuration and the robust control term.

The control input is u = -theta_hat - s, where s is either the
discontinuous unit-vector action or its eps-smoothed continuous
replacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


# below this, z is treated as exactly zero (the set-valued point of the
# discontinuous action); avoids 0/0 on denormals
_Z_ZERO = 1e-300


class Mode(Enum):
    DISC = "disc"
    CONT = "cont"


@dataclass(frozen=True)
class ControllerConfig:
    """A controller's mode, bound, gain, saturation bound and eps.

    mode is read through Mode(...), so "cont" is Mode.CONT; any other
    value raises ValueError naming mode.  A bound, gamma, theta_bar or
    eps that is not positive and finite raises ValueError, and so does
    cont mode without eps.
    """
    mode: Mode
    bound: float          # b_V or b_e; plant.value_bound gives V's bound
    gamma: float
    theta_bar: float
    eps: float | None = None

    def __post_init__(self):
        # robust_term tests `mode is Mode.CONT`, so a mode's string
        # value must be read as its member
        try:
            object.__setattr__(self, "mode", Mode(self.mode))
        except ValueError:
            raise ValueError(f"mode must be one of disc, cont, got "
                             f"{self.mode!r}") from None
        # the comparison is false for NaN too
        for name in ("bound", "gamma", "theta_bar", "eps"):
            x = getattr(self, name)
            if x is not None and not 0 < x < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {x}")
        if self.mode is Mode.CONT and self.eps is None:
            raise ValueError("continuous mode requires eps > 0")


def robust_term(config: ControllerConfig, dot):
    """The robust action s(z, rho) of config's mode.

    disc: the unit-vector action (z/||z||) rho, exactly zero at z = 0;
    cont: its smoothed replacement mu/(||mu|| + eps) rho with mu = z rho.
    dot, the inner product as a float, fixes the shape z takes:
    float(a @ b) for m inputs, a float product when the engine runs an
    m = 1 model.  The action at z = 0 is +0.0 in z's own type and shape.
    """
    sqrt, z_zero = math.sqrt, _Z_ZERO
    if config.mode is Mode.CONT:
        eps = config.eps

        def robust(z, rho):
            mu = z * rho
            return (rho / (sqrt(dot(mu, mu)) + eps)) * mu
        return robust

    def robust(z, rho):
        nz = sqrt(dot(z, z))
        if nz < z_zero:
            return z - z  # +0.0: z is finite here
        return (rho / nz) * z
    return robust
