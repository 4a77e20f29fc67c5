"""Error-model dynamics, uncertainty decomposition and Lyapunov certificates.

Two model shapes are supported: a nonlinear form

    de/dt = f(e, t) + g(e, t) (u + dw(e, t) + theta(t))

and a linear form with a stable matrix A and Lyapunov pair (P, Q).
The lumped uncertainty w(x, t) is split along the desired trajectory:
theta(t) = w(x_d(t), t) is iteration-independent and learnable, while
dw = w(x_d + e, t) - w(x_d, t) vanishes with the error and is only
norm-bounded by a user-supplied rho(e, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Vec = np.ndarray


@dataclass(frozen=True)
class UncertaintySpec:
    """Lumped uncertainty w and the norm bound rho on its error-induced part.

    rho must dominate ||w(x_d + e, t) - w(x_d, t)|| and vanish at e = 0;
    both properties are validated by sampling, never assumed.
    """
    w: Callable[[Vec, float], Vec]
    rho: Callable[[Vec, float], float]


@dataclass(frozen=True)
class LyapunovCertificate:
    """User-supplied certificate for the nominal (u = 0, w = 0) system.

    alpha1/alpha2 bracket V, dissipation is dV/dt + grad(V) . f and must
    not exceed -alpha(||e||).  alpha1_inv converts a V-level back to an
    error radius.
    """
    V: Callable[[Vec, float], float]
    dissipation: Callable[[Vec, float], float]
    LgV: Callable[[Vec, float], Vec]
    alpha1: Callable[[float], float]
    alpha2: Callable[[float], float]
    alpha: Callable[[float], float]
    alpha1_inv: Callable[[float], float]


@dataclass(frozen=True)
class ErrorModelI:
    n: int
    m: int
    f: Callable[[Vec, float], Vec]
    g: Callable[[Vec, float], np.ndarray]  # n x m
    x_d: Callable[[float], Vec]
    uncertainty: UncertaintySpec
    certificate: LyapunovCertificate
    T: float


@dataclass(frozen=True)
class ErrorModelII:
    A: np.ndarray
    b: np.ndarray  # n x m
    P: np.ndarray
    Q: np.ndarray
    x_d: Callable[[float], Vec]
    uncertainty: UncertaintySpec
    T: float

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


def theta_true(model, t: float) -> Vec:
    """Learnable part of the uncertainty, evaluated on the desired path.

    Monitor-only: the controller never sees this.
    """
    return np.asarray(model.uncertainty.w(model.x_d(t), t), dtype=float)


def delta_w(model, t: float, e: Vec) -> Vec:
    """Error-induced part of the uncertainty, w(x_d + e, t) - w(x_d, t)."""
    xd = model.x_d(t)
    w = model.uncertainty.w
    return np.asarray(w(xd + e, t), dtype=float) - np.asarray(w(xd, t), dtype=float)


def rho_bound(model, t: float, e: Vec) -> float:
    """Norm bound on delta_w; zero at zero error."""
    return float(model.uncertainty.rho(e, t))


def lyapunov_residual(model: ErrorModelII) -> float:
    """|| A'P + PA + Q ||, which should vanish for a valid pair."""
    return float(np.linalg.norm(model.A.T @ model.P + model.P @ model.A + model.Q))


def check_certificate(model: ErrorModelI, n_samples: int = 10000,
                      box: float = 10.0, seed: int = 0) -> bool:
    """Sample-validate the certificate bracketing and dissipation bounds."""
    rng = np.random.default_rng(seed)
    cert = model.certificate
    tol = 1e-9
    for _ in range(n_samples):
        e = rng.uniform(-box, box, size=model.n)
        t = rng.uniform(0.0, model.T)
        r = float(np.linalg.norm(e))
        v = cert.V(e, t)
        if not (cert.alpha1(r) - tol <= v <= cert.alpha2(r) + tol):
            return False
        if not cert.dissipation(e, t) <= -cert.alpha(r) + tol:
            return False
    return True


def check_uncertainty_bound(model, n_samples: int = 10000,
                            box: float = 10.0, seed: int = 1) -> bool:
    """Sample-validate ||delta_w(e, t)|| <= rho(e, t) and rho(0, t) = 0."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        e = rng.uniform(-box, box, size=model.n)
        t = rng.uniform(0.0, model.T)
        if np.linalg.norm(delta_w(model, t, e)) > rho_bound(model, t, e) + 1e-9:
            return False
        if rho_bound(model, t, np.zeros(model.n)) != 0.0:
            return False
    return True


def _scalar_uncertainty(l_w: float = 0.5) -> UncertaintySpec:
    # Lipschitz bound rho = l_w ||e|| matches w(x, t) = l_w x exactly
    return UncertaintySpec(
        w=lambda x, t: l_w * x,
        rho=lambda e, t: l_w * math.sqrt(float(e @ e)),
    )


def scalar_model_i(T: float = 2.0 * math.pi) -> ErrorModelI:
    """Built-in scalar nonlinear model: f = -e, g = 1, w(x, t) = x/2, x_d = sin t."""
    cert = LyapunovCertificate(
        V=lambda e, t: 0.5 * float(e @ e),
        dissipation=lambda e, t: -float(e @ e),
        LgV=lambda e, t: e,
        alpha1=lambda s: 0.5 * s * s,
        alpha2=lambda s: 0.5 * s * s,
        alpha=lambda s: s * s,
        alpha1_inv=lambda v: math.sqrt(2.0 * v),
    )
    return ErrorModelI(
        n=1, m=1,
        f=lambda e, t: -e,
        g=lambda e, t: _EYE1,
        x_d=lambda t: np.array([math.sin(t)]),
        uncertainty=_scalar_uncertainty(),
        certificate=cert,
        T=T,
    )


def scalar_model_ii(T: float = 2.0 * math.pi) -> ErrorModelII:
    """Built-in scalar linear model: A = -1, b = 1, P = 1/2, Q = 1."""
    return ErrorModelII(
        A=np.array([[-1.0]]),
        b=np.array([[1.0]]),
        P=np.array([[0.5]]),
        Q=np.array([[1.0]]),
        x_d=lambda t: np.array([math.sin(t)]),
        uncertainty=_scalar_uncertainty(),
        T=T,
    )


_EYE1 = np.eye(1)

BUILTIN_MODELS = {
    "scalar-I": scalar_model_i,
    "scalar-II": scalar_model_ii,
}
