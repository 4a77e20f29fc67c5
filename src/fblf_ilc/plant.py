"""Error-model dynamics, uncertainty decomposition and Lyapunov certificates.

Two model shapes are supported: a nonlinear form

    de/dt = f(e, t) + g(e, t) (u + dw(e, t) + theta(t))

and a linear form A e + b (u + dw + theta) with the certificate e'Pe.
The lumped uncertainty w(x, t) is split along the desired trajectory:
theta(t) = w(x_d(t), t) is iteration-independent and learnable, while
dw = w(x_d + e, t) - w(x_d, t) vanishes with the error and is only
norm-bounded by a user-supplied rho(e, t).

Each model type carries its constraint: bound, barrier scale, the scheme
of each theorem, closed-loop terms, required decrease and error radius.
The engine and the CLI read the bound field and the theorem table from
the model type alone, and no module outside plant tests a theorem's
number, so a model type registered in BUILTIN_MODELS needs no code edit
outside plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .barrier import BarrierDomainError, BarrierKind

State = float | np.ndarray  # the state the loop passes, see float_native


class Scheme(NamedTuple):
    """A theorem's barrier kinds, of the learning gain and of the monitor,
    and whether it is smoothed (mode cont, an eps*T residual in ΔL)."""
    gain: BarrierKind
    monitor: BarrierKind
    smoothed: bool


@dataclass(frozen=True)
class UncertaintySpec:
    """Lumped uncertainty w and the norm bound rho on its error-induced part.

    rho must dominate ||w(x_d + e, t) - w(x_d, t)|| and vanish at e = 0.
    The closed loop assumes both; check_uncertainty_bound is the sampled
    check a caller runs.
    """
    w: Callable[[State, float], State]
    rho: Callable[[State, float], float]


@dataclass(frozen=True)
class LyapunovCertificate:
    """User-supplied certificate for the nominal (u = 0, w = 0) system.

    alpha1/alpha2 bracket V, dissipation is dV/dt + grad(V) . f and must
    not exceed -alpha(||e||).  alpha1_inv converts a V-level back to an
    error radius.
    """
    V: Callable[[State, float], float]
    dissipation: Callable[[State, float], float]
    LgV: Callable[[State, float], State]
    alpha1: Callable[[float], float]
    alpha2: Callable[[float], float]
    alpha: Callable[[float], float]
    alpha1_inv: Callable[[float], float]


@dataclass(frozen=True)
class ErrorModelI:
    """Constrains V(e, t) < b_V, with gradient LgV and the whole barrier."""
    n: int
    m: int
    f: Callable[[State, float], State]
    g: Callable[[State, float], State]  # n x m
    x_d: Callable[[float], State]
    uncertainty: UncertaintySpec
    certificate: LyapunovCertificate
    T: float

    bound_key: ClassVar[str] = "b_V"
    bound_power: ClassVar[int] = 1
    barrier_scale: ClassVar[float] = 1.0
    theorems: ClassVar[dict] = {
        1: Scheme(BarrierKind.FII, BarrierKind.FII, False),
        2: Scheme(BarrierKind.FV, BarrierKind.FV, True)}

    def loop_terms(self, shape):
        """The closed loop's (value, grad, rhs) in shape's primitives, by
        engine._Shape's 0.0 rule, in the types the callables return.

        So when a callable returns numpy scalars, an overflow in one of
        rhs's sums or products (model II's u + w too) warns in library
        use, where floats overflow to inf silently, and the loop raises
        NonFiniteStateError at the next stage either way; under the CLI's
        np.errstate it raises FloatingPointError, which exits 4.
        """
        matvec = shape.matvec
        f, g, w = self.f, self.g, self.uncertainty.w

        def rhs(e, t, u, xd):
            # dw + theta collapses to w at the actual state
            return 0.0 + (f(e, t) + matvec(g(e, t), u + w(xd + e, t)))
        return self.certificate.V, self.certificate.LgV, rhs

    def required_decrease(self, v, blf):
        return v  # V_{k-1}(T)

    def error_radius(self, limsup, bound):
        return self.certificate.alpha1_inv(limsup)  # measured


@dataclass(frozen=True)
class ErrorModelII:
    """Constrains e'Pe < b_e^2, with gradient B'Pe and half the barrier,
    built from A, b and P = P' > 0 with -(A'P + PA) > 0, which it checks.
    Its Theorem-1 gain, FI's d1 b_e^2/(b_e^2 - V)^2, is 1/b_e^2 times
    that of the monitor's FII: the two pair only at b_e = 1."""
    A: np.ndarray
    b: np.ndarray  # n x m
    P: np.ndarray
    x_d: Callable[[float], State]
    uncertainty: UncertaintySpec
    T: float

    bound_key: ClassVar[str] = "b_e"
    bound_power: ClassVar[int] = 2
    barrier_scale: ClassVar[float] = 0.5
    theorems: ClassVar[dict] = {
        1: Scheme(BarrierKind.FI, BarrierKind.FII, False),
        2: Scheme(BarrierKind.FV, BarrierKind.FV, True)}

    def __post_init__(self):
        """Read A, b and P once each as a float copy, so nested lists serve
        and a caller's later edit reaches neither the model nor its checks.
        Raise ValueError naming the matrix unless it is a finite, nonempty
        matrix with A n x n, b n x m (m >= 1) and P n x n, then unless P
        is symmetric (the loop's B'Pe is half the gradient of e'Pe only
        then) and P and -(A'P + PA) are positive definite, giving the
        smallest eigenvalue."""
        A, b, P = (np.array(getattr(self, k), dtype=float) for k in "AbP")
        n = A.shape[0] if A.ndim == 2 and A.size else "n"
        for name, M, cols in (("A", A, n), ("b", b, "m"), ("P", P, n)):
            if not (M.ndim == 2 and M.size and M.shape[0] == n
                    and cols in ("m", M.shape[1])):
                at_least = ", m >= 1" if cols == "m" else ""
                raise ValueError(f"{name} must be a matrix of shape "
                                 f"({n}, {cols}){at_least}, got {M.shape}")
            if not np.isfinite(M).all():
                raise ValueError(f"{name} of shape {M.shape} is not finite")
            object.__setattr__(self, name, M)
        Q = -(A.T @ P + P @ A)
        if not np.linalg.norm(P - P.T) <= 1e-9 * (1.0 + np.linalg.norm(P)):
            raise ValueError("P is not symmetric, so B'Pe is not grad(e'Pe)/2")
        for name, M in (("P", P), ("-(A'P + PA)", Q)):
            low = float(np.min(np.linalg.eigvalsh(M)))
            if not low > 0.0:
                raise ValueError(f"{name} is not positive definite: "
                                 f"smallest eigenvalue {low:.3g}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    def loop_terms(self, shape):
        """As ErrorModelI's, with P, A, b and B'P read in once."""
        unwrap, matvec = shape.unwrap, shape.matvec
        P, A, B = (unwrap(M) for M in (self.P, self.A, self.b))
        BtP = unwrap(self.b.T @ self.P)
        w, dot = self.uncertainty.w, shape.dot

        def value(e, t):
            return dot(e, matvec(P, e))  # P > 0: never -0.0

        def grad(e, t):
            return 0.0 + matvec(BtP, e)

        def rhs(e, t, u, xd):
            return 0.0 + (matvec(A, e) + matvec(B, u + w(xd + e, t)))
        return value, grad, rhs

    def required_decrease(self, v, blf):
        return blf(v)  # the barrier W_{k-1}(T)

    def error_radius(self, limsup, bound):
        # guaranteed by the bound, not measured
        return math.sqrt(bound / float(np.min(np.linalg.eigvalsh(self.P))))


def scheme(model, theorem: int) -> Scheme:
    """The scheme of theorem, from the model type's table: the one lookup,
    which engine.run makes once per run.  A theorem outside the table
    raises ValueError."""
    if theorem not in model.theorems:
        raise ValueError(f"theorem must be one of {sorted(model.theorems)}, "
                         f"got {theorem}")
    return model.theorems[theorem]


def value_bound(model, bound: float) -> float:
    """The bound on V, from the value of the model type's bound_key: the
    one the closed loop, the monitor and the CLI's constraint plot read."""
    v = bound ** model.bound_power
    if not 0 < v < math.inf:  # b_e ** 2 is 0.0 below about 1.57e-162
        raise BarrierDomainError(f"{model.bound_key} = {bound}: V's bound {v}")
    return v


def float_native(model) -> bool:
    """n = m = 1: the model's callables (V, LgV, f, g, w, rho) receive a
    Python float state, not an array, in the closed loop, in theta_path,
    delta_w and the sampled checks, so a w written for floats alone
    serves everywhere.  V and rho return a float or a numpy scalar; LgV,
    f, g, w and x_d may also return a size-1 array.  A larger model's
    callables receive (n,) arrays, and its x_d returns one."""
    return model.n == model.m == 1


def _item(a) -> float:
    """A float-native model's output, a float or of size 1, as a float:
    the one converter to the loop's float.  The engine reads z and each
    stage's derivative through it, and _desired each x_d(t)."""
    if type(a) is float:
        return a
    a = np.asarray(a, dtype=float)
    if a.size != 1:
        raise ValueError(f"an n = m = 1 model's callables return a float or "
                         f"a size-1 array, got shape {a.shape}")
    return a.item()


def _desired(model, times) -> list:
    """x_d at each of times, as the model's callables take a state.  An
    x_d of another size or shape raises ValueError here, when the x_d
    table is read, before any row of theta* is learned."""
    x_d = model.x_d
    if float_native(model):
        return [_item(x_d(t)) for t in times]
    path = [np.array(x_d(t), dtype=float) for t in times]  # copies: kept
    if bad := {xd.shape for xd in path} - {(model.n,)}:
        raise ValueError(f"x_d returned shape {min(bad)}, not ({model.n},)")
    return path


def theta_path(model, times) -> np.ndarray:
    """Learnable part of the uncertainty, theta(t) = w(x_d(t), t), at each
    of times, as a (len(times), m) array; x_d, read as _desired reads
    it, and w are called once per time.

    Monitor-only: the controller never sees this.
    """
    w, xds = model.uncertainty.w, _desired(model, times)
    return np.array([w(xd, t) for xd, t in zip(xds, times)],
                    dtype=float).reshape(len(times), -1)


def delta_w(model, t: float, e: State) -> np.ndarray:
    """Error-induced part of the uncertainty, w(x_d + e, t) - w(x_d, t)."""
    xd, = _desired(model, [t])
    w = model.uncertainty.w
    return np.asarray(w(xd + e, t), dtype=float) - np.asarray(w(xd, t), dtype=float)


def _draws(model, seed: int):
    """10^4 pairs (e, t) from a fixed seed: e, as State, from the box
    [-10, 10]^n, then t from [0, T]."""
    rng = np.random.default_rng(seed)
    size = None if float_native(model) else model.n
    for _ in range(10_000):
        yield rng.uniform(-10.0, 10.0, size=size), rng.uniform(0.0, model.T)


def check_certificate(model: ErrorModelI) -> bool:
    """Sample-validate the certificate bracketing and dissipation bounds
    on _draws' pairs of seed 0."""
    cert = model.certificate
    tol = 1e-9
    for e, t in _draws(model, 0):
        r = float(np.linalg.norm(e))
        v = cert.V(e, t)
        if not (cert.alpha1(r) - tol <= v <= cert.alpha2(r) + tol):
            return False
        if not cert.dissipation(e, t) <= -cert.alpha(r) + tol:
            return False
    return True


def check_uncertainty_bound(model) -> bool:
    """Sample-validate ||delta_w(e, t)|| <= rho(e, t) and rho(0, t) = 0
    on _draws' pairs of seed 1."""
    rho = model.uncertainty.rho
    for e, t in _draws(model, 1):
        if np.linalg.norm(delta_w(model, t, e)) > rho(e, t) + 1e-9:
            return False
        # e - e: the zero state, +0.0 in e's type and shape (e is finite)
        if rho(e - e, t) != 0.0:
            return False
    return True


def _scalar_uncertainty() -> UncertaintySpec:
    # Lipschitz bound rho = |e|/2 matches w(x, t) = x/2 exactly
    return UncertaintySpec(
        w=lambda x, t: 0.5 * x,
        rho=lambda e, t: 0.5 * math.sqrt(e * e),
    )


def scalar_model_i(T: float = 2.0 * math.pi) -> ErrorModelI:
    """Built-in scalar nonlinear model: f = -e, g = 1, w(x, t) = x/2, x_d = sin t."""
    cert = LyapunovCertificate(
        V=lambda e, t: 0.5 * (e * e),
        dissipation=lambda e, t: -(e * e),
        LgV=lambda e, t: e,
        alpha1=lambda s: 0.5 * s * s,
        alpha2=lambda s: 0.5 * s * s,
        alpha=lambda s: s * s,
        alpha1_inv=lambda v: math.sqrt(2.0 * v),
    )
    return ErrorModelI(
        n=1, m=1,
        f=lambda e, t: -e,
        g=lambda e, t: 1.0,
        x_d=math.sin,
        uncertainty=_scalar_uncertainty(),
        certificate=cert,
        T=T,
    )


def scalar_model_ii(T: float = 2.0 * math.pi) -> ErrorModelII:
    """Built-in scalar linear model: A = -1, b = 1, P = 1/2 (so Q = 1)."""
    return ErrorModelII(
        A=np.array([[-1.0]]),
        b=np.array([[1.0]]),
        P=np.array([[0.5]]),
        x_d=math.sin,
        uncertainty=_scalar_uncertainty(),
        T=T,
    )


BUILTIN_MODELS = {
    "scalar-I": scalar_model_i,
    "scalar-II": scalar_model_ii,
}
