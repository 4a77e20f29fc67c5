"""Exact-arithmetic oracle for the float closed loop of the built-in models.

Recomputes engine.run_iteration's scheme for scalar model I or II, in
disc or cont mode under Theorem 1 or 2, in 60-digit decimal arithmetic.
Its inputs are the engine's own floats, each converted exactly: the
x_d table on the grid's time table (the built-ins read t only through
x_d), dt, dt/2, dt/6 and the bound on V.  It steps as the engine does:
at node i it reads V, learns theta_hat = sat(sat(theta*) + gamma z) and
records the row, then takes one RK4 step whose three later stages hold
node i's theta_hat.  A breach is V >= bound at a node or a stage.
Standard library only, so it shares no code with the package: it
spells its own barrier derivatives, robust term and learning law.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

_CTX = Context(prec=60)
_Z_ZERO = Decimal(1e-300)  # the float 1e-300, exactly

# the rows of a trace that the exact run is compared on
FIELDS = ("e", "V", "theta_hat")

# the learning gain dB/dV, B of the gain kind, at V = v below bound b
D1 = {
    "FI": lambda v, b: b / (b - v) ** 2,
    "FII": lambda v, b: b * b / (b - v) ** 2,
    "FV": lambda v, b: b * (b + 1) / (b - v) ** 2,
}

# (model, theorem) -> the gain kind of the theorem's scheme
GAIN = {("I", 1): "FII", ("I", 2): "FV", ("II", 1): "FI", ("II", 2): "FV"}

# the gradient of the constrained value V = e^2/2: model I's LgV = e,
# model II's B'Pe with P = 1/2 and B = 1
GRAD = {"I": lambda e: e, "II": lambda e: e / 2}


def distance(got, exact) -> float:
    """max |got - exact| / max |exact| over the rows both hold (over 1 when
    every exact row is 0); a NaN in the floats got is skipped."""
    top = max(map(abs, exact), default=Decimal(0)) or Decimal(1)
    diff = max((abs(Decimal(g) - x) for g, x in zip(got, exact)
                if not math.isnan(g)), default=Decimal(0))
    return float(diff / top)


class Breach(Exception):
    """V reached the bound at a node or stage."""


class Scheme:
    """One config's scheme on an N-interval grid, xds the x_d table on its
    2N + 1 times; every float argument is read exactly."""

    def __init__(self, model, theorem, mode, xds, dt, half_dt, sixth_dt,
                 bound, gamma, theta_bar, eps=None):
        self.d1, self.grad = D1[GAIN[model, theorem]], GRAD[model]
        self.mode, self.N = mode, (len(xds) - 1) // 2
        self.xds = [Decimal(x) for x in xds]
        (self.dt, self.half_dt, self.sixth_dt, self.bound, self.gamma,
         self.theta_bar) = map(Decimal, (dt, half_dt, sixth_dt, bound, gamma,
                                         theta_bar))
        self.eps = None if eps is None else Decimal(eps)

    def _signal(self, e):
        """V at e, and z = d1(V) grad V; raises Breach at V >= bound."""
        v = e * e / 2
        if not v < self.bound:
            raise Breach
        return v, self.d1(v, self.bound) * self.grad(e)

    def _input(self, e, z, theta_hat):
        """u = -theta_hat - s, s the disc action rho z/|z| (zero below
        |z| = 1e-300) or the cont action rho mu/(|mu| + eps), mu = z rho;
        rho = |e|/2."""
        rho = abs(e) / 2
        if self.mode == "cont":
            mu = z * rho
            return -theta_hat - rho / (abs(mu) + self.eps) * mu
        if abs(z) < _Z_ZERO:
            return -theta_hat
        return -theta_hat - rho / abs(z) * z

    def _rhs(self, e, u, j):
        # -e + u + w(x_d + e), w(x) = x/2, for both models
        return -e + u + (self.xds[j] + e) / 2

    def _clamp(self, x):
        return max(-self.theta_bar, min(self.theta_bar, x))

    def node(self, e, star):
        """At node state e with the memory's row star: (V, z, the new
        row theta*, theta_hat); raises Breach at V >= bound."""
        with localcontext(_CTX):
            v, z = self._signal(e)
            star = self._clamp(star) + self.gamma * z
            return v, z, star, self._clamp(star)

    def step(self, i, e, z, theta_hat):
        """The state at node i + 1 from node i's e, z and theta_hat, which
        the three later stages hold; raises Breach at a stage."""
        with localcontext(_CTX):
            def deriv(e, j):
                _, z = self._signal(e)
                return self._rhs(e, self._input(e, z, theta_hat), j)
            k1 = self._rhs(e, self._input(e, z, theta_hat), 2 * i)
            k2 = deriv(e + self.half_dt * k1, 2 * i + 1)
            k3 = deriv(e + self.half_dt * k2, 2 * i + 1)
            k4 = deriv(e + self.dt * k3, 2 * i + 2)
            return e + self.sixth_dt * (k1 + 2 * k2 + 2 * k3 + k4)

    def run(self, K, restart=None):
        """K iterations from a zero memory: per iteration, a dict of the
        rows the engine records, e, V and theta_hat (a stage breach in
        node i's interval still records node i), and breach, the
        breaching node or None.

        restart, per iteration, holds the engine's e rows and its theta*
        rows before the iteration.  Given it, each node starts from the
        engine's e, where finite, and theta*, so a row of e is one exact
        step from the engine's previous row, and V and theta_hat are
        exact at the engine's state.
        """
        stars = [Decimal(0)] * (self.N + 1)
        out = []
        for k in range(K):
            rows = {"e": [], "V": [], "theta_hat": [], "breach": None}
            e = Decimal(0)
            if restart:
                es, star_rows = restart[k]
                stars = [Decimal(x) for x in star_rows]
            try:
                for i in range(self.N + 1):
                    x = Decimal(es[i]) if restart and es[i] == es[i] else e
                    v, z, stars[i], theta_hat = self.node(x, stars[i])
                    rows["e"].append(e)
                    rows["V"].append(v)
                    rows["theta_hat"].append(theta_hat)
                    if i < self.N:
                        e = self.step(i, x, z, theta_hat)
            except Breach:
                rows["breach"] = i
            out.append(rows)
        return out
