"""Fully-saturated iterative learning law on a fixed time grid.

The memory stores the unsaturated estimate per node; saturation is
applied on every read, so the per-iteration recursion is

    theta_star_k(t_i) = sat(theta_star_{k-1}(t_i)) + gamma * z_k(t_i)
    theta_hat_k(t_i)  = sat(theta_star_k(t_i))
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


def sat(v, bound: float):
    """Component-wise clamp to [-bound, bound]; idempotent."""
    if not bound > 0:
        raise ValueError("saturation bound must be positive")
    # minimum/maximum instead of np.clip: same result, less dispatch cost
    return np.minimum(np.maximum(v, -bound), bound)


@dataclass(frozen=True)
class TimeGrid:
    """N intervals of [0, T], with the one time table the simulator reads:
    node i is times[2i], its interval's midpoint times[2i + 1].  nodes,
    the node times as a read-only array, is every trace's t."""
    T: float
    N: int
    times: list = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        # 16 bytes a value at least (array and list); past sys.maxsize
        # numpy's linspace raises ValueError or IndexError, not MemoryError
        if 2 * self.N + 1 > sys.maxsize // 16:
            raise MemoryError(f"a time table of 2N + 1 = {2 * self.N + 1} "
                              f"values does not fit in the address space")
        object.__setattr__(self, "times", np.linspace(
            0.0, self.T, 2 * self.N + 1).tolist())
        # linspace(0, T, 2N + 1)[::2] is linspace(0, T, N + 1) bit for bit
        object.__setattr__(self, "nodes", np.array(self.times[::2]))
        self.nodes.flags.writeable = False

    @property
    def dt(self) -> float:
        return self.T / self.N


class ParamMemory:
    """Across-iteration store of the unsaturated estimates at grid nodes."""

    def __init__(self, grid: TimeGrid, m: int):
        self.grid = grid
        self.theta_star = np.zeros((grid.N + 1, m))

    def update_node(self, i: int, z: np.ndarray | float, gamma: float,
                    bound: float, clamp=sat, store=None):
        """Apply the learning recursion at node i, saturating at bound, and
        return theta_hat; theta_star stays in row i of store.

        store holds the rows read and written, theta_star by default;
        clamp fixes the shape z, the rows and the result take: numpy
        rows by default, Python floats when the engine runs an m = 1
        model on a list of theta_star's rows.
        """
        if not 0 <= i <= self.grid.N:
            raise IndexError(f"node index {i} out of range [0, {self.grid.N}]")
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma}")
        store = self.theta_star if store is None else store
        new = clamp(store[i], bound) + gamma * z
        store[i] = new
        return clamp(new, bound)
