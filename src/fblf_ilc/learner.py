"""Fully-saturated iterative learning law on a fixed time grid.

The memory stores the unsaturated estimate per node; saturation is
applied on every read, so the per-iteration recursion is

    theta_star_k(t_i) = sat(theta_star_{k-1}(t_i)) + gamma * z_k(t_i)
    theta_hat_k(t_i)  = sat(theta_star_k(t_i))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sat(v, bound: float):
    """Component-wise clamp to [-bound, bound]; idempotent."""
    if not bound > 0:
        raise ValueError("saturation bound must be positive")
    # minimum/maximum instead of np.clip: same result, less dispatch cost
    return np.minimum(np.maximum(v, -bound), bound)


@dataclass(frozen=True)
class TimeGrid:
    T: float
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not self.T > 0:
            raise ValueError("T must be positive")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


class ParamMemory:
    """Across-iteration store of the unsaturated estimates at grid nodes."""

    def __init__(self, grid: TimeGrid, m: int, bound: float):
        if not bound > 0:
            raise ValueError("saturation bound must be positive")
        self.grid = grid
        self.m = m
        self.bound = float(bound)
        self.theta_star = np.zeros((grid.N + 1, m))

    def update_node(self, i: int, z: np.ndarray, gamma: float):
        """Apply the learning recursion at node i; returns (theta_star, theta_hat)."""
        if not 0 <= i <= self.grid.N:
            raise IndexError(f"node index {i} out of range [0, {self.grid.N}]")
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        new = sat(self.theta_star[i], self.bound) + gamma * z
        self.theta_star[i] = new
        return new, sat(new, self.bound)
