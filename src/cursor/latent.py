"""Latent-space geometry: points, distances, and trajectory distance ladders.

The latent space is plain Euclidean R^dim.  A trajectory is a set of points
on a single ray from a target, placed analytically at prescribed distances
(target + d * u for a seeded unit direction u), so placement is exact and
cheap instead of iterative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_rng, derive_rngs

__all__ = [
    "ACQUISITION_D_MAX",
    "LOG_DISTANCE_FLOOR",
    "LatentPoint",
    "as_point",
    "point_at_distance",
    "similarity",
]

# Span of the acquisition geometry: distances range from 0 to 46.16.
ACQUISITION_D_MAX = 46.16

# Smallest nonzero distance used when log-spacing a ladder that starts at 0.
LOG_DISTANCE_FLOOR = 1.0

# The distance ladders trajectory_distances draws, and a plan and the CLI accept.
SPACINGS = ("uniform", "logarithmic")


@dataclass(frozen=True, eq=False)
class LatentPoint:
    """A single point in latent space."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1 or coords.size == 0:
            raise ValueError("coords must be a non-empty 1-D vector")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        coords = coords.copy()
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def as_point(values) -> LatentPoint:
    """Coerce an array-like into a LatentPoint (no-op when already one)."""
    if isinstance(values, LatentPoint):
        return values
    return LatentPoint(np.asarray(values, dtype=np.float64))


def similarity(h: LatentPoint, z: LatentPoint) -> float:
    """Euclidean distance between two latent points (the metric rho)."""
    h, z = as_point(h), as_point(z)
    if h.dim != z.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {z.dim}")
    return float(np.linalg.norm(h.coords - z.coords))


def point_at_distance(target: LatentPoint, d: float, seed: int) -> LatentPoint:
    """A point at exactly distance d from target, along a seeded direction."""
    target = as_point(target)
    if not np.isfinite(d) or d < 0:
        raise ValueError(f"distance must be finite and >= 0, got {d}")
    return LatentPoint(target.coords + d * unit_direction(target.dim, seed))


def unit_direction(dim: int, seed: int) -> np.ndarray:
    """A seeded unit vector in R^dim."""
    return _unit_vector(dim, derive_rng(seed, "direction"))


def unit_directions(dim: int, seeds: np.ndarray) -> np.ndarray:
    """unit_direction(dim, seed) for each of a column of seeds, one row each."""
    return np.array([_unit_vector(dim, rng) for rng in derive_rngs(seeds, "direction")])


def _unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        u = rng.standard_normal(dim)
        norm = np.linalg.norm(u)
        if norm > 1e-12:
            return u / norm


def trajectory_distances(n_points: int, d_min: float, d_max: float, spacing: str) -> np.ndarray:
    """The sorted ladder of n_points distances from d_min to d_max."""
    n, lo, hi = n_points, d_min, d_max
    if n < 1:
        raise ValueError("n_points must be >= 1")
    if not (0 <= lo <= hi):
        raise ValueError(f"need 0 <= d_min <= d_max, got [{lo}, {hi}]")
    if hi > ACQUISITION_D_MAX:
        raise ValueError(f"d_max {hi} exceeds {ACQUISITION_D_MAX}")
    if spacing not in SPACINGS:
        raise ValueError(f"unknown spacing {spacing!r}")
    if spacing == "uniform":
        return np.linspace(lo, hi, n)
    if lo > 0:
        return np.geomspace(lo, hi, n)
    # Log of zero is undefined: pin the first sample at 0 and log-space the
    # rest from a floor up to d_max.
    if n == 1 or hi == 0:
        return np.zeros(n)
    floor = min(LOG_DISTANCE_FLOOR, hi)
    return np.concatenate([[0.0], np.geomspace(floor, hi, n - 1)])
