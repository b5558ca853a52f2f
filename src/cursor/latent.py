"""Latent-space geometry: points, distances, and trajectory sampling.

The latent space is plain Euclidean R^dim.  A trajectory is a set of points
on a single ray from a target, placed analytically at prescribed distances
(target + d * u for a seeded unit direction u), so placement is exact and
cheap instead of iterative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_rng

__all__ = [
    "ACQUISITION_D_MAX",
    "LOG_DISTANCE_FLOOR",
    "LatentPoint",
    "TrajectorySpec",
    "as_point",
    "point_at_distance",
    "sample_trajectory",
    "similarity",
]

# Span of the acquisition geometry: distances range from 0 to 46.16.
ACQUISITION_D_MAX = 46.16

# Smallest nonzero distance used when log-spacing a ladder that starts at 0.
LOG_DISTANCE_FLOOR = 1.0


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
    return LatentPoint(target.coords + d * _unit_direction(target.dim, seed))


def _unit_direction(dim: int, seed: int) -> np.ndarray:
    rng = derive_rng(seed, "direction")
    while True:
        u = rng.standard_normal(dim)
        norm = np.linalg.norm(u)
        if norm > 1e-12:
            return u / norm


@dataclass(frozen=True)
class TrajectorySpec:
    """One ray of stimuli: n_points at distances d_min..d_max from target."""

    target: LatentPoint
    n_points: int
    d_min: float = 0.0
    d_max: float = ACQUISITION_D_MAX
    spacing: str = "logarithmic"
    direction_seed: int = 0
    # Ceiling on d_max; defaults to the acquisition range but can be raised.
    max_distance: float = ACQUISITION_D_MAX
    log_floor: float = LOG_DISTANCE_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "target", as_point(self.target))
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if not (0 <= self.d_min <= self.d_max):
            raise ValueError(f"need 0 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if self.d_max > self.max_distance:
            raise ValueError(
                f"d_max {self.d_max} exceeds max_distance {self.max_distance}"
            )
        if self.spacing not in ("uniform", "logarithmic"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")


def trajectory_distances(spec: TrajectorySpec) -> np.ndarray:
    """The sorted distance ladder a TrajectorySpec prescribes."""
    n, lo, hi = spec.n_points, spec.d_min, spec.d_max
    if spec.spacing == "uniform":
        return np.linspace(lo, hi, n)
    if lo > 0:
        return np.geomspace(lo, hi, n)
    # Log of zero is undefined: pin the first sample at 0 and log-space the
    # rest from a floor up to d_max.
    if n == 1 or hi == 0:
        return np.zeros(n)
    floor = min(spec.log_floor, hi)
    return np.concatenate([[0.0], np.geomspace(floor, hi, n - 1)])


def sample_trajectory(spec: TrajectorySpec) -> list[tuple[LatentPoint, float]]:
    """Place spec.n_points on one seeded ray from the target.

    Returns (point, true_distance) pairs ordered by increasing distance.
    """
    u = _unit_direction(spec.target.dim, spec.direction_seed)
    out = []
    for d in trajectory_distances(spec):
        d = float(d)
        out.append((LatentPoint(spec.target.coords + d * u), d))
    return out
