"""Deterministic seed derivation shared across the package.

Every stochastic step (trial noise, fold splits, permutations, CMA sampling)
draws from a generator derived from an explicit tuple of integers and short
string tags.  Results therefore never depend on iteration order or on what
else ran before them.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derive_rng", "derive_seed", "seed_sequence"]


def _as_entropy(parts: tuple) -> list[int]:
    entropy = []
    for part in parts:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf8")))
        elif isinstance(part, (bool, np.bool_)):
            entropy.append(int(part))
        elif isinstance(part, (int, np.integer)):
            # SeedSequence wants non-negative ints; fold sign into an offset.
            value = int(part)
            entropy.append(value if value >= 0 else (1 << 64) + value)
        else:
            raise TypeError(f"seed parts must be int or str, got {type(part)!r}")
    return entropy


def seed_sequence(*parts) -> np.random.SeedSequence:
    """Build a SeedSequence from a mixed tuple of ints and string tags."""
    if not parts:
        raise ValueError("at least one seed part is required")
    return np.random.SeedSequence(_as_entropy(parts))


def derive_rng(*parts) -> np.random.Generator:
    """Deterministic Generator for the given seed parts."""
    return np.random.Generator(np.random.PCG64(seed_sequence(*parts)))


def derive_seed(*parts) -> int:
    """Collapse seed parts into a single reproducible 63-bit integer."""
    state = seed_sequence(*parts).generate_state(2, dtype=np.uint32)
    return int((int(state[0]) << 31) ^ int(state[1]))
