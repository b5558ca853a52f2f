"""Deterministic seed derivation shared across the package.

Every stochastic step (trial noise, fold splits, permutations, CMA sampling)
draws from a generator derived from an explicit tuple of integers and short
string tags.  Results therefore never depend on iteration order or on what
else ran before them.

derive_seed and derive_rng build one numpy SeedSequence per call, and stay
the reference.  derive_seeds and derive_rngs give the same seeds and
generators for many tuples at once: a part may be a column of integers, one
value per row, and SeedSequence's mixing (pool size 4, no spawn key) runs in
uint32 arithmetic over all rows.  That pays from tens of rows up (a dataset's
trial seeds); for one row a SeedSequence is cheaper.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derive_rng", "derive_rngs", "derive_seed", "derive_seeds", "seed_sequence"]


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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """An int's little-endian uint32 words, as SeedSequence splits it (0 is one word)."""
    if value < 0:  # below -2**64, folding by +2**64 leaves it negative
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_consts(const: int, mult: int):
    """SeedSequence's running hash constant: each hash XORs with c, then multiplies by c * mult."""
    while True:
        nxt = const * mult & _MASK32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hash(value: np.ndarray, consts) -> np.ndarray:
    """SeedSequence's hashmix of a uint32 column; consts is a _hash_consts iterator."""
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    value ^= value >> np.uint32(16)
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 columns."""
    value = x * _MIX_L - y * _MIX_R
    value ^= value >> np.uint32(16)
    return value


def _mixed_state(entropy: list[np.ndarray], n_words: int) -> np.ndarray:
    """SeedSequence(words).generate_state(n_words) of every row, (rows, n_words) uint32.

    entropy holds one uint32 column per entropy word; the steps are
    SeedSequence.mix_entropy's and generate_state's, run over columns.
    """
    consts = _hash_consts(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [_hash(entropy[i] if i < len(entropy) else zero, consts) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    return np.stack([_hash(pool[i % _POOL_SIZE], consts) for i in range(n_words)], axis=1)


def _column(part: np.ndarray) -> np.ndarray:
    """A column of int seed parts as uint64, negatives folded by +2**64 like _as_entropy."""
    if part.ndim != 1 or part.dtype.kind not in "iub":
        raise TypeError(f"seed columns must be 1-D int arrays, got {part.dtype} {part.shape}")
    return part.astype(np.uint64)


def _states(parts: tuple, n_words: int) -> np.ndarray:
    """seed_sequence(*row).generate_state(n_words) of each row, (rows, n_words) uint32.

    A part is a seed part as seed_sequence takes it, or a 1-D int array with
    one value per row.  SeedSequence gives a value below 2**32 one entropy
    word and a larger one two, so rows mix in groups of one word layout.
    """
    if not parts:
        raise ValueError("at least one seed part is required")
    columns = [_column(p) if isinstance(p, np.ndarray) else None for p in parts]
    lengths = {len(c) for c in columns if c is not None}
    if len(lengths) != 1:
        raise ValueError("need at least one seed column, and all of one length")
    # bit i of a row's layout is set when part i holds 2**32 or more there
    layout = sum((c > _MASK32).astype(np.int64) << i for i, c in enumerate(columns) if c is not None)
    state = np.empty((lengths.pop(), n_words), dtype=np.uint32)
    for key in set(layout.tolist()):  # not np.unique, whose first call imports numpy.ma
        rows = np.flatnonzero(layout == key)
        entropy = []
        for i, (part, column) in enumerate(zip(parts, columns)):
            if column is None:
                entropy += [np.full(len(rows), w, dtype=np.uint32)
                            for w in _words(_as_entropy((part,))[0])]
            else:
                entropy += [(column[rows] >> np.uint64(32 * k)).astype(np.uint32)
                            for k in range(1 + (key >> i & 1))]
        state[rows] = _mixed_state(entropy, n_words)
    return state


def derive_seeds(*parts) -> np.ndarray:
    """derive_seed of each row, as int64: a part may be a column of ints, one per row."""
    state = _states(parts, 2).astype(np.int64)
    return state[:, 0] << 31 ^ state[:, 1]


def derive_rngs(*parts):
    """derive_rng of each row, made one at a time as the iterator is consumed."""
    # Imported here: a module-level subclass would load numpy.random on import.
    from numpy.random.bit_generator import ISeedSequence

    class Drawn(ISeedSequence):
        """The words PCG64 seeds itself from (generate_state(4, uint64)), drawn in advance."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    states = _states(parts, 8).astype("<u4").view("<u8").astype(np.uint64)
    return (np.random.Generator(np.random.PCG64(Drawn(s))) for s in states)
