"""PCA reduction of responses and latents, with exact inverse mapping.

Models are fit by SVD of the centered data with a deterministic sign
convention (the largest-magnitude entry of each component is positive), so a
fit is bit-reproducible.  transform/inverse are the usual project/lift pair;
inverse(transform(x)) is the orthogonal projection of x onto the model
subspace plus the mean.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PcaModel",
    "default_latent_k",
    "default_response_k",
    "load_pca",
    "pca_fit",
    "pca_inverse",
    "pca_transform",
    "save_pca",
]

PCA_MAGIC = b"CRPC"
PCA_VERSION = 1

# Reduced dims at full scale; smaller inputs keep roughly a 1/3 ratio.
RESPONSE_K = 20
LATENT_K = 10


def default_response_k(response_dim: int) -> int:
    return max(1, min(RESPONSE_K, response_dim // 3))


def default_latent_k(latent_dim: int) -> int:
    return max(1, min(LATENT_K, latent_dim // 3))


@dataclass(frozen=True, eq=False)
class PcaModel:
    mean: np.ndarray  # (D,)
    components: np.ndarray  # (k, D), orthonormal rows, descending variance
    explained_variance: np.ndarray  # (k,)
    input_dim: int
    k: int

    def __post_init__(self):
        for name in ("mean", "components", "explained_variance"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.mean.shape != (self.input_dim,):
            raise ValueError("mean must have input_dim entries")
        if self.components.shape != (self.k, self.input_dim):
            raise ValueError("components must be (k, input_dim)")
        if self.explained_variance.shape != (self.k,):
            raise ValueError("explained_variance must have k entries")
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(self.k), atol=1e-9):
            raise ValueError("components must be orthonormal within 1e-9")
        if np.any(np.diff(self.explained_variance) > 1e-12):
            raise ValueError("explained_variance must be non-increasing")


def pca_fit(X, k: int) -> PcaModel:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be (N, D)")
    n, d = X.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k must be in [1, {min(n, d)}], got {k}")
    mean = X.mean(axis=0)
    _, s, vt = np.linalg.svd(X - mean, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    explained = (s[:k] ** 2) / max(n - 1, 1)
    return PcaModel(mean, components, explained, input_dim=d, k=k)


def _check_dim(got: int, want: int, what: str):
    if got != want:
        raise ValueError(f"{what}: expected {want}, got {got}")


def pca_transform(m: PcaModel, x) -> np.ndarray:
    """components @ (x - mean); accepts a vector or an (N, D) matrix."""
    x = np.asarray(x, dtype=np.float64)
    _check_dim(x.shape[-1], m.input_dim, "input dimension")
    return (x - m.mean) @ m.components.T


def pca_inverse(m: PcaModel, y) -> np.ndarray:
    """mean + components^T @ y; accepts a vector or an (N, k) matrix."""
    y = np.asarray(y, dtype=np.float64)
    _check_dim(y.shape[-1], m.k, "reduced dimension")
    return y @ m.components + m.mean


def save_pca(m: PcaModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(PCA_MAGIC)
        fh.write(struct.pack("<III", PCA_VERSION, m.input_dim, m.k))
        fh.write(np.ascontiguousarray(m.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(m.components, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(m.explained_variance, dtype="<f8").tobytes())


def load_pca(path) -> PcaModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != PCA_MAGIC:
        raise ValueError(f"bad magic bytes {raw[:4]!r}")
    if len(raw) < 16:
        raise ValueError(f"truncated or oversized PCA file {path}: "
                         f"{len(raw)} bytes, shorter than its 16-byte header")
    version, d, k = struct.unpack_from("<III", raw, 4)
    if version != PCA_VERSION:
        raise ValueError(f"unsupported format version {version}")
    # f8 mean (d), components (k x d), then explained variance (k)
    expected = 16 + 8 * (d + k * d + k)
    if len(raw) != expected:
        raise ValueError(f"truncated or oversized PCA file {path}: "
                         f"{len(raw)} bytes, its header implies {expected}")
    values = np.frombuffer(raw, dtype="<f8", offset=16)
    mean, components, explained = values[:d], values[d:d + k * d], values[d + k * d:]
    return PcaModel(mean, components.reshape(k, d), explained, input_dim=d, k=k)
