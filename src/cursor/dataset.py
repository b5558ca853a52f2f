"""Dataset containers, persistence, preprocessing, and subset construction.

A StimulusResponseDataset holds the public (z_i, e_i) pairs plus optional
hidden ground truth (the generating target and its distances) used only for
evaluation.  Epoch windowing turns a channels x time tensor into the flat
feature vector the estimators consume.

A dataset is stored as CSV or as the CRSR binary format, each with a JSON
sidecar.  Loading a CSV memoizes its parsed body in <name>.cache, keyed by
the SHA-256 of the CSV, so each distinct file is parsed only once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import derive_rng
from .latent import LatentPoint, as_point

__all__ = [
    "EpochTensor",
    "GroundTruth",
    "StimulusResponseDataset",
    "ablate_near_target",
    "dataset_from_arrays",
    "draw_permutation",
    "load_dataset",
    "save_dataset",
    "standardize_fit",
    "subsample",
    "window_epoch",
]

BINARY_MAGIC = b"CRSR"
BINARY_VERSION = 1
# A CSV memo starts with the CSV's SHA-256 digest and the body's rows and
# columns; rows x columns little-endian float64 values follow.
_MEMO_HEAD = struct.Struct("<32sII")

# Sample std below this is treated as zero; such features standardize to 0.
STD_FLOOR = 1e-12


def _frozen(arr, dtype=np.float64, ndim=None) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    if ndim is not None and out.ndim != ndim:
        raise ValueError(f"expected {ndim}-D array, got {out.ndim}-D")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Hidden generating target and its true distances to every stimulus."""

    target: LatentPoint
    distances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", as_point(self.target))
        object.__setattr__(self, "distances", _frozen(self.distances, ndim=1))
        if np.any(self.distances < 0) or not np.all(np.isfinite(self.distances)):
            raise ValueError("hidden distances must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class StimulusResponseDataset:
    stimuli: np.ndarray  # (N, Dz)
    responses: np.ndarray  # (N, De)
    truth: GroundTruth | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "stimuli", _frozen(self.stimuli, ndim=2))
        object.__setattr__(self, "responses", _frozen(self.responses, ndim=2))
        if self.stimuli.shape[0] != self.responses.shape[0]:
            raise ValueError("stimuli and responses must be row-aligned")
        if self.stimuli.shape[0] < 1:
            raise ValueError("dataset must contain at least one pair")
        if not np.all(np.isfinite(self.stimuli)):
            raise ValueError("stimuli must be finite")
        if not np.all(np.isfinite(self.responses)):
            raise ValueError("responses must be finite")
        if self.truth is not None:
            t = self.truth
            if t.target.dim != self.stimuli.shape[1]:
                raise ValueError("hidden target dimension mismatch")
            if t.distances.shape[0] != self.stimuli.shape[0]:
                raise ValueError("hidden distances length mismatch")
            actual = np.linalg.norm(self.stimuli - t.target.coords, axis=1)
            if not np.allclose(t.distances, actual, rtol=1e-6, atol=1e-9):
                raise ValueError("hidden distances inconsistent with target")

    @property
    def n(self) -> int:
        return self.stimuli.shape[0]

    @property
    def stimulus_dim(self) -> int:
        return self.stimuli.shape[1]

    @property
    def response_dim(self) -> int:
        return self.responses.shape[1]

    @cached_property
    def centered_gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X0, X0^T X0, X0's column sums), X0 the responses centered per column.

        Formed on first use and shared, read-only, by every scorer built on
        this object.
        """
        x0 = self.responses - self.responses.mean(axis=0)
        out = (x0, x0.T @ x0, x0.sum(axis=0))
        for arr in out:
            arr.setflags(write=False)
        return out


def dataset_from_arrays(stimuli, responses, target=None,
                        provenance=None) -> StimulusResponseDataset:
    """Convenience constructor; derives the hidden distances from a target."""
    stimuli = np.asarray(stimuli, dtype=np.float64)
    truth = None
    if target is not None:
        target = as_point(target)
        truth = GroundTruth(target, np.linalg.norm(stimuli - target.coords, axis=1))
    return StimulusResponseDataset(stimuli, responses, truth, provenance or {})


def draw_permutation(n: int, perm_seed: int) -> np.ndarray:
    """Seeded uniform permutation of range(n), resampled until not identity."""
    if n < 2:
        raise ValueError("permutation control needs at least 2 pairs")
    rng = derive_rng(perm_seed, "pair-shuffle")
    identity = np.arange(n)
    while True:
        sigma = rng.permutation(n)
        if not np.array_equal(sigma, identity):
            return sigma


# ---------------------------------------------------------------------------
# Epoch windowing


@dataclass(frozen=True, eq=False)
class EpochTensor:
    """A channels x timepoints slab of signal around one stimulus onset."""

    channels: int
    timepoints: int
    sample_rate_hz: float
    t0_ms: float
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(self.data, ndim=2))
        if self.channels < 1 or self.timepoints < 1:
            raise ValueError("channels and timepoints must be positive")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.data.shape != (self.channels, self.timepoints):
            raise ValueError("data dimensions must match channels x timepoints")


def window_epoch(ep: EpochTensor, t_start_ms: float = 50.0,
                 t_end_ms: float = 800.0, n_windows: int = 7) -> np.ndarray:
    """Average an epoch into n_windows equidistant time windows per channel.

    Windows are half-open [a, b) except the last, which closes at t_end_ms so
    every sample in range belongs to exactly one window.  Features are
    channel-major: all windows of channel 0, then channel 1, and so on.
    """
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    if t_end_ms <= t_start_ms:
        raise ValueError("t_end_ms must exceed t_start_ms")
    dt = 1000.0 / ep.sample_rate_hz
    times = ep.t0_ms + dt * np.arange(ep.timepoints)
    # Each sample covers [t_i, t_i + dt), so the epoch spans t0 .. t0 + T*dt.
    span_end = ep.t0_ms + dt * ep.timepoints
    if t_start_ms < ep.t0_ms - 1e-9 or t_end_ms > span_end + 1e-9:
        raise ValueError(
            f"[{t_start_ms}, {t_end_ms}] ms outside epoch span "
            f"[{ep.t0_ms}, {span_end}] ms"
        )
    edges = np.linspace(t_start_ms, t_end_ms, n_windows + 1)
    features = np.empty((ep.channels, n_windows))
    for w in range(n_windows):
        if w < n_windows - 1:
            mask = (times >= edges[w]) & (times < edges[w + 1])
        else:
            mask = (times >= edges[w]) & (times <= edges[w + 1])
        if not mask.any():
            raise ValueError(f"window {w} [{edges[w]:.3f}, {edges[w+1]:.3f}) ms is empty")
        features[:, w] = ep.data[:, mask].mean(axis=1)
    return features.reshape(-1)


# ---------------------------------------------------------------------------
# Standardization


def standardize_fit(X, axis=0) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and sample std (ddof=1), with a floor for constants.

    The rows run along axis; the scorer passes stacks of matrices.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.size == 0:
        raise ValueError("cannot standardize an empty matrix")
    means = X.mean(axis=axis)
    if X.shape[axis] > 1:
        stds = X.std(axis=axis, ddof=1)
    else:
        stds = np.zeros_like(means)
    stds = np.where(stds < STD_FLOOR, STD_FLOOR, stds)
    return means, stds


# ---------------------------------------------------------------------------
# Subset construction


def _child(ds: StimulusResponseDataset, idx: np.ndarray, op: dict) -> StimulusResponseDataset:
    truth = None
    if ds.truth is not None:
        truth = GroundTruth(ds.truth.target, ds.truth.distances[idx])
    provenance = dict(ds.provenance)
    provenance.setdefault("ops", [])
    provenance["ops"] = list(provenance["ops"]) + [op]
    return StimulusResponseDataset(ds.stimuli[idx], ds.responses[idx], truth, provenance)


def subsample(ds: StimulusResponseDataset, n: int, seed: int) -> StimulusResponseDataset:
    """Uniform sample of n pairs without replacement, in canonical row order."""
    if not 1 <= n <= ds.n:
        raise ValueError(f"n must be in [1, {ds.n}], got {n}")
    rng = derive_rng(seed, "subsample")
    idx = np.sort(rng.choice(ds.n, size=n, replace=False))
    return _child(ds, idx, {"op": "subsample", "n": int(n), "seed": int(seed)})


def ablate_near_target(ds: StimulusResponseDataset, threshold: float) -> StimulusResponseDataset:
    """Drop every pair whose hidden distance falls below threshold."""
    if ds.truth is None:
        raise ValueError("ablation requires hidden ground truth")
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    idx = np.flatnonzero(ds.truth.distances >= threshold)
    if idx.size == 0:
        raise ValueError(f"threshold {threshold} removes every pair")
    return _child(ds, idx, {"op": "ablate_near_target", "threshold": float(threshold)})


# ---------------------------------------------------------------------------
# Persistence

def save_dataset(ds: StimulusResponseDataset, path) -> None:
    """Write a dataset, binary under a .bin suffix and CSV otherwise, plus a
    <name>.json provenance sidecar."""
    import pathlib

    path = pathlib.Path(path)
    fmt = "bin" if path.suffix == ".bin" else "csv"
    if fmt == "bin":
        _save_binary(ds, path)
    else:
        _save_csv(ds, path)
    sidecar = {
        "format": fmt,
        "stimulus_dim": ds.stimulus_dim,
        "response_dim": ds.response_dim,
        "n": ds.n,
        "has_truth": ds.truth is not None,
        "hidden_target": None if ds.truth is None else [float(v) for v in ds.truth.target.coords],
        "provenance": ds.provenance,
    }
    path.with_name(path.name + ".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def load_dataset(path) -> StimulusResponseDataset:
    """Read a dataset written by save_dataset, binary or CSV by its first bytes.

    A CSV's parsed values are kept in <name>.cache beside it, keyed by the
    CSV's SHA-256, and read from there while the CSV is unchanged; the memo is
    skipped where it cannot be written.  Every check runs on either path, so
    the result does not depend on the memo.
    """
    import pathlib

    path = pathlib.Path(path)
    sidecar_path = path.with_name(path.name + ".json")
    sidecar = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == BINARY_MAGIC:
        return _load_binary(path, sidecar)
    return _load_csv(path, sidecar)


def _save_csv(ds, path):
    dz, de = ds.stimulus_dim, ds.response_dim
    header = [f"stim_{j}" for j in range(dz)] + [f"resp_{j}" for j in range(de)]
    columns = [ds.stimuli, ds.responses]
    if ds.truth is not None:
        header.append("true_dist")
        columns.append(ds.truth.distances[:, None])
    # %.17g keeps full f64 fidelity
    np.savetxt(path, np.hstack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _load_csv(path, sidecar):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        # np.loadtxt warns on a body with no rows before returning it empty.
        body_start = fh.tell()
        if not any(line.strip() for line in fh):
            raise ValueError(f"dataset {path} has a header but no rows")
        dz = sum(1 for c in header if c.startswith("stim_"))
        de = sum(1 for c in header if c.startswith("resp_"))
        has_dist = header[-1] == "true_dist"
        if dz == 0 or de == 0 or header != (
            [f"stim_{j}" for j in range(dz)] + [f"resp_{j}" for j in range(de)]
            + ["true_dist"] * has_dist
        ):
            raise ValueError(f"unrecognized dataset header in {path}")
        body = _parsed_body(path, fh, body_start)
    if body.size and body.shape[1] != len(header):
        raise ValueError(f"dataset rows in {path} have {body.shape[1]} values, "
                         f"but its header names {len(header)} columns")
    stimuli = body[:, :dz]
    responses = body[:, dz:dz + de]
    truth = None
    if has_dist:
        target = sidecar.get("hidden_target")
        if target is None:
            raise ValueError("true_dist column present but sidecar lacks hidden_target")
        truth = GroundTruth(as_point(target), body[:, dz + de])
    return StimulusResponseDataset(stimuli, responses, truth, sidecar.get("provenance", {}))


def _parsed_body(path, fh, body_start) -> np.ndarray:
    """np.loadtxt of the CSV body at body_start in fh, memoized in <name>.cache.

    The memo is used only if it holds this file's digest and exactly the
    values its header promises; otherwise the body is parsed and the memo
    rewritten, or left alone if the directory refuses the write.
    """
    # Hash the open handle, not the path, so the digest names the bytes that
    # are parsed even if the file is replaced meanwhile.
    fh.seek(0)
    sha = hashlib.sha256()
    for chunk in iter(lambda: fh.buffer.read(1 << 20), b""):
        sha.update(chunk)
    digest = sha.digest()
    memo = path.with_name(path.name + ".cache")
    try:
        with open(memo, "rb") as m:
            head = m.read(_MEMO_HEAD.size)
            if len(head) == _MEMO_HEAD.size:
                key, rows, cols = _MEMO_HEAD.unpack(head)
                count = rows * cols
                if key == digest and os.fstat(m.fileno()).st_size == len(head) + 8 * count:
                    body = np.fromfile(m, dtype="<f8", count=count)
                    if body.size == count:
                        return body.reshape(rows, cols)
    except OSError:
        pass
    fh.seek(body_start)
    body = np.loadtxt(fh, delimiter=",", ndmin=2)
    tmp = memo.with_name(f"{memo.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as m:
            m.write(_MEMO_HEAD.pack(digest, *body.shape))
            body.astype("<f8", copy=False).tofile(m)
        os.replace(tmp, memo)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
    return body


def _save_binary(ds, path):
    flags = 1 if ds.truth is not None else 0
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<IIII", BINARY_VERSION, ds.stimulus_dim, ds.response_dim, ds.n))
        fh.write(np.ascontiguousarray(ds.stimuli, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.responses, dtype="<f8").tobytes())
        fh.write(struct.pack("<B", flags))
        if ds.truth is not None:
            fh.write(np.ascontiguousarray(ds.truth.target.coords, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(ds.truth.distances, dtype="<f8").tobytes())


def _load_binary(path, sidecar):
    raw = path.read_bytes()
    if raw[:4] != BINARY_MAGIC:
        raise ValueError(f"bad magic bytes {raw[:4]!r}")
    if len(raw) < 20:
        raise ValueError(f"truncated or oversized dataset file {path}: "
                         f"{len(raw)} bytes, shorter than its 20-byte header")
    version, dz, de, n = struct.unpack_from("<IIII", raw, 4)
    if version != BINARY_VERSION:
        raise ValueError(f"unsupported format version {version}")
    # f8 stimuli and responses, a flag byte, then f8 target and distances if flagged
    flag_at = 20 + 8 * n * (dz + de)
    has_truth = len(raw) > flag_at and raw[flag_at] & 1
    expected = flag_at + 1 + (8 * (dz + n) if has_truth else 0)
    if len(raw) != expected:
        raise ValueError(f"truncated or oversized dataset file {path}: "
                         f"{len(raw)} bytes, its header implies {expected}")
    values = np.frombuffer(raw, dtype="<f8", count=n * (dz + de), offset=20)
    stimuli, responses = values[:n * dz].reshape(n, dz), values[n * dz:].reshape(n, de)
    truth = None
    if has_truth:
        tail = np.frombuffer(raw, dtype="<f8", count=dz + n, offset=flag_at + 1)
        truth = GroundTruth(LatentPoint(tail[:dz]), tail[dz:])
    return StimulusResponseDataset(stimuli, responses, truth, sidecar.get("provenance", {}))
