import builtins
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cursor.dataset
from cursor.cli import main as cli_main
from cursor.dataset import (
    EpochTensor,
    GroundTruth,
    StimulusResponseDataset,
    ablate_near_target,
    dataset_from_arrays,
    draw_permutation,
    load_dataset,
    save_dataset,
    standardize_fit,
    subsample,
    window_epoch,
)
from cursor.latent import LatentPoint

from conftest import tiny_dataset


def _plain_dataset(n=12, dz=3, de=5, seed=0):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dz)
    stimuli = rng.standard_normal((n, dz))
    responses = rng.standard_normal((n, de))
    return dataset_from_arrays(stimuli, responses, target=target)


def test_row_alignment_enforced():
    with pytest.raises(ValueError):
        StimulusResponseDataset(np.zeros((3, 2)), np.zeros((4, 2)))


def test_truth_distances_checked_against_target():
    stimuli = np.zeros((2, 2))
    responses = np.zeros((2, 3))
    bad = GroundTruth(LatentPoint(np.zeros(2)), np.array([5.0, 5.0]))
    with pytest.raises(ValueError):
        StimulusResponseDataset(stimuli, responses, bad)


def test_dataset_from_arrays_derives_distances():
    ds = _plain_dataset()
    expect = np.linalg.norm(ds.stimuli - ds.truth.target.coords, axis=1)
    assert np.allclose(ds.truth.distances, expect)


def test_arrays_are_readonly():
    ds = _plain_dataset()
    with pytest.raises(ValueError):
        ds.stimuli[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.responses[0, 0] = 1.0


def test_draw_permutation_never_identity():
    for seed in range(40):
        sigma = draw_permutation(2, seed)
        assert not np.array_equal(sigma, np.arange(2))
        assert sorted(sigma) == [0, 1]


def test_draw_permutation_deterministic():
    assert np.array_equal(draw_permutation(30, 9), draw_permutation(30, 9))
    assert not np.array_equal(draw_permutation(30, 9), draw_permutation(30, 10))


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_permutation_is_valid_for_any_n(n, seed):
    sigma = draw_permutation(n, seed)
    assert np.array_equal(np.sort(sigma), np.arange(n))
    assert not np.array_equal(sigma, np.arange(n))


def test_subsample_rows_are_exact_originals():
    ds = _plain_dataset(n=30)
    sub = subsample(ds, 10, seed=3)
    assert sub.n == 10
    rows = {tuple(r) for r in np.round(ds.stimuli, 12)}
    for r in sub.stimuli:
        assert tuple(np.round(r, 12)) in rows
    assert np.allclose(
        sub.truth.distances,
        np.linalg.norm(sub.stimuli - ds.truth.target.coords, axis=1),
    )


def test_subsample_deterministic_and_bounds():
    ds = _plain_dataset(n=30)
    a = subsample(ds, 10, seed=3)
    b = subsample(ds, 10, seed=3)
    assert np.array_equal(a.stimuli, b.stimuli)
    with pytest.raises(ValueError):
        subsample(ds, 0, seed=1)
    with pytest.raises(ValueError):
        subsample(ds, 31, seed=1)


def test_subsample_records_op():
    ds = _plain_dataset(n=30)
    sub = subsample(ds, 5, seed=7)
    ops = sub.provenance["ops"]
    assert ops[-1]["op"] == "subsample"
    assert ops[-1]["n"] == 5


def test_ablate_near_target_threshold_zero_keeps_all():
    ds = _plain_dataset(n=30)
    kept = ablate_near_target(ds, 0.0)
    assert kept.n == ds.n
    assert np.array_equal(kept.stimuli, ds.stimuli)


def test_ablate_near_target_drops_below_threshold():
    ds = _plain_dataset(n=30)
    thr = float(np.median(ds.truth.distances))
    kept = ablate_near_target(ds, thr)
    assert np.all(kept.truth.distances >= thr)
    assert kept.n == int(np.sum(ds.truth.distances >= thr))


def test_ablate_requires_truth_and_sane_threshold():
    ds = _plain_dataset(n=10)
    bare = StimulusResponseDataset(ds.stimuli, ds.responses)
    with pytest.raises(ValueError):
        ablate_near_target(bare, 1.0)
    with pytest.raises(ValueError):
        ablate_near_target(ds, -1.0)
    with pytest.raises(ValueError):
        ablate_near_target(ds, 1e9)


# ---------------------------------------------------------------------------
# Windowing


def _epoch(channels=29, timepoints=1000, rate=1000.0, t0=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return EpochTensor(channels, timepoints, rate, t0,
                       rng.standard_normal((channels, timepoints)))


def test_window_epoch_feature_count():
    ep = _epoch()
    feats = window_epoch(ep, 50.0, 800.0, 7)
    assert feats.shape == (29 * 7,)


def test_window_epoch_matches_per_sample_average():
    # independent oracle: assign each sample to its window, average directly
    ep = _epoch(channels=3, timepoints=200, rate=250.0, t0=0.0, seed=1)
    n_w = 4
    t_start, t_end = 40.0, 760.0
    feats = window_epoch(ep, t_start, t_end, n_w)
    dt = 1000.0 / ep.sample_rate_hz
    times = ep.t0_ms + dt * np.arange(ep.timepoints)
    edges = np.linspace(t_start, t_end, n_w + 1)
    for c in range(3):
        for w in range(n_w):
            if w < n_w - 1:
                mask = (times >= edges[w]) & (times < edges[w + 1])
            else:
                mask = (times >= edges[w]) & (times <= edges[w + 1])
            assert feats[c * n_w + w] == pytest.approx(ep.data[c, mask].mean())


def test_window_epoch_channel_major_layout():
    # constant-per-channel data makes the layout visible
    data = np.outer(np.arange(4.0), np.ones(100))
    ep = EpochTensor(4, 100, 100.0, 0.0, data)
    feats = window_epoch(ep, 0.0, 900.0, 3)
    assert np.allclose(feats, np.repeat(np.arange(4.0), 3))


def test_window_epoch_range_validation():
    ep = _epoch(timepoints=100, rate=100.0, t0=0.0)  # spans 0..1000 ms
    with pytest.raises(ValueError):
        window_epoch(ep, -10.0, 500.0, 3)
    with pytest.raises(ValueError):
        window_epoch(ep, 0.0, 1500.0, 3)
    with pytest.raises(ValueError):
        window_epoch(ep, 500.0, 100.0, 3)
    with pytest.raises(ValueError):
        window_epoch(ep, 0.0, 900.0, 0)


def test_window_epoch_empty_window_rejected():
    ep = _epoch(channels=1, timepoints=10, rate=10.0, t0=0.0)  # samples every 100 ms
    with pytest.raises(ValueError):
        window_epoch(ep, 0.0, 900.0, 20)


# ---------------------------------------------------------------------------
# Standardization


def test_standardize_fit_oracle():
    X = np.array([[1.0, 10.0], [3.0, 10.0], [5.0, 10.0]])
    means, stds = standardize_fit(X)
    assert np.allclose(means, [3.0, 10.0])
    # sample std with ddof=1; constant column gets the floor
    assert stds[0] == pytest.approx(2.0)
    assert stds[1] == pytest.approx(1e-12)


def test_standardize_round_trip_properties():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 6)) * 3.0 + 1.0
    means, stds = standardize_fit(X)
    Z = (X - means) / stds
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_standardize_fit_vector_is_one_column():
    means, stds = standardize_fit(np.array([2.0, 4.0, 6.0]))
    assert means.shape == stds.shape == (1,)
    assert means[0] == pytest.approx(4.0) and stds[0] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Persistence


@pytest.mark.parametrize("fmt,suffix", [("csv", ".csv"), ("bin", ".bin")])
def test_save_load_round_trip(tmp_path, fmt, suffix):
    ds, _ = tiny_dataset(seed=3)
    path = tmp_path / f"data{suffix}"
    save_dataset(ds, path)
    back = load_dataset(path)
    if fmt == "bin":
        assert np.array_equal(back.stimuli, ds.stimuli)
        assert np.array_equal(back.responses, ds.responses)
        assert np.array_equal(back.truth.distances, ds.truth.distances)
    else:
        # %.17g text round-trips f64 exactly
        assert np.array_equal(back.stimuli, ds.stimuli)
        assert np.array_equal(back.responses, ds.responses)
    assert back.truth.target.coords == pytest.approx(ds.truth.target.coords)
    assert back.provenance["generator"] == ds.provenance["generator"]



def test_csv_bytes_are_pinned(tmp_path):
    # %.17g in each of its shapes: signed zero, 17 significant digits, a tiny
    # and a huge exponent, and an integer
    truth = GroundTruth(LatentPoint([0.0, 0.0]), [0.1, 5.0])
    ds = StimulusResponseDataset([[-0.0, 0.1], [0.0, 5.0]], [[1 / 3, 1e-300], [1e22, -0.0]], truth)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    assert path.read_text() == (
        "stim_0,stim_1,resp_0,resp_1,true_dist\n"
        "-0,0.10000000000000001,0.33333333333333331,1e-300,0.10000000000000001\n"
        "0,5,1e+22,-0,5\n"
    )


def test_sidecar_contents(tmp_path):
    ds, _ = tiny_dataset(seed=3)
    path = tmp_path / "data.bin"
    save_dataset(ds, path)
    sidecar = json.loads((tmp_path / "data.bin.json").read_text())
    assert sidecar["n"] == ds.n
    assert sidecar["stimulus_dim"] == ds.stimulus_dim
    assert sidecar["response_dim"] == ds.response_dim
    assert sidecar["has_truth"] is True
    assert sidecar["hidden_target"] == pytest.approx(list(ds.truth.target.coords))


def test_truthless_round_trip(tmp_path):
    ds, _ = tiny_dataset(seed=3)
    bare = StimulusResponseDataset(ds.stimuli, ds.responses)
    for name in ("bare.csv", "bare.bin"):
        path = tmp_path / name
        save_dataset(bare, path)
        back = load_dataset(path)
        assert back.truth is None
        assert np.array_equal(back.stimuli, bare.stimuli)


def test_format_inferred_from_suffix(tmp_path):
    ds, _ = tiny_dataset(seed=3)
    save_dataset(ds, tmp_path / "a.bin")
    with open(tmp_path / "a.bin", "rb") as fh:
        assert fh.read(4) == b"CRSR"
    save_dataset(ds, tmp_path / "a.csv")
    with open(tmp_path / "a.csv") as fh:
        header = fh.readline().rstrip("\n")
    assert header == (
        "stim_0,stim_1,stim_2,stim_3,stim_4,stim_5,"
        "resp_0,resp_1,resp_2,resp_3,resp_4,resp_5,resp_6,resp_7,resp_8,resp_9,"
        "true_dist"
    )


def test_load_rejects_garbage_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_dataset(p)


@pytest.mark.parametrize("header,row", [
    ("stim_0,stim_1,resp_0,resp_1,resp_2", "1,2,3,4"),
    ("stim_0,stim_1,resp_0", "1,2,3,4,5"),
    ("stim_0,resp_0,extra", "1,2,3"),
    ("stim_0,true_dist,resp_0", "1,2,3"),
], ids=["short-rows", "long-rows", "extra-column", "true-dist-not-last"])
def test_csv_rows_and_header_must_match(tmp_path, capsys, header, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header}\n{row}\n{row}\n")
    with pytest.raises(ValueError):
        load_dataset(bad)
    code = cli_main(["score", "--data", str(bad), "--hypothesis", "0,0",
                     "-o", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err



def test_header_only_csv_prints_one_error(tmp_path):
    # a subprocess, so that a numpy warning would reach the real stderr
    bad = tmp_path / "h.csv"
    bad.write_text("stim_0,resp_0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "cursor.cli", "score", "--data", str(bad),
                           "--hypothesis", "0", "-o", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"error: dataset {bad} has a header but no rows\n"


# n=20, dz=3, de=4 with truth: 20 header bytes, 8*20*7 = 1120 body bytes,
# one flag byte, then 8*(3+20) = 184 truth bytes; 1325 bytes in all
@pytest.mark.parametrize("size", [12, 20 + 560, 20 + 1120 + 1 + 40, 1325 + 16],
                         ids=["header", "body", "truth", "trailing"])
def test_binary_size_must_match_header(tmp_path, capsys, size):
    path = tmp_path / "data.bin"
    save_dataset(_plain_dataset(n=20, dz=3, de=4), path)
    raw = path.read_bytes()
    assert len(raw) == 1325
    bad = tmp_path / "bad.bin"
    bad.write_bytes((raw + bytes(16))[:size])
    with pytest.raises(ValueError, match="truncated or oversized"):
        load_dataset(bad)
    code = cli_main(["score", "--data", str(bad), "--hypothesis", "0,0,0",
                     "-o", str(tmp_path / "out")])
    assert code == 2
    assert "truncated or oversized" in capsys.readouterr().err


def test_csv_with_truth_needs_sidecar_target(tmp_path):
    ds, _ = tiny_dataset(seed=3)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    (tmp_path / "data.csv.json").unlink()
    with pytest.raises(ValueError):
        load_dataset(path)


# ---------------------------------------------------------------------------
# CSV memo


def _memo_csv(tmp_path):
    ds, _ = tiny_dataset(seed=3)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    return ds, path, tmp_path / "data.csv.cache"


def _bits(ds):
    return [a.tobytes() for a in (ds.stimuli, ds.responses, ds.truth.distances,
                                  ds.truth.target.coords)]


def test_csv_memo_reload_is_bitwise_and_skips_the_parse(tmp_path, monkeypatch):
    ds, path, memo = _memo_csv(tmp_path)
    first = load_dataset(path)
    cols = ds.stimulus_dim + ds.response_dim + 1
    assert memo.stat().st_size == 40 + 8 * ds.n * cols

    def no_parse(*args, **kwargs):
        raise AssertionError("parsed although the memo is valid")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    second = load_dataset(path)
    assert _bits(second) == _bits(first)
    assert second.provenance == first.provenance


def test_csv_memo_follows_a_same_length_edit(tmp_path):
    ds, path, memo = _memo_csv(tmp_path)
    load_dataset(path)
    header, row, *rest = path.read_text().split("\n")
    fields = row.split(",")
    resp = fields[ds.stimulus_dim]
    dot = resp.index(".") + 1
    fields[ds.stimulus_dim] = resp[:dot] + str((int(resp[dot]) + 1) % 10) + resp[dot + 1:]
    edited = "\n".join([header, ",".join(fields), *rest])
    assert len(edited) == path.stat().st_size
    path.write_text(edited)
    back = load_dataset(path)
    assert back.responses[0, 0] == float(fields[ds.stimulus_dim])
    assert back.responses[0, 0] != ds.responses[0, 0]


@pytest.mark.parametrize("damage", [
    lambda raw: bytes([raw[0] ^ 1]) + raw[1:],
    lambda raw: raw[:-8],
    lambda raw: raw + bytes(8),
    lambda raw: b"0123456789",
], ids=["wrong-digest", "cut", "trailing", "garbage"])
def test_damaged_csv_memo_is_ignored_and_rewritten(tmp_path, damage):
    _, path, memo = _memo_csv(tmp_path)
    first = load_dataset(path)
    good = memo.read_bytes()
    memo.write_bytes(damage(good))
    assert _bits(load_dataset(path)) == _bits(first)
    assert memo.read_bytes() == good


def test_directory_at_csv_memo_path_is_ignored(tmp_path):
    ds, path, memo = _memo_csv(tmp_path)
    memo.mkdir()
    assert _bits(load_dataset(path)) == _bits(ds)
    assert memo.is_dir()
    assert not list(tmp_path.glob("*.tmp"))


def test_unwritable_csv_memo_is_skipped(tmp_path, monkeypatch):
    ds, path, memo = _memo_csv(tmp_path)

    def refuse(*args, **kwargs):
        raise PermissionError("read-only")

    monkeypatch.setattr(os, "replace", refuse)
    assert _bits(load_dataset(path)) == _bits(ds)
    assert not memo.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_csv_memo_keeps_the_sidecar_check(tmp_path):
    _, path, memo = _memo_csv(tmp_path)
    load_dataset(path)
    assert memo.exists()
    sidecar = tmp_path / "data.csv.json"
    meta = json.loads(sidecar.read_text())
    meta["hidden_target"][0] += 1.0
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="hidden distances inconsistent with target"):
        load_dataset(path)


@pytest.mark.parametrize("text,message,parsed", [
    ("stim_0,resp_0\n", "has a header but no rows", False),
    ("stim_0,resp_0\n1,2,3\n1,2,3\n", "rows in .* have 3 values, but its header names 2", True),
    ("a,b\n1,2\n", "unrecognized dataset header", False),
], ids=["header-only", "row-width", "bad-header"])
def test_csv_refusals_repeat_with_a_memo(tmp_path, text, message, parsed):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            load_dataset(path)
    # A file refused before its body is parsed leaves no memo beside it.
    assert (tmp_path / "bad.csv.cache").exists() == parsed


def test_csv_memo_needs_no_file_digest(tmp_path, monkeypatch):
    # hashlib.file_digest is new in Python 3.11; the memo must work without it.
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    ds, path, memo = _memo_csv(tmp_path)
    first = load_dataset(path)
    assert memo.exists()

    def no_parse(*args, **kwargs):
        raise AssertionError("parsed although the memo is valid")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    assert _bits(load_dataset(path)) == _bits(first)


def test_csv_memo_key_names_the_parsed_bytes(tmp_path, monkeypatch):
    # Swap the CSV by rename after every open, as an atomic save would: the
    # memo written must still pair a digest with the values of those bytes.
    # Without truth, the one sidecar fits both files.
    path, memo = tmp_path / "data.csv", tmp_path / "data.csv.cache"
    contents = []
    for seed in (3, 4):
        ds, _ = tiny_dataset(seed=seed)
        save_dataset(StimulusResponseDataset(ds.stimuli, ds.responses), path)
        contents.append(path.read_bytes())
    path.write_bytes(contents[0])
    swaps = []

    def swapping_open(file, *args, **kwargs):
        fh = builtins.open(file, *args, **kwargs)
        if Path(file) == path:
            swaps.append(None)
            tmp = tmp_path / "swap.tmp"
            tmp.write_bytes(contents[len(swaps) % 2])
            os.replace(tmp, path)
        return fh

    monkeypatch.setattr(cursor.dataset, "open", swapping_open, raising=False)
    load_dataset(path)
    raw = memo.read_bytes()
    key, _, _ = cursor.dataset._MEMO_HEAD.unpack_from(raw)
    values = np.frombuffer(raw, dtype="<f8", offset=cursor.dataset._MEMO_HEAD.size)
    assert len(swaps) >= 2
    monkeypatch.undo()
    which = [hashlib.sha256(c).digest() for c in contents].index(key)
    path.write_bytes(contents[which])
    memo.unlink()
    ds = load_dataset(path)
    assert values.tobytes() == np.hstack([ds.stimuli, ds.responses]).tobytes()
