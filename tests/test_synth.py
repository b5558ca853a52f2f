import hashlib

import numpy as np
import pytest

from cursor._util import derive_rng, derive_seed
from cursor.latent import LatentPoint, similarity, trajectory_distances, unit_direction
from cursor.synth import Link, generate_dataset, make_response_model, simulate_response


def test_link_linear_identity():
    link = Link(kind="linear")
    for d in (0.0, 1.0, 10.0, 46.0):
        assert link(d) == d


def test_link_saturating_shape():
    link = Link(kind="saturating", tau=10.0)
    assert link(0.0) == 0.0
    # increasing and bounded by 1
    vals = np.array([link(d) for d in (1.0, 10.0, 100.0)])
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] < 1.0
    assert vals[1] == pytest.approx(np.tanh(1.0))


def test_link_validation():
    with pytest.raises(ValueError):
        Link(kind="cubic")
    with pytest.raises(ValueError):
        Link(kind="saturating", tau=0.0)


def test_model_bases_orthonormal():
    m = make_response_model(24, k_signal=4, nuisance_rank=6, seed=5)
    assert np.allclose(m.signal_dirs.T @ m.signal_dirs, np.eye(4), atol=1e-12)
    assert np.allclose(m.nuisance_basis.T @ m.nuisance_basis, np.eye(6), atol=1e-12)


def test_model_rejects_overfull_bases():
    with pytest.raises(ValueError):
        make_response_model(8, k_signal=5, nuisance_rank=4)


def test_model_deterministic_in_seed():
    a = make_response_model(16, seed=3)
    b = make_response_model(16, seed=3)
    c = make_response_model(16, seed=4)
    assert np.array_equal(a.signal_dirs, b.signal_dirs)
    assert not np.array_equal(a.signal_dirs, c.signal_dirs)


def test_simulate_response_deterministic():
    m = make_response_model(12, seed=0)
    a = simulate_response(m, 5.0, trial_seed=77)
    b = simulate_response(m, 5.0, trial_seed=77)
    c = simulate_response(m, 5.0, trial_seed=78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noiseless_response_is_pure_signal():
    m = make_response_model(12, k_signal=3, signal_gain=2.0, noise_sigma=0.0,
                            nuisance_rank=0, nuisance_gain=0.0, seed=1)
    d = 7.5
    e = simulate_response(m, d, trial_seed=0)
    expected = 2.0 * d * m.signal_dirs.sum(axis=1)
    assert np.allclose(e, expected, atol=1e-12)


def test_signal_scales_linearly_with_distance_when_linear():
    m = make_response_model(12, noise_sigma=0.0, nuisance_gain=0.0, seed=1)
    e1 = simulate_response(m, 3.0, trial_seed=0)
    e2 = simulate_response(m, 6.0, trial_seed=0)
    assert np.allclose(e2, 2.0 * e1, atol=1e-12)


def test_noise_sigma_controls_residual_scale():
    quiet = make_response_model(40, signal_gain=0.0, nuisance_gain=0.0,
                                noise_sigma=0.5, seed=2)
    loud = make_response_model(40, signal_gain=0.0, nuisance_gain=0.0,
                               noise_sigma=2.0, seed=2)
    eq = np.concatenate([simulate_response(quiet, 1.0, s) for s in range(50)])
    el = np.concatenate([simulate_response(loud, 1.0, s) for s in range(50)])
    assert np.std(el) / np.std(eq) == pytest.approx(4.0, rel=0.1)


def test_generate_dataset_shapes_and_truth():
    m = make_response_model(12, seed=0)
    t = LatentPoint(np.zeros(4))
    ds = generate_dataset([t], trajectories_per_target=3, points_per_trajectory=5,
                          model=m, master_seed=9, d_max=20.0)
    assert ds.n == 15
    assert ds.stimulus_dim == 4
    assert ds.response_dim == 12
    assert ds.truth is not None
    for i in range(ds.n):
        z = LatentPoint(ds.stimuli[i])
        assert similarity(t, z) == pytest.approx(ds.truth.distances[i], abs=1e-9)


def test_generate_dataset_multi_target_drops_truth():
    m = make_response_model(12, seed=0)
    ts = [LatentPoint(np.zeros(4)), LatentPoint(np.ones(4))]
    ds = generate_dataset(ts, 2, 3, m, master_seed=9, d_max=20.0)
    assert ds.n == 12
    assert ds.truth is None


def test_generate_dataset_reproducible():
    m = make_response_model(12, seed=0)
    t = LatentPoint(np.arange(4, dtype=float))
    a = generate_dataset([t], 2, 4, m, master_seed=5, d_max=20.0)
    b = generate_dataset([t], 2, 4, m, master_seed=5, d_max=20.0)
    c = generate_dataset([t], 2, 4, m, master_seed=6, d_max=20.0)
    assert np.array_equal(a.responses, b.responses)
    assert np.array_equal(a.stimuli, b.stimuli)
    assert not np.array_equal(a.responses, c.responses)


def test_generate_dataset_provenance_records_generator():
    m = make_response_model(12, seed=0)
    t = LatentPoint(np.zeros(4))
    ds = generate_dataset([t], 2, 3, m, master_seed=42, d_max=20.0)
    gen = ds.provenance["generator"]
    assert gen["master_seed"] == 42
    assert gen["trajectories_per_target"] == 2
    assert gen["points_per_trajectory"] == 3


def test_trajectories_differ_between_indices():
    m = make_response_model(12, seed=0)
    t = LatentPoint(np.zeros(6))
    ds = generate_dataset([t], 2, 4, m, master_seed=5, d_max=20.0)
    # distances repeat per trajectory but directions differ
    first = ds.stimuli[:4]
    second = ds.stimuli[4:]
    assert np.allclose(ds.truth.distances[:4], ds.truth.distances[4:])
    assert not np.allclose(first[1:], second[1:])


def ladder_dataset():
    m = make_response_model(12, seed=0)
    target = LatentPoint(np.arange(4, dtype=float))
    ds = generate_dataset([target], 3, 7, m, master_seed=4, d_max=12.0)
    return ds, target, trajectory_distances(7, 0.0, 12.0, "logarithmic")


def test_generate_dataset_stimuli_lie_on_the_ladder():
    ds, target, ladder = ladder_dataset()
    assert np.array_equal(ds.truth.distances, np.tile(ladder, 3))
    for tj, block in enumerate(ds.stimuli.reshape(3, 7, 4)):
        # each stimulus is exactly target + d * u along its trajectory's seeded direction
        u = unit_direction(4, derive_seed(4, 0, tj, "trajectory"))
        assert np.array_equal(block, target.coords + ladder[:, None] * u)


def test_generate_dataset_trajectory_shares_one_direction():
    ds, target, ladder = ladder_dataset()
    directions = []
    for block in ds.stimuli.reshape(3, 7, 4):
        assert np.array_equal(block[0], target.coords)  # the pinned zero of the log ladder
        dirs = (block[1:] - target.coords) / ladder[1:, None]
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        assert np.allclose(dirs, dirs[0], atol=1e-12)
        directions.append(dirs[0])
    assert not np.allclose(directions[0], directions[1])


# SHA-256 of generate_dataset's stimuli and responses (6 trajectories x 5
# points per target, Dz=5, De=12, d_max=20), recorded when each row still
# built its own SeedSequence objects: generation must not move a byte.
GENERATION_SHA256 = {
    "two-targets": (
        dict(targets=2, master_seed=41, link=Link("linear"), spacing="logarithmic", d_min=0.0),
        "b4b258e24243145aa36f4db62e250f144bd0c52a656a4d85d8930b98f8675515",
        "825f70b4dc7afbf32b7711a4ec7c06aa24be710e305b653778bb7ef8fde1f51d"),
    "seed-above-2^32": (
        dict(targets=1, master_seed=5 * 10**9, link=Link("saturating", 4.0), spacing="uniform",
             d_min=0.0),
        "96e56b25d1742670ec364233f16ec567f5f88d05daa5a42552affdd6d88f48d8",
        "2f82033a3bf82dcbd44895f87cbd7457d6a9133cca711206b97bf4d6c4cb9c17"),
    "seed-above-2^64": (
        dict(targets=1, master_seed=2**70 + 3, link=Link("linear"), spacing="uniform", d_min=0.5),
        "bd0beaf4c7cf7352e3fb437e8763cf97ab475e1e8f4aa99b0314b8bc644b80e4",
        "05d5a589a1b83c79b3df37642ea2d060c314d29e3e5a2b7d91e2181bcac46c6e"),
    "negative-seed": (
        dict(targets=2, master_seed=-3, link=Link("saturating", 4.0), spacing="logarithmic",
             d_min=0.0),
        "7d2e566381eea9fd9d1df89515f5bde4e40970fa19cc002b3022e082cb07a61f",
        "05c54875af866159b7fdd207ed957f1544b02fd4aaa0356df5b610ba6bb35d5b"),
    "d-min-saturating-log": (
        dict(targets=1, master_seed=7, link=Link("saturating", 10.0), spacing="logarithmic",
             d_min=1.5),
        "75df49ffe8904c744cfbc1197a726e079576ec00a55d978031fa1838c841c7ef",
        "d8ed3531427b007eb561752cb739480adcf7ddbdb1cd6435d65ebeba9a8ccc85"),
    "d-min-linear-uniform": (
        dict(targets=3, master_seed=0, link=Link("linear"), spacing="uniform", d_min=2.0),
        "3c7816d42d3edce61b14761edb6b4933585706a6560496fdbe07e7467386cc59",
        "09c2159caa1fe2b856417056a838f10dcac8376fefa442d6ceaef80493310610"),
    "no-nuisance": (
        dict(targets=2, master_seed=41, link=Link("linear"), spacing="logarithmic", d_min=0.0,
             nuisance_rank=0),
        "b4b258e24243145aa36f4db62e250f144bd0c52a656a4d85d8930b98f8675515",
        "f3fede53e7c1eff56c1054dce532c07cdc6d01ae10b58b82f81a4d62ae081b45"),
}


@pytest.mark.parametrize("case", list(GENERATION_SHA256))
def test_generation_bytes_are_pinned(case):
    geometry, stimuli_sha, responses_sha = GENERATION_SHA256[case]
    geometry = dict(geometry)
    model = make_response_model(12, k_signal=2, nuisance_rank=geometry.pop("nuisance_rank", 3),
                                noise_sigma=0.7, nuisance_gain=1.3, signal_gain=0.9,
                                link=geometry.pop("link"), seed=5)
    targets = [LatentPoint(derive_rng(9, "coords", i).standard_normal(5))
               for i in range(geometry.pop("targets"))]
    ds = generate_dataset(targets, 6, 5, model, d_max=20.0, **geometry)
    assert hashlib.sha256(ds.stimuli.tobytes()).hexdigest() == stimuli_sha
    assert hashlib.sha256(ds.responses.tobytes()).hexdigest() == responses_sha
