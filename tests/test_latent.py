import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cursor.latent import (
    ACQUISITION_D_MAX,
    LOG_DISTANCE_FLOOR,
    LatentPoint,
    as_point,
    point_at_distance,
    similarity,
    trajectory_distances,
)

finite_coords = arrays(
    np.float64, st.integers(1, 8),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


def test_point_requires_finite_1d():
    with pytest.raises(ValueError):
        LatentPoint(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        LatentPoint(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LatentPoint(np.array([np.inf]))


def test_point_is_readonly():
    p = LatentPoint([1.0, 2.0])
    with pytest.raises(ValueError):
        p.coords[0] = 5.0


def test_as_point_passthrough():
    p = LatentPoint([1.0, 2.0])
    assert as_point(p) is p
    assert as_point([3.0, 4.0]).dim == 2


def test_similarity_dimension_mismatch():
    with pytest.raises(ValueError):
        similarity(LatentPoint([1.0]), LatentPoint([1.0, 2.0]))


def test_similarity_hand_value():
    # 3-4-5 triangle
    a = LatentPoint([0.0, 0.0])
    b = LatentPoint([3.0, 4.0])
    assert similarity(a, b) == 5.0


@given(finite_coords)
def test_similarity_identity(coords):
    p = LatentPoint(coords)
    assert similarity(p, p) == 0.0


@given(st.data())
def test_similarity_symmetry_and_triangle(data):
    dim = data.draw(st.integers(1, 6))
    els = st.floats(-30, 30, allow_nan=False, allow_infinity=False)
    pts = [LatentPoint(data.draw(arrays(np.float64, dim, elements=els)))
           for _ in range(3)]
    a, b, c = pts
    assert similarity(a, b) == similarity(b, a)
    assert similarity(a, c) <= similarity(a, b) + similarity(b, c) + 1e-9


@given(st.integers(1, 12), st.floats(0.0, 40.0), st.integers(0, 2**31))
def test_point_at_distance_exact(dim, d, seed):
    target = LatentPoint(np.linspace(-1.0, 1.0, dim))
    p = point_at_distance(target, d, seed)
    assert similarity(target, p) == pytest.approx(d, abs=1e-9)


def test_point_at_distance_deterministic():
    t = LatentPoint(np.zeros(5))
    a = point_at_distance(t, 3.0, seed=9)
    b = point_at_distance(t, 3.0, seed=9)
    assert np.array_equal(a.coords, b.coords)
    c = point_at_distance(t, 3.0, seed=10)
    assert not np.array_equal(a.coords, c.coords)


def test_uniform_spacing_is_linspace():
    assert np.allclose(trajectory_distances(5, 0.0, 10.0, "uniform"), [0.0, 2.5, 5.0, 7.5, 10.0])


def test_log_spacing_pins_zero_and_uses_floor():
    d = trajectory_distances(6, 0.0, ACQUISITION_D_MAX, "logarithmic")
    assert d[0] == 0.0
    assert d[1] == pytest.approx(LOG_DISTANCE_FLOOR)
    assert d[-1] == pytest.approx(ACQUISITION_D_MAX)
    # strictly geometric above the pinned zero
    ratios = d[2:] / d[1:-1]
    assert np.allclose(ratios, ratios[0])


def test_log_spacing_ladder_shape():
    """Log ladders concentrate points near the target: gaps grow monotonically."""
    d = trajectory_distances(8, 0.0, ACQUISITION_D_MAX, "logarithmic")
    gaps = np.diff(d)
    assert np.all(gaps > 0)
    # gaps grow monotonically above the pinned zero
    assert np.all(np.diff(gaps[1:]) > 0)
    # the near half of the range holds most of the points
    assert np.sum(d < 23.1) >= 6


def test_log_spacing_positive_dmin_is_geomspace():
    assert np.allclose(trajectory_distances(4, 2.0, 16.0, "logarithmic"), [2.0, 4.0, 8.0, 16.0])


def test_trajectory_distances_monotone_in_bounds():
    for spacing in ("uniform", "logarithmic"):
        d = trajectory_distances(11, 0.0, 30.0, spacing)
        assert len(d) == 11
        assert np.all(np.diff(d) > 0)
        assert d.min() >= 0.0 and d.max() <= 30.0 + 1e-12


def test_trajectory_distances_validation():
    for args, match in [
        ((0, 0.0, 10.0, "uniform"), "n_points must be >= 1"),
        ((3, -1.0, 10.0, "logarithmic"), "need 0 <= d_min <= d_max"),
        ((3, 5.0, 4.0, "logarithmic"), "need 0 <= d_min <= d_max"),
        ((3, 0.0, ACQUISITION_D_MAX + 1.0, "logarithmic"), "exceeds"),
        ((3, 0.0, 10.0, "quadratic"), "unknown spacing"),
    ]:
        with pytest.raises(ValueError, match=match):
            trajectory_distances(*args)
