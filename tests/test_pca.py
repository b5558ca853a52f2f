import numpy as np
import pytest

from cursor.pca import (
    LATENT_K,
    RESPONSE_K,
    PcaModel,
    default_latent_k,
    default_response_k,
    load_pca,
    pca_fit,
    pca_inverse,
    pca_transform,
    save_pca,
)


def _cloud(n=200, d=8, seed=0, scales=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if scales is not None:
        X = X * np.asarray(scales)
    return X + rng.standard_normal(d)


def test_components_orthonormal():
    m = pca_fit(_cloud(), 5)
    gram = m.components @ m.components.T
    assert np.allclose(gram, np.eye(5), atol=1e-9)


def test_full_rank_round_trip_identity():
    X = _cloud(n=60, d=6, seed=1)
    m = pca_fit(X, 6)
    back = pca_inverse(m, pca_transform(m, X))
    assert np.allclose(back, X, atol=1e-9)


def test_planar_data_exact_at_k2():
    # points spread in a 2-D plane inside R^3
    rng = np.random.default_rng(2)
    basis = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    X = rng.standard_normal((80, 2)) @ basis.T + 5.0
    m = pca_fit(X, 2)
    back = pca_inverse(m, pca_transform(m, X))
    assert np.max(np.abs(back - X)) < 1e-9


def test_explained_variance_matches_covariance_eigs():
    # independent oracle: eigendecomposition of the sample covariance
    X = _cloud(n=120, d=7, seed=3, scales=[5, 4, 3, 2, 1, 0.5, 0.2])
    m = pca_fit(X, 7)
    cov = np.cov(X, rowvar=False, ddof=1)
    eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.allclose(m.explained_variance, eigs, atol=1e-8)


def test_explained_variance_non_increasing():
    m = pca_fit(_cloud(n=100, d=9, seed=4), 9)
    assert np.all(np.diff(m.explained_variance) <= 1e-12)


def test_reconstruction_error_monotone_in_k():
    X = _cloud(n=100, d=8, seed=5, scales=[4, 3.5, 3, 2.5, 2, 1.5, 1, 0.5])
    errs = []
    for k in range(1, 9):
        m = pca_fit(X, k)
        back = pca_inverse(m, pca_transform(m, X))
        errs.append(float(np.mean((back - X) ** 2)))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-18


def test_transform_of_mean_is_zero():
    X = _cloud(n=50, d=5, seed=6)
    m = pca_fit(X, 3)
    assert np.allclose(pca_transform(m, m.mean), 0.0, atol=1e-12)


def test_inverse_transform_is_projection():
    X = _cloud(n=60, d=6, seed=7)
    m = pca_fit(X, 3)
    x = X[0]
    p = pca_inverse(m, pca_transform(m, x))
    # projecting twice changes nothing
    assert np.allclose(pca_inverse(m, pca_transform(m, p)), p, atol=1e-10)
    # residual orthogonal to the component span
    assert np.allclose(m.components @ (x - p), 0.0, atol=1e-9)


def test_sign_convention_deterministic():
    X = _cloud(n=80, d=6, seed=8)
    a = pca_fit(X, 4)
    b = pca_fit(X.copy(), 4)
    assert np.array_equal(a.components, b.components)
    # largest-magnitude entry of each component is positive
    for row in a.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_vector_and_matrix_transform_agree():
    X = _cloud(n=40, d=5, seed=9)
    m = pca_fit(X, 2)
    one = pca_transform(m, X[3])
    many = pca_transform(m, X)
    assert one.shape == (2,)
    assert np.allclose(one, many[3])


def test_fit_validation():
    X = _cloud(n=20, d=4)
    with pytest.raises(ValueError):
        pca_fit(X, 0)
    with pytest.raises(ValueError):
        pca_fit(X, 5)
    with pytest.raises(ValueError):
        pca_fit(np.zeros((2, 4)), 3)  # k capped by min(n, d)


def test_transform_dimension_check():
    m = pca_fit(_cloud(n=30, d=4), 2)
    with pytest.raises(ValueError):
        pca_transform(m, np.zeros(5))
    with pytest.raises(ValueError):
        pca_inverse(m, np.zeros(3))


def test_binary_round_trip(tmp_path):
    m = pca_fit(_cloud(n=30, d=5, seed=11), 4)
    path = tmp_path / "model.bin"
    save_pca(m, path)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"CRPC"
    back = load_pca(path)
    assert np.array_equal(back.mean, m.mean)
    assert np.array_equal(back.components, m.components)
    assert np.array_equal(back.explained_variance, m.explained_variance)


# d=5, k=4: a 16-byte header, then 8*(5 + 4*5 + 4) = 232 bytes of f8 values
@pytest.mark.parametrize("size", [10, 16 + 100, 248 + 8], ids=["header", "body", "trailing"])
def test_binary_size_must_match_header(tmp_path, size):
    path = tmp_path / "model.bin"
    save_pca(pca_fit(_cloud(n=30, d=5, seed=11), 4), path)
    raw = path.read_bytes()
    assert len(raw) == 248
    bad = tmp_path / "bad.bin"
    bad.write_bytes((raw + bytes(8))[:size])
    with pytest.raises(ValueError, match="truncated or oversized PCA file"):
        load_pca(bad)


def test_model_validation():
    with pytest.raises(ValueError):
        PcaModel(
            mean=np.zeros(3),
            components=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
            explained_variance=np.array([2.0, 1.0]),
            input_dim=3,
            k=2,
        )
    with pytest.raises(ValueError):
        PcaModel(
            mean=np.zeros(3),
            components=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            explained_variance=np.array([1.0, 2.0]),  # increasing
            input_dim=3,
            k=2,
        )


def test_default_dims():
    assert default_response_k(203) == RESPONSE_K == 20
    assert default_latent_k(512) == LATENT_K == 10
    assert default_response_k(64) == 20
    assert default_latent_k(32) == 10
    assert default_response_k(9) == 3
    assert default_latent_k(2) == 1
