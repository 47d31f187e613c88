"""Unit tests for the closed-form linear CCA, checked against a scipy
generalized-eigenvalue solve and analytic special cases."""

import numpy as np
import pytest
import scipy.linalg

from hscmae import cca_linear
from hscmae.cca_linear import CcaFitError
from hscmae.model import load_entries, save_entries


def covariances(x, y, eps):
    hx = x - x.mean(axis=0)
    hy = y - y.mean(axis=0)
    n = x.shape[0]
    s_xx = hx.T @ hx / (n - 1) + eps * np.eye(x.shape[1])
    s_yy = hy.T @ hy / (n - 1) + eps * np.eye(y.shape[1])
    s_xy = hx.T @ hy / (n - 1)
    return s_xx, s_yy, s_xy


def test_identical_views_full_correlation():
    x = np.random.default_rng(0).normal(size=(300, 4))
    model = cca_linear.fit(x, x.copy(), p=4, eps=1e-6)
    np.testing.assert_allclose(model.rho, np.ones(4), atol=1e-3)


def test_independent_views_near_zero_correlation():
    rng = np.random.default_rng(1)
    n = 2000
    x = rng.normal(size=(n, 5))
    y = rng.normal(size=(n, 5))
    model = cca_linear.fit(x, y, p=5)
    # spurious top correlation concentrates near (sqrt(dx)+sqrt(dy))/sqrt(n)
    assert model.rho[0] < 1.5 * (2 * np.sqrt(5)) / np.sqrt(n)


def test_orthogonal_rotation_two_dim_analytic():
    rng = np.random.default_rng(2)
    theta = 0.7
    r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    x = rng.normal(size=(500, 2))
    y = x @ r
    model = cca_linear.fit(x, y, p=2, eps=1e-8)
    np.testing.assert_allclose(model.rho, np.ones(2), atol=1e-4)
    u, v = cca_linear.transform(model, x, y)
    # canonical variates coincide up to the regularizer
    for j in range(2):
        corr = np.corrcoef(u[:, j], v[:, j])[0, 1]
        assert corr > 1.0 - 1e-4


def test_matches_generalized_eigen_oracle():
    rng = np.random.default_rng(3)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        shared = rng.normal(size=(120, 3))
        x = shared @ rng.normal(size=(3, 6)) + 0.5 * rng.normal(size=(120, 6))
        y = shared @ rng.normal(size=(3, 4)) + 0.5 * rng.normal(size=(120, 4))
        model = cca_linear.fit(x, y, p=4, eps=1e-4)
        s_xx, s_yy, s_xy = covariances(x, y, 1e-4)
        w = scipy.linalg.eigh(s_xy @ np.linalg.solve(s_yy, s_xy.T), s_xx, eigvals_only=True)
        rho_oracle = np.sqrt(np.clip(w, 0.0, None))[::-1][:4]
        np.testing.assert_allclose(model.rho, rho_oracle, atol=1e-8)


def test_correlations_invariant_to_affine_input_transform():
    rng = np.random.default_rng(4)
    shared = rng.normal(size=(200, 3))
    x = shared @ rng.normal(size=(3, 5)) + 0.3 * rng.normal(size=(200, 5))
    y = shared @ rng.normal(size=(3, 5)) + 0.3 * rng.normal(size=(200, 5))
    m = rng.normal(size=(5, 5)) + 2.0 * np.eye(5)  # well-conditioned mixing
    shift = rng.normal(size=(1, 5))
    base = cca_linear.fit(x, y, p=3, eps=1e-10)
    moved = cca_linear.fit(x @ m + shift, y, p=3, eps=1e-10)
    np.testing.assert_allclose(base.rho, moved.rho, atol=1e-6)


def test_directions_whiten_regularized_covariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(150, 4)) @ rng.normal(size=(4, 4))
    y = rng.normal(size=(150, 3))
    eps = 1e-4
    model = cca_linear.fit(x, y, p=3, eps=eps)
    s_xx, s_yy, _ = covariances(x, y, eps)
    np.testing.assert_allclose(model.a.T @ s_xx @ model.a, np.eye(3), atol=1e-8)
    np.testing.assert_allclose(model.b.T @ s_yy @ model.b, np.eye(3), atol=1e-8)


def test_sign_convention():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(100, 4))
    y = x @ rng.normal(size=(4, 4)) + 0.1 * rng.normal(size=(100, 4))
    model = cca_linear.fit(x, y, p=4)
    for j in range(4):
        col = model.a[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        assert col[nz[0]] > 0


def test_rho_sorted_descending_in_unit_interval():
    rng = np.random.default_rng(7)
    shared = rng.normal(size=(90, 2))
    x = shared @ rng.normal(size=(2, 5)) + rng.normal(size=(90, 5))
    y = shared @ rng.normal(size=(2, 4)) + rng.normal(size=(90, 4))
    model = cca_linear.fit(x, y, p=4)
    assert np.all(np.diff(model.rho) <= 1e-12)
    assert np.all(model.rho >= 0) and np.all(model.rho <= 1 + 1e-12)


def test_fit_validation():
    x = np.zeros((10, 3))
    with pytest.raises(CcaFitError):
        cca_linear.fit(x, np.zeros((9, 3)), p=2)
    with pytest.raises(CcaFitError):
        cca_linear.fit(np.zeros((3, 3)), np.zeros((3, 3)), p=2)  # n too small
    with pytest.raises(CcaFitError):
        cca_linear.fit(np.zeros((10, 3)) + np.random.default_rng(0).normal(size=(10, 3)),
                       np.random.default_rng(1).normal(size=(10, 3)), p=4)


def test_transform_dim_check():
    rng = np.random.default_rng(8)
    model = cca_linear.fit(rng.normal(size=(50, 3)), rng.normal(size=(50, 4)), p=2)
    with pytest.raises(CcaFitError):
        cca_linear.transform(model, np.zeros((5, 4)), np.zeros((5, 4)))


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    model = cca_linear.fit(rng.normal(size=(60, 4)), rng.normal(size=(60, 5)), p=3)
    path = tmp_path / "cca.bin"
    save_entries(path, cca_linear.checkpoint_entries(model))
    loaded = cca_linear.from_checkpoint_entries(load_entries(path))
    assert loaded.rho.size == 3
    np.testing.assert_array_equal(loaded.a, model.a)
    np.testing.assert_array_equal(loaded.b, model.b)
    np.testing.assert_array_equal(loaded.rho, model.rho)
    u1, v1 = cca_linear.transform(model, rng.normal(size=(7, 4)), rng.normal(size=(7, 5)))
    # transforms agree after the round trip
    u2, v2 = cca_linear.transform(loaded, *(np.zeros((7, 4)), np.zeros((7, 5))))
    assert u2.shape == (7, 3) and v2.shape == (7, 3)
