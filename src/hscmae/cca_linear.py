"""Closed-form regularized linear CCA.

Serves two roles: the projection appended after training and the classical
baseline. ``whiten`` is also the forward of the differentiable
canonical-correlation loss, so the loss and the linear fit share one
covariance build, regularizer and whitening, and agree bit for bit; the
tests check both against scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The covariance regularizer of the fit and of the canonical-correlation
# loss, the one value every training and baseline uses
EPS = 1e-4
_EIG_CLAMP = 1e-10
_RANK_TOL = 1e-12


class CcaFitError(Exception):
    pass


@dataclass(frozen=True)
class LinearCcaModel:
    mean_x: np.ndarray  # 1 x dx
    mean_y: np.ndarray  # 1 x dy
    a: np.ndarray       # dx x p
    b: np.ndarray       # dy x p
    rho: np.ndarray     # p, descending in [0, 1]


def _inv_sqrt(sym):
    w, q = np.linalg.eigh(sym)
    if w.min() < _RANK_TOL:
        raise CcaFitError(f"covariance rank-deficient after regularization (min eig {w.min():.3e})")
    w = np.maximum(w, _EIG_CLAMP)
    return (q * (w ** -0.5)) @ q.T


def whiten(x, y, eps):
    """(mean_x, mean_y, hx, hy, k_xx, k_yy, u, sv, vt) of the float64 n x dx
    audio view ``x`` and n x dy visual view ``y``: their means and centred
    copies, the inverse square roots k of S_xx + eps I and S_yy + eps I
    (covariances with the n - 1 denominator), and the SVD u, sv, vt of the
    whitened cross-covariance k_xx S_xy k_yy. A non-finite covariance, or an
    eigenvalue below 1e-12 after regularization, raises CcaFitError."""
    n, dx = x.shape
    dy = y.shape[1]
    mean_x = x.mean(axis=0, keepdims=True)
    mean_y = y.mean(axis=0, keepdims=True)
    hx = x - mean_x
    hy = y - mean_y
    denom = n - 1
    s_xx = hx.T @ hx / denom + eps * np.eye(dx)
    s_yy = hy.T @ hy / denom + eps * np.eye(dy)
    s_xy = hx.T @ hy / denom
    for name, cov in (("audio", s_xx), ("visual", s_yy)):
        if not np.all(np.isfinite(cov)):
            raise CcaFitError(f"non-finite {name} covariance")
    k_xx = _inv_sqrt(s_xx)
    k_yy = _inv_sqrt(s_yy)
    u, sv, vt = np.linalg.svd(k_xx @ s_xy @ k_yy)
    return mean_x, mean_y, hx, hy, k_xx, k_yy, u, sv, vt


def fit(x, y, p, eps=EPS):
    """Fit canonical directions via SVD of the whitened cross-covariance.

    Columns are ordered by descending correlation; each audio-side column is
    sign-fixed so its first non-negligible entry is positive."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, dx = x.shape
    dy = y.shape[1]
    if y.shape[0] != n:
        raise CcaFitError(f"fit: sample counts differ ({n} vs {y.shape[0]})")
    if n <= max(dx, dy):
        raise CcaFitError(f"fit: need n > max(dx, dy), got n={n}, dims=({dx}, {dy})")
    if not 1 <= p <= min(dx, dy):
        raise CcaFitError(f"fit: p={p} outside 1..{min(dx, dy)}")

    mean_x, mean_y, _, _, k_xx, k_yy, u, sv, vt = whiten(x, y, eps)
    a = k_xx @ u[:, :p]
    b = k_yy @ vt[:p].T
    rho = sv[:p].copy()

    for j in range(p):
        col = a[:, j]
        nz = np.nonzero(np.abs(col) > _RANK_TOL)[0]
        if nz.size and col[nz[0]] < 0:
            a[:, j] = -col
            b[:, j] = -b[:, j]

    return LinearCcaModel(mean_x=mean_x, mean_y=mean_y, a=a, b=b, rho=rho)


def transform(model, x, y):
    """Project both views with the fitted directions (centered first)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[1] != model.mean_x.shape[1] or y.shape[1] != model.mean_y.shape[1]:
        raise CcaFitError(f"transform: dims ({x.shape[1]}, {y.shape[1]}) do not match model "
                          f"({model.mean_x.shape[1]}, {model.mean_y.shape[1]})")
    return (x - model.mean_x) @ model.a, (y - model.mean_y) @ model.b


def checkpoint_entries(model):
    return {
        "cca/mean_a": model.mean_x,
        "cca/mean_v": model.mean_y,
        "cca/A": model.a,
        "cca/B": model.b,
        "cca/rho": model.rho.reshape(1, -1),
    }


def from_checkpoint_entries(entries):
    return LinearCcaModel(mean_x=entries["cca/mean_a"], mean_y=entries["cca/mean_v"],
                          a=entries["cca/A"], b=entries["cca/B"], rho=entries["cca/rho"].reshape(-1))
