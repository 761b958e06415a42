"""Closed-form references for points without trusted noise, from 2x2 block algebra.

Nothing here imports modleak.  Without trusted noise and with an ideal
detector, Alice and Bob hold only A and B, Eve holds the rest of a pure
state, and the effective two-mode covariance matrix is

    [[a 1, c Z], [c Z, b 1]],  a = 1 + (1 + k^2) V_M,  b = 1 + eta V_M + eps,
                               c^2 = eta V_M (2 + (1 + k^2) V_M).

Every function accepts numpy arrays and broadcasts, so a dense V_M scan is
one call.
"""

from __future__ import annotations

import numpy as np

# ideal RF-imbalance model floored at 24 dB of residual sideband suppression
K_FLOOR = 10.0 ** (-24.0 / 20.0)


def rho_to_k(rho_db, k_floor=K_FLOOR):
    """Leakage ratio k = |1 - r| / (1 + r), r = 10^(rho/10), floored at k_floor."""
    r = 10.0 ** (np.asarray(rho_db, dtype=float) / 10.0)
    return np.maximum(np.abs(1.0 - r) / (1.0 + r), k_floor)


def _g(nu):
    """Entropy (bits) of a thermal mode with symplectic eigenvalue nu; 0 at nu <= 1."""
    nu = np.maximum(np.asarray(nu, dtype=float), 1.0)
    a, b = 0.5 * (nu + 1.0), 0.5 * (nu - 1.0)
    b_log_b = np.where(b > 0.0, b * np.log2(np.where(b > 0.0, b, 1.0)), 0.0)
    return a * np.log2(a) - b_log_b


def rates(v_m, k, eta, eps, beta):
    """(I_AB, chi_DR, chi_RR, R_DR, R_RR) in bits/symbol, asymptotic regime."""
    v_m, k, eta, eps = (np.asarray(x, dtype=float) for x in (v_m, k, eta, eps))
    s = (1.0 + k * k) * v_m
    a = 1.0 + s
    b = 1.0 + eta * v_m + eps
    c2 = eta * v_m * (2.0 + s)

    i_ab = np.log2((1.0 + b) / (1.0 + b - c2 / (1.0 + a)))

    delta = a * a + b * b - 2.0 * c2
    det = (a * b - c2) ** 2
    root = np.sqrt(np.maximum(delta * delta - 4.0 * det, 0.0))
    s_ab = _g(np.sqrt(0.5 * (delta + root))) + _g(np.sqrt(0.5 * (delta - root)))
    chi_dr = np.maximum(s_ab - _g(b - c2 / (a + 1.0)), 0.0)
    chi_rr = np.maximum(s_ab - _g(a - c2 / (b + 1.0)), 0.0)
    return i_ab, chi_dr, chi_rr, beta * i_ab - chi_dr, beta * i_ab - chi_rr


def rate(direction, v_m, k, eta, eps, beta):
    """R_DR or R_RR alone; direction is "dr" or "rr"."""
    return rates(v_m, k, eta, eps, beta)[3 if direction == "dr" else 4]


def abl_covariance(v_m, k, eta, eps):
    """Covariance matrix of modes A, B and the leaked mode L, ordered (x, p) per mode.

    The EPR pair of variance 1 + (1 + k^2) V_M is split on a beamsplitter of
    transmittance 1 / (1 + k^2) into B and L; B then crosses the lossy,
    noisy channel.  Signs follow a -> sqrt(T) a + sqrt(1-T) b,
    b -> -sqrt(1-T) a + sqrt(T) b.
    """
    t = 1.0 / (1.0 + k * k)
    v_s = 1.0 + v_m / t
    c_s = np.sqrt(v_s * v_s - 1.0)
    one, z = np.eye(2), np.diag([1.0, -1.0])
    ab = np.sqrt(eta * t) * c_s * z
    al = -np.sqrt(1.0 - t) * c_s * z
    bl = -np.sqrt(eta * t * (1.0 - t)) * (v_s - 1.0) * one
    return np.block(
        [
            [v_s * one, ab, al],
            [ab, (1.0 + eta * v_m + eps) * one, bl],
            [al, bl, (1.0 + k * k * v_m) * one],
        ]
    )


def moment_estimates(cov, v_m_known=None, assume_no_leakage=False):
    """(V_M, k, eta, eps) from a 6x6 heterodyne-outcome covariance of A, B, L.

    The moment estimators of the Monte-Carlo closure, written from the
    outcome covariance (gamma + 1) / 2 instead of from samples.  The
    leakage-blind variant takes V_M as known and k as 0.
    """
    v_a = cov[0, 0] + cov[1, 1] - 1.0
    v_b = cov[2, 2] + cov[3, 3] - 1.0
    c_ab = abs(cov[0, 2] - cov[1, 3])
    c_al = abs(cov[0, 4] - cov[1, 5])
    s = max(v_a - 1.0, 1e-12)
    if assume_no_leakage:
        v_m, k = v_m_known, 0.0
        eta = c_ab**2 / (v_m * (2.0 + v_m))
    else:
        w = min(c_al**2 / (s * (2.0 + s)), 0.999)
        k = np.sqrt(w / (1.0 - w))
        v_m = s / (1.0 + k * k)
        eta = c_ab**2 / (v_m * (2.0 + s))
    return np.array([v_m, k, eta, max(v_b - 1.0 - eta * v_m, 0.0)])


def estimate_sampling(v_m, k, eta, eps, n, assume_no_leakage=False):
    """Expected value and standard error of each moment estimate at n samples.

    Delta method: the sample covariance S of Gaussian outcomes with
    covariance Sigma has Var(tr(A S)) = 2 tr(A Sigma A Sigma) / n for
    symmetric A, and A is the numerical gradient of the estimator at Sigma.
    """
    sigma = 0.5 * (abl_covariance(v_m, k, eta, eps) + np.eye(6))
    known = v_m if assume_no_leakage else None

    def f(cov):
        return moment_estimates(cov, known, assume_no_leakage)

    mean = f(sigma)
    grads = np.zeros((4, 6, 6))
    h = 1e-6
    for i in range(6):
        for j in range(i, 6):
            step = np.zeros((6, 6))
            step[i, j] = step[j, i] = h
            d = (f(sigma + step) - f(sigma - step)) / (2.0 * h)
            grads[:, i, j] = grads[:, j, i] = d if i == j else 0.5 * d
    var = np.array([2.0 * np.trace(gm @ sigma @ gm @ sigma) / n for gm in grads])
    return mean, np.sqrt(var)
