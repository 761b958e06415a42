"""Independent reference implementations used to cross-check the library.

Everything here is deliberately standalone scalar/FFT algebra: no imports
from the package under test beyond the entropy helper being re-derived.
"""

import numpy as np

SZ = np.diag([1.0, -1.0])


def eq4_matrix(v_m, k, eta_ch, eps_ch):
    """Closed-form effective two-mode covariance matrix with leakage."""
    s = (1.0 + k * k) * v_m
    c = np.sqrt(eta_ch * v_m * (2.0 + s))
    return np.block(
        [
            [(1.0 + s) * np.eye(2), c * SZ],
            [c * SZ, (1.0 + eta_ch * v_m + eps_ch) * np.eye(2)],
        ]
    )


def symplectic_spectrum(gamma):
    """Symplectic eigenvalues, descending: |eig(i Omega gamma)|, one per +- pair."""
    n = gamma.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return np.sort(np.abs(np.linalg.eigvals(1j * omega @ gamma).real))[::-1][::2]


def _g(nu):
    if nu <= 1.0 + 1e-12:
        return 0.0
    a, b = 0.5 * (nu + 1.0), 0.5 * (nu - 1.0)
    return a * np.log2(a) - b * np.log2(b)


def no_switching_rates(v_m, eta_ch, eps_ch, beta):
    """Leakage-free heterodyne-heterodyne protocol, pure 2x2 block algebra.

    Returns (I_AB, R_DR, R_RR) in bits/symbol for the asymptotic regime.
    """
    a = 1.0 + v_m
    b = 1.0 + eta_ch * v_m + eps_ch
    c = np.sqrt(eta_ch * v_m * (v_m + 2.0))

    i_ab = np.log2((1.0 + b) / (1.0 + b - c * c / (1.0 + a)))

    delta = a * a + b * b - 2.0 * c * c
    det = (a * b - c * c) ** 2
    root = np.sqrt(max(delta * delta - 4.0 * det, 0.0))
    nu1 = np.sqrt(0.5 * (delta + root))
    nu2 = np.sqrt(0.5 * (delta - root))
    s_ab = _g(nu1) + _g(nu2)

    chi_dr = s_ab - _g(b - c * c / (a + 1.0))
    chi_rr = s_ab - _g(a - c * c / (b + 1.0))
    return i_ab, beta * i_ab - chi_dr, beta * i_ab - chi_rr


def iq_output_lines(mu1, mu2, delta1, delta2, n=1 << 12):
    """Brute-force spectral lines of the nested-MZM output field.

    Evaluates the exact time-domain field over one RF period and FFTs it;
    returns the complex amplitudes at the desired sideband, the suppressed
    sideband and the carrier.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    field = np.sin(mu2 * np.cos(theta) + delta2) + 1j * np.sin(
        mu1 * np.sin(theta) + delta1
    )
    spec = np.fft.fft(field) / n
    return spec[1], spec[-1], spec[0]
