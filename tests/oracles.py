"""Independent reference implementations used to cross-check the library.

Everything here is deliberately standalone scalar/FFT/high-precision
algebra: no imports from the package under test.
"""

import numpy as np
from mpmath import mp

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


def mc_moments(alice, bob, eve):
    """Monte-Carlo second moments in SNU from raw (n, 2) heterodyne records:
    variances with ddof = 0 (np.var), covariances with ddof = 1 (np.cov)."""
    v_a = 2.0 * 0.5 * (np.var(alice[:, 0]) + np.var(alice[:, 1])) - 1.0
    v_b = 2.0 * 0.5 * (np.var(bob[:, 0]) + np.var(bob[:, 1])) - 1.0
    c_ab = np.cov(alice[:, 0], bob[:, 0])[0, 1] - np.cov(alice[:, 1], bob[:, 1])[0, 1]
    c_al = 0.0
    if eve is not None:
        c_al = np.cov(alice[:, 0], eve[:, 0])[0, 1] - np.cov(alice[:, 1], eve[:, 1])[0, 1]
    return v_a, v_b, abs(c_ab), abs(c_al)


def mc_point_estimate(alice, bob, eve, v_m_known, assume_no_leakage):
    """Moment estimate (v_m, k, eta, eps) from raw records, by mc_moments."""
    v_a, v_b, c_ab, c_al = mc_moments(alice, bob, eve)
    s = max(v_a - 1.0, 1e-12)
    if assume_no_leakage:
        v_m, k = v_m_known, 0.0
        eta = c_ab**2 / (v_m * (2.0 + v_m))
    else:
        k = 0.0
        if eve is not None:
            w = min(c_al**2 / (s * (2.0 + s)), 0.999)
            k = np.sqrt(w / (1.0 - w))
        v_m = v_m_known if v_m_known is not None else s / (1.0 + k * k)
        eta = c_ab**2 / (v_m * (2.0 + s))
    return v_m, k, eta, max(v_b - 1.0 - eta * v_m, 0.0)


def mc_estimate(alice, bob, eve, v_m_known=None, assume_no_leakage=False, n_sub=10):
    """Full-batch estimate and the standard errors of its n_sub-way split
    (np.array_split of the record indices), from raw records."""
    full = mc_point_estimate(alice, bob, eve, v_m_known, assume_no_leakage)
    sub = np.array(
        [
            mc_point_estimate(
                alice[i], bob[i], None if eve is None else eve[i], v_m_known, assume_no_leakage
            )
            for i in np.array_split(np.arange(len(alice)), n_sub)
        ]
    )
    se = np.maximum(np.std(sub, axis=0, ddof=1) / np.sqrt(n_sub), 1e-12)
    return np.concatenate([full, se])


def _mp_symplectic_entropy(gamma):
    """Entropy (bits) of an mpmath covariance matrix from the eigenvalues +-i nu of Omega gamma."""
    n = gamma.rows // 2
    omega = mp.zeros(2 * n, 2 * n)
    for i in range(n):
        omega[2 * i, 2 * i + 1], omega[2 * i + 1, 2 * i] = 1, -1
    ev = sorted(abs(mp.im(lam)) for lam in mp.eig(omega * gamma, left=False, right=False))
    total = mp.mpf(0)
    for nu in ev[::2]:
        if nu > 1:
            a, b = (nu + 1) / 2, (nu - 1) / 2
            total += a * mp.log(a, 2) - b * mp.log(b, 2)
    return total


def _mp_sub(gamma, modes):
    idx = [2 * m + q for m in modes for q in (0, 1)]
    return mp.matrix([[gamma[i, j] for j in idx] for i in idx])


def _mp_heterodyne(gamma, measured, kept):
    """Schur complement gamma_K - C (gamma_M + 1)^-1 C^T of the kept modes."""
    km = [2 * m + q for m in kept for q in (0, 1)]
    mm = [2 * measured, 2 * measured + 1]
    gk = mp.matrix([[gamma[i, j] for j in km] for i in km])
    gm = mp.matrix([[gamma[i, j] for j in mm] for i in mm]) + mp.eye(2)
    c = mp.matrix([[gamma[i, j] for j in mm] for i in km])
    return gk - c * mp.inverse(gm) * c.T


def reduced_model_rates(
    v_m, k=0.0, eta_ch=1.0, eps_ch=0.0, eta_d=1.0, eps_d=0.0,
    eps_p1=0.0, eps_p2=0.0, eps_l=0.0, dps=50,
):
    """(I_AB, chi_DR, chi_RR) of the five-mode model A, B, L, E1, E2 at `dps` digits.

    The state is built by applying each element of the protocol to the full
    (x, p) covariance matrix: EPR sources for A/B and E1/E2, trusted noise
    added to B (eps_p1), to L (eps_l) and to B again (eps_p2) around the
    leakage beamsplitter, the channel beamsplitter B/E1 and the detector
    (attenuation eta_d plus noise eps_d on B).  chi = S(E) - S(E|x) with
    E = (L, E1, E2).  Inputs are converted exactly from their floats.
    """
    with mp.workdps(dps):
        v_m, k, eta_ch, eps_ch, eta_d, eps_d, eps_p1, eps_p2, eps_l = (
            mp.mpf(x) for x in (v_m, k, eta_ch, eps_ch, eta_d, eps_d, eps_p1, eps_p2, eps_l)
        )
        a, b, l, e1, e2 = range(5)
        gamma = mp.eye(10)

        def epr(i, j, v):
            c = mp.sqrt(v * v - 1)
            for q, sign in ((0, 1), (1, -1)):
                gamma[2 * i + q, 2 * i + q] = gamma[2 * j + q, 2 * j + q] = v
                gamma[2 * i + q, 2 * j + q] = gamma[2 * j + q, 2 * i + q] = sign * c

        def add_noise(i, eps):
            for q in (0, 1):
                gamma[2 * i + q, 2 * i + q] += eps

        def apply(s):
            return s * gamma * s.T

        def beamsplitter(i, j, transmittance):
            s = mp.eye(10)
            t, r = mp.sqrt(transmittance), mp.sqrt(1 - transmittance)
            for q in (0, 1):
                s[2 * i + q, 2 * i + q] = s[2 * j + q, 2 * j + q] = t
                s[2 * i + q, 2 * j + q], s[2 * j + q, 2 * i + q] = r, -r
            return apply(s)

        epr(a, b, 1 + (1 + k * k) * v_m)
        epr(e1, e2, 1 + eps_ch / (1 - eta_ch) if eta_ch < 1 else mp.mpf(1))
        add_noise(b, eps_p1)
        add_noise(l, eps_l)
        gamma = beamsplitter(b, l, 1 / (1 + k * k))
        add_noise(b, eps_p2)
        gamma = beamsplitter(b, e1, eta_ch)
        detector = mp.eye(10)
        detector[2 * b, 2 * b] = detector[2 * b + 1, 2 * b + 1] = mp.sqrt(eta_d)
        gamma = apply(detector)
        add_noise(b, 1 - eta_d + eps_d)

        bob = _mp_sub(gamma, [b])
        bob_cond = _mp_heterodyne(_mp_sub(gamma, [a, b]), 0, [1])
        i_ab = sum(mp.log((bob[q, q] + 1) / (bob_cond[q, q] + 1), 2) / 2 for q in (0, 1))
        eve = [l, e1, e2]
        s_e = _mp_symplectic_entropy(_mp_sub(gamma, eve))
        chi_dr, chi_rr = (
            s_e - _mp_symplectic_entropy(_mp_heterodyne(_mp_sub(gamma, [x] + eve), 0, [1, 2, 3]))
            for x in (a, b)
        )
        return float(i_ab), float(chi_dr), float(chi_rr)
