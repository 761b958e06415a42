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


def interleave(state):
    """The (x_1, p_1, ..., x_N, p_N) covariance matrix gamma, (..., 2N, 2N), of a
    state or batch given by its x blocks X, `state.x` of shape (..., N, N), and
    one sign s_i per mode, `state.signs`: gamma[2i, 2j] = X[i, j] and
    gamma[2i+1, 2j+1] = P[i, j] = s_i s_j X[i, j]."""
    n = state.x.shape[-1]
    gamma = np.zeros(state.x.shape[:-2] + (2 * n, 2 * n))
    gamma[..., 0::2, 0::2] = state.x
    gamma[..., 1::2, 1::2] = state.x * np.outer(state.signs, state.signs)
    return gamma


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


def golden_walk(rates, bracket=(0.01, 100.0), grid_points=40):
    """The V_M search one golden-section step per round, as scipy.optimize.golden
    steps: a log grid over `bracket`, then golden section on u = log(V_M)
    between the best grid point's neighbours, or between an end point and its
    neighbour, until x3 - x0 <= 1e-3 (|x1| + |x2|).

    `rates(v_ms)` returns the key fractions at a list of V_M; each call is one
    round.  Returns (v_m, rate) of the optimum, ties broken toward smaller V_M.
    """
    golden_r = 0.61803399
    golden_c = 1.0 - golden_r
    grid = np.logspace(np.log10(bracket[0]), np.log10(bracket[1]), grid_points)
    values = np.array(rates(list(grid)))
    best = int(np.argmax(values))
    x0 = np.log(grid[max(best - 1, 0)])
    x3 = np.log(grid[min(best + 1, grid_points - 1)])
    mid = np.log(grid[best])
    if best in (0, grid_points - 1):
        x1, x2 = golden_r * x0 + golden_c * x3, golden_c * x0 + golden_r * x3
    elif x3 - mid > mid - x0:
        x1, x2 = mid, mid + golden_c * (x3 - mid)
    else:
        x1, x2 = mid - golden_c * (mid - x0), mid
    f1, f2 = rates([float(np.exp(x1)), float(np.exp(x2))])
    for _ in range(5000):
        if abs(x3 - x0) <= 1e-3 * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1, f1 = x1, x2, f2
            x2 = golden_r * x1 + golden_c * x3
            [f2] = rates([float(np.exp(x2))])
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = golden_r * x2 + golden_c * x0
            [f1] = rates([float(np.exp(x1))])
    u_opt, r_opt = (x1, f1) if f1 > f2 else (x2, f2)
    if r_opt < values[best]:
        return float(grid[best]), float(values[best])
    return float(np.exp(u_opt)), r_opt


def heterodyne_draws(gamma, n, seed):
    """n raw heterodyne records of the modes of covariance matrix gamma, one
    row of (x_1, p_1, ..., x_N, p_N) outcomes each: standard normals from
    default_rng(seed) through the Cholesky factor of (gamma + 1)/2."""
    chol = np.linalg.cholesky(0.5 * (gamma + np.eye(len(gamma))))
    return np.random.default_rng(seed).standard_normal((n, len(gamma))) @ chol.T


def mc_moments(alice, bob, eve):
    """Monte-Carlo second moments in SNU from raw (n, 2) heterodyne records,
    every one with ddof = 1 (np.cov)."""
    v_a = 2.0 * 0.5 * (np.var(alice[:, 0], ddof=1) + np.var(alice[:, 1], ddof=1)) - 1.0
    v_b = 2.0 * 0.5 * (np.var(bob[:, 0], ddof=1) + np.var(bob[:, 1], ddof=1)) - 1.0
    c_ab = np.cov(alice[:, 0], bob[:, 0])[0, 1] - np.cov(alice[:, 1], bob[:, 1])[0, 1]
    c_al = 0.0
    if eve is not None:
        c_al = np.cov(alice[:, 0], eve[:, 0])[0, 1] - np.cov(alice[:, 1], eve[:, 1])[0, 1]
    return v_a, v_b, abs(c_ab), abs(c_al)


def mc_point_estimate(alice, bob, eve, v_m_known, assume_no_leakage):
    """Moment estimate (v_m, k, eta, eps) from raw records, by mc_moments; eps unclamped."""
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
    return v_m, k, eta, v_b - 1.0 - eta * v_m


def mc_estimate(alice, bob, eve, v_m_known=None, assume_no_leakage=False, n_sub=10):
    """Full-batch estimate, its eps clamped at 0, and the standard errors of the
    unclamped estimates of its n_sub-way split (np.array_split of the record
    indices), from raw records."""
    v_m, k, eta, eps = mc_point_estimate(alice, bob, eve, v_m_known, assume_no_leakage)
    full = (v_m, k, eta, max(eps, 0.0))
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


def bartlett_moments(x, signs, idx, n, seed, n_sub=10):
    """Counts and centred Gram matrices of n heterodyne outcomes of the modes at
    indices `idx` of a state with x block `x` and `signs`, drawn as the
    montecarlo.sample_moments docstring says, step by step, for that function
    given the measured block: here the block is read from the whole state with
    np.ix_ and the Bartlett layout is built on every call.  The whole batch
    first, then the n_sub sub-batches of np.array_split."""
    width = 2 * len(idx)
    factor = np.linalg.cholesky(0.5 * (x[np.ix_(idx, idx)] + np.eye(len(idx))))
    chol = np.zeros((width, width))
    chol[0::2, 0::2] = factor
    chol[1::2, 1::2] = factor * np.outer(signs[idx], signs[idx])
    q, r = divmod(n, n_sub)
    sizes = [q + 1] * r + [q] * (n_sub - r)
    rng = np.random.default_rng(seed)
    m = np.array(sizes)[:, None]
    means = rng.standard_normal((n_sub, width)) / np.sqrt(m)
    below = np.tril_indices(width, -1)
    diag = np.arange(width)
    bartlett = np.zeros((n_sub, width, width))
    bartlett[:, below[0], below[1]] = rng.standard_normal((n_sub, len(below[0])))
    bartlett[:, diag, diag] = np.sqrt(rng.chisquare(m - 1 - diag))
    grams = bartlett @ bartlett.transpose(0, 2, 1)
    spread = means - (m * means).sum(axis=0) / n
    whole = grams.sum(axis=0) + (m * spread).T @ spread
    return (n, *sizes), chol @ np.concatenate([whole[None], grams]) @ chol.T


def gram_estimate(counts, grams, a, b, e, blind_v_m=None, n_sub=10):
    """The fields of montecarlo.EstimateReport, by name, from the counts and
    centred Gram matrices of bartlett_moments, computed the plain way:
    per-column moments, np.stack and np.std.  a, b and e are
    the x columns of A, B and L (e None: no record of L)."""
    counts = np.array(counts)

    def var(i):
        return grams[:, i, i] / (counts - 1) + grams[:, i + 1, i + 1] / (counts - 1) - 1.0

    def cov(i, j):
        return grams[:, i, j] / (counts - 1) - grams[:, i + 1, j + 1] / (counts - 1)

    v_a, v_b = var(a), var(b)
    c_ab = np.abs(cov(a, b))
    s = np.maximum(v_a - 1.0, 1e-12)
    if blind_v_m is not None:
        v_m = np.full_like(s, blind_v_m)
        k = np.zeros_like(s)
        eta = c_ab**2 / (v_m * (2.0 + v_m))
    else:
        if e is None:
            k = np.zeros_like(s)
        else:
            w = np.minimum(np.abs(cov(a, e)) ** 2 / (s * (2.0 + s)), 0.999)
            k = np.sqrt(w / (1.0 - w))
        v_m = s / (1.0 + k * k)
        eta = c_ab**2 / (v_m * (2.0 + s))
    eps = v_b - 1.0 - eta * v_m
    estimates = np.stack([v_m, k, eta, eps], axis=-1)
    full = estimates[0]
    se = np.maximum(np.std(estimates[1:], axis=0, ddof=1) / np.sqrt(n_sub), 1e-12)
    return {
        "v_m_hat": float(full[0]),
        "k_hat": float(full[1]),
        "eta_hat": float(full[2]),
        "eps_hat": float(max(full[3], 0.0)),
        "se_v_m": float(se[0]),
        "se_k": float(se[1]),
        "se_eta": float(se[2]),
        "se_eps": float(se[3]),
        "n": int(counts[0]),
        "clamped": bool((v_a[0] < 1.0) | (eps[0] < 0.0)),
    }


def mp_entropy_g(nu):
    """g(nu) in bits at mpmath's working precision; 0 for nu <= 1."""
    b = (mp.mpf(nu) - 1) / 2
    if b <= 0:
        return mp.mpf(0)
    return (b + 1) * mp.log(b + 1, 2) - b * mp.log(b, 2)


def _mp_symplectic_entropy(gamma):
    """Entropy (bits) of an mpmath covariance matrix from the eigenvalues +-i nu of Omega gamma."""
    n = gamma.rows // 2
    omega = mp.zeros(2 * n, 2 * n)
    for i in range(n):
        omega[2 * i, 2 * i + 1], omega[2 * i + 1, 2 * i] = 1, -1
    ev = sorted(abs(mp.im(lam)) for lam in mp.eig(omega * gamma, left=False, right=False))
    return sum((mp_entropy_g(nu) for nu in ev[::2]), mp.mpf(0))


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
