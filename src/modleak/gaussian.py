"""Covariance-matrix calculus for multimode Gaussian states.

All states are zero-mean and expressed in shot-noise units (SNU), i.e. the
vacuum quadrature variance is 1.  A state of N modes is a 2N x 2N real
symmetric matrix ordered as (x_1, p_1, ..., x_N, p_N), with modes addressed
by opaque string labels.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, MissingMode, NumericalError, UnphysicalState

SYMMETRY_RTOL = 1e-10
PHYSICALITY_TOL = 1e-9

_fresh_mode_counter = itertools.count()


def _fresh_labels(n: int) -> tuple[str, ...]:
    return tuple(f"m{next(_fresh_mode_counter)}" for _ in range(n))


@functools.cache
def _symplectic_form(n: int) -> np.ndarray:
    """Read-only Omega for n modes: the direct sum of n copies of [[0, 1], [-1, 0]]."""
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.setflags(write=False)
    return omega


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, descending.

    With gamma = L L^T (Cholesky), i Omega gamma is similar to the Hermitian
    i L^T Omega L, whose eigenvalues are +-nu_k (Williamson).  A matrix that
    is not positive definite cannot be a covariance matrix.
    """
    n = mat.shape[0] // 2
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise UnphysicalState("covariance matrix is not positive definite") from None
    try:
        ev = np.linalg.eigvalsh(1j * (chol.T @ _symplectic_form(n) @ chol))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return ev[n:][::-1]


@dataclass(frozen=True)
class CovMatrix:
    """Gaussian state: ordered mode labels plus a 2N x 2N covariance matrix.

    The symplectic spectrum is computed once, by the physicality check at
    construction, and kept read-only in `spectrum`.
    """

    modes: tuple[str, ...]
    data: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if len(set(self.modes)) != len(self.modes):
            raise InvalidArgument(f"duplicate mode labels: {self.modes}")
        mat = np.asarray(self.data, dtype=float)
        n = 2 * len(self.modes)
        if mat.shape != (n, n):
            raise InvalidArgument(
                f"matrix shape {mat.shape} does not match {len(self.modes)} modes"
            )
        scale = max(1.0, float(np.max(np.abs(mat))))
        if np.max(np.abs(mat - mat.T)) > SYMMETRY_RTOL * scale:
            raise InvalidArgument("covariance matrix is not symmetric")
        mat = 0.5 * (mat + mat.T)
        mat.setflags(write=False)
        object.__setattr__(self, "data", mat)
        nus = _spectrum(mat) if self.modes else np.empty(0)
        nus.setflags(write=False)
        object.__setattr__(self, "spectrum", nus)
        if self.modes and nus[-1] < 1.0 - PHYSICALITY_TOL:
            raise UnphysicalState(
                f"minimal symplectic eigenvalue {nus[-1]} violates uncertainty"
            )

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def index(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise MissingMode(mode) from None

    def mode_slice(self, mode: str) -> slice:
        i = self.index(mode)
        return slice(2 * i, 2 * i + 2)

    def mode_block(self, mode: str) -> np.ndarray:
        """2x2 diagonal block of a single mode."""
        s = self.mode_slice(mode)
        return self.data[s, s]

    def variance(self, mode: str) -> float:
        """Mean of the x and p variances of one mode."""
        b = self.mode_block(mode)
        return 0.5 * (b[0, 0] + b[1, 1])


def vacuum(n: int, labels: tuple[str, ...] | None = None) -> CovMatrix:
    """n-mode vacuum state (identity covariance matrix)."""
    if n < 1:
        raise InvalidArgument("mode count must be at least 1")
    if labels is None:
        labels = _fresh_labels(n)
    return CovMatrix(labels, np.eye(2 * n))


def epr_source(V: float, labels: tuple[str, str] | None = None) -> CovMatrix:
    """Two-mode squeezed vacuum with quadrature variance V per mode.

    Cross correlations are sqrt(V^2 - 1) * sigma_z; the state is pure for
    any V >= 1 and reduces to two decoupled vacua at V = 1.
    """
    if V < 1.0:
        raise InvalidArgument(f"EPR variance must be >= 1 SNU, got {V}")
    if labels is None:
        labels = _fresh_labels(2)
    c = np.sqrt(V * V - 1.0)
    mat = np.array(
        [[V, 0.0, c, 0.0], [0.0, V, 0.0, -c], [c, 0.0, V, 0.0], [0.0, -c, 0.0, V]]
    )
    return CovMatrix(labels, mat)


def tensor(a: CovMatrix, b: CovMatrix) -> CovMatrix:
    """Direct sum of two uncorrelated states."""
    overlap = set(a.modes) & set(b.modes)
    if overlap:
        raise InvalidArgument(f"mode labels collide: {overlap}")
    na, nb = 2 * a.n_modes, 2 * b.n_modes
    mat = np.zeros((na + nb, na + nb))
    mat[:na, :na] = a.data
    mat[na:, na:] = b.data
    return CovMatrix(a.modes + b.modes, mat)


def _embed_two_mode(state: CovMatrix, mode_a: str, mode_b: str, s4: np.ndarray) -> CovMatrix:
    """Apply a two-mode symplectic (given as 4x4 on (a, b)) to the full state.

    Only the rows and columns of a and b change: gamma -> S gamma S^T with S
    the identity outside them.
    """
    ia, ib = state.index(mode_a), state.index(mode_b)
    if ia == ib:
        raise InvalidArgument("two-mode operation needs two distinct modes")
    idx = [2 * ia, 2 * ia + 1, 2 * ib, 2 * ib + 1]
    mat = state.data.copy()
    mat[idx, :] = s4 @ mat[idx, :]
    mat[:, idx] = mat[:, idx] @ s4.T
    return CovMatrix(state.modes, mat)


def beamsplitter(state: CovMatrix, mode_a: str, mode_b: str, T: float) -> CovMatrix:
    """Mix two modes on a beamsplitter with transmittance T.

    Convention: a -> sqrt(T) a + sqrt(1-T) b, b -> -sqrt(1-T) a + sqrt(T) b.
    """
    if not 0.0 <= T <= 1.0:
        raise InvalidArgument(f"transmittance must lie in [0, 1], got {T}")
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    s4 = np.array(
        [[t, 0.0, r, 0.0], [0.0, t, 0.0, r], [-r, 0.0, t, 0.0], [0.0, -r, 0.0, t]]
    )
    return _embed_two_mode(state, mode_a, mode_b, s4)


def two_mode_squeezer(
    state: CovMatrix, mode_a: str, mode_b: str, gain: float
) -> CovMatrix:
    """Phase-insensitive amplification of mode a against idler mode b.

    Convention: x_a -> sqrt(G) x_a + sqrt(G-1) x_b with the conjugate sign on
    the p quadratures, i.e. the two-mode squeezing symplectic
    [[sqrt(G) 1, sqrt(G-1) sigma_z], [sqrt(G-1) sigma_z, sqrt(G) 1]].
    """
    if gain < 1.0:
        raise InvalidArgument(f"amplifier gain must be >= 1, got {gain}")
    c, s = np.sqrt(gain), np.sqrt(gain - 1.0)
    s4 = np.array(
        [[c, 0.0, s, 0.0], [0.0, c, 0.0, -s], [s, 0.0, c, 0.0], [0.0, -s, 0.0, c]]
    )
    return _embed_two_mode(state, mode_a, mode_b, s4)


def loss_excess_channel(
    state: CovMatrix,
    mode: str,
    eta_ch: float,
    eps_ch: float,
    labels: tuple[str, str] | None = None,
) -> CovMatrix:
    """Untrusted lossy channel with excess noise referred to the output.

    Purification style: the mode is mixed at transmittance eta_ch with one
    arm of an EPR pair of variance 1 + eps_ch / (1 - eta_ch); both EPR modes
    are appended (kept by Eve), so a globally pure input stays pure.  The
    signal variance maps to eta_ch * V + (1 - eta_ch) + eps_ch.
    """
    if not 0.0 < eta_ch <= 1.0:
        raise InvalidArgument(f"channel transmittance must lie in (0, 1], got {eta_ch}")
    if eps_ch < 0.0:
        raise InvalidArgument(f"excess noise must be >= 0, got {eps_ch}")
    state.index(mode)
    if eta_ch == 1.0:
        if eps_ch > 0.0:
            raise InvalidArgument(
                "eta_ch = 1 with eps_ch > 0 has no EPR purification; use eta_ch <= 0.999"
            )
        return state
    if labels is None:
        labels = _fresh_labels(2)
    v_e = 1.0 + eps_ch / (1.0 - eta_ch)
    eve = epr_source(v_e, labels)
    joined = tensor(state, eve)
    return beamsplitter(joined, mode, labels[0], eta_ch)


def partial_trace(state: CovMatrix, keep: list[str] | tuple[str, ...]) -> CovMatrix:
    """Reduce to the requested modes, in the requested order."""
    keep = tuple(keep)
    idx = []
    for m in keep:
        i = state.index(m)
        idx.extend([2 * i, 2 * i + 1])
    return CovMatrix(keep, state.data[np.ix_(idx, idx)])


def heterodyne_condition(state: CovMatrix, measured_mode: str) -> CovMatrix:
    """State of the remaining modes after heterodyning one mode.

    Gaussian heterodyne conditioning is outcome independent: the kept
    covariance becomes the Schur complement gamma_K - C (gamma_M + 1)^-1 C^T.
    """
    im = state.index(measured_mode)
    kept = [m for m in state.modes if m != measured_mode]
    if not kept:
        raise InvalidArgument("cannot condition away the only mode")
    km = []
    for m in kept:
        i = state.index(m)
        km.extend([2 * i, 2 * i + 1])
    mm = [2 * im, 2 * im + 1]
    gk = state.data[np.ix_(km, km)]
    gm = state.data[np.ix_(mm, mm)] + np.eye(2)
    c = state.data[np.ix_(km, mm)]
    det = gm[0, 0] * gm[1, 1] - gm[0, 1] * gm[1, 0]
    if abs(det) < 1e-14:
        raise NumericalError("singular measured block in heterodyne conditioning")
    cond = gk - c @ np.linalg.inv(gm) @ c.T
    return CovMatrix(tuple(kept), cond)


def symplectic_eigenvalues(state: CovMatrix) -> np.ndarray:
    """Symplectic spectrum, one value per mode, descending (read-only).

    It is the spectrum computed when the state was built: the absolute
    eigenvalues of i Omega gamma, each counted once.
    """
    return state.spectrum


def entropy_g(nu: float) -> float:
    """Von Neumann entropy (bits) of a single thermal mode with eigenvalue nu."""
    if nu < 1.0 - 1e-6:
        raise UnphysicalState(f"symplectic eigenvalue {nu} below 1")
    if nu <= 1.0 + 1e-9:
        return 0.0
    a = 0.5 * (nu + 1.0)
    b = 0.5 * (nu - 1.0)
    return a * np.log2(a) - b * np.log2(b)


def von_neumann_entropy(state: CovMatrix) -> float:
    """Total entropy in bits, summed over the symplectic spectrum."""
    return float(sum(entropy_g(nu) for nu in state.spectrum))
