"""Covariance-matrix calculus for multimode Gaussian states.

All states are zero-mean and expressed in shot-noise units (SNU), i.e. the
vacuum quadrature variance is 1.  A state of N modes is a 2N x 2N real
symmetric matrix ordered as (x_1, p_1, ..., x_N, p_N), with modes addressed
by opaque string labels.

A state may stand for a batch of states with the same labels: its matrix
then has a leading batch shape, (..., 2N, 2N), and the scalar parameters of
an operation (variances, transmittances, gains) may be arrays that broadcast
against it.  A single state is the batch of shape (); every operation has
this one code path.
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


def _transpose(mat: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a batch."""
    return mat.swapaxes(-1, -2)


def _sub(mat: np.ndarray, rows: list[int], cols: list[int]) -> np.ndarray:
    """The (rows, cols) block of every matrix in a batch."""
    return mat[..., np.array(rows)[:, None], cols]


@functools.cache
def _symplectic_form(n: int) -> np.ndarray:
    """Read-only Omega for n modes: the direct sum of n copies of [[0, 1], [-1, 0]]."""
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.setflags(write=False)
    return omega


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of each covariance matrix in a batch, descending.

    With gamma = L L^T (Cholesky), i Omega gamma is similar to the Hermitian
    i L^T Omega L, whose eigenvalues are +-nu_k (Williamson).  A matrix that
    is not positive definite cannot be a covariance matrix.
    """
    n = mat.shape[-1] // 2
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise UnphysicalState("covariance matrix is not positive definite") from None
    try:
        ev = np.linalg.eigvalsh(1j * (_transpose(chol) @ _symplectic_form(n) @ chol))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return ev[..., n:][..., ::-1]


@dataclass(frozen=True)
class CovMatrix:
    """Gaussian state, or batch of states: ordered mode labels plus (..., 2N, 2N) matrices.

    Every matrix of the batch is checked for symmetry and physicality at
    construction.  The check computes the symplectic spectrum, (..., N), and
    keeps it read-only in `spectrum`.
    """

    modes: tuple[str, ...]
    data: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise InvalidArgument("a state needs at least one mode")
        if len(set(self.modes)) != len(self.modes):
            raise InvalidArgument(f"duplicate mode labels: {self.modes}")
        mat = np.asarray(self.data, dtype=float)
        n = 2 * len(self.modes)
        if mat.shape[-2:] != (n, n):
            raise InvalidArgument(
                f"matrix shape {mat.shape} does not match {len(self.modes)} modes"
            )
        scale = np.abs(mat).max(axis=(-2, -1), initial=1.0)
        # a NaN or inf entry makes the scale non-finite; test it before inf - inf can warn
        if not (scale < np.inf).all():
            raise NumericalError("covariance matrix has non-finite entries")
        if not (np.abs(mat - _transpose(mat)).max(axis=(-2, -1)) <= SYMMETRY_RTOL * scale).all():
            raise InvalidArgument("covariance matrix is not symmetric")
        mat = 0.5 * (mat + _transpose(mat))
        mat.setflags(write=False)
        object.__setattr__(self, "data", mat)
        nus = _spectrum(mat)
        nus.setflags(write=False)
        object.__setattr__(self, "spectrum", nus)
        if (nus[..., -1] < 1.0 - PHYSICALITY_TOL).any():
            raise UnphysicalState(
                f"minimal symplectic eigenvalue {np.min(nus[..., -1])} violates uncertainty"
            )

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.data.shape[:-2]

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
        return self.data[..., s, s]

    def variance(self, mode: str) -> float | np.ndarray:
        """Mean of the x and p variances of one mode."""
        b = self.mode_block(mode)
        return 0.5 * (b[..., 0, 0] + b[..., 1, 1])


def _two_mode_matrix(diag, x_ab, p_ab, x_ba, p_ba) -> np.ndarray:
    """4x4 matrices on (x_a, p_a, x_b, p_b) with `diag` on the diagonal and the
    given entries at (x_a, x_b), (p_a, p_b), (x_b, x_a) and (p_b, p_a)."""
    diag = np.asarray(diag)
    mat = np.zeros(diag.shape + (4, 4))
    for i in range(4):
        mat[..., i, i] = diag
    mat[..., 0, 2], mat[..., 1, 3], mat[..., 2, 0], mat[..., 3, 1] = x_ab, p_ab, x_ba, p_ba
    return mat


def vacuum(n: int, labels: tuple[str, ...] | None = None) -> CovMatrix:
    """n-mode vacuum state (identity covariance matrix)."""
    if n < 1:
        raise InvalidArgument("mode count must be at least 1")
    if labels is None:
        labels = _fresh_labels(n)
    return CovMatrix(labels, np.eye(2 * n))


def epr_source(V, labels: tuple[str, str] | None = None) -> CovMatrix:
    """Two-mode squeezed vacuum with quadrature variance V per mode.

    Cross correlations are sqrt(V^2 - 1) * sigma_z; the state is pure for
    any V >= 1 and reduces to two decoupled vacua at V = 1.
    """
    V = np.asarray(V, dtype=float)
    if not (V >= 1.0).all():
        raise InvalidArgument(f"EPR variance must be >= 1 SNU, got {V}")
    if labels is None:
        labels = _fresh_labels(2)
    c = np.sqrt(V * V - 1.0)
    return CovMatrix(labels, _two_mode_matrix(V, c, -c, c, -c))


def tensor(a: CovMatrix, b: CovMatrix) -> CovMatrix:
    """Direct sum of two uncorrelated states."""
    overlap = set(a.modes) & set(b.modes)
    if overlap:
        raise InvalidArgument(f"mode labels collide: {overlap}")
    na, nb = 2 * a.n_modes, 2 * b.n_modes
    shape = np.broadcast_shapes(a.batch_shape, b.batch_shape)
    mat = np.zeros(shape + (na + nb, na + nb))
    mat[..., :na, :na] = a.data
    mat[..., na:, na:] = b.data
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
    shape = np.broadcast_shapes(state.batch_shape, s4.shape[:-2])
    mat = np.empty(shape + state.data.shape[-2:])
    mat[...] = state.data
    mat[..., idx, :] = s4 @ mat[..., idx, :]
    mat[..., :, idx] = mat[..., :, idx] @ _transpose(s4)
    return CovMatrix(state.modes, mat)


def beamsplitter(state: CovMatrix, mode_a: str, mode_b: str, T) -> CovMatrix:
    """Mix two modes on a beamsplitter with transmittance T.

    Convention: a -> sqrt(T) a + sqrt(1-T) b, b -> -sqrt(1-T) a + sqrt(T) b.
    """
    T = np.asarray(T, dtype=float)
    if not ((0.0 <= T) & (T <= 1.0)).all():
        raise InvalidArgument(f"transmittance must lie in [0, 1], got {T}")
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    return _embed_two_mode(state, mode_a, mode_b, _two_mode_matrix(t, r, r, -r, -r))


def two_mode_squeezer(state: CovMatrix, mode_a: str, mode_b: str, gain) -> CovMatrix:
    """Phase-insensitive amplification of mode a against idler mode b.

    Convention: x_a -> sqrt(G) x_a + sqrt(G-1) x_b with the conjugate sign on
    the p quadratures, i.e. the two-mode squeezing symplectic
    [[sqrt(G) 1, sqrt(G-1) sigma_z], [sqrt(G-1) sigma_z, sqrt(G) 1]].
    """
    gain = np.asarray(gain, dtype=float)
    if not (gain >= 1.0).all():
        raise InvalidArgument(f"amplifier gain must be >= 1, got {gain}")
    c, s = np.sqrt(gain), np.sqrt(gain - 1.0)
    return _embed_two_mode(state, mode_a, mode_b, _two_mode_matrix(c, s, -s, s, -s))


def loss_excess_channel(
    state: CovMatrix,
    mode: str,
    eta_ch,
    eps_ch,
    labels: tuple[str, str] | None = None,
) -> CovMatrix:
    """Untrusted lossy channel with excess noise referred to the output.

    Purification style: the mode is mixed at transmittance eta_ch with one
    arm of an EPR pair of variance 1 + eps_ch / (1 - eta_ch); both EPR modes
    are appended (kept by Eve), so a globally pure input stays pure.  The
    signal variance maps to eta_ch * V + (1 - eta_ch) + eps_ch.  eta_ch = 1
    appends no modes, so a batch has it everywhere or nowhere.
    """
    eta_ch, eps_ch = np.asarray(eta_ch, dtype=float), np.asarray(eps_ch, dtype=float)
    if not ((0.0 < eta_ch) & (eta_ch <= 1.0)).all():
        raise InvalidArgument(f"channel transmittance must lie in (0, 1], got {eta_ch}")
    if not (eps_ch >= 0.0).all():
        raise InvalidArgument(f"excess noise must be >= 0, got {eps_ch}")
    state.index(mode)
    lossless = eta_ch == 1.0
    if (lossless & (eps_ch > 0.0)).any():
        raise InvalidArgument(
            "eta_ch = 1 with eps_ch > 0 has no EPR purification; use eta_ch <= 0.999"
        )
    if lossless.all():
        return state
    if lossless.any():
        raise InvalidArgument("a batch cannot mix eta_ch = 1 with eta_ch < 1")
    if labels is None:
        labels = _fresh_labels(2)
    v_e = 1.0 + eps_ch / (1.0 - eta_ch)
    eve = epr_source(v_e, labels)
    joined = tensor(state, eve)
    return beamsplitter(joined, mode, labels[0], eta_ch)


def _quadratures(state: CovMatrix, modes) -> list[int]:
    idx = []
    for m in modes:
        i = state.index(m)
        idx.extend([2 * i, 2 * i + 1])
    return idx


def partial_trace(state: CovMatrix, keep: list[str] | tuple[str, ...]) -> CovMatrix:
    """Reduce to the requested modes, in the requested order."""
    keep = tuple(keep)
    idx = _quadratures(state, keep)
    return CovMatrix(keep, _sub(state.data, idx, idx))


def heterodyne_condition(state: CovMatrix, measured_mode: str) -> CovMatrix:
    """State of the remaining modes after heterodyning one mode.

    Gaussian heterodyne conditioning is outcome independent: the kept
    covariance becomes the Schur complement gamma_K - C (gamma_M + 1)^-1 C^T.
    """
    kept = [m for m in state.modes if m != measured_mode]
    mm = _quadratures(state, [measured_mode])
    if not kept:
        raise InvalidArgument("cannot condition away the only mode")
    km = _quadratures(state, kept)
    gk = _sub(state.data, km, km)
    gm = _sub(state.data, mm, mm) + np.eye(2)
    c = _sub(state.data, km, mm)
    det = gm[..., 0, 0] * gm[..., 1, 1] - gm[..., 0, 1] * gm[..., 1, 0]
    if (np.abs(det) < 1e-14).any():
        raise NumericalError("singular measured block in heterodyne conditioning")
    cond = gk - c @ np.linalg.inv(gm) @ _transpose(c)
    return CovMatrix(tuple(kept), cond)


def symplectic_eigenvalues(state: CovMatrix) -> np.ndarray:
    """Symplectic spectrum, one value per mode, descending (read-only).

    It is the spectrum computed when the state was built: the absolute
    eigenvalues of i Omega gamma, each counted once.
    """
    return state.spectrum


def entropy_g(nu):
    """Von Neumann entropy (bits) of thermal modes with symplectic eigenvalues nu, elementwise."""
    nu = np.asarray(nu, dtype=float)
    if (nu < 1.0 - 1e-6).any():
        raise UnphysicalState(f"symplectic eigenvalue {np.min(nu)} below 1")
    pure = nu <= 1.0 + 1e-9
    # pure modes contribute 0; a stand-in eigenvalue keeps their log2 finite
    nu = np.where(pure, 3.0, nu)
    a = 0.5 * (nu + 1.0)
    b = 0.5 * (nu - 1.0)
    return np.where(pure, 0.0, a * np.log2(a) - b * np.log2(b))[()]


def von_neumann_entropy(state: CovMatrix) -> float | np.ndarray:
    """Total entropy in bits of each state of the batch, summed over its spectrum.

    The terms are added one mode at a time in spectrum order (the last
    partial sum of a cumulative sum), as a plain sum over the spectrum would.
    """
    return np.cumsum(entropy_g(state.spectrum), axis=-1)[..., -1][()]
