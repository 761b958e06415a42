"""Covariance-matrix calculus for multimode Gaussian states.

All states are zero-mean and expressed in shot-noise units (SNU), i.e. the
vacuum quadrature variance is 1, with modes addressed by opaque string
labels.  Every operation here is phase insensitive (EPR sources,
beamsplitters, two-mode squeezers, lossy channels, partial traces and
heterodyne conditioning), so no state has an x-p cross entry: a state of N
modes is its x block X and its p block P, real symmetric N x N matrices
stacked as one (2, N, N) array.

The state builders (`vacuum`, `epr_source`, `tensor`, the two-mode ops and
`loss_excess_channel`) take scalars and build one state from the labels they
are given.  `CovMatrix`, `partial_trace`, `heterodyne_condition` and the
entropies also take a batch of states with the same labels: blocks with a
leading batch shape, (..., 2, N, N).  A single state is the batch of shape ().

Every state is checked when it is built, and the check leaves the state's
symplectic spectrum in `CovMatrix.spectrum`, the one place to read it.
`heterodyne_condition(state, measured)` is the one conditioning rule: the
marginal of the modes not listed, then that marginal conditioned on each
listed mode on its own, as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, MissingMode, NumericalError, UnphysicalState

SYMMETRY_RTOL = 1e-10
PHYSICALITY_TOL = 1e-9


def _transpose(mat: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a batch."""
    return mat.swapaxes(-1, -2)


def _spectrum(blocks: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of each state in a batch of (X, P) blocks, descending.

    They are the square roots of the eigenvalues of X P (Williamson).  With
    X = Lx Lx^T and P = Lp Lp^T (Cholesky), X P is similar to
    (Lp^T Lx)(Lp^T Lx)^T, so they are the singular values of Lp^T Lx.  A
    block that is not positive definite cannot belong to a covariance matrix.
    """
    try:
        chol = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        raise UnphysicalState("covariance matrix is not positive definite") from None
    try:
        return np.linalg.svd(_transpose(chol[..., 1, :, :]) @ chol[..., 0, :, :], compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value solver failed: {exc}") from exc


@dataclass(frozen=True)
class CovMatrix:
    """Gaussian state, or batch of states: ordered mode labels plus (..., 2, N, N) blocks.

    `data[..., 0, :, :]` is the x block and `data[..., 1, :, :]` the p block.
    Every state of the batch is checked for symmetry and physicality at
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
        n = len(self.modes)
        if mat.shape[-3:] != (2, n, n):
            raise InvalidArgument(f"block shape {mat.shape} does not match {n} modes")
        state_axes = (-3, -2, -1)
        scale = np.abs(mat).max(axis=state_axes, initial=1.0)
        # a NaN or inf entry makes the scale non-finite; test it before inf - inf can warn
        if not (scale < np.inf).all():
            raise NumericalError("covariance matrix has non-finite entries")
        if not (np.abs(mat - _transpose(mat)).max(axis=state_axes) <= SYMMETRY_RTOL * scale).all():
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

    def index(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise MissingMode(mode) from None


def vacuum(labels: tuple[str, ...]) -> CovMatrix:
    """Vacuum state (identity covariance matrix) of the labelled modes."""
    return CovMatrix(labels, np.array([np.eye(len(labels))] * 2))


def epr_source(V: float, labels: tuple[str, str]) -> CovMatrix:
    """Two-mode squeezed vacuum with quadrature variance V per mode.

    Cross correlations are +sqrt(V^2 - 1) between the x and -sqrt(V^2 - 1)
    between the p quadratures; the state is pure for any V >= 1 and reduces
    to two decoupled vacua at V = 1.
    """
    if not V >= 1.0:
        raise InvalidArgument(f"EPR variance must be >= 1 SNU, got {V}")
    c = np.sqrt(V * V - 1.0)
    return CovMatrix(labels, np.array([[[V, c], [c, V]], [[V, -c], [-c, V]]]))


def tensor(a: CovMatrix, b: CovMatrix) -> CovMatrix:
    """Direct sum of two uncorrelated states."""
    overlap = set(a.modes) & set(b.modes)
    if overlap:
        raise InvalidArgument(f"mode labels collide: {overlap}")
    na, nb = a.n_modes, b.n_modes
    mat = np.zeros((2, na + nb, na + nb))
    mat[:, :na, :na] = a.data
    mat[:, na:, na:] = b.data
    return CovMatrix(a.modes + b.modes, mat)


def _embed_two_mode(state: CovMatrix, mode_a: str, mode_b: str, s: np.ndarray) -> CovMatrix:
    """Apply a two-mode symplectic, given as its 2x2 on the x and on the p
    quadratures of (a, b), shape (2, 2, 2), to the full state.

    Only the rows and columns of a and b change: X -> Sx X Sx^T and
    P -> Sp P Sp^T with Sx, Sp the identity outside them.
    """
    idx = [state.index(mode_a), state.index(mode_b)]
    if idx[0] == idx[1]:
        raise InvalidArgument("two-mode operation needs two distinct modes")
    mat = state.data.copy()
    mat[..., idx, :] = s @ mat[..., idx, :]
    mat[..., :, idx] = mat[..., :, idx] @ _transpose(s)
    return CovMatrix(state.modes, mat)


def beamsplitter(state: CovMatrix, mode_a: str, mode_b: str, T: float) -> CovMatrix:
    """Mix two modes on a beamsplitter with transmittance T.

    Convention: a -> sqrt(T) a + sqrt(1-T) b, b -> -sqrt(1-T) a + sqrt(T) b.
    """
    if not 0.0 <= T <= 1.0:
        raise InvalidArgument(f"transmittance must lie in [0, 1], got {T}")
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    return _embed_two_mode(state, mode_a, mode_b, np.array([[[t, r], [-r, t]]] * 2))


def two_mode_squeezer(state: CovMatrix, mode_a: str, mode_b: str, gain: float) -> CovMatrix:
    """Phase-insensitive amplification of mode a against idler mode b.

    Convention: x_a -> sqrt(G) x_a + sqrt(G-1) x_b with the conjugate sign on
    the p quadratures, i.e. the two-mode squeezing symplectic
    [[sqrt(G), sqrt(G-1)], [sqrt(G-1), sqrt(G)]] on the x quadratures and
    [[sqrt(G), -sqrt(G-1)], [-sqrt(G-1), sqrt(G)]] on the p quadratures.
    """
    if not gain >= 1.0:
        raise InvalidArgument(f"amplifier gain must be >= 1, got {gain}")
    c, s = np.sqrt(gain), np.sqrt(gain - 1.0)
    return _embed_two_mode(state, mode_a, mode_b, np.array([[[c, s], [s, c]], [[c, -s], [-s, c]]]))


def loss_excess_channel(
    state: CovMatrix, mode: str, eta_ch: float, eps_ch: float, labels: tuple[str, str]
) -> CovMatrix:
    """Untrusted lossy channel with excess noise referred to the output.

    Purification style: the mode is mixed at transmittance eta_ch with one
    arm of an EPR pair of variance 1 + eps_ch / (1 - eta_ch); both EPR modes
    are appended under `labels` (kept by Eve), so a globally pure input stays
    pure.  The signal variance maps to eta_ch * V + (1 - eta_ch) + eps_ch.
    eta_ch = 1 appends no modes.
    """
    if not 0.0 < eta_ch <= 1.0:
        raise InvalidArgument(f"channel transmittance must lie in (0, 1], got {eta_ch}")
    if not eps_ch >= 0.0:
        raise InvalidArgument(f"excess noise must be >= 0, got {eps_ch}")
    state.index(mode)
    if eta_ch == 1.0:
        if eps_ch > 0.0:
            raise InvalidArgument(
                "eta_ch = 1 with eps_ch > 0 has no EPR purification; use eta_ch <= 0.999"
            )
        return state
    v_e = 1.0 + eps_ch / (1.0 - eta_ch)
    joined = tensor(state, epr_source(v_e, labels))
    return beamsplitter(joined, mode, labels[0], eta_ch)


def partial_trace(state: CovMatrix, keep: list[str] | tuple[str, ...]) -> CovMatrix:
    """Reduce to the requested modes, in the requested order."""
    idx = np.array([state.index(m) for m in keep])
    return CovMatrix(tuple(keep), state.data[..., idx[:, None], idx])


def heterodyne_condition(state: CovMatrix, measured: list[str]) -> CovMatrix:
    """The modes not listed, then that state after heterodyning each listed mode
    on its own: a batch of len(measured) + 1 states on a new first axis.

    Entry 0 is the marginal K of the modes not listed, bitwise their
    `partial_trace`.  Gaussian heterodyne conditioning is outcome independent:
    entry i + 1 is, in each block, the Schur complement K - c c^T / (m + 1),
    with m the variance of `measured[i]` and c its correlations with the
    modes not listed.
    """
    m = [state.index(x) for x in measured]
    keep = np.array([i for i in range(state.n_modes) if i not in m], dtype=int)
    gk = state.data[..., keep[:, None], keep]
    out = np.empty((len(m) + 1,) + gk.shape)
    out[0] = gk
    for i, j in enumerate(m, 1):
        c = state.data[..., keep, j]
        out[i] = gk - c[..., :, None] * c[..., None, :] / (state.data[..., j, j, None, None] + 1.0)
    return CovMatrix(tuple(state.modes[i] for i in keep), out)


def entropy_g(nu):
    """Von Neumann entropy (bits) of thermal modes with symplectic eigenvalues nu, elementwise.

    g(nu) = (b + 1) log2(b + 1) - b log2 b with b = (nu - 1) / 2, and no purity
    cut: g is continuous at nu = 1, so a pure mode rounded one ulp above 1 adds
    about 6e-15 bit, where a cut would make chi jump as a mode crosses it.
    """
    nu = np.asarray(nu, dtype=float)
    if (nu < 1.0 - 1e-6).any():
        raise UnphysicalState(f"symplectic eigenvalue {np.min(nu)} below 1")
    b = np.maximum(0.5 * (nu - 1.0), 0.0)
    return ((b + 1.0) * np.log2(b + 1.0) - b * np.log2(b + (b == 0.0)))[()]


def von_neumann_entropy(state: CovMatrix) -> float | np.ndarray:
    """Total entropy in bits of each state of the batch, summed over its spectrum."""
    return entropy_g(state.spectrum).sum(axis=-1)[()]
