"""Covariance-matrix calculus for multimode Gaussian states.

All states are zero-mean and expressed in shot-noise units (SNU), i.e. the
vacuum quadrature variance is 1, with modes addressed by opaque string
labels.  Every operation here is phase insensitive (EPR sources,
beamsplitters, two-mode squeezers, lossy channels, partial traces and
heterodyne conditioning), so no state has an x-p cross entry, and its p
block is P = S X S for its x block X and one sign s_i = +-1 per mode, S
their diagonal: an EPR pair correlates x by +c and p by -c.  A state of N
modes is X, a real symmetric N x N matrix, and its N signs.

The state builders (`vacuum`, `epr_source`, `tensor`, the two-mode ops and
`loss_excess_channel`) take scalars and build one state from the labels they
are given.  A beamsplitter keeps P = S X S when its two modes have equal
signs, and a two-mode squeezer when they have opposite ones; otherwise the
op flips the signs of the second mode's correlation component, which does
not change the state, and it cannot when the first mode is in that
component.  `CovMatrix`, `partial_trace`, `heterodyne_condition` and the
entropies also take a batch of states with the same labels and signs: x
blocks with a leading batch shape, (..., N, N).  A single state is the batch
of shape ().

Every state is checked when it is built, and the check leaves the state's
symplectic spectrum in `CovMatrix.spectrum`, the one place to read it.
`heterodyne_condition(state, measured)` is the one conditioning rule: the
marginal of the modes not listed, then that marginal conditioned on each
listed mode on its own, as one batch; `heterodyne_schur` is its unchecked core.
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


def _spectrum(x: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of each state in a batch of x blocks with signs, descending.

    They are the square roots of the eigenvalues of X P = (X S)^2
    (Williamson).  With X = L L^T (Cholesky), X S is similar to the
    symmetric L^T S L, so they are the absolute eigenvalues of L^T S L, with
    absolute rounding of about eps |X| and nothing squared.  A block that is
    not positive definite cannot belong to a covariance matrix, and P is
    positive definite exactly when X is.
    """
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        raise UnphysicalState("covariance matrix is not positive definite") from None
    try:
        eigs = np.linalg.eigvalsh(_transpose(chol) @ (signs[:, None] * chol))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    return np.sort(np.abs(eigs), axis=-1)[..., ::-1]


@dataclass(frozen=True)
class CovMatrix:
    """Gaussian state, or batch of states: ordered mode labels, (..., N, N) x
    blocks and one sign per mode.

    The p block is S X S, with S the diagonal of `signs`.  Every state of the
    batch is checked for symmetry and physicality at construction, which
    computes the symplectic spectrum, (..., N), kept read-only in `spectrum`.
    """

    modes: tuple[str, ...]
    x: np.ndarray
    signs: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise InvalidArgument("a state needs at least one mode")
        if len(set(self.modes)) != len(self.modes):
            raise InvalidArgument(f"duplicate mode labels: {self.modes}")
        n = len(self.modes)
        signs = np.array(self.signs, dtype=float)
        if signs.shape != (n,) or not set(signs.tolist()) <= {1.0, -1.0}:
            raise InvalidArgument(f"signs {signs} are not one +1 or -1 for each of {n} modes")
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)
        mat = np.asarray(self.x, dtype=float)
        if mat.shape[-2:] != (n, n):
            raise InvalidArgument(f"block shape {mat.shape} does not match {n} modes")
        state_axes = (-2, -1)
        scale = np.abs(mat).max(axis=state_axes, initial=1.0)
        # a NaN or inf entry makes the scale non-finite; test it before inf - inf can warn
        if not (scale < np.inf).all():
            raise NumericalError("covariance matrix has non-finite entries")
        mat_t = _transpose(mat)
        if not (np.abs(mat - mat_t).max(axis=state_axes) <= SYMMETRY_RTOL * scale).all():
            raise InvalidArgument("covariance matrix is not symmetric")
        mat = 0.5 * (mat + mat_t)
        mat.setflags(write=False)
        object.__setattr__(self, "x", mat)
        nus = _spectrum(mat, signs)
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
    return CovMatrix(labels, np.eye(len(labels)), np.ones(len(labels)))


def epr_source(V: float, labels: tuple[str, str]) -> CovMatrix:
    """Two-mode squeezed vacuum with quadrature variance V per mode.

    Cross correlations are +sqrt(V^2 - 1) between the x and -sqrt(V^2 - 1)
    between the p quadratures, so the signs are +1, -1; the state is pure
    for any V >= 1 and reduces to two decoupled vacua at V = 1.
    """
    if not V >= 1.0:
        raise InvalidArgument(f"EPR variance must be >= 1 SNU, got {V}")
    c = np.sqrt(V * V - 1.0)
    return CovMatrix(labels, np.array([[V, c], [c, V]]), np.array([1.0, -1.0]))


def tensor(a: CovMatrix, b: CovMatrix) -> CovMatrix:
    """Direct sum of two uncorrelated states."""
    overlap = set(a.modes) & set(b.modes)
    if overlap:
        raise InvalidArgument(f"mode labels collide: {overlap}")
    na, nb = a.n_modes, b.n_modes
    mat = np.zeros((na + nb, na + nb))
    mat[:na, :na] = a.x
    mat[na:, na:] = b.x
    return CovMatrix(a.modes + b.modes, mat, np.concatenate((a.signs, b.signs)))


def _fitted_signs(state: CovMatrix, i: int, j: int, product: float) -> np.ndarray:
    """The state's signs with s_i s_j = product: as they are, or with the signs
    of j's correlation component flipped, which leaves P = S X S unchanged.

    The component is the set of modes that a chain of nonzero x entries
    links to j.  A state with i in it has no signs that fit.
    """
    signs = state.signs
    if signs[i] * signs[j] == product:
        return signs
    linked = (state.x != 0.0).reshape(-1, state.n_modes, state.n_modes).any(axis=0)
    component = linked[j]
    while True:
        grown = linked[component].any(axis=0)
        if (grown == component).all():
            break
        component = grown
    if component[i]:
        raise InvalidArgument(
            f"modes {state.modes[i]} and {state.modes[j]} are correlated with sign product "
            f"{-product:+g}; this phase-insensitive op needs {product:+g}"
        )
    return np.where(component, -signs, signs)


def _embed_two_mode(
    state: CovMatrix, mode_a: str, mode_b: str, s: np.ndarray, product: float
) -> CovMatrix:
    """Apply a two-mode symplectic, given as its 2x2 on the x quadratures of
    (a, b), to the full state, whose signs must have s_a s_b = product.

    Only the rows and columns of a and b change: X -> Sx X Sx^T with Sx the
    identity outside them, and P = S X S follows.
    """
    idx = [state.index(mode_a), state.index(mode_b)]
    if idx[0] == idx[1]:
        raise InvalidArgument("two-mode operation needs two distinct modes")
    signs = _fitted_signs(state, idx[0], idx[1], product)
    mat = state.x.copy()
    mat[..., idx, :] = s @ mat[..., idx, :]
    mat[..., :, idx] = mat[..., :, idx] @ s.T
    return CovMatrix(state.modes, mat, signs)


def beamsplitter(state: CovMatrix, mode_a: str, mode_b: str, T: float) -> CovMatrix:
    """Mix two modes on a beamsplitter with transmittance T.

    Convention: a -> sqrt(T) a + sqrt(1-T) b, b -> -sqrt(1-T) a + sqrt(T) b,
    the same on both quadratures, so the two modes need equal signs.
    """
    if not 0.0 <= T <= 1.0:
        raise InvalidArgument(f"transmittance must lie in [0, 1], got {T}")
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    return _embed_two_mode(state, mode_a, mode_b, np.array([[t, r], [-r, t]]), 1.0)


def two_mode_squeezer(state: CovMatrix, mode_a: str, mode_b: str, gain: float) -> CovMatrix:
    """Phase-insensitive amplification of mode a against idler mode b.

    Convention: x_a -> sqrt(G) x_a + sqrt(G-1) x_b with the conjugate sign on
    the p quadratures, i.e. the two-mode squeezing symplectic
    [[sqrt(G), sqrt(G-1)], [sqrt(G-1), sqrt(G)]] on the x quadratures and
    [[sqrt(G), -sqrt(G-1)], [-sqrt(G-1), sqrt(G)]] on the p quadratures, so
    the two modes need opposite signs.
    """
    if not gain >= 1.0:
        raise InvalidArgument(f"amplifier gain must be >= 1, got {gain}")
    c, s = np.sqrt(gain), np.sqrt(gain - 1.0)
    return _embed_two_mode(state, mode_a, mode_b, np.array([[c, s], [s, c]]), -1.0)


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
    idx = np.array([state.index(m) for m in keep], dtype=int)
    return CovMatrix(tuple(keep), state.x[..., idx[:, None], idx], state.signs[idx])


def heterodyne_condition(state: CovMatrix, measured: list[str]) -> CovMatrix:
    """The modes not listed, then that state after heterodyning each listed mode
    on its own: a batch of len(measured) + 1 states on a new first axis.

    Entry 0 is the marginal K of the modes not listed, bitwise their
    `partial_trace`.  Gaussian heterodyne conditioning is outcome independent:
    entry i + 1 is the Schur complement K - c c^T / (m + 1) of the x block
    (`heterodyne_schur`), with m the variance of `measured[i]` and c its
    correlations with the modes not listed.  The p block's is
    S (K - c c^T / (m + 1)) S, so the signs of the modes not listed carry over.
    """
    m = [state.index(x) for x in measured]
    keep = np.array([i for i in range(state.n_modes) if i not in m], dtype=int)
    gk = state.x[..., keep[:, None], keep]
    out = np.empty((len(m) + 1,) + gk.shape)
    out[0] = gk
    for i, j in enumerate(m, 1):
        out[i] = heterodyne_schur(gk, state.x[..., keep, j], state.x[..., j, j])
    return CovMatrix(tuple(state.modes[i] for i in keep), out, state.signs[keep])


def heterodyne_schur(k: np.ndarray, c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """`heterodyne_condition`'s Schur complement K - c c^T / (m + 1), unchecked."""
    return k - c[..., :, None] * c[..., None, :] / (m[..., None, None] + 1.0)


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
    b1 = b + 1.0
    return (b1 * np.log2(b1) - b * np.log2(b + (b == 0.0)))[()]


def von_neumann_entropy(state: CovMatrix) -> float | np.ndarray:
    """Total entropy in bits of each state of the batch, summed over its spectrum."""
    return entropy_g(state.spectrum).sum(axis=-1)[()]
