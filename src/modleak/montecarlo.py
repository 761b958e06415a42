"""Monte-Carlo sampling and parameter re-estimation at desk scale.

Samples heterodyne statistics of A, B and L, re-derives the protocol
parameters with moment estimators, and closes the loop by comparing the key
rate at the estimated point against the true one.  Eve's record is the
leakage-mode output, measured with perfect efficiency.
The closure samples the (A, B[, L]) x block of `security._x_block`, the
entries of `security.reduced_state` without its five-mode check: only the
sampler's Cholesky of (X + 1)/2 and the key-rate pass, which checks Eve's
states at the true point, stand between it and a report.
`_sample_block`, the only sampling path, draws the per-sub-batch statistics
that the estimator reads (Bartlett's decomposition), never an outcome, so its
cost does not depend on the sample count; `sample_moments` samples a state
with it.  `OutcomeMoments` holds them as one array, the whole batch first; the
sampler alone bounds the sample count.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import gaussian as g
from . import security as sec
from .errors import InvalidArgument, MissingMode, NumericalError

RNG_ALGORITHM = "PCG64"

N_SUBBATCHES = 10
MIN_SAMPLES = 1_000
MAX_SAMPLES = 2**53  # the largest n whose counts are exact as float64


def _subbatch_sizes(n: int) -> list[int]:
    """Sizes of the N_SUBBATCHES consecutive sub-batches of n samples, as
    np.array_split gives them: the first n % N_SUBBATCHES hold one more."""
    q, r = divmod(n, N_SUBBATCHES)
    return [q + 1] * r + [q] * (N_SUBBATCHES - r)


@functools.cache
def _bartlett_layout(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only layout of a width x width Bartlett factor, flattened row by row:
    the positions below its diagonal in np.tril_indices order, the diagonal's
    column indices, and the identity of the width / 2 measured modes."""
    rows, cols = np.tril_indices(width, -1)
    layout = (rows * width + cols, np.arange(width), np.eye(width // 2))
    for array in layout:
        array.setflags(write=False)
    return layout


@dataclass(frozen=True)
class OutcomeMoments:
    """Sufficient statistics of n heterodyne outcomes: the whole batch at
    index 0, then its N_SUBBATCHES consecutive sub-batches.

    Columns are the (x, p) outcomes of each mode in `modes`.  Entry i holds
    `counts[i]` outcomes with centred Gram matrix `grams[i]`, the sum of
    (r - mean)(r - mean)^T over them, centred on their own mean; so
    `counts[0]` is n.
    """

    modes: tuple[str, ...]
    counts: tuple[int, ...]
    grams: np.ndarray

    def __post_init__(self):
        # a non-finite outcome makes its column's centred square sum non-finite;
        # only then walk the modes, to name the first such one
        diag = np.diagonal(self.grams, axis1=-2, axis2=-1)
        if np.isfinite(diag).all():
            return
        for i, label in enumerate(self.modes):
            if not np.all(np.isfinite(diag[:, 2 * i : 2 * i + 2])):
                raise InvalidArgument(f"mode {label}: non-finite samples")

    def column(self, mode: str) -> int:
        """Column of the mode's x outcome; its p outcome is the next one."""
        try:
            return 2 * self.modes.index(mode)
        except ValueError:
            raise MissingMode(mode) from None


@dataclass(frozen=True)
class EstimateReport:
    """Moment estimates with batch-split standard errors."""

    v_m_hat: float
    k_hat: float
    eta_hat: float
    eps_hat: float
    se_v_m: float
    se_k: float
    se_eta: float
    se_eps: float
    n: int
    clamped: bool = False


def _count_and_seed(n, seed) -> tuple[int, int]:
    """The sample count and seed as ints, each within the sampler's bounds."""
    n, seed = sec.as_integer("n", n), sec.as_integer("seed", seed)
    if n > MAX_SAMPLES:
        raise InvalidArgument(f"at most 2**53 samples keep the counts exact, got {n}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    return n, seed


def sample_moments(
    state: g.CovMatrix, measured_modes: list[str], n: int, seed: int
) -> OutcomeMoments:
    """Sufficient statistics of n i.i.d. heterodyne outcomes of the given modes,
    drawn directly, at a cost that does not depend on n.

    Outcome covariance is (gamma + 1)/2: the measured vacuum has unit variance
    in outcome units.  Its Cholesky factor C on the columns (x_1, p_1, ...,
    x_M, p_M) of M distinct measured modes interleaves L = chol((X + 1)/2) and
    S L S, for X their x block in `state` and S their signs, as P = S X S.
    In standard units a sub-batch of m outcomes has mean ~ N(0, I/m) and,
    independently, centred Gram ~ Wishart(m - 1, I) = A A^T (Bartlett), with A
    lower triangular, N(0, 1) below the diagonal and A_jj^2 ~ chi^2(m - 1 - j).
    Seed contract: default_rng(seed) (PCG64) draws the 10 sub-batch means as
    standard_normal((10, 2M)) / sqrt(m), then the entries below A's diagonal
    as standard_normal((10, M(2M - 1))) in np.tril_indices order, then
    chisquare(m - 1 - j) of shape (10, 2M).  The whole batch's Gram is the
    sub-batch Grams' sum plus sum_i m_i (mean_i - mean)(mean_i - mean)^T; each
    Gram G is returned as C G C^T.  n is at least MIN_SAMPLES and at most
    MAX_SAMPLES (counts exact as float64), and Bartlett needs m - 1 >= 2M.
    n and seed may be integral floats such as 1e6.  `state` is one state, not
    a batch.  The Bartlett layout (the positions below the diagonal and the
    diagonal) is built once per width 2M and kept read-only.
    """
    n, seed = _count_and_seed(n, seed)
    if state.x.ndim != 2:
        batch = state.x.shape[:-2]
        raise InvalidArgument(f"the sampler samples one state, got a batch of shape {batch}")
    idx = [state.index(mode) for mode in measured_modes]
    if not idx or len(set(idx)) < len(idx):
        raise InvalidArgument(f"need one or more distinct measured modes, got {measured_modes}")
    return _sample_block(state.x[idx][:, idx], state.signs[idx], tuple(measured_modes), n, seed)


def _sample_block(
    x: np.ndarray, signs: np.ndarray, modes: tuple[str, ...], n: int, seed: int
) -> OutcomeMoments:
    """`sample_moments` of the modes `modes` with x block `x` and signs `signs`,
    for an int n and seed that `_count_and_seed` accepts.  Nothing checks that
    the block is physical: only that (x + 1)/2 is positive definite."""
    width = 2 * len(modes)
    floor = max(MIN_SAMPLES, N_SUBBATCHES * (width + 1))  # m - 1 >= 2M for Bartlett
    if n < floor:
        raise InvalidArgument(f"need at least {floor} samples, got {n}")
    below, diag, eye = _bartlett_layout(width)
    try:
        factor = np.linalg.cholesky(0.5 * (x + eye))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"outcome covariance not positive definite: {exc}") from exc
    chol = np.zeros((width, width))
    chol[0::2, 0::2], chol[1::2, 1::2] = factor, factor * np.outer(signs, signs)
    sizes = _subbatch_sizes(n)
    rng = np.random.default_rng(seed)
    m = np.array(sizes)[:, None]
    means = rng.standard_normal((N_SUBBATCHES, width)) / np.sqrt(m)
    bartlett = np.zeros((N_SUBBATCHES, width, width))
    flat = bartlett.reshape(N_SUBBATCHES, width * width)
    flat[:, below] = rng.standard_normal((N_SUBBATCHES, below.size))
    flat[:, :: width + 1] = np.sqrt(rng.chisquare(m - 1 - diag))
    grams = bartlett @ bartlett.transpose(0, 2, 1)
    spread = means - (m * means).sum(axis=0) / n
    whole = grams.sum(axis=0) + (m * spread).T @ spread
    # the whole batch first, then its sub-batches
    centred = chol @ np.concatenate([whole[None], grams]) @ chol.T
    return OutcomeMoments(modes, (n, *sizes), centred)


def _moment_estimates(
    counts: np.ndarray, grams: np.ndarray, a: int, b: int, e: int | None, blind_v_m: float | None
):
    """Moment estimates (v_m, k, eta, eps), eps unclamped, and clamp flags, arrays with
    one entry per centred Gram matrix of `grams`, each of `counts` outcomes.  Moments are
    in SNU (outcome covariances doubled back to gamma units); every moment
    divides by the count - 1 (ddof = 1, as np.cov), since the Gram matrices are
    centred on the sample mean.  a, b and e are the x columns of Alice, Bob and
    Eve (None: no record)."""
    moments = grams / (counts - 1)[:, None, None]

    def var(i):
        return moments[:, i, i] + moments[:, i + 1, i + 1] - 1.0

    def cov(i, j):
        return moments[:, i, j] - moments[:, i + 1, j + 1]

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
    clamped = (v_a < 1.0) | (eps < 0.0)
    return v_m, k, eta, eps, clamped


def estimate_params(moments: OutcomeMoments, blind_v_m: float | None = None) -> EstimateReport:
    """Re-estimate (V_M, k, eta_Ch, eps_Ch) from the heterodyne statistics
    of Alice's A, Bob's B and, if measured, Eve's L (`sample_moments`).

    With `blind_v_m` None the estimate is leakage aware: k comes from L's
    record, or is 0 without one.  A finite real number above 0 gives the
    leakage-blind estimate at that set V_M, with k = 0.  One call estimates
    from the whole batch's Gram matrix and from each sub-batch's; the
    standard errors come from the spread of the 10 sub-batch estimates.  Only the whole-batch eps is
    clamped at 0: clamped sub-batch values would bias that spread low.
    """
    if blind_v_m is not None and (
        not isinstance(blind_v_m, numbers.Real)
        or isinstance(blind_v_m, bool)
        or not 0.0 < blind_v_m < math.inf
    ):
        raise InvalidArgument(f"blind_v_m must be a finite real number > 0, got {blind_v_m!r}")
    cols = (
        moments.column("A"),
        moments.column("B"),
        moments.column("L") if "L" in moments.modes else None,
    )
    *columns, clamped = _moment_estimates(
        np.array(moments.counts), moments.grams, *cols, blind_v_m
    )
    # one C-ordered (11, 4) row per Gram matrix; the sub-batch spread takes
    # np.std(..., axis=0, ddof=1)'s steps on it, so its sums run in its order
    estimates = np.array(columns).T.copy()
    subbatches = estimates[1:]
    deviations = subbatches - subbatches.sum(axis=0) / N_SUBBATCHES
    deviations *= deviations
    spread = np.sqrt(deviations.sum(axis=0) / (N_SUBBATCHES - 1))
    se = np.maximum(spread / np.sqrt(N_SUBBATCHES), 1e-12)
    v_m, k, eta, eps, *se_values = np.concatenate((estimates[0], se)).tolist()
    n, clamped = moments.counts[0], bool(clamped[0])
    return EstimateReport(v_m, k, eta, max(eps, 0.0), *se_values, n, clamped)


@dataclass(frozen=True)
class ConsistencyReport:
    estimate: EstimateReport
    r_true_dr: float
    r_true_rr: float
    r_est_dr: float
    r_est_rr: float
    se_r_dr: float
    se_r_rr: float
    skipped_se_terms: tuple[str, ...]  # fields left out of se_r_* (invalid bumped point)
    verdict: str  # "consistent" | "overestimates key"
    seed: int


def _estimated_params(p: sec.ProtocolParams, est: EstimateReport) -> sec.ProtocolParams:
    eta = min(max(est.eta_hat, 1e-6), 1.0)
    eps = 0.0 if eta == 1.0 else est.eps_hat
    return p.replace(
        v_m=max(est.v_m_hat, 1e-6),
        k=max(est.k_hat, 0.0),
        eta_ch=eta,
        eps_ch=eps,
    )


def _bumped_points(
    p_est: sec.ProtocolParams, est: EstimateReport
) -> tuple[dict[str, sec.ProtocolParams], tuple[str, ...]]:
    """p_est with each estimated field raised by its standard error, and the
    fields left out because their raised point is invalid."""
    bumped = {}
    skipped = []
    for field, se in (
        ("v_m", est.se_v_m),
        ("k", est.se_k),
        ("eta_ch", est.se_eta),
        ("eps_ch", est.se_eps),
    ):
        value = getattr(p_est, field) + se
        if field == "eta_ch":
            value = min(value, 1.0 if p_est.eps_ch == 0.0 else 0.9999)
        try:
            bumped[field] = p_est.replace(**{field: value})
        except InvalidArgument:
            skipped.append(field)
    return bumped, tuple(skipped)


def _rate_se(
    est_report: sec.KeyRateReport, bumped_reports: list[sec.KeyRateReport]
) -> tuple[float, float]:
    """Standard errors of (R_DR, R_RR) propagated numerically from the estimates'
    errors: the reports at the estimated point and at its bumped copies."""
    total_dr = sum((r.r_dr - est_report.r_dr) ** 2 for r in bumped_reports)
    total_rr = sum((r.r_rr - est_report.r_rr) ** 2 for r in bumped_reports)
    return float(np.sqrt(total_dr)), float(np.sqrt(total_rr))


def end_to_end_consistency(
    p: sec.ProtocolParams,
    n: int,
    seed: int,
    assume_no_leakage: bool = False,
) -> ConsistencyReport:
    """Analytic state -> samples -> estimates -> key rate, and back.

    Flags "overestimates key" when the re-estimated rate exceeds the true one
    beyond the propagated statistical tolerance in either direction, which is
    the dangerous failure mode for the legitimate parties.  It samples the
    measured block of `reduced_state(p)`'s x block without building that
    state; a non-finite entry of the block raises `NumericalError` before n
    and seed are checked.
    """
    # Eve's record is L wherever the purification has it: leakage or noise on L;
    # the blind estimate never reads it
    has_l = (p.k > 0.0 or p.eps_l > 0.0) and not assume_no_leakage
    measured = sec.REDUCED_MODES[: 3 if has_l else 2]
    # the x block of `reduced_state(p)`, unchecked but for finite entries
    x = np.array(sec._x_block(p))[sec._REDUCED_X]
    if not np.isfinite(x).all():
        raise NumericalError("covariance matrix has non-finite entries")
    n, seed = _count_and_seed(n, seed)
    m = len(measured)
    est = estimate_params(
        _sample_block(x[:m, :m], sec._SIGNS[:m], measured, n, seed),
        blind_v_m=float(p.v_m) if assume_no_leakage else None,  # a bool v_m is a valid point
    )
    p_est = _estimated_params(p, est)
    bumped, skipped = _bumped_points(p_est, est)
    true_report, est_report, *bumped_reports = sec.key_rates([p, p_est, *bumped.values()])
    se_dr, se_rr = _rate_se(est_report, bumped_reports)
    over_dr = est_report.r_dr - true_report.r_dr > 5.0 * se_dr + 1e-6
    over_rr = est_report.r_rr - true_report.r_rr > 5.0 * se_rr + 1e-6
    return ConsistencyReport(
        estimate=est,
        r_true_dr=true_report.r_dr,
        r_true_rr=true_report.r_rr,
        r_est_dr=est_report.r_dr,
        r_est_rr=est_report.r_rr,
        se_r_dr=se_dr,
        se_r_rr=se_rr,
        skipped_se_terms=skipped,
        verdict="overestimates key" if (over_dr or over_rr) else "consistent",
        seed=seed,
    )
