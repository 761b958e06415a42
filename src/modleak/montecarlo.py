"""Monte-Carlo sampling and parameter re-estimation at desk scale.

Draws heterodyne outcomes of A, B and L from the protocol's five-mode reduced
state (`security.reduced_state`), re-derives the protocol parameters with
moment estimators, and closes the loop by comparing the key rate at the
estimated point against the true one.  Eve's record is the leakage-mode
output, measured with perfect efficiency.
The closure streams its draws into per-sub-batch sufficient statistics
(`sample_moments`), so its memory does not grow with the sample count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian as g
from . import security as sec
from .errors import InvalidArgument, MissingMode, NumericalError

RNG_ALGORITHM = "PCG64"

N_SUBBATCHES = 10
MIN_SAMPLES = 1_000
BLOCK_ROWS = 1 << 16


def _subbatch_sizes(n: int) -> list[int]:
    """Sizes of the N_SUBBATCHES consecutive sub-batches of n samples, as
    np.array_split gives them: the first n % N_SUBBATCHES hold one more."""
    q, r = divmod(n, N_SUBBATCHES)
    return [q + 1] * r + [q] * (N_SUBBATCHES - r)


@dataclass(frozen=True)
class OutcomeMoments:
    """Sufficient statistics of heterodyne outcomes, one set per sub-batch.

    Columns are the (x, p) outcomes of each mode in `modes`.  Sub-batch i
    holds `counts[i]` outcomes with mean `means[i]` and centred Gram matrix
    `grams[i]`, the sum of (r - mean)(r - mean)^T over its outcomes r.
    """

    modes: tuple[str, ...]
    counts: tuple[int, ...]
    means: np.ndarray
    grams: np.ndarray

    def __post_init__(self):
        # a non-finite outcome makes its column's centred square sum non-finite
        diag = np.diagonal(self.grams, axis1=-2, axis2=-1)
        for i, label in enumerate(self.modes):
            if not np.all(np.isfinite(diag[:, 2 * i : 2 * i + 2])):
                raise InvalidArgument(f"mode {label}: non-finite samples")

    @property
    def n(self) -> int:
        return sum(self.counts)

    def column(self, mode: str) -> int:
        """Column of the mode's x outcome; its p outcome is the next one."""
        try:
            return 2 * self.modes.index(mode)
        except ValueError:
            raise MissingMode(mode) from None

    def merged_gram(self) -> np.ndarray:
        """Centred Gram matrix of the whole batch, merged from the sub-batches
        with the pairwise update of Chan, Golub & LeVeque (1979)."""
        count, mean, gram = 0, np.zeros_like(self.means[0]), np.zeros_like(self.grams[0])
        for m, sub_mean, sub_gram in zip(self.counts, self.means, self.grams):
            total = count + m
            delta = sub_mean - mean
            mean = mean + delta * (m / total)
            gram = gram + sub_gram + np.outer(delta, delta) * (count * m / total)
            count = total
        return gram


@dataclass(frozen=True)
class SampleBatch:
    """Per-mode heterodyne outcomes: label -> (n, 2) array of (x, p) pairs."""

    data: dict[str, np.ndarray]
    n: int
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        for label, arr in self.data.items():
            if arr.shape != (self.n, 2):
                raise InvalidArgument(f"mode {label}: bad sample shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidArgument(f"mode {label}: non-finite samples")

    def moments(self) -> OutcomeMoments:
        """The batch's per-sub-batch sufficient statistics."""
        modes = tuple(self.data)
        sizes = _subbatch_sizes(self.n)
        means, grams = [], []
        for lo, hi in itertools.pairwise(np.cumsum([0, *sizes])):
            rows = np.hstack([self.data[m][lo:hi] for m in modes])
            mean = rows.sum(axis=0) / max(hi - lo, 1)
            means.append(mean)
            grams.append((rows - mean).T @ (rows - mean))
        return OutcomeMoments(modes, tuple(sizes), np.array(means), np.array(grams))


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


def _outcome_stream(state: g.CovMatrix, measured_modes: list[str], n: int, seed: int):
    """Measured mode labels, the Cholesky factor of their outcome covariance
    (gamma + 1)/2, and the seeded generator that draws their outcomes.

    The measured vacuum has unit variance in outcome units."""
    if n < 1:
        raise InvalidArgument("sample count must be >= 1")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    reduced = g.partial_trace(state, measured_modes)
    outcome_cov = 0.5 * (reduced.data + np.eye(2 * reduced.n_modes))
    try:
        chol = np.linalg.cholesky(outcome_cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"outcome covariance not positive definite: {exc}") from exc
    return reduced.modes, chol, np.random.default_rng(seed)


def _blocks(rng: np.random.Generator, sizes: list[int], width: int):
    """Standard normals for consecutive sub-batches of the given sizes, as
    (sub-batch index, block) pairs of at most BLOCK_ROWS rows.

    Each block is drawn into one reused buffer and is valid only until the
    next is drawn.  The generator fills row by row, so the blocks in order
    are bitwise the rows of one standard_normal((sum(sizes), width)) call.
    """
    buf = np.empty((min(BLOCK_ROWS, max(sizes)), width))
    for i, size in enumerate(sizes):
        for start in range(0, size, BLOCK_ROWS):
            yield i, rng.standard_normal(out=buf[: min(BLOCK_ROWS, size - start)])


def sample(
    state: g.CovMatrix, measured_modes: list[str], n: int, seed: int
) -> SampleBatch:
    """Draw n i.i.d. heterodyne outcomes of the given modes.

    Outcome covariance is (gamma + 1)/2: the measured vacuum has unit
    variance in outcome units.  Deterministic for a fixed seed (PCG64).
    """
    modes, chol, rng = _outcome_stream(state, measured_modes, n, seed)
    draws = rng.standard_normal((n, chol.shape[0])) @ chol.T
    data = {m: draws[:, 2 * i : 2 * i + 2] for i, m in enumerate(modes)}
    return SampleBatch(data=data, n=n, seed=seed)


def sample_moments(
    state: g.CovMatrix, measured_modes: list[str], n: int, seed: int
) -> OutcomeMoments:
    """The sufficient statistics of `sample(state, measured_modes, n, seed)`,
    streamed: memory does not grow with n.

    Draws the same stream block by block.  Per sub-batch it keeps the count
    m, s = z.sum(0) and G = z.T @ z of the standard normals z, and maps them
    into outcome units through the Cholesky factor C: mean C s/m and centred
    Gram matrix C (G - s s^T/m) C^T.
    """
    modes, chol, rng = _outcome_stream(state, measured_modes, n, seed)
    width = chol.shape[0]
    counts = _subbatch_sizes(n)
    sums = np.zeros((N_SUBBATCHES, width))
    grams = np.zeros((N_SUBBATCHES, width, width))
    ones = np.ones(BLOCK_ROWS)  # ones @ z is z.sum(0) as one BLAS pass
    for i, z in _blocks(rng, counts, width):
        sums[i] += ones[: len(z)] @ z
        grams[i] += z.T @ z
    z_mean = sums / np.maximum(counts, 1)[:, None]
    centred = grams - sums[:, :, None] * z_mean[:, None, :]
    return OutcomeMoments(modes, tuple(counts), z_mean @ chol.T, chol @ centred @ chol.T)


def _moments(count: int, gram: np.ndarray, a: int, b: int, e: int | None):
    """Second moments in SNU (outcome covariances doubled back to gamma units)
    of `count` outcomes with centred Gram matrix `gram`.  Variances divide by
    count (ddof = 0, as np.var), covariances by count - 1 (ddof = 1, as np.cov);
    a, b and e are the x columns of Alice, Bob and Eve (None: no record)."""
    v_a = 2.0 * 0.5 * (gram[a, a] / count + gram[a + 1, a + 1] / count) - 1.0
    v_b = 2.0 * 0.5 * (gram[b, b] / count + gram[b + 1, b + 1] / count) - 1.0
    c_ab = gram[a, b] / (count - 1) - gram[a + 1, b + 1] / (count - 1)
    c_al = 0.0
    if e is not None:
        c_al = gram[a, e] / (count - 1) - gram[a + 1, e + 1] / (count - 1)
    return v_a, v_b, abs(c_ab), abs(c_al)


def _point_estimate(
    count: int, gram: np.ndarray, a: int, b: int, e: int | None,
    v_m_known: float | None, assume_no_leakage: bool,
):
    """One moment-based estimate (v_m, k, eta, eps) from a centred Gram matrix."""
    v_a, v_b, c_ab, c_al = _moments(count, gram, a, b, e)
    s = max(v_a - 1.0, 1e-12)
    clamped = bool(v_a < 1.0)

    if assume_no_leakage:
        if v_m_known is None:
            raise InvalidArgument("assume-no-leakage estimation needs the set V_M")
        v_m = v_m_known
        k = 0.0
        eta = c_ab**2 / (v_m * (2.0 + v_m))
    else:
        if e is None:
            k = 0.0
        else:
            w = min(c_al**2 / (s * (2.0 + s)), 0.999)
            k = np.sqrt(w / (1.0 - w))
        v_m = v_m_known if v_m_known is not None else s / (1.0 + k * k)
        eta = c_ab**2 / (v_m * (2.0 + s))
    eps = v_b - 1.0 - eta * v_m
    if eps < 0.0:
        eps, clamped = 0.0, True
    return v_m, k, eta, eps, clamped


def estimate_params(
    batch: SampleBatch | OutcomeMoments,
    v_m_known: float | None = None,
    assume_no_leakage: bool = False,
    alice: str = "A",
    bob: str = "B",
    eve: str = "L",
) -> EstimateReport:
    """Re-estimate (V_M, k, eta_Ch, eps_Ch) from heterodyne outcomes: a
    sample batch, or the sub-batch statistics `sample_moments` streams.

    Standard errors come from the spread of the 10 sub-batch estimates.
    The leakage estimate uses Eve's record when present; without it k = 0.
    """
    moments = batch.moments() if isinstance(batch, SampleBatch) else batch
    if moments.n < MIN_SAMPLES:
        raise InvalidArgument(f"need at least {MIN_SAMPLES} samples, got {moments.n}")
    cols = (
        moments.column(alice),
        moments.column(bob),
        moments.column(eve) if eve in moments.modes else None,
    )
    full = _point_estimate(
        moments.n, moments.merged_gram(), *cols, v_m_known, assume_no_leakage
    )
    sub = np.array(
        [
            _point_estimate(m, gram, *cols, v_m_known, assume_no_leakage)[:4]
            for m, gram in zip(moments.counts, moments.grams)
        ]
    )
    se = np.std(sub, axis=0, ddof=1) / np.sqrt(N_SUBBATCHES)
    se = np.maximum(se, 1e-12)
    return EstimateReport(
        v_m_hat=float(full[0]),
        k_hat=float(full[1]),
        eta_hat=float(full[2]),
        eps_hat=float(full[3]),
        se_v_m=float(se[0]),
        se_k=float(se[1]),
        se_eta=float(se[2]),
        se_eps=float(se[3]),
        n=moments.n,
        clamped=full[4],
    )


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
    eps = max(est.eps_hat, 0.0)
    if eta == 1.0:
        eps = 0.0
    return replace(
        p,
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
            bumped[field] = replace(p_est, **{field: value})
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
    the dangerous failure mode for the legitimate parties.
    """
    # Eve's record is L wherever the purification has it: leakage or noise on L
    measured = ["A", "B"] + (["L"] if p.k > 0.0 or p.eps_l > 0.0 else [])
    est = estimate_params(
        sample_moments(sec.reduced_state(p), measured, n, seed),
        v_m_known=p.v_m if assume_no_leakage else None,
        assume_no_leakage=assume_no_leakage,
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
