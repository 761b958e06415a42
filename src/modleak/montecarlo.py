"""Monte-Carlo sampling and parameter re-estimation at desk scale.

Draws heterodyne outcomes from the analytic covariance matrices, re-derives
the protocol parameters with moment estimators, and closes the loop by
comparing the key rate at the estimated point against the true one.  Eve's
record is the leakage-mode output, measured with perfect efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gaussian as g
from . import security as sec
from .errors import InvalidArgument, NumericalError

RNG_ALGORITHM = "PCG64"

N_SUBBATCHES = 10
MIN_SAMPLES = 1_000


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


def sample(
    state: g.CovMatrix, measured_modes: list[str], n: int, seed: int
) -> SampleBatch:
    """Draw n i.i.d. heterodyne outcomes of the given modes.

    Outcome covariance is (gamma + 1)/2: the measured vacuum has unit
    variance in outcome units.  Deterministic for a fixed seed (PCG64).
    """
    if n < 1:
        raise InvalidArgument("sample count must be >= 1")
    reduced = g.partial_trace(state, measured_modes)
    outcome_cov = 0.5 * (reduced.data + np.eye(2 * reduced.n_modes))
    try:
        chol = np.linalg.cholesky(outcome_cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"outcome covariance not positive definite: {exc}") from exc
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n, 2 * reduced.n_modes)) @ chol.T
    data = {
        m: draws[:, 2 * i : 2 * i + 2].copy() for i, m in enumerate(reduced.modes)
    }
    return SampleBatch(data=data, n=n, seed=seed)


def _moments(alice, bob, eve):
    """Second moments in SNU (outcome covariances doubled back to gamma units)."""
    v_a = 2.0 * 0.5 * (np.var(alice[:, 0]) + np.var(alice[:, 1])) - 1.0
    v_b = 2.0 * 0.5 * (np.var(bob[:, 0]) + np.var(bob[:, 1])) - 1.0
    c_ab = np.cov(alice[:, 0], bob[:, 0])[0, 1] - np.cov(alice[:, 1], bob[:, 1])[0, 1]
    c_al = 0.0
    if eve is not None:
        c_al = np.cov(alice[:, 0], eve[:, 0])[0, 1] - np.cov(alice[:, 1], eve[:, 1])[0, 1]
    return v_a, v_b, abs(c_ab), abs(c_al)


def _point_estimate(
    alice, bob, eve, v_m_known: float | None, assume_no_leakage: bool
):
    """One moment-based estimate (v_m, k, eta, eps) from raw sample arrays."""
    v_a, v_b, c_ab, c_al = _moments(alice, bob, eve)
    s = max(v_a - 1.0, 1e-12)
    clamped = bool(v_a < 1.0)

    if assume_no_leakage:
        if v_m_known is None:
            raise InvalidArgument("assume-no-leakage estimation needs the set V_M")
        v_m = v_m_known
        k = 0.0
        eta = c_ab**2 / (v_m * (2.0 + v_m))
    else:
        if eve is None:
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
    batch: SampleBatch,
    v_m_known: float | None = None,
    assume_no_leakage: bool = False,
    alice: str = "A",
    bob: str = "B",
    eve: str = "L",
) -> EstimateReport:
    """Re-estimate (V_M, k, eta_Ch, eps_Ch) from a heterodyne sample batch.

    Standard errors come from splitting the batch into 10 sub-batches.
    The leakage estimate uses Eve's record when present; without it k = 0.
    """
    if batch.n < MIN_SAMPLES:
        raise InvalidArgument(f"need at least {MIN_SAMPLES} samples, got {batch.n}")
    a, b = batch.data[alice], batch.data[bob]
    e = batch.data.get(eve)

    full = _point_estimate(a, b, e, v_m_known, assume_no_leakage)
    splits = np.array_split(np.arange(batch.n), N_SUBBATCHES)
    sub = np.array(
        [
            _point_estimate(
                a[idx], b[idx], None if e is None else e[idx], v_m_known, assume_no_leakage
            )[:4]
            for idx in splits
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
        n=batch.n,
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
    scheme = sec.build_scheme(p)
    measured = ["A", "B"] + (["L"] if "L" in scheme.state.modes else [])
    batch = sample(scheme.state, measured, n, seed)
    est = estimate_params(
        batch,
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
