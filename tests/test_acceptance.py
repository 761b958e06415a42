"""Acceptance gate: nine end-to-end criteria with explicit pass/fail lines.

Each test emits exactly one `PASS criterion N` / `FAIL criterion N` line on
the real stdout (capture suspended) so the verdicts are visible in any run.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from modleak import cli
from modleak import gaussian as g
from modleak import modulator as mod
from modleak import montecarlo as mc
from modleak import security as sec
from modleak.config import parse_config

from oracles import eq4_matrix, interleave, iq_output_lines, no_switching_rates

_BUILT_STATES: list[g.CovMatrix] = []
_REDUCED_STATES: list[g.CovMatrix] = []


@pytest.fixture
def report(capsys):
    """One visible pass/fail line per criterion, then the actual assertions."""

    def _report(number: int, label: str, ok: bool, started: float, budget_s: float):
        elapsed = time.monotonic() - started
        verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
        with capsys.disabled():
            print(
                f"{verdict} criterion {number}: {label}"
                f" ({elapsed:.1f} s / budget {budget_s:.0f} s)",
                flush=True,
            )
        assert ok, f"criterion {number} ({label}) failed"
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s} s"

    return _report


def _record(p: sec.ProtocolParams) -> g.CovMatrix:
    """Build p's purification and the reduced state its rates come from, both
    kept for criterion 8; returns the purification."""
    state = sec.build_scheme(p).state
    _BUILT_STATES.append(state)
    _REDUCED_STATES.append(sec.reduced_state(p))
    return state


def test_criterion_1_effective_two_mode_reduction(report):
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        v_m = rng.uniform(0.01, 50.0)
        k = rng.uniform(0.0, 2.0)
        eta = rng.uniform(1e-6, 0.999)
        eps = rng.uniform(0.0, 0.5)
        p = sec.ProtocolParams(v_m=v_m, k=k, eta_ch=eta, eps_ch=eps)
        state = _record(p)
        ab = interleave(g.partial_trace(state, ["A", "B"]).data)
        worst = max(worst, float(np.max(np.abs(ab - eq4_matrix(v_m, k, eta, eps)))))
    report(1, "effective two-mode covariance oracle", worst <= 1e-10, started, 5.0)


def test_criterion_2_no_leakage_closed_form(report):
    started = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        v_m = rng.uniform(0.05, 40.0)
        eta = rng.uniform(0.01, 0.999)
        eps = rng.uniform(0.0, 0.4)
        beta = rng.uniform(0.8, 1.0)
        p = sec.ProtocolParams(v_m=v_m, k=0.0, eta_ch=eta, eps_ch=eps, beta=beta)
        _record(p)
        rep = sec.key_rate(p)
        i_ref, r_dr_ref, r_rr_ref = no_switching_rates(v_m, eta, eps, beta)
        worst = max(
            worst,
            abs(rep.i_ab - i_ref),
            abs(rep.r_dr - r_dr_ref),
            abs(rep.r_rr - r_rr_ref),
        )
    report(2, "no-leakage closed-form pipeline oracle", worst <= 1e-8, started, 10.0)


def test_criterion_3_direct_reconciliation_collapse_at_full_leakage(report):
    started = time.monotonic()
    ok = True
    for eps in (0.0, 0.02):
        for eta in np.logspace(-3, np.log10(0.999), 25):
            p = sec.ProtocolParams(
                v_m=1.0, k=1.0, eta_ch=float(eta), eps_ch=eps, beta=0.96
            )
            opt = sec.optimize_vm(p, "dr")
            _record(dataclasses.replace(p, v_m=opt.v_m))
            ok = ok and opt.rate <= 0.0
    report(3, "direct reconciliation dead at k=1 over the loss grid", ok, started, 60.0)


def _secure_range_db(k: float, direction: str) -> float:
    """Largest channel attenuation (dB) with positive optimized key rate."""

    def rate(loss_db: float) -> float:
        p = sec.ProtocolParams(
            v_m=1.0, k=k, eta_ch=10.0 ** (-loss_db / 10.0), eps_ch=0.02, beta=0.96
        )
        return sec.optimize_vm(p, direction).rate

    lo, hi = 0.01, 30.0
    if rate(lo) <= 0.0:
        return 0.0
    while hi - lo > 5e-3:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_4_secure_range_shrinks_with_leakage(report):
    started = time.monotonic()
    rr = [_secure_range_db(k, "rr") for k in (0.0, 0.2, 0.5, 1.0)]
    dr = [_secure_range_db(k, "dr") for k in (0.0, 0.2, 0.3)]
    ordered = all(a > b + 0.01 for a, b in zip(rr, rr[1:]))
    ordered = ordered and all(a > b + 0.01 for a, b in zip(dr, dr[1:]))
    pointwise = True
    for loss_db in (0.1, 0.3, 0.5):
        eta = 10.0 ** (-loss_db / 10.0)
        base = sec.optimize_vm(
            sec.ProtocolParams(v_m=1.0, k=0.0, eta_ch=eta, eps_ch=0.02, beta=0.96), "dr"
        ).rate
        for k in (0.2, 0.3):
            rate = sec.optimize_vm(
                sec.ProtocolParams(v_m=1.0, k=k, eta_ch=eta, eps_ch=0.02, beta=0.96),
                "dr",
            ).rate
            pointwise = pointwise and rate < base
    report(
        4,
        "secure range shrinks strictly with leakage (both directions)",
        ordered and pointwise,
        started,
        120.0,
    )


def test_criterion_5_trusted_noise_viability_matrix(report):
    started = time.monotonic()
    # documented reference point: 0.15 channel transmittance, 0.02 excess
    # noise, k = 0.3, beta = 0.96, detector 0.85 efficiency / 0.01 noise
    p = sec.ProtocolParams(
        v_m=5.0, k=0.3, eta_ch=0.15, eps_ch=0.02, beta=0.96, eta_d=0.85, eps_d=0.01
    )
    _record(p)
    expected = {
        ("P1", "dr"): "check",
        ("P1", "rr"): "cross",
        ("P2", "dr"): "check",
        ("P2", "rr"): "cross",
        ("L", "dr"): "check",
        ("L", "rr"): "check",
        ("D", "dr"): "cross",
        ("D", "rr"): "check",
    }
    ok = True
    for (point, direction), mark in expected.items():
        verdict = sec.trusted_noise_viability(p, point, direction)
        if mark == "check":
            ok = ok and verdict == "helpful"
        else:
            ok = ok and verdict in ("harmful", "neutral")
    report(5, "trusted-noise viability matrix (8 cells)", ok, started, 120.0)


def test_criterion_6_ignorance_margins_nonnegative_over_rho_sweep(report):
    started = time.monotonic()
    cfg = parse_config(
        {
            "protocol": {"V_M": 5.0, "eta_Ch": 0.99, "eps_Ch": 0.02, "beta": 0.96},
            "modulator": {
                "rho": {"start": -10.0, "stop": 10.0, "points": 21},
                "k_floor": 0.0631,
            },
        }
    )
    rows = cli.sweep_rows(cfg, with_eta_max=True)
    ok = len(rows) == 21
    for row in rows:
        _record(cfg.params_at(row["sweep_var"]))
        for col in ("dR_DR", "dR_RR", "d_eta_DR_dB", "d_eta_RR_dB"):
            ok = ok and row[col] >= -1e-9
    report(6, "leakage penalties and loss margins never negative", ok, started, 300.0)


def test_criterion_7_monte_carlo_closure_and_misuse(report, tmp_path):
    started = time.monotonic()
    p = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.6, eps_ch=0.02, beta=0.96)
    _record(p)
    rep = mc.end_to_end_consistency(p, 1_000_000, seed=42)
    est = rep.estimate
    ok = rep.verdict == "consistent"
    ok = ok and abs(est.v_m_hat - p.v_m) < 5.0 * est.se_v_m
    ok = ok and abs(est.k_hat - p.k) < 5.0 * est.se_k
    ok = ok and abs(est.eta_hat - p.eta_ch) < 5.0 * est.se_eta
    ok = ok and abs(est.eps_hat - p.eps_ch) < 5.0 * est.se_eps
    ok = ok and abs(rep.r_est_dr - rep.r_true_dr) < 0.02
    ok = ok and abs(rep.r_est_rr - rep.r_true_rr) < 0.02

    config = tmp_path / "misuse.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "protocol": {
                    "V_M": 5.0,
                    "k": 0.5,
                    "eta_Ch": 0.6,
                    "eps_Ch": 0.02,
                    "beta": 0.96,
                },
                "mc": {"n": 500_000, "seed": 7},
            }
        )
    )
    result = CliRunner().invoke(
        cli.main, ["mc", "--config", str(config), "--assume-no-leakage"]
    )
    ok = ok and result.exit_code == cli.EXIT_NO_SECURITY
    ok = ok and json.loads(result.output)["verdict"] == "overestimates key"
    report(7, "Monte-Carlo closure and leakage-blind misuse detection", ok, started, 180.0)


def test_criterion_8_physicality_of_every_constructed_state(report):
    started = time.monotonic()
    ok = len(_BUILT_STATES) > 0 and len(_REDUCED_STATES) == len(_BUILT_STATES)
    for state in _BUILT_STATES + _REDUCED_STATES:
        nus = state.spectrum
        ok = ok and nus[-1] >= 1.0 - 1e-9
    # the purifications are pure; their reductions need not be
    for state in _BUILT_STATES:
        ok = ok and g.von_neumann_entropy(state) < 1e-6
    report(
        8,
        f"physicality of {len(_BUILT_STATES)} purifications and their reduced states,"
        " purity of the purifications",
        ok,
        started,
        120.0,
    )


def test_criterion_9_modulator_against_time_domain_oracle(report):
    started = time.monotonic()
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(20):
        mu2 = rng.uniform(0.02, 0.08)
        mu1 = mu2 * rng.uniform(0.3, 0.9)
        d1, d2 = rng.uniform(-0.02, 0.02, 2)
        sp = mod.spectrum(mod.ModulatorConfig(mu1, mu2, d1, d2))
        upper, lower, carrier = iq_output_lines(mu1, mu2, d1, d2)
        ok = ok and sp.p_suppressed == pytest.approx(
            abs(lower) ** 2 / abs(upper) ** 2, rel=0.01
        )
        ok = ok and sp.p_carrier / 4.0 == pytest.approx(
            abs(carrier) ** 2 / abs(upper) ** 2, rel=0.01
        )
        rho = 10.0 * np.log10(mu1 / mu2)
        ok = ok and mod.rho_to_k(rho, 0.0) == pytest.approx(
            abs(lower) / abs(upper), rel=0.01
        )
    report(9, "modulator mapping vs brute-force field oracle", ok, started, 30.0)
