"""Output checks for the three workloads; none of them imports modleak.

Each check takes the output in the shape the CLI emits as JSON (sweep rows,
the table1 dict, the mc report dict) and returns {item index: reason} for
the items that fail.  An empty dict means every item passed.
"""

from __future__ import annotations

import math

import numpy as np

import closed_form as cf

RATE_TOL = 1e-9
# brentq in modleak stops within 1e-4 dB of the root; twice that brackets it
ROOT_BRACKET_DB = 2e-4
MAX_ADDITIONAL_LOSS_DB = 60.0
VM_BRACKET = (0.01, 100.0)
# security.optimize_vm ends its golden-section search on u = log(V_M) once the
# bracket is narrower than 1e-3 (|u1| + |u2|), so u lies within 2e-3 |u*| of the optimum
GOLDEN_TOL = 1e-3

NOISE_POINTS = ("P1", "P2", "L", "D")
VIABILITY_GRID = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)
VIABILITY_MARGIN = 1e-6
# the paper's Table 1 as acceptance criterion 5 encodes it: True = helpful
TABLE1_HELPFUL = {
    ("P1", "dr"): True,
    ("P1", "rr"): False,
    ("P2", "dr"): True,
    ("P2", "rr"): False,
    ("L", "dr"): True,
    ("L", "rr"): True,
    ("D", "dr"): False,
    ("D", "rr"): True,
}

MC_SE_BOUND = 5.0
MC_RATE_SLACK = 1e-6
ESTIMATE_FIELDS = ("v_m_hat", "k_hat", "eta_hat", "eps_hat")
SE_FIELDS = ("se_v_m", "se_k", "se_eta", "se_eps")


def _close(a, b, tol=RATE_TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


def _optimum_floor(direction, k, eta, eps, beta) -> float:
    """Lowest closed-form R within the golden-section tolerance of its optimum over V_M.

    The optimum comes from a dense log-spaced scan of the bracket and a finer
    scan between the neighbours of its best point.
    """
    lo, hi = np.log(VM_BRACKET[0]), np.log(VM_BRACKET[1])
    u = np.linspace(lo, hi, 4001)
    i = int(np.argmax(cf.rate(direction, np.exp(u), k, eta, eps, beta)))
    fine = np.linspace(u[max(i - 1, 0)], u[min(i + 1, len(u) - 1)], 4001)
    u_best = fine[int(np.argmax(cf.rate(direction, np.exp(fine), k, eta, eps, beta)))]
    delta = 2.0 * GOLDEN_TOL * abs(u_best)
    edges = np.clip([u_best - delta, u_best + delta], lo, hi)
    return float(np.min(cf.rate(direction, np.exp(edges), k, eta, eps, beta)))


def _margin_problem(rate_at, margin_db) -> str | None:
    """Why margin_db is not the additional loss (dB) at which rate_at crosses 0."""
    if not math.isfinite(margin_db):
        return f"margin {margin_db} is not a number"
    if rate_at(0.0) <= 0.0:
        return None if margin_db == 0.0 else f"no positive key but margin {margin_db}"
    if margin_db == MAX_ADDITIONAL_LOSS_DB:
        return None if rate_at(MAX_ADDITIONAL_LOSS_DB) > 0.0 else "false saturation"
    lo, hi = max(margin_db - ROOT_BRACKET_DB, 0.0), margin_db + ROOT_BRACKET_DB
    if not (0.0 < margin_db < MAX_ADDITIONAL_LOSS_DB and rate_at(lo) > 0.0 > rate_at(hi)):
        return f"margin {margin_db} dB does not bracket the root of R"
    return None


def sweep_row_problem(row, rho, point) -> str | None:
    """First reason a `sweep --direction rr --optimize-vm --with-eta-max` row is wrong."""
    eta, eps, beta = point["eta_Ch"], point["eps_Ch"], point["beta"]
    if not _close(row["sweep_var"], rho, 1e-12):
        return f"sweep_var {row['sweep_var']} != {rho}"
    k, v_m = row["k"], row["V_M"]
    if not _close(k, cf.rho_to_k(rho), 1e-12):
        return f"k {k} != closed form {cf.rho_to_k(rho)}"
    expected = dict(zip(("I_AB", "chi_DR", "chi_RR", "R_DR", "R_RR"), cf.rates(v_m, k, eta, eps, beta)))
    for name, value in expected.items():
        if not _close(row[name], value):
            return f"{name} {row[name]} != closed form {float(value)}"
    for tag in ("DR", "RR"):
        if row[f"R_{tag}_clamped"] != max(row[f"R_{tag}"], 0.0):
            return f"R_{tag}_clamped {row[f'R_{tag}_clamped']} != max(R_{tag}, 0)"
        twin = cf.rate(tag.lower(), v_m, 0.0, eta, eps, beta)
        if not _close(row[f"dR_{tag}"], twin - expected[f"R_{tag}"]):
            return f"dR_{tag} {row[f'dR_{tag}']} != R(k=0) - R = {float(twin - expected[f'R_{tag}'])}"
    # log-spaced grids end a few ulps beyond their bounds, e.g. at 100.00000000000004
    if not VM_BRACKET[0] * (1.0 - 1e-12) <= v_m <= VM_BRACKET[1] * (1.0 + 1e-12):
        return f"V_M {v_m} outside {VM_BRACKET}"
    floor = _optimum_floor("rr", k, eta, eps, beta)
    if expected["R_RR"] < floor - 1e-12:
        return f"R_RR {row['R_RR']} at V_M {v_m} is below {floor}, the optimum's tolerance"
    for tag in ("DR", "RR"):
        margin, d_eta = row[f"eta_max_{tag}_dB"], row[f"d_eta_{tag}_dB"]
        for k_at, margin_db in ((k, margin), (0.0, margin + d_eta)):
            def rate_at(a_db, k_at=k_at):
                return float(cf.rate(tag.lower(), v_m, k_at, eta * 10.0 ** (-a_db / 10.0), eps, beta))

            problem = _margin_problem(rate_at, margin_db)
            if problem:
                return f"{tag} loss margin at k={k_at}: {problem}"
    return None


def check_sweep(rows, rhos, point) -> dict[int, str]:
    """Every row against the closed form, and mirrored rows (+-rho, same k) against each other."""
    if len(rows) != len(rhos):
        return {i: f"{len(rows)} rows for {len(rhos)} sweep points" for i in range(len(rhos))}
    failed = {}
    for i, (row, rho) in enumerate(zip(rows, rhos)):
        problem = sweep_row_problem(row, rho, point)
        if problem:
            failed[i] = problem
    for i in range(len(rows) // 2):
        j = len(rows) - 1 - i
        if i in failed or j in failed or abs(rhos[i] + rhos[j]) > 1e-12:
            continue
        for name, value in rows[i].items():
            if name != "sweep_var" and not _close(value, rows[j][name]):
                failed[j] = f"{name} differs between rho={rhos[i]} and rho={rhos[j]}"
                break
    return failed


def verdict_from_grid(grid: dict) -> str:
    """The documented viability rule applied to one R-vs-noise grid."""
    baseline = grid[str(0.0)]
    rates = [grid[str(eps)] for eps in VIABILITY_GRID if eps > 0.0]
    if any(r > baseline + VIABILITY_MARGIN for r in rates):
        return "helpful"
    if all(r < baseline - VIABILITY_MARGIN for r in rates):
        return "harmful"
    return "neutral"


def table1_problem(result) -> str | None:
    """Why a table1 result breaks the paper's pattern or its own grids."""
    for point in NOISE_POINTS:
        for direction in ("dr", "rr"):
            grid = result["grids"][point][direction]
            if sorted(grid) != sorted(str(eps) for eps in VIABILITY_GRID):
                return f"{point}/{direction} grid has keys {sorted(grid)}"
            if not all(isinstance(r, float) and math.isfinite(r) for r in grid.values()):
                return f"{point}/{direction} grid is not finite: {grid}"
            verdict = result["matrix"][point][direction]
            if verdict != verdict_from_grid(grid):
                return f"{point}/{direction} verdict {verdict} != {verdict_from_grid(grid)} from its grid"
            if (verdict == "helpful") != TABLE1_HELPFUL[(point, direction)]:
                return f"{point}/{direction} verdict {verdict} breaks the paper's Table 1 pattern"
    for direction in ("dr", "rr"):
        base = [result["grids"][pt][direction][str(0.0)] for pt in ("P1", "P2", "L")]
        if max(base) - min(base) > 1e-10:
            return f"P1, P2 and L share one zero-noise point but give {base}"
    return None


def check_table1(result) -> dict[int, str]:
    problem = table1_problem(result)
    return {0: problem} if problem else {}


def mc_problem(report, point, n, seed, assume_no_leakage) -> str | None:
    """Why an end_to_end_consistency report is not what its estimator must give.

    The estimates must lie within 5 standard errors of the moment estimators'
    expected values (the true parameters for the leakage-aware closure), with
    the standard error computed from the exact state; the rates must match the
    closed form at the true and at the estimated point; and the verdict must
    follow from the reported rates and errors.  A leakage-blind report must
    say that it overestimates the key.
    """
    est = report["estimate"]
    if report["seed"] != seed or est["n"] != n:
        return f"seed/n {report['seed']}/{est['n']} != {seed}/{n}"
    v_m, k, eta, eps, beta = (point[f] for f in ("V_M", "k", "eta_Ch", "eps_Ch", "beta"))
    mean, se = cf.estimate_sampling(v_m, k, eta, eps, n, assume_no_leakage)
    for name, m, s in zip(ESTIMATE_FIELDS, mean, se):
        if not abs(est[name] - m) <= MC_SE_BOUND * s + 1e-12:
            return f"{name} {est[name]} is {abs(est[name] - m) / s:.1f} SE from {m}"
    if not all(math.isfinite(est[f]) and est[f] > 0.0 for f in SE_FIELDS):
        return f"standard errors not positive: {[est[f] for f in SE_FIELDS]}"
    true = cf.rates(v_m, k, eta, eps, beta)
    hat = cf.rates(est["v_m_hat"], est["k_hat"], est["eta_hat"], est["eps_hat"], beta)
    for tag, i in (("dr", 3), ("rr", 4)):
        if not _close(report[f"r_true_{tag}"], true[i]):
            return f"r_true_{tag} {report[f'r_true_{tag}']} != closed form {float(true[i])}"
        if not _close(report[f"r_est_{tag}"], hat[i]):
            return f"r_est_{tag} {report[f'r_est_{tag}']} != closed form {float(hat[i])}"
    over = any(
        report[f"r_est_{tag}"] - report[f"r_true_{tag}"] > MC_SE_BOUND * report[f"se_r_{tag}"] + MC_RATE_SLACK
        for tag in ("dr", "rr")
    )
    verdict = "overestimates key" if over else "consistent"
    if report["verdict"] != verdict:
        return f"verdict {report['verdict']} != {verdict} from the reported rates"
    if assume_no_leakage and verdict != "overestimates key":
        return "leakage-blind estimate did not flag the overestimated key"
    return None


def check_mc(report, point, n, seed, assume_no_leakage) -> dict[int, str]:
    problem = mc_problem(report, point, n, seed, assume_no_leakage)
    return {0: problem} if problem else {}
