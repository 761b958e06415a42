"""Tests of the benchmark's checker: a wrong output must count as a failed operation.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy

import numpy as np
import pytest

import closed_form
import harness
import workloads

SWEEP = workloads.WORKLOADS["sweep-rho-margin"]
TABLE1 = workloads.WORKLOADS["table1-paper"]
MC = workloads.WORKLOADS["mc-closure"]


def tally_of(workload, call, out) -> harness.Tally:
    tally = harness.Tally()
    check = lambda o: workload.check(call, o)  # noqa: E731
    harness.checked(tally, workload.items(call), check, out, workload.name)
    return tally


@pytest.fixture(scope="module")
def sweep_rows():
    # 4.2 dB: DR has no positive key, RR has a real loss margin
    return {x: SWEEP.run(x) for x in (2.5, 4.2)}


@pytest.fixture(scope="module")
def table1_result():
    return TABLE1.run(workloads.TABLE1_POINT)


@pytest.fixture(scope="module")
def mc_reports():
    calls = MC.round(np.random.default_rng(0))
    return [(call, MC.run(call)) for call in calls]


@pytest.mark.parametrize("x", [2.5, 4.2])
def test_sweep_rows_pass(sweep_rows, x):
    tally = tally_of(SWEEP, x, sweep_rows[x])
    assert (tally.attempted, tally.failed) == (2, 0)


def test_sweep_row_with_perturbed_rate_fails(sweep_rows):
    rows = copy.deepcopy(sweep_rows[2.5])
    rows[0]["R_RR"] += 1e-6
    tally = tally_of(SWEEP, 2.5, rows)
    assert (tally.failed, tally.wrong) == (1, 1)


def test_mirrored_rows_must_agree(sweep_rows):
    rows = copy.deepcopy(sweep_rows[2.5])
    rows[1]["eta_max_RR_dB"] += 1e-3
    assert tally_of(SWEEP, 2.5, rows).failed == 1


def test_no_positive_key_must_report_zero_margin(sweep_rows):
    rows = copy.deepcopy(sweep_rows[4.2])
    assert rows[0]["R_DR"] <= 0.0 and rows[0]["eta_max_DR_dB"] == 0.0
    rows[0]["eta_max_DR_dB"] = 0.01
    assert tally_of(SWEEP, 4.2, rows).failed == 1


def test_table1_passes(table1_result):
    assert tally_of(TABLE1, workloads.TABLE1_POINT, table1_result).failed == 0


def test_flipped_table1_verdict_fails(table1_result):
    result = copy.deepcopy(table1_result)
    result["matrix"]["D"]["dr"] = "helpful"
    assert tally_of(TABLE1, workloads.TABLE1_POINT, result).failed == 1


def test_table1_verdict_must_follow_its_grid(table1_result):
    result = copy.deepcopy(table1_result)
    grid = result["grids"]["L"]["rr"]
    for eps in grid:
        grid[eps] = grid["0.0"]
    assert tally_of(TABLE1, workloads.TABLE1_POINT, result).failed == 1


def test_mc_reports_pass(mc_reports):
    for call, report in mc_reports:
        assert tally_of(MC, call, report).failed == 0


def test_swapped_mc_verdict_fails(mc_reports):
    swap = {"consistent": "overestimates key", "overestimates key": "consistent"}
    for call, report in mc_reports:
        report = dict(report, verdict=swap[report["verdict"]])
        assert tally_of(MC, call, report).failed == 1


def test_mc_estimate_off_by_six_standard_errors_fails(mc_reports):
    call, report = mc_reports[0]
    p = workloads.MC_AWARE
    _, se = closed_form.estimate_sampling(p["V_M"], p["k"], p["eta_Ch"], p["eps_Ch"], workloads.MC_N)
    report = copy.deepcopy(report)
    report["estimate"]["k_hat"] = p["k"] + 6.0 * se[1]
    assert tally_of(MC, call, report).failed == 1


def test_raised_call_fails_every_item_without_being_wrong():
    tally = harness.Tally()
    harness.checked(tally, 2, lambda o: {}, RuntimeError("boom"), "sweep")
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 0)


def test_malformed_output_fails():
    tally = tally_of(TABLE1, workloads.TABLE1_POINT, {"matrix": {}})
    assert (tally.failed, tally.wrong) == (1, 1)
