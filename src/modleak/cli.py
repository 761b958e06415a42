"""Command-line front end: keyrate, sweep, table1 and mc subcommands.

The CLI is a thin shell over the library: every emitted number comes from
the security or Monte-Carlo modules.  Exit codes: 0 success / positive key,
1 usage or config error, 2 computed no-security.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from . import montecarlo
from . import security as sec
from .config import RunConfig, load_config
from .errors import ModleakError

SWEEP_COLUMNS = [
    "sweep_var",
    "V_M",
    "k",
    "I_AB",
    "chi_DR",
    "chi_RR",
    "R_DR",
    "R_RR",
    "R_DR_clamped",
    "R_RR_clamped",
    "dR_DR",
    "dR_RR",
    "eta_max_DR_dB",
    "eta_max_RR_dB",
    "d_eta_DR_dB",
    "d_eta_RR_dB",
]

EXIT_NO_SECURITY = 2


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    return f"{value:.9g}"


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _load(config_path: str) -> RunConfig:
    try:
        return load_config(config_path)
    except (ModleakError, OSError, ValueError) as exc:
        _fail(str(exc))


def _metadata(cfg: RunConfig) -> dict:
    return {
        "loss_convention": "attenuation dB >= 0, eta_Ch = 10^(-loss/10)",
        "rho_convention": cfg.modulator.get("rho_convention", "amplitude10"),
        "rng_algorithm": montecarlo.RNG_ALGORITHM,
    }


def _emit_json(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _maybe_optimize(p: sec.ProtocolParams, optimize_vm: bool, direction: str):
    if not optimize_vm:
        return p
    if direction == "both":
        _fail("--optimize-vm requires --direction dr or rr")
    opt = sec.optimize_vm(p, direction)
    return dataclasses.replace(p, v_m=opt.v_m)


@click.group()
def main():
    """Modulation-leakage security analysis for CV-QKD."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--direction", type=click.Choice(["dr", "rr", "both"]), default="both")
@click.option("--optimize-vm", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def keyrate(config_path, direction, optimize_vm, out):
    """Key-rate report for a single parameter point (JSON)."""
    cfg = _load(config_path)
    if cfg.sweep_axis is not None:
        _fail("keyrate takes a fixed config; use the sweep command for sweep axes")
    try:
        p = cfg.params_at()
        p = _maybe_optimize(p, optimize_vm, direction)
        report = sec.key_rate(p)
    except ModleakError as exc:
        _fail(str(exc))
    payload = {
        "params": dataclasses.asdict(p),
        "report": dataclasses.asdict(report),
        "metadata": _metadata(cfg),
    }
    _emit_json(payload, out)
    positive = {
        "dr": report.r_dr > 0.0,
        "rr": report.r_rr > 0.0,
        "both": report.r_dr > 0.0 and report.r_rr > 0.0,
    }[direction]
    sys.exit(0 if positive else EXIT_NO_SECURITY)


def sweep_rows(
    cfg: RunConfig,
    direction: str = "both",
    optimize_vm: bool = False,
    with_eta_max: bool = False,
) -> list[dict]:
    """Evaluate every sweep point; shared by the CLI and the test suite."""
    axis = cfg.sweep_axis
    if axis is None:
        raise ModleakError("sweep requires exactly one sweep axis in the config")
    _, sweep = axis
    rows = []
    for value in sweep.values():
        p = cfg.params_at(float(value))
        p = _maybe_optimize(p, optimize_vm, direction)
        p0 = dataclasses.replace(p, k=0.0)
        report, twin = sec.key_rate(p), sec.key_rate(p0)
        row = {
            "sweep_var": float(value),
            "V_M": p.v_m,
            "k": p.k,
            "I_AB": report.i_ab,
            "chi_DR": report.chi_dr,
            "chi_RR": report.chi_rr,
            "R_DR": report.r_dr,
            "R_RR": report.r_rr,
            "R_DR_clamped": report.r_dr_clamped,
            "R_RR_clamped": report.r_rr_clamped,
            "dR_DR": twin.r_dr - report.r_dr,
            "dR_RR": twin.r_rr - report.r_rr,
            "eta_max_DR_dB": None,
            "eta_max_RR_dB": None,
            "d_eta_DR_dB": None,
            "d_eta_RR_dB": None,
        }
        if with_eta_max:
            for tag, d in (("DR", "dr"), ("RR", "rr")):
                margin = sec.max_additional_loss(p, d)
                margin0 = sec.max_additional_loss(p0, d)
                row[f"eta_max_{tag}_dB"] = margin.db
                row[f"d_eta_{tag}_dB"] = margin0.db - margin.db
        rows.append(row)
    return rows


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--direction", type=click.Choice(["dr", "rr", "both"]), default="both")
@click.option("--optimize-vm", is_flag=True)
@click.option("--with-eta-max", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
def sweep(config_path, direction, optimize_vm, with_eta_max, out, fmt):
    """Parameter sweep: one CSV (or JSON) row per sweep point."""
    cfg = _load(config_path)
    out = out or cfg.outputs.get("path")
    fmt = fmt or cfg.outputs.get("format", "csv")
    try:
        rows = sweep_rows(cfg, direction, optimize_vm, with_eta_max)
    except ModleakError as exc:
        _fail(str(exc))
    if fmt == "json":
        _emit_json({"rows": rows, "metadata": _metadata(cfg)}, out)
        return
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) for row in rows]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def table1_matrix(p: sec.ProtocolParams) -> dict:
    """Viability matrix and the R-vs-noise grids behind the verdicts."""
    matrix: dict = {}
    grids: dict = {}
    for point in sec.NOISE_POINTS:
        scan = sec.noise_scan(p, point)
        matrix[point] = {d: sec.viability_verdict(scan, d) for d in ("dr", "rr")}
        grids[point] = {
            d: {str(eps): report.rate(d) for eps, report in scan.items()} for d in ("dr", "rr")
        }
    return {"matrix": matrix, "grids": grids}


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None)
def table1(config_path, out):
    """Trusted-noise viability matrix (4 infusion points x 2 directions)."""
    cfg = _load(config_path)
    if cfg.sweep_axis is not None:
        _fail("table1 takes a fixed config")
    try:
        p = cfg.params_at()
        result = table1_matrix(p)
    except ModleakError as exc:
        _fail(str(exc))
    result["params"] = dataclasses.asdict(p)
    result["metadata"] = _metadata(cfg)
    _emit_json(result, out)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--assume-no-leakage", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def mc(config_path, seed, assume_no_leakage, out):
    """Monte-Carlo re-estimation and key-rate consistency check."""
    cfg = _load(config_path)
    if cfg.sweep_axis is not None:
        _fail("mc takes a fixed config")
    if "n" not in cfg.mc:
        _fail("mc command needs an mc block with a sample count n")
    n = cfg.mc["n"]
    if n < montecarlo.MIN_SAMPLES:
        _fail(f"mc sample count must be >= {montecarlo.MIN_SAMPLES}, got {n}")
    seed = seed if seed is not None else cfg.mc.get("seed", 0)
    try:
        p = cfg.params_at()
        report = montecarlo.end_to_end_consistency(
            p, n, seed, assume_no_leakage=assume_no_leakage
        )
    except ModleakError as exc:
        _fail(str(exc))
    payload = dataclasses.asdict(report)
    payload["metadata"] = _metadata(cfg)
    _emit_json(payload, out)
    sys.exit(EXIT_NO_SECURITY if report.verdict == "overestimates key" else 0)


if __name__ == "__main__":
    main()
