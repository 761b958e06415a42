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

from . import __version__, montecarlo
from . import security as sec
from .config import RunConfig, config_doc, load_config
from .errors import InvalidArgument, ModleakError
from .modulator import DEFAULT_RHO_CONVENTION

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
    except (ModleakError, OSError) as exc:
        _fail(str(exc))


def _metadata(cfg: RunConfig) -> dict:
    return {
        "loss_convention": "attenuation dB >= 0, eta_Ch = 10^(-loss/10)",
        "rho_convention": cfg.modulator.get("rho_convention", DEFAULT_RHO_CONVENTION),
        "rng_algorithm": montecarlo.RNG_ALGORITHM,
        "modleak_version": __version__,
        "config": config_doc(cfg),
    }


def _write(text: str, out: str | None):
    """Echo text to stdout, or write exactly the same bytes to the file out."""
    if not out:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write {out}: {exc.strerror}")


def _emit_json(payload: dict, cfg: RunConfig, out: str | None):
    payload = {**payload, "metadata": _metadata(cfg)}
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _check_optimize(optimize_vm: bool, direction: str):
    if optimize_vm and direction == "both":
        raise InvalidArgument("--optimize-vm requires --direction dr or rr")


def _search_optimum(p: sec.ProtocolParams, direction: str, optimize_vm: bool):
    """Search for the point to report: p, or p at its optimal V_M."""
    if optimize_vm:
        p = dataclasses.replace(p, v_m=(yield from sec.search_vm(p, direction)).v_m)
    return p


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

    def search(p):
        p = yield from _search_optimum(p, direction, optimize_vm)
        [report] = yield [p]
        return p, report

    try:
        _check_optimize(optimize_vm, direction)
        p, report = sec.drive(search(cfg.params_at()))
    except ModleakError as exc:
        _fail(str(exc))
    payload = {"params": dataclasses.asdict(p), "report": dataclasses.asdict(report)}
    _emit_json(payload, cfg, out)
    positive = {
        "dr": report.r_dr > 0.0,
        "rr": report.r_rr > 0.0,
        "both": report.r_dr > 0.0 and report.r_rr > 0.0,
    }[direction]
    sys.exit(0 if positive else EXIT_NO_SECURITY)


def _search_row(p: sec.ProtocolParams, direction: str, optimize_vm: bool, with_eta_max: bool):
    """Search for one sweep row: its point, the k = 0 twin and, on request,
    the loss margins of both in both directions."""
    p = yield from _search_optimum(p, direction, optimize_vm)
    p0 = dataclasses.replace(p, k=0.0)
    report, twin = yield [p, p0]
    margins = None
    if with_eta_max:
        margins = yield from sec.lockstep(
            sec.search_loss_margin(q, d) for d in ("dr", "rr") for q in (p, p0)
        )
    return p, report, twin, margins


def sweep_rows(
    cfg: RunConfig,
    direction: str = "both",
    optimize_vm: bool = False,
    with_eta_max: bool = False,
) -> list[dict]:
    """Evaluate every sweep point; shared by the CLI and the test suite.

    All rows are searched in lockstep, so each round of every row's V_M
    search and loss-margin searches is one `key_rates` call.
    """
    axis = cfg.sweep_axis
    if axis is None:
        raise ModleakError("sweep requires exactly one sweep axis in the config")
    _check_optimize(optimize_vm, direction)
    _, sweep = axis
    values = [float(value) for value in sweep.values()]
    searches = [
        _search_row(cfg.params_at(value), direction, optimize_vm, with_eta_max)
        for value in values
    ]
    rows = []
    for value, (p, report, twin, margins) in zip(values, sec.drive(sec.lockstep(searches))):
        row = {
            "sweep_var": value,
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
            for tag, (margin, margin0) in zip(("DR", "RR"), (margins[:2], margins[2:])):
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
        _emit_json({"rows": rows}, cfg, out)
        return
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) for row in rows]
    _write("\n".join(lines) + "\n", out)


def table1_matrix(p: sec.ProtocolParams) -> dict:
    """Viability matrix and the R-vs-noise grids behind the verdicts."""
    matrix: dict = {}
    grids: dict = {}
    for point, scan in sec.noise_scans(p).items():
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
    try:
        p = cfg.params_at()
        result = table1_matrix(p)
    except ModleakError as exc:
        _fail(str(exc))
    _emit_json({**result, "params": dataclasses.asdict(p)}, cfg, out)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--assume-no-leakage", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def mc(config_path, seed, assume_no_leakage, out):
    """Monte-Carlo re-estimation and key-rate consistency check."""
    cfg = _load(config_path)
    if "n" not in cfg.mc:
        _fail("mc command needs an mc block with a sample count n")
    seed = seed if seed is not None else cfg.mc.get("seed", 0)
    try:
        report = montecarlo.end_to_end_consistency(
            cfg.params_at(), cfg.mc["n"], seed, assume_no_leakage=assume_no_leakage
        )
    except ModleakError as exc:
        _fail(str(exc))
    _emit_json(dataclasses.asdict(report), cfg, out)
    sys.exit(EXIT_NO_SECURITY if report.verdict == "overestimates key" else 0)


if __name__ == "__main__":
    main()
