"""Command-line front end: keyrate, sweep, table1 and mc subcommands.

The CLI is a thin shell over the library: every emitted number comes from
the security or Monte-Carlo modules, written to --out, else the config's
outputs.path, else stdout.  Exit codes: 0 success / positive key, 1 usage,
config or model error (such as an unphysical point), 2 computed no-security.
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
    return "" if value is None else f"{value:.9g}"


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _metadata(cfg: RunConfig) -> dict:
    return {
        "loss_convention": "attenuation dB >= 0, eta_Ch = 10^(-loss/10)",
        "rho_convention": cfg.modulator.get("rho_convention", DEFAULT_RHO_CONVENTION),
        "rng_algorithm": montecarlo.RNG_ALGORITHM,
        "modleak_version": __version__,
        "config": config_doc(cfg),
    }


def _write(text: str, cfg: RunConfig, out: str | None):
    """Write text to the file out, else to the config's outputs.path, else to
    stdout; a file gets exactly the bytes stdout would."""
    out = out or cfg.outputs.get("path")
    if not out:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write {out}: {exc.strerror}")


def _emit_json(payload: dict, cfg: RunConfig, out: str | None, **metadata):
    payload = {**payload, "metadata": {**_metadata(cfg), **metadata}}
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg, out)


def _check_optimize(optimize_vm: bool, direction: str):
    if optimize_vm and direction == "both":
        raise InvalidArgument("--optimize-vm requires --direction dr or rr")


def _search_optimum(p: sec.ProtocolParams, direction: str, optimize_vm: bool, searches: int):
    """Search for the point to report: p, or p at its optimal V_M, found by one
    of `searches` V_M searches that share their rounds."""
    if optimize_vm:
        p = p.replace(v_m=(yield from sec.search_vm(p, direction, searches)).v_m)
    return p


class _Group(click.Group):
    """A command group whose usage, config and model errors take `_fail`: exit 1."""

    def main(self, *args, standalone_mode: bool = True, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except (click.ClickException, click.Abort, ModleakError, OSError) as exc:
            if not standalone_mode:
                raise
            if isinstance(exc, click.ClickException):
                _fail(exc.format_message())
            _fail("aborted" if isinstance(exc, click.Abort) else str(exc))


@click.group(cls=_Group)
def main():
    """Modulation-leakage security analysis for CV-QKD."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--direction", type=click.Choice(["dr", "rr", "both"]), default="both")
@click.option("--optimize-vm", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def keyrate(config_path, direction, optimize_vm, out):
    """Key-rate report for a single parameter point (JSON)."""
    cfg = load_config(config_path)
    _check_optimize(optimize_vm, direction)

    def search(p):
        p = yield from _search_optimum(p, direction, optimize_vm, 1)
        [report] = yield [p]
        return p, report

    p, report = sec.drive(search(cfg.params_at()))
    payload = {"params": dataclasses.asdict(p), "report": dataclasses.asdict(report)}
    _emit_json(payload, cfg, out)
    positive = {
        "dr": report.r_dr > 0.0,
        "rr": report.r_rr > 0.0,
        "both": report.r_dr > 0.0 and report.r_rr > 0.0,
    }[direction]
    sys.exit(0 if positive else EXIT_NO_SECURITY)


def _search_row(
    p: sec.ProtocolParams, direction: str, optimize_vm: bool, with_eta_max: bool, rows: int
):
    """Search for one of `rows` distinct sweep rows: its point, the k = 0 twin
    and, on request, the loss margins of both in both directions.  The margins
    come first, so their first round asks for p and p0 with their 60 dB ends."""
    p = yield from _search_optimum(p, direction, optimize_vm, rows)
    p0 = p.replace(k=0.0)
    margins = None
    if with_eta_max:
        margins = yield from sec.lockstep(
            sec.search_loss_margin(q, d) for d in ("dr", "rr") for q in (p, p0)
        )
    report, twin = yield [p, p0]
    return p, report, twin, margins


def sweep_rows(
    cfg: RunConfig,
    direction: str = "both",
    optimize_vm: bool = False,
    with_eta_max: bool = False,
) -> list[dict]:
    """Evaluate every sweep point; shared by the CLI and the test suite.

    Rows at the same point, such as the rows at rho and -rho, share one
    search.  The distinct rows are searched in lockstep, so each round of
    every V_M search and loss-margin search is one batched pass of
    `sec.drive`; for n distinct rows, each V_M search asks for up to
    max(sec.SPECULATED_POINTS // n, 1) golden points a round.
    """
    return _sweep(cfg, direction, optimize_vm, with_eta_max)[0]


def _sweep(
    cfg: RunConfig, direction: str, optimize_vm: bool, with_eta_max: bool
) -> tuple[list[dict], list[dict]]:
    """The rows of `sweep_rows`, and one flag entry for each loss margin that is
    not ok: its sweep_var, direction, point ("k" for the row's point, "twin"
    for its k = 0 twin), that point's k and the margin's flag."""
    axis = cfg.sweep_axis
    if axis is None:
        raise ModleakError("sweep requires exactly one sweep axis in the config")
    _check_optimize(optimize_vm, direction)
    name, sweep = axis
    if optimize_vm and name == "V_M":
        raise InvalidArgument("--optimize-vm sets V_M, so a sweep of V_M would not sweep it")
    values = [float(value) for value in sweep.values()]
    points = [cfg.params_at(value) for value in values]
    distinct = list(dict.fromkeys(points))
    searches = [
        _search_row(p, direction, optimize_vm, with_eta_max, len(distinct)) for p in distinct
    ]
    found = dict(zip(distinct, sec.drive(sec.lockstep(searches))))
    rows, flags = [], []
    for value, point in zip(values, points):
        p, report, twin, margins = found[point]
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
                for where, k, m in (("k", p.k, margin), ("twin", 0.0, margin0)):
                    if m.flag != "ok":
                        flags.append(
                            {"sweep_var": value, "direction": tag, "point": where, "k": k,
                             "flag": m.flag}
                        )
        rows.append(row)
    return rows, flags


def _margin_warning(flag: dict) -> str:
    where = f"k = {_fmt(flag['k'])}" if flag["point"] == "k" else "its k = 0 twin"
    return (
        f"warning: sweep_var {_fmt(flag['sweep_var'])}: {flag['direction']} loss margin "
        f"at {where} is {flag['flag']}"
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--direction", type=click.Choice(["dr", "rr", "both"]), default="both")
@click.option("--optimize-vm", is_flag=True)
@click.option("--with-eta-max", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
def sweep(config_path, direction, optimize_vm, with_eta_max, out, fmt):
    """Parameter sweep: one CSV (or JSON) row per sweep point.

    Each loss margin that is not ok gets one warning line on stderr; JSON
    output also lists them in metadata.margin_flags.
    """
    cfg = load_config(config_path)
    fmt = fmt or cfg.outputs.get("format", "csv")
    rows, flags = _sweep(cfg, direction, optimize_vm, with_eta_max)
    for flag in flags:
        click.echo(_margin_warning(flag), err=True)
    if fmt == "json":
        _emit_json({"rows": rows}, cfg, out, margin_flags=flags)
        return
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) for row in rows]
    _write("\n".join(lines) + "\n", cfg, out)


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
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None)
def table1(config_path, out):
    """Trusted-noise viability matrix (4 infusion points x 2 directions)."""
    cfg = load_config(config_path)
    p = cfg.params_at()
    _emit_json({**table1_matrix(p), "params": dataclasses.asdict(p)}, cfg, out)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--assume-no-leakage", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def mc(config_path, seed, assume_no_leakage, out):
    """Monte-Carlo re-estimation and key-rate consistency check."""
    cfg = load_config(config_path)
    if "n" not in cfg.mc:
        raise InvalidArgument("mc command needs an mc block with a sample count n")
    seed = seed if seed is not None else cfg.mc.get("seed", 0)
    report = montecarlo.end_to_end_consistency(
        cfg.params_at(), cfg.mc["n"], seed, assume_no_leakage=assume_no_leakage
    )
    _emit_json(dataclasses.asdict(report), cfg, out)
    sys.exit(EXIT_NO_SECURITY if report.verdict == "overestimates key" else 0)


if __name__ == "__main__":
    main()
