import dataclasses
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import modleak
from modleak import cli
from modleak import gaussian as g
from modleak import security as sec
from modleak.config import parse_config

BASE_PROTOCOL = {"V_M": 5.0, "k": 0.3, "eta_Ch": 0.6, "eps_Ch": 0.02, "beta": 0.96}


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def assert_one_error(result, *fragments):
    """Exit 1 with a single `error:` line on stderr, naming each fragment, and no traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ")
    for fragment in fragments:
        assert fragment in line
    assert result.stdout == ""


class TestKeyrate:
    def test_matches_library(self, runner, tmp_path):
        path = write_cfg(tmp_path, {"protocol": BASE_PROTOCOL})
        result = runner.invoke(cli.main, ["keyrate", "--config", path, "--direction", "rr"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        report = sec.key_rate(sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.6, eps_ch=0.02, beta=0.96))
        assert payload["report"]["r_rr"] == pytest.approx(report.r_rr)
        assert payload["report"]["i_ab"] == pytest.approx(report.i_ab)
        assert payload["metadata"]["rng_algorithm"] == "PCG64"

    def test_exit_2_when_direct_rate_collapses(self, runner, tmp_path):
        path = write_cfg(tmp_path, {"protocol": dict(BASE_PROTOCOL, k=1.0)})
        result = runner.invoke(cli.main, ["keyrate", "--config", path, "--direction", "dr"])
        assert result.exit_code == cli.EXIT_NO_SECURITY

    def test_exit_2_at_zero_efficiency(self, runner, tmp_path):
        path = write_cfg(tmp_path, {"protocol": dict(BASE_PROTOCOL, beta=0.0)})
        result = runner.invoke(cli.main, ["keyrate", "--config", path])
        assert result.exit_code == cli.EXIT_NO_SECURITY

    def test_config_error_exit_1(self, runner, tmp_path):
        path = write_cfg(tmp_path, {"protocol": dict(BASE_PROTOCOL, bogus=1.0)})
        result = runner.invoke(cli.main, ["keyrate", "--config", path])
        assert result.exit_code == 1
        assert "bogus" in result.output

    def test_floor_without_rho_exit_1(self, runner, tmp_path):
        path = write_cfg(tmp_path, {"protocol": {"V_M": 5}, "modulator": {"k_floor": 0.5}})
        result = runner.invoke(cli.main, ["keyrate", "--config", path])
        assert_one_error(result, "k_floor", "modulator.rho")

    def test_optimize_needs_single_direction(self, runner, tmp_path):
        path = write_cfg(tmp_path, {"protocol": BASE_PROTOCOL})
        result = runner.invoke(cli.main, ["keyrate", "--config", path, "--optimize-vm"])
        assert_one_error(result, "--direction dr or rr")

    def test_positive_reverse_rate_at_3db(self, runner, tmp_path):
        doc = {"protocol": dict(BASE_PROTOCOL, k=0.0, eta_Ch=0.5)}
        path = write_cfg(tmp_path, doc)
        result = runner.invoke(
            cli.main,
            ["keyrate", "--config", path, "--direction", "rr", "--optimize-vm"],
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout)["report"]["r_rr"] > 0.0

    @pytest.mark.parametrize("field", ["V_M", "k", "eps_Ch", "eps_P1", "block_size"])
    def test_non_finite_value_exits_1(self, runner, tmp_path, field):
        path = write_cfg(tmp_path, {"protocol": dict(BASE_PROTOCOL, **{field: float("nan")})})
        assert ".nan" in Path(path).read_text()
        result = runner.invoke(cli.main, ["keyrate", "--config", path])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "finite" in result.output

    def test_optimize_improves_rate(self, runner, tmp_path):
        doc = {"protocol": dict(BASE_PROTOCOL, V_M=0.5)}
        path = write_cfg(tmp_path, doc)
        base = runner.invoke(cli.main, ["keyrate", "--config", path, "--direction", "rr"])
        opt = runner.invoke(
            cli.main, ["keyrate", "--config", path, "--direction", "rr", "--optimize-vm"]
        )
        r0 = json.loads(base.stdout)["report"]["r_rr"]
        r1 = json.loads(opt.stdout)["report"]["r_rr"]
        assert r1 >= r0 - 1e-12


class TestSweep:
    def sweep_doc(self, **extra):
        protocol = dict(BASE_PROTOCOL, k={"start": 0.0, "stop": 0.6, "points": 4})
        doc = {"protocol": protocol}
        doc.update(extra)
        return doc

    def test_csv_header_and_values(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.sweep_doc())
        out = tmp_path / "out.csv"
        result = runner.invoke(cli.main, ["sweep", "--config", path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "sweep_var,V_M,k,I_AB,chi_DR,chi_RR,R_DR,R_RR,R_DR_clamped,"
            "R_RR_clamped,dR_DR,dR_RR,eta_max_DR_dB,eta_max_RR_dB,"
            "d_eta_DR_dB,d_eta_RR_dB"
        )
        assert len(lines) == 5
        first = lines[1].split(",")
        p = sec.ProtocolParams(v_m=5.0, k=0.0, eta_ch=0.6, eps_ch=0.02, beta=0.96)
        assert float(first[7]) == pytest.approx(sec.key_rate(p).r_rr, rel=1e-8)
        # eta-max columns stay empty unless requested
        assert first[12:] == ["", "", "", ""]

    def test_eta_max_columns_filled_on_request(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.sweep_doc())
        result = runner.invoke(cli.main, ["sweep", "--config", path, "--with-eta-max"])
        rows = result.stdout.strip().split("\n")[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[12] != "" and cells[15] != ""
            assert float(cells[15]) >= -1e-9

    MARGIN_CASES = {
        # rho = +-6 dB at the benchmark's sweep point: no DR key at k
        "benchmark-point": (0.96, 0.02, [("DR", "k", "no-positive-key")]),
        # with beta 1 and no channel noise, RR keys outlast 60 dB of loss
        "noiseless": (
            1.0,
            0.0,
            [("DR", "k", "no-positive-key"), ("RR", "k", "saturated"), ("RR", "twin", "saturated")],
        ),
    }

    def margin_doc(self, beta=0.96, eps=0.02):
        return {
            "protocol": {"V_M": 5.0, "eta_Ch": 0.9, "eps_Ch": eps, "beta": beta},
            "modulator": {"rho": {"start": -6, "stop": 6, "points": 2}},
        }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", MARGIN_CASES)
    def test_margin_flags_warn_on_stderr(self, runner, tmp_path, fmt, case):
        beta, eps, flagged = self.MARGIN_CASES[case]
        path = write_cfg(tmp_path, self.margin_doc(beta, eps))
        argv = ["sweep", "--config", path, "--with-eta-max", "--format", fmt]
        result = runner.invoke(cli.main, argv)
        assert result.exit_code == 0, result.output
        if fmt == "json":
            payload = json.loads(result.stdout)
            rows = payload["rows"]
        else:
            header, *lines = result.stdout.strip().split("\n")
            assert header == ",".join(cli.SWEEP_COLUMNS)
            rows = [dict(zip(cli.SWEEP_COLUMNS, map(float, line.split(",")))) for line in lines]
        assert [row["eta_max_DR_dB"] for row in rows] == [0.0, 0.0]
        k = rows[0]["k"]
        assert result.stderr.splitlines() == [
            f"warning: sweep_var {x:g}: {direction} loss margin at "
            + (f"k = {k:.9g}" if point == "k" else "its k = 0 twin")
            + f" is {flag}"
            for x in (-6.0, 6.0)
            for direction, point, flag in flagged
        ]
        if fmt == "json":
            assert payload["metadata"]["margin_flags"] == [
                {"sweep_var": x, "direction": direction, "point": point,
                 "k": k if point == "k" else 0.0, "flag": flag}
                for x in (-6.0, 6.0)
                for direction, point, flag in flagged
            ]

    def test_margin_flags_leave_rows_unchanged(self, runner, tmp_path):
        rows = cli.sweep_rows(parse_config(self.margin_doc()), with_eta_max=True)
        assert [list(row) for row in rows] == [cli.SWEEP_COLUMNS] * 2
        assert all(isinstance(value, float) for row in rows for value in row.values())
        # no margins, no flags
        path = write_cfg(tmp_path, self.margin_doc())
        result = runner.invoke(cli.main, ["sweep", "--config", path, "--format", "json"])
        assert result.exit_code == 0 and result.stderr == ""
        assert json.loads(result.stdout)["metadata"]["margin_flags"] == []

    def test_json_format(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.sweep_doc())
        result = runner.invoke(cli.main, ["sweep", "--config", path, "--format", "json"])
        payload = json.loads(result.stdout)
        assert len(payload["rows"]) == 4
        assert payload["rows"][0]["k"] == 0.0

    def test_fixed_config_rejected(self, runner, tmp_path):
        path = write_cfg(tmp_path, {"protocol": BASE_PROTOCOL})
        result = runner.invoke(cli.main, ["sweep", "--config", path])
        assert_one_error(result, "sweep axis")

    @pytest.mark.parametrize("points", [1, 1001, 10**41])
    def test_point_count_out_of_range_exits_1(self, runner, tmp_path, points):
        doc = self.sweep_doc()
        doc["protocol"]["k"]["points"] = points
        result = runner.invoke(cli.main, ["sweep", "--config", write_cfg(tmp_path, doc)])
        assert_one_error(result, "points")

    def test_non_string_output_path_exits_1(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.sweep_doc(outputs={"path": 7}))
        result = runner.invoke(cli.main, ["sweep", "--config", path])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "outputs.path must be a string" in result.output

    def test_loss_sweep_in_db(self, runner, tmp_path):
        doc = {
            "protocol": dict(
                BASE_PROTOCOL,
                eta_Ch={"start": 0.5, "stop": 6.0, "points": 4, "scale": "dB"},
            )
        }
        path = write_cfg(tmp_path, doc)
        result = runner.invoke(cli.main, ["sweep", "--config", path, "--format", "json"])
        rows = json.loads(result.stdout)["rows"]
        rates = [r["R_RR"] for r in rows]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        losses = np.linspace(0.5, 6.0, 4)
        points = [
            sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=10.0 ** (-db / 10.0), eps_ch=0.02, beta=0.96)
            for db in losses
        ]
        assert [r["sweep_var"] for r in rows] == list(losses)
        assert rates == [rep.r_rr for rep in sec.key_rates(points)]

    def test_db_scale_on_other_axes_exits_1(self, runner, tmp_path):
        doc = {"protocol": dict(BASE_PROTOCOL, V_M={"start": 1, "stop": 20, "points": 3, "scale": "dB"})}
        result = runner.invoke(cli.main, ["sweep", "--config", write_cfg(tmp_path, doc)])
        assert_one_error(result, "scale dB applies only to eta_Ch and rho, not 'V_M'")

    @pytest.mark.parametrize(
        "doc, args, fragment",
        [
            (
                {"protocol": dict(BASE_PROTOCOL, k={"start": 0, "stop": 0.5, "points": 3}),
                 "modulator": {"rho": -2}},
                [],
                "modulator.rho sets k",
            ),
            (
                {"protocol": dict(BASE_PROTOCOL, V_M={"start": 1, "stop": 10, "points": 3})},
                ["--optimize-vm", "--direction", "rr"],
                "--optimize-vm sets V_M",
            ),
        ],
        ids=["k-under-rho", "V_M-with-optimize-vm"],
    )
    def test_overridden_sweep_axis_exits_1(self, runner, tmp_path, doc, args, fragment):
        # the sweep would not sweep: every row would be at the same point
        result = runner.invoke(cli.main, ["sweep", "--config", write_cfg(tmp_path, doc), *args])
        assert_one_error(result, fragment)

    def test_rho_db_sweep_is_its_linear_sweep(self, runner, tmp_path):
        protocol = {k: v for k, v in BASE_PROTOCOL.items() if k != "k"}
        outputs = []
        for extra in ({}, {"scale": "dB"}):
            rho = {"start": -6, "stop": 6, "points": 3, **extra}
            path = write_cfg(tmp_path, {"protocol": protocol, "modulator": {"rho": rho}})
            outputs.append(runner.invoke(cli.main, ["sweep", "--config", path]))
        assert outputs[0].exit_code == outputs[1].exit_code == 0
        assert outputs[0].stdout == outputs[1].stdout

    def test_rho_sweep_k_symmetric(self, runner, tmp_path):
        protocol = {k: v for k, v in BASE_PROTOCOL.items() if k != "k"}
        doc = {
            "protocol": protocol,
            "modulator": {"rho": {"start": -6, "stop": 6, "points": 7}, "k_floor": 0.0},
        }
        path = write_cfg(tmp_path, doc)
        result = runner.invoke(cli.main, ["sweep", "--config", path, "--format", "json"])
        ks = [r["k"] for r in json.loads(result.stdout)["rows"]]
        assert np.allclose(ks, ks[::-1])
        assert ks[3] == 0.0


class TestTable1:
    def test_matrix_shape_and_grid_consistency(self, runner, tmp_path):
        doc = {
            "protocol": dict(
                BASE_PROTOCOL, eta_Ch=0.15, eta_D=0.85, eps_D=0.01
            )
        }
        path = write_cfg(tmp_path, doc)
        result = runner.invoke(cli.main, ["table1", "--config", path])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert set(payload["matrix"]) == {"P1", "P2", "L", "D"}
        for point in payload["matrix"]:
            for direction in ("dr", "rr"):
                verdict = payload["matrix"][point][direction]
                assert verdict in {"helpful", "harmful", "neutral"}
                grid = payload["grids"][point][direction]
                assert len(grid) == len(sec.VIABILITY_GRID)

    def test_ideal_detector_exits_1(self, runner, tmp_path):
        # the D column scans eps_D > 0, which has no purification at eta_D = 1
        path = write_cfg(tmp_path, {"protocol": dict(BASE_PROTOCOL, eta_D=1.0)})
        result = runner.invoke(cli.main, ["table1", "--config", path])
        assert_one_error(result, "eta_d < 1")


    def test_one_scan_per_noise_point(self, evaluated_points):
        p = sec.ProtocolParams(
            v_m=5.0, k=0.3, eta_ch=0.15, eps_ch=0.02, beta=0.96, eta_d=0.85, eps_d=0.01
        )
        result = cli.table1_matrix(p)
        # 4 scans of 6 points, of which four are p itself: the zero-noise points
        # of P1, P2 and L, and D at p's own eps_D = 0.01
        assert len(evaluated_points) == 21
        assert len(set(evaluated_points)) == len(evaluated_points)
        for point in sec.NOISE_POINTS:
            for direction in ("dr", "rr"):
                verdict = sec.trusted_noise_viability(p, point, direction)
                assert result["matrix"][point][direction] == verdict


class TestMc:
    def mc_doc(self, k=0.3, n=50_000, seed=11):
        return {
            "protocol": dict(BASE_PROTOCOL, k=k),
            "mc": {"n": n, "seed": seed},
        }

    def test_deterministic_output(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.mc_doc())
        r1 = runner.invoke(cli.main, ["mc", "--config", path])
        r2 = runner.invoke(cli.main, ["mc", "--config", path])
        assert r1.exit_code == 0, r1.output
        assert r1.output == r2.output

    def test_seed_override_changes_output(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.mc_doc())
        r1 = runner.invoke(cli.main, ["mc", "--config", path])
        r2 = runner.invoke(cli.main, ["mc", "--config", path, "--seed", "12"])
        assert r1.output != r2.output

    def test_assume_no_leakage_flags_overestimate(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.mc_doc(k=0.5, n=200_000, seed=7))
        result = runner.invoke(cli.main, ["mc", "--config", path, "--assume-no-leakage"])
        assert result.exit_code == cli.EXIT_NO_SECURITY
        assert json.loads(result.stdout)["verdict"] == "overestimates key"

    @pytest.mark.parametrize("args", [[], ["--assume-no-leakage"]])
    def test_reports_where_the_five_mode_state_fails_its_check(self, runner, tmp_path, args):
        # reduced_state raises UnphysicalState at this point; key_rate is finite
        protocol = {"V_M": 1e3, "k": 1.89, "eta_Ch": 0.59, "eps_Ch": 0.12, "beta": 0.96}
        path = write_cfg(tmp_path, {"protocol": protocol, "mc": {"n": 1e6, "seed": 1}})
        result = runner.invoke(cli.main, ["mc", "--config", path, *args])
        report = json.loads(result.stdout)
        assert result.exit_code == (2 if report["verdict"] == "overestimates key" else 0)

    def test_missing_mc_block(self, runner, tmp_path):
        path = write_cfg(tmp_path, {"protocol": BASE_PROTOCOL})
        result = runner.invoke(cli.main, ["mc", "--config", path])
        assert result.exit_code == 1

    def test_sample_count_floor(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.mc_doc(n=100))
        result = runner.invoke(cli.main, ["mc", "--config", path])
        assert_one_error(result, "at least 1000 samples, got 100")

    def test_sample_count_ceiling(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.mc_doc(n=1e30))
        result = runner.invoke(cli.main, ["mc", "--config", path])
        assert_one_error(result, "at most 2**53 samples")

    @pytest.mark.parametrize(
        "doc, args",
        [
            ({"mc": {"n": 2000.7, "seed": 1}}, []),
            ({"mc": {"n": float("inf"), "seed": 1}}, []),
            ({"mc": {"n": 2000, "seed": 1.5}}, []),
            ({"mc": {"n": 2000, "seed": -3}}, []),
            ({"mc": {"n": 2000, "seed": 1}}, ["--seed", "-3"]),
            ({"mc": {"n": 2000, "seed": 1}, "protocol": dict(BASE_PROTOCOL, block_size=2.5)}, []),
        ],
    )
    def test_bad_count_seed_or_block_size_exits_1(self, runner, tmp_path, doc, args):
        path = write_cfg(tmp_path, {"protocol": BASE_PROTOCOL, **doc})
        result = runner.invoke(cli.main, ["mc", "--config", path, *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output
        assert "Traceback" not in result.output


class TestMetadata:
    DOCS = {
        "keyrate": {"protocol": BASE_PROTOCOL},
        "sweep": {"protocol": dict(BASE_PROTOCOL, k={"start": 0.0, "stop": 0.6, "points": 3})},
        "table1": {"protocol": dict(BASE_PROTOCOL, eta_D=0.85, eps_D=0.01)},
        "mc": {"protocol": BASE_PROTOCOL, "mc": {"n": 5_000, "seed": 3}},
    }

    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_version_and_resolved_config(self, runner, tmp_path, command):
        from modleak.config import parse_config

        doc = self.DOCS[command]
        args = [command, "--config", write_cfg(tmp_path, doc)]
        if command == "sweep":
            args += ["--format", "json"]
        result = runner.invoke(cli.main, args)
        assert result.exit_code in (0, cli.EXIT_NO_SECURITY), result.output
        metadata = json.loads(result.stdout)["metadata"]
        assert metadata["modleak_version"] == modleak.__version__
        assert parse_config(metadata["config"]) == parse_config(doc)
        assert metadata["rng_algorithm"] == "PCG64"


class TestInputsAndOutputs:
    """Every command reads its config and writes its output the same way."""

    COMMANDS = {
        "keyrate": ["keyrate"],
        "sweep-csv": ["sweep"],
        "sweep-json": ["sweep", "--format", "json"],
        "table1": ["table1"],
        "mc": ["mc"],
    }

    def args(self, tmp_path, name):
        command = self.COMMANDS[name]
        doc = TestMetadata.DOCS[command[0]]
        return [*command, "--config", write_cfg(tmp_path, doc)]

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_out_file_holds_the_stdout_bytes(self, runner, tmp_path, name):
        args = self.args(tmp_path, name)
        echoed = runner.invoke(cli.main, args)
        assert echoed.exit_code in (0, cli.EXIT_NO_SECURITY), echoed.output
        out = tmp_path / "out"
        written = runner.invoke(cli.main, [*args, "--out", str(out)])
        assert written.exit_code == echoed.exit_code
        assert written.stdout_bytes == b""
        assert out.read_bytes() == echoed.stdout_bytes

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_outputs_path_holds_the_out_bytes_and_out_wins(self, runner, tmp_path, name):
        """A config's outputs.path gets what --out would, which is what stdout would."""
        command = self.COMMANDS[name]
        configured, given = tmp_path / "configured", tmp_path / "given"
        doc = dict(TestMetadata.DOCS[command[0]], outputs={"path": str(configured)})
        args = [*command, "--config", write_cfg(tmp_path, doc)]
        written = runner.invoke(cli.main, args)
        assert written.exit_code in (0, cli.EXIT_NO_SECURITY), written.output
        assert written.stdout_bytes == b""
        configured_bytes = configured.read_bytes()
        configured.unlink()
        overridden = runner.invoke(cli.main, [*args, "--out", str(given)])
        assert overridden.exit_code == written.exit_code
        assert overridden.stdout_bytes == b""
        assert not configured.exists()
        assert given.read_bytes() == configured_bytes

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_unwritable_out_exits_1(self, runner, tmp_path, name):
        out = str(tmp_path / "missing" / "out")
        result = runner.invoke(cli.main, [*self.args(tmp_path, name), "--out", out])
        assert_one_error(result, out)

    @pytest.mark.parametrize("command", ["keyrate", "table1", "mc"])
    def test_sweep_config_needs_sweep_command(self, runner, tmp_path, command):
        doc = dict(TestMetadata.DOCS["sweep"], mc={"n": 5_000})
        result = runner.invoke(cli.main, [command, "--config", write_cfg(tmp_path, doc)])
        assert_one_error(result, "'k'", "sweep command")

    @pytest.mark.parametrize("command", ["keyrate", "sweep", "table1", "mc"])
    @pytest.mark.parametrize(
        "content",
        [
            b"protocol: {V_M: 5.0\n",
            b"protocol:\n  V_M: \xff\xfe\n",
            b"protocol:\n  V_M: 2001-13-45\n",
        ],
        ids=["malformed", "not-utf8", "impossible-date"],
    )
    def test_file_that_is_not_yaml_exits_1(self, runner, tmp_path, command, content):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(content)
        result = runner.invoke(cli.main, [command, "--config", str(path)])
        assert_one_error(result, str(path))

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["keyrate"], "--config"),
            (["keyrate", "--config", "missing.yaml"], "missing.yaml"),
            (["keyrate", "--config", "cfg.yaml", "--direction", "xx"], "--direction"),
            (["mc", "--config", "cfg.yaml", "--seed", "abc"], "--seed"),
            (["frobnicate"], "frobnicate"),
        ],
        ids=["no-config", "missing-config", "bad-choice", "bad-integer", "unknown-command"],
    )
    def test_usage_error_exits_1(self, runner, tmp_path, argv, fragment):
        write_cfg(tmp_path, TestMetadata.DOCS["mc"])
        argv = [str(tmp_path / arg) if arg.endswith(".yaml") else arg for arg in argv]
        assert_one_error(runner.invoke(cli.main, argv), fragment)

    @pytest.mark.parametrize("argv", [["--help"], ["mc", "--help"]])
    def test_help_exits_0(self, runner, argv):
        result = runner.invoke(cli.main, argv)
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage:")


class TestSweepRowsHelper:
    def test_matches_library_pointwise(self, tmp_path):
        from modleak.config import parse_config

        cfg = parse_config(
            {"protocol": dict(BASE_PROTOCOL, eps_Ch={"start": 0.0, "stop": 0.1, "points": 3})}
        )
        rows = cli.sweep_rows(cfg)
        for row, eps in zip(rows, (0.0, 0.05, 0.1)):
            p = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.6, eps_ch=eps, beta=0.96)
            rep = sec.key_rate(p)
            assert row["R_DR"] == pytest.approx(rep.r_dr)
            assert row["dR_RR"] == pytest.approx(sec.leakage_penalty(p, "rr"))

    def test_optimize_needs_single_direction(self):
        from modleak.config import parse_config
        from modleak.errors import InvalidArgument

        cfg = parse_config(TestMetadata.DOCS["sweep"])
        with pytest.raises(InvalidArgument, match="--direction dr or rr"):
            cli.sweep_rows(cfg, "both", optimize_vm=True)

    def test_each_row_evaluates_point_and_twin_once(self, evaluated_points):
        from modleak.config import parse_config

        cfg = parse_config(
            {"protocol": dict(BASE_PROTOCOL, eps_Ch={"start": 0.0, "stop": 0.1, "points": 3})}
        )
        cli.sweep_rows(cfg)
        assert len(evaluated_points) == 2 * 3
        assert len(set(evaluated_points)) == 2 * 3


    def test_optimised_rows_evaluate_no_point_twice(self, evaluated_points):
        from modleak.config import parse_config

        cfg = parse_config(
            {"protocol": dict(BASE_PROTOCOL, k={"start": 0.1, "stop": 0.3, "points": 2})}
        )
        rows = cli.sweep_rows(cfg, "rr", optimize_vm=True, with_eta_max=True)
        assert len(set(evaluated_points)) == len(evaluated_points)
        for row in rows:
            optimum = dataclasses.replace(cfg.params_at(row["sweep_var"]), v_m=row["V_M"])
            assert evaluated_points.count(optimum) == 1

    def test_rounds_of_known_points_evaluate_nothing(self, monkeypatch, evaluated_batches):
        from modleak.config import parse_config

        # the row's own round [p, p0] comes after the loss margins, which asked for both
        search_row, logs = cli._search_row, []

        def recorded(*args):
            """`_search_row(*args)`, logging each request with the passes made before it."""
            search, log, reports = search_row(*args), [], None
            logs.append(log)
            try:
                while True:
                    request = search.send(reports)
                    log.append((list(request), len(evaluated_batches)))
                    reports = yield request
            except StopIteration as stop:
                return stop.value

        monkeypatch.setattr(cli, "_search_row", recorded)
        cfg = parse_config(
            {
                "protocol": {"V_M": 5.0, "eta_Ch": 0.9, "eps_Ch": 0.02, "beta": 0.96},
                "modulator": {"rho": {"start": -5.0, "stop": 4.0, "points": 2}},
            }
        )
        rows = cli.sweep_rows(cfg, "rr", optimize_vm=True, with_eta_max=True)
        assert len(logs) == len(rows) == 2
        for row, log in zip(rows, logs):
            p = dataclasses.replace(cfg.params_at(row["sweep_var"]), v_m=row["V_M"])
            request, passes = log[-1]
            assert request == [p, dataclasses.replace(p, k=0.0)]
            # both points were evaluated before the round was asked, and never after
            assert [q for batch in evaluated_batches[:passes] for q in batch if q in request] == request
            assert not any(q in request for batch in evaluated_batches[passes:] for q in batch)
        # the last round, the rows' own, makes no pass
        assert len(evaluated_batches) == max(log[-1][1] for log in logs)
        assert min(len(batch) for batch in evaluated_batches) > 0

    def test_margins_ask_for_both_ends_with_the_row(self, evaluated_batches):
        from modleak.config import parse_config

        # the optimum p is known from the V_M search; its twin p0 is new and is
        # evaluated together with both points' 60 dB ends
        cfg = parse_config(
            {
                "protocol": {"V_M": 5.0, "eta_Ch": 0.9, "eps_Ch": 0.02, "beta": 0.96},
                "modulator": {"rho": {"start": -5.0, "stop": 4.0, "points": 2}},
            }
        )
        rows = cli.sweep_rows(cfg, "rr", optimize_vm=True, with_eta_max=True)
        loss = 10.0 ** (-sec.MAX_ADDITIONAL_LOSS_DB / 10.0)
        for row in rows:
            p = dataclasses.replace(cfg.params_at(row["sweep_var"]), v_m=row["V_M"])
            p0 = dataclasses.replace(p, k=0.0)
            [batch] = [batch for batch in evaluated_batches if p0 in batch]
            for q in (p, p0):
                assert dataclasses.replace(q, eta_ch=q.eta_ch * loss) in batch

    @pytest.mark.parametrize("x", [0.8, 2.5, 4.0, 5.5, 6.0])
    def test_two_row_sweep_takes_at_most_18_rounds(self, evaluated_batches, x):
        from modleak.config import parse_config

        # the benchmark's item; with one golden step per round it took 21-24 rounds
        cfg = parse_config(
            {
                "protocol": {"V_M": 5.0, "eta_Ch": 0.9, "eps_Ch": 0.02, "beta": 0.96},
                "modulator": {"rho": {"start": -x, "stop": x, "points": 2}},
            }
        )
        cli.sweep_rows(cfg, "rr", optimize_vm=True, with_eta_max=True)
        assert len(evaluated_batches) <= 18

    @pytest.mark.parametrize("x", [0.8, 4.0])
    def test_mirrored_rows_are_one_search(self, evaluated_batches, x):
        from modleak.config import parse_config

        # rho and -rho give one point, so the benchmark's item is the search
        # of one row, up to 16 golden points a round
        cfg = parse_config(
            {
                "protocol": {"V_M": 5.0, "eta_Ch": 0.9, "eps_Ch": 0.02, "beta": 0.96},
                "modulator": {"rho": {"start": -x, "stop": x, "points": 2}},
            }
        )
        rows = cli.sweep_rows(cfg, "rr", optimize_vm=True, with_eta_max=True)
        mirrored = [list(batch) for batch in evaluated_batches]
        evaluated_batches.clear()
        p, report, twin, margins = sec.drive(cli._search_row(cfg.params_at(x), "rr", True, True, 1))
        assert mirrored == evaluated_batches
        assert {**rows[0], "sweep_var": x} == rows[1]
        assert (rows[1]["V_M"], rows[1]["R_RR"]) == (p.v_m, report.r_rr)
        assert rows[1]["eta_max_RR_dB"] == margins[2].db

    def test_21_row_sweep_keeps_one_step_rounds(self, evaluated_batches):
        from modleak.config import parse_config

        # criterion 6's sweep, optimised: 11 searches share each round, 1 golden
        # point each, so its rounds are those of one golden step per round, batch
        # for batch.  k is exactly even in rho, so each mirrored pair of rows is
        # one search: 11 |rho| values, 754 points in 19 rounds, the margins' Brent
        # steps on the squared transmittance factor u = t^2 (on t they took 21
        # rounds over 792 points)
        cfg = parse_config(
            {
                "protocol": {"V_M": 5.0, "eta_Ch": 0.99, "eps_Ch": 0.02, "beta": 0.96},
                "modulator": {
                    "rho": {"start": -10.0, "stop": 10.0, "points": 21},
                    "k_floor": 0.0631,
                },
            }
        )
        rows = cli.sweep_rows(cfg, "rr", optimize_vm=True, with_eta_max=True)
        sizes = [440, 21, 11, 11, 11, 11, 11, 11, 11, 13, 19, 26]
        sizes += [32, 32, 32, 32, 19, 8, 3]
        assert [len(batch) for batch in evaluated_batches] == sizes
        for row, mirror in zip(rows, rows[::-1]):
            assert row["sweep_var"] == -mirror["sweep_var"]
            assert {**row, "sweep_var": 0.0} == {**mirror, "sweep_var": 0.0}

    def test_benchmark_setup_sweep_rounds(self, evaluated_batches):
        from modleak.config import parse_config

        # the benchmark's set-up sweep, |rho| = 3 dB mirrored, is one search: the
        # V_M grid, one golden round over [x1, x2] and the 9 predicted steps to
        # the stopping rule, the margins' ends round (p0 and both 60 dB ends),
        # then 6 lockstep Brent rounds on u = t^2 (on t there were 8: 4, 4, 4, 4,
        # 2, 2, 2, 2)
        cfg = parse_config(
            {
                "protocol": {"V_M": 5.0, "eta_Ch": 0.9, "eps_Ch": 0.02, "beta": 0.96},
                "modulator": {"rho": {"start": -3.0, "stop": 3.0, "points": 2}},
            }
        )
        cli.sweep_rows(cfg, "rr", optimize_vm=True, with_eta_max=True)
        sizes = [40, 11, 3, 3, 4, 4, 4, 4, 4, 1]
        assert [len(batch) for batch in evaluated_batches] == sizes

    @pytest.mark.parametrize("x, passes, points", [(0.8, 9, 76), (2.5, 10, 76), (4.0, 9, 74), (5.5, 9, 73)])
    def test_mirrored_row_passes_and_points(self, evaluated_batches, x, passes, points):
        from modleak.config import parse_config

        # one mirrored row from each |rho| stratum of the benchmark
        cfg = parse_config(
            {
                "protocol": {"V_M": 5.0, "eta_Ch": 0.9, "eps_Ch": 0.02, "beta": 0.96},
                "modulator": {"rho": {"start": -x, "stop": x, "points": 2}},
            }
        )
        cli.sweep_rows(cfg, "rr", optimize_vm=True, with_eta_max=True)
        assert len(evaluated_batches) == passes
        assert sum(len(batch) for batch in evaluated_batches) == points

    def test_lockstep_rows_equal_public_calls(self):
        from modleak.config import parse_config

        cfg = parse_config(
            {
                "protocol": {"V_M": 5.0, "eta_Ch": 0.9, "eps_Ch": 0.02, "beta": 0.96},
                "modulator": {"rho": {"start": -5.0, "stop": 4.0, "points": 4}},
            }
        )
        rows = cli.sweep_rows(cfg, "rr", optimize_vm=True, with_eta_max=True)
        flags = set()
        for row in rows:
            p = cfg.params_at(row["sweep_var"])
            p = dataclasses.replace(p, v_m=sec.optimize_vm(p, "rr").v_m)
            p0 = dataclasses.replace(p, k=0.0)
            report, twin = sec.key_rate(p), sec.key_rate(p0)
            expected = {
                "sweep_var": row["sweep_var"],
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
            }
            for tag, d in (("DR", "dr"), ("RR", "rr")):
                margin, margin0 = sec.max_additional_loss(p, d), sec.max_additional_loss(p0, d)
                expected[f"eta_max_{tag}_dB"] = margin.db
                expected[f"d_eta_{tag}_dB"] = margin0.db - margin.db
                flags.add(margin.flag)
            assert row == expected
        assert flags == {"ok", "no-positive-key"}


@pytest.mark.parametrize("overflowing", [{"V_M": 1e200}, {"k": 1e200}])
def test_overflowing_point_prints_one_error_line(tmp_path, overflowing):
    # the command as run from a shell, whose default warning filter would
    # print any floating-point warning before the error line
    src = str(Path(modleak.__file__).resolve().parents[1])
    path = write_cfg(tmp_path, {"protocol": dict(BASE_PROTOCOL, **overflowing)})
    code = f"import sys; sys.path.insert(0, {src!r}); from modleak import cli; cli.main()"
    result = subprocess.run(
        [sys.executable, "-c", code, "keyrate", "--config", path], capture_output=True, text=True
    )
    assert result.returncode == 1
    assert result.stderr == "error: covariance matrix has non-finite entries\n"
    assert result.stdout == ""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    src = str(Path(modleak.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import modleak.cli; "
        "print('scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"

    path = write_cfg(tmp_path, {"protocol": dict(BASE_PROTOCOL, k={"start": 0.1, "stop": 0.3, "points": 2})})
    argv = ["sweep", "--config", path, "--direction", "rr", "--optimize-vm", "--with-eta-max"]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from modleak import cli; "
        f"cli.main({argv!r}, standalone_mode=False); print('scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    lines = result.stdout.strip().split("\n")
    assert lines[0].startswith("sweep_var,") and len(lines) == 4
    assert lines[-1] == "False"


class TestCommandsBuildNoState:
    """No command builds a `CovMatrix`: the key-rate pass and the Monte-Carlo
    closure check their states with `gaussian.checked_spectrum` alone."""

    SWEEP = {"protocol": dict(BASE_PROTOCOL, k={"start": 0.0, "stop": 0.6, "points": 3})}
    TABLE = {"protocol": dict(BASE_PROTOCOL, eta_D=0.85, eps_D=0.01)}
    RUNS = {
        "keyrate": ({"protocol": BASE_PROTOCOL}, []),
        "keyrate dr": ({"protocol": BASE_PROTOCOL}, ["--direction", "dr"]),
        "keyrate dr no key": ({"protocol": dict(BASE_PROTOCOL, k=1.0)}, ["--direction", "dr"]),
        "keyrate rr": ({"protocol": BASE_PROTOCOL}, ["--direction", "rr"]),
        "keyrate rr optimized": ({"protocol": BASE_PROTOCOL}, ["--direction", "rr", "--optimize-vm"]),
        "sweep": (SWEEP, ["--direction", "rr", "--optimize-vm", "--with-eta-max"]),
        "table1": (TABLE, []),
        "mc": ({"protocol": BASE_PROTOCOL, "mc": {"n": 50_000, "seed": 11}}, []),
        "mc blind": (
            {"protocol": dict(BASE_PROTOCOL, k=0.5), "mc": {"n": 200_000, "seed": 7}},
            ["--assume-no-leakage"],
        ),
    }

    def test_runs_end_with_both_exit_codes(self, runner, tmp_path):
        codes = set()
        for name, (doc, args) in self.RUNS.items():
            path = write_cfg(tmp_path, doc)
            codes.add(runner.invoke(cli.main, [name.split()[0], "--config", path, *args]).exit_code)
        assert codes == {0, cli.EXIT_NO_SECURITY}

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_exits_as_it_does_with_the_state_calculus(self, runner, tmp_path, monkeypatch, name):
        doc, args = self.RUNS[name]
        argv = [name.split()[0], "--config", write_cfg(tmp_path, doc), *args]
        normal = runner.invoke(cli.main, argv)
        assert normal.exit_code in (0, cli.EXIT_NO_SECURITY), normal.output

        def refuse(state):
            raise AssertionError("a command built a CovMatrix")

        monkeypatch.setattr(g.CovMatrix, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="built a CovMatrix"):
            g.vacuum(("a",))
        result = runner.invoke(cli.main, argv)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert (result.exit_code, result.stdout, result.stderr) == (
            normal.exit_code,
            normal.stdout,
            normal.stderr,
        )


class TestReadmeExample:
    """The README's example config, its first yaml block, run with the README's
    command lines for it: the documented exit codes and JSON keys."""

    README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    REPORT_KEYS = {
        "i_ab", "chi_dr", "chi_rr", "r_dr", "r_rr", "r_dr_clamped", "r_rr_clamped",
        "finite_size_penalty",
    }

    def run(self, runner, tmp_path, command: str):
        """The README's `modleak <command> --config point.yaml ...` line, run on
        its example config: the result and the JSON it printed."""
        [config] = re.findall(r"```yaml\n(.*?)```", self.README, re.S)[:1]
        (tmp_path / "point.yaml").write_text(config, encoding="utf-8")
        lines = re.findall(rf"^modleak {command} --config point\.yaml.*$", self.README, re.M)
        assert lines, f"the README has no `modleak {command}` line for point.yaml"
        results = []
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            argv[argv.index("point.yaml")] = str(tmp_path / "point.yaml")
            result = runner.invoke(cli.main, argv)
            payload = json.loads(result.stdout)
            assert {"modleak_version", "config"} <= set(payload["metadata"])
            results.append((argv, result, payload))
        return results

    def test_keyrate(self, runner, tmp_path):
        [(argv, result, payload)] = self.run(runner, tmp_path, "keyrate")
        assert argv[3:] == ["--direction", "rr", "--optimize-vm"]
        assert set(payload) == {"params", "metadata", "report"}
        assert set(payload["report"]) == self.REPORT_KEYS
        # exit 0 on a positive key
        assert payload["report"]["r_rr"] > 0.0 and result.exit_code == 0

    def test_table1(self, runner, tmp_path):
        [(_, result, payload)] = self.run(runner, tmp_path, "table1")
        assert result.exit_code == 0, result.output
        assert set(payload["matrix"]) == set(sec.NOISE_POINTS)

    def test_mc(self, runner, tmp_path):
        runs = self.run(runner, tmp_path, "mc")
        assert [argv[3:] for argv, _, _ in runs] == [["--seed", "42"], ["--assume-no-leakage"]]
        for _, result, payload in runs:
            assert {"verdict", "skipped_se_terms", "seed"} <= set(payload)
            assert payload["seed"] == 42
            # exit 2 on an overestimate, else 0
            overestimates = payload["verdict"] == "overestimates key"
            assert result.exit_code == (cli.EXIT_NO_SECURITY if overestimates else 0)
