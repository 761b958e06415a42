import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import modleak
from modleak import cli
from modleak import security as sec

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
        payload = json.loads(result.output)
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
        assert json.loads(result.output)["report"]["r_rr"] > 0.0

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
        r0 = json.loads(base.output)["report"]["r_rr"]
        r1 = json.loads(opt.output)["report"]["r_rr"]
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
        rows = result.output.strip().split("\n")[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[12] != "" and cells[15] != ""
            assert float(cells[15]) >= -1e-9

    def test_json_format(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.sweep_doc())
        result = runner.invoke(cli.main, ["sweep", "--config", path, "--format", "json"])
        payload = json.loads(result.output)
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
        rows = json.loads(result.output)["rows"]
        rates = [r["R_RR"] for r in rows]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_rho_sweep_k_symmetric(self, runner, tmp_path):
        protocol = {k: v for k, v in BASE_PROTOCOL.items() if k != "k"}
        doc = {
            "protocol": protocol,
            "modulator": {"rho": {"start": -6, "stop": 6, "points": 7}, "k_floor": 0.0},
        }
        path = write_cfg(tmp_path, doc)
        result = runner.invoke(cli.main, ["sweep", "--config", path, "--format", "json"])
        ks = [r["k"] for r in json.loads(result.output)["rows"]]
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
        payload = json.loads(result.output)
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
        assert json.loads(result.output)["verdict"] == "overestimates key"

    def test_missing_mc_block(self, runner, tmp_path):
        path = write_cfg(tmp_path, {"protocol": BASE_PROTOCOL})
        result = runner.invoke(cli.main, ["mc", "--config", path])
        assert result.exit_code == 1

    def test_sample_count_floor(self, runner, tmp_path):
        path = write_cfg(tmp_path, self.mc_doc(n=100))
        result = runner.invoke(cli.main, ["mc", "--config", path])
        assert_one_error(result, "at least 1000 samples, got 100")

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
        metadata = json.loads(result.output)["metadata"]
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
