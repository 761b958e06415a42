import numpy as np
import pytest

from modleak import config as cfgmod
from modleak.errors import InvalidArgument

BASE = {
    "protocol": {
        "V_M": 5.0,
        "k": 0.3,
        "eta_Ch": 0.6,
        "eps_Ch": 0.02,
        "beta": 0.96,
    }
}


class TestParse:
    def test_minimal(self):
        cfg = cfgmod.parse_config({"protocol": {"V_M": 2.0}})
        p = cfg.params_at()
        assert p.v_m == 2.0
        assert p.k == 0.0

    def test_full_point(self):
        p = cfgmod.parse_config(BASE).params_at()
        assert (p.v_m, p.k, p.eta_ch, p.eps_ch, p.beta) == (5.0, 0.3, 0.6, 0.02, 0.96)

    def test_missing_modulation_variance(self):
        with pytest.raises(InvalidArgument, match="V_M"):
            cfgmod.parse_config({"protocol": {"k": 0.1}})

    def test_unknown_protocol_key_named_in_error(self):
        raw = {"protocol": {"V_M": 1.0, "eta_Chh": 0.5}}
        with pytest.raises(InvalidArgument, match="eta_Chh"):
            cfgmod.parse_config(raw)

    def test_unknown_top_level_key(self):
        with pytest.raises(InvalidArgument, match="protocl"):
            cfgmod.parse_config({"protocl": {"V_M": 1.0}})

    def test_unknown_sweep_key(self):
        raw = {"protocol": {"V_M": {"start": 1, "stop": 2, "points": 3, "step": 1}}}
        with pytest.raises(InvalidArgument, match="step"):
            cfgmod.parse_config(raw)

    def test_bad_scale(self):
        raw = {"protocol": {"V_M": {"start": 1, "stop": 2, "points": 3, "scale": "db"}}}
        with pytest.raises(InvalidArgument):
            cfgmod.parse_config(raw)

    def test_non_numeric_field(self):
        with pytest.raises(InvalidArgument):
            cfgmod.parse_config({"protocol": {"V_M": "five"}})

    @pytest.mark.parametrize(
        "raw",
        [
            dict(BASE, protocol=dict(BASE["protocol"], block_size=2.5)),
            dict(BASE, protocol=dict(BASE["protocol"], block_size=float("inf"))),
            dict(BASE, mc={"n": 2000.7}),
            dict(BASE, mc={"n": float("inf")}),
            dict(BASE, mc={"n": float("nan")}),
            dict(BASE, mc={"n": 2000, "seed": 3.5}),
            dict(BASE, mc={"n": True}),
            dict(BASE, mc={"n": "2000"}),
            {"protocol": {"V_M": {"start": 1.0, "stop": 5.0, "points": 2.7}}},
        ],
    )
    def test_integer_fields_must_be_finite_integers(self, raw):
        with pytest.raises(InvalidArgument, match="finite integer"):
            cfgmod.parse_config(raw).params_at()

    def test_integral_floats_accepted_as_integers(self):
        protocol = dict(BASE["protocol"], block_size=1e7)
        raw = dict(BASE, protocol=protocol, mc={"n": 2000.0, "seed": 3.0})
        cfg = cfgmod.parse_config(raw)
        assert cfg.mc == {"n": 2000, "seed": 3}
        assert all(type(v) is int for v in cfg.mc.values())
        assert cfg.params_at().block_size == 10**7

    def test_bad_output_format(self):
        raw = dict(BASE, outputs={"format": "xml"})
        with pytest.raises(InvalidArgument):
            cfgmod.parse_config(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            None,
            [BASE],
            {"mc": {"n": 2000}},
            {"protocol": 5},
            dict(BASE, modulator=7),
            dict(BASE, outputs=3),
            dict(BASE, mc=3),
            dict(BASE, modulator={"k_floor": [1]}),
            dict(BASE, modulator={"rho": 1.0, "k_floor": "0.1"}),
            {"protocol": {"V_M": {"start": [1], "stop": 5.0, "points": 3}}},
            {"protocol": {"V_M": {"start": 1.0, "stop": True, "points": 3}}},
            {"protocol": {"V_M": {"start": 1.0, "stop": 5.0, "points": 3, "scale": [1]}}},
            {"protocol": {"V_M": 10**400}},
            dict(BASE, outputs={"path": 7}),
            {"protocol": {"V_M": 5.0, 1: 2.0, "x": 3.0}},
        ],
    )
    def test_malformed_block_rejected(self, raw):
        with pytest.raises(InvalidArgument):
            cfgmod.parse_config(raw)


class TestSweepAxis:
    def test_single_axis(self):
        raw = {"protocol": dict(BASE["protocol"], k={"start": 0, "stop": 1, "points": 5})}
        cfg = cfgmod.parse_config(raw)
        name, sweep = cfg.sweep_axis
        assert name == "k"
        assert np.allclose(sweep.values(), np.linspace(0.0, 1.0, 5))

    def test_two_axes_rejected(self):
        raw = {
            "protocol": dict(
                BASE["protocol"],
                k={"start": 0, "stop": 1, "points": 5},
                eps_Ch={"start": 0, "stop": 0.1, "points": 5},
            )
        }
        with pytest.raises(InvalidArgument):
            cfgmod.parse_config(raw)

    def test_rho_counts_as_axis(self):
        raw = dict(
            BASE, modulator={"rho": {"start": -10, "stop": 10, "points": 21}}
        )
        cfg = cfgmod.parse_config(raw)
        assert cfg.sweep_axis[0] == "rho"

    def test_rho_plus_protocol_sweep_rejected(self):
        raw = {
            "protocol": dict(BASE["protocol"], k={"start": 0, "stop": 1, "points": 3}),
            "modulator": {"rho": {"start": -1, "stop": 1, "points": 3}},
        }
        with pytest.raises(InvalidArgument):
            cfgmod.parse_config(raw)

    def test_k_sweep_under_fixed_rho_rejected(self):
        # rho sets k, so every row would be at the same k
        raw = {
            "protocol": dict(BASE["protocol"], k={"start": 0, "stop": 0.5, "points": 3}),
            "modulator": {"rho": -2},
        }
        with pytest.raises(InvalidArgument, match="modulator.rho sets k"):
            cfgmod.parse_config(raw)

    @pytest.mark.parametrize(
        "sweep",
        [
            cfgmod.Sweep(0.0, 1.0, 3, "log"),
            cfgmod.Sweep(1.0, -1.0, 3, "log"),
        ],
    )
    def test_log_sweep_needs_positive_bounds(self, sweep):
        with pytest.raises(InvalidArgument):
            sweep.values()

    def test_largest_sweep_accepted(self):
        assert len(cfgmod.Sweep(0.0, 1.0, 1000).values()) == 1000

    def test_log_scale_values(self):
        sweep = cfgmod.Sweep(0.01, 100.0, 5, "log")
        assert np.allclose(sweep.values(), np.logspace(-2, 2, 5))

    @pytest.mark.parametrize(
        "start, stop, points",
        [(0.3, 30.0, 7), (0.01, 100.0, 40), (2.0, 0.07, 5), (1e-3, 0.9, 11), (5.0, 5.0, 3)],
    )
    def test_log_sweep_hits_its_bounds(self, start, stop, points):
        values = cfgmod.Sweep(start, stop, points, "log").values()
        assert values[0] == start
        assert values[-1] == stop

    def test_db_axis_converts_to_transmittance(self):
        raw = {
            "protocol": dict(
                BASE["protocol"],
                eta_Ch={"start": 0.5, "stop": 10.0, "points": 3, "scale": "dB"},
            )
        }
        cfg = cfgmod.parse_config(raw)
        p = cfg.params_at(3.0)
        assert p.eta_ch == pytest.approx(10.0 ** (-0.3))
        with pytest.raises(InvalidArgument, match="loss must be >= 0 dB"):
            cfg.params_at(-4000.0)


    @pytest.mark.parametrize("axis", ["V_M", "k", "eps_Ch", "beta"])
    def test_db_scale_only_on_loss_and_rho(self, axis):
        raw = {"protocol": dict(BASE["protocol"])}
        raw["protocol"][axis] = {"start": 1.0, "stop": 20.0, "points": 3, "scale": "dB"}
        with pytest.raises(InvalidArgument, match=f"scale dB applies only to eta_Ch and rho, not '{axis}'"):
            cfgmod.parse_config(raw)

    def test_rho_db_sweep_is_linear_in_db(self):
        raw = {"protocol": {"V_M": 5.0}, "modulator": {"rho": {"start": -6, "stop": 6, "points": 5}}}
        linear = cfgmod.parse_config(raw)
        raw["modulator"]["rho"]["scale"] = "dB"
        db = cfgmod.parse_config(raw)
        name, sweep = db.sweep_axis
        assert name == "rho"
        assert np.array_equal(sweep.values(), linear.sweep_axis[1].values())
        assert [db.params_at(v) for v in sweep.values()] == [
            linear.params_at(v) for v in sweep.values()
        ]


class TestModulatorBlock:
    def test_rho_sets_k(self):
        raw = dict(BASE, modulator={"rho": 10.0 * np.log10(0.5), "k_floor": 0.0})
        p = cfgmod.parse_config(raw).params_at()
        assert p.k == pytest.approx(1.0 / 3.0)

    def test_default_floor_applies(self):
        raw = dict(BASE, modulator={"rho": 0.0})
        p = cfgmod.parse_config(raw).params_at()
        assert p.k == pytest.approx(0.0631, abs=1e-4)

    def test_rho_sweep_symmetric_k(self):
        raw = dict(
            BASE, modulator={"rho": {"start": -4, "stop": 4, "points": 9}, "k_floor": 0.0}
        )
        cfg = cfgmod.parse_config(raw)
        ks = [cfg.params_at(v).k for v in cfg.sweep_axis[1].values()]
        assert np.allclose(ks, ks[::-1])

    def test_rho_out_of_range(self):
        raw = dict(BASE, modulator={"rho": 4000.0})
        with pytest.raises(InvalidArgument, match="out of range"):
            cfgmod.parse_config(raw).params_at()

    def test_bad_convention(self):
        raw = dict(BASE, modulator={"rho": 1.0, "rho_convention": "power"})
        with pytest.raises(InvalidArgument):
            cfgmod.parse_config(raw)

    @pytest.mark.parametrize(
        "modulator",
        [
            {"k_floor": 0.5},
            {"rho_convention": "amplitude20"},
            {"k_floor": 0.1, "rho_convention": "amplitude10"},
        ],
    )
    def test_floor_or_convention_without_rho_rejected(self, modulator):
        raw = {"protocol": {"V_M": 5}, "modulator": modulator}
        with pytest.raises(InvalidArgument, match="need modulator.rho"):
            cfgmod.parse_config(raw)


class TestRoundTrip:
    def test_dump_parse_idempotent(self):
        import yaml

        raw = {
            "protocol": dict(BASE["protocol"], eps_D=0.01, eta_D=0.85),
            "modulator": {"rho": {"start": -10, "stop": 10, "points": 21}},
            "outputs": {"path": "out.csv", "format": "csv"},
            "mc": {"n": 10000, "seed": 3},
        }
        cfg = cfgmod.parse_config(raw)
        again = cfgmod.parse_config(yaml.safe_load(cfgmod.dump_config(cfg)))
        assert again == cfg
        assert cfgmod.dump_config(again) == cfgmod.dump_config(cfg)


class TestLoadConfig:
    @pytest.mark.parametrize(
        "text, field, value",
        [
            ("protocol: {V_M: 1e3}\n", "v_m", 1000.0),
            ("protocol: {V_M: 5, eta_Ch: 0.9, eps_Ch: 2e-2}\n", "eps_ch", 0.02),
            ("protocol: {V_M: 5, block_size: 1.0e6}\n", "block_size", 10**6),
        ],
    )
    def test_reads_yaml_1_2_floats(self, tmp_path, text, field, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(text, encoding="utf-8")
        assert getattr(cfgmod.load_config(str(path)).params_at(), field) == value

    def test_reads_sample_count_in_exponent_form(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("protocol: {V_M: 5}\nmc: {n: 1e6, seed: 1}\n", encoding="utf-8")
        n = cfgmod.load_config(str(path)).mc["n"]
        assert n == 10**6 and isinstance(n, int)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('protocol: {V_M: 5}\nmc: {n: "1e6", seed: 1}\n', "mc.n must be a finite integer"),
            ("protocol: {V_M: '1e3'}\n", "must be a number"),
        ],
    )
    def test_quoted_numbers_stay_strings(self, tmp_path, text, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidArgument, match=message):
            cfgmod.load_config(str(path))

    @pytest.mark.parametrize(
        "text, key",
        [
            ("protocol:\n  V_M: 5\n  eta_Ch: 0.9\n  eta_Ch: 0.5\n", "'eta_Ch'"),
            ("protocol: {V_M: 5, eta_Ch: 0.9}\nprotocol: {V_M: 6}\n", "'protocol'"),
        ],
        ids=["field", "block"],
    )
    def test_repeated_key_is_an_error(self, tmp_path, text, key):
        path = tmp_path / "cfg.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidArgument, match=f"duplicate key {key}"):
            cfgmod.load_config(str(path))

    def test_key_may_override_a_merged_key(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("protocol:\n  <<: {V_M: 5, eta_Ch: 0.9}\n  eta_Ch: 0.5\n", encoding="utf-8")
        assert cfgmod.load_config(str(path)).params_at().eta_ch == 0.5
