"""Run configuration: YAML ingestion, validation and sweep expansion.

A config is a single YAML file with a `protocol` block (one ProtocolParams
set), and optional `modulator`, `outputs` and `mc` blocks.  Any scalar
protocol field, the channel loss (via eta_Ch with scale dB) or the RF
scaling rho may instead hold a sweep {start, stop, points, scale}; at most
one swept field per run, and scale dB only on eta_Ch and rho.  A fixed rho
sets k, so it overrides a fixed k and rejects a sweep of k.  Unknown keys
and a key given twice are a hard error: silent typos in physics parameters
are unacceptable.
Every command writes to `outputs.path` unless given --out; `format` is sweep's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import InvalidArgument
from .modulator import RHO_CONVENTIONS, rho_to_k
from .security import ProtocolParams, as_integer

PROTOCOL_KEYS = {
    "V_M": "v_m",
    "k": "k",
    "eta_Ch": "eta_ch",
    "eps_Ch": "eps_ch",
    "eta_D": "eta_d",
    "eps_D": "eps_d",
    "eps_P1": "eps_p1",
    "eps_P2": "eps_p2",
    "eps_L": "eps_l",
    "beta": "beta",
    "block_size": "block_size",
}
MODULATOR_KEYS = {"rho", "k_floor", "rho_convention"}
OUTPUTS_KEYS = {"path", "format"}
MC_KEYS = {"n", "seed"}
SWEEP_KEYS = {"start", "stop", "points", "scale"}
SCALES = ("linear", "dB", "log")
DB_AXES = ("eta_Ch", "rho")  # loss in dB, and rho, which is in dB already
# sweep_rows evaluates every row in one batch, at a peak of about 1.9 KiB per point
MAX_SWEEP_POINTS = 1000


@dataclass(frozen=True)
class Sweep:
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def values(self) -> np.ndarray:
        if self.points < 2:
            raise InvalidArgument("sweep needs at least 2 points")
        if self.points > MAX_SWEEP_POINTS:
            raise InvalidArgument(
                f"sweep takes at most {MAX_SWEEP_POINTS} points, got {self.points}"
            )
        if self.scale == "log":
            if self.start <= 0 or self.stop <= 0:
                raise InvalidArgument("log sweep requires positive bounds")
            # geomspace, unlike logspace, returns both bounds exactly
            return np.geomspace(self.start, self.stop, self.points)
        # dB axes are linearly spaced in dB
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunConfig:
    protocol: dict
    modulator: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    mc: dict = field(default_factory=dict)

    @property
    def sweep_axis(self) -> tuple[str, Sweep] | None:
        axes = [(k, v) for k, v in self.protocol.items() if isinstance(v, Sweep)]
        if isinstance(self.modulator.get("rho"), Sweep):
            axes.append(("rho", self.modulator["rho"]))
        if len(axes) > 1:
            raise InvalidArgument(
                f"at most one sweep axis per run, found {[a for a, _ in axes]}"
            )
        return axes[0] if axes else None

    def params_at(self, sweep_value: float | None = None) -> ProtocolParams:
        """ProtocolParams for one point, substituting the swept value if any."""
        values = dict(self.protocol)
        modulator = dict(self.modulator)
        axis = self.sweep_axis
        if axis is not None:
            name, sweep = axis
            if sweep_value is None:
                raise InvalidArgument(
                    f"config sweeps {name!r}: run it with the sweep command, "
                    "or give a fixed config"
                )
            if name == "eta_Ch" and sweep.scale == "dB":
                if sweep_value < 0.0:
                    raise InvalidArgument(f"channel loss must be >= 0 dB, got {sweep_value}")
                sweep_value = 10.0 ** (-sweep_value / 10.0)
            (modulator if name == "rho" else values)[name] = sweep_value
        if "rho" in modulator:
            values["k"] = rho_to_k(modulator.pop("rho"), **modulator)
        return ProtocolParams(**{PROTOCOL_KEYS[key]: float(v) for key, v in values.items()})


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidArgument(f"field {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidArgument(f"field {key!r} is out of range: {value}") from None


def _parse_scalar_or_sweep(key: str, value) -> float | Sweep:
    if isinstance(value, dict):
        unknown = set(value) - SWEEP_KEYS
        if unknown:
            raise InvalidArgument(
                f"unknown sweep key(s) {sorted(unknown, key=str)} under {key!r}"
            )
        missing = {"start", "stop", "points"} - set(value)
        if missing:
            raise InvalidArgument(f"sweep under {key!r} lacks {sorted(missing)}")
        scale = value.get("scale", "linear")
        if scale not in SCALES:
            raise InvalidArgument(f"unknown sweep scale {scale!r} under {key!r}")
        if scale == "dB" and key not in DB_AXES:
            raise InvalidArgument(f"scale dB applies only to {' and '.join(DB_AXES)}, not {key!r}")
        return Sweep(
            start=_number(f"{key}.start", value["start"]),
            stop=_number(f"{key}.stop", value["stop"]),
            points=as_integer(f"{key}.points", value["points"]),
            scale=scale,
        )
    return _number(key, value)


def _block(raw: dict, name: str, keys) -> dict:
    """The named block of a config, {} when absent or null: a mapping of known keys."""
    block = raw.get(name)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise InvalidArgument(f"{name!r} block must be a mapping, got {block!r}")
    unknown = set(block) - set(keys)
    if unknown:
        raise InvalidArgument(f"unknown {name} key(s) {sorted(unknown, key=str)}")
    return block


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise InvalidArgument("config root must be a mapping")
    unknown = set(raw) - {"protocol", "modulator", "outputs", "mc"}
    if unknown:
        raise InvalidArgument(f"unknown top-level key(s) {sorted(unknown, key=str)}")
    if "protocol" not in raw:
        raise InvalidArgument("config lacks the required 'protocol' block")

    protocol_raw = _block(raw, "protocol", PROTOCOL_KEYS)
    if "V_M" not in protocol_raw:
        raise InvalidArgument("protocol block lacks the required key 'V_M'")
    protocol = {k: _parse_scalar_or_sweep(k, v) for k, v in protocol_raw.items()}

    modulator = dict(_block(raw, "modulator", MODULATOR_KEYS))
    if modulator and "rho" not in modulator:
        raise InvalidArgument(f"modulator key(s) {sorted(modulator, key=str)} need modulator.rho")
    if "rho" in modulator:
        modulator["rho"] = _parse_scalar_or_sweep("rho", modulator["rho"])
    if "k_floor" in modulator:
        modulator["k_floor"] = _number("k_floor", modulator["k_floor"])
    if "rho_convention" in modulator and modulator["rho_convention"] not in RHO_CONVENTIONS:
        raise InvalidArgument(
            f"unknown rho_convention {modulator['rho_convention']!r}"
        )

    outputs = dict(_block(raw, "outputs", OUTPUTS_KEYS))
    if outputs.get("format") not in (None, "csv", "json"):
        raise InvalidArgument(f"unknown output format {outputs['format']!r}")
    if "path" in outputs and not isinstance(outputs["path"], str):
        raise InvalidArgument(f"outputs.path must be a string, got {outputs['path']!r}")

    mc = {k: as_integer(f"mc.{k}", v) for k, v in _block(raw, "mc", MC_KEYS).items()}

    cfg = RunConfig(protocol=protocol, modulator=modulator, outputs=outputs, mc=mc)
    cfg.sweep_axis  # validates single-axis constraint eagerly
    if isinstance(protocol.get("k"), Sweep) and "rho" in modulator:
        raise InvalidArgument("modulator.rho sets k, so a sweep of k would not sweep it")
    return cfg


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, with YAML 1.2's floats: its YAML 1.1 floats need a
    dot and a signed exponent, so 1e6, 1e-3 and 1.0e6 would be strings.  A key
    given twice in one mapping is an error, where PyYAML keeps the last; a key
    may still override one brought in by a `<<` merge."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # merge keys may repeat, and PyYAML itself rejects a list or mapping key
            merge = key_node.tag == "tag:yaml.org,2002:merge"
            if merge or not isinstance(key_node, yaml.ScalarNode):
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark,
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_config(path: str) -> RunConfig:
    """Read and parse a YAML config file; a file that is not YAML is InvalidArgument."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_Loader)
        # ValueError: bytes that are not UTF-8, or a date such as 2001-13-45
        except (yaml.YAMLError, ValueError) as exc:
            reason = " ".join(str(exc).split())  # YAML errors span several lines
            raise InvalidArgument(f"cannot read {path} as YAML: {reason}") from None
    return parse_config(raw)


def config_doc(cfg: RunConfig) -> dict:
    """The resolved config as plain data; parsing it reproduces the config."""

    def plain(value):
        if isinstance(value, Sweep):
            out = {"start": value.start, "stop": value.stop, "points": value.points}
            if value.scale != "linear":
                out["scale"] = value.scale
            return out
        return value

    doc: dict = {"protocol": {k: plain(v) for k, v in cfg.protocol.items()}}
    if cfg.modulator:
        doc["modulator"] = {k: plain(v) for k, v in cfg.modulator.items()}
    if cfg.outputs:
        doc["outputs"] = dict(cfg.outputs)
    if cfg.mc:
        doc["mc"] = dict(cfg.mc)
    return doc


def dump_config(cfg: RunConfig) -> str:
    """Serialize back to YAML; parsing the output reproduces the config."""
    return yaml.safe_dump(config_doc(cfg), sort_keys=False)
