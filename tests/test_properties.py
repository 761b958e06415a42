"""Property tests of key_rate and the Monte-Carlo closure over the parameter
domain documented in README, of key_rate's monotonicity in the leakage k
without trusted noise, and of the CLI's exit codes over generated configs.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import dataclasses
import math

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from modleak import cli
from modleak import config as cfgmod
from modleak import montecarlo as mc
from modleak import security as sec
from modleak.errors import InvalidArgument


def between(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


# the parameter domain of README's table
DOMAIN = dict(
    v_m=between(0.01, 100.0),
    k=between(0.0, 2.0),
    eta_ch=between(1e-3, 0.999),
    eps_ch=between(0.0, 0.5),
    eta_d=st.one_of(st.just(1.0), between(0.1, 0.999)),
    eps_d=between(0.0, 0.5),
    eps_p1=between(0.0, 1.0),
    eps_p2=between(0.0, 1.0),
    eps_l=between(0.0, 1.0),
    beta=between(0.8, 1.0),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(**DOMAIN)
def test_key_rate_is_finite_and_bounded(**fields):
    if fields["eta_d"] == 1.0 and fields["eps_d"] > 0.0:
        with pytest.raises(InvalidArgument):
            sec.ProtocolParams(**fields)
        return
    p = sec.ProtocolParams(**fields)
    report = sec.key_rate(p)
    assert all(math.isfinite(v) for v in vars(report).values())
    assert report.chi_dr >= -1e-9 and report.chi_rr >= -1e-9
    assert report.r_dr <= p.beta * report.i_ab
    assert report.r_rr <= p.beta * report.i_ab


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(**DOMAIN, seed=st.integers(0, 2**32))
def test_closure_is_finite(seed, **fields):
    # eps_D > 0 at eta_D = 1 has no purification (see the test above)
    if fields["eta_d"] == 1.0:
        fields["eps_d"] = 0.0
    p = sec.ProtocolParams(**fields)
    for n in (1_000, 1_000_000):
        for blind in (False, True):
            report = mc.end_to_end_consistency(p, n, seed, assume_no_leakage=blind)
            values = dataclasses.astuple(report.estimate) + dataclasses.astuple(report)[1:7]
            assert all(math.isfinite(v) for v in values)


# Without trusted noise, more leakage never helps; with eps_P1 > 0 it can,
# because the leakage beamsplitter moves part of that noise off B.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    v_m=between(0.01, 100.0),
    ks=st.tuples(between(0.0, 2.0), between(0.0, 2.0)).map(sorted),
    eta_ch=between(1e-3, 0.999),
    eps_ch=between(0.0, 0.5),
    detector=st.one_of(
        st.just((1.0, 0.0)), st.tuples(between(0.1, 0.999), between(0.0, 0.5))
    ),
    beta=between(0.8, 1.0),
)
def test_leakage_never_raises_the_key_rate(v_m, ks, eta_ch, eps_ch, detector, beta):
    eta_d, eps_d = detector
    less, more = sec.key_rates(
        [
            sec.ProtocolParams(
                v_m=v_m, k=k, eta_ch=eta_ch, eps_ch=eps_ch, eta_d=eta_d, eps_d=eps_d, beta=beta
            )
            for k in ks
        ]
    )
    assert more.r_dr <= less.r_dr + 1e-10
    assert more.r_rr <= less.r_rr + 1e-10


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    between(0.0, 1.0),
    st.text(max_size=4),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.fixed_dictionaries(
        {"start": SCALARS, "stop": SCALARS, "points": SCALARS},
        optional={"scale": st.one_of(st.sampled_from(["linear", "dB", "log"]), SCALARS)},
    ),
)


def block(keys, required=()):
    """A config block: a mapping of known keys and a typo, else a scalar or list."""
    optional = {key: VALUES for key in [*sorted(keys), "typo"] if key not in required}
    return st.one_of(
        st.fixed_dictionaries({key: VALUES for key in required}, optional=optional),
        SCALARS,
        st.lists(SCALARS, max_size=2),
    )


ARBITRARY_DOCS = st.fixed_dictionaries(
    {"protocol": block(cfgmod.PROTOCOL_KEYS, required=("V_M",))},
    optional={
        "modulator": block(cfgmod.MODULATOR_KEYS),
        "outputs": block(cfgmod.OUTPUTS_KEYS),
        "mc": block(cfgmod.MC_KEYS),
    },
)
# numbers near the documented domain, so that many points reach the key rate
PLAUSIBLE_DOCS = st.fixed_dictionaries(
    {
        "protocol": st.fixed_dictionaries(
            {"V_M": between(0.01, 100.0)},
            optional={key: between(0.0, 1.0) for key in cfgmod.PROTOCOL_KEYS if key != "V_M"},
        )
    },
    optional={
        "modulator": st.fixed_dictionaries(
            {}, optional={"rho": between(-30.0, 30.0), "k_floor": between(0.0, 1.0)}
        )
    },
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "config.yaml"


# keyrate only, so a generated sweep size is never run; --out wins over a
# generated outputs.path, so the report goes only to the test's own directory
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(doc=st.one_of(PLAUSIBLE_DOCS, ARBITRARY_DOCS))
def test_keyrate_exits_0_1_or_2(config_path, doc):
    config_path.write_text(yaml.safe_dump(doc))
    out = str(config_path.with_name("report.json"))
    result = CliRunner().invoke(cli.main, ["keyrate", "--config", str(config_path), "--out", out])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
    if result.exit_code == 1:
        assert "error: " in result.output
