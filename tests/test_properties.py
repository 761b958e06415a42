"""Property tests of key_rate over the parameter domain documented in README.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modleak import security as sec
from modleak.errors import InvalidArgument


def between(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
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
