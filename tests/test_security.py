import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from modleak import gaussian as g
from modleak import security as sec
from modleak.errors import InvalidArgument, NumericalError, UnphysicalState
from modleak.modulator import rho_to_k

from oracles import eq4_matrix, golden_walk, interleave, no_switching_rates, reduced_model_rates

TABLE_POINT = sec.ProtocolParams(
    v_m=5.0, k=0.3, eta_ch=0.5, eps_ch=0.02, beta=0.96, eta_d=0.85, eps_d=0.01
)
MODEL_FIELDS = ("v_m", "k", "eta_ch", "eps_ch", "eta_d", "eps_d", "eps_p1", "eps_p2", "eps_l")


def purification_rates(p: sec.ProtocolParams) -> tuple[float, float, float]:
    """(I_AB, chi_DR, chi_RR) from the pure global state of `build_scheme`, the model of record.

    chi comes from the trusted modes: the global state is pure, so Eve's
    entropy equals theirs, before and after a heterodyne of A or B.
    """
    scheme = sec.build_scheme(p)
    gamma_ab = g.partial_trace(scheme.state, ["A", "B"])
    # B's variance before and after a, the same on x and p as P = S X S: half of I_AB each
    bob = gamma_ab.x[1, 1]
    bob_cond = g.heterodyne_condition(gamma_ab, ["A"]).x[1, 0, 0]
    i_ab = np.log2((bob + 1.0) / (bob_cond + 1.0))
    trusted = g.partial_trace(scheme.state, scheme.trusted)
    s_t = g.von_neumann_entropy(trusted)
    chi_dr, chi_rr = (
        s_t - g.von_neumann_entropy(g.heterodyne_condition(trusted, [x]))[1] for x in ("A", "B")
    )
    return float(i_ab), float(chi_dr), float(chi_rr)


def structure(p: sec.ProtocolParams) -> tuple[bool, ...]:
    """Which optional modes the purification of p has: P1, L, L noise, P2, channel, detector."""
    return (
        p.eps_p1 > 0.0,
        p.k > 0.0 or p.eps_l > 0.0,
        p.eps_l > 0.0,
        p.eps_p2 > 0.0,
        p.eta_ch < 1.0,
        p.eta_d < 1.0,
    )


def has_trusted_noise(p: sec.ProtocolParams) -> bool:
    return any(getattr(p, name) > 0.0 for name in ("eps_p1", "eps_p2", "eps_l", "eps_d"))


class TestProtocolParams:
    def test_rejects_bad_ranges(self):
        with pytest.raises(InvalidArgument):
            sec.ProtocolParams(v_m=0.0)
        with pytest.raises(InvalidArgument):
            sec.ProtocolParams(v_m=1.0, eta_ch=1.5)
        with pytest.raises(InvalidArgument):
            sec.ProtocolParams(v_m=1.0, beta=1.2)
        with pytest.raises(InvalidArgument):
            sec.ProtocolParams(v_m=1.0, eta_d=1.0, eps_d=0.1)

    @pytest.mark.parametrize(
        "field",
        ["v_m", "k", "eta_ch", "eps_ch", "eta_d", "eps_d", "eps_p1", "eps_p2", "eps_l", "beta"],
    )
    def test_rejects_non_finite_values(self, field):
        for value in (math.nan, math.inf, -math.inf):
            fields = {"v_m": 5.0, "eta_ch": 0.5, "eta_d": 0.9, field: value}
            with pytest.raises(InvalidArgument):
                sec.ProtocolParams(**fields)

    @pytest.mark.parametrize("block_size", [math.nan, math.inf, 2.5])
    def test_rejects_block_size_that_is_not_a_finite_integer(self, block_size):
        with pytest.raises(InvalidArgument, match="block_size must be a finite integer"):
            sec.ProtocolParams(v_m=5.0, block_size=block_size)

    @pytest.mark.parametrize("block_size", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_rejects_block_size_beyond_the_largest_float(self, block_size):
        # a pass reads block sizes as floats; config rejects these as out of range too
        assert sec.ProtocolParams(v_m=5.0, block_size=2**1023).block_size == 2**1023
        with pytest.raises(InvalidArgument, match="block size"):
            sec.ProtocolParams(v_m=5.0, block_size=block_size)
        with pytest.raises(InvalidArgument, match="block size"):
            sec.ProtocolParams(v_m=5.0).replace(block_size=block_size)

    @pytest.mark.parametrize("field", ["v_m", "k", "eta_ch", "eps_l", "beta"])
    @pytest.mark.parametrize("value", [np.array(0.5), np.array([0.5, 0.6]), np.array([[0.5]])])
    def test_rejects_numpy_arrays_by_name(self, field, value):
        p = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.9, eps_ch=0.02)
        fields = dict(zip(sec.PARAM_FIELDS, vars(p).values()), **{field: value})
        with pytest.raises(InvalidArgument, match=f"{field} must be a real number"):
            sec.ProtocolParams(**fields)
        with pytest.raises(InvalidArgument, match=f"{field} must be a real number"):
            p.replace(**{field: value})
        # numpy scalars are numbers
        assert p.replace(**{field: np.float64(0.5)}) == p.replace(**{field: 0.5})

    def test_equal_points_hash_equal(self):
        names = ["v_m", "k", "eta_ch", "eps_ch", "eta_d", "eps_d", "eps_p1", "eps_p2", "eps_l"]
        names += ["beta", "block_size"]
        assert [f.name for f in dataclasses.fields(sec.ProtocolParams)] == names
        p = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.9, eps_ch=0.02, block_size=10**7)
        same = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.9, eps_ch=0.02, block_size=1e7)
        assert same == p and hash(same) == hash(p)
        assert dataclasses.replace(p, v_m=4.0) != p
        assert hash(dataclasses.replace(dataclasses.replace(p, v_m=4.0), v_m=5.0)) == hash(p)
        assert {p: 1}[same] == 1

    @pytest.mark.parametrize(
        "field, valid, invalid",
        [
            ("v_m", 7.5, 0.0),
            ("k", 0.0, -0.1),
            ("eta_ch", 0.3, 1.5),
            ("eps_ch", 0.05, math.nan),
            ("eta_d", 0.7, 0.0),
            ("eps_d", 0.0, -1.0),
            ("eps_p1", 0.2, math.inf),
            ("eps_p2", 0.4, -0.2),
            ("eps_l", 0.1, -math.inf),
            ("beta", 1.0, 1.2),
            ("block_size", 1e6, 2.5),
        ],
    )
    def test_replace_is_dataclasses_replace(self, field, valid, invalid):
        p = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.9, eps_ch=0.02, eta_d=0.8, eps_d=0.01)
        new, expected = p.replace(**{field: valid}), dataclasses.replace(p, **{field: valid})
        assert new == expected and hash(new) == hash(expected)
        assert type(new) is sec.ProtocolParams and vars(new) == vars(expected)
        assert p.replace() == p and hash(p.replace()) == hash(p)
        with pytest.raises(InvalidArgument) as expected_error:
            dataclasses.replace(p, **{field: invalid})
        with pytest.raises(InvalidArgument) as error:
            p.replace(**{field: invalid})
        assert str(error.value) == str(expected_error.value)

    def test_replace_rejects_unknown_fields(self):
        p = sec.ProtocolParams(v_m=5.0)
        for name in ("vm", "_hash"):
            with pytest.raises(TypeError, match=name):
                p.replace(**{name: 1.0})
            with pytest.raises(TypeError, match=name):
                p.replace(v_m=2.0, **{name: 1.0})

    # values at and around every bound, for every field
    BOUNDARY = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 0.5, -0.5, 2.0]
    BOUNDARY += [np.float64(math.nan), np.float64(0.0), np.float64(1.0), np.float64(0.5)]
    BOUNDARY += [np.float64(-math.inf), "0.5", None, np.array([0.5, 0.5]), np.array(0.5)]
    BLOCK_SIZES = [True, False, np.int64(5), 1e6, 2.5, 0, 7, -1, -1.0, math.nan, math.inf]
    BLOCK_SIZES += [2**1023, 2**1024]

    NAN_MESSAGES = {
        name: f"{name} must be finite, got nan"
        for name in ("v_m", "k", "eps_ch", "eps_d", "eps_p1", "eps_p2", "eps_l")
    } | {
        "eta_ch": "eta_ch must lie in (0, 1], got nan",
        "eta_d": "eta_d must lie in (0, 1], got nan",
        "beta": "beta must lie in [0, 1], got nan",
        "block_size": "block_size must be a finite integer, got nan",
    }

    @staticmethod
    def checked(fields: dict):
        """The outcome of the checks alone on `fields`: the stored fields and
        hash, or the error's class and message."""
        point = object.__new__(sec.ProtocolParams)
        vars(point).update(fields)
        try:
            point._check()
        except Exception as exc:
            return type(exc), str(exc)
        return list(vars(point).items()), hash(tuple(vars(point).values()))

    @staticmethod
    def outcome(make):
        try:
            point = make()
        except Exception as exc:
            return type(exc), str(exc)
        return list(vars(point).items())[:-1], hash(point)

    @pytest.mark.parametrize("field", sec.PARAM_FIELDS)
    def test_accepts_only_what_the_checks_accept(self, field):
        values = list(self.BOUNDARY)
        if field in ("eta_ch", "eta_d", "beta"):
            values.append(math.nextafter(1.0, 2.0))
        if field == "block_size":
            values += self.BLOCK_SIZES
        # eta = 1 with eps = 0, and eta < 1 with eps > 0: each cross rule both ways
        bases = [
            sec.ProtocolParams(v_m=5.0),
            sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.9, eps_ch=0.02, eta_d=0.8, eps_d=0.01),
        ]
        outcomes = set()
        for base in bases:
            for value in values:
                fields = dict(zip(sec.PARAM_FIELDS, vars(base).values()), **{field: value})
                expected = self.checked(fields)
                assert self.outcome(lambda: sec.ProtocolParams(**fields)) == expected, value
                assert self.outcome(lambda: base.replace(**{field: value})) == expected, value
                outcomes.add(expected[0] if isinstance(expected[0], type) else "valid")
        assert "valid" in outcomes and InvalidArgument in outcomes
        assert self.outcome(lambda: bases[0].replace(**{field: math.nan})) == (
            InvalidArgument, self.NAN_MESSAGES[field]
        )

    def test_integral_block_size_is_stored_as_an_integer(self):
        p = sec.ProtocolParams(v_m=5.0, block_size=1e7)
        assert p.block_size == 10**7 and isinstance(p.block_size, int)

    def test_rejects_channel_noise_without_loss(self):
        with pytest.raises(InvalidArgument):
            sec.ProtocolParams(v_m=5.0, eta_ch=1.0, eps_ch=0.1)


class TestBuildScheme:
    def test_no_leakage_reduces_to_source_plus_channel(self):
        p = sec.ProtocolParams(v_m=3.0, k=0.0, eta_ch=0.7, eps_ch=0.05)
        scheme = sec.build_scheme(p)
        assert scheme.state.modes == ("A", "B", "E1", "E2")
        ab = interleave(g.partial_trace(scheme.state, ["A", "B"]))
        assert np.allclose(ab, eq4_matrix(3.0, 0.0, 0.7, 0.05), atol=1e-10)

    def test_matches_effective_two_mode_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            vm = rng.uniform(0.01, 50.0)
            k = rng.uniform(0.0, 2.0)
            eta = rng.uniform(1e-3, 0.999)
            eps = rng.uniform(0.0, 0.5)
            p = sec.ProtocolParams(v_m=vm, k=k, eta_ch=eta, eps_ch=eps)
            ab = interleave(g.partial_trace(sec.build_scheme(p).state, ["A", "B"]))
            assert np.allclose(ab, eq4_matrix(vm, k, eta, eps), atol=1e-10)

    def test_global_state_is_pure(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = sec.ProtocolParams(
                v_m=rng.uniform(0.1, 20.0),
                k=rng.uniform(0.0, 1.5),
                eta_ch=rng.uniform(0.05, 0.99),
                eps_ch=rng.uniform(0.0, 0.3),
                eta_d=rng.uniform(0.5, 0.99),
                eps_d=rng.uniform(0.0, 0.1),
                eps_p1=rng.uniform(0.0, 0.2),
                eps_p2=rng.uniform(0.0, 0.2),
                eps_l=rng.uniform(0.0, 0.2),
            )
            state = sec.build_scheme(p).state
            assert g.von_neumann_entropy(state) == pytest.approx(0.0, abs=1e-6)

    def test_partition_covers_all_modes(self):
        scheme = sec.build_scheme(TABLE_POINT)
        assert sorted(scheme.trusted + scheme.untrusted) == sorted(scheme.state.modes)


class TestMutualInformation:
    def test_vanishes_without_modulation(self):
        p = sec.ProtocolParams(v_m=1e-9, eta_ch=0.8, eps_ch=0.01)
        assert sec.key_rate(p).i_ab == pytest.approx(0.0, abs=1e-8)

    def test_ideal_point_closed_form(self):
        p = sec.ProtocolParams(v_m=2.0)
        assert sec.key_rate(p).i_ab == pytest.approx(1.0, abs=1e-9)

    def test_matches_no_switching_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vm = rng.uniform(0.1, 40.0)
            eta = rng.uniform(0.01, 0.999)
            eps = rng.uniform(0.0, 0.3)
            p = sec.ProtocolParams(v_m=vm, eta_ch=eta, eps_ch=eps)
            i_ref, _, _ = no_switching_rates(vm, eta, eps, p.beta)
            assert sec.key_rate(p).i_ab == pytest.approx(i_ref, abs=1e-9)

    def test_monotone_in_excess_noise(self):
        values = [
            sec.key_rate(sec.ProtocolParams(v_m=5.0, eta_ch=0.5, eps_ch=eps)).i_ab
            for eps in np.linspace(0.0, 0.5, 11)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestHolevoBounds:
    def test_clean_point_gives_eve_nothing(self):
        rep = sec.key_rate(sec.ProtocolParams(v_m=4.0))
        assert rep.chi_dr == pytest.approx(0.0, abs=1e-8)
        assert rep.chi_rr == pytest.approx(0.0, abs=1e-8)

    def test_matches_no_leakage_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            vm = rng.uniform(0.1, 40.0)
            eta = rng.uniform(0.01, 0.999)
            eps = rng.uniform(0.0, 0.3)
            p = sec.ProtocolParams(v_m=vm, eta_ch=eta, eps_ch=eps, beta=0.96)
            rep = sec.key_rate(p)
            i_ref, r_dr_ref, r_rr_ref = no_switching_rates(vm, eta, eps, 0.96)
            assert rep.r_dr == pytest.approx(r_dr_ref, abs=1e-8)
            assert rep.r_rr == pytest.approx(r_rr_ref, abs=1e-8)

    def test_nondecreasing_in_leakage(self):
        reports = [
            sec.key_rate(sec.ProtocolParams(v_m=5.0, k=k, eta_ch=0.6, eps_ch=0.02))
            for k in np.linspace(0.0, 1.0, 11)
        ]
        chis = [(rep.chi_dr, rep.chi_rr) for rep in reports]
        for (dr_a, rr_a), (dr_b, rr_b) in zip(chis, chis[1:]):
            assert dr_b >= dr_a - 1e-9
            assert rr_b >= rr_a - 1e-9


class TestKeyRate:
    def test_zero_reconciliation_efficiency(self):
        p = sec.ProtocolParams(v_m=5.0, eta_ch=0.5, eps_ch=0.02, beta=0.0)
        rep = sec.key_rate(p)
        assert rep.r_rr == pytest.approx(-rep.chi_rr)
        assert rep.r_rr <= 0.0

    def test_full_leakage_kills_direct_reconciliation(self):
        for eta in (0.1, 0.5, 0.9):
            p = sec.ProtocolParams(v_m=5.0, k=1.0, eta_ch=eta, eps_ch=0.0, beta=1.0)
            assert sec.key_rate(p).r_dr <= 0.0

    def test_leakage_lowers_both_rates(self):
        for eta in np.linspace(0.1, 0.9, 5):
            p0 = sec.ProtocolParams(v_m=5.0, k=0.0, eta_ch=eta, eps_ch=0.02)
            p1 = dataclasses.replace(p0, k=0.2)
            r0, r1 = sec.key_rate(p0), sec.key_rate(p1)
            assert r1.r_dr < r0.r_dr
            assert r1.r_rr < r0.r_rr

    def test_monotone_degradation_in_noise_and_leakage(self):
        base = sec.ProtocolParams(v_m=5.0, k=0.1, eta_ch=0.5, eps_ch=0.0)
        rates_eps = [
            sec.key_rate(dataclasses.replace(base, eps_ch=e)).r_rr
            for e in np.linspace(0.0, 0.3, 7)
        ]
        rates_k = [
            sec.key_rate(dataclasses.replace(base, eps_ch=0.02, k=k)).r_rr
            for k in np.linspace(0.0, 1.0, 7)
        ]
        assert all(a >= b for a, b in zip(rates_eps, rates_eps[1:]))
        assert all(a >= b for a, b in zip(rates_k, rates_k[1:]))

    def test_finite_size_penalty_reduces_rates(self):
        p = sec.ProtocolParams(v_m=5.0, eta_ch=0.5, eps_ch=0.02)
        p_fs = dataclasses.replace(p, block_size=10**7)
        rep, rep_fs = sec.key_rate(p), sec.key_rate(p_fs)
        delta = sec.finite_size_penalty(10**7)
        assert delta > 0.0
        assert rep_fs.r_rr == pytest.approx(rep.r_rr - delta)

    def test_finite_size_penalty_of_a_batch_equals_single_points(self):
        # 10**30 does not fit an int64: the batch's block sizes are an object array
        points = [
            sec.ProtocolParams(v_m=5.0, eta_ch=0.5, eps_ch=0.02, block_size=n)
            for n in (0, 10**7, 10**30)
        ]
        reports = sec.key_rates(points)
        assert reports == [sec.key_rate(q) for q in points]
        assert [rep.finite_size_penalty for rep in reports] == [
            0.0,
            sec.finite_size_penalty(10**7),
            sec.finite_size_penalty(10**30),
        ]
        assert reports[2].finite_size_penalty > 0.0

    def test_rate_picks_direction(self):
        rep = sec.key_rate(sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.5, eps_ch=0.02))
        assert rep.rate("dr") == rep.r_dr
        assert rep.rate("rr") == rep.r_rr
        with pytest.raises(InvalidArgument):
            rep.rate("both")

    def test_clamped_rates(self):
        p = sec.ProtocolParams(v_m=5.0, k=1.0, eta_ch=0.3, eps_ch=0.1, beta=0.5)
        rep = sec.key_rate(p)
        assert rep.r_dr_clamped == 0.0
        assert rep.r_dr < 0.0


def random_points(rng, n: int) -> list[sec.ProtocolParams]:
    """Points over the README domain; each optional mode is present about half the time."""
    points = []
    for _ in range(n):
        fields = {
            "v_m": float(np.exp(rng.uniform(np.log(0.01), np.log(100.0)))),
            "beta": rng.uniform(0.8, 1.0),
            "block_size": int(rng.choice([0, 10**7])),
        }
        for name, hi in (("k", 2.0), ("eps_p1", 1.0), ("eps_p2", 1.0), ("eps_l", 1.0)):
            fields[name] = rng.uniform(0.0, hi) if rng.random() < 0.5 else 0.0
        if rng.random() < 0.75:
            fields["eta_ch"], fields["eps_ch"] = rng.uniform(1e-3, 0.999), rng.uniform(0.0, 0.5)
        if rng.random() < 0.5:
            fields["eta_d"], fields["eps_d"] = rng.uniform(0.1, 0.999), rng.uniform(0.0, 0.5)
        points.append(sec.ProtocolParams(**fields))
    return points


class TestKeyRates:
    def test_batch_matches_single_points(self):
        points = random_points(np.random.default_rng(21), 200)
        assert len({structure(q) for q in points}) >= 32
        batched = sec.key_rates(points + points[:10])
        assert batched[200:] == batched[:10]
        assert batched[:200] == [sec.key_rate(q) for q in points]

    def test_one_checked_state_a_pass(self, monkeypatch, evaluated_batches, checked_states):
        points = random_points(np.random.default_rng(22), 60)
        assert len({structure(q) for q in points}) >= 16

        def refuse(p):
            raise AssertionError("a pass must not build the five-mode state")

        monkeypatch.setattr(sec, "reduced_state", refuse)
        sec.key_rates(points + points[:5])
        assert evaluated_batches == [points]
        # E, E|a and E|b on Eve's modes, in one batch
        assert checked_states == [(("L", "E1", "E2"), (3, len(points)))]

    def test_empty_call(self, evaluated_batches):
        assert sec.key_rates([]) == []
        assert evaluated_batches == []

    def test_reports_are_frozen_dataclasses(self):
        points = random_points(np.random.default_rng(27), 20)
        names = [f.name for f in dataclasses.fields(sec.KeyRateReport)]
        for report in sec.key_rates(points):
            values = list(vars(report).values())
            assert list(vars(report)) == names
            built = sec.KeyRateReport(*values)
            assert report == built and hash(report) == hash(built)
            assert dataclasses.asdict(report) == dataclasses.asdict(built) == vars(report)
            assert all(type(v) is float for v in values)
            with pytest.raises(dataclasses.FrozenInstanceError):
                report.i_ab = 0.0

    @pytest.mark.parametrize(
        "fields",
        [
            {"v_m": 1e200},
            {"v_m": 5.0, "k": 1e200},
            {"v_m": 1e-300, "eta_ch": 1e-300, "eps_ch": 1e300},
            # finite entries whose Schur complement on B overflows
            {"v_m": 1.0, "k": 1.0, "eps_l": 1e300},
        ],
    )
    def test_overflowing_point_is_a_numerical_error(self, fields):
        # the state overflows to inf or NaN entries, which its check rejects,
        # without a floating-point warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                sec.key_rate(sec.ProtocolParams(**fields))

    @pytest.mark.parametrize("v_m", [2.0**53, 1e16, 1e20, 1e153])
    def test_rounded_ab_pair_is_unphysical(self, v_m):
        # at k = 0 and eta_ch = 1 Eve holds vacua whatever v_s is; from v_s =
        # 2^53 on, c^2 rounds to (v_a + 1)(v_b + 1) and I_AB's log2 argument to 0
        assert math.isfinite(sec.key_rate(sec.ProtocolParams(v_m=2.0**53 - 2.0)).i_ab)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnphysicalState, match="A and B"):
                sec.key_rate(sec.ProtocolParams(v_m=v_m))
            with pytest.raises(UnphysicalState, match="A and B"):
                sec.key_rates([sec.ProtocolParams(v_m=5.0), sec.ProtocolParams(v_m=v_m)])

    def test_overflowing_ab_product_leaves_no_mutual_information(self):
        # (v_a + 1)(v_b + 1) overflows to inf; c^2 over it is 1e-290 or less
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = sec.key_rate(sec.ProtocolParams(v_m=1e10, eps_p2=1e300))
        assert rep.i_ab == 0.0

    def test_source_variance_1e7_is_finite(self):
        # A and B's EPR pair of variance 1e7 failed the five-mode state's
        # physicality check from rounding; a pass checks Eve's states only
        rep = sec.key_rate(sec.ProtocolParams(v_m=1e7, eta_ch=0.5, eps_ch=0.1))
        assert all(math.isfinite(v) for v in vars(rep).values())

    def test_unphysical_point_fails_its_batch_alike(self):
        # at source variance 1e8 the rounding of Eve's states puts a symplectic
        # eigenvalue 7e-9 below 1, past the physicality check's tolerance
        bad = sec.ProtocolParams(v_m=1e8, eta_ch=0.7204396530782486, eps_ch=0.3787372568065778)
        with pytest.raises(UnphysicalState):
            sec.key_rate(bad)
        same_structure = sec.ProtocolParams(v_m=5.0, eta_ch=0.5, eps_ch=0.1)
        other = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.5, eps_ch=0.1, eps_l=0.2)
        with pytest.raises(UnphysicalState):
            sec.key_rates([same_structure, bad, other])


class TestEveStates:
    """A pass's E, E|a and E|b against Eve's marginal of the five-mode state and
    its conditionals on a and b."""

    FULL_NOISE = [
        sec.ProtocolParams(
            v_m=float(np.exp(rng.uniform(np.log(0.01), np.log(100.0)))),
            k=rng.uniform(0.0, 2.0),
            eta_ch=rng.uniform(1e-3, 0.999),
            eps_ch=rng.uniform(0.0, 0.5),
            eta_d=rng.uniform(0.1, 0.999),
            eps_d=rng.uniform(0.0, 0.5),
            eps_p1=rng.uniform(0.0, 1.0),
            eps_p2=rng.uniform(0.0, 1.0),
            eps_l=rng.uniform(0.0, 1.0),
        )
        for rng in [np.random.default_rng(26)]
        for _ in range(40)
    ]

    @staticmethod
    def pass_states(monkeypatch, points) -> g.CovMatrix:
        """The batch of Eve's states whose entropies a pass over `points` takes."""
        states = []
        entropy = g.von_neumann_entropy

        def recorded(state):
            states.append(state)
            return entropy(state)

        monkeypatch.setattr(g, "von_neumann_entropy", recorded)
        sec.key_rates(points)
        [state] = states
        return state

    @staticmethod
    def assert_conditioned_reduced_state(state: g.CovMatrix, points):
        reference = g.heterodyne_condition(sec.reduced_state(points), ["A", "B"])
        assert state.modes == reference.modes
        assert state.signs.tolist() == reference.signs.tolist()
        assert state.x[0].tobytes() == reference.x[0].tobytes()
        assert state.x[2].tobytes() == reference.x[2].tobytes()
        # E|a is E at v_s = 1, equal to the Schur complement up to its rounding
        v_s = np.array([1.0 + (1.0 + q.k * q.k) * q.v_m for q in points])
        gap = np.abs(state.x[1] - reference.x[1]).max(axis=(-2, -1))
        assert (gap <= 8.0 * np.finfo(float).eps * v_s).all()

    @pytest.mark.parametrize("full_noise", [False, True], ids=["seed 22", "full noise"])
    def test_are_the_conditioned_reduced_state(self, monkeypatch, full_noise):
        points = self.FULL_NOISE if full_noise else random_points(np.random.default_rng(22), 60)
        self.assert_conditioned_reduced_state(self.pass_states(monkeypatch, points), points)

    @pytest.mark.parametrize("offset", [1e-6, 1e-9])
    def test_catch_e_given_a_at_a_wrong_source_variance(self, monkeypatch, offset):
        x_block = sec._x_block

        def shifted(p):
            # the (B, L, E1, E2) entries at v_s = 1 + offset in place of those at 1
            near_unit = x_block(p.replace(v_m=offset / (1.0 + p.k * p.k)))
            return x_block(p)[:15] + near_unit[5:15]

        monkeypatch.setattr(sec, "_x_block", shifted)
        state = self.pass_states(monkeypatch, self.FULL_NOISE)
        with pytest.raises(AssertionError):
            self.assert_conditioned_reduced_state(state, self.FULL_NOISE)


class TestReducedState:
    """The five-mode state, and the key rates from the same closed form, against
    the purification and a 50-digit oracle; `TestEveStates` ties a pass's
    states to this one."""

    POINTS = random_points(np.random.default_rng(24), 300)
    # channel noise so small that Eve's states have symplectic eigenvalues
    # at most a few 1e-9 above 1
    TINY_CHANNEL_NOISE = [
        sec.ProtocolParams(v_m=5.0, k=k, eta_ch=0.9, eps_ch=eps_ch)
        for eps_ch in (1e-9, 1e-10)
        for k in (0.0, 1e-4, 1e-3, 0.3)
    ]

    def gaps(self):
        """Per point: |report - purification| for (I_AB, chi_DR, chi_RR)."""
        rows = []
        for q, rep in zip(self.POINTS, sec.key_rates(self.POINTS)):
            i_ab, chi_dr, chi_rr = purification_rates(q)
            rows.append(
                (
                    abs(rep.i_ab - i_ab),
                    abs(rep.chi_dr - max(chi_dr, 0.0)),
                    abs(rep.chi_rr - max(chi_rr, 0.0)),
                )
            )
        return np.array(rows)

    def test_matches_purification(self):
        gaps = self.gaps()
        clean = np.array([not has_trusted_noise(q) for q in self.POINTS])
        assert clean.sum() >= 10
        assert gaps[:, 0].max() <= 1e-12
        assert gaps[clean, 1:].max() <= 1e-11
        assert gaps.max() <= 1e-10

    def test_matches_high_precision_oracle_on_largest_gaps(self):
        # rounding noise orders the gaps, so the points with the largest EPR
        # variances, of the channel pair and of the source, are checked too
        v_e = [1.0 + q.eps_ch / (1.0 - q.eta_ch) if q.eta_ch < 1.0 else 1.0 for q in self.POINTS]
        v_s = [1.0 + (1.0 + q.k * q.k) * q.v_m for q in self.POINTS]
        gaps = self.gaps().max(axis=1)
        checked = {int(i) for key in (gaps, v_e, v_s) for i in np.argsort(key)[-5:]}
        assert len(checked) >= 10
        for q in [self.POINTS[i] for i in sorted(checked)] + self.TINY_CHANNEL_NOISE:
            rep = sec.key_rate(q)
            i_ab, chi_dr, chi_rr = reduced_model_rates(*(getattr(q, f) for f in MODEL_FIELDS))
            assert rep.i_ab == pytest.approx(i_ab, rel=0.0, abs=1e-12)
            assert rep.chi_dr == pytest.approx(max(chi_dr, 0.0), rel=0.0, abs=1e-12)
            assert rep.chi_rr == pytest.approx(max(chi_rr, 0.0), rel=0.0, abs=1e-12)

    def test_empty_point_list(self):
        with pytest.raises(InvalidArgument, match="empty list"):
            sec.reduced_state([])

    def test_batch_is_its_points(self):
        batch = sec.reduced_state(self.POINTS)
        assert batch.x.shape[:-2] == (len(self.POINTS),)
        for q, x, spectrum in zip(self.POINTS, batch.x, batch.spectrum):
            single = sec.reduced_state(q)
            assert single.x.shape[:-2] == ()
            assert single.x.tobytes() == x.tobytes()
            assert single.signs.tobytes() == batch.signs.tobytes()
            assert single.spectrum.tobytes() == spectrum.tobytes()

    def test_is_the_reduced_purification(self):
        p = dataclasses.replace(TABLE_POINT, eps_p1=0.1, eps_l=0.2, eps_p2=0.3)
        scheme = sec.build_scheme(p)
        reduced = g.partial_trace(scheme.state, sec.REDUCED_MODES)
        # E1/E2 after the inverse of the squeezer that made the channel's EPR pair
        v_e = 1.0 + p.eps_ch / (1.0 - p.eta_ch)
        c, s = np.sqrt(0.5 * (v_e + 1.0)), np.sqrt(0.5 * (v_e - 1.0))
        # on the x quadratures; the p quadratures' +s follows from the signs, as P = S X S
        frame = np.eye(5)
        frame[3:, 3:] = [[c, -s], [-s, c]]
        state = sec.reduced_state(p)
        np.testing.assert_allclose(state.x, frame @ reduced.x @ frame.T, rtol=0.0, atol=1e-11)
        np.testing.assert_array_equal(state.signs, reduced.signs)

    def test_channel_near_unit_transmittance(self):
        # the channel's EPR pair has variance 1e4 here; E1/E2 in the unsqueezed
        # frame keep the spectra of E, which it used to fail, well conditioned
        rep = sec.key_rate(sec.ProtocolParams(v_m=5.0, eta_ch=0.99999, eps_ch=0.1))
        assert all(math.isfinite(v) for v in vars(rep).values())

    def test_detector_near_unit_efficiency(self):
        # the purification's detector pair has variance 1e4 here and fails the
        # physicality check from rounding; the reduced state has no such pair
        rep = sec.key_rate(sec.ProtocolParams(v_m=5.0, eta_d=0.99999, eps_d=0.1))
        assert all(math.isfinite(v) for v in vars(rep).values())
        with pytest.raises(UnphysicalState):
            purification_rates(sec.ProtocolParams(v_m=5.0, eta_d=0.99999, eps_d=0.1))


class TestLockstep:
    def test_searches_run_side_by_side(self, evaluated_points):
        points = [sec.ProtocolParams(v_m=5.0, k=k, eta_ch=0.9, eps_ch=0.02) for k in (0.1, 0.4)]
        searches = [sec.search_loss_margin(q, d) for q in points for d in ("dr", "rr")]
        together = sec.drive(sec.lockstep(searches))
        assert len(set(evaluated_points)) == len(evaluated_points)
        assert together == [sec.max_additional_loss(q, d) for q in points for d in ("dr", "rr")]

    def test_no_searches(self):
        assert sec.drive(sec.lockstep([])) == []


def brent(f, a: float, b: float, xtol: float, rtol: float = sec.BRENT_RTOL) -> float:
    """sec._brentq on a plain function: each step returns f(x) without yielding."""

    def step(x):
        yield from ()
        return f(x)

    try:
        next(sec._brentq(step, a, b, f(a), f(b), xtol, rtol))
    except StopIteration as stop:
        return stop.value
    raise AssertionError("a search without rounds yielded")


# functions of an added loss x in dB with one root c in (0, 60) dB, and scale s
BRENT_FAMILIES = (
    lambda c, s: lambda x: math.exp(-x / s) - math.exp(-c / s),
    lambda c, s: lambda x: (c - x) * (1.0 + x * x / s),
    lambda c, s: lambda x: math.tanh((c - x) / s) + 1e-3 * math.sin(x),
    lambda c, s: lambda x: math.log1p(c) - math.log1p(x) - 1e-6 * s,
    lambda c, s: lambda x: (x - c) ** 3 + s * (x - c),
    lambda c, s: lambda x: math.cos(x / (2.0 * 60.0)) - math.cos(c / (2.0 * 60.0)),
)


def brent_problems(seed: int):
    """The functions of BRENT_FAMILIES over 150 seeded (c, s) whose values at
    0 and 60 dB differ in sign."""
    rng = np.random.default_rng(seed)
    for _ in range(150):
        c, s = rng.uniform(0.5, 59.5), rng.uniform(0.1, 30.0)
        for family in BRENT_FAMILIES:
            f = family(c, s)
            if f(0.0) * f(60.0) < 0.0:
                yield f


class TestBrent:
    @pytest.mark.parametrize("xtol", [1e-4, 2e-12])
    def test_matches_scipy_brentq_bitwise(self, xtol):
        roots = 0
        for f in brent_problems(23):
            assert brent(f, 0.0, 60.0, xtol) == optimize.brentq(f, 0.0, 60.0, xtol=xtol)
            roots += 1
        assert roots > 800

    @pytest.mark.parametrize("power", [1, 2], ids=["t", "u"])
    def test_rtol_matches_scipy_brentq_bitwise_on_transmittance(self, power):
        # the loss-margin search's problem: each function of the loss in dB as a
        # function of t = 10^(-x/10) on [1e-6, 1] with rtol LOSS_ROOT_RTOL, and
        # of u = t^2 on [1e-12, 1] with rtol 2 LOSS_ROOT_RTOL, with xtol 0.
        # scipy rejects xtol = 0; 5e-324 adds nothing to rtol |t| >= 2.3e-11 or
        # rtol |u| >= 4.6e-17, so scipy's tolerance is exactly rtol |t| or |u|
        lo, rtol = 1e-6**power, power * sec.LOSS_ROOT_RTOL
        roots = 0
        for f in brent_problems(29):

            def fv(v, f=f):
                return f(-10.0 / power * math.log10(v))

            expected = optimize.brentq(fv, lo, 1.0, xtol=5e-324, rtol=rtol)
            assert brent(fv, lo, 1.0, 0.0, rtol) == expected
            roots += 1
        assert roots > 800

    def test_returns_an_end_with_a_zero(self):
        assert brent(lambda x: 60.0 - x, 0.0, 60.0, 1e-4) == 60.0


def vm_rates(p: sec.ProtocolParams, direction: str, rounds: list):
    """`golden_walk`'s evaluator at p, one `key_rates` call per round; appends
    each round's V_M values and key fractions to `rounds`."""

    def rates(v_ms):
        reports = sec.key_rates([dataclasses.replace(p, v_m=v) for v in v_ms])
        rounds.append((list(v_ms), [report.rate(direction) for report in reports]))
        return rounds[-1][1]

    return rates


SWEEP_POINT = sec.ProtocolParams(v_m=5.0, eta_ch=0.9, eps_ch=0.02, beta=0.96)
# in the |rho| 1.47-1.85 dB band the RR optimum lies between the last two grid points
BAND_POINTS = [dataclasses.replace(SWEEP_POINT, k=rho_to_k(rho)) for rho in (1.5, 1.7, 1.84)]


class TestOptimizeVm:
    def test_bracket_grid_is_unimodal_at_reference_family(self):
        p = sec.ProtocolParams(v_m=1.0, k=0.1, eta_ch=0.5, eps_ch=0.02, beta=0.96)
        grid = np.logspace(np.log10(0.01), np.log10(100.0), 40)
        rates = [
            sec.key_rate(dataclasses.replace(p, v_m=v)).r_rr for v in grid
        ]
        increasing = [b > a for a, b in zip(rates, rates[1:])]
        # a single rising-to-falling switch means one interior maximum
        switches = sum(1 for a, b in zip(increasing, increasing[1:]) if a and not b)
        assert switches <= 1

    def test_optimum_is_interior(self):
        p = sec.ProtocolParams(v_m=1.0, k=0.2, eta_ch=0.5, eps_ch=0.02, beta=0.96)
        opt = sec.optimize_vm(p, "rr")
        assert 0.011 < opt.v_m < 99.0
        assert opt.rate > 0.0

    def test_dominates_fixed_choice(self):
        p = sec.ProtocolParams(v_m=2.0, k=0.1, eta_ch=0.5, eps_ch=0.02, beta=0.96)
        opt = sec.optimize_vm(p, "rr")
        assert opt.rate >= sec.key_rate(p).r_rr - 1e-12

    def test_refines_between_last_grid_points(self):
        p = sec.ProtocolParams(v_m=5.0, k=0.1867, eta_ch=0.9, eps_ch=0.02)
        opt = sec.optimize_vm(p, "rr")
        grid = np.logspace(np.log10(0.01), np.log10(100.0), 40)
        scan = np.exp(np.linspace(np.log(grid[-2]), np.log(grid[-1]), 41))
        best = max(sec.key_rate(dataclasses.replace(p, v_m=float(v))).r_rr for v in scan)
        assert opt.v_m < 100.0
        assert opt.rate >= best

    def test_flags_no_positive_key(self):
        p = sec.ProtocolParams(v_m=1.0, k=1.0, eta_ch=0.5, eps_ch=0.1, beta=0.96)
        opt = sec.optimize_vm(p, "dr")
        assert opt.rate <= 0.0

    def test_golden_depth_from_the_searches_sharing_a_round(self):
        # the largest d >= 1 with searches (2^d - 1) <= 16
        depths = [sec.golden_depth(n) for n in (1, 2, 3, 5, 6, 21, 1000)]
        assert depths == [4, 3, 2, 2, 1, 1, 1]

    def test_equals_the_one_step_walk_bitwise(self, evaluated_batches):
        grid = np.logspace(np.log10(0.01), np.log10(100.0), 40)
        for p in BAND_POINTS:
            assert grid[-2] < sec.optimize_vm(p, "rr").v_m < grid[-1]
        bests = []
        for p in BAND_POINTS + random_points(np.random.default_rng(31), 10):
            for direction in ("dr", "rr"):
                rounds = []
                expected = sec.OptimalVm(*golden_walk(vm_rates(p, direction, rounds)))
                bests.append(int(np.argmax(rounds[0][1])))
                assert sec.optimize_vm(p, direction) == expected
                # 2, 3 and 21 searches sharing each round: depth 3, 2 and 1
                for searches in (2, 3, 21):
                    evaluated_batches.clear()
                    assert sec.drive(sec.search_vm(p, direction, searches)) == expected
                # at depth 1 each round evaluates the walk's new points of that round
                seen, fresh = set(), []
                for v_ms, _ in rounds:
                    fresh.append([v for v in v_ms if v not in seen])
                    seen.update(v_ms)
                evaluated = [[q.v_m for q in batch] for batch in evaluated_batches]
                assert evaluated == [batch for batch in fresh if batch]
        assert {0, len(grid) - 1} <= set(bests)
        assert any(0 < best < len(grid) - 1 for best in bests)

    def test_golden_tree_stops_where_the_search_stops(self):
        top = np.log(4.0)
        wide = (0.0, sec.GOLDEN_C * top, sec.GOLDEN_R * top, top)
        for depth in range(5):
            assert len(sec._golden_tree(wide, depth, sec.GOLDEN_MAXITER)) == 2 ** (depth + 1) - 2
        assert len(sec._golden_tree(wide, 4, 1)) == 2
        assert sec._golden_tree(wide, 4, 0) == []
        # each branch ends once its bracket meets x3 - x0 <= 1e-3 (|x1| + |x2|)
        narrow = tuple(np.log(3.0) + 1e-4 * np.array([0.0, 0.4, 0.6, 1.0]))
        assert sec._golden_tree(narrow, 4, sec.GOLDEN_MAXITER) == []
        near = tuple(np.log(3.0) + 3e-3 * np.array([0.0, 0.4, 0.6, 1.0]))
        assert len(sec._golden_tree(near, 4, sec.GOLDEN_MAXITER)) == 2

    def test_one_search_takes_fewer_rounds_than_the_walk(self, evaluated_batches):
        points = [BAND_POINTS[0], sec.ProtocolParams(v_m=1.0, k=0.1, eta_ch=0.5, eps_ch=0.02)]
        for p in points + random_points(np.random.default_rng(32), 2):
            rounds = []
            expected = sec.OptimalVm(*golden_walk(vm_rates(p, "rr", rounds)))
            evaluated_batches.clear()
            assert sec.optimize_vm(p, "rr") == expected
            assert len(evaluated_batches) < len(rounds)
            # after the grid, each round carries at most SPECULATED_POINTS points,
            # among them every point that the walk asked for
            assert max(len(batch) for batch in evaluated_batches[1:]) <= sec.SPECULATED_POINTS
            asked = {q.v_m for batch in evaluated_batches for q in batch}
            assert {v for v_ms, _ in rounds for v in v_ms} <= asked


class TestMaxAdditionalLoss:
    def test_flagged_when_rate_nonpositive(self):
        p = sec.ProtocolParams(v_m=5.0, k=1.0, eta_ch=0.5, eps_ch=0.1, beta=0.96)
        margin = sec.max_additional_loss(p, "dr")
        assert margin.db == 0.0
        assert margin.flag == "no-positive-key"

    def test_saturates_for_lossless_noiseless(self):
        p = sec.ProtocolParams(v_m=5.0, k=0.0, eta_ch=0.999, eps_ch=0.0, beta=1.0)
        margin = sec.max_additional_loss(p, "rr")
        assert margin.flag == "saturated"
        assert margin.db == sec.MAX_ADDITIONAL_LOSS_DB

    def test_both_ends_in_one_round(self, evaluated_batches):
        p = sec.ProtocolParams(v_m=5.0)
        assert sec.max_additional_loss(p, "rr").flag == "saturated"
        end = dataclasses.replace(p, eta_ch=10.0 ** (-sec.MAX_ADDITIONAL_LOSS_DB / 10.0))
        assert evaluated_batches == [[p, end]]

    def test_monotone_in_leakage(self):
        margins = [
            sec.max_additional_loss(
                sec.ProtocolParams(v_m=5.0, k=k, eta_ch=0.9, eps_ch=0.02, beta=0.96),
                "rr",
            ).db
            for k in np.linspace(0.06, 1.0, 6)
        ]
        assert all(a >= b - 1e-6 for a, b in zip(margins, margins[1:]))

    def test_evaluates_each_point_once(self, evaluated_points):
        p = sec.ProtocolParams(v_m=5.0, k=0.2, eta_ch=0.9, eps_ch=0.02, beta=0.96)
        assert sec.max_additional_loss(p, "rr").flag == "ok"
        assert len(evaluated_points) > 2
        assert len(set(evaluated_points)) == len(evaluated_points)

    def test_root_within_its_tolerance_in_db(self):
        # whatever the search variable, R > 0 at the margin minus
        # LOSS_ROOT_XTOL_DB and R < 0 at the margin plus it
        rng = np.random.default_rng(31)
        points = []
        for _ in range(30):
            p = sec.ProtocolParams(
                v_m=rng.uniform(1.0, 10.0),
                k=rng.uniform(0.01, 0.5),
                eta_ch=rng.uniform(0.6, 0.99),
                eps_ch=rng.uniform(0.0, 0.03),
                beta=rng.uniform(0.95, 1.0),
            )
            points += [p, p.replace(k=0.0)]
        searches = [sec.search_loss_margin(p, d) for p in points for d in ("dr", "rr")]
        margins = iter(sec.drive(sec.lockstep(searches)))
        checked = []
        for p in points:
            margin_dr, margin_rr = next(margins), next(margins)
            if margin_dr.flag == margin_rr.flag == "ok":
                checked += [(p, "dr", margin_dr.db), (p, "rr", margin_rr.db)]
        assert {p.k > 0.0 for p, _, _ in checked} == {True, False}
        assert len(checked) >= 40
        tol = sec.LOSS_ROOT_XTOL_DB
        shifted = [
            p.replace(eta_ch=p.eta_ch * 10.0 ** (-a_db / 10.0))
            for p, _, db in checked
            for a_db in (db - tol, db + tol)
        ]
        reports = iter(sec.key_rates(shifted))
        for p, direction, db in checked:
            inside, outside = next(reports), next(reports)
            assert inside.rate(direction) > 0.0, (p, direction, db)
            assert outside.rate(direction) < 0.0, (p, direction, db)

    def test_ignorance_margin_nonnegative(self):
        for k in (0.1, 0.3, 0.6):
            p = sec.ProtocolParams(v_m=5.0, k=k, eta_ch=0.9, eps_ch=0.02, beta=0.96)
            m = sec.max_additional_loss(p, "rr").db
            m0 = sec.max_additional_loss(dataclasses.replace(p, k=0.0), "rr").db
            assert m0 - m >= 0.0


class TestLeakagePenalty:
    def test_zero_at_no_leakage(self):
        p = sec.ProtocolParams(v_m=5.0, k=0.0, eta_ch=0.6, eps_ch=0.02)
        assert sec.leakage_penalty(p, "rr") == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_over_sweep(self):
        for k in np.linspace(0.0, 1.0, 9):
            p = sec.ProtocolParams(v_m=5.0, k=k, eta_ch=0.6, eps_ch=0.02)
            assert sec.leakage_penalty(p, "rr") >= -1e-12
            assert sec.leakage_penalty(p, "dr") >= -1e-12

    def test_direct_reconciliation_is_more_sensitive(self):
        # back-to-back style channel, appreciable leakage
        for k in (0.3, 0.5, 0.8):
            p = sec.ProtocolParams(v_m=5.0, k=k, eta_ch=0.99, eps_ch=0.02, beta=0.96)
            assert sec.leakage_penalty(p, "dr") > sec.leakage_penalty(p, "rr")


class TestTrustedNoiseViability:
    def test_leakage_noise_helps_direct(self):
        assert sec.trusted_noise_viability(TABLE_POINT, "L", "dr") == "helpful"

    def test_detection_noise_harms_direct(self):
        assert sec.trusted_noise_viability(TABLE_POINT, "D", "dr") == "harmful"

    def test_signal_noise_harms_reverse(self):
        assert sec.trusted_noise_viability(TABLE_POINT, "P2", "rr") == "harmful"

    def test_no_leakage_makes_leakage_noise_neutral(self):
        p = dataclasses.replace(TABLE_POINT, k=0.0)
        base = sec.key_rate(p).rate("rr")
        noisy = sec.key_rate(dataclasses.replace(p, eps_l=0.5)).rate("rr")
        assert noisy == pytest.approx(base, abs=1e-9)
        assert sec.trusted_noise_viability(p, "L", "rr") == "neutral"

    def test_unknown_noise_point(self):
        with pytest.raises(InvalidArgument):
            sec.trusted_noise_viability(TABLE_POINT, "X", "rr")


class TestCouplingStability:
    @pytest.mark.parametrize("eps", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("field", ["eps_p1", "eps_l", "eps_p2"])
    def test_purification_is_pure_and_exact_with_vacuum_or_thermal_ancillas(self, field, eps):
        # up to eps = 1 the ancillas are vacua; above it they are thermal of
        # variance eps, with the tap at transmittance 0.5
        p = dataclasses.replace(TABLE_POINT, **{field: eps})
        spectrum = sec.build_scheme(p).state.spectrum
        np.testing.assert_allclose(spectrum, 1.0, rtol=0.0, atol=g.PHYSICALITY_TOL)
        rep = sec.key_rate(p)
        expected = purification_rates(p)
        assert (rep.i_ab, rep.chi_dr, rep.chi_rr) == pytest.approx(expected, rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("field", ["eps_l", "eps_p1", "eps_p2"])
    def test_small_noise_does_not_round_below_vacuum(self, field):
        # for eps <= 1 the ancillas are vacua of variance exactly 1; a variance
        # computed from eps used to round to 1 - 1e-14 here
        for eps in np.linspace(1e-6, 0.0025, 25):
            p = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.5, eps_ch=0.02, **{field: float(eps)})
            rep = sec.key_rate(p)
            assert np.isfinite(rep.r_dr) and np.isfinite(rep.r_rr)
            assert np.all(np.isfinite(purification_rates(p)))
