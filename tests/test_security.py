import dataclasses
import math

import numpy as np
import pytest

from modleak import gaussian as g
from modleak import security as sec
from modleak.errors import InvalidArgument, UnphysicalState

from oracles import eq4_matrix, no_switching_rates, reduced_model_rates

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
    bob = gamma_ab.mode_block("B")
    bob_cond = g.heterodyne_condition(gamma_ab, "A").mode_block("B")
    i_ab = sum(0.5 * np.log2((bob[q, q] + 1.0) / (bob_cond[q, q] + 1.0)) for q in (0, 1))
    trusted = g.partial_trace(scheme.state, scheme.trusted)
    s_t = g.von_neumann_entropy(trusted)
    chi_dr, chi_rr = (
        s_t - g.von_neumann_entropy(g.heterodyne_condition(trusted, x)) for x in ("A", "B")
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

    def test_rejects_channel_noise_without_loss(self):
        with pytest.raises(InvalidArgument):
            sec.ProtocolParams(v_m=5.0, eta_ch=1.0, eps_ch=0.1)


class TestBuildScheme:
    def test_no_leakage_reduces_to_source_plus_channel(self):
        p = sec.ProtocolParams(v_m=3.0, k=0.0, eta_ch=0.7, eps_ch=0.05)
        scheme = sec.build_scheme(p)
        assert scheme.state.modes == ("A", "B", "E1", "E2")
        ab = g.partial_trace(scheme.state, ["A", "B"]).data
        assert np.allclose(ab, eq4_matrix(3.0, 0.0, 0.7, 0.05), atol=1e-10)

    def test_matches_effective_two_mode_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            vm = rng.uniform(0.01, 50.0)
            k = rng.uniform(0.0, 2.0)
            eta = rng.uniform(1e-3, 0.999)
            eps = rng.uniform(0.0, 0.5)
            p = sec.ProtocolParams(v_m=vm, k=k, eta_ch=eta, eps_ch=eps)
            ab = g.partial_trace(sec.build_scheme(p).state, ["A", "B"]).data
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
        for q, report in zip(points, batched):
            single = sec.key_rate(q)
            for name, value in vars(single).items():
                assert getattr(report, name) == pytest.approx(value, rel=0.0, abs=1e-12)

    def test_one_evaluation_on_five_modes(self, monkeypatch):
        points = random_points(np.random.default_rng(22), 60)
        assert len({structure(q) for q in points}) >= 16
        evaluations, states = [], []
        evaluate, reduced_state = sec._evaluate, sec.reduced_state

        def recorded_evaluate(group):
            evaluations.append(list(group))
            return evaluate(group)

        def recorded_state(p):
            states.append(reduced_state(p))
            return states[-1]

        monkeypatch.setattr(sec, "_evaluate", recorded_evaluate)
        monkeypatch.setattr(sec, "reduced_state", recorded_state)
        sec.key_rates(points + points[:5])
        assert evaluations == [points]
        [state] = states
        assert state.modes == ("A", "B", "L", "E1", "E2")
        assert state.batch_shape == (len(points),)

    def test_empty_call(self):
        assert sec.key_rates([]) == []

    def test_unphysical_point_fails_its_batch_alike(self):
        bad = sec.ProtocolParams(v_m=5.0, eta_ch=0.99999, eps_ch=0.1)
        with pytest.raises(UnphysicalState):
            sec.key_rate(bad)
        same_structure = sec.ProtocolParams(v_m=5.0, eta_ch=0.5, eps_ch=0.1)
        other = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.5, eps_ch=0.1, eps_l=0.2)
        with pytest.raises(UnphysicalState):
            sec.key_rates([same_structure, bad, other])


class TestReducedState:
    """The five-mode evaluator against the purification and a 50-digit oracle."""

    POINTS = random_points(np.random.default_rng(24), 300)

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
        assert gaps.max() <= 1e-9

    def test_matches_high_precision_oracle_on_largest_gaps(self):
        largest = np.argsort(self.gaps().max(axis=1))[-5:]
        for i in largest:
            q = self.POINTS[i]
            rep = sec.key_rate(q)
            i_ab, chi_dr, chi_rr = reduced_model_rates(*(getattr(q, f) for f in MODEL_FIELDS))
            assert rep.i_ab == pytest.approx(i_ab, rel=0.0, abs=1e-12)
            assert rep.chi_dr == pytest.approx(max(chi_dr, 0.0), rel=0.0, abs=1e-12)
            assert rep.chi_rr == pytest.approx(max(chi_rr, 0.0), rel=0.0, abs=1e-12)

    def test_is_the_reduced_purification(self):
        p = dataclasses.replace(TABLE_POINT, eps_p1=0.1, eps_l=0.2, eps_p2=0.3)
        scheme = sec.build_scheme(p)
        reduced = g.partial_trace(scheme.state, sec.REDUCED_MODES)
        np.testing.assert_allclose(sec.reduced_state(p).data, reduced.data, rtol=0.0, atol=1e-11)

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


def brent(f, a: float, b: float, xtol: float) -> float:
    """sec._brentq driven by a plain function."""
    roots = sec._brentq(a, b, f(a), f(b), xtol)
    try:
        x = next(roots)
        while True:
            x = roots.send(f(x))
    except StopIteration as stop:
        return stop.value


class TestBrent:
    @pytest.mark.parametrize("xtol", [1e-4, 2e-12])
    def test_matches_scipy_brentq_bitwise(self, xtol):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(23)
        families = (
            lambda c, s: lambda x: math.exp(-x / s) - math.exp(-c / s),
            lambda c, s: lambda x: (c - x) * (1.0 + x * x / s),
            lambda c, s: lambda x: math.tanh((c - x) / s) + 1e-3 * math.sin(x),
            lambda c, s: lambda x: math.log1p(c) - math.log1p(x) - 1e-6 * s,
            lambda c, s: lambda x: (x - c) ** 3 + s * (x - c),
            lambda c, s: lambda x: math.cos(x / (2.0 * 60.0)) - math.cos(c / (2.0 * 60.0)),
        )
        roots = 0
        for _ in range(150):
            c, s = rng.uniform(0.5, 59.5), rng.uniform(0.1, 30.0)
            for family in families:
                f = family(c, s)
                if f(0.0) * f(60.0) >= 0.0:
                    continue
                assert brent(f, 0.0, 60.0, xtol) == optimize.brentq(f, 0.0, 60.0, xtol=xtol)
                roots += 1
        assert roots > 800

    def test_returns_an_end_with_a_zero(self):
        assert brent(lambda x: 60.0 - x, 0.0, 60.0, 1e-4) == 60.0


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
    def test_rates_stable_under_coupling_transmittance(self, monkeypatch):
        p = dataclasses.replace(TABLE_POINT, eps_p1=0.05, eps_l=0.05)
        rates = []
        for eta_p in (0.9985, 0.999, 0.9995):
            monkeypatch.setattr(sec, "ETA_P", eta_p)
            i_ab, chi_dr, chi_rr = purification_rates(p)
            rates.append((p.beta * i_ab - chi_dr, p.beta * i_ab - chi_rr))
        for r_dr, r_rr in rates[1:]:
            assert r_dr == pytest.approx(rates[0][0], abs=1e-4)
            assert r_rr == pytest.approx(rates[0][1], abs=1e-4)

    @pytest.mark.parametrize("field", ["eps_l", "eps_p1", "eps_p2"])
    def test_small_noise_does_not_round_below_vacuum(self, field):
        # below eps = 2 (1 - ETA_P) the ancilla variance used to round to 1 - 1e-14
        for eps in np.linspace(1e-6, 0.0025, 25):
            p = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.5, eps_ch=0.02, **{field: float(eps)})
            rep = sec.key_rate(p)
            assert np.isfinite(rep.r_dr) and np.isfinite(rep.r_rr)
            assert np.all(np.isfinite(purification_rates(p)))
