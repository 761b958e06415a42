import dataclasses
import tracemalloc

import numpy as np
import pytest
from oracles import bartlett_moments, gram_estimate, heterodyne_draws, interleave, mc_estimate

from modleak import gaussian as g
from modleak import montecarlo as mc
from modleak import security as sec
from modleak.errors import InvalidArgument, MissingMode, NumericalError, UnphysicalState

POINT = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.6, eps_ch=0.02)


def vacuum(*modes):
    """The x block, signs and labels of the vacuum of `modes`, as sample_moments takes them."""
    return np.eye(len(modes)), np.ones(len(modes)), modes


def block(state, measured):
    """The x block, signs and labels of the modes `measured` of `state`."""
    idx = [state.index(mode) for mode in measured]
    return state.x[np.ix_(idx, idx)], state.signs[idx], measured


def reduced_block(p, m):
    """The x block, signs and labels of the first m reduced modes A, B[, L] of p."""
    return sec.reduced_x(p)[:m, :m], sec.REDUCED_SIGNS[:m], sec.REDUCED_MODES[:m]


class TestSample:
    def test_vacuum_outcome_variance(self):
        moments = mc.sample_moments(*vacuum("a"), 1_000_000, seed=1)
        var = np.diagonal(moments.grams[0]) / moments.counts[0]
        assert np.allclose(var, 1.0, atol=0.005)

    def test_same_seed_is_bit_for_bit(self):
        epr = block(g.epr_source(4.0, ("a", "b")), ["a", "b"])
        m1 = mc.sample_moments(*epr, 5_000, seed=99)
        m2 = mc.sample_moments(*epr, 5_000, seed=99)
        assert np.array_equal(m1.grams, m2.grams)

    def test_different_seed_differs(self):
        m1 = mc.sample_moments(*vacuum("a"), 2_000, seed=1)
        m2 = mc.sample_moments(*vacuum("a"), 2_000, seed=2)
        assert not np.array_equal(m1.grams, m2.grams)

    def test_epr_cross_correlation(self):
        v, n = 6.0, 200_000
        epr = block(g.epr_source(v, ("a", "b")), ["a", "b"])
        gram = mc.sample_moments(*epr, n, seed=3).grams[0]
        # heterodyne outcome cross-covariance is half the matrix entry
        target = 0.5 * np.sqrt(v * v - 1.0)
        c_xx, c_pp = gram[0, 2] / (n - 1), gram[1, 3] / (n - 1)
        se = np.sqrt(2.0) * 0.5 * (v + 1.0) / np.sqrt(n)
        assert abs(c_xx - target) < 5.0 * se
        assert abs(c_pp + target) < 5.0 * se

    def test_generator_fidelity_scales_with_n(self):
        # sample variance error should shrink roughly like 1/sqrt(n)
        errs = []
        for n in (10_000, 100_000, 1_000_000):
            moments = mc.sample_moments(*vacuum("a"), n, seed=17)
            errs.append(abs(moments.grams[0, 0, 0] / n - 1.0))
        assert errs[2] < errs[0]
        assert errs[2] < 5.0 / np.sqrt(1_000_000)

    @pytest.mark.parametrize("n", [999, 0, -1])
    def test_rejects_counts_below_the_floor(self, n):
        with pytest.raises(InvalidArgument, match="at least 1000 samples"):
            mc.sample_moments(*vacuum("a"), n, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidArgument, match="seed"):
            mc.sample_moments(*vacuum("a"), 2_000, seed=-3)

    def test_integral_float_counts_and_seeds(self):
        epr = block(g.epr_source(4.0, ("a", "b")), ["a", "b"])
        exact = mc.sample_moments(*epr, 1_000_000, seed=7)
        floats = mc.sample_moments(*epr, 1e6, seed=7.0)
        assert floats.counts == exact.counts
        assert all(type(count) is int for count in floats.counts)
        assert np.array_equal(floats.grams, exact.grams)
        report = mc.end_to_end_consistency(POINT, 1e6, seed=1.0)
        assert report == mc.end_to_end_consistency(POINT, 1_000_000, 1)
        # the report records the seed that the sampler drew with
        assert type(report.seed) is int

    @pytest.mark.parametrize("n, seed", [(10000.5, 1), (10_000, 1.5), (10_000, float("nan")), ("1e6", 1)])
    def test_rejects_non_integral_counts_and_seeds(self, n, seed):
        with pytest.raises(InvalidArgument, match="must be a finite integer"):
            mc.sample_moments(*vacuum("a"), n, seed)

    def test_rejects_counts_not_exact_as_float64(self):
        assert mc.sample_moments(*vacuum("a"), 2**53, seed=0).counts[0] == 2**53
        with pytest.raises(InvalidArgument, match="at most 2\\*\\*53 samples"):
            mc.sample_moments(*vacuum("a"), 2**53 + 1, seed=0)

    def test_sub_batches_must_outnumber_the_columns(self):
        # Bartlett's decomposition needs m - 1 >= 2M outcomes in every sub-batch
        modes = [f"m{i}" for i in range(60)]
        with pytest.raises(InvalidArgument, match="at least 1210 samples, got 1000"):
            mc.sample_moments(*vacuum(*modes), 1_000, seed=0)
        moments = mc.sample_moments(*vacuum(*modes), 20_000, seed=0)
        assert moments.grams.shape == (11, 120, 120)

    @pytest.mark.parametrize("measured", [[], ["A", "A"], ("A", "B", "A")], ids=repr)
    def test_rejects_measured_modes(self, measured):
        x, signs = sec.reduced_x(POINT), sec.REDUCED_SIGNS
        m = len(measured)
        with pytest.raises(InvalidArgument, match="need one or more distinct measured modes"):
            mc.sample_moments(x[:m, :m], signs[:m], measured, 2_000, seed=0)

    @pytest.mark.parametrize(
        "x, signs, message",
        [
            (np.eye(3), np.ones(2), "x must be 2 x 2"),
            (np.eye(2)[0], np.ones(2), "x must be 2 x 2"),
            (np.eye(2)[None], np.ones(2), "x must be 2 x 2"),
            (np.eye(2), np.ones(3), "signs must be 2 values of"),
            (np.eye(2), np.ones((2, 1)), "signs must be 2 values of"),
            (np.eye(2), [1.0, 0.0], "signs must be 2 values of"),
            (np.eye(2), [1.0, -2.0], "signs must be 2 values of"),
            (np.eye(2), [1.0, np.nan], "signs must be 2 values of"),
        ],
        ids=["3x3", "row", "stacked", "3-signs", "column", "zero", "two", "nan"],
    )
    def test_rejects_a_block_that_does_not_fit_the_modes(self, x, signs, message):
        with pytest.raises(InvalidArgument, match=message):
            mc.sample_moments(x, signs, ("a", "b"), 2_000, seed=0)
        # the same block is sampled when it fits
        assert mc.sample_moments(np.eye(2), [1, -1], ("a", "b"), 2_000, seed=0).modes == ("a", "b")

    def test_bartlett_layout_is_read_only(self):
        for width in (2, 4, 6, 10):
            below, diag, eye = mc._bartlett_layout(width)
            assert below.size == width * (width - 1) // 2
            assert diag.tolist() == list(range(width)) and eye.shape == (width // 2,) * 2
            assert not any(array.flags.writeable for array in (below, diag, eye))
            assert mc._bartlett_layout(width)[0] is below

    def test_builds_no_state(self, checked_states):
        measured = block(sec.reduced_state(POINT), ["B", "A", "L"])
        checked_states.clear()
        mc.sample_moments(*measured, 5_000, seed=3)
        assert checked_states == []

    def test_gram_matrices_are_wishart(self):
        # mean (count - 1) Sigma; the whole batch's fails without its between-sub-batch term
        state, measured, n, seeds = sec.reduced_state(POINT), ["A", "B", "L"], 1_000, 2_000
        cov = 0.5 * (interleave(g.partial_trace(state, measured)) + np.eye(6))
        draws = [mc.sample_moments(*block(state, measured), n, seed) for seed in range(seeds)]
        assert {m.counts for m in draws} == {(n, *mc._subbatch_sizes(n))}
        grams = np.stack([m.grams for m in draws])
        dof = np.array(draws[0].counts)[:, None, None] - 1.0
        var = dof * (cov**2 + np.outer(np.diag(cov), np.diag(cov)))
        assert np.all(np.abs(grams.mean(axis=0) - dof * cov) < 4.0 * np.sqrt(var / seeds))
        np.testing.assert_allclose(grams.var(axis=0, ddof=1), var, rtol=0.15)

    def test_estimates_match_the_full_array_oracle_in_distribution(self):
        state, measured, n, seeds = sec.reduced_state(POINT), ["A", "B", "L"], 20_000, 300
        gamma = interleave(g.partial_trace(state, measured))

        def drawn(seed):
            est = mc.estimate_params(mc.sample_moments(*block(state, measured), n, seed))
            return [getattr(est, f) for f in TestStreamedMoments.ESTIMATE_FIELDS]

        def oracle(seed):
            r = heterodyne_draws(gamma, n, seed)
            return mc_estimate(r[:, 0:2], r[:, 2:4], r[:, 4:6])

        got = np.array([drawn(seed) for seed in range(seeds)])
        expected = np.array([oracle(seeds + seed) for seed in range(seeds)])
        se = np.sqrt((got.var(axis=0, ddof=1) + expected.var(axis=0, ddof=1)) / seeds)
        assert np.all(np.abs(got.mean(axis=0) - expected.mean(axis=0)) < 4.0 * se)
        np.testing.assert_allclose(got.std(axis=0, ddof=1), expected.std(axis=0, ddof=1), rtol=0.25)


class TestSeedContract:
    """The sampler and the estimator against references that follow the
    sample_moments docstring step by step, bit for bit."""

    # 1 to 5 modes; the reduced state's signs are A +, B -, L -, E1 -, E2 +
    SUBSETS = (
        ["L"],
        ["A", "B"],
        ["E1", "A", "B"],
        ["B", "A", "L"],
        ["E2", "B", "L", "A"],
        list(sec.REDUCED_MODES),
    )

    @staticmethod
    def assert_same_bits(state, measured, n, seed):
        idx = [state.modes.index(mode) for mode in measured]
        counts, grams = bartlett_moments(state.x, state.signs, idx, n, seed)
        moments = mc.sample_moments(*block(state, measured), n, seed)
        assert moments.counts == counts
        assert moments.grams.tobytes() == grams.tobytes()
        if "A" in measured and "B" in measured:
            cols = [2 * measured.index(m) if m in measured else None for m in ("A", "B", "L")]
            for blind_v_m in (None, POINT.v_m):
                expected = mc.EstimateReport(**gram_estimate(counts, grams, *cols, blind_v_m))
                assert repr(mc.estimate_params(moments, blind_v_m)) == repr(expected)

    @pytest.mark.parametrize("n", [mc.MIN_SAMPLES, 1_003, 10**6, 2**53])
    @pytest.mark.parametrize("measured", SUBSETS, ids="-".join)
    def test_matches_the_docstring_reference(self, measured, n):
        self.assert_same_bits(sec.reduced_state(POINT), measured, n, seed=n % 1_009)

    def test_widths_interleave(self):
        # a layout kept for one width must not serve another
        state = sec.reduced_state(dataclasses.replace(POINT, k=0.8, eps_l=0.05))
        subsets = (["A", "B"], ["B", "A", "L"], ["E2", "A"], list(sec.REDUCED_MODES))
        for seed, measured in enumerate(subsets):
            self.assert_same_bits(state, measured, 20_011, seed)


class TestEstimateParams:
    def _batch(self, p, n, seed):
        # L's record wherever the purification has it, as in the closure
        return mc.sample_moments(*reduced_block(p, 3 if p.k > 0.0 or p.eps_l > 0.0 else 2), n, seed)

    def test_recovers_parameters_within_errors(self):
        est = mc.estimate_params(self._batch(POINT, 1_000_000, seed=42))
        assert abs(est.v_m_hat - POINT.v_m) < 5.0 * est.se_v_m
        assert abs(est.k_hat - POINT.k) < 5.0 * est.se_k
        assert abs(est.eta_hat - POINT.eta_ch) < 5.0 * est.se_eta
        assert abs(est.eps_hat - POINT.eps_ch) < 5.0 * est.se_eps

    def test_no_leakage_point_estimates_small_k(self):
        p = dataclasses.replace(POINT, k=0.0, eps_l=0.1)
        est = mc.estimate_params(self._batch(p, 500_000, seed=5))
        assert abs(est.k_hat) < 5.0 * max(est.se_k, 0.02)

    def test_seed_invariance_of_estimates(self):
        e1 = mc.estimate_params(self._batch(POINT, 200_000, seed=8))
        e2 = mc.estimate_params(self._batch(POINT, 200_000, seed=8))
        assert e1 == e2

    def test_errors_shrink_with_n(self):
        small = mc.estimate_params(self._batch(POINT, 20_000, seed=9))
        large = mc.estimate_params(self._batch(POINT, 2_000_000, seed=9))
        assert large.se_v_m < small.se_v_m
        assert large.se_eta < small.se_eta

    def test_eps_standard_error_is_calibrated_near_zero(self):
        # criterion 7's aware point at n = 1e5: about 17% of the sub-batch eps estimates
        # are negative.  Their unclamped spread puts the std of (eps_hat - eps_Ch) / se_eps
        # near Student's t with 9 dof (1.134); clamped sub-batch values gave 1.36
        aware = reduced_block(POINT, 3)
        z = []
        for seed in range(2000):
            est = mc.estimate_params(mc.sample_moments(*aware, 100_000, seed))
            z.append((est.eps_hat - POINT.eps_ch) / est.se_eps)
        assert 1.05 <= np.std(z) <= 1.22

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(InvalidArgument):
            self._batch(POINT, 500, seed=1)

    @pytest.mark.parametrize("blind", [False, True])
    def test_report_floats_are_python_floats(self, blind):
        # the JSON and repr of a report hold Python floats, not numpy scalars
        p = dataclasses.replace(POINT, k=0.5)
        report = mc.end_to_end_consistency(p, 20_000, seed=4, assume_no_leakage=blind)
        for rep in (report, report.estimate):
            names = [f.name for f in dataclasses.fields(rep) if f.type == "float"]
            assert len(names) in (6, 8)
            assert all(type(getattr(rep, name)) is float for name in names)

    @pytest.mark.parametrize(
        "blind_v_m", [0.0, -1.0, np.nan, np.inf, True, "5", np.array(5.0)], ids=repr
    )
    def test_rejects_a_blind_v_m_that_is_not_a_finite_positive_real(self, blind_v_m):
        moments = mc.sample_moments(*reduced_block(POINT, 2), 2_000, seed=1)
        with pytest.raises(InvalidArgument, match="blind_v_m must be a finite real number > 0"):
            mc.estimate_params(moments, blind_v_m=blind_v_m)
        # numpy and integer scalars are real numbers
        assert mc.estimate_params(moments, np.float64(5.0)) == mc.estimate_params(moments, 5)

    def test_blind_closure_has_no_bool_v_m(self):
        # neither ProtocolParams nor estimate_params takes a bool as a real number
        for make in (lambda: dataclasses.replace(POINT, v_m=True), lambda: POINT.replace(v_m=True)):
            with pytest.raises(InvalidArgument, match="^v_m must be a real number, got True$"):
                make()

    def test_missing_bob_record(self):
        moments = mc.sample_moments(*block(sec.reduced_state(POINT), ["A", "L"]), 2_000, seed=1)
        with pytest.raises(MissingMode, match="B"):
            mc.estimate_params(moments)


class TestStreamedMoments:
    ESTIMATE_FIELDS = (
        "v_m_hat", "k_hat", "eta_hat", "eps_hat", "se_v_m", "se_k", "se_eta", "se_eps"
    )

    @pytest.mark.parametrize("n", [1_000, 1_003, 200_003])
    @pytest.mark.parametrize("measured", [("A", "B", "L"), ("A", "B")])
    @pytest.mark.parametrize("blind", [False, True])
    def test_estimates_match_oracle_on_the_same_draws(self, n, measured, blind):
        state = sec.build_scheme(POINT).state
        draws = heterodyne_draws(interleave(g.partial_trace(state, list(measured))), n, seed=n)
        records = {m: draws[:, 2 * i : 2 * i + 2] for i, m in enumerate(measured)}
        blind_v_m = POINT.v_m if blind else None
        expected = mc_estimate(records["A"], records["B"], records.get("L"), blind_v_m, blind)
        # the oracle's own statistics: the whole batch, then its np.array_split sub-batches
        batches = [draws, *np.array_split(draws, mc.N_SUBBATCHES)]
        counts = tuple(len(b) for b in batches)
        assert counts == (n, *mc._subbatch_sizes(n))
        grams = np.stack([(b - b.mean(axis=0)).T @ (b - b.mean(axis=0)) for b in batches])
        est = mc.estimate_params(mc.OutcomeMoments(measured, counts, grams), blind_v_m=blind_v_m)
        got = [getattr(est, f) for f in self.ESTIMATE_FIELDS]
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
        assert est.n == n

    def test_non_finite_statistics_rejected(self):
        moments = mc.sample_moments(*block(g.epr_source(4.0, ("a", "b")), ["a", "b"]), 2_000, seed=1)
        grams = moments.grams.copy()
        grams[4, 2, 2] = np.inf
        with pytest.raises(InvalidArgument, match="mode b: non-finite"):
            dataclasses.replace(moments, grams=grams)

    # columns: B's x and p, then A's, then L's
    @pytest.mark.parametrize(
        "entries, mode", [([(3, 5, 5), (4, 3, 3)], "A"), ([(9, 5, 5), (0, 1, 1)], "B")]
    )
    def test_names_the_first_non_finite_mode(self, entries, mode):
        moments = mc.sample_moments(*block(sec.reduced_state(POINT), ["B", "A", "L"]), 2_000, seed=1)
        grams = moments.grams.copy()
        for entry in entries:
            grams[entry] = np.nan
        with pytest.raises(InvalidArgument, match=f"mode {mode}: non-finite"):
            dataclasses.replace(moments, grams=grams)

    def test_closure_memory_does_not_grow_with_n(self):
        mc.end_to_end_consistency(POINT, 2_000, seed=1)  # warm imports and caches
        tracemalloc.start()
        try:
            mc.end_to_end_consistency(POINT, 2_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestEndToEndConsistency:
    def test_faithful_estimation_closes_the_loop(self):
        rep = mc.end_to_end_consistency(POINT, 1_000_000, seed=42)
        assert rep.verdict == "consistent"
        assert abs(rep.r_est_rr - rep.r_true_rr) < 0.02
        assert abs(rep.r_est_rr - rep.r_true_rr) < 5.0 * rep.se_r_rr + 1e-6
        assert rep.skipped_se_terms == ()

    def test_rate_gap_shrinks_with_more_samples(self):
        gaps = []
        for n in (250_000, 4_000_000):
            rep = mc.end_to_end_consistency(POINT, n, seed=13)
            gaps.append(abs(rep.r_est_rr - rep.r_true_rr))
        ratio = np.sqrt(4_000_000 / 250_000)
        # a factor-4 sqrt(n) improvement, generously bracketed
        assert gaps[1] < gaps[0]
        assert gaps[0] / max(gaps[1], 1e-12) > ratio / 4.0

    def test_ignoring_leakage_overestimates_the_key(self):
        p = dataclasses.replace(POINT, k=0.5)
        rep = mc.end_to_end_consistency(p, 500_000, seed=7, assume_no_leakage=True)
        assert rep.verdict == "overestimates key"
        assert rep.r_est_rr > rep.r_true_rr

    def test_aware_closures_at_large_modulation_are_consistent(self):
        # eps_hat = v_b - 1 - eta v_m: a variance divided by n rather than n - 1
        # biases it low by about 2 v_b / n, which at V_M 1e4 read "overestimates
        # key" on 27 of these 60 points
        rng = np.random.default_rng(31)
        verdicts = []
        for _ in range(60):
            k, eta_ch, eps_ch = rng.uniform(0.0, 2.0), rng.uniform(0.001, 0.999), rng.uniform(0.0, 0.5)
            p = sec.ProtocolParams(v_m=1e4, k=k, eta_ch=eta_ch, eps_ch=eps_ch)
            verdicts.append(mc.end_to_end_consistency(p, 10**6, seed=1).verdict)
        assert verdicts == ["consistent"] * 60

    def test_deterministic_for_fixed_seed(self):
        r1 = mc.end_to_end_consistency(POINT, 100_000, seed=21)
        r2 = mc.end_to_end_consistency(POINT, 100_000, seed=21)
        assert r1 == r2

    @pytest.mark.parametrize(
        "k, blind, measured",
        [(0.0, False, ["A", "B"]), (0.3, False, ["A", "B", "L"]), (0.3, True, ["A", "B"])],
    )
    def test_samples_the_reduced_state(self, monkeypatch, sampled_blocks, k, blind, measured):
        def refuse(name):
            def refused(p):
                raise AssertionError(f"the closure must not call {name}")

            return refused

        p = dataclasses.replace(POINT, k=k)
        state = sec.reduced_state(p)
        monkeypatch.setattr(sec, "build_scheme", refuse("build_scheme"))
        monkeypatch.setattr(sec, "reduced_state", refuse("reduced_state"))
        mc.end_to_end_consistency(p, 5_000, seed=3, assume_no_leakage=blind)
        # the measured block of the reduced state, bit for bit, unchecked
        idx = [state.index(mode) for mode in measured]
        [(x, signs, modes, n, seed)] = sampled_blocks
        assert (modes, n, seed) == (tuple(measured), 5_000, 3)
        assert x.tobytes() == state.x[idx][:, idx].tobytes()
        assert signs.tobytes() == state.signs[idx].tobytes()

    @pytest.mark.parametrize("blind", [False, True])
    def test_non_finite_block_raises_before_the_count_and_seed(self, blind):
        # at V_M = 1e300, v_s^2 overflows: the reduced state's check raises the same error
        p = sec.ProtocolParams(v_m=1e300, k=0.3)
        message = "^covariance matrix has non-finite entries$"
        with pytest.raises(NumericalError, match=message):
            sec.reduced_state(p)
        with pytest.raises(NumericalError, match=message):
            mc.end_to_end_consistency(p, 5, seed=-1, assume_no_leakage=blind)

    # seed-31 points at V_M = 1e3 and 1e4 whose five-mode reduced state fails its
    # check, from rounding of about eps v_s^2 in A's row, while key_rate is finite
    @pytest.mark.parametrize(
        "v_m, k, eta_ch, eps_ch",
        [(1e3, 1.89, 0.59, 0.12), (1e3, 1.34, 0.19, 0.37), (1e4, 0.6, 0.59, 0.49), (1e4, 0.21, 0.29, 0.15)],
    )
    def test_closure_is_finite_where_the_key_rate_is(self, v_m, k, eta_ch, eps_ch):
        p = sec.ProtocolParams(v_m=v_m, k=k, eta_ch=eta_ch, eps_ch=eps_ch, beta=0.96)
        with pytest.raises(UnphysicalState):
            sec.reduced_state(p)
        assert all(np.isfinite(dataclasses.astuple(sec.key_rate(p))))
        for blind in (False, True):
            rep = mc.end_to_end_consistency(p, 10**6, seed=1, assume_no_leakage=blind)
            fields = dataclasses.astuple(rep.estimate) + dataclasses.astuple(rep)[1:7]
            assert all(np.isfinite(fields))

    def test_closure_at_huge_n_is_finite(self):
        # the draw's cost does not depend on n
        rep = mc.end_to_end_consistency(POINT, 10**15, seed=5)
        fields = dataclasses.astuple(rep.estimate) + dataclasses.astuple(rep)[1:7]
        assert all(np.isfinite(fields))
        assert rep.estimate.n == 10**15

    def test_evaluates_each_point_once(self, evaluated_points):
        mc.end_to_end_consistency(POINT, 5_000, seed=3)
        # the true point, the estimated point and its four bumped copies
        assert len(evaluated_points) == 6

    def test_checks_one_state(self, checked_states):
        mc.end_to_end_consistency(POINT, 5_000, seed=3)
        # Eve's E, E|a and E|b at the six evaluated points; the sampled block is unchecked
        assert [(c.signs, c.shape) for c in checked_states] == [((-1.0, -1.0, 1.0), (3, 6))]

    def test_rate_se_names_skipped_terms(self):
        p = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=1.0, eps_ch=0.0)
        est = mc.EstimateReport(
            v_m_hat=5.0, k_hat=0.3, eta_hat=1.0, eps_hat=0.0,
            se_v_m=0.01, se_k=0.01, se_eta=0.01, se_eps=0.01, n=10_000,
        )
        bumped, skipped = mc._bumped_points(p, est)
        se_dr, se_rr = mc._rate_se(sec.key_rate(p), sec.key_rates(bumped.values()))
        # eps_ch > 0 at eta_ch = 1 has no purification
        assert skipped == ("eps_ch",)
        assert se_dr > 0.0 and se_rr > 0.0
