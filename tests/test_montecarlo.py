import dataclasses
import tracemalloc

import numpy as np
import pytest
from oracles import mc_estimate

from modleak import gaussian as g
from modleak import montecarlo as mc
from modleak import security as sec
from modleak.errors import InvalidArgument

POINT = sec.ProtocolParams(v_m=5.0, k=0.3, eta_ch=0.6, eps_ch=0.02)


class TestSample:
    def test_vacuum_outcome_variance(self):
        batch = mc.sample(g.vacuum(1, ("a",)), ["a"], 1_000_000, seed=1)
        var = np.var(batch.data["a"], axis=0)
        assert np.allclose(var, 1.0, atol=0.005)

    def test_same_seed_is_bit_for_bit(self):
        state = g.epr_source(4.0, ("a", "b"))
        b1 = mc.sample(state, ["a", "b"], 5_000, seed=99)
        b2 = mc.sample(state, ["a", "b"], 5_000, seed=99)
        assert np.array_equal(b1.data["a"], b2.data["a"])
        assert np.array_equal(b1.data["b"], b2.data["b"])

    def test_different_seed_differs(self):
        state = g.vacuum(1, ("a",))
        b1 = mc.sample(state, ["a"], 2_000, seed=1)
        b2 = mc.sample(state, ["a"], 2_000, seed=2)
        assert not np.array_equal(b1.data["a"], b2.data["a"])

    def test_epr_cross_correlation(self):
        v, n = 6.0, 200_000
        state = g.epr_source(v, ("a", "b"))
        batch = mc.sample(state, ["a", "b"], n, seed=3)
        a, b = batch.data["a"], batch.data["b"]
        # heterodyne outcome cross-covariance is half the matrix entry
        target = 0.5 * np.sqrt(v * v - 1.0)
        c_xx = np.cov(a[:, 0], b[:, 0])[0, 1]
        c_pp = np.cov(a[:, 1], b[:, 1])[0, 1]
        se = np.sqrt(2.0) * 0.5 * (v + 1.0) / np.sqrt(n)
        assert abs(c_xx - target) < 5.0 * se
        assert abs(c_pp + target) < 5.0 * se

    def test_generator_fidelity_scales_with_n(self):
        # sample variance error should shrink roughly like 1/sqrt(n)
        errs = []
        for n in (10_000, 100_000, 1_000_000):
            batch = mc.sample(g.vacuum(1, ("a",)), ["a"], n, seed=17)
            errs.append(abs(np.var(batch.data["a"][:, 0]) - 1.0))
        assert errs[2] < errs[0]
        assert errs[2] < 5.0 / np.sqrt(1_000_000)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(InvalidArgument):
            mc.sample(g.vacuum(1, ("a",)), ["a"], 0, seed=0)
        with pytest.raises(InvalidArgument):
            mc.sample_moments(g.vacuum(1, ("a",)), ["a"], 0, seed=0)

    @pytest.mark.parametrize("draw", [mc.sample, mc.sample_moments])
    def test_rejects_negative_seed(self, draw):
        with pytest.raises(InvalidArgument, match="seed"):
            draw(g.vacuum(1, ("a",)), ["a"], 2_000, seed=-3)


class TestEstimateParams:
    def _batch(self, p, n, seed):
        scheme = sec.build_scheme(p)
        measured = ["A", "B"] + (["L"] if "L" in scheme.state.modes else [])
        return mc.sample(scheme.state, measured, n, seed)

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

    def test_minimum_sample_count_enforced(self):
        batch = self._batch(POINT, 500, seed=1)
        with pytest.raises(InvalidArgument):
            mc.estimate_params(batch)

    def test_assume_no_leakage_requires_known_modulation(self):
        batch = self._batch(POINT, 2_000, seed=1)
        with pytest.raises(InvalidArgument):
            mc.estimate_params(batch, assume_no_leakage=True)


class TestStreamedMoments:
    ESTIMATE_FIELDS = (
        "v_m_hat", "k_hat", "eta_hat", "eps_hat", "se_v_m", "se_k", "se_eta", "se_eps"
    )

    @pytest.mark.parametrize("n", [1_000, 1_003, 200_003])
    @pytest.mark.parametrize("measured", [("A", "B", "L"), ("A", "B")])
    @pytest.mark.parametrize("blind", [False, True])
    def test_estimates_match_oracle_on_the_same_draws(self, n, measured, blind):
        state = sec.build_scheme(POINT).state
        batch = mc.sample(state, list(measured), n, seed=n)
        kwargs = {"v_m_known": POINT.v_m, "assume_no_leakage": True} if blind else {}
        expected = mc_estimate(
            batch.data["A"], batch.data["B"], batch.data.get("L"),
            kwargs.get("v_m_known"), blind,
        )
        for source in (mc.sample_moments(state, list(measured), n, seed=n), batch):
            est = mc.estimate_params(source, **kwargs)
            got = [getattr(est, f) for f in self.ESTIMATE_FIELDS]
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
            assert est.n == n

    @pytest.mark.parametrize("n, block_rows", [(1_000_003, mc.BLOCK_ROWS), (20_003, 1_000)])
    def test_blocks_are_one_draw(self, monkeypatch, n, block_rows):
        monkeypatch.setattr(mc, "BLOCK_ROWS", block_rows)
        sizes = mc._subbatch_sizes(n)
        assert sizes == [len(i) for i in np.array_split(np.arange(n), mc.N_SUBBATCHES)]
        blocks = [(i, z.copy()) for i, z in mc._blocks(np.random.default_rng(5), sizes, 6)]
        assert max(len(z) for _, z in blocks) <= block_rows
        assert [sum(len(z) for j, z in blocks if j == i) for i in range(10)] == sizes
        whole = np.random.default_rng(5).standard_normal((n, 6))
        assert np.array_equal(np.concatenate([z for _, z in blocks]), whole)

    def test_moments_of_short_batches(self):
        # fewer samples than sub-batches leaves empty sub-batches with zero moments
        moments = mc.sample_moments(g.vacuum(1, ("a",)), ["a"], 3, seed=1)
        assert moments.counts == (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
        assert np.all(np.isfinite(moments.grams)) and np.all(moments.grams[3:] == 0.0)
        with pytest.raises(InvalidArgument, match="at least"):
            mc.estimate_params(moments, alice="a", bob="a")

    def test_non_finite_statistics_rejected(self):
        moments = mc.sample_moments(g.epr_source(4.0, ("a", "b")), ["a", "b"], 2_000, seed=1)
        grams = moments.grams.copy()
        grams[4, 2, 2] = np.inf
        with pytest.raises(InvalidArgument, match="mode b: non-finite"):
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

    def test_deterministic_for_fixed_seed(self):
        r1 = mc.end_to_end_consistency(POINT, 100_000, seed=21)
        r2 = mc.end_to_end_consistency(POINT, 100_000, seed=21)
        assert r1 == r2

    @pytest.mark.parametrize("k, measured", [(0.0, ["A", "B"]), (0.3, ["A", "B", "L"])])
    def test_samples_the_reduced_state(self, monkeypatch, k, measured):
        def refuse(p):
            raise AssertionError("the closure must not build the purification")

        draws = []
        sample_moments = mc.sample_moments

        def recorded(state, modes, n, seed):
            draws.append((state.modes, modes))
            return sample_moments(state, modes, n, seed)

        monkeypatch.setattr(sec, "build_scheme", refuse)
        monkeypatch.setattr(mc, "sample_moments", recorded)
        mc.end_to_end_consistency(dataclasses.replace(POINT, k=k), 5_000, seed=3)
        assert draws == [(sec.REDUCED_MODES, measured)]

    def test_evaluates_each_point_once(self, evaluated_points):
        mc.end_to_end_consistency(POINT, 5_000, seed=3)
        # the true point, the estimated point and its four bumped copies
        assert len(evaluated_points) == 6

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
