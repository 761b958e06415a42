import numpy as np
import pytest
from mpmath import mp
from scipy.linalg import expm

from modleak import gaussian as g
from modleak import security as sec
from modleak.errors import InvalidArgument, MissingMode, NumericalError, UnphysicalState

from oracles import interleave, mp_entropy_g, symplectic_spectrum


def random_state(rng, signs: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The x block X = M D M^T, D = diag(nu), for M = exp(K S) with a random
    antisymmetric K and S = diag(signs).  M S M^T = S, so M on the x and
    S M S = M^-T on the p quadratures is a symplectic, and X with these signs
    is it applied to thermal modes of spectrum nu."""
    n = len(signs)
    k = rng.normal(size=(n, n)) * (0.4 / np.sqrt(n))
    m = expm((k - k.T) * signs)
    return m @ np.diag(nu) @ m.T


def random_signs(rng, n: int) -> np.ndarray:
    return rng.choice([-1.0, 1.0], n)


def thermal(v: float) -> np.ndarray:
    """The x block of one thermal mode of quadrature variance v."""
    return np.full((1, 1), v)


def one_mode(x: np.ndarray) -> g.CovMatrix:
    """States of one mode "a" with x blocks x, (..., 1, 1)."""
    return g.CovMatrix(("a",), x, [1.0])


def variances(state: g.CovMatrix, mode: str) -> np.ndarray:
    """The x and p variances of one mode, from the diagonal of gamma."""
    i = state.index(mode)
    return np.diagonal(interleave(state), axis1=-2, axis2=-1)[..., 2 * i : 2 * i + 2]


class TestConstructors:
    def test_vacuum_is_identity(self):
        assert np.allclose(interleave(g.vacuum(("a",))), np.eye(2))
        assert np.allclose(interleave(g.vacuum(("a", "b"))), np.eye(4))

    def test_vacuum_is_pure(self):
        nus = g.vacuum(("a", "b", "c")).spectrum
        assert np.allclose(nus, 1.0, atol=1e-12)

    def test_vacuum_rejects_zero_modes(self):
        with pytest.raises(InvalidArgument):
            g.vacuum(())

    def test_epr_at_unit_variance_is_two_vacua(self):
        assert np.allclose(interleave(g.epr_source(1.0, ("a", "b"))), np.eye(4))

    def test_epr_reduces_to_thermal(self):
        state = g.epr_source(5.0, ("a", "b"))
        for mode in ("a", "b"):
            reduced = g.partial_trace(state, [mode])
            assert np.allclose(interleave(reduced), 5.0 * np.eye(2))

    def test_epr_is_pure(self):
        nus = g.epr_source(5.0, ("a", "b")).spectrum
        assert np.allclose(nus, [1.0, 1.0], atol=1e-9)

    def test_epr_rejects_subunit_variance(self):
        with pytest.raises(InvalidArgument):
            g.epr_source(0.5, ("a", "b"))

    def test_nan_parameters_rejected(self):
        pair = g.vacuum(("a", "b"))
        builds = (
            lambda: g.epr_source(np.nan, ("a", "b")),
            lambda: g.beamsplitter(pair, "a", "b", np.nan),
            lambda: g.two_mode_squeezer(pair, "a", "b", np.nan),
            lambda: g.loss_excess_channel(pair, "a", np.nan, 0.0, ("e", "f")),
            lambda: g.loss_excess_channel(pair, "a", 0.5, np.nan, ("e", "f")),
        )
        for build in builds:
            with pytest.raises(InvalidArgument):
                build()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidArgument):
            g.CovMatrix(("a", "a"), np.eye(2), [1.0, 1.0])

    def test_asymmetric_matrix_rejected(self):
        mat = np.eye(2)
        mat[0, 1] = 1e-6
        with pytest.raises(InvalidArgument):
            g.CovMatrix(("a", "b"), mat, [1.0, -1.0])

    @pytest.mark.parametrize(
        "signs", [[1.0], [1.0, 0.0], [1.0, -2.0], [1.0, np.nan], [[1.0, -1.0]], [1.0, -1.0, 1.0]]
    )
    def test_bad_signs_rejected(self, signs):
        with pytest.raises(InvalidArgument):
            g.CovMatrix(("a", "b"), np.eye(2), signs)

    def test_unphysical_matrix_rejected(self):
        with pytest.raises(UnphysicalState):
            one_mode(thermal(0.5))

    @pytest.mark.parametrize("diagonal", [-1.0, 0.0])
    def test_non_positive_definite_matrix_rejected(self, diagonal):
        with pytest.raises(UnphysicalState):
            one_mode(thermal(diagonal))
        with pytest.raises(UnphysicalState):
            g.CovMatrix(("a", "b"), np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, -1.0])

    def test_block_shape_must_match_modes(self):
        with pytest.raises(InvalidArgument):
            one_mode(np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(NumericalError):
            one_mode(thermal(bad))
        batch = np.stack([thermal(1.0), thermal(3.0), thermal(1.0)])
        batch[1, 0, 0] = bad
        with pytest.raises(NumericalError):
            one_mode(batch)

    def test_state_is_its_read_only_x_block_and_signs(self):
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        x = np.stack([random_state(np.random.default_rng(i), signs, np.ones(4)) for i in (1, 2)])
        state = g.CovMatrix(("a", "b", "c", "d"), x, signs)
        assert state.x.shape == (2, 4, 4) and state.signs.tolist() == signs.tolist()
        assert not state.x.flags.writeable and not state.signs.flags.writeable
        # the p block is S X S: no second view to keep in step with X
        assert not hasattr(state, "data")


class TestBeamsplitter:
    def test_vacuum_invariant(self):
        state = g.vacuum(("a", "b"))
        out = g.beamsplitter(state, "a", "b", 0.5)
        assert np.allclose(interleave(out), np.eye(4))

    def test_full_transmittance_is_identity(self):
        state = g.epr_source(3.0, ("a", "b"))
        state = g.tensor(state, g.vacuum(("c",)))
        out = g.beamsplitter(state, "b", "c", 1.0)
        # c's signs flip to fit the op, which leaves the uncorrelated vacuum's P unchanged
        assert np.allclose(interleave(out), interleave(state))

    def test_variance_mixing(self):
        v, t = 7.0, 0.3
        state = g.tensor(g.epr_source(v, ("a", "b")), g.vacuum(("c",)))
        out = g.beamsplitter(state, "b", "c", t)
        assert variances(out, "b") == pytest.approx([t * v + (1.0 - t)] * 2)

    def test_invalid_transmittance(self):
        state = g.vacuum(("a", "b"))
        for t in (-0.1, 1.1):
            with pytest.raises(InvalidArgument):
                g.beamsplitter(state, "a", "b", t)

    def test_unknown_mode(self):
        with pytest.raises(MissingMode):
            g.beamsplitter(g.vacuum(("a", "b")), "a", "nope", 0.5)

    def test_trace_keep_consistency(self):
        state = g.tensor(g.epr_source(4.0, ("a", "b")), g.vacuum(("c",)))
        out = g.beamsplitter(state, "b", "c", 1.0)
        kept, expected = g.partial_trace(out, ["a"]), g.partial_trace(state, ["a"])
        assert np.allclose(kept.x, expected.x)
        np.testing.assert_array_equal(kept.signs, expected.signs)


class TestTwoModeSqueezer:
    def test_unit_gain_is_identity(self):
        state = g.epr_source(3.0, ("a", "b"))
        state = g.tensor(state, g.vacuum(("c",)))
        out = g.two_mode_squeezer(state, "b", "c", 1.0)
        assert np.allclose(out.x, state.x)
        np.testing.assert_array_equal(out.signs, state.signs)

    def test_amplifies_thermal_variance(self):
        v, gain = 4.0, 1.5
        state = g.tensor(
            g.epr_source(v, ("a", "b")), g.vacuum(("c",))
        )
        out = g.two_mode_squeezer(state, "b", "c", gain)
        assert variances(out, "b") == pytest.approx([gain * v + (gain - 1.0)] * 2)

    def test_on_two_vacua_builds_epr(self):
        gain = 2.0
        out = g.two_mode_squeezer(g.vacuum(("a", "b")), "a", "b", gain)
        epr = g.epr_source(2.0 * gain - 1.0, ("a", "b"))
        assert np.allclose(out.x, epr.x)
        np.testing.assert_array_equal(out.signs, epr.signs)

    def test_preserves_purity(self):
        state = g.tensor(g.epr_source(5.0, ("a", "b")), g.vacuum(("c",)))
        out = g.two_mode_squeezer(state, "b", "c", 3.0)
        assert g.von_neumann_entropy(out) == pytest.approx(0.0, abs=1e-6)

    def test_subunit_gain_rejected(self):
        with pytest.raises(InvalidArgument):
            g.two_mode_squeezer(g.vacuum(("a", "b")), "a", "b", 0.5)

    def test_attenuator_chain_has_unit_net_gain(self):
        # amplifier at 1/eta then a tap at eta leaves correlations intact
        eta = 0.97
        state = g.tensor(g.epr_source(6.0, ("a", "b")), g.vacuum(("c", "d")))
        out = g.two_mode_squeezer(state, "b", "c", 1.0 / eta)
        out = g.beamsplitter(out, "b", "d", eta)
        ab = interleave(g.partial_trace(out, ["a", "b"]))
        assert np.allclose(ab[0:2, 2:4], interleave(state)[0:2, 2:4])
        assert variances(out, "b") == pytest.approx([6.0 + 2.0 * (1.0 - eta)] * 2)


class TestLossExcessChannel:
    def test_identity_channel(self):
        state = g.epr_source(3.0, ("a", "b"))
        out = g.loss_excess_channel(state, "b", 1.0, 0.0, ("e", "f"))
        assert out is state

    def test_loss_preserves_vacuum(self):
        state = g.vacuum(("a",))
        out = g.loss_excess_channel(state, "a", 0.4, 0.0, ("e", "f"))
        assert variances(out, "a") == pytest.approx([1.0] * 2)

    def test_output_variance(self):
        v_m, eta, eps = 6.0, 0.55, 0.07
        state = g.epr_source(1.0 + v_m, ("a", "b"))
        out = g.loss_excess_channel(state, "b", eta, eps, ("e", "f"))
        assert variances(out, "b") == pytest.approx([1.0 + eta * v_m + eps] * 2)

    def test_keeps_global_purity(self):
        state = g.epr_source(4.0, ("a", "b"))
        out = g.loss_excess_channel(state, "b", 0.6, 0.1, ("e", "f"))
        assert g.von_neumann_entropy(out) == pytest.approx(0.0, abs=1e-6)

    def test_unit_transmittance_with_noise_rejected(self):
        with pytest.raises(InvalidArgument):
            g.loss_excess_channel(g.vacuum(("a",)), "a", 1.0, 0.1, ("e", "f"))

    def test_zero_transmittance_rejected(self):
        with pytest.raises(InvalidArgument):
            g.loss_excess_channel(g.vacuum(("a",)), "a", 0.0, 0.0, ("e", "f"))


class TestSigns:
    """Beamsplitters need equal signs on their two modes, two-mode squeezers opposite ones."""

    def two_pairs(self) -> g.CovMatrix:
        return g.tensor(g.epr_source(3.0, ("a", "b")), g.epr_source(2.0, ("c", "d")))

    def test_builders_signs(self):
        assert g.vacuum(("a", "b")).signs.tolist() == [1.0, 1.0]
        assert self.two_pairs().signs.tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_fitting_signs_are_kept(self):
        state = self.two_pairs()
        assert g.beamsplitter(state, "b", "d", 0.3).signs.tolist() == [1.0, -1.0, 1.0, -1.0]
        assert g.two_mode_squeezer(state, "a", "d", 1.5).signs.tolist() == [1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize(
        "op, mode_a, mode_b, signs",
        [
            (g.beamsplitter, "b", "c", [1.0, -1.0, -1.0, 1.0]),
            (g.beamsplitter, "c", "b", [-1.0, 1.0, 1.0, -1.0]),
            (g.two_mode_squeezer, "a", "c", [1.0, -1.0, -1.0, 1.0]),
        ],
    )
    def test_flip_across_components(self, op, mode_a, mode_b, signs):
        # the second mode's pair flips its signs, which leaves its state unchanged
        state = self.two_pairs()
        out = op(state, mode_a, mode_b, 1.0)
        assert out.signs.tolist() == signs
        # the signs differ, but neither X nor P = S X S does
        np.testing.assert_array_equal(out.x, state.x)
        np.testing.assert_array_equal(interleave(out), interleave(state))
        np.testing.assert_array_equal(out.spectrum, state.spectrum)

    def test_flip_takes_the_whole_component(self):
        state = g.tensor(self.two_pairs(), g.vacuum(("e",)))
        state = g.beamsplitter(state, "b", "c", 0.4)
        # a, b, c and d are now one component, e its own
        out = g.two_mode_squeezer(state, "e", "a", 2.0)
        assert out.signs.tolist() == [-1.0, 1.0, 1.0, -1.0, 1.0]
        out = g.two_mode_squeezer(state, "a", "e", 2.0)
        assert out.signs.tolist() == [1.0, -1.0, -1.0, 1.0, -1.0]

    def test_no_fit_inside_one_component(self):
        pair = g.epr_source(3.0, ("a", "b"))
        with pytest.raises(InvalidArgument, match="correlated"):
            g.beamsplitter(pair, "a", "b", 0.5)
        mixed = g.beamsplitter(self.two_pairs(), "b", "c", 0.4)
        with pytest.raises(InvalidArgument, match="correlated"):
            g.two_mode_squeezer(mixed, "d", "a", 1.5)
        with pytest.raises(InvalidArgument, match="correlated"):
            g.beamsplitter(mixed, "a", "c", 0.5)

    def test_purification_signs_are_the_reduced_states(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            p = sec.ProtocolParams(
                v_m=rng.uniform(0.1, 50.0),
                k=rng.uniform(0.05, 1.0),
                eta_ch=rng.uniform(0.1, 0.99),
                eps_ch=rng.uniform(0.0, 0.2),
                eta_d=rng.uniform(0.5, 0.99),
                eps_d=rng.uniform(0.0, 0.2),
                eps_p1=rng.uniform(0.01, 2.0),
                eps_p2=rng.uniform(0.01, 2.0),
                eps_l=rng.uniform(0.01, 2.0),
            )
            scheme = sec.build_scheme(p)
            reduced = g.partial_trace(scheme.state, sec.REDUCED_MODES)
            np.testing.assert_array_equal(reduced.signs, sec._SIGNS)


class TestPartialTrace:
    def test_keep_all_is_identity(self):
        state = g.epr_source(2.0, ("a", "b"))
        kept = g.partial_trace(state, ["a", "b"])
        assert np.allclose(kept.x, state.x)
        np.testing.assert_array_equal(kept.signs, state.signs)

    def test_reorder_permutes_consistently(self):
        state = g.epr_source(2.0, ("a", "b"))
        swapped = g.partial_trace(state, ["b", "a"])
        back = g.partial_trace(swapped, ["a", "b"])
        assert np.allclose(back.x, state.x)
        np.testing.assert_array_equal(back.signs, state.signs)

    def test_unknown_label(self):
        with pytest.raises(MissingMode):
            g.partial_trace(g.vacuum(("a",)), ["b"])

    def test_keep_nothing(self):
        with pytest.raises(InvalidArgument):
            g.partial_trace(g.epr_source(2.0, ("a", "b")), [])


class TestHeterodyneCondition:
    def test_uncorrelated_mode_leaves_kept_block(self):
        state = g.tensor(g.epr_source(3.0, ("a", "b")), g.vacuum(("c",)))
        out = g.heterodyne_condition(state, ["c"])
        kept = g.partial_trace(state, ["a", "b"])
        assert np.allclose(out.x[1], kept.x)
        np.testing.assert_array_equal(out.signs, kept.signs)

    def test_epr_conditions_to_vacuum_variance(self):
        for v in (1.0, 2.0, 10.0, 40.0):
            out = g.heterodyne_condition(g.epr_source(v, ("a", "b")), ["b"])
            assert np.allclose(interleave(out)[1], np.eye(2), atol=1e-12)

    def test_measured_mode_removed(self):
        out = g.heterodyne_condition(g.epr_source(2.0, ("a", "b")), ["a"])
        assert out.modes == ("b",)

    def batch(self) -> g.CovMatrix:
        rng = np.random.default_rng(17)
        signs = random_signs(rng, 5)
        spectra = (np.ones(5), rng.uniform(1.0, 6.0, 5), rng.uniform(1.0, 6.0, 5))
        blocks = np.stack([random_state(rng, signs, nu) for nu in spectra])
        return g.CovMatrix(("a", "b", "c", "d", "e"), blocks, signs)

    def test_marginal_then_each_conditioning_bitwise(self):
        state = self.batch()
        for listed in ([], ["d"], ["a", "b"], ["e", "a", "c"]):
            unlisted = [m for m in state.modes if m not in listed]
            out = g.heterodyne_condition(state, listed)
            assert out.modes == tuple(unlisted)
            assert out.x.shape[:-2] == (len(listed) + 1, 3)
            reduced = g.partial_trace(state, unlisted)
            assert np.array_equal(out.signs, reduced.signs)
            assert np.array_equal(out.x[0], reduced.x)
            assert np.array_equal(np.signbit(out.x[0]), np.signbit(reduced.x))
            assert np.array_equal(out.spectrum[0], reduced.spectrum)
            for i, m in enumerate(listed, 1):
                single = g.partial_trace(g.heterodyne_condition(state, [m]), unlisted)
                assert np.array_equal(out.x[i], single.x[1])
                assert np.array_equal(out.spectrum[i], single.spectrum[1])

    def test_list_with_unknown_mode(self):
        with pytest.raises(MissingMode):
            g.heterodyne_condition(self.batch(), ["a", "f"])

    def test_list_of_every_mode(self):
        state = self.batch()
        with pytest.raises(InvalidArgument):
            g.heterodyne_condition(state, list(state.modes))
        with pytest.raises(InvalidArgument):
            g.heterodyne_condition(g.vacuum(("a",)), ["a"])


class TestSpectraAndEntropy:
    def test_thermal_eigenvalue(self):
        state = one_mode(thermal(4.0))
        assert state.spectrum[0] == pytest.approx(4.0)

    def test_reduced_epr_eigenvalue(self):
        reduced = g.partial_trace(g.epr_source(6.0, ("a", "b")), ["a"])
        assert reduced.spectrum[0] == pytest.approx(6.0)

    def test_pure_state_zero_entropy(self):
        assert g.von_neumann_entropy(g.epr_source(9.0, ("a", "b"))) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_entropy_value(self):
        # g(3) = 2 log2(2) - 1 log2(1) = 2 bits
        state = one_mode(thermal(3.0))
        assert g.von_neumann_entropy(state) == pytest.approx(2.0)

    def test_epr_reductions_have_equal_entropy(self):
        state = g.epr_source(7.5, ("a", "b"))
        sa = g.von_neumann_entropy(g.partial_trace(state, ["a"]))
        sb = g.von_neumann_entropy(g.partial_trace(state, ["b"]))
        assert sa == pytest.approx(sb)

    def test_entropy_is_continuous_just_above_one(self):
        # no purity cut: a mode with nu - 1 near 1e-9 keeps its entropy
        nu = 1.0 + np.array([1e-15, 1e-12, 0.9e-9, 1e-9, 1.1e-9, 1e-6])
        values = g.entropy_g(nu)
        with mp.workdps(50):
            expected = [float(mp_entropy_g(float(x))) for x in nu]
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-15)
        assert np.all(np.diff(values) > 0.0)

    def test_entropy_rejects_unphysical_eigenvalue(self):
        with pytest.raises(UnphysicalState):
            g.entropy_g(0.9)

    def test_spectrum_is_kept_from_construction(self):
        state = g.epr_source(3.0, ("a", "b"))
        np.testing.assert_array_equal(state.spectrum, g._spectrum(state.x, state.signs))
        assert not state.spectrum.flags.writeable

    def test_matches_oracle_on_random_states(self):
        # pure, thermal and hot states, with variances up to about 1e6
        rng = np.random.default_rng(13)
        for n in range(1, 20):
            for scale in (0.0, 1.0, 2e5):
                labels, signs = tuple(f"m{i}" for i in range(n)), random_signs(rng, n)
                nu = 1.0 + scale * rng.uniform(0.0, 5.0, n)
                state = g.CovMatrix(labels, random_state(rng, signs, nu), signs)
                oracle = symplectic_spectrum(interleave(state))
                np.testing.assert_allclose(state.spectrum, oracle, rtol=1e-12)
                np.testing.assert_allclose(state.spectrum, np.sort(nu)[::-1], rtol=1e-12)

    def test_rounding_scales_with_the_state(self):
        # spectra spread from 1 to 1e6: the error is a few eps |X|, with nothing squared
        rng = np.random.default_rng(26)
        for n in range(2, 20):
            labels, signs = tuple(f"m{i}" for i in range(n)), random_signs(rng, n)
            nu = 10.0 ** rng.uniform(0.0, 6.0, n)
            state = g.CovMatrix(labels, random_state(rng, signs, nu), signs)
            oracle = symplectic_spectrum(interleave(state))
            bound = 50.0 * np.finfo(float).eps * np.abs(state.x).max()
            np.testing.assert_allclose(state.spectrum, oracle, rtol=0.0, atol=bound)

    def test_matches_oracle_on_full_noise_schemes(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            p = sec.ProtocolParams(
                v_m=rng.uniform(0.1, 50.0),
                k=rng.uniform(0.05, 1.0),
                eta_ch=rng.uniform(0.1, 0.99),
                eps_ch=rng.uniform(0.0, 0.2),
                eta_d=rng.uniform(0.5, 0.99),
                eps_d=rng.uniform(0.0, 0.2),
                eps_p1=rng.uniform(0.01, 1.0),
                eps_p2=rng.uniform(0.01, 1.0),
                eps_l=rng.uniform(0.01, 1.0),
            )
            scheme = sec.build_scheme(p)
            trusted = g.partial_trace(scheme.state, scheme.trusted)
            states = [
                scheme.state,
                trusted,
                g.heterodyne_condition(trusted, ["A"]),
                g.heterodyne_condition(trusted, ["B"]),
            ]
            assert scheme.state.n_modes == 19
            for state in states:
                # a conditioned state is a batch: its marginal, then the conditional
                gammas = interleave(state).reshape(-1, 2 * state.n_modes, 2 * state.n_modes)
                spectra = state.spectrum.reshape(-1, state.n_modes)
                for gamma, spectrum in zip(gammas, spectra):
                    np.testing.assert_allclose(spectrum, symplectic_spectrum(gamma), rtol=1e-9)


def dense_two_mode(state: g.CovMatrix, idx: list[int], s4: np.ndarray) -> np.ndarray:
    """S gamma S^T for the interleaved gamma of `state`, with S the identity
    outside the quadratures `idx`."""
    gamma = interleave(state)
    dense = np.eye(len(gamma))
    dense[np.ix_(idx, idx)] = s4
    return dense @ gamma @ dense.T


class TestTwoModeUpdate:
    """The row-and-column update of two-mode ops against the dense product."""

    def state(self, signs):
        rng = np.random.default_rng(15)
        x = random_state(rng, np.array(signs), rng.uniform(1.0, 6.0, 4))
        return g.CovMatrix(("a", "b", "c", "d"), x, signs)

    def test_beamsplitter(self):
        state, T = self.state([1.0, -1.0, 1.0, -1.0]), 0.3
        t, r = np.sqrt(T), np.sqrt(1.0 - T)
        s4 = np.block([[t * np.eye(2), r * np.eye(2)], [-r * np.eye(2), t * np.eye(2)]])
        np.testing.assert_allclose(
            interleave(g.beamsplitter(state, "d", "b", T)),
            dense_two_mode(state, [6, 7, 2, 3], s4),
            rtol=0.0,
            atol=1e-12,
        )

    def test_two_mode_squeezer(self):
        state, gain = self.state([1.0, -1.0, 1.0, 1.0]), 1.7
        c, s, sz = np.sqrt(gain), np.sqrt(gain - 1.0), np.diag([1.0, -1.0])
        s4 = np.block([[c * np.eye(2), s * sz], [s * sz, c * np.eye(2)]])
        np.testing.assert_allclose(
            interleave(g.two_mode_squeezer(state, "d", "b", gain)),
            dense_two_mode(state, [6, 7, 2, 3], s4),
            rtol=0.0,
            atol=1e-12,
        )


class TestBatches:
    """Batched ops on stacked single states against the same ops on each state alone."""

    def test_operations_match_single_states(self):
        rng = np.random.default_rng(16)
        v1, v2 = rng.uniform(1.0, 30.0, (2, 7))
        t, gain = rng.uniform(0.0, 1.0, 7), rng.uniform(1.0, 3.0, 7)
        eta, eps = rng.uniform(0.05, 0.99, 7), rng.uniform(0.0, 0.4, 7)

        def build(i):
            state = g.tensor(g.epr_source(v1[i], ("a", "b")), g.epr_source(v2[i], ("c", "d")))
            state = g.beamsplitter(state, "b", "c", t[i])
            state = g.two_mode_squeezer(state, "d", "b", gain[i])
            return g.loss_excess_channel(state, "b", eta[i], eps[i], ("e", "f"))

        def reduce(state):
            kept = g.partial_trace(state, ["a", "b", "d"])
            return state, kept, g.heterodyne_condition(kept, ["b"])

        singles = [build(i) for i in range(7)]
        signs = singles[0].signs
        assert all(np.array_equal(s.signs, signs) for s in singles)
        stacked = g.CovMatrix(singles[0].modes, np.stack([s.x for s in singles]), signs)
        batched = reduce(stacked)
        for i in range(7):
            for single, batch in zip(reduce(singles[i]), batched):
                # the conditioned states keep their entry axis in front of the points'
                lead = single.x.shape[:-2]
                assert batch.x.shape[:-2] == lead + (7,)
                np.testing.assert_array_equal(single.signs, batch.signs)
                np.testing.assert_array_equal(single.x, batch.x[..., i, :, :])
                np.testing.assert_array_equal(single.spectrum, batch.spectrum[..., i, :])
                np.testing.assert_array_equal(
                    g.von_neumann_entropy(single), g.von_neumann_entropy(batch)[..., i]
                )

    def test_checks_every_state(self):
        good, signs = np.eye(2), [1.0, -1.0]
        indefinite, skew = good.copy(), good.copy()
        indefinite[1, 1] = -1.0
        skew[0, 1] = 1e-6
        with pytest.raises(UnphysicalState):
            g.CovMatrix(("a", "b"), np.stack([good, 0.5 * good, good]), signs)
        with pytest.raises(UnphysicalState):
            g.CovMatrix(("a", "b"), np.stack([good, indefinite]), signs)
        with pytest.raises(InvalidArgument):
            g.CovMatrix(("a", "b"), np.stack([good, skew]), signs)

    def test_failing_state_raises_its_own_error(self):
        bad = np.eye(2)
        bad[1, 0] = np.nan
        with pytest.raises(NumericalError):
            g.CovMatrix(("a", "b"), bad, [1.0, 1.0])
        with pytest.raises(NumericalError):
            g.CovMatrix(("a", "b"), np.stack([np.eye(2), bad, 2.0 * np.eye(2)]), [1.0, 1.0])


class TestRandomizedInvariants:
    def test_operations_preserve_physicality_and_purity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            v1, v2 = rng.uniform(1.0, 30.0, 2)
            state = g.tensor(
                g.epr_source(v1, ("a", "b")), g.epr_source(v2, ("c", "d"))
            )
            state = g.beamsplitter(state, "b", "c", rng.uniform(0.0, 1.0))
            state = g.loss_excess_channel(
                state, "b", rng.uniform(0.05, 0.99), rng.uniform(0.0, 0.4), ("e", "f")
            )
            nus = state.spectrum
            assert nus[-1] >= 1.0 - 1e-9
            assert g.von_neumann_entropy(state) == pytest.approx(0.0, abs=1e-6)

    def test_product_state_conditioning_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            state = g.tensor(
                g.epr_source(rng.uniform(1.0, 20.0), ("a", "b")),
                g.CovMatrix(("m",), thermal(rng.uniform(1.0, 5.0)), [1.0]),
            )
            out = g.heterodyne_condition(state, ["m"])
            kept = g.partial_trace(state, ["a", "b"])
            assert np.allclose(out.x[1], kept.x)
            np.testing.assert_array_equal(out.signs, kept.signs)
