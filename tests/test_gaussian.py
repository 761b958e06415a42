import numpy as np
import pytest
from scipy.linalg import expm

from modleak import gaussian as g
from modleak import security as sec
from modleak.errors import InvalidArgument, MissingMode, NumericalError, UnphysicalState

from oracles import symplectic_spectrum

OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def random_state(rng, n: int, pure: bool) -> np.ndarray:
    """S diag(nu, nu, ...) S^T with S = exp(Omega H) for a random symmetric H."""
    h = rng.normal(size=(2 * n, 2 * n))
    h = (h + h.T) * (0.4 / np.sqrt(n))
    s = expm(np.kron(np.eye(n), OMEGA_1) @ h)
    nus = np.ones(n) if pure else rng.uniform(1.0, 6.0, n)
    return s @ np.diag(np.repeat(nus, 2)) @ s.T


class TestConstructors:
    def test_vacuum_is_identity(self):
        assert np.allclose(g.vacuum(1).data, np.eye(2))
        assert np.allclose(g.vacuum(2).data, np.eye(4))

    def test_vacuum_is_pure(self):
        nus = g.symplectic_eigenvalues(g.vacuum(3))
        assert np.allclose(nus, 1.0, atol=1e-12)

    def test_vacuum_rejects_zero_modes(self):
        with pytest.raises(InvalidArgument):
            g.vacuum(0)

    def test_epr_at_unit_variance_is_two_vacua(self):
        assert np.allclose(g.epr_source(1.0).data, np.eye(4))

    def test_epr_reduces_to_thermal(self):
        state = g.epr_source(5.0, ("a", "b"))
        for mode in ("a", "b"):
            reduced = g.partial_trace(state, [mode])
            assert np.allclose(reduced.data, 5.0 * np.eye(2))

    def test_epr_is_pure(self):
        nus = g.symplectic_eigenvalues(g.epr_source(5.0))
        assert np.allclose(nus, [1.0, 1.0], atol=1e-9)

    def test_epr_rejects_subunit_variance(self):
        with pytest.raises(InvalidArgument):
            g.epr_source(0.5)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidArgument):
            g.CovMatrix(("a", "a"), np.eye(4))

    def test_asymmetric_matrix_rejected(self):
        mat = np.eye(2)
        mat = mat + np.array([[0.0, 1e-6], [0.0, 0.0]])
        with pytest.raises(InvalidArgument):
            g.CovMatrix(("a",), mat)

    def test_unphysical_matrix_rejected(self):
        with pytest.raises(UnphysicalState):
            g.CovMatrix(("a",), 0.5 * np.eye(2))

    def test_non_positive_definite_matrix_rejected(self):
        with pytest.raises(UnphysicalState):
            g.CovMatrix(("a",), np.diag([2.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_matrix_rejected(self, bad):
        one_mode = np.eye(2)
        one_mode[1, 1] = bad
        with pytest.raises(NumericalError):
            g.CovMatrix(("a",), one_mode)
        batch = np.stack([np.eye(2), 3.0 * np.eye(2), np.eye(2)])
        batch[1, 0, 0] = bad
        with pytest.raises(NumericalError):
            g.CovMatrix(("a",), batch)


class TestBeamsplitter:
    def test_vacuum_invariant(self):
        state = g.vacuum(2, ("a", "b"))
        out = g.beamsplitter(state, "a", "b", 0.5)
        assert np.allclose(out.data, np.eye(4))

    def test_full_transmittance_is_identity(self):
        state = g.epr_source(3.0, ("a", "b"))
        state = g.tensor(state, g.vacuum(1, ("c",)))
        out = g.beamsplitter(state, "b", "c", 1.0)
        assert np.allclose(out.data, state.data)

    def test_variance_mixing(self):
        v, t = 7.0, 0.3
        state = g.tensor(g.epr_source(v, ("a", "b")), g.vacuum(1, ("c",)))
        out = g.beamsplitter(state, "b", "c", t)
        assert out.variance("b") == pytest.approx(t * v + (1.0 - t))

    def test_invalid_transmittance(self):
        state = g.vacuum(2, ("a", "b"))
        for t in (-0.1, 1.1):
            with pytest.raises(InvalidArgument):
                g.beamsplitter(state, "a", "b", t)

    def test_unknown_mode(self):
        with pytest.raises(MissingMode):
            g.beamsplitter(g.vacuum(2, ("a", "b")), "a", "nope", 0.5)

    def test_trace_keep_consistency(self):
        state = g.tensor(g.epr_source(4.0, ("a", "b")), g.vacuum(1, ("c",)))
        out = g.beamsplitter(state, "b", "c", 1.0)
        assert np.allclose(
            g.partial_trace(out, ["a"]).data, g.partial_trace(state, ["a"]).data
        )


class TestTwoModeSqueezer:
    def test_unit_gain_is_identity(self):
        state = g.epr_source(3.0, ("a", "b"))
        state = g.tensor(state, g.vacuum(1, ("c",)))
        out = g.two_mode_squeezer(state, "b", "c", 1.0)
        assert np.allclose(out.data, state.data)

    def test_amplifies_thermal_variance(self):
        v, gain = 4.0, 1.5
        state = g.tensor(
            g.epr_source(v, ("a", "b")), g.vacuum(1, ("c",))
        )
        out = g.two_mode_squeezer(state, "b", "c", gain)
        assert out.variance("b") == pytest.approx(gain * v + (gain - 1.0))

    def test_on_two_vacua_builds_epr(self):
        gain = 2.0
        out = g.two_mode_squeezer(g.vacuum(2, ("a", "b")), "a", "b", gain)
        assert np.allclose(out.data, g.epr_source(2.0 * gain - 1.0, ("a", "b")).data)

    def test_preserves_purity(self):
        state = g.tensor(g.epr_source(5.0, ("a", "b")), g.vacuum(1, ("c",)))
        out = g.two_mode_squeezer(state, "b", "c", 3.0)
        assert g.von_neumann_entropy(out) == pytest.approx(0.0, abs=1e-6)

    def test_subunit_gain_rejected(self):
        with pytest.raises(InvalidArgument):
            g.two_mode_squeezer(g.vacuum(2, ("a", "b")), "a", "b", 0.5)

    def test_attenuator_chain_has_unit_net_gain(self):
        # amplifier at 1/eta then a tap at eta leaves correlations intact
        eta = 0.97
        state = g.tensor(g.epr_source(6.0, ("a", "b")), g.vacuum(2, ("c", "d")))
        out = g.two_mode_squeezer(state, "b", "c", 1.0 / eta)
        out = g.beamsplitter(out, "b", "d", eta)
        ab = g.partial_trace(out, ["a", "b"]).data
        assert np.allclose(ab[0:2, 2:4], state.data[0:2, 2:4])
        assert out.variance("b") == pytest.approx(6.0 + 2.0 * (1.0 - eta))


class TestLossExcessChannel:
    def test_identity_channel(self):
        state = g.epr_source(3.0, ("a", "b"))
        out = g.loss_excess_channel(state, "b", 1.0, 0.0)
        assert out is state

    def test_loss_preserves_vacuum(self):
        state = g.vacuum(1, ("a",))
        out = g.loss_excess_channel(state, "a", 0.4, 0.0)
        assert out.variance("a") == pytest.approx(1.0)

    def test_output_variance(self):
        v_m, eta, eps = 6.0, 0.55, 0.07
        state = g.epr_source(1.0 + v_m, ("a", "b"))
        out = g.loss_excess_channel(state, "b", eta, eps)
        assert out.variance("b") == pytest.approx(1.0 + eta * v_m + eps)

    def test_keeps_global_purity(self):
        state = g.epr_source(4.0, ("a", "b"))
        out = g.loss_excess_channel(state, "b", 0.6, 0.1)
        assert g.von_neumann_entropy(out) == pytest.approx(0.0, abs=1e-6)

    def test_unit_transmittance_with_noise_rejected(self):
        with pytest.raises(InvalidArgument):
            g.loss_excess_channel(g.vacuum(1, ("a",)), "a", 1.0, 0.1)

    def test_zero_transmittance_rejected(self):
        with pytest.raises(InvalidArgument):
            g.loss_excess_channel(g.vacuum(1, ("a",)), "a", 0.0, 0.0)


class TestPartialTrace:
    def test_keep_all_is_identity(self):
        state = g.epr_source(2.0, ("a", "b"))
        assert np.allclose(g.partial_trace(state, ["a", "b"]).data, state.data)

    def test_reorder_permutes_consistently(self):
        state = g.epr_source(2.0, ("a", "b"))
        swapped = g.partial_trace(state, ["b", "a"])
        assert np.allclose(g.partial_trace(swapped, ["a", "b"]).data, state.data)

    def test_unknown_label(self):
        with pytest.raises(MissingMode):
            g.partial_trace(g.vacuum(1, ("a",)), ["b"])


class TestHeterodyneCondition:
    def test_uncorrelated_mode_leaves_kept_block(self):
        state = g.tensor(g.epr_source(3.0, ("a", "b")), g.vacuum(1, ("c",)))
        out = g.heterodyne_condition(state, "c")
        assert np.allclose(out.data, g.partial_trace(state, ["a", "b"]).data)

    def test_epr_conditions_to_vacuum_variance(self):
        for v in (1.0, 2.0, 10.0, 40.0):
            out = g.heterodyne_condition(g.epr_source(v, ("a", "b")), "b")
            assert np.allclose(out.data, np.eye(2), atol=1e-12)

    def test_measured_mode_removed(self):
        out = g.heterodyne_condition(g.epr_source(2.0, ("a", "b")), "a")
        assert out.modes == ("b",)


class TestSpectraAndEntropy:
    def test_thermal_eigenvalue(self):
        state = g.CovMatrix(("a",), 4.0 * np.eye(2))
        assert g.symplectic_eigenvalues(state)[0] == pytest.approx(4.0)

    def test_reduced_epr_eigenvalue(self):
        reduced = g.partial_trace(g.epr_source(6.0, ("a", "b")), ["a"])
        assert g.symplectic_eigenvalues(reduced)[0] == pytest.approx(6.0)

    def test_pure_state_zero_entropy(self):
        assert g.von_neumann_entropy(g.epr_source(9.0)) == pytest.approx(0.0, abs=1e-6)

    def test_thermal_entropy_value(self):
        # g(3) = 2 log2(2) - 1 log2(1) = 2 bits
        state = g.CovMatrix(("a",), 3.0 * np.eye(2))
        assert g.von_neumann_entropy(state) == pytest.approx(2.0)

    def test_epr_reductions_have_equal_entropy(self):
        state = g.epr_source(7.5, ("a", "b"))
        sa = g.von_neumann_entropy(g.partial_trace(state, ["a"]))
        sb = g.von_neumann_entropy(g.partial_trace(state, ["b"]))
        assert sa == pytest.approx(sb)

    def test_entropy_rejects_unphysical_eigenvalue(self):
        with pytest.raises(UnphysicalState):
            g.entropy_g(0.9)

    def test_spectrum_is_kept_from_construction(self):
        state = g.epr_source(3.0, ("a", "b"))
        assert g.symplectic_eigenvalues(state) is state.spectrum
        assert not state.spectrum.flags.writeable

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(13)
        for n in range(1, 20):
            for pure in (False, True):
                labels = tuple(f"m{i}" for i in range(n))
                state = g.CovMatrix(labels, random_state(rng, n, pure))
                np.testing.assert_allclose(
                    g.symplectic_eigenvalues(state), symplectic_spectrum(state.data), rtol=1e-9
                )

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
                g.heterodyne_condition(trusted, "A"),
                g.heterodyne_condition(trusted, "B"),
            ]
            assert scheme.state.n_modes == 19
            for state in states:
                np.testing.assert_allclose(
                    g.symplectic_eigenvalues(state), symplectic_spectrum(state.data), rtol=1e-9
                )


def dense_two_mode(gamma: np.ndarray, idx: list[int], s4: np.ndarray) -> np.ndarray:
    """S gamma S^T with S the identity outside the quadratures `idx`."""
    dense = np.eye(len(gamma))
    dense[np.ix_(idx, idx)] = s4
    return dense @ gamma @ dense.T


class TestTwoModeUpdate:
    """The row-and-column update of two-mode ops against the dense product."""

    def state(self):
        return g.CovMatrix(("a", "b", "c", "d"), random_state(np.random.default_rng(15), 4, False))

    def test_beamsplitter(self):
        state, T = self.state(), 0.3
        t, r = np.sqrt(T), np.sqrt(1.0 - T)
        s4 = np.block([[t * np.eye(2), r * np.eye(2)], [-r * np.eye(2), t * np.eye(2)]])
        np.testing.assert_allclose(
            g.beamsplitter(state, "d", "b", T).data,
            dense_two_mode(state.data, [6, 7, 2, 3], s4),
            rtol=0.0,
            atol=1e-12,
        )

    def test_two_mode_squeezer(self):
        state, gain = self.state(), 1.7
        c, s, sz = np.sqrt(gain), np.sqrt(gain - 1.0), np.diag([1.0, -1.0])
        s4 = np.block([[c * np.eye(2), s * sz], [s * sz, c * np.eye(2)]])
        np.testing.assert_allclose(
            g.two_mode_squeezer(state, "d", "b", gain).data,
            dense_two_mode(state.data, [6, 7, 2, 3], s4),
            rtol=0.0,
            atol=1e-12,
        )


class TestBatches:
    """A batch of states against the same operations on each state alone."""

    def test_operations_match_single_states(self):
        rng = np.random.default_rng(16)
        v1, v2 = rng.uniform(1.0, 30.0, (2, 7))
        t, gain = rng.uniform(0.0, 1.0, 7), rng.uniform(1.0, 3.0, 7)
        eta, eps = rng.uniform(0.05, 0.99, 7), rng.uniform(0.0, 0.4, 7)

        def run(v1, v2, t, gain, eta, eps):
            state = g.tensor(g.epr_source(v1, ("a", "b")), g.epr_source(v2, ("c", "d")))
            state = g.beamsplitter(state, "b", "c", t)
            state = g.two_mode_squeezer(state, "d", "a", gain)
            state = g.loss_excess_channel(state, "b", eta, eps, ("e", "f"))
            kept = g.partial_trace(state, ["a", "b", "d"])
            cond = g.heterodyne_condition(kept, "b")
            return state, kept, cond

        batched = run(v1, v2, t, gain, eta, eps)
        for i in range(7):
            for single, batch in zip(run(v1[i], v2[i], t[i], gain[i], eta[i], eps[i]), batched):
                assert single.batch_shape == ()
                assert batch.batch_shape == (7,)
                np.testing.assert_array_equal(single.data, batch.data[i])
                np.testing.assert_array_equal(single.spectrum, batch.spectrum[i])
                assert g.von_neumann_entropy(single) == g.von_neumann_entropy(batch)[i]

    def test_single_state_broadcasts_against_a_batch(self):
        out = g.tensor(g.vacuum(1, ("a",)), g.epr_source([1.0, 2.0, 3.0], ("b", "c")))
        assert out.batch_shape == (3,)
        np.testing.assert_array_equal(out.data[0], np.eye(6))

    def test_checks_every_state(self):
        good = np.eye(2)
        with pytest.raises(UnphysicalState):
            g.CovMatrix(("a",), np.stack([good, 0.5 * good, good]))
        with pytest.raises(UnphysicalState):
            g.CovMatrix(("a",), np.stack([good, np.diag([2.0, -1.0])]))
        with pytest.raises(InvalidArgument):
            g.CovMatrix(("a",), np.stack([good, good + np.array([[0.0, 1e-6], [0.0, 0.0]])]))
        with pytest.raises(InvalidArgument):
            g.beamsplitter(g.vacuum(2, ("a", "b")), "a", "b", [0.5, 1.5])

    def test_failing_state_raises_its_own_error(self):
        bad = np.eye(4)
        bad[0, 0] = np.nan
        with pytest.raises(NumericalError):
            g.CovMatrix(("a", "b"), bad)
        with pytest.raises(NumericalError):
            g.CovMatrix(("a", "b"), np.stack([np.eye(4), bad, 2.0 * np.eye(4)]))

    def test_lossless_channel_cannot_share_a_batch(self):
        state = g.epr_source([2.0, 3.0], ("a", "b"))
        assert g.loss_excess_channel(state, "b", [1.0, 1.0], 0.0) is state
        with pytest.raises(InvalidArgument):
            g.loss_excess_channel(state, "b", [1.0, 0.5], 0.0)


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
                state, "b", rng.uniform(0.05, 0.99), rng.uniform(0.0, 0.4)
            )
            nus = g.symplectic_eigenvalues(state)
            assert nus[-1] >= 1.0 - 1e-9
            assert g.von_neumann_entropy(state) == pytest.approx(0.0, abs=1e-6)

    def test_product_state_conditioning_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            state = g.tensor(
                g.epr_source(rng.uniform(1.0, 20.0), ("a", "b")),
                g.CovMatrix(("m",), rng.uniform(1.0, 5.0) * np.eye(2)),
            )
            out = g.heterodyne_condition(state, "m")
            assert np.allclose(out.data, g.partial_trace(state, ["a", "b"]).data)
