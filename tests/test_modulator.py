import numpy as np
import pytest

from modleak import modulator as mod
from modleak.errors import DegenerateConfig, InvalidArgument

from oracles import iq_output_lines


class TestFieldCoefficients:
    def test_ideal_ossb_cs(self):
        cfg = mod.ModulatorConfig(mu1=0.1, mu2=0.1)
        upper, lower, carrier = mod.field_coefficients(cfg)
        assert upper == pytest.approx(0.05)
        assert lower == 0.0
        assert carrier == 0.0

    def test_single_arm_gives_symmetric_sidebands(self):
        cfg = mod.ModulatorConfig(mu1=0.0, mu2=0.08)
        upper, lower, _ = mod.field_coefficients(cfg)
        assert upper == pytest.approx(0.02)
        assert lower == pytest.approx(0.02)

    def test_bias_deviation_sets_carrier(self):
        cfg = mod.ModulatorConfig(mu1=0.1, mu2=0.1, delta1=0.01, delta2=0.02)
        _, lower, carrier = mod.field_coefficients(cfg)
        assert lower == 0.0
        assert carrier == pytest.approx(0.02 + 0.01j)

    def test_negative_depth_rejected(self):
        with pytest.raises(InvalidArgument):
            mod.ModulatorConfig(mu1=-0.1, mu2=0.1)

    @pytest.mark.parametrize("field", ["mu1", "mu2", "delta1", "delta2"])
    def test_non_finite_depth_or_bias_rejected(self, field):
        for value in (np.nan, np.inf, -np.inf, 10**400):
            fields = {"mu1": 0.1, "mu2": 0.1, field: value}
            with pytest.raises(InvalidArgument, match="must be finite"):
                mod.ModulatorConfig(**fields)

    @pytest.mark.parametrize("field", ["mu1", "mu2", "delta1", "delta2"])
    @pytest.mark.parametrize("value", ["a", None, True, False, np.array(0.1), 1j], ids=repr)
    def test_depth_or_bias_that_is_not_a_real_number_rejected(self, field, value):
        fields = {"mu1": 0.1, "mu2": 0.1, field: value}
        with pytest.raises(InvalidArgument, match=f"^{field} must be a real number, got "):
            mod.ModulatorConfig(**fields)

    def test_large_depth_warns(self):
        with pytest.warns(UserWarning) as record:
            mod.ModulatorConfig(mu1=0.3, mu2=0.3)
        # attributed to the line that built the config
        assert [w.filename for w in record] == [__file__]


class TestRhoToK:
    def test_balanced_arms(self):
        assert mod.rho_to_k(0.0, k_floor=0.0) == 0.0

    def test_half_amplitude_ratio(self):
        rho = 10.0 * np.log10(0.5)
        assert mod.rho_to_k(rho, k_floor=0.0) == pytest.approx(1.0 / 3.0)

    def test_double_sideband_limit(self):
        assert mod.rho_to_k(-200.0, k_floor=0.0) == pytest.approx(1.0, abs=1e-9)

    def test_floor_applies_at_balance(self):
        floor = 10.0 ** (-24.0 / 20.0)
        assert mod.rho_to_k(0.0, k_floor=floor) == pytest.approx(0.0631, abs=1e-4)

    def test_even_in_rho(self):
        # bit for bit, so that a mirrored pair of sweep points is one point
        grid = np.concatenate([np.linspace(0.0, 40.0, 4001), np.logspace(-12, 3, 301)])
        for convention in mod.RHO_CONVENTIONS:
            for rho in grid:
                assert mod.rho_to_k(-rho, 0.0, convention) == mod.rho_to_k(rho, 0.0, convention)

    def test_no_cancellation_near_balance(self):
        # k ~ rho ln 10 / 20 to first order; 1 - r loses about 10 digits at 1e-6 dB
        for rho in (1e-6, 1e-9, -1e-12):
            k = mod.rho_to_k(rho, 0.0)
            assert k == pytest.approx(abs(rho) * np.log(10.0) / 20.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("convention", mod.RHO_CONVENTIONS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_range_is_symmetric_and_finite(self, sign, convention):
        edge = mod.MAX_RHO_DB * (1.0 if convention == "amplitude10" else 2.0)
        assert mod.rho_to_k(sign * edge, 0.0, convention) == 1.0
        for rho in (sign * 1.01 * edge, sign * np.inf, np.nan):
            with pytest.raises(InvalidArgument, match="out of range"):
                mod.rho_to_k(rho, 0.0, convention)

    def test_amplitude20_keeps_its_wider_range(self):
        assert mod.rho_to_k(-4000.0, 0.0, "amplitude20") == 1.0
        with pytest.raises(InvalidArgument, match="out of range"):
            mod.rho_to_k(-4000.0, 0.0)

    def test_bounded_by_one(self):
        for rho in np.linspace(-40.0, 40.0, 81):
            assert 0.0 <= mod.rho_to_k(rho, 0.0) <= 1.0

    def test_amplitude20_convention(self):
        # -6.02 dB is an amplitude ratio of 1/2 under the 20*log convention
        rho = 20.0 * np.log10(0.5)
        assert mod.rho_to_k(rho, 0.0, "amplitude20") == pytest.approx(1.0 / 3.0)

    def test_against_time_domain_oracle(self):
        for rho in np.linspace(-6.0, -0.5, 8):
            r = 10.0 ** (rho / 10.0)
            mu2 = 0.08
            upper, lower, _ = iq_output_lines(r * mu2, mu2, 0.0, 0.0)
            assert mod.rho_to_k(rho, 0.0) == pytest.approx(
                abs(lower) / abs(upper), rel=0.01
            )


class TestSuppressionDb:
    def test_values(self):
        assert mod.suppression_db(0.1) == pytest.approx(20.0)
        assert mod.suppression_db(0.0631) == pytest.approx(24.0, abs=0.01)

    def test_zero_leakage_is_distinguished(self):
        assert mod.suppression_db(0.0) is None

    def test_non_finite_or_negative_leakage_rejected(self):
        for k in (np.nan, np.inf, -np.inf, -0.1):
            with pytest.raises(InvalidArgument):
                mod.suppression_db(k)

    def test_monotone_in_abs_rho(self):
        rhos = np.linspace(0.2, 10.0, 40)
        sup = [mod.suppression_db(mod.rho_to_k(r, 0.0)) for r in rhos]
        assert all(a > b for a, b in zip(sup, sup[1:]))


class TestSpectrum:
    def test_ideal_config(self):
        sp = mod.spectrum(mod.ModulatorConfig(mu1=0.1, mu2=0.1))
        assert (sp.p_desired, sp.p_suppressed, sp.p_carrier) == (1.0, 0.0, 0.0)

    def test_imbalance_ratio(self):
        sp = mod.spectrum(mod.ModulatorConfig(mu1=0.09, mu2=0.11))
        assert sp.p_suppressed == pytest.approx(0.01)
        assert mod.suppression_db(np.sqrt(sp.p_suppressed)) == pytest.approx(20.0)

    def test_swap_leaves_sideband_powers(self):
        a = mod.spectrum(mod.ModulatorConfig(mu1=0.06, mu2=0.1))
        b = mod.spectrum(mod.ModulatorConfig(mu1=0.1, mu2=0.06))
        assert a.p_suppressed == pytest.approx(b.p_suppressed)

    def test_non_finite_or_negative_power_rejected(self):
        for bad in (np.nan, np.inf, -1.0):
            for powers in ((1.0, bad, 0.0), (1.0, 0.0, bad), (bad, 0.0, 0.0)):
                with pytest.raises(InvalidArgument):
                    mod.SidebandSpectrum(*powers)

    def test_carrier_power_past_float_range_rejected(self):
        # a finite carrier over a desired power of 2.5e-321 overflows to inf
        with pytest.raises(InvalidArgument, match="finite"):
            mod.spectrum(mod.ModulatorConfig(mu1=1e-160, mu2=1e-160, delta2=1.0))

    def test_degenerate_config(self):
        with pytest.raises(DegenerateConfig):
            mod.spectrum(mod.ModulatorConfig(mu1=0.0, mu2=0.0, delta1=0.01))

    def test_against_time_domain_oracle(self):
        # linear three-line model vs exact field, small-signal regime;
        # the carrier line is compared in the exact-field normalization
        # (half the nominal carrier coefficient), third harmonic ignored
        rng = np.random.default_rng(21)
        for _ in range(20):
            mu2 = rng.uniform(0.02, 0.08)
            mu1 = mu2 * rng.uniform(0.3, 0.9)
            d1, d2 = rng.uniform(-0.02, 0.02, 2)
            sp = mod.spectrum(mod.ModulatorConfig(mu1, mu2, d1, d2))
            upper, lower, carrier = iq_output_lines(mu1, mu2, d1, d2)
            p_sup = abs(lower) ** 2 / abs(upper) ** 2
            p_car = abs(carrier) ** 2 / abs(upper) ** 2
            assert sp.p_suppressed == pytest.approx(p_sup, rel=0.01)
            assert sp.p_carrier / 4.0 == pytest.approx(p_car, rel=0.01)
