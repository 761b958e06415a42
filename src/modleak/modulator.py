"""IQ-modulator imperfection model for single-sideband encoding.

Maps RF arm imbalance and DC bias deviations to the three spectral lines at
the modulator output (desired sideband, suppressed sideband, residual
carrier) and to the leakage amplitude ratio k used by the security analysis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfig, InvalidArgument

# Best sideband suppression typically achievable in practice (~24 dB); the
# residual amplitude ratio below which arm rebalancing no longer helps.
DEFAULT_K_FLOOR = 10.0 ** (-24.0 / 20.0)

# How rho (dB) maps to the arm amplitude ratio: 10^(rho/10) or 10^(rho/20)
RHO_CONVENTIONS = ("amplitude10", "amplitude20")
DEFAULT_RHO_CONVENTION = "amplitude10"

MAX_RHO_DB = 10.0 * np.log10(np.finfo(float).max)  # 3082.5 dB: the largest finite 10^(rho/10)

LINEAR_REGIME_LIMIT = 0.2


@dataclass(frozen=True)
class ModulatorConfig:
    """Effective modulation depths (radians) and DC bias deviations (radians).

    mu1/mu2 are pi*A_j / (2 V_pi) for the two RF arms; delta1/delta2 are the
    residual bias offsets from the carrier-suppression nulls.
    """

    mu1: float
    mu2: float
    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        if not np.isfinite([self.mu1, self.mu2, self.delta1, self.delta2]).all():
            raise InvalidArgument("modulation depths and bias deviations must be finite")
        if self.mu1 < 0.0 or self.mu2 < 0.0:
            raise InvalidArgument("modulation depths must be >= 0")
        if max(self.mu1, self.mu2) > LINEAR_REGIME_LIMIT:
            warnings.warn(
                "modulation depth above 0.2 rad: linear (small-signal) "
                "sideband model degrades",
                # 3: past the dataclass-generated __init__, at the caller
                stacklevel=3,
            )

    @property
    def mu(self) -> float:
        """Common-mode modulation depth (mu1 + mu2) / 2."""
        return 0.5 * (self.mu1 + self.mu2)

    @property
    def delta(self) -> float:
        """Differential depth (mu2 - mu1) / 2; drives the suppressed sideband."""
        return 0.5 * (self.mu2 - self.mu1)

    @property
    def carrier(self) -> complex:
        """Residual carrier amplitude delta2 + i*delta1."""
        return complex(self.delta2, self.delta1)


@dataclass(frozen=True)
class SidebandSpectrum:
    """Relative powers of the three output lines, normalized to the desired one."""

    p_desired: float
    p_suppressed: float
    p_carrier: float

    def __post_init__(self):
        # false for NaN too
        if not all(0.0 <= p < np.inf for p in (self.p_desired, self.p_suppressed, self.p_carrier)):
            raise InvalidArgument("spectral powers must be finite and >= 0")


def field_coefficients(cfg: ModulatorConfig) -> tuple[complex, complex, complex]:
    """Complex amplitudes (upper sideband, lower sideband, carrier).

    Small-signal limit of the nested-MZM output field: the desired line
    carries mu/2, the suppressed line delta/2, the carrier delta2 + i*delta1.
    """
    return complex(0.5 * cfg.mu), complex(0.5 * cfg.delta), cfg.carrier


def rho_to_k(
    rho_db: float,
    k_floor: float = DEFAULT_K_FLOOR,
    rho_convention: str = DEFAULT_RHO_CONVENTION,
) -> float:
    """Leakage amplitude ratio k from the RF scaling factor rho (dB).

    rho is 10*log10 of the peak RF voltage ratio r between the two arms;
    "amplitude20" reinterprets it as a 20*log10 voltage ratio instead.
    The ideal arm-imbalance model gives k = |1 - r| / (1 + r), floored by
    the residual suppression limit k_floor.  It is evaluated as the same
    function tanh(|rho| ln 10 / 20), or / 40 for "amplitude20": exactly even
    in rho, with no cancellation in 1 - r near 0.  |rho| above MAX_RHO_DB,
    twice that for "amplitude20", and NaN are out of range.
    """
    if not 0.0 <= k_floor < 1.0:
        raise InvalidArgument(f"k_floor must lie in [0, 1), got {k_floor}")
    if rho_convention not in RHO_CONVENTIONS:
        raise InvalidArgument(f"unknown rho convention {rho_convention!r}")
    scale = 20.0 if rho_convention == "amplitude10" else 40.0
    if not abs(rho_db) <= MAX_RHO_DB * scale / 20.0:  # false for NaN too
        raise InvalidArgument(f"rho = {rho_db} dB is out of range")
    return max(float(np.tanh(abs(rho_db) * np.log(10.0) / scale)), k_floor)


def suppression_db(k: float) -> float | None:
    """Sideband suppression 20*log10(1/k) in dB; None for k = 0 (infinite)."""
    if not 0.0 <= k < np.inf:  # false for NaN too
        raise InvalidArgument(f"leakage ratio must be finite and >= 0, got {k}")
    if k == 0.0:
        return None
    return 20.0 * np.log10(1.0 / k)


def spectrum(cfg: ModulatorConfig) -> SidebandSpectrum:
    """Three-line power spectrum normalized to the desired sideband."""
    upper, lower, carrier = field_coefficients(cfg)
    p_up = abs(upper) ** 2
    if p_up == 0.0:
        raise DegenerateConfig("no desired sideband (mu = 0) to normalize against")
    return SidebandSpectrum(
        p_desired=1.0,
        p_suppressed=abs(lower) ** 2 / p_up,
        p_carrier=abs(carrier) ** 2 / p_up,
    )
