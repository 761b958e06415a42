"""Security impact of IQ-modulator sideband leakage on CV-QKD key rates."""

from .gaussian import (
    CovMatrix,
    beamsplitter,
    epr_source,
    heterodyne_condition,
    loss_excess_channel,
    partial_trace,
    tensor,
    vacuum,
    von_neumann_entropy,
)
from .modulator import (
    ModulatorConfig,
    SidebandSpectrum,
    field_coefficients,
    rho_to_k,
    spectrum,
    suppression_db,
)
from .security import (
    KeyRateReport,
    ProtocolParams,
    Scheme,
    build_scheme,
    key_rate,
    key_rates,
    leakage_penalty,
    max_additional_loss,
    optimize_vm,
    trusted_noise_viability,
)

__version__ = "0.1.0"
