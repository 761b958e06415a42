"""Key-rate security analysis for the leaky single-sideband protocol.

Builds the entanglement-based purification scheme (EPR source, leakage
beamsplitter, trusted-noise couplings, untrusted channel, detection
coupling), evaluates mutual information and Holevo bounds from covariance
matrices, and derives secret key fractions and leakage penalties.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gaussian as g
from .errors import InvalidArgument

# Strongly unbalanced coupling standing in for the eta -> 1 limit of the
# trusted-noise infusion beamsplitters.  Results must be stable to +-5e-4.
ETA_P = 0.999

# Collective-attack security parameter entering the finite-size penalty.
FINITE_SIZE_EPS = 1e-10

NOISE_FIELDS = {"P1": "eps_p1", "P2": "eps_p2", "L": "eps_l", "D": "eps_d"}
NOISE_POINTS = tuple(NOISE_FIELDS)
VIABILITY_GRID = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)
VIABILITY_MARGIN = 1e-6

VM_BRACKET = (0.01, 100.0)
VM_GRID_POINTS = 40
# scipy.optimize.golden's step constants and iteration cap, so that optima
# inside the grid stay where that search put them
GOLDEN_R = 0.61803399
GOLDEN_C = 1.0 - GOLDEN_R
GOLDEN_MAXITER = 5000

MAX_ADDITIONAL_LOSS_DB = 60.0
# root accuracy well inside the 0.01 dB reporting tolerance, so that small
# loss-margin differences between nearby leakage values keep their sign
LOSS_ROOT_XTOL_DB = 1e-4


@dataclass(frozen=True)
class ProtocolParams:
    """All scalar model parameters of one protocol operating point (SNU)."""

    v_m: float
    k: float = 0.0
    eta_ch: float = 1.0
    eps_ch: float = 0.0
    eta_d: float = 1.0
    eps_d: float = 0.0
    eps_p1: float = 0.0
    eps_p2: float = 0.0
    eps_l: float = 0.0
    beta: float = 0.96
    block_size: int = 0

    def __post_init__(self):
        if self.v_m <= 0.0:
            raise InvalidArgument(f"modulation variance must be > 0, got {self.v_m}")
        if self.k < 0.0:
            raise InvalidArgument(f"leakage ratio must be >= 0, got {self.k}")
        if not 0.0 < self.eta_ch <= 1.0:
            raise InvalidArgument(f"eta_ch must lie in (0, 1], got {self.eta_ch}")
        if not 0.0 < self.eta_d <= 1.0:
            raise InvalidArgument(f"eta_d must lie in (0, 1], got {self.eta_d}")
        for name in ("eps_ch", "eps_d", "eps_p1", "eps_p2", "eps_l"):
            if getattr(self, name) < 0.0:
                raise InvalidArgument(f"{name} must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidArgument(f"beta must lie in [0, 1], got {self.beta}")
        if self.block_size < 0:
            raise InvalidArgument("block size must be >= 0 (0 = asymptotic)")
        if self.eta_d == 1.0 and self.eps_d > 0.0:
            raise InvalidArgument("eps_d > 0 requires eta_d < 1 (purifier undefined)")


@dataclass(frozen=True)
class Scheme:
    """Global pure state of the purification scheme plus its mode partition."""

    state: g.CovMatrix
    trusted: tuple[str, ...]
    untrusted: tuple[str, ...]
    alice_mode: str = "A"
    bob_mode: str = "B"


@dataclass(frozen=True)
class KeyRateReport:
    """Mutual information, Holevo bounds and key fractions at one point."""

    i_ab: float
    chi_dr: float
    chi_rr: float
    r_dr: float
    r_rr: float
    r_dr_clamped: float
    r_rr_clamped: float
    finite_size_penalty: float

    def rate(self, direction: str) -> float:
        """Key fraction for reconciliation direction 'dr' or 'rr'."""
        if direction == "dr":
            return self.r_dr
        if direction == "rr":
            return self.r_rr
        raise InvalidArgument(f"direction must be 'dr' or 'rr', got {direction!r}")


@dataclass(frozen=True)
class OptimalVm:
    v_m: float
    rate: float


@dataclass(frozen=True)
class LossMargin:
    db: float
    flag: str  # "ok" | "no-positive-key" | "saturated"


def _noise_mode_labels(tag: str) -> list[str]:
    return [f"{tag}{suffix}" for suffix in ("a", "b", "c", "d")]


def _couple_trusted_noise(
    state: g.CovMatrix, target: str, eps: float, tag: str
) -> g.CovMatrix:
    """Infuse trusted noise eps into `target` with no net attenuation.

    A phase-insensitive amplifier of gain 1/eta followed by an unbalanced
    tap of transmittance eta leaves the signal quadratures unchanged while
    adding (1 - eta)(V_idler + V_tap) of noise from two trusted EPR
    ancillas.  Choosing both ancilla variances as eps / (2 (1 - eta)) makes
    the injected noise exactly eps for any coupling transmittance, so the
    reduced state of the remaining modes does not depend on eta at all.

    Appends modes `{tag}a`/`{tag}b` (amplifier idler pair) and
    `{tag}c`/`{tag}d` (tap pair); all four stay with the trusted parties.
    """
    # below eps = 2 (1 - ETA_P) the ancillas are vacua (v = 1 exactly, never
    # rounded below it) and the coupling moves toward eta = 1 instead
    v = max(1.0, eps / (2.0 * (1.0 - ETA_P)))
    eta = 1.0 - eps / (2.0 * v)
    labels = _noise_mode_labels(tag)
    state = g.tensor(state, g.epr_source(v, (labels[0], labels[1])))
    state = g.two_mode_squeezer(state, target, labels[0], 1.0 / eta)
    state = g.tensor(state, g.epr_source(v, (labels[2], labels[3])))
    return g.beamsplitter(state, target, labels[2], eta)


def build_scheme(p: ProtocolParams) -> Scheme:
    """Construct the global pure purification state of the protocol.

    Mode roles: A Alice, B signal, L leakage output (Eve), E1/E2 channel
    purification (Eve), D1/D2 detection purification (trusted), *a..*d
    trusted-noise coupling arms (trusted).
    """
    k2 = p.k * p.k
    v_s = 1.0 + (1.0 + k2) * p.v_m
    state = g.epr_source(v_s, ("A", "B"))
    trusted = ["A", "B"]
    untrusted: list[str] = []

    if p.eps_p1 > 0.0:
        state = _couple_trusted_noise(state, "B", p.eps_p1, "P1")
        trusted += _noise_mode_labels("P1")

    if p.k > 0.0 or p.eps_l > 0.0:
        state = g.tensor(state, g.vacuum(1, ("L",)))
        if p.eps_l > 0.0:
            state = _couple_trusted_noise(state, "L", p.eps_l, "L")
            trusted += _noise_mode_labels("L")
        state = g.beamsplitter(state, "B", "L", 1.0 / (1.0 + k2))
        untrusted.append("L")

    if p.eps_p2 > 0.0:
        state = _couple_trusted_noise(state, "B", p.eps_p2, "P2")
        trusted += _noise_mode_labels("P2")

    if p.eta_ch < 1.0:
        state = g.loss_excess_channel(state, "B", p.eta_ch, p.eps_ch, ("E1", "E2"))
        untrusted += ["E1", "E2"]
    elif p.eps_ch > 0.0:
        raise InvalidArgument("eps_ch > 0 requires eta_ch < 1 (purifier undefined)")

    if p.eta_d < 1.0:
        v_d = 1.0 + p.eps_d / (1.0 - p.eta_d)
        state = g.tensor(state, g.epr_source(v_d, ("D1", "D2")))
        state = g.beamsplitter(state, "B", "D1", p.eta_d)
        trusted += ["D1", "D2"]

    return Scheme(state=state, trusted=tuple(trusted), untrusted=tuple(untrusted))


def finite_size_penalty(block_size: int) -> float:
    """Dominant finite-size correction Delta(n) in bits/symbol; 0 = asymptotic."""
    if block_size == 0:
        return 0.0
    return float(7.0 * np.sqrt(np.log2(2.0 / FINITE_SIZE_EPS) / block_size))


def mutual_information(p: ProtocolParams, scheme: Scheme | None = None) -> float:
    """Heterodyne-heterodyne mutual information (bits/symbol) from the scheme."""
    if scheme is None:
        scheme = build_scheme(p)
    gamma_ab = g.partial_trace(scheme.state, [scheme.alice_mode, scheme.bob_mode])
    bob = gamma_ab.mode_block(scheme.bob_mode)
    cond = g.heterodyne_condition(gamma_ab, scheme.alice_mode)
    bob_cond = cond.mode_block(scheme.bob_mode)
    i_x = 0.5 * np.log2((bob[0, 0] + 1.0) / (bob_cond[0, 0] + 1.0))
    i_p = 0.5 * np.log2((bob[1, 1] + 1.0) / (bob_cond[1, 1] + 1.0))
    return float(i_x + i_p)


def holevo_bounds(p: ProtocolParams, scheme: Scheme | None = None) -> tuple[float, float]:
    """Holevo bounds (chi_DR, chi_RR) in bits/symbol.

    Eve's entropy equals the trusted-mode entropy because the global state is
    pure, so both bounds follow from the trusted covariance matrix alone.
    """
    if scheme is None:
        scheme = build_scheme(p)
    gamma_t = g.partial_trace(scheme.state, scheme.trusted)
    s_t = g.von_neumann_entropy(gamma_t)
    s_cond_a = g.von_neumann_entropy(g.heterodyne_condition(gamma_t, scheme.alice_mode))
    s_cond_b = g.von_neumann_entropy(g.heterodyne_condition(gamma_t, scheme.bob_mode))
    chi_dr = s_t - s_cond_a
    chi_rr = s_t - s_cond_b
    # tiny negative residues from the eigensolver are numerical zero
    if chi_dr < -1e-9 or chi_rr < -1e-9:
        raise g.NumericalError(f"negative Holevo bound: {chi_dr}, {chi_rr}")
    return max(chi_dr, 0.0), max(chi_rr, 0.0)


def key_rate(p: ProtocolParams) -> KeyRateReport:
    """Secret key fractions for both reconciliation directions."""
    scheme = build_scheme(p)
    i_ab = mutual_information(p, scheme)
    chi_dr, chi_rr = holevo_bounds(p, scheme)
    delta = finite_size_penalty(p.block_size)
    r_dr = p.beta * i_ab - chi_dr - delta
    r_rr = p.beta * i_ab - chi_rr - delta
    return KeyRateReport(
        i_ab=i_ab,
        chi_dr=chi_dr,
        chi_rr=chi_rr,
        r_dr=r_dr,
        r_rr=r_rr,
        r_dr_clamped=max(r_dr, 0.0),
        r_rr_clamped=max(r_rr, 0.0),
        finite_size_penalty=delta,
    )


def _golden_section_max(f, x0: float, x1: float, x2: float, x3: float, tol: float = 1e-3):
    """Maximiser of a unimodal f on (x0, x3) by golden section, from comparisons alone.

    x0 < x1 < x2 < x3 are the bracket and the first two probes.  The steps and
    the stopping rule, x3 - x0 <= tol (|x1| + |x2|), are those of
    scipy.optimize.golden.  Returns the better probe and f there; ties break
    toward x0.
    """
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_MAXITER):
        if abs(x3 - x0) <= tol * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1, f1 = x1, x2, f2
            x2 = GOLDEN_R * x1 + GOLDEN_C * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = GOLDEN_R * x2 + GOLDEN_C * x0
            f1 = f(x1)
    return (x1, f1) if f1 > f2 else (x2, f2)


def optimize_vm(p: ProtocolParams, direction: str) -> OptimalVm:
    """Maximize the key fraction over the modulation variance.

    Log-spaced bracketing grid over [0.01, 100] SNU followed by a
    golden-section refinement on log(V_M) between the best grid point's
    neighbours, or between an end point and its neighbour; ties break toward
    smaller V_M.
    """

    def rate_at(v_m: float) -> float:
        return key_rate(replace(p, v_m=v_m)).rate(direction)

    grid = np.logspace(np.log10(VM_BRACKET[0]), np.log10(VM_BRACKET[1]), VM_GRID_POINTS)
    rates = np.array([rate_at(v) for v in grid])
    best = int(np.argmax(rates))

    lo = np.log(grid[max(best - 1, 0)])
    hi = np.log(grid[min(best + 1, len(grid) - 1)])
    mid = np.log(grid[best])
    if best in (0, len(grid) - 1):
        x1, x2 = GOLDEN_R * lo + GOLDEN_C * hi, GOLDEN_C * lo + GOLDEN_R * hi
    elif hi - mid > mid - lo:
        x1, x2 = mid, mid + GOLDEN_C * (hi - mid)
    else:
        x1, x2 = mid - GOLDEN_C * (mid - lo), mid
    u_opt, r_opt = _golden_section_max(lambda u: rate_at(float(np.exp(u))), lo, x1, x2, hi)
    if r_opt < rates[best]:
        return OptimalVm(v_m=float(grid[best]), rate=float(rates[best]))
    return OptimalVm(v_m=float(np.exp(u_opt)), rate=r_opt)


def max_additional_loss(p: ProtocolParams, direction: str) -> LossMargin:
    """Maximal tolerable additional channel attenuation (dB) before R hits 0."""
    from scipy import optimize

    # the bracket ends, evaluated once here and handed back to brentq
    ends: dict[float, float] = {}

    def rate_at(a_db: float) -> float:
        if a_db in ends:
            return ends[a_db]
        return key_rate(replace(p, eta_ch=p.eta_ch * 10.0 ** (-a_db / 10.0))).rate(direction)

    ends[0.0] = rate_at(0.0)
    if ends[0.0] <= 0.0:
        return LossMargin(db=0.0, flag="no-positive-key")
    ends[MAX_ADDITIONAL_LOSS_DB] = rate_at(MAX_ADDITIONAL_LOSS_DB)
    if ends[MAX_ADDITIONAL_LOSS_DB] > 0.0:
        return LossMargin(db=MAX_ADDITIONAL_LOSS_DB, flag="saturated")
    root = optimize.brentq(rate_at, 0.0, MAX_ADDITIONAL_LOSS_DB, xtol=LOSS_ROOT_XTOL_DB)
    return LossMargin(db=float(root), flag="ok")


def leakage_penalty(p: ProtocolParams, direction: str) -> float:
    """Rate advantage Eve gains from ignored leakage: R(k=0) - R(k)."""
    return key_rate(replace(p, k=0.0)).rate(direction) - key_rate(p).rate(direction)


def noise_scan(p: ProtocolParams, noise_point: str) -> dict[float, KeyRateReport]:
    """Reports over VIABILITY_GRID of the noise at one infusion point, all else as in `p`."""
    if noise_point not in NOISE_FIELDS:
        raise InvalidArgument(f"noise point must be one of {NOISE_POINTS}")
    return {eps: key_rate(replace(p, **{NOISE_FIELDS[noise_point]: eps})) for eps in VIABILITY_GRID}


def viability_verdict(scan: dict[float, KeyRateReport], direction: str) -> str:
    """Helpful, harmful or neutral: a `noise_scan` against its zero-noise baseline."""
    baseline = scan[0.0].rate(direction)
    rates = [report.rate(direction) for eps, report in scan.items() if eps > 0.0]
    if any(r > baseline + VIABILITY_MARGIN for r in rates):
        return "helpful"
    if all(r < baseline - VIABILITY_MARGIN for r in rates):
        return "harmful"
    return "neutral"


def trusted_noise_viability(p: ProtocolParams, noise_point: str, direction: str) -> str:
    """Classify a trusted-noise infusion point as helpful, harmful or neutral.

    The chosen noise is scanned over a fixed grid with every other parameter
    held at its value in `p`; the verdict compares against the zero-noise
    baseline for that infusion point.
    """
    return viability_verdict(noise_scan(p, noise_point), direction)
