"""Key-rate security analysis for the leaky single-sideband protocol.

Key rates come from the five modes A, B, L, E1, E2 (`reduced_state`) of the
protocol's pure purification `build_scheme`, the model of record: Eve holds
E = (L, E1, E2) and chi is S(E) - S(E|a) or S(E) - S(E|b).  `key_rates`
evaluates many points in one batched pass.  The V_M and loss-margin searches
are generators that yield the points they need; `lockstep` runs many of them
side by side and `drive` sends each round's new points to `key_rates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from . import gaussian as g
from .errors import InvalidArgument, NumericalError

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
GOLDEN_TOL = 1e-3

MAX_ADDITIONAL_LOSS_DB = 60.0
# root accuracy well inside the 0.01 dB reporting tolerance, so that small
# loss-margin differences between nearby leakage values keep their sign
LOSS_ROOT_XTOL_DB = 1e-4
# scipy.optimize.brentq's default relative tolerance and iteration cap
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
BRENT_MAXITER = 100


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
        for name in ("v_m", "k", "eps_ch", "eps_d", "eps_p1", "eps_p2", "eps_l"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgument(f"{name} must be finite, got {getattr(self, name)}")
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
        if self.eta_ch == 1.0 and self.eps_ch > 0.0:
            raise InvalidArgument("eps_ch > 0 requires eta_ch < 1 (purifier undefined)")
        if self.eta_d == 1.0 and self.eps_d > 0.0:
            raise InvalidArgument("eps_d > 0 requires eta_d < 1 (purifier undefined)")


@dataclass(frozen=True)
class Scheme:
    """Global pure state of the purification scheme (Alice A, Bob B) plus its mode partition."""

    state: g.CovMatrix
    trusted: tuple[str, ...]
    untrusted: tuple[str, ...]


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


def _couple_trusted_noise(state: g.CovMatrix, target: str, eps, tag: str) -> g.CovMatrix:
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
    v = np.maximum(1.0, eps / (2.0 * (1.0 - ETA_P)))
    eta = 1.0 - eps / (2.0 * v)
    labels = _noise_mode_labels(tag)
    state = g.tensor(state, g.epr_source(v, (labels[0], labels[1])))
    state = g.two_mode_squeezer(state, target, labels[0], 1.0 / eta)
    state = g.tensor(state, g.epr_source(v, (labels[2], labels[3])))
    return g.beamsplitter(state, target, labels[2], eta)


def build_scheme(p: ProtocolParams) -> Scheme:
    """Construct the global pure purification state of the protocol: the model of record.

    Mode roles: A Alice, B signal, L leakage output (Eve), E1/E2 channel
    purification (Eve), D1/D2 detection purification (trusted), *a..*d
    trusted-noise coupling arms (trusted).  Key rates come from its reduced
    state on A, B, L, E1, E2 (`reduced_state`); the tests compare the two.
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

    if p.eta_d < 1.0:
        v_d = 1.0 + p.eps_d / (1.0 - p.eta_d)
        state = g.tensor(state, g.epr_source(v_d, ("D1", "D2")))
        state = g.beamsplitter(state, "B", "D1", p.eta_d)
        trusted += ["D1", "D2"]

    return Scheme(state=state, trusted=tuple(trusted), untrusted=tuple(untrusted))


REDUCED_MODES = ("A", "B", "L", "E1", "E2")
EVE_MODES = ("L", "E1", "E2")
# the p block is S X S for the x block X, with S these signs of the modes
_SIGNS = (1.0, -1.0, -1.0, -1.0, 1.0)
_P_BLOCK_SIGNS = np.outer(_SIGNS, _SIGNS)


def reduced_state(p) -> g.CovMatrix:
    """The state of the modes A, B, L, E1, E2 of `build_scheme(p)`, in closed form.

    Trusted noise adds eps_p1 and eps_p2 to B and eps_l to L.  The channel
    mixes B with E1 of an EPR pair E1/E2 of variance 1 + eps_ch / (1 - eta_ch);
    the detector attenuates B by eta_d and adds (1 - eta_d) + eps_d.  Unused
    L, E1 and E2 are vacua.  Fields of `p` may be arrays of one length: a batch.
    """
    a, b, l, e1, e2 = range(5)
    k2 = p.k * p.k
    t, r = np.sqrt(1.0 / (1.0 + k2)), np.sqrt(k2 / (1.0 + k2))
    e, f, d = np.sqrt(p.eta_ch), np.sqrt(1.0 - p.eta_ch), np.sqrt(p.eta_d)
    v_s = 1.0 + (1.0 + k2) * p.v_m
    c_s = np.sqrt(v_s * v_s - 1.0)
    # ProtocolParams has eps_ch = 0 wherever eta_ch = 1
    v_e = 1.0 + p.eps_ch / np.where(p.eta_ch < 1.0, 1.0 - p.eta_ch, 1.0)
    c_e = np.sqrt(v_e * v_e - 1.0)
    # B and L after the leakage beamsplitter, with the trusted noise on each
    b0, l0 = v_s + p.eps_p1, 1.0 + p.eps_l
    bb = t * t * b0 + r * r * l0 + p.eps_p2
    bl = t * r * (l0 - b0)
    b_out = p.eta_d * (p.eta_ch * bb + (1.0 - p.eta_ch) + p.eps_ch) + (1.0 - p.eta_d) + p.eps_d
    x_entries = {
        (a, a): v_s,
        (a, b): d * e * t * c_s,
        (a, l): -r * c_s,
        (a, e1): -f * t * c_s,
        (b, b): b_out,
        (b, l): d * e * bl,
        (b, e1): d * e * f * (v_e - bb),
        (b, e2): d * f * c_e,
        (l, l): r * r * b0 + t * t * l0,
        (l, e1): -f * bl,
        (e1, e1): (1.0 - p.eta_ch) * bb + p.eta_ch * v_e,
        (e1, e2): e * c_e,
        (e2, e2): v_e,
    }
    x = np.zeros(np.shape(v_s) + (5, 5))
    for (i, j), value in x_entries.items():
        x[..., i, j] = x[..., j, i] = value
    gamma = np.zeros(np.shape(v_s) + (10, 10))
    gamma[..., 0::2, 0::2] = x
    gamma[..., 1::2, 1::2] = _P_BLOCK_SIGNS * x
    return g.CovMatrix(REDUCED_MODES, gamma)


def finite_size_penalty(block_size: int) -> float:
    """Dominant finite-size correction Delta(n) in bits/symbol; 0 = asymptotic."""
    if block_size == 0:
        return 0.0
    return float(7.0 * np.sqrt(np.log2(2.0 / FINITE_SIZE_EPS) / block_size))


def _mutual_information(state: g.CovMatrix) -> np.ndarray:
    """Heterodyne-heterodyne I_AB (bits/symbol), x term plus p term, of each state of a batch."""
    gamma_ab = g.partial_trace(state, ["A", "B"])
    bob, bob_cond = (
        np.diagonal(s.mode_block("B"), axis1=-2, axis2=-1)
        for s in (gamma_ab, g.heterodyne_condition(gamma_ab, "A"))
    )
    return (0.5 * np.log2((bob + 1.0) / (bob_cond + 1.0))).sum(axis=-1)


def _holevo_bounds(state: g.CovMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Holevo bounds S(E) - S(E|a) (DR) and S(E) - S(E|b) (RR) of each reduced state of a batch."""
    s_e = g.von_neumann_entropy(g.partial_trace(state, EVE_MODES))
    chi_dr, chi_rr = (
        s_e - g.von_neumann_entropy(g.partial_trace(g.heterodyne_condition(state, x), EVE_MODES))
        for x in ("A", "B")
    )
    # tiny negative residues from the eigensolver are numerical zero
    if np.any(chi_dr < -1e-9) or np.any(chi_rr < -1e-9):
        raise NumericalError(f"negative Holevo bound: {np.min(chi_dr)}, {np.min(chi_rr)}")
    return chi_dr, chi_rr


def _evaluate(points: list[ProtocolParams]) -> list[KeyRateReport]:
    """Reports for distinct points, from one batched reduced state."""
    batch = SimpleNamespace(
        **{f.name: np.array([getattr(q, f.name) for q in points]) for f in fields(ProtocolParams)}
    )
    state = reduced_state(batch)
    i_ab = _mutual_information(state)
    chi_dr, chi_rr = (np.maximum(chi, 0.0) for chi in _holevo_bounds(state))
    delta = np.array([finite_size_penalty(q.block_size) for q in points])
    r_dr, r_rr = (batch.beta * i_ab - chi - delta for chi in (chi_dr, chi_rr))
    clamped = (np.maximum(r, 0.0) for r in (r_dr, r_rr))
    columns = (i_ab, chi_dr, chi_rr, r_dr, r_rr, *clamped, delta)
    return [KeyRateReport(*row) for row in zip(*(c.tolist() for c in columns))]


def key_rates(points) -> list[KeyRateReport]:
    """Secret key fractions for both reconciliation directions at many points, in order.

    Each distinct point is evaluated once, all in one batched pass through
    `reduced_state`.  A point that fails alone fails the call with the same error.
    """
    points = list(points)
    distinct = list(dict.fromkeys(points))
    reports = dict(zip(distinct, _evaluate(distinct)))
    return [reports[q] for q in points]


def key_rate(p: ProtocolParams) -> KeyRateReport:
    """Secret key fractions for both reconciliation directions."""
    return key_rates([p])[0]


def drive(search):
    """Run a search to its end and return its result.

    A search is a generator that yields lists of points and is sent their
    reports, in the same order.  Each round's points that this call has not
    seen yet go to `key_rates` in one call; reports are kept until the
    search ends, so no point is evaluated twice within one call.
    """
    known: dict[ProtocolParams, KeyRateReport] = {}
    try:
        request = next(search)
        while True:
            new = [q for q in request if q not in known]
            known.update(zip(new, key_rates(new)))
            request = search.send([known[q] for q in request])
    except StopIteration as stop:
        return stop.value


def lockstep(searches):
    """One search that runs `searches` side by side; its result lists theirs in order.

    Each round asks for the next points of every search that has not ended.
    """
    searches = list(searches)
    results = [None] * len(searches)
    asked: dict[int, list[ProtocolParams]] = {}

    def advance(i, reports):
        try:
            asked[i] = searches[i].send(reports)
        except StopIteration as stop:
            asked.pop(i, None)
            results[i] = stop.value

    for i in range(len(searches)):
        advance(i, None)
    while asked:
        pending = list(asked.items())
        reports = iter((yield [q for _, request in pending for q in request]))
        for i, request in pending:
            advance(i, [next(reports) for _ in request])
    return results


def search_vm(p: ProtocolParams, direction: str):
    """Search behind `optimize_vm`: the 40-point grid in one round, then golden section.

    The golden-section steps and stopping rule, x3 - x0 <= 1e-3 (|x1| + |x2|)
    on u = log(V_M), are those of scipy.optimize.golden, so optima inside the
    grid stay where that search put them.
    """
    grid = np.logspace(np.log10(VM_BRACKET[0]), np.log10(VM_BRACKET[1]), VM_GRID_POINTS)
    reports = yield [replace(p, v_m=v) for v in grid]
    rates = np.array([report.rate(direction) for report in reports])
    best = int(np.argmax(rates))

    def at(u):
        return replace(p, v_m=float(np.exp(u)))

    x0 = np.log(grid[max(best - 1, 0)])
    x3 = np.log(grid[min(best + 1, len(grid) - 1)])
    mid = np.log(grid[best])
    if best in (0, len(grid) - 1):
        x1, x2 = GOLDEN_R * x0 + GOLDEN_C * x3, GOLDEN_C * x0 + GOLDEN_R * x3
    elif x3 - mid > mid - x0:
        x1, x2 = mid, mid + GOLDEN_C * (x3 - mid)
    else:
        x1, x2 = mid - GOLDEN_C * (mid - x0), mid
    r1, r2 = yield [at(x1), at(x2)]
    f1, f2 = r1.rate(direction), r2.rate(direction)
    for _ in range(GOLDEN_MAXITER):
        if abs(x3 - x0) <= GOLDEN_TOL * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1, f1 = x1, x2, f2
            x2 = GOLDEN_R * x1 + GOLDEN_C * x3
            [report] = yield [at(x2)]
            f2 = report.rate(direction)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = GOLDEN_R * x2 + GOLDEN_C * x0
            [report] = yield [at(x1)]
            f1 = report.rate(direction)
    # ties break toward smaller V_M
    u_opt, r_opt = (x1, f1) if f1 > f2 else (x2, f2)
    if r_opt < rates[best]:
        return OptimalVm(v_m=float(grid[best]), rate=float(rates[best]))
    return OptimalVm(v_m=float(np.exp(u_opt)), rate=r_opt)


def optimize_vm(p: ProtocolParams, direction: str) -> OptimalVm:
    """Maximize the key fraction over the modulation variance.

    Log-spaced bracketing grid over [0.01, 100] SNU followed by a
    golden-section refinement on log(V_M) between the best grid point's
    neighbours, or between an end point and its neighbour; ties break toward
    smaller V_M.
    """
    return drive(search_vm(p, direction))


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _brentq(xa: float, xb: float, fa: float, fb: float, xtol: float):
    """Root of f on [xa, xb] by Brent's method, step for step as scipy.optimize.brentq.

    A generator over x: it yields each new x and is sent f(x); its return
    value is the root.  fa = f(xa) and fb = f(xb) must not share a sign.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise InvalidArgument(f"f({xa}) and f({xb}) share a sign")
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield xcur
    raise NumericalError(f"root search did not converge in {BRENT_MAXITER} steps")


def search_loss_margin(p: ProtocolParams, direction: str):
    """Search behind `max_additional_loss`: both ends of [0, 60] dB, then Brent's method."""

    def at(a_db: float) -> ProtocolParams:
        return replace(p, eta_ch=p.eta_ch * 10.0 ** (-a_db / 10.0))

    [report] = yield [at(0.0)]
    f0 = report.rate(direction)
    if f0 <= 0.0:
        return LossMargin(db=0.0, flag="no-positive-key")
    [report] = yield [at(MAX_ADDITIONAL_LOSS_DB)]
    f1 = report.rate(direction)
    if f1 > 0.0:
        return LossMargin(db=MAX_ADDITIONAL_LOSS_DB, flag="saturated")
    roots = _brentq(0.0, MAX_ADDITIONAL_LOSS_DB, f0, f1, LOSS_ROOT_XTOL_DB)
    try:
        a_db = next(roots)
        while True:
            [report] = yield [at(a_db)]
            a_db = roots.send(report.rate(direction))
    except StopIteration as stop:
        return LossMargin(db=float(stop.value), flag="ok")


def max_additional_loss(p: ProtocolParams, direction: str) -> LossMargin:
    """Maximal tolerable additional channel attenuation (dB) before R hits 0."""
    return drive(search_loss_margin(p, direction))


def leakage_penalty(p: ProtocolParams, direction: str) -> float:
    """Rate advantage Eve gains from ignored leakage: R(k=0) - R(k)."""
    twin, report = key_rates([replace(p, k=0.0), p])
    return twin.rate(direction) - report.rate(direction)


def noise_scans(p: ProtocolParams, noise_points=NOISE_POINTS) -> dict[str, dict[float, KeyRateReport]]:
    """`noise_scan` at each of `noise_points`, from one `key_rates` call."""
    for point in noise_points:
        if point not in NOISE_FIELDS:
            raise InvalidArgument(f"noise point must be one of {NOISE_POINTS}")
    scans = {
        point: {eps: replace(p, **{NOISE_FIELDS[point]: eps}) for eps in VIABILITY_GRID}
        for point in noise_points
    }
    reports = iter(key_rates(q for scan in scans.values() for q in scan.values()))
    return {point: {eps: next(reports) for eps in scan} for point, scan in scans.items()}


def noise_scan(p: ProtocolParams, noise_point: str) -> dict[float, KeyRateReport]:
    """Reports over VIABILITY_GRID of the noise at one infusion point, all else as in `p`."""
    return noise_scans(p, (noise_point,))[noise_point]


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
