"""Key-rate security analysis for the leaky single-sideband protocol.

Key rates come from the five modes A, B, L, E1, E2 (`reduced_state`) of the
protocol's pure purification `build_scheme`, the model of record.  Eve holds
E = (L, E1, E2), and chi is S(E) - S(E|a) or S(E) - S(E|b); a pass checks E,
E|a and E|b as one batch, E|a being her state at source variance 1.  Each
point's x block is computed in float arithmetic.  Every search is a generator
that yields lists of points and is sent their reports; `lockstep` runs many
side by side.  `drive` is the one loop that evaluates: it sends each round's
new points to `_evaluate` in one batched pass.  `key_rates` is `drive` run on
a single round.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import gaussian as g
from .errors import InvalidArgument, NumericalError, UnphysicalState

# Collective-attack security parameter entering the finite-size penalty.
FINITE_SIZE_EPS = 1e-10
_LOG2_SECURITY = math.log2(2.0 / FINITE_SIZE_EPS)  # the penalty's log2(2 / eps)
MAX_BLOCK_SIZE = float(np.finfo(float).max)  # a pass reads block sizes as floats

NOISE_FIELDS = {"P1": "eps_p1", "P2": "eps_p2", "L": "eps_l", "D": "eps_d"}
NOISE_POINTS = tuple(NOISE_FIELDS)
VIABILITY_GRID = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)
VIABILITY_MARGIN = 1e-6

VM_BRACKET = (0.01, 100.0)
VM_GRID_POINTS = 40
# `search_vm`'s log-spaced bracketing grid, read-only
_VM_GRID = np.logspace(np.log10(VM_BRACKET[0]), np.log10(VM_BRACKET[1]), VM_GRID_POINTS)
_VM_GRID.setflags(write=False)
# scipy.optimize.golden's step constants and iteration cap, so that optima
# inside the grid stay where that search put them
GOLDEN_R = 0.61803399
GOLDEN_C = 1.0 - GOLDEN_R
GOLDEN_MAXITER = 5000
GOLDEN_TOL = 1e-3
# Cap on the golden-section points that the V_M searches sharing a round ask
# for in it: max(SPECULATED_POINTS // n, 1) each for n searches (`search_vm`).
# A round of one new point costs about 68 us and each further point about
# 8.7 us (points built by `replace` and read back from one pass, the minimum
# of 9 x 1000 timed rounds of 1 to 40 points, on a 2-core x86-64 with one BLAS
# thread), so a pass saved pays for about eight speculated points.  On 600 lone searches over
# the README domain a cap of 8 takes 3.17 passes over 51.6 points, 12 takes
# 2.46 over 52.9, 16 takes 2.435 over 53.8 and 24 or 32 take 2.433: past 16 a
# longer path saves almost nothing, and a round of many searches stays small.
SPECULATED_POINTS = 16

MAX_ADDITIONAL_LOSS_DB = 60.0
# root accuracy well inside the 0.01 dB reporting tolerance, so that small
# loss-margin differences between nearby leakage values keep their sign.  A
# step dt of the transmittance factor t = 10^(-a/10) moves a by
# 10 / ln 10 * dt / t dB, so LOSS_ROOT_RTOL, the relative tolerance on t, is
# derived from this accuracy; the search runs on u = t^2 with relative
# tolerance 2 LOSS_ROOT_RTOL, since du / u = 2 dt / t
LOSS_ROOT_XTOL_DB = 1e-4
LOSS_ROOT_RTOL = LOSS_ROOT_XTOL_DB * math.log(10.0) / 10.0
# scipy.optimize.brentq's default relative tolerance and iteration cap
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
BRENT_MAXITER = 100


def as_integer(key: str, value) -> int:
    """An integer field's value; integral floats such as 2000.0 are accepted."""
    if type(value) is int:  # the common case, without the slower ABC checks
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            integral = isinstance(value, numbers.Integral) or float(value).is_integer()  # not NaN or inf
        except OverflowError:  # a real beyond the largest float, such as Fraction(10**400)
            integral = int(value) == value
        if integral:
            return int(value)
    raise InvalidArgument(f"{key} must be a finite integer, got {value!r}")


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
        """Raise the error of the first bound that the point breaks, store an
        integral block size as int, and hash the fields once."""
        named = self.__dict__  # until here exactly the fields, in order
        values = tuple(named.values())
        v_m, k, eta_ch, eps_ch, eta_d, eps_d, eps_p1, eps_p2, eps_l, beta, block_size = values
        # real fields add to a float that is finite only if each of them is.  A
        # Decimal, a string or None does not add, math.isfinite rejects a complex
        # sum, an array does not hash, a real too large for a float, such as
        # 10**400, overflows and a bool is not a real number here: only then are
        # the fields searched for the one that is not a real number
        try:
            total = 0.0 + v_m + k + eta_ch + eps_ch + eta_d + eps_d + eps_p1 + eps_p2 + eps_l + beta
            fields_hash = hash(values)  # drive hashes each point several times a round
            finite = math.isfinite(total)
            if (
                type(v_m) is bool or type(k) is bool or type(eta_ch) is bool
                or type(eps_ch) is bool or type(eta_d) is bool or type(eps_d) is bool
                or type(eps_p1) is bool or type(eps_p2) is bool or type(eps_l) is bool
                or type(beta) is bool
            ):
                raise TypeError
        except (TypeError, ValueError, OverflowError):
            for name, value in zip(PARAM_FIELDS[:-1], values):  # every field but block_size
                if not isinstance(value, numbers.Real) or type(value) is bool:
                    raise InvalidArgument(f"{name} must be a real number, got {value!r}") from None
            fields_hash, finite = None, False
        if not finite:
            for name in ("v_m", "k", "eps_ch", "eps_d", "eps_p1", "eps_p2", "eps_l"):
                try:
                    if math.isfinite(named[name]):
                        continue
                except OverflowError:  # too large for a float: not finite as one
                    pass
                raise InvalidArgument(f"{name} must be finite, got {named[name]}")
        if v_m <= 0.0:
            raise InvalidArgument(f"modulation variance must be > 0, got {v_m}")
        if k < 0.0:
            raise InvalidArgument(f"leakage ratio must be >= 0, got {k}")
        if not 0.0 < eta_ch <= 1.0:
            raise InvalidArgument(f"eta_ch must lie in (0, 1], got {eta_ch}")
        if not 0.0 < eta_d <= 1.0:
            raise InvalidArgument(f"eta_d must lie in (0, 1], got {eta_d}")
        for name in ("eps_ch", "eps_d", "eps_p1", "eps_p2", "eps_l"):
            if named[name] < 0.0:
                raise InvalidArgument(f"{name} must be >= 0")
        if not 0.0 <= beta <= 1.0:
            raise InvalidArgument(f"beta must lie in [0, 1], got {beta}")
        if type(block_size) is not int:
            block_size = named["block_size"] = as_integer("block_size", block_size)
        if not 0 <= block_size <= MAX_BLOCK_SIZE:
            raise InvalidArgument("block size must be >= 0 (0 = asymptotic) and finite as a float")
        if eta_ch == 1.0 and eps_ch > 0.0:
            raise InvalidArgument("eps_ch > 0 requires eta_ch < 1 (purifier undefined)")
        if eta_d == 1.0 and eps_d > 0.0:
            raise InvalidArgument("eps_d > 0 requires eta_d < 1 (purifier undefined)")
        # only a real type that does not add to a float, or does not hash, is hashed here
        named["_hash"] = hash(tuple(named.values())) if fields_hash is None else fields_hash

    def __hash__(self):
        return self._hash

    def replace(self, **changes) -> ProtocolParams:
        """This point with some fields changed: `dataclasses.replace` without its
        per-field init, through the same `__post_init__` and its checks."""
        point = object.__new__(ProtocolParams)
        values = vars(point)
        values.update(vars(self))
        # __post_init__ hashes the dict's values: the fields alone, in order
        del values["_hash"]
        values.update(changes)
        # a name that is not a field, `_hash` too, adds a key
        if len(values) != len(PARAM_FIELDS):
            raise TypeError(f"ProtocolParams has no field {min(changes.keys() - PARAM_FIELDS)!r}")
        point.__post_init__()
        return point


PARAM_FIELDS = tuple(f.name for f in fields(ProtocolParams))


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


REPORT_FIELDS = tuple(f.name for f in fields(KeyRateReport))


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

    A phase-insensitive amplifier of gain 1/eta followed by a tap of
    transmittance eta leaves the signal quadratures unchanged while adding
    (1 - eta)(V_idler + V_tap) of noise from two trusted EPR ancillas of
    variance v.  With v = max(1, eps) and eta = 1 - eps / (2 v) that noise
    is exactly eps, and the reduced state of the other modes is the same
    for any such choice.  For eps <= 1 (the documented domain) the ancillas
    are vacua, exactly 1 and never rounded below it, the tap transmittance
    is at least 0.5 and the gain at most 2, so the global state stays well
    conditioned.

    Appends modes `{tag}a`/`{tag}b` (amplifier idler pair) and
    `{tag}c`/`{tag}d` (tap pair); all four stay with the trusted parties.
    """
    v = max(1.0, eps)
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
        state = g.tensor(state, g.vacuum(("L",)))
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
        state = g.loss_excess_channel(state, "B", p.eta_d, p.eps_d, ("D1", "D2"))
        trusted += ["D1", "D2"]

    return Scheme(state=state, trusted=tuple(trusted), untrusted=tuple(untrusted))


REDUCED_MODES = ("A", "B", "L", "E1", "E2")
# the signs of the modes A, B, L, E1, E2 in `build_scheme(p)`: the p block is S X S
REDUCED_SIGNS = np.array([1.0, -1.0, -1.0, -1.0, 1.0])
REDUCED_SIGNS.setflags(write=False)


def finite_size_penalty(block_size) -> float:
    """Dominant finite-size correction Delta(n) in bits/symbol; 0 = asymptotic, an
    infinite block, whose penalty is exactly 0."""
    return 7.0 * math.sqrt(_LOG2_SECURITY / (float(block_size) if block_size else math.inf))


def _x_block(p: ProtocolParams) -> tuple[float, ...]:
    """A pass's row for one point, in float arithmetic: the upper triangle, row by row,
    of the x block of `reduced_state(p)`; that of its (L, E1, E2) block, affine in v_s
    with slope u u^T, at v_s = 1: E|a, as A's row is c_s u; that of E|b, the block's
    Schur complement on B; then I_AB's log2 argument 1 - c^2 / ((v_a + 1)(v_b + 1)),
    beta and the finite-size penalty.  An overflow gives inf or NaN entries."""
    eta_ch, eps_ch, eta_d, eps_p2 = p.eta_ch, p.eps_ch, p.eta_d, p.eps_p2
    k2 = p.k * p.k
    t, r = math.sqrt(1.0 / (1.0 + k2)), math.sqrt(k2 / (1.0 + k2))
    e, d = math.sqrt(eta_ch), math.sqrt(eta_d)
    v_s = 1.0 + (1.0 + k2) * p.v_m
    c_s, l0 = math.sqrt(v_s * v_s - 1.0), 1.0 + p.eps_l
    # with f = sqrt(1 - eta_ch): fc = f c, fs = f s and uv = (1 - e) v_e, so that
    # E1 = -fc B + alpha V1 - beta V2 and E2 = fs B + beta V1 + delta V2 on the x
    # quadratures, for B before the channel and two vacua V1, V2
    fc, fs = math.sqrt(1.0 - eta_ch + 0.5 * eps_ch), math.sqrt(0.5 * eps_ch)
    e1 = 1.0 + e
    uv = (1.0 - eta_ch + eps_ch) / e1
    t2, r2, tr, de, fc2, fs2, fcs = t * t, r * r, t * r, d * e, fc * fc, fs * fs, -fc * fs
    alpha, beta, delta = 1.0 - fc2 / e1, fc * fs / e1, 1.0 + fs2 / e1
    a2, b2, d2, w = alpha * alpha, beta * beta, delta * delta, uv / e1
    # B and L after the leakage beamsplitter, with their trusted noise, at v_s and at 1
    b0, b1 = v_s + p.eps_p1, 1.0 + p.eps_p1
    bb, bb1 = t2 * b0 + r2 * l0 + eps_p2, t2 * b1 + r2 * l0 + eps_p2
    bl, bl1 = tr * (l0 - b0), tr * (l0 - b1)
    # B's variance and correlations, A's with B and Eve's block (`_REDUCED_X`); v_b + 1
    # >= 2, and Python's float ops, like numpy's, overflow to inf or NaN without a warning
    v_b = eta_d * (eta_ch * bb + (1.0 - eta_ch) + eps_ch) + (1.0 - eta_d) + p.eps_d
    c_l, c_1, c_2 = de * bl, d * fc * (1.0 - uv - e * bb), d * fs * (1.0 + uv + e * bb)
    k_ll, k_l1, k_l2, k_11 = r2 * b0 + t2 * l0, -fc * bl, fs * bl, fc2 * bb + a2 + b2
    k_12, k_22, c_ab, m = fcs * (bb + w), fs2 * bb + b2 + d2, de * t * c_s, v_b + 1.0
    return (
        v_s, c_ab, -r * c_s, -fc * t * c_s, fs * t * c_s, v_b, c_l, c_1, c_2,
        k_ll, k_l1, k_l2, k_11, k_12, k_22,
        r2 * b1 + t2 * l0, -fc * bl1, fs * bl1, fc2 * bb1 + a2 + b2, fcs * (bb1 + w), fs2 * bb1 + b2 + d2,
        k_ll - c_l * c_l / m, k_l1 - c_l * c_1 / m, k_l2 - c_l * c_2 / m,
        k_11 - c_1 * c_1 / m, k_12 - c_1 * c_2 / m, k_22 - c_2 * c_2 / m,
        1.0 - c_ab * c_ab / ((v_s + 1.0) * m), float(p.beta), finite_size_penalty(p.block_size),
    )


# `reduced_state(p)`'s x block from `_x_block(p)`
_REDUCED_X = np.zeros((5, 5), dtype=int)
_REDUCED_X[np.triu_indices(5)] = np.arange(15)
_REDUCED_X = np.maximum(_REDUCED_X, _REDUCED_X.T)
# Eve's block and her states given a and given b: E, E|a and E|b, in one gather
_EVE_STATES = np.stack([_REDUCED_X[2:, 2:] + offset for offset in (0, 6, 12)])
# a row's 27 state entries, those of the five-mode block, E|a and E|b, then
# I_AB's log2 argument, beta and the penalty
_STATE_ENTRIES, _ROW_ENTRIES = 27, 30


def reduced_x(p: ProtocolParams) -> np.ndarray:
    """The x block of `reduced_state(p)`, unchecked but for finite entries: a
    non-finite one raises `NumericalError`."""
    x = np.array(_x_block(p)[:15])[_REDUCED_X]
    if not np.isfinite(x).all():
        raise NumericalError("covariance matrix has non-finite entries")
    return x


def reduced_state(p: ProtocolParams) -> g.CovMatrix:
    """The state of the modes A, B, L, E1, E2 of `build_scheme(p)`, in closed form,
    with Eve's channel modes E1, E2 in their unsqueezed frame.

    Trusted noise adds eps_p1 and eps_p2 to B and eps_l to L.  The channel
    mixes B with E1 of an EPR pair E1/E2 of variance v_e = 1 + eps_ch / (1 - eta_ch);
    the detector attenuates B by eta_d and adds (1 - eta_d) + eps_d.  Unused
    L, E1 and E2 are vacua.

    E1 and E2 are then mapped to c E1 - s E2 and c E2 - s E1 on the x
    quadratures (+s on the p quadratures), with c^2 = (v_e + 1) / 2 and
    s^2 = (v_e - 1) / 2: the inverse of the squeezer that made the pair.  It
    acts on Eve's modes alone, so no entropy of E changes, given a or b or
    not, but no entry grows with v_e, whose size would cost the spectra of E
    digits.  The x block X is computed in float arithmetic (`reduced_x`); the
    signs +, -, -, -, + of the modes, `REDUCED_SIGNS` as in `build_scheme(p)`,
    give the p block S X S.
    """
    return g.CovMatrix(REDUCED_MODES, reduced_x(p), REDUCED_SIGNS)


def _evaluate(points: list[ProtocolParams]) -> list[KeyRateReport]:
    """Reports for distinct points, from one checked batch: Eve's E, E|a and E|b.

    chi is S(E) - S(E|a) (DR) or S(E) - S(E|b) (RR) on her modes L, E1, E2.  E is her
    block K(v_s), E|b its Schur complement on B, and E|a = K(v_s) - c_s^2 u u^T / (v_s + 1)
    = K(1), her state for a coherent input, as A's row is c_s u.  Each point's row
    (`_x_block`) holds all three, I_AB's log2 argument, beta and the penalty."""
    n = len(points)
    rows = np.fromiter(chain.from_iterable(map(_x_block, points)), float, n * _ROW_ENTRIES).reshape(n, -1)
    # an overflow leaves a state entry inf or NaN, E|b's alone from eps_l near 1e155;
    # A's too are checked: at k = 0 and eta_ch = 1 Eve holds vacua whatever v_s is
    if not np.isfinite(rows[:, :_STATE_ENTRIES]).all():
        raise NumericalError("covariance matrix has non-finite entries")
    # all three states are bitwise symmetric, each entry and its mirror one float:
    # checked as they are, without a CovMatrix's symmetry check and copy
    nus = g.checked_spectrum(rows[:, _EVE_STATES].swapaxes(0, 1), REDUCED_SIGNS[2:])
    # an entropy that overflows to inf leaves chi NaN, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        entropies = g.entropy_g(nus).sum(axis=-1)
        chi = entropies[0] - entropies[1:]  # DR and RR: S(E) - S(E|a) and S(E) - S(E|b)
    ab, beta, delta = rows[:, _STATE_ENTRIES:].T
    # from v_s = 2^53 at k = 0 and eta_ch = 1, c^2 rounds to (v_a + 1)(v_b + 1)
    if not (ab > 0.0).all():
        raise UnphysicalState(f"A and B's state gives 1 - c^2 / ((v_a + 1)(v_b + 1)) = {np.min(ab)}")
    # heterodyne I_AB (bits/symbol) of A and B: the x and the equal p term, -0.5 log2(...) each
    i_ab = -np.log2(ab)
    # tiny negative residues from the spectrum are numerical zero
    if not (chi >= -1e-9).all():
        raise NumericalError(f"negative or NaN Holevo bound: {np.min(chi[0])}, {np.min(chi[1])}")
    chi = np.maximum(chi, 0.0)
    rates = beta * i_ab - chi - delta
    # one row per report field, in `REPORT_FIELDS` order
    table = np.concatenate((i_ab[None], chi, rates, np.maximum(rates, 0.0), delta[None]))
    reports = []
    for row in table.T.tolist():
        # a frozen report without the per-field init, as `ProtocolParams.replace` builds points
        report = object.__new__(KeyRateReport)
        vars(report).update(zip(REPORT_FIELDS, row))
        reports.append(report)
    return reports


def drive(search):
    """Run a search to its end and return its result: the one loop that evaluates.

    A search is a generator that yields lists of points and is sent their
    reports, in the same order.  Each round's distinct points that this call
    has not seen yet go to `_evaluate` in one batched pass, and a round with
    none makes no pass; reports are kept until the search ends, so no point
    is evaluated twice within one call.  A point that fails alone fails the
    round's pass with the same error.
    """
    known: dict[ProtocolParams, KeyRateReport] = {}
    try:
        request = next(search)
        while True:
            new = [q for q in dict.fromkeys(request) if q not in known]
            if new:
                known.update(zip(new, _evaluate(new)))
            request = search.send([known[q] for q in request])
    except StopIteration as stop:
        return stop.value


def _round(points: list[ProtocolParams]):
    """A one-round search: yields `points` and returns their reports."""
    return (yield points)


def key_rates(points) -> list[KeyRateReport]:
    """Secret key fractions for both reconciliation directions at many points, in order:
    `drive` run on the one round `points`."""
    return drive(_round(list(points)))


def key_rate(p: ProtocolParams) -> KeyRateReport:
    """Secret key fractions for both reconciliation directions."""
    return key_rates([p])[0]


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


def _rates(points: list[ProtocolParams], direction: str):
    """One round of a search: yields `points` and returns their key fractions."""
    return [report.rate(direction) for report in (yield from _round(points))]


def _golden_step(bracket, right: bool):
    """One golden-section step from bracket (x0, x1, x2, x3), as scipy.optimize.golden
    takes it: the new bracket and its new point.  `right` is f(x2) > f(x1)."""
    x0, x1, x2, x3 = bracket
    if right:
        u = GOLDEN_R * x2 + GOLDEN_C * x3
        return (x1, x2, u, x3), u
    u = GOLDEN_R * x1 + GOLDEN_C * x0
    return (x0, u, x1, x2), u


def _golden_converged(bracket) -> bool:
    x0, x1, x2, x3 = bracket
    return abs(x3 - x0) <= GOLDEN_TOL * (abs(x1) + abs(x2))


def _golden_path(bracket, vertex: float, count: int) -> list:
    """The new points of the next `count` golden-section steps from `bracket`,
    along the path that a parabola with its maximum at `vertex` predicts:
    right iff vertex > (x1 + x2) / 2.  The path ends where the search would
    stop, at convergence."""
    points = []
    for _ in range(count):
        if _golden_converged(bracket):
            break
        bracket, u = _golden_step(bracket, vertex > (bracket[1] + bracket[2]) / 2)
        points.append(u)
    return points


def _parabola_vertex(known: dict, centre: float) -> float:
    """The vertex of the parabola through the three points (u, f) of `known`
    nearest `centre`.  Where that parabola has no maximum, +inf or -inf: the
    side of the higher of its outer two values, -inf on a tie."""
    ua, ub, uc = sorted(sorted(known, key=lambda u: abs(u - centre))[:3])
    slope = (known[ub] - known[ua]) / (ub - ua)
    curvature = ((known[uc] - known[ub]) / (uc - ub) - slope) / (uc - ua)
    if not curvature < 0.0:
        return math.inf if known[uc] > known[ua] else -math.inf
    return 0.5 * (ua + ub) - 0.5 * slope / curvature


def search_vm(p: ProtocolParams, direction: str, searches: int):
    """Search behind `optimize_vm`: the 40-point grid in one round, then golden section.

    The golden-section steps and stopping rule, x3 - x0 <= 1e-3 (|x1| + |x2|)
    on u = log(V_M), are those of scipy.optimize.golden, so optima inside the
    grid stay where that search put them.  The next step's point depends on
    one comparison only, so each golden round speculates: after [x1, x2] in
    the first, or the walked step's point, it asks for the predicted
    outcome's point of each next step, up to max(SPECULATED_POINTS //
    searches, 1) points in all, none past the stopping rule; `searches` is
    the number of V_M searches sharing each round.  The parabola through the
    three known values of R(u) nearest the bracket's centre, grid values at
    first, predicts each comparison: right iff its vertex > (x1 + x2) / 2
    (parabolic interpolation, R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, used only to choose the points).  Where that
    parabola has no maximum, the path heads toward the higher of its outer
    two values.  The walk then takes the real comparisons through those
    values, so it visits exactly the points of the one-step search; a round
    carries the walk up to its first mispredicted step.
    """
    if not isinstance(searches, numbers.Integral) or searches < 1:
        raise InvalidArgument(f"searches must be an integer of at least 1, got {searches!r}")
    grid = _VM_GRID
    # plain floats, not numpy scalars, for the float arithmetic of `_x_block`
    rates = np.array((yield from _rates([p.replace(v_m=v) for v in grid.tolist()], direction)))
    best = int(np.argmax(rates))
    budget = max(SPECULATED_POINTS // searches, 1)
    values: dict[float, float] = {}
    # the grid values that the parabola may pass through: the three nearest any
    # point of the first bracket are among the best one and two either side
    window = range(max(best - 2, 0), min(best + 3, len(grid)))
    near = dict(zip(np.log(grid[window]).tolist(), rates[window].tolist()))

    def ask(us, bracket, steps):
        """Ask for `us` and the predicted points of the next steps from `bracket`."""
        count = min(budget - len(us), steps)
        if count > 0:
            vertex = _parabola_vertex({**near, **values}, (bracket[0] + bracket[3]) / 2)
            us += _golden_path(bracket, vertex, count)
        points = [p.replace(v_m=float(np.exp(u))) for u in us]
        values.update(zip(us, (yield from _rates(points, direction))))

    x0 = np.log(grid[max(best - 1, 0)])
    x3 = np.log(grid[min(best + 1, len(grid) - 1)])
    mid = np.log(grid[best])
    if best in (0, len(grid) - 1):
        x1, x2 = GOLDEN_R * x0 + GOLDEN_C * x3, GOLDEN_C * x0 + GOLDEN_R * x3
    elif x3 - mid > mid - x0:
        x1, x2 = mid, mid + GOLDEN_C * (x3 - mid)
    else:
        x1, x2 = mid - GOLDEN_C * (mid - x0), mid
    bracket = (x0, x1, x2, x3)
    yield from ask([x1, x2], bracket, GOLDEN_MAXITER)
    f1, f2 = values[x1], values[x2]
    for steps in range(GOLDEN_MAXITER, 0, -1):
        if _golden_converged(bracket):
            break
        right = f2 > f1
        bracket, u = _golden_step(bracket, right)
        if u not in values:
            yield from ask([u], bracket, steps - 1)
        f1, f2 = (f2, values[u]) if right else (values[u], f1)
    _, x1, x2, _ = bracket
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
    smaller V_M.  The search runs alone, so each golden round asks for up to
    SPECULATED_POINTS points along the predicted path (`search_vm`).
    """
    return drive(search_vm(p, direction, 1))


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _brentq(f, xa: float, xb: float, fa: float, fb: float, xtol: float, rtol: float = BRENT_RTOL):
    """Root of f on [xa, xb] by Brent's method, step for step as scipy.optimize.brentq
    with the same xtol and rtol: it stops once the root is bracketed within
    xtol + rtol |x| of its estimate x.

    A search like any other: `f(x)` is a one-round search that returns
    f(x), so each new x is one round.  The return value is the root.
    fa = f(xa) and fb = f(xb) must not share a sign.
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
        delta = (xtol + rtol * abs(xcur)) / 2
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
        fcur = yield from f(xcur)
    raise NumericalError(f"root search did not converge in {BRENT_MAXITER} steps")


def search_loss_margin(p: ProtocolParams, direction: str):
    """Search behind `max_additional_loss`: both ends of [0, 60] dB in one round,
    then Brent's method, one round per step.

    Brent runs on u = t^2, the square of the transmittance factor
    t = 10^(-a/10), over [1e-12, 1], the point at u being p with
    eta_ch * sqrt(u), and the root is reported as -10 log10(sqrt(u)) dB.  In a,
    R is nearly flat near 60 dB, where Brent's first secant would land and fall
    back to bisection.  R_RR is convex in t and dips below its t -> 0 value,
    so at the sweep point Brent's first secant on t lands near t = 0.05 for
    roots near t = 0.3, and on u near the root.  The relative tolerance
    2 LOSS_ROOT_RTOL on u keeps the root within LOSS_ROOT_XTOL_DB.
    """

    def rate(u: float):
        return (yield from _rates([p.replace(eta_ch=p.eta_ch * math.sqrt(u))], direction))[0]

    t_end = 10.0 ** (-MAX_ADDITIONAL_LOSS_DB / 10.0)
    f0, f1 = yield from _rates([p, p.replace(eta_ch=p.eta_ch * t_end)], direction)
    if f0 <= 0.0:
        return LossMargin(db=0.0, flag="no-positive-key")
    if f1 > 0.0:
        return LossMargin(db=MAX_ADDITIONAL_LOSS_DB, flag="saturated")
    u = yield from _brentq(rate, t_end * t_end, 1.0, f1, f0, 0.0, 2.0 * LOSS_ROOT_RTOL)
    # 0.0 - x, not -x, so that a root at u = 1 reads 0.0 dB, not -0.0
    return LossMargin(db=0.0 - 10.0 * math.log10(math.sqrt(u)), flag="ok")


def max_additional_loss(p: ProtocolParams, direction: str) -> LossMargin:
    """Maximal tolerable additional channel attenuation (dB) before R hits 0."""
    return drive(search_loss_margin(p, direction))


def leakage_penalty(p: ProtocolParams, direction: str) -> float:
    """Rate advantage Eve gains from ignored leakage: R(k=0) - R(k)."""
    twin, report = key_rates([p.replace(k=0.0), p])
    return twin.rate(direction) - report.rate(direction)


def noise_scans(p: ProtocolParams, noise_points=NOISE_POINTS) -> dict[str, dict[float, KeyRateReport]]:
    """Reports over VIABILITY_GRID of the noise at each of `noise_points`, all
    else as in `p`, from one `key_rates` round."""
    for point in noise_points:
        if point not in NOISE_FIELDS:
            raise InvalidArgument(f"noise point must be one of {NOISE_POINTS}")
    scans = {
        point: {eps: p.replace(**{NOISE_FIELDS[point]: eps}) for eps in VIABILITY_GRID}
        for point in noise_points
    }
    reports = iter(key_rates(q for scan in scans.values() for q in scan.values()))
    return {point: {eps: next(reports) for eps in scan} for point, scan in scans.items()}


def viability_verdict(scan: dict[float, KeyRateReport], direction: str) -> str:
    """Helpful, harmful or neutral: one scan of `noise_scans` against its zero-noise baseline."""
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
    return viability_verdict(noise_scans(p, (noise_point,))[noise_point], direction)
