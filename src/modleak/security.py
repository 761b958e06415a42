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

import numpy as np

from . import gaussian as g
from .errors import InvalidArgument, NumericalError, UnphysicalState

# Collective-attack security parameter entering the finite-size penalty.
FINITE_SIZE_EPS = 1e-10
MAX_BLOCK_SIZE = float(np.finfo(float).max)  # a pass reads block sizes as floats

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
# Cap on the golden-section points that the V_M searches sharing a round ask
# for in it.  A round costs about 136 us fixed and 13 us per further point (the
# minimum of 240 timed 30-round searches, on a 2-core x86-64 with one BLAS
# thread), so for n searches a walked step at depth d costs about
# (136 + 13 n (2^d - 1)) / d us: least at d = 3 (7 points) for one search, with
# d = 4 (15) 9% above it, at d = 3 (14) for two, with d = 2 (6) within 1%,
# and at d = 1 from 11 searches.  16 keeps d = 4 for one search.
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
        if isinstance(value, numbers.Integral) or float(value).is_integer():  # not NaN or inf
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
        # a valid point passes one comparison over every bound, which NaN fails;
        # only a point that fails it, or cannot be compared or hashed, runs the checks
        inf = math.inf
        try:
            valid = (
                0.0 < self.v_m < inf
                and 0.0 <= self.k < inf
                and 0.0 < self.eta_ch <= 1.0
                and 0.0 <= self.eps_ch < inf
                and 0.0 < self.eta_d <= 1.0
                and 0.0 <= self.eps_d < inf
                and 0.0 <= self.eps_p1 < inf
                and 0.0 <= self.eps_p2 < inf
                and 0.0 <= self.eps_l < inf
                and 0.0 <= self.beta <= 1.0
                and type(self.block_size) is int
                and 0 <= self.block_size <= MAX_BLOCK_SIZE
                and (self.eta_ch < 1.0 or self.eps_ch == 0.0)
                and (self.eta_d < 1.0 or self.eps_d == 0.0)
            )
            # drive hashes each point several times a round, so hash the fields once;
            # until here the instance dict holds exactly the fields, in order
            fields_hash = hash(tuple(self.__dict__.values()))
        except (TypeError, ValueError):  # a 0-d array compares but does not hash
            valid = False
        if not valid:
            self._check()
            fields_hash = hash(tuple(self.__dict__.values()))
        object.__setattr__(self, "_hash", fields_hash)

    def _check(self):
        """Raise the error of the first bound that the point breaks, and store an
        integral block size as int."""
        for name in PARAM_FIELDS[:-1]:  # every field but block_size
            if not isinstance(getattr(self, name), numbers.Real):
                raise InvalidArgument(f"{name} must be a real number, got {getattr(self, name)!r}")
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
        object.__setattr__(self, "block_size", as_integer("block_size", self.block_size))
        if not 0 <= self.block_size <= MAX_BLOCK_SIZE:
            raise InvalidArgument("block size must be >= 0 (0 = asymptotic) and finite as a float")
        if self.eta_ch == 1.0 and self.eps_ch > 0.0:
            raise InvalidArgument("eps_ch > 0 requires eta_ch < 1 (purifier undefined)")
        if self.eta_d == 1.0 and self.eps_d > 0.0:
            raise InvalidArgument("eps_d > 0 requires eta_d < 1 (purifier undefined)")

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
_SIGNS = np.array([1.0, -1.0, -1.0, -1.0, 1.0])
_SIGNS.setflags(write=False)


def _x_block(p: ProtocolParams) -> tuple[float, ...]:
    """The upper triangle, row by row, of the x block of `reduced_state(p)`, then that
    of its (B, L, E1, E2) block, affine in v_s with slope u u^T, at v_s = 1; A's row
    is c_s u.  Float arithmetic: an overflow gives inf or NaN entries."""
    eta_ch, eps_ch, eta_d = p.eta_ch, p.eps_ch, p.eta_d
    k2 = p.k * p.k
    t, r = math.sqrt(1.0 / (1.0 + k2)), math.sqrt(k2 / (1.0 + k2))
    e, d = math.sqrt(eta_ch), math.sqrt(eta_d)
    v_s = 1.0 + (1.0 + k2) * p.v_m
    c_s, l0 = math.sqrt(v_s * v_s - 1.0), 1.0 + p.eps_l
    # with f = sqrt(1 - eta_ch): fc = f c, fs = f s and uv = (1 - e) v_e, so that
    # E1 = -fc B + alpha V1 - beta V2 and E2 = fs B + beta V1 + delta V2 on the x
    # quadratures, for B before the channel and two vacua V1, V2
    fc, fs = math.sqrt(1.0 - eta_ch + 0.5 * eps_ch), math.sqrt(0.5 * eps_ch)
    uv = (1.0 - eta_ch + eps_ch) / (1.0 + e)
    alpha, beta, delta = 1.0 - fc * fc / (1.0 + e), fc * fs / (1.0 + e), 1.0 + fs * fs / (1.0 + e)
    entries = (v_s, d * e * t * c_s, -r * c_s, -fc * t * c_s, fs * t * c_s)
    for source in (v_s, 1.0):
        # B and L after the leakage beamsplitter, with the trusted noise on each
        b0 = source + p.eps_p1
        bb = t * t * b0 + r * r * l0 + p.eps_p2
        bl = t * r * (l0 - b0)
        entries += (
            eta_d * (eta_ch * bb + (1.0 - eta_ch) + eps_ch) + (1.0 - eta_d) + p.eps_d,
            d * e * bl, d * fc * (1.0 - uv - e * bb), d * fs * (1.0 + uv + e * bb),
            r * r * b0 + t * t * l0, -fc * bl, fs * bl,
            fc * fc * bb + alpha * alpha + beta * beta, -fc * fs * (bb + uv / (1.0 + e)),
            fs * fs * bb + beta * beta + delta * delta,
        )
    return entries


# `reduced_state(p)`'s x block from `_x_block(p)`, and Eve's at v_s = 1
_REDUCED_X = np.zeros((5, 5), dtype=int)
_REDUCED_X[np.triu_indices(5)] = np.arange(15)
_REDUCED_X = np.maximum(_REDUCED_X, _REDUCED_X.T)
_EVE_X_AT_UNIT_SOURCE = _REDUCED_X[2:, 2:] + 10


def reduced_state(p: ProtocolParams | list[ProtocolParams]) -> g.CovMatrix:
    """The state of the modes A, B, L, E1, E2 of `build_scheme(p)`, in closed form,
    with Eve's channel modes E1, E2 in their unsqueezed frame; a list of points
    gives their batch.

    Trusted noise adds eps_p1 and eps_p2 to B and eps_l to L.  The channel
    mixes B with E1 of an EPR pair E1/E2 of variance v_e = 1 + eps_ch / (1 - eta_ch);
    the detector attenuates B by eta_d and adds (1 - eta_d) + eps_d.  Unused
    L, E1 and E2 are vacua.

    E1 and E2 are then mapped to c E1 - s E2 and c E2 - s E1 on the x
    quadratures (+s on the p quadratures), with c^2 = (v_e + 1) / 2 and
    s^2 = (v_e - 1) / 2: the inverse of the squeezer that made the pair.  It
    acts on Eve's modes alone, so no entropy of E changes, given a or b or
    not, but no entry grows with v_e, whose size would cost the spectra of E
    digits.  Each point's x block X is computed in float arithmetic
    (`_x_block`); the signs +, -, -, -, + of the modes, those of
    `build_scheme(p)`, give the p block S X S.  numpy builds and checks the
    states.
    """
    if isinstance(p, list) and not p:
        raise InvalidArgument("reduced_state needs at least one point, got an empty list")
    x = np.array([_x_block(q) for q in p] if isinstance(p, list) else _x_block(p))
    return g.CovMatrix(REDUCED_MODES, x[..., _REDUCED_X], _SIGNS)


def finite_size_penalty(block_size):
    """Dominant finite-size correction Delta(n) in bits/symbol, elementwise; 0 = asymptotic."""
    n = np.asarray(block_size, dtype=float)
    # an asymptotic block is an infinite one: its penalty is exactly 0
    return 7.0 * np.sqrt(np.log2(2.0 / FINITE_SIZE_EPS) / np.where(n == 0.0, np.inf, n))


def _evaluate(points: list[ProtocolParams]) -> list[KeyRateReport]:
    """Reports for distinct points, from one checked batch: Eve's E, E|a and E|b.

    chi is S(E) - S(E|a) (DR) or S(E) - S(E|b) (RR) on her modes L, E1, E2.  E is her
    block K(v_s), E|b its Schur complement on B, and E|a = K(v_s) - c_s^2 u u^T / (v_s + 1)
    = K(1), her state for a coherent input, as A's row is c_s u.  I_AB reads the (A, B)
    entries, and a log2 argument that is not positive raises `UnphysicalState`."""
    rows = np.array([_x_block(q) for q in points])
    # no checked state holds A: at k = 0 and eta_ch = 1 Eve holds vacua whatever v_s is
    if not np.isfinite(rows).all():
        raise NumericalError("covariance matrix has non-finite entries")
    x = rows[:, _REDUCED_X]
    v_a, v_b, c, eve = x[:, 0, 0], x[:, 1, 1], x[:, 0, 1], x[:, 2:, 2:]
    # an overflow leaves E|b an inf entry, which her check rejects, or the ratio 0
    with np.errstate(over="ignore"):
        states = (eve, rows[:, _EVE_X_AT_UNIT_SOURCE], g.heterodyne_schur(eve, x[:, 2:, 1], v_b))
        ab = 1.0 - c * c / ((v_a + 1.0) * (v_b + 1.0))
    states = g.CovMatrix(REDUCED_MODES[2:], np.array(states), _SIGNS[2:])
    # from v_s = 2^53 at k = 0 and eta_ch = 1, c^2 rounds to (v_a + 1)(v_b + 1)
    if not (ab > 0.0).all():
        raise UnphysicalState(f"A and B's state gives 1 - c^2 / ((v_a + 1)(v_b + 1)) = {np.min(ab)}")
    # heterodyne I_AB (bits/symbol) of A and B: the x and the equal p term, -0.5 log2(...) each
    i_ab = -np.log2(ab)
    entropies = g.von_neumann_entropy(states)
    # DR and RR: S(E) - S(E|a) and S(E) - S(E|b)
    chi = entropies[0] - entropies[1:]
    # tiny negative residues from the spectrum are numerical zero
    if (chi < -1e-9).any():
        raise NumericalError(f"negative Holevo bound: {np.min(chi[0])}, {np.min(chi[1])}")
    chi = np.maximum(chi, 0.0)
    delta = finite_size_penalty([q.block_size for q in points])
    rates = np.array([q.beta for q in points]) * i_ab - chi - delta
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


def _golden_tree(bracket, depth: int, steps: int) -> list:
    """The new points of the next `depth` golden-section steps from `bracket`,
    on both outcomes of each comparison; a branch ends where the search would
    stop, at convergence or after `steps` more steps."""
    if depth == 0 or steps == 0 or _golden_converged(bracket):
        return []
    points = []
    for right in (True, False):
        branch, u = _golden_step(bracket, right)
        points += [u, *_golden_tree(branch, depth - 1, steps - 1)]
    return points


def golden_depth(searches: int) -> int:
    """Golden-section steps carried by each round of `searches` V_M searches that
    share their rounds: the largest d >= 1 with searches (2^d - 1) <= SPECULATED_POINTS."""
    depth = 1
    while searches * (2 ** (depth + 1) - 1) <= SPECULATED_POINTS:
        depth += 1
    return depth


def search_vm(p: ProtocolParams, direction: str, searches: int):
    """Search behind `optimize_vm`: the 40-point grid in one round, then golden section.

    The golden-section steps and stopping rule, x3 - x0 <= 1e-3 (|x1| + |x2|)
    on u = log(V_M), are those of scipy.optimize.golden, so optima inside the
    grid stay where that search put them.  The next step's point depends on
    one comparison only, so each golden round carries d steps: the walked
    step's point and the 2^d - 2 points of the next d - 1 steps on either
    outcome, none past the stopping rule.  The first asks for [x1, x2] and
    the next d - 1 steps' tree.  The walk then takes the real comparisons
    through those values, so it visits exactly the points of the one-step
    search.  d is `golden_depth(searches)`, for `searches` V_M searches
    sharing each round.
    """
    grid = np.logspace(np.log10(VM_BRACKET[0]), np.log10(VM_BRACKET[1]), VM_GRID_POINTS)
    # plain floats, not numpy scalars, for the float arithmetic of `_x_block`
    rates = np.array((yield from _rates([p.replace(v_m=v) for v in grid.tolist()], direction)))
    best = int(np.argmax(rates))
    depth = golden_depth(searches)
    values: dict[float, float] = {}

    def ask(us):
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
    yield from ask([x1, x2, *_golden_tree(bracket, depth - 1, GOLDEN_MAXITER)])
    f1, f2 = values[x1], values[x2]
    for steps in range(GOLDEN_MAXITER, 0, -1):
        if _golden_converged(bracket):
            break
        right = f2 > f1
        bracket, u = _golden_step(bracket, right)
        if u not in values:
            yield from ask([u, *_golden_tree(bracket, depth - 1, steps - 1)])
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
    smaller V_M.  The search runs alone, so each golden round carries
    `golden_depth(1)` = 4 steps.
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
