"""Event-driven stochastic simulation of the full protocol.

This is the oracle for the analytic gains and error rates. Coherent
states remain coherent through the beam splitter network, so each
detector sees an independent Poisson photon count with mean equal to
its mode intensity, plus a dark click: a Poisson dark count of mean
delta = -ln(1 - p_d) that is at least 1. The means depend only on a
round's class (the senders' bases and four key bits; 64 classes). So a
round holds Poisson entries in eight cells (detector; photon or dark),
its entry total N is Poisson(Lambda), Lambda the sum of the cell means,
and given N the entries split multinomially over the cells in
proportion to their means. The sampler rests on this Poisson
splitting, never on the closed forms it checks.

Blocks are sized from the configuration alone, to expect about
``_BLOCK_ROWS`` rows. The draw step draws a block's class counts, then
per class how many rounds hold N = 0, 1, 2 and >= 3 entries. Rounds
without an entry never click. One-entry rounds stay counts: a
multinomial over the cells gives how many click each detector, with an
odd photon count or with a dark count, which never changes the photon
parity. Two-entry rounds stay counts too: per class that holds any, one
multinomial over the 64 ordered pairs of cells (i, j), of probability
q_i q_j, gives how many click bits_i | bits_j with photon parity
odd_i ^ odd_j (two photons in one cell are an even count). Only rounds of
three or more entries become rows: each draws N from the Poisson
conditioned on N >= 3 and splits it over the cells into a 4-bit click
mask and a 4-bit photon-parity mask; a block without such a round skips
this row stage. At p_d = 1 every round clicks four times. The draw
tables, the cell-pair probabilities and histogram indices included, are
built once per configuration (mu_arm, p_d, basis_policy) and kept in a
small bounded cache (``_tables``); the block sizing and every block's
draw step of every call with that configuration read them, so a block
makes one multinomial and one flat ``np.add.at`` for its pairs. The
closed forms that ``compare_to_analytic`` checks against are kept the
same way (``_closed_forms``). A block's rounds end in one histogram
over (parity mask, class, click mask). The truth tables over (class,
click mask) tell apart only 12 atoms (Event1 by phase error, Event2 and
Event3 by phase and polarization error, the Z check by phase error), so
the block sums the histogram's tallied cells into atom counts, and the
lottery (checks, an attack's flips or Eve's success) splits those with
binomials (last layers of probability 0 add no lots), which keeps the
law of every tally. The block also gathers the 40 parity cells of the
comparison rows from the same histogram. ``simulate`` runs the blocks on
the calling thread unless they carry enough rows to pay for a pool (only
then is one built, and ``concurrent.futures`` imported), sums their
integer arrays as they arrive, tallies the sums through the atoms'
truth-table rows and builds the report (without its frozen ``__init__``)
once per call. ``_PATTERNS``, the six tallied click patterns, drives the
truth tables and the parity cells (``_PARITY_CELLS``), and those and
``_RATE_ROWS`` the comparison rows.

Each block draws from a stream seeded by (seed, block index), so
reports are bit-identical for any worker count. Attack randomness lives
on a separate per-block stream: paired runs with the same seed see
identical protocol randomness whether or not an attack is active.

Basis handling follows the protocol: both senders choose the X basis
with probability ``basis_policy``; rounds with differing bases are
discarded, Z rounds are sifted out of the key and contribute only to
checking statistics, and a configurable fraction of X key events is
sacrificed for checking.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from .attack import TapParams, ie_dual
from .detectors import ClickParity, Detector, SystemParams, arm_efficiency, exclusive_pattern_prob
from .optics import PolPairing, check_range, detector_amplitudes, intensities, is_integer
from .rates import _event_terms

__all__ = [
    "SimConfig",
    "SimReport",
    "simulate",
    "simulate_beam_split",
    "simulate_dishonest_bob",
    "compare_to_analytic",
    "max_abs_sigma",
    "min_p_tail",
    "p_tail",
]

ATTACKS = ("none", "beam_split", "dishonest_bob")

# A comparison row expecting fewer counts than this carries little
# statistical power: a 0-sigma result against 0.001 expected events is
# no evidence of agreement.
MIN_EXPECTED = 10.0

# Blocks expect about _BLOCK_ROWS rounds of three or more entries, the only
# rows of work; _MAX_BLOCK bounds blocks where those are rare or absent.
_BLOCK_ROWS = 8192
_MAX_BLOCK = 2**53
# Configurations whose draw tables and closed-form rows are kept, the least
# recently used dropped first; the oracle grid needs three, the attack triple one.
_CACHE_SIZE = 16
_SQRT_HALF = math.sqrt(0.5)

# numpy's largest Poisson mean, as numpy computes it; beyond it a draw raises.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)

# Sampling classes c = (x_a << 5) | (x_b << 4) | enc: x = 1 is the X
# basis, enc the 4-bit encoding id (ka_ph, ka_pol, kb_ph, kb_pol).
_CLASSES = np.arange(64)
_XA = (_CLASSES >> 5 & 1).astype(bool)
_XB = (_CLASSES >> 4 & 1).astype(bool)
_KA_PH, _KA_POL, _KB_PH, _KB_POL = ((_CLASSES >> s & 1).astype(bool) for s in (3, 2, 1, 0))

# Tallied click patterns as (name, clicked detectors, event class). A
# round shows a pattern when exactly its detectors click.
_PATTERNS = (
    ("h1", (Detector.D1H,), 1),
    ("h2", (Detector.D2H,), 1),
    ("h1v1", (Detector.D1H, Detector.D1V), 2),
    ("h2v2", (Detector.D2H, Detector.D2V), 2),
    ("h1v2", (Detector.D1H, Detector.D2V), 3),
    ("h2v1", (Detector.D2H, Detector.D1V), 3),
)

# The gain and QBER comparison rows: name, the report's count and its trials.
_RATE_ROWS = (("q_event1", "n_event1", "n_xx"), ("q_event2", "n_event2", "n_xx"),
              ("q_event3", "n_event3", "n_xx"), ("qber_event1_ph", "n_err1_ph", "n_event1"),
              ("qber_event2_ph", "n_err2_ph", "n_event2"), ("qber_event2_pol", "n_err2_pol", "n_event2"),
              ("qber_event3_ph", "n_err3_ph", "n_event3"), ("qber_event3_pol", "n_err3_pol", "n_event3"))


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    basis_policy is the probability that a sender picks the X basis;
    check_fraction the fraction of X key events sacrificed for
    checking; flip_fraction the dishonest receiver's announcement flip
    probability (used only when attack="dishonest_bob").
    """

    sp: SystemParams
    rounds: int
    seed: int
    basis_policy: float = 0.5
    check_fraction: float = 0.0
    attack: str = "none"
    flip_fraction: float = 0.0

    def __post_init__(self) -> None:
        check_range("rounds", self.rounds)
        # numpy's samplers and seed sequences take integers only, not bools
        for name, least in (("rounds", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.rounds >= 2**63:  # the tallies are summed as int64
            raise ValueError(f"rounds must be below 2**63, got {self.rounds!r}")
        for name in ("basis_policy", "check_fraction", "flip_fraction"):
            check_range(name, getattr(self, name), 0.0, 1.0)
        if self.attack not in ATTACKS:
            raise ValueError(f"attack must be one of {ATTACKS}, got {self.attack!r}")
        # a class's entry total is mu_arm times its _UNIT_LAM row sum, plus four dark means
        sp = self.sp
        lam_max = sp.mu_arm * _UNIT_SUM_MAX - 4.0 * math.log1p(-sp.p_d) if sp.p_d < 1.0 else 0.0
        if lam_max > _POISSON_LAM_MAX:
            raise ValueError(f"sp must be within numpy's Poisson limit of {_POISSON_LAM_MAX:.4g} "
                             f"entries per round; mu = {self.sp.mu!r} gives {lam_max:.4g}")


@dataclass(frozen=True)
class SimReport:
    """Tally counts of one simulation, plus the configuration echo.

    All fields are integer counts except the echoed configuration;
    derived frequencies live in ``to_dict()`` so that sums and
    comparisons stay exact.
    """

    rounds: int
    seed: int
    basis_policy: float
    check_fraction: float
    attack: str
    flip_fraction: float
    mu: float
    alpha: float
    l_km: float
    eta_d: float
    p_d: float
    f: float
    n_xx: int
    n_zz: int
    n_mixed: int
    n_event1: int
    n_event2: int
    n_event3: int
    n_fail_xx: int
    n_err1_ph: int
    n_err2_ph: int
    n_err2_pol: int
    n_err3_ph: int
    n_err3_pol: int
    n_check_x_bits: int
    n_check_x_err: int
    n_check_z_bits: int
    n_check_z_err: int
    n_key_events: int
    n_eve_success: int
    parity: dict

    def to_dict(self) -> dict:
        """JSON-ready view with stable key order and derived frequencies."""

        def ratio(k: int, n: int) -> float | None:
            return k / n if n > 0 else None

        def se(k: int, n: int) -> float | None:
            if n <= 0:
                return None
            p = k / n
            return math.sqrt(p * (1.0 - p) / n)

        rates = {
            "q_event1": ratio(self.n_event1, self.n_xx),
            "q_event1_se": se(self.n_event1, self.n_xx),
            "q_event2": ratio(self.n_event2, self.n_xx),
            "q_event2_se": se(self.n_event2, self.n_xx),
            "q_event3": ratio(self.n_event3, self.n_xx),
            "q_event3_se": se(self.n_event3, self.n_xx),
            "qber_event1_ph": ratio(self.n_err1_ph, self.n_event1),
            "qber_event2_ph": ratio(self.n_err2_ph, self.n_event2),
            "qber_event2_pol": ratio(self.n_err2_pol, self.n_event2),
            "qber_event2_bit": ratio(self.n_err2_ph + self.n_err2_pol, 2 * self.n_event2),
            "qber_event3_ph": ratio(self.n_err3_ph, self.n_event3),
            "qber_event3_pol": ratio(self.n_err3_pol, self.n_event3),
            "qber_event3_bit": ratio(self.n_err3_ph + self.n_err3_pol, 2 * self.n_event3),
            "qber_check_x": ratio(self.n_check_x_err, self.n_check_x_bits),
            "qber_check_z": ratio(self.n_check_z_err, self.n_check_z_bits),
            "eve_leak_fraction": ratio(self.n_eve_success, self.n_key_events),
        }
        return {
            "config": {name: getattr(self, name) for name in _CONFIG_FIELDS},
            "counts": {name: getattr(self, name) for name in _COUNT_FIELDS},
            "rates": rates,
            "parity": self.parity,
        }


# The configuration echo and the counts of a report, in declaration order.
_COUNT_FIELDS = tuple(f.name for f in fields(SimReport) if f.name.startswith("n_"))
_CONFIG_FIELDS = tuple(f.name for f in fields(SimReport)
                       if f.name not in _COUNT_FIELDS and f.name != "parity")
# The fields of a configuration that a report echoes, all but its system parameters.
_ECHO_FIELDS = tuple(f.name for f in fields(SimConfig) if f.name != "sp")


def _unit_intensities() -> np.ndarray:
    """Mode intensities (D1H, D2H, D1V, D2V) of every class at mu_arm = 1.

    Each sender's X-basis pulse splits evenly over H and V with the
    polarization bit as their relative sign; a Z-basis pulse sits wholly
    in the mode its polarization bit names. Intensities scale linearly
    with mu_arm, and cancelled modes come out exactly zero.
    """

    def arm(x, ph, pol):
        s = 1.0 - 2.0 * ph
        h = np.where(x, s * _SQRT_HALF, np.where(pol, 0.0, s))
        v = np.where(x, s * (1.0 - 2.0 * pol) * _SQRT_HALF, np.where(pol, s, 0.0))
        return h, v

    a_h, a_v = arm(_XA, _KA_PH, _KA_POL)
    b_h, b_v = arm(_XB, _KB_PH, _KB_POL)
    modes = (a_h + b_h, a_h - b_h, a_v + b_v, a_v - b_v)
    return np.stack([amp * amp / 2.0 for amp in modes], axis=1)


_UNIT_LAM = _unit_intensities()
# The largest entry total per unit mu_arm, 2 up to rounding, as numpy sums a row of _UNIT_LAM.
_UNIT_SUM_MAX = float(_UNIT_LAM.sum(axis=1).max())
_TAIL = np.array([1.0 / math.factorial(k) for k in range(3, 21)])  # series of P(N >= 3) / e^-lam
# Each representative's key in a report's ``parity`` and its class (both senders in the X basis).
_PARITY_KEYS = tuple((pairing.name.lower(), 0b110000 | e.ka_ph << 3 | e.ka_pol << 2 | e.kb_ph << 1 | e.kb_pol)
                     for pairing in PolPairing for e in (pairing.representative(),))
# The parity cells of one encoding's comparison rows, in row order: pattern, cell, clicked
# detectors and each one's parity class. A lone click's cell is named by its class ("odd",
# "even"), a pair's by both classes' initials ("oo", "oe", "eo", "ee"); then the names by pattern.
_PARITY_CELLS = [(name, classes[0].value if len(dets) == 1 else "".join(c.value[0] for c in classes),
                  dets, classes) for name, dets, _ in _PATTERNS
                 for classes in itertools.product(ClickParity, repeat=len(dets))]
_PARITY_GROUPS = tuple((name, tuple(cell for n, cell, *_ in _PARITY_CELLS if n == name)) for name, *_ in _PATTERNS)
# The rows' report counts: each rate row's count and trials at once, each parity cell's (key, pattern, cell).
_RATE_COUNTS = operator.attrgetter(*(name for _, *names in _RATE_ROWS for name in names))
_PARITY_PATHS = tuple((key, name, cell) for key, _ in _PARITY_KEYS for name, names in _PARITY_GROUPS for cell in names)


def _truth_tables() -> np.ndarray:
    """Truth tables over rows ``class << 4 | click mask``: X-basis events,
    their phase errors (announced from the H-detector index) and
    polarization errors (from the pattern class), Z-basis checks (both
    senders in the H mode, then a lone H click) and their phase errors."""
    events = np.zeros((3, 16), bool)
    for _, dets, event in _PATTERNS:
        events[event - 1, sum(1 << d for d in dets)] = True
    xx, zz, t_pol = (_XA & _XB)[:, None], (~_XA & ~_XB)[:, None], (_KA_POL ^ _KB_POL)[:, None]
    err_ph = (_KA_PH ^ _KB_PH)[:, None] ^ (np.arange(16) >> Detector.D2H & 1).astype(bool)
    x1, x2, x3 = xx & events[:, None]
    zc = zz & (~_KA_POL & ~_KB_POL)[:, None] & events[0]
    return np.stack((x1, x2, x3, x1 & err_ph, x2 & err_ph, x2 & t_pol, x3 & err_ph, x3 & ~t_pol,
                     zc, zc & err_ph), axis=-1).reshape(64 * 16, -1)


_TABLES = _truth_tables()
# The report counts that are a column's sum, in column order.
_TABLE_COUNTS = ("n_event1", "n_event2", "n_event3", "n_err1_ph", "n_err2_ph", "n_err2_pol",
                 "n_err3_ph", "n_err3_pol", "n_check_z_bits")


def _atoms() -> tuple:
    """The tally's atoms: the distinct non-zero rows of ``_TABLES`` (Event1 by
    phase error, Event2 and Event3 by phase and polarization error, the Z check
    by phase error), each with the cells ``class << 4 | click mask`` that show it,
    in order of first cell. No other cell is tallied."""
    cells = {}  # by the row's bits read as a number
    for cell, key in enumerate((_TABLES @ (1 << np.arange(_TABLES.shape[1]))).tolist()):
        if key:
            cells.setdefault(key, []).append(cell)
    atoms = tuple(map(tuple, cells.values()))
    return atoms, _TABLES[[atom[0] for atom in atoms]].astype(np.int64)


# Per atom, its cells and its truth-table row; the flat histogram indices of every
# atom's cells over all parity masks, atom by atom, and where each atom's run starts.
_ATOM_CELLS, _ATOM_TABLE = _atoms()
_ATOM_AT = (np.concatenate(_ATOM_CELLS)[:, None] | np.arange(16) << 10).ravel()
_ATOM_STARTS = 16 * np.cumsum([0, *map(len, _ATOM_CELLS[:-1])])
# The comparison rows' parity cells, representative by representative, as flat indices
# ``parity mask << 10 | class << 4 | click mask`` into a block's histogram.
_PARITY_AT = np.array([sum(1 << d for d, c in zip(dets, classes) if c is ClickParity.ODD) << 10
                       | rep << 4 | sum(1 << d for d in dets)
                       for _, rep in _PARITY_KEYS for _, _, dets, classes in _PARITY_CELLS])
# Per class, whether it is an X-basis round, a Z-basis round and a round: ``m @ _BASIS_SUMS``
# gives n_xx, n_zz and the rounds of the class counts m.
_BASIS_SUMS = np.stack((_XA & _XB, ~_XA & ~_XB, np.ones(64, bool)), axis=1).astype(np.int64)


def _class_weights(basis_policy: float) -> np.ndarray:
    """Probability of each sampling class: two basis choices, 16 encodings."""
    bp = basis_policy
    return np.where(_XA, bp, 1.0 - bp) * np.where(_XB, bp, 1.0 - bp) / 16.0


def _cell_means(mu_arm: float, p_d: float) -> np.ndarray:
    """Mean entries per round of every class's eight cells, j = dark << 2
    | detector: photons, then dark counts of mean delta (inf at p_d = 1)."""
    delta = -math.log1p(-p_d) if p_d < 1.0 else math.inf
    return np.concatenate((mu_arm * _UNIT_LAM, np.full((64, 4), delta)), axis=1)


def _strata(lam: np.ndarray) -> np.ndarray:
    """P(N = 0), P(N = 1), P(N = 2) and P(N >= 3) of N ~ Poisson(lam), along
    the last axis, each to full relative precision: below lam = 1, P(N >= 3)
    sums its series, where 1 - e^-lam (1 + lam + lam^2 / 2) would cancel."""
    p0 = np.exp(-lam)
    p1 = lam * p0
    p2 = 0.5 * lam * p1
    series = np.power.outer(np.minimum(lam, 1.0), np.arange(_TAIL.size)) @ _TAIL
    return np.stack((p0, p1, p2, np.where(lam < 1.0, p1 * lam * lam * series, 1.0 - (p0 + p1 + p2))), axis=-1)


def _cached(build):
    """``build`` memoised on its arguments, for at most ``_CACHE_SIZE`` of them. Arguments that
    compare equal but differ in type or in the sign of a zero are other keys: p_d = -0.0 gives
    -0.0 probabilities where p_d = 0.0 gives 0.0. Callers share a result, so it must be immutable."""
    memo = functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)(lambda signs, *args: build(*args))

    @functools.wraps(build)
    def call(*args):
        return memo(tuple(math.copysign(1.0, a) for a in args), *args)

    call.cache_clear, call.cache_info = memo.cache_clear, memo.cache_info
    return call


_DrawTables = collections.namedtuple("_DrawTables", "weights p_multi lam strata rank q bits odd_bits cell_at "
                                     "pair_q pair_at", defaults=[None] * 9)


@_cached
def _tables(mu_arm: float, p_d: float, basis_policy: float) -> _DrawTables:
    """Tables built once per configuration and read by every block: class weights, P(N >= 3) of a
    round and, except at p_d = 1, per class: entry total mean, strata P(N = 0, 1, 2, >= 3) and cell
    probabilities, both in ascending order (numpy draws multinomial outcomes rarest first and gives
    the likeliest the remainder; probability 0 stays empty), the strata's ranks, each sorted cell's
    detector and parity bit (0 for a dark count) and its flat histogram index, and per ordered pair
    of sorted cells (i, j), row-major, its probability q_i q_j and flat histogram index (click
    bits_i | bits_j, photon parity odd_i ^ odd_j: two photons in one cell are an even count). The
    arrays are read-only."""
    weights = _class_weights(basis_policy)
    if p_d == 1.0:  # delta = inf: every round clicks four times
        tables = _DrawTables(weights, 0.0)
    else:
        means = _cell_means(mu_arm, p_d)
        lam = means.sum(axis=1)
        strata = _strata(lam)
        rank = np.argsort(strata, axis=1, kind="stable")
        order = np.argsort(means, axis=1, kind="stable")
        q = means[_CLASSES[:, None], order] / np.where(lam > 0.0, lam, 1.0)[:, None]
        bits = 1 << (order & 3)
        odd = np.where(order < 4, bits, 0)
        tables = _DrawTables(weights, float(weights @ strata[:, 3]), lam, strata[_CLASSES[:, None], rank],
                             rank, q, bits, odd, (odd << 6 | _CLASSES[:, None]) << 4 | bits,
                             (q[:, :, None] * q[:, None, :]).reshape(64, 64),
                             (((odd[:, :, None] ^ odd[:, None, :]) << 6 | _CLASSES[:, None, None]) << 4
                              | bits[:, :, None] | bits[:, None, :]).reshape(64, 64))
    for array in tables:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return tables


def _draw_tables(cfg: SimConfig) -> _DrawTables:
    """``_tables`` of ``cfg``'s mu_arm, p_d and basis_policy: built once per configuration, shared by every call."""
    return _tables(cfg.sp.mu_arm, cfg.sp.p_d, cfg.basis_policy)


def _block_sizes(cfg: SimConfig, tables: _DrawTables) -> list[int]:
    """Partition ``cfg.rounds`` into blocks that expect about ``_BLOCK_ROWS``
    rounds of three or more entries (at p_d = 1 there are none), up to ``_MAX_BLOCK``
    rounds. The sizes depend on the configuration only."""
    p_multi = tables.p_multi
    block = _MAX_BLOCK if p_multi * _MAX_BLOCK <= _BLOCK_ROWS else math.ceil(_BLOCK_ROWS / p_multi)
    return [min(block, cfg.rounds - lo) for lo in range(0, cfg.rounds, block)]


def _multi_entry_totals(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Poisson(lam) conditioned on N >= 3, by exact rejection: where lam <= 1,
    3 + Poisson(lam) is kept with probability 6 / (N (N - 1) (N - 2)), else
    Poisson(lam) is redrawn until it reaches 3."""
    n = np.empty(lam.size, np.int64)
    todo = np.arange(lam.size)
    while todo.size:
        small = lam[todo] <= 1.0
        x = rng.poisson(lam[todo]) + 3 * small
        keep = np.where(small, rng.random(todo.size) * x * (x - 1.0) * (x - 2.0) < 6.0, x >= 3)
        n[todo[keep]] = x[keep]
        todo = todo[~keep]
    return n


def _rows(counts: np.ndarray, bits: np.ndarray, odd_bits: np.ndarray) -> tuple:
    """Click masks and photon-parity masks of rows of entry counts per cell,
    given each cell's detector bit and its parity bit (0 for a dark count)."""
    clicks = np.bitwise_or.reduce(np.where(counts > 0, bits, 0), axis=1)
    return clicks, np.bitwise_or.reduce(odd_bits & -(counts & 1), axis=1)


def _draw(t: _DrawTables, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw step: a block's class counts ``m`` and its histogram of rounds
    over (parity mask, class, click mask). The draw order (class counts,
    strata, one-entry rounds, two-entry rounds if any, rows if any) is fixed."""
    m = rng.multinomial(size, t.weights)
    hist = np.zeros((16, 64, 16), np.int64)
    if t.lam is None:  # p_d = 1; the photon parity shows in no pattern
        hist[0, :, 15] = m
        return m, hist
    flat = hist.reshape(-1)
    n = np.empty((64, 4), np.int64)
    n[_CLASSES[:, None], t.rank] = rng.multinomial(m, t.strata)
    flat[t.cell_at] = rng.multinomial(n[:, 1], t.q)
    if np.count_nonzero(n[:, 2]):  # two-entry rounds: counts over the ordered cell pairs (i, j), row-major
        cls = np.flatnonzero(n[:, 2])
        np.add.at(flat, t.pair_at[cls], rng.multinomial(n[cls, 2], t.pair_q[cls]))
    if np.count_nonzero(n[:, 3]):
        cls = np.repeat(_CLASSES, n[:, 3])  # the rounds of three or more entries, the only rows
        counts = rng.multinomial(_multi_entry_totals(rng, t.lam[cls]), t.q[cls])
        clicks, odd = _rows(counts, t.bits[cls], t.odd_bits[cls])
        np.add.at(flat, (odd << 6 | cls) << 4 | clicks, 1)
    return m, hist


def _stream(cfg: SimConfig, kind: int, block: int) -> np.random.Generator:
    """The protocol (kind 0) or attack (kind 1) stream of one block, as ``np.random.default_rng`` makes it."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(kind, block))))


def _tally(cfg: SimConfig, m: np.ndarray, parity: np.ndarray, split: np.ndarray) -> dict:
    """Tally step, once per ``simulate`` call: the report counts and parity
    cells from the block sums of the class counts, the 40 parity-cell
    counts (``_PARITY_AT``) and the lottery split; flips and Eve's successes
    come only with their attack."""
    per_lot = (split @ _ATOM_TABLE).tolist()
    t = dict.fromkeys(_COUNT_FIELDS, 0)
    t.update(zip(_TABLE_COUNTS, map(sum, zip(*per_lot))))
    t["n_xx"], t["n_zz"], rounds = (m @ _BASIS_SUMS).tolist()
    t["n_mixed"] = rounds - t["n_xx"] - t["n_zz"]
    t["n_fail_xx"] = t["n_xx"] - t["n_event1"] - t["n_event2"] - t["n_event3"]
    for lot, (x1, x2, x3, e1_ph, e2_ph, e2_pol, e3_ph, e3_pol, zc, z_ph) in enumerate(per_lot):
        f_ph, won = (lot >> 1 & 1, 0) if cfg.attack == "dishonest_bob" else (0, lot >> 1 & 1)
        f_pol, events = lot >> 2 & 1, x1 + x2 + x3
        # Flipping the announced bit of n rows with e errors makes n - e
        # errors. A checked event yields its phase bit, a double click also
        # its polarization bit.
        t["n_check_z_err"] += zc - z_ph if f_ph else z_ph
        if lot & 1:
            t["n_check_x_bits"] += events + x2 + x3
            t["n_check_x_err"] += events - e1_ph - e2_ph - e3_ph if f_ph else e1_ph + e2_ph + e3_ph
            t["n_check_x_err"] += x2 + x3 - e2_pol - e3_pol if f_pol else e2_pol + e3_pol
        else:
            t["n_key_events"] += events
            t["n_eve_success"] += events * won
    cells, t["parity"] = iter(parity.tolist()), {}
    for key, rep in _PARITY_KEYS:  # loops: a comprehension with a ** merge would build each group twice
        group = t["parity"][key] = {"n": int(m[rep])}
        for name, names in _PARITY_GROUPS:
            group[name] = dict(zip(names, cells))
    return t


def _block_tallies(cfg: SimConfig, tables: _DrawTables, block: int, size: int) -> tuple:
    """Simulate one block: the draw step and the lottery. Returns the int64
    arrays that ``simulate`` sums: the class counts, the histogram's 40
    parity cells (``_PARITY_AT``) and the lottery split over (lottery,
    atom). The lottery splits each atom's rounds with binomials: checked in
    bit 0, on the protocol stream, then flip_ph or eve in bit 1 and flip_pol
    in bit 2, on the attack stream, seeded only for an attack. Every cell of a layer is split with the same
    probability, and a sum of binomials of one probability is a binomial of
    their sum, so splitting the atoms' sums gives every (lot, atom) count the
    law that splitting each cell would give. Last layers of probability 0 are left out: a lot bit reads 0."""
    rng = _stream(cfg, 0, block)
    m, hist = _draw(tables, rng, size)
    flat = hist.reshape(-1)
    draws = [(rng, cfg.check_fraction)]
    if cfg.attack == "beam_split":
        draws.append((_stream(cfg, 1, block), ie_dual(TapParams(mu=cfg.sp.mu, eta_t=cfg.sp.eta_t))))
    elif cfg.attack == "dishonest_bob":
        draws += [(_stream(cfg, 1, block), cfg.flip_fraction)] * 2
    while draws and not draws[-1][1]:  # a last layer of probability 0 would add only empty lots
        draws.pop()
    split = np.add.reduceat(flat.take(_ATOM_AT), _ATOM_STARTS).reshape(1, -1)
    for gen, p in draws:  # a split of probability 0 draws nothing
        won = gen.binomial(split, p) if p else np.zeros_like(split)
        split = np.concatenate((split - won, won))
    return m, flat.take(_PARITY_AT), split


def simulate(config: SimConfig, threads: int = 1) -> SimReport:
    """Run the simulation and return aggregated tallies.

    ``threads`` only controls execution; the report is bit-identical for any value because blocks
    are seeded by index and their arrays are summed as integers, then tallied once. Blocks run on
    the calling thread unless they carry the rows that pay for a pool; only then is a
    ``ThreadPoolExecutor`` built and ``concurrent.futures`` imported. Like the NamedTuples that
    ``rates`` builds through ``tuple.__new__``, the report skips its frozen ``__init__`` (31 fields
    set one by one).
    """
    if not is_integer(threads) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    tables = _draw_tables(config)
    blocks = [(config, tables, *block) for block in enumerate(_block_sizes(config, tables))]
    # A second thread gains only on rows: from two blocks' worth of them, and half a block's
    # worth per block; on 2 cores, blocks of about 2,750 rows break even and lighter ones lose.
    rows = tables.p_multi * config.rounds
    workers = min(threads, len(blocks)) if rows >= _BLOCK_ROWS * max(2, len(blocks) / 2) else 1
    if workers == 1:
        totals = functools.reduce(_add_into, (_block_tallies(*block) for block in blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only for a pool
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = functools.reduce(_add_into, pool.map(lambda block: _block_tallies(*block), blocks))
    report = object.__new__(SimReport)  # its fields set at once, in declaration order
    report.__dict__.update({n: getattr(config, n) for n in _ECHO_FIELDS}, **vars(config.sp), **_tally(config, *totals))
    return report


def _add_into(totals: tuple, arrays: tuple) -> tuple:
    """``totals`` with a block's arrays added in place: blocks are summed as they arrive, never listed."""
    for total, array in zip(totals, arrays):
        total += array
    return totals


def simulate_beam_split(config: SimConfig, threads: int = 1) -> SimReport:
    """Run with the beam-splitting eavesdropper sampling enabled."""
    return simulate(replace(config, attack="beam_split"), threads=threads)


def simulate_dishonest_bob(config: SimConfig, threads: int = 1) -> SimReport:
    """Run with the dishonest receiver flipping announced bits."""
    return simulate(replace(config, attack="dishonest_bob"), threads=threads)


@_cached
def _closed_forms(mu_arm: float, p_d: float, basis_policy: float, *leak: float) -> tuple:
    """(name, p_analytic, p_trial) of every comparison row, in row order, built once per
    configuration; ``leak`` is (mu, eta_t, check_fraction) for the ``eve_leak`` row of a
    beam-splitting run. p_trial is the closed-form probability that a round is one of the row's
    trials."""
    p_xx = basis_policy * basis_policy
    e1, e2, e3 = _event_terms(mu_arm, p_d)
    # Per-DOF QBERs: a wrong H index is dark-driven and is the Event1 bit
    # error; a wrong pattern class is the rest of the double-click bit
    # error, which averages the two per-DOF rates.
    p_wrong_h = e1.e_bit
    p_wrong_pat = 2.0 * e2.e_bit - e1.e_bit
    per_xx = {"n_xx": 1.0, "n_event1": e1.q, "n_event2": e2.q, "n_event3": e3.q}  # per X-basis round
    forms = [(name, per_xx.get(count, p_wrong_h if count.endswith("_ph") else p_wrong_pat), p_xx * per_xx[trials])
             for name, count, trials in _RATE_ROWS]
    for pairing in PolPairing:
        ints = intensities(detector_amplitudes(pairing.representative(), mu_arm))
        forms += [(f"parity_{pairing.name.lower()}_{name}_{cell}", exclusive_pattern_prob(dets, ints, p_d, classes),
                   p_xx / 16.0) for name, cell, dets, classes in _PARITY_CELLS]
    if leak:
        mu, eta_t, check_fraction = leak
        p_key = p_xx * (e1.q + e2.q + e3.q) * (1.0 - check_fraction)
        forms.append(("eve_leak", ie_dual(TapParams(mu=mu, eta_t=eta_t)), p_key))
    return tuple(forms)


def compare_to_analytic(report: SimReport) -> list[dict]:
    """Count-space comparison rows between the report and the closed forms.

    Each row holds the observed count, the trial count, the analytic
    probability, the expected count, the deviation in binomial standard
    errors, ``informative``: whether the row expects at least
    ``MIN_EXPECTED`` counts, and ``rounds_needed``: the rounds that would
    expect ``MIN_EXPECTED`` counts at the report's ``basis_policy`` and
    ``check_fraction``, from the closed forms alone (None where a round
    cannot show the outcome, or so rarely that they overflow a float). The
    rows are built in one loop. Gains and QBERs test the rate formulas;
    parity cells test the exclusive click probabilities at the two
    representative encodings. The Eve row (beam-split runs only)
    compares against ``ie_dual``, the very value Eve's successes are
    drawn from, so it checks which events count as key events. It tests
    neither the leakage bound nor Eve's optimum: ``ie_dual`` is a bound
    with slack, above the optimal USD success (1 - e^-x)^2 on the four
    tapped states (x the tapped intensity) and above the 1 - e^-x that one
    mode gives. The closed forms come from ``_closed_forms``, once per
    configuration.
    """
    eta_t = arm_efficiency(report.eta_d, report.alpha, report.l_km)  # SystemParams.eta_t, not checked again
    leak = (report.mu, eta_t, report.check_fraction) if report.attack == "beam_split" else ()
    rate, parity, rounds = _RATE_COUNTS(report), report.parity, report.rounds
    counts = [*zip(rate[::2], rate[1::2]), *((parity[key][name][cell], parity[key]["n"])
                                             for key, name, cell in _PARITY_PATHS)]
    if leak:
        counts.append((report.n_eve_success, report.n_key_events))
    rows = []
    for (name, p, p_trial), (count, n) in zip(_closed_forms(eta_t * report.mu, report.p_d, report.basis_policy,
                                                            *leak), counts):
        expected = n * p
        variance = expected * (1.0 - p)  # without it, sigma is 0 on the mean and inf off it
        per_round = rounds * p_trial * p
        need = rounds * MIN_EXPECTED / per_round if per_round > 0.0 else math.inf
        rows.append({"name": name, "count": count, "n": n, "p_analytic": p, "expected": expected,
                     "sigma": (count - expected) / math.sqrt(variance) if variance > 0.0
                     else 0.0 if count == round(expected) else math.inf,
                     "informative": expected >= MIN_EXPECTED,
                     "rounds_needed": math.ceil(need) if need < math.inf else None})
    return rows


def max_abs_sigma(rows: list[dict]) -> float:
    """Largest absolute sigma-delta across comparison rows."""
    return max(abs(row["sigma"]) for row in rows)


_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def _stirlerr(n: float) -> float:
    """ln n! - ln(sqrt(2 pi n) (n / e)^n), by its series above n = 15."""
    if n <= 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2.0 * math.pi)
    s, nn = 0.0, 1.0 / (n * n)
    for c in reversed(_STIRLING[:2 if n > 500 else 3 if n > 80 else 4 if n > 35 else 5]):
        s = c - s * nn
    return s / n


def _bd0(x: float, m: float, d: float) -> float:
    """x ln(x / m) + m - x given d = x - m, by a series where it would cancel."""
    if abs(d) >= 0.1 * (x + m):
        return x * math.log(x / m) - d
    v = d / (x + m)
    s, ej, j = d * v, 2.0 * x * v, 1
    while s != (s := s + (ej := ej * v * v) / (j := j + 2)):
        pass
    return s


def _beta_fraction(a: float, b: float, x: float, lam: float) -> float:
    """I_x(a, b) / (x^a (1 - x)^b / (a B(a, b))), the regularized incomplete
    beta function's continued fraction given lam = a - (a + b) x >= 0, in the
    form of Didonato and Morris (TOMS 708, BFRAC): while n < b every term is
    positive, so nothing cancels even where x is near 1 or a near 10**18."""
    c, c0, c1, y1 = lam + 1.0, b / a, 1.0 / a + 1.0, 2.0 - x
    n, p, s, an, bn, anp1, bnp1 = 0.0, 1.0, a + 1.0, 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    while True:
        n += 1.0
        t, w, e = n / a, n * (b - n) * x, a / s
        alpha = p * (p + c0) * e * e * w * x
        beta = n + w / s + (t + 1.0) / (c1 + t + t) * (c + n * y1)
        p, s = t + 1.0, s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r, r0 = anp1 / bnp1, r
        if abs(r - r0) <= 1e-15 * r:
            return r * a
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0


def p_tail(count: int, n: int, p: float) -> float:
    """Exact two-sided binomial tail of ``count`` successes in ``n`` trials of
    probability ``p``: twice the probability of a count at least as far from
    the mean on the same side, at most 1 (the equal-tailed test of Clopper
    and Pearson). Unlike a row's sigma it is exact for small expected counts:
    one count against 0.036 expected reads 5.1 sigma, yet has a tail of 7%.

    The one-sided tail is the incomplete beta function's continued fraction
    times the probability of ``count`` itself, both in floats without
    cancellation (Loader's saddle-point form, and ``count - n p`` taken
    exactly), for n up to 10**18 and p down to the smallest float. Beyond
    three sigma from the mean the fraction converges in a few dozen steps;
    at the mean it takes up to O(sqrt(n p (1 - p))).
    """
    check_range("p", p, 0.0, 1.0)
    if not (is_integer(count) and is_integer(n) and 0 <= count <= n):
        raise ValueError(f"count and n must be integers with 0 <= count <= n, got {count!r}, {n!r}")
    count, n = int(count), int(n)  # numpy integers would overflow against p's ratio
    if n == 0 or p in (0.0, 1.0):
        return float(count == (n if p else 0))
    num, den = float(p).as_integer_ratio()
    d = (count * den - n * num) / den  # count - n p, rounded once
    k, rest, m = float(count), float(n - count), n * p
    if count == 0:
        pmf = math.exp(n * math.log1p(-p))
    elif count == n:
        pmf = math.exp(n * math.log(p))
    else:
        pmf = math.exp(_stirlerr(float(n)) - _stirlerr(k) - _stirlerr(rest) - _bd0(k, m, d)
                       - _bd0(rest, n * (1.0 - p), -d)) * math.sqrt(n / (2.0 * math.pi * k * rest))
    if count in (0, n):
        return min(1.0, 2.0 * pmf)
    # upper tail P(X >= count) = I_p(count, n - count + 1); lower P(X <= count) = I_q(n - count, count + 1)
    a, b, x, y, e = (k, rest + 1.0, p, 1.0 - p, d) if d >= 0.0 else (rest, k + 1.0, 1.0 - p, p, -d)
    front = pmf * y  # x^a y^b / (a B(a, b))
    if e >= x:
        tail = front * _beta_fraction(a, b, x, e - x)
    else:  # within one count of the mean: I_x(a, b) = 1 - I_y(b, a)
        tail = 1.0 - front * a / b * _beta_fraction(b, a, y, x - e)
    return min(1.0, 2.0 * tail)


def min_p_tail(rows: list[dict]) -> float:
    """Smallest exact two-sided tail (``p_tail``) across comparison rows."""
    return min(p_tail(row["count"], row["n"], row["p_analytic"]) for row in rows)
