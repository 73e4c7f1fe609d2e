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
``_BLOCK_ROWS`` rows. A block's draw is one multinomial over its joint
categories: per class whose cells a tally reads (``_READ``: both senders
in X, or both in Z and in H), rounds of no entry, of one entry in each
cell and of two entries by the histogram cell they make, each other
class (mixed bases, unchecked Z) one category, its rounds counted, not
split, and one category the rounds of three or more entries in a read
class; only if that drew some, a second multinomial splits them over the
row table: per read class, three entries by histogram cell, and four or
more. Nested multinomials (class, entry total, cells) flatten into these
two levels, merging leaves of one cell by summing their probabilities,
so every tally keeps its law. An n-entry round in cells (i, j, ...), of
probability q_i q_j ... given n entries, clicks bits_i | bits_j | ...
with photon parity odd_i ^ odd_j ^ ... (a dark count has no photon; two
photons in one cell are an even count). Summed by class, the categories
give the class counts, and by cell the histogram. Only rounds of four or
more entries become rows: each draws N from the Poisson conditioned on
N >= 4 and splits it over the cells into a 4-bit click mask and a 4-bit
photon-parity mask; a block without such a round skips this row stage.
At p_d = 1 each class is one category, whose rounds click four times.
The draw tables, both levels included, are built once per configuration
(mu_arm, p_d, basis_policy) and kept in a small bounded cache
(``_tables``), read by the block sizing and every block of every call
with that configuration. The closed forms that
``compare_to_analytic`` checks against are kept the same way
(``_closed_forms``). A block's rounds end in one histogram over (parity
mask, class, click mask). The truth tables over (class, click mask) tell
apart only 12 atoms (Event1 by phase error, Event2 and Event3 by phase
and polarization error, the Z check by phase error), so the block sums
the histogram's tallied cells into atom counts, and the lottery (checks,
an attack's flips or Eve's success) splits those with binomials (last
layers of probability 0 add no lots), which keeps the law of every
tally. The block also gathers the 40 parity cells of the comparison rows
from the same histogram. ``simulate`` runs the blocks on the calling
thread unless they carry enough rows to pay for a pool (only then is one
built, and ``concurrent.futures`` imported), sums their integer arrays
as they arrive, tallies the sums through the atoms' truth-table rows and
builds the report (without its frozen ``__init__``) once per call.
``_PATTERNS``, the six tallied click patterns, drives the truth tables
and the parity cells (``_PARITY_CELLS``), and those and ``_RATE_ROWS``
the comparison rows.

Each block draws from a stream seeded by (seed, block index), so
reports are bit-identical for any worker count. Attack randomness lives
on a separate per-block stream: paired runs with the same seed see
identical protocol randomness whether or not an attack is active. The
caches are ``_tables``, ``_closed_forms`` and the seed words
(``_seed_words``): the four words that numpy's ``SeedSequence`` gives
``PCG64`` for each (seed, kind, block) stream, so that the paired runs,
and every configuration of a grid at one seed, seed their repeated
streams without its set-up. numpy.random is loaded by the first stream.

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

# Blocks expect about _BLOCK_ROWS rounds of four or more entries in read classes, the only rows
# of work; _MAX_BLOCK bounds blocks where those are rare or absent.
_BLOCK_ROWS = 8192
_MAX_BLOCK = 2**53
# Configurations whose draw tables and closed-form rows are kept, the least
# recently used dropped first; the oracle grid needs three, the attack triple one.
_CACHE_SIZE = 16
# Block streams whose seed words are kept: a call of up to 128 blocks, with its attack streams,
# leaves the next configuration's in place.
_SEED_CACHE_SIZE = 256
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
        for name in ("basis_policy", "check_fraction", "flip_fraction"):  # stored as checked, through the dict
            vars(self)[name] = check_range(name, getattr(self, name), 0.0, 1.0)
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
_TAIL = np.array([6.0 / math.factorial(k) for k in range(4, 22)])  # series of P(N >= 4) / P(N = 3) / lam
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
# The classes whose cells a tally reads, an atom's or a parity cell's: both senders in X, or both in Z
# and in H. Rounds of any other class are only counted (n_zz, n_mixed), never split into cells.
_READ = np.isin(_CLASSES, [*(cell >> 4 for cells in _ATOM_CELLS for cell in cells), *(rep for _, rep in _PARITY_KEYS)])
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
    """P(N = 0) to P(N = 3) and P(N >= 4) of N ~ Poisson(lam), along the last axis, each to full
    relative precision: below lam = 1, P(N >= 4) sums its series from k = 4, where 1 - P(N < 4) would cancel."""
    p0 = np.exp(-lam)
    p1 = lam * p0
    p2 = 0.5 * lam * p1
    p3 = lam * p2 / 3.0
    series = np.power.outer(np.minimum(lam, 1.0), np.arange(_TAIL.size)) @ _TAIL
    return np.stack((p0, p1, p2, p3, np.where(lam < 1.0, p3 * lam * series, 1.0 - (p0 + p1 + p2 + p3))), axis=-1)


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


_DrawTables = collections.namedtuple("_DrawTables", "weights p_multi lam q bits odd_bits p cls at three p_rows multi",
                                     defaults=[None] * 10)
_SPARE = 16 * 64 * 16  # the flat histogram's spare last slot, where the categories that make no cell go


@_cached
def _tables(mu_arm: float, p_d: float, basis_policy: float) -> _DrawTables:
    """Tables built once per configuration and read by every block: class weights, the chance that
    a round is a row (four or more entries in a read class), the rows' per-class entry total mean,
    ascending cell probabilities q and each sorted cell's detector and parity bit (0 for a dark
    count); the probabilities of the joint categories (``p``; ``three``: the place of its rounds of
    three or more entries, None if none) and of the row table (``p_rows``, normalised), each
    ascending, stable over class by class and column (numpy gives the last, the likeliest, the
    remainder); of both, joint first, each category's class (64: none), flat histogram index
    (``_SPARE``: none), and which are four or more entries."""
    weights = _class_weights(basis_policy)
    if p_d == 1.0:  # delta = inf: each class is one category, in class order, whose rounds click four times
        tables = _DrawTables(weights, 0.0, p=weights, cls=np.arange(64), at=np.where(_READ, _CLASSES << 4 | 15, _SPARE))
    else:  # parity mask 0 above: the photon parity shows in no pattern
        means = _cell_means(mu_arm, p_d)
        lam = means.sum(axis=1)
        strata = _strata(lam)
        order = np.argsort(means, axis=1, kind="stable")
        q = means[_CLASSES[:, None], order] / np.where(lam > 0.0, lam, 1.0)[:, None]
        bits = 1 << (order & 3)
        odd = np.where(order < 4, bits, 0)
        # the categories as (class, column, probability, flat histogram index), per class: 0 the class or no entry,
        # then by cell (parity mask << 4 | click mask) one entry 1-256, two 257-512, the row table's three 513-768,
        # and 769 four or more; class 64 holds the joint's rounds of three or more entries in a read class, their sum
        read = np.flatnonzero(_READ)
        parts = [(np.arange(65), np.zeros(65, int), np.append(weights * np.where(_READ, strata[:, 0], 1.0), 0.0),
                  np.full(65, _SPARE)),
                 (read, np.full(read.size, 769), weights[read] * strata[read, 4], np.full(read.size, _SPARE))]
        for some in np.array_split(read, 2):  # half the read classes at a time, to halve the peak memory
            cell, prod = np.arange(some.size)[:, None] << 8, np.ones((some.size, 1))  # row, parity mask, click mask
            for n in (1, 2, 3):  # their ordered n-tuples of cells, row-major
                cell = (cell[..., None] ^ odd[some, None] << 4 | bits[some, None]).reshape(some.size, -1)
                prod = (prod[..., None] * q[some, None]).reshape(some.size, -1)
                sums = np.bincount(cell.ravel(), prod.ravel())  # of q_i q_j ... by cell, in row-major order from 0.0
                found = np.flatnonzero(sums)
                c = some[found >> 8]
                parts.append((c, 256 * n - 255 + (found & 255), weights[c] * (strata[c, n] * sums[found]),
                              ((found >> 4 & 15) << 6 | c) << 4 | found & 15))
        cls, col, p, at = map(np.concatenate, zip(*parts))
        by_key = np.argsort(cls * 770 + col, kind="stable")  # class by class, column by column
        rows = by_key[(col[by_key] > 512) & (p[by_key] > 0.0)]
        rows = rows[np.argsort(p[rows], kind="stable")]
        p[64] = total = p[rows].sum()
        joint = by_key[(col[by_key] <= 512) & (p[by_key] > 0.0)]
        joint = joint[np.argsort(p[joint], kind="stable")]
        tables = _DrawTables(weights, float(p[col == 769].sum()), lam, q, bits, odd, p[joint],
                             cls[np.concatenate((joint, rows))], at[np.concatenate((joint, rows))],
                             int(np.argmax(cls[joint] == 64)) if total > 0.0 else None, p[rows] / total,
                             joint.size + np.flatnonzero(col[rows] == 769))
    for array in tables:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return tables


def _draw_tables(cfg: SimConfig) -> _DrawTables:
    """``_tables`` of ``cfg``'s mu_arm, p_d and basis_policy: built once per configuration, shared by every call."""
    return _tables(cfg.sp.mu_arm, cfg.sp.p_d, cfg.basis_policy)


def _block_sizes(cfg: SimConfig, tables: _DrawTables) -> list[int]:
    """Partition ``cfg.rounds`` into blocks that expect about ``_BLOCK_ROWS`` rows, rounds of
    four or more entries in read classes (at p_d = 1 there are none), up to ``_MAX_BLOCK``
    rounds. The sizes depend on the configuration only."""
    p_multi = tables.p_multi
    block = _MAX_BLOCK if p_multi * _MAX_BLOCK <= _BLOCK_ROWS else math.ceil(_BLOCK_ROWS / p_multi)
    return [min(block, cfg.rounds - lo) for lo in range(0, cfg.rounds, block)]


def _multi_entry_totals(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Poisson(lam) conditioned on N >= 4, by exact rejection: where lam <= 1, 4 + Poisson(lam) is
    kept with probability 24 / (N (N - 1) (N - 2) (N - 3)), else Poisson(lam) is redrawn until >= 4."""
    n, at, small = np.empty(lam.size, np.int64), np.arange(lam.size), lam <= 1.0
    while True:
        x = rng.poisson(lam) + 4 * small
        n[at] = x
        keep = np.where(small, rng.random(lam.size) * x * (x - 1.0) * (x - 2.0) * (x - 3.0) < 24.0, x >= 4)
        if keep.all():
            return n
        at, lam, small = at[~keep], lam[~keep], small[~keep]


def _rows(counts: np.ndarray, bits: np.ndarray, odd_bits: np.ndarray) -> tuple:
    """Click masks and photon-parity masks of rows of entry counts per cell,
    given each cell's detector bit and its parity bit (0 for a dark count)."""
    clicks = np.bitwise_or.reduce(np.where(counts > 0, bits, 0), axis=1)
    return clicks, np.bitwise_or.reduce(odd_bits & -(counts & 1), axis=1)


def _draw(t: _DrawTables, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw step: a block's class counts ``m`` and its histogram over (parity mask, class, click mask)
    of the rounds of read classes (``_READ``), from one multinomial over the joint categories (``_tables``),
    one over the row table if it drew rounds of three or more entries, then the rows if any."""
    k = rng.multinomial(size, t.p)
    flat = np.zeros(_SPARE + 1, np.int64)
    if t.three is not None and (three := k[t.three]):
        k = np.concatenate((k, rng.multinomial(three, t.p_rows)))
        if (multi := k[t.multi]).any():
            cls = np.repeat(t.cls[t.multi], multi)  # the rounds of four or more entries, the only rows
            counts = rng.multinomial(_multi_entry_totals(rng, t.lam[cls]), t.q[cls])
            clicks, odd = _rows(counts, t.bits[cls], t.odd_bits[cls])
            np.add.at(flat, (odd << 6 | cls) << 4 | clicks, 1)
    m = np.zeros(65, np.int64)  # its spare last slot holds the joint's rounds of three or more entries
    np.add.at(m, t.cls[:k.size], k)
    np.add.at(flat, t.at[:k.size], k)
    return m[:64], flat[:_SPARE].reshape(16, 64, 16)


@functools.cache
def _fixed_words() -> type:
    """A seed sequence that hands out fixed words, the ones ``PCG64`` asks for (4 of
    ``np.uint64``, once). Defined on first use: naming ``np.random`` loads numpy.random,
    which neither the package's import nor its analytic calls need."""

    class FixedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return FixedWords


@functools.lru_cache(maxsize=_SEED_CACHE_SIZE)
def _seed_words(seed: int, kind: int, block: int):
    """The read-only words that ``SeedSequence(entropy=seed, spawn_key=(kind, block))`` gives
    ``PCG64``, in a ``_fixed_words`` sequence; kept for the ``_SEED_CACHE_SIZE`` streams last
    used, since paired runs share a seed and its blocks."""
    words = np.random.SeedSequence(entropy=seed, spawn_key=(kind, block)).generate_state(4, np.uint64)
    words.flags.writeable = False
    return _fixed_words()(words)


def _stream(cfg: SimConfig, kind: int, block: int) -> np.random.Generator:
    """The protocol (kind 0) or attack (kind 1) stream of one block, in the state that
    ``np.random.default_rng`` gives it, seeded from its cached words (``_seed_words``)."""
    return np.random.Generator(np.random.PCG64(_seed_words(cfg.seed, kind, block)))


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
