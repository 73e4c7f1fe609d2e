"""Event-driven stochastic simulation of the full protocol.

This is the oracle for the analytic gains and error rates. Coherent
states remain coherent through the beam splitter network, so each
detector sees an independent Poisson photon count with mean equal to
its mode intensity i, and clicks on a photon or on a dark count (of
probability p_d). The intensities depend only on a round's class (the
senders' bases and four key bits; 64 classes). So each detector of a
class is in one of three independent states: no click, (1 - p_d) e^-i;
a click of odd photon number, -expm1(-2i) / 2; or a click of even photon
number, none included, expm1(-i)^2 / 2 + p_d e^-i (a dark count has no
photon). Their products over the four detectors are the law of a round's
81 outcomes, each a click mask and a photon-parity mask (``_outcomes``).

The report tells apart only a round's group (X basis, Z basis, mixed
bases, or one of the two representative encodings whose parity cells it
counts), its atom (the truth tables over (class, click mask) tell apart
12: Event1 by phase error, Event2 and Event3 by phase and polarization
error, the Z check by phase error) and its parity cell (one of 40). So
the law's outcomes, weighted by class, merge by (group, atom, parity
cell) into a few dozen categories (``_tables``). Each category that has
an atom splits in two lots by the check fraction c, its unchecked rounds
(1 - c) and its checked rounds (c; none without checks): thinning a
category binomially and drawing the split categories in one multinomial
give one law. The categories are kept in ascending probability, stable
by key, so numpy gives the likeliest the remainder. Numpy only draws: a
block's one multinomial over them adds each count, a Python int, to its
category's slots in one count list (basis sums, each lot's truth-table
columns and atoms, parity cells); every tally keeps its law. An attack's
lottery (its flips or Eve's success) splits the (lot, atom) counts with
binomials on its own stream (layers of probability 0 add no lots).
``simulate`` runs its blocks, chunks of ``_MAX_BLOCK`` rounds, on the
calling thread, sums their count lists as they arrive, tallies the sums
(an attack's lots through the atoms' truth-table rows) and builds the
report (without its frozen ``__init__``) once per call. ``_PATTERNS``, the six tallied click
patterns, drives the truth tables and the parity cells
(``_PARITY_CELLS``), and those and ``_RATE_ROWS`` the comparison rows.

What the oracle checks: two codings of one per-detector model. The
sampler's law starts from ``_unit_intensities`` and plain exponentials;
the closed forms that ``compare_to_analytic`` checks against come from
``optics``, ``detectors`` and ``rates``. The comparison also checks the
class weights, the truth tables, basis sifting and the lottery, which
only the sampler codes round by round. The draw tables are built once
per configuration (mu_arm, p_d, basis_policy, check_fraction) and kept
in a small bounded cache (``_tables``); the closed forms are kept the
same way (``_closed_forms``).

Each block draws from a stream seeded by (seed, block index); the
``threads`` argument is checked, and every block runs on the calling
thread whatever its value. Attack randomness lives on a separate per-block stream:
paired runs with the same seed see identical protocol randomness whether
or not an attack is active. The caches are ``_tables``,
``_closed_forms`` and the seed words (``_seed_words``): the four words
that numpy's ``SeedSequence`` gives ``PCG64`` for each (seed, kind,
block) stream, so that the paired runs, and every configuration of a
grid at one seed, seed their repeated streams without its set-up.
numpy.random is loaded by the first stream.

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
from dataclasses import dataclass, fields

import numpy as np

from .attack import TapParams, _ie_dual_tapped, ie_dual
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

# Rounds per block: above 2^53 trials numpy's binomial, the multinomial's step and the attack's,
# draws on a grid (2^60 trials give multiples of 64). Blocks are summed as Python ints.
_MAX_BLOCK = 2**53
# Configurations whose draw tables and closed-form rows are kept, the least
# recently used dropped first; the oracle grid needs three, the attack triple one.
_CACHE_SIZE = 16
# Block streams whose seed words are kept: a call of up to 128 blocks, with its attack streams,
# leaves the next configuration's in place.
_SEED_CACHE_SIZE = 256
_SQRT_HALF = math.sqrt(0.5)

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
        if self.rounds >= 2**63:  # at most 1,024 blocks, and every count fits an int64
            raise ValueError(f"rounds must be below 2**63, got {self.rounds!r}")
        for name in ("basis_policy", "check_fraction", "flip_fraction"):  # stored as checked, through the dict
            vars(self)[name] = check_range(name, getattr(self, name), 0.0, 1.0)
        if self.attack not in ATTACKS:
            raise ValueError(f"attack must be one of {ATTACKS}, got {self.attack!r}")


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
# A detector's states, 0 no click, 1 a click of odd and 2 of even photon number; the state of
# detector d in outcome j is ``_STATES[j, d]``, digit d of j in base 3.
_STATES = np.arange(81)[:, None] // 3 ** np.arange(4) % 3
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


# Per atom, its cells and its truth-table row.
_ATOM_CELLS, _ATOM_TABLE = _atoms()
# Each class's group, the class counts that a report reads: 0 X basis, 1 Z basis, 2 mixed bases, then
# the representatives (``_PARITY_KEYS``), whose rounds the parity rows count. ``m @ _BASIS_SUMS``
# gives n_xx, n_zz, the rounds and the representatives' rounds of the group counts m.
_GROUP = np.where(_XA & _XB, 0, np.where(_XA == _XB, 1, 2))
_GROUP[[rep for _, rep in _PARITY_KEYS]] = 3, 4
_BASIS_SUMS = np.array(((1, 0, 1, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 0, 0), (1, 0, 1, 1, 0), (1, 0, 1, 0, 1)))
# A draw category's key: its group, its atom (or none, the last) and its parity cell (or none, the last).
_KEY_SHAPE = (len(_BASIS_SUMS), len(_ATOM_CELLS) + 1, len(_PARITY_PATHS) + 1)


def _category_keys() -> np.ndarray:
    """The flat category key (``_KEY_SHAPE``) of every class's every outcome (``_STATES``). An
    outcome clicks the detectors not in state 0 and has odd photon parity at those in state 1."""
    clicks = (_STATES > 0) @ (1 << np.arange(4))
    atom = np.full(64 * 16, len(_ATOM_CELLS))  # by class << 4 | click mask
    for index, cells in enumerate(_ATOM_CELLS):
        atom[list(cells)] = index
    cell = np.full((64, 81), len(_PARITY_PATHS))
    for index, (rep, (_, _, dets, classes)) in enumerate(itertools.product((rep for _, rep in _PARITY_KEYS),
                                                                           _PARITY_CELLS)):
        cell[rep, sum((1 if c is ClickParity.ODD else 2) * 3**d for d, c in zip(dets, classes))] = index
    keys = np.ravel_multi_index((_GROUP[:, None], atom[_CLASSES[:, None] << 4 | clicks], cell), _KEY_SHAPE)
    return keys.astype(np.int16)


_KEYS = _category_keys()


def _class_weights(basis_policy: float) -> np.ndarray:
    """Probability of each sampling class: two basis choices, 16 encodings."""
    bp = basis_policy
    return np.where(_XA, bp, 1.0 - bp) * np.where(_XB, bp, 1.0 - bp) / 16.0


def _outcomes(mu_arm: float, p_d: float) -> np.ndarray:
    """Probability of each class's 81 outcomes (``_STATES``): its detectors, of intensity i,
    are independent, each without a click, (1 - p_d) e^-i, with a click of odd photon number,
    -expm1(-2i) / 2, or of even photon number, none included, expm1(-i)^2 / 2 + p_d e^-i (that is,
    2 e^-i sinh^2(i / 2) + p_d e^-i, without cancellation at either end)."""
    with np.errstate(over="ignore"):  # i or 2i beyond the float range is inf, whose states are those of 1e300
        i = mu_arm * _UNIT_LAM
        e = np.exp(-i)
        states = np.stack(((1.0 - p_d) * e, -0.5 * np.expm1(-2.0 * i), 0.5 * np.expm1(-i) ** 2 + p_d * e), axis=-1)
    return states[:, np.arange(4), _STATES].prod(axis=-1)


_DrawTables = collections.namedtuple("_DrawTables", "p group atom cell slots")
_N_ATOMS, _N_COLUMNS = _ATOM_TABLE.shape
# Per (lot, atom) of up to 8 lots, in C order: where its truth-table row counts in the lots' columns.
_LOT_COLUMNS = tuple(tuple(lot * _N_COLUMNS + j for j, bit in enumerate(row) if bit)
                     for lot in range(8) for row in _ATOM_TABLE.tolist())
# A block's count list of Python ints: the sums of ``_BASIS_SUMS``, then from ``_COLUMNS`` each lot's
# columns, from ``_ATOMS`` each lot's atoms (or an attack's lots) and from ``_CELLS`` the parity cells.
_COLUMNS = _BASIS_SUMS.shape[1]
_ATOMS = _COLUMNS + 2 * _N_COLUMNS
_CELLS = _ATOMS + 2 * _N_ATOMS


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _tables(mu_arm: float, p_d: float, basis_policy: float, check_fraction: float) -> _DrawTables:
    """The draw categories of a configuration, built once and read by every block: the law of
    (lot, group, atom, parity cell) that the class weights, ``_outcomes`` and the check fraction c
    give, keeping the categories of positive probability ``p`` in ascending order, stable by key
    (numpy gives the last, the likeliest, the remainder), and each one's group, ``lot * 13 + atom``,
    parity cell (the last atom and cell: none) and slots in a count list (``_COLUMNS``). A category
    with an atom is p (1 - c) in lot 0 and p c in lot 1, checked, the rest whole in lot 0; at c = 0
    the checked lot is 0 and dropped. ``p`` is at most 1: at p_d = 1 the likeliest sum can round above it."""
    law = _class_weights(basis_policy)[:, None] * _outcomes(mu_arm, p_d)
    whole = np.bincount(_KEYS.ravel(), law.ravel(), math.prod(_KEY_SHAPE)).reshape(_KEY_SHAPE)
    sums = np.zeros((2, *_KEY_SHAPE))
    sums[0], sums[1, :, :-1] = whole, whole[:, :-1] * check_fraction
    sums[0, :, :-1] *= 1.0 - check_fraction
    sums = sums.ravel()
    keys = np.flatnonzero(sums)
    keys = keys[np.argsort(sums[keys], kind="stable")]
    lots, groups, atoms, cells = np.unravel_index(keys, (2, *_KEY_SHAPE))
    basis = [[j for j, bit in enumerate(row) if bit] for row in _BASIS_SUMS.tolist()]
    slots = []
    for lot, group, atom, cell in zip(*(index.tolist() for index in (lots, groups, atoms, cells))):
        own = basis[group] + [_CELLS + cell] * (cell < len(_PARITY_PATHS))
        if atom < _N_ATOMS:
            own += [*(_COLUMNS + j for j in _LOT_COLUMNS[lot * _N_ATOMS + atom]), _ATOMS + lot * _N_ATOMS + atom]
        slots.append(tuple(own))
    tables = _DrawTables(np.minimum(sums[keys], 1.0), groups, lots * _KEY_SHAPE[1] + atoms, cells, tuple(slots))
    for array in tables[:-1]:  # callers share a result, so it must be immutable
        array.flags.writeable = False
    return tables


def _draw_tables(cfg: SimConfig) -> _DrawTables:
    """``_tables`` of ``cfg``'s mu_arm, p_d, basis_policy and check_fraction: built once per
    configuration, shared by every call."""
    return _tables(cfg.sp.mu_arm, cfg.sp.p_d, cfg.basis_policy, cfg.check_fraction)


def _draw(t: _DrawTables, rng: np.random.Generator, size: int) -> list:
    """Draw step: a block's count list (``_COLUMNS``), from one multinomial over the categories of
    ``_tables``, each count added as a Python int to its category's slots."""
    counts = [0] * (_CELLS + len(_PARITY_PATHS))
    for n, slots in zip(rng.multinomial(size, t.p).tolist(), t.slots):
        if n:
            for slot in slots:
                counts[slot] += n
    return counts


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


def _tally(cfg: SimConfig, counts: list) -> dict:
    """Tally step, once per ``simulate`` call: the report counts and parity cells from the block
    sums of the count list (``_COLUMNS``); flips and Eve's successes come only with their attack,
    whose lots' columns are their atoms' truth-table rows summed."""
    columns, atoms = counts[_COLUMNS:_ATOMS], counts[_ATOMS:-len(_PARITY_PATHS)]
    t = dict.fromkeys(_COUNT_FIELDS, 0)
    t.update(zip(_TABLE_COUNTS, map(operator.add, columns, columns[_N_COLUMNS:])))
    t["n_xx"], t["n_zz"], rounds, *reps = counts[:_COLUMNS]
    t["n_mixed"] = rounds - t["n_xx"] - t["n_zz"]
    t["n_fail_xx"] = t["n_xx"] - t["n_event1"] - t["n_event2"] - t["n_event3"]
    if len(atoms) > 2 * _N_ATOMS:  # an attack's lots: each one's columns from its atoms
        columns = [0] * (len(atoms) // _N_ATOMS * _N_COLUMNS)
        for n, slots in zip(atoms, _LOT_COLUMNS):
            if n:
                for slot in slots:
                    columns[slot] += n
    for lot, (x1, x2, x3, e1_ph, e2_ph, e2_pol, e3_ph, e3_pol, zc, z_ph) in enumerate(zip(*[iter(columns)] * 10)):
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
    cells, t["parity"] = iter(counts[-len(_PARITY_PATHS):]), {}
    for (key, _), n in zip(_PARITY_KEYS, reps):
        group = t["parity"][key] = {"n": n}  # loops: a comprehension with a ** merge would build each group twice
        for name, names in _PARITY_GROUPS:
            group[name] = dict(zip(names, cells))
    return t


def _block_tallies(cfg: SimConfig, tables: _DrawTables, block: int, size: int) -> list:
    """Simulate one block: the draw step and the attack's lottery. Returns the
    count list (``_COLUMNS``) that ``simulate`` sums. Checked is bit 0 of a
    lot, drawn in the block's one multinomial on the protocol stream
    (``_tables``); an attack's layers split the (lot, atom) counts in place,
    with binomials on the attack stream, seeded only when a layer is drawn:
    Eve's success in bit 1, or flip_ph in bit 1 and flip_pol in bit 2. Every
    cell of a layer is split with the same probability, and a sum of binomials
    of one probability is a binomial of their sum, so splitting the atoms' sums
    gives every (lot, atom) count the law that splitting each cell would give.
    Layers of probability 0 are left out; a draw without checks leaves the
    checked lot empty."""
    counts = _draw(tables, _stream(cfg, 0, block), size)
    if cfg.attack == "beam_split":
        p, layers = _ie_dual_tapped((1.0 - cfg.sp.eta_t) * cfg.sp.mu), 1
    elif cfg.attack == "dishonest_bob":
        p, layers = cfg.flip_fraction, 2
    else:
        return counts
    if p:
        rng, split = _stream(cfg, 1, block), counts[_ATOMS:_CELLS]
        for _ in range(layers):
            won = rng.binomial(split, p).tolist()
            split = [*map(operator.sub, split, won), *won]
        counts[_ATOMS:_CELLS] = split
    return counts


def simulate(config: SimConfig, threads: int = 1) -> SimReport:
    """Run the simulation and return aggregated tallies.

    ``threads`` is checked and otherwise ignored: every block runs on the calling thread, and the
    report is the same for any value. Blocks of ``_MAX_BLOCK`` rounds are seeded by index and their
    count lists summed as Python ints, then tallied once. Like the NamedTuples that ``rates`` builds
    through ``tuple.__new__``, the report skips its frozen ``__init__`` (31 fields set one by one).
    """
    if not is_integer(threads) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    tables, rounds = _draw_tables(config), config.rounds
    totals = functools.reduce(lambda a, b: [*map(operator.add, a, b)], (_block_tallies(
        config, tables, block, min(_MAX_BLOCK, rounds - lo)) for block, lo in enumerate(range(0, rounds, _MAX_BLOCK))))
    report = object.__new__(SimReport)  # its fields set at once, in declaration order
    report.__dict__.update({n: getattr(config, n) for n in _ECHO_FIELDS}, **vars(config.sp), **_tally(config, totals))
    return report


def _with_attack(config: SimConfig, attack: str) -> SimConfig:
    """``config`` with another of ``ATTACKS``. Its other fields were checked when it was built, so,
    like the report, it skips the frozen ``__init__`` and the checks that ``replace`` would run again."""
    attacked = object.__new__(SimConfig)
    attacked.__dict__.update(vars(config), attack=attack)
    return attacked


def simulate_beam_split(config: SimConfig, threads: int = 1) -> SimReport:
    """Run with the beam-splitting eavesdropper sampling enabled."""
    return simulate(_with_attack(config, "beam_split"), threads=threads)


def simulate_dishonest_bob(config: SimConfig, threads: int = 1) -> SimReport:
    """Run with the dishonest receiver flipping announced bits."""
    return simulate(_with_attack(config, "dishonest_bob"), threads=threads)


@functools.lru_cache(maxsize=_CACHE_SIZE)
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
    # + 0.0 makes a hand-made -0.0 the +0.0 that check_range stores: the cache takes them as one key
    leak = (report.mu + 0.0, eta_t + 0.0, report.check_fraction + 0.0) if report.attack == "beam_split" else ()
    rate, parity, rounds = _RATE_COUNTS(report), report.parity, report.rounds
    counts = [*zip(rate[::2], rate[1::2]), *((parity[key][name][cell], parity[key]["n"])
                                             for key, name, cell in _PARITY_PATHS)]
    if leak:
        counts.append((report.n_eve_success, report.n_key_events))
    rows = []
    for (name, p, p_trial), (count, n) in zip(_closed_forms(eta_t * report.mu + 0.0, report.p_d + 0.0,
                                                            report.basis_policy + 0.0, *leak), counts):
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
