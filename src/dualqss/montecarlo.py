"""Event-driven stochastic simulation of the full protocol.

This is the oracle for the analytic gains and error rates. Coherent
states remain coherent through the beam splitter network, so each
detector sees an independent Poisson photon count with mean equal to
its mode intensity, plus an independent dark count. The mode
intensities depend only on a round's class: the two senders' bases
and their four key bits, 64 classes in all.

Rounds are processed in blocks sized from the configuration alone. A
block holds 500k rounds, or more where those would expect fewer than
about 4k clicked rounds: it then grows until it expects about 4k (at
400 km, some 10^8 rounds). A block first draws how many of its rounds
fall in each class, with one multinomial draw. Then, for
each class of m rounds and each detector of mean lam, it draws the
photon total as Poisson(m * lam) and scatters it uniformly over the m
rounds. This is exact, not an approximation: a Poisson total split
uniformly over m bins gives independent Poisson(lam) counts per bin.
Cells with lam >= 1 draw per-round Poisson counts directly instead,
which is the same distribution without one array entry per photon.
Dark counts stay Bernoulli(p_d) per detector and round: a
Binomial(m, p_d) count per class and detector, placed on rounds drawn
without replacement. The sampler uses none of the closed forms that it
checks.

Photons and darks arrive as (round id, detector, weight) entries; a
dark count weighs 2, so it clicks without changing the photon parity.
Sorting their round ids gives the clicked rounds, the only rows of work:
click classification, the check lottery and the attack draws. No array
is indexed by round, so a block costs in proportion to its clicks (bar
the per-round draws of bright cells, which click so often that their
blocks keep 500k rounds). Rounds without a click produce no event, so
the block's basis tallies follow from the class counts alone.
One table, ``_PATTERNS``, declares the six tallied click patterns; the
event masks, the parity cells of the two ``PolPairing`` representatives
and the comparison rows all derive from it.

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

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .attack import TapParams, ie_dual
from .detectors import ClickParity, Detector, SystemParams, exclusive_pattern_prob
from .optics import PolPairing, detector_amplitudes, intensities, is_integer, require_finite
from .rates import _event_terms

__all__ = [
    "SimConfig",
    "SimReport",
    "simulate",
    "simulate_beam_split",
    "simulate_dishonest_bob",
    "compare_to_analytic",
    "max_abs_sigma",
]

ATTACKS = ("none", "beam_split", "dishonest_bob")

# A comparison row expecting fewer counts than this carries little
# statistical power: a 0-sigma result against 0.001 expected events is
# no evidence of agreement.
MIN_EXPECTED = 10.0

# Blocks hold at least _BLOCK rounds and grow until they expect about
# _BLOCK_CLICKS clicked rounds, so that a block's fixed cost is spread
# over enough clicks. _MAX_BLOCK bounds blocks that click never.
_BLOCK = 500_000
_BLOCK_CLICKS = 4096
_MAX_BLOCK = 2**40
_SQRT_HALF = math.sqrt(0.5)

# Cells whose per-round mean reaches this draw per-round counts instead
# of scattering a Poisson total, which would hold one entry per photon.
_SCATTER_MAX_LAM = 1.0

# numpy's largest Poisson mean, as numpy computes it; beyond it a draw raises.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)

# Sampling classes c = (x_a << 5) | (x_b << 4) | enc: x = 1 is the X
# basis, enc the 4-bit encoding id (ka_ph, ka_pol, kb_ph, kb_pol).
_CLASSES = np.arange(64)
_XA = (_CLASSES >> 5 & 1).astype(bool)
_XB = (_CLASSES >> 4 & 1).astype(bool)
_KA_PH, _KA_POL, _KB_PH, _KB_POL = ((_CLASSES >> s & 1).astype(bool) for s in (3, 2, 1, 0))
_XX_CLASS = 0b110000

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

# Parity-cell names by number of clicked detectors, in the order of the
# cell index: one bit per clicked detector, the first one highest, set
# for an even photon count.
_CELLS = {1: ("odd", "even"), 2: ("oo", "oe", "eo", "ee")}


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
        require_finite(self, "rounds", "basis_policy", "check_fraction", "flip_fraction")
        # numpy's samplers and seed sequences take integers only, not bools
        for name, least in (("rounds", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("basis_policy", "check_fraction", "flip_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.attack not in ATTACKS:
            raise ValueError(f"attack must be one of {ATTACKS}, got {self.attack!r}")
        # A Z-basis pulse lands wholly in one mode, at twice the arm intensity.
        lam_max = _UNIT_LAM.max() * self.sp.mu_arm
        if lam_max > _POISSON_LAM_MAX:
            raise ValueError(f"sp must be within numpy's Poisson limit of {_POISSON_LAM_MAX:.4g} "
                             f"photons per detector; mu = {self.sp.mu!r} gives {lam_max:.4g}")


@dataclass(frozen=True)
class SimReport:
    """Tally counts of one simulation, plus the configuration echo.

    All fields are integer counts except the echoed configuration;
    derived frequencies live in ``to_dict()`` so that merging and
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

    def system_params(self) -> SystemParams:
        return SystemParams(*(getattr(self, f.name) for f in fields(SystemParams)))

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


def _class_weights(basis_policy: float) -> np.ndarray:
    """Probability of each sampling class: two basis choices, 16 encodings."""
    bp = basis_policy
    return np.where(_XA, bp, 1.0 - bp) * np.where(_XB, bp, 1.0 - bp) / 16.0


def _block_sizes(cfg: SimConfig) -> list[int]:
    """Partition ``cfg.rounds`` into blocks sized from the configuration.

    A round clicks unless all four detectors see neither a photon nor a
    dark count. Blocks stay at ``_BLOCK`` rounds where those hold about
    ``_BLOCK_CLICKS`` clicked rounds, and grow where clicks are rarer, up
    to ``_MAX_BLOCK``. The sizes never depend on the worker count.
    """
    no_click = np.exp(-cfg.sp.mu_arm * _UNIT_LAM.sum(axis=1)) * (1.0 - cfg.sp.p_d) ** 4
    p_click = float(_class_weights(cfg.basis_policy) @ (1.0 - no_click))
    if p_click * _MAX_BLOCK <= _BLOCK_CLICKS:
        block = _MAX_BLOCK
    else:
        block = max(_BLOCK, math.ceil(_BLOCK_CLICKS / p_click))
    return [min(block, cfg.rounds - lo) for lo in range(0, cfg.rounds, block)]


def _block_tallies(cfg: SimConfig, block: int, size: int) -> dict:
    """Simulate one block of rounds and return its integer tallies: the
    ``n_*`` counts of ``SimReport`` and, under "parity", its nested
    parity cells.

    The draw order from the protocol stream is fixed (class counts,
    photons, darks, check lottery) so that tallies depend only on
    (seed, block, size), never on the attack setting.
    """
    sp = cfg.sp
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, block)))
    attack_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, block)))

    # Rounds are exchangeable within a class, so class c owns the round
    # ids [start[c], start[c] + m[c]) of the block.
    m = rng.multinomial(size, _class_weights(cfg.basis_policy))
    start = np.cumsum(m) - m
    lam = sp.mu_arm * _UNIT_LAM

    # Clicks as (round id, detector, weight) entries. Dim cells scatter a
    # Poisson(m * lam) total uniformly over their m rounds, one entry per
    # photon. Bright cells, where that would mean more photons than
    # rounds, draw per round and keep one entry per round lit.
    dim = lam < _SCATTER_MAX_LAM
    totals = rng.poisson(m[:, None] * np.where(dim, lam, 0.0)).ravel()
    dim_cls, dim_det = np.divmod(np.repeat(np.arange(totals.size), totals), 4)
    entries = [(start[dim_cls] + rng.integers(0, m[dim_cls]), dim_det, np.ones_like(dim_det))]
    for c, d in zip(*np.nonzero(~dim & (m[:, None] > 0))):
        k = rng.poisson(lam[c, d], m[c])
        lit = np.flatnonzero(k)
        entries.append((start[c] + lit, np.full(lit.size, d), k[lit]))

    # Dark counts stay Bernoulli per detector and round: a binomial count
    # per cell, placed on distinct rounds. A dark count weighs 2: its
    # detector clicks, and the photon parity stays as it was.
    n_dark = rng.binomial(np.broadcast_to(m[:, None], lam.shape), sp.p_d)
    for c, d in zip(*np.nonzero(n_dark)):
        k = n_dark[c, d]
        entries.append((start[c] + rng.choice(m[c], k, replace=False), np.full(k, d), np.full(k, 2)))
    round_id, det, weight = map(np.concatenate, zip(*entries))

    # The clicked rounds, sorted, are the rows; each entry learns its row.
    rows, row = np.unique(round_id, return_inverse=True)
    n = rows.size
    counts = np.zeros(4 * n, np.int64)
    np.add.at(counts, 4 * row + det, weight)  # a flat index takes numpy's fast path
    counts = counts.reshape(n, 4)
    cls = np.searchsorted(start + m, rows, side="right")
    check_draw = rng.random(n)

    # Without an attack nothing is flipped and Eve learns nothing.
    flip_ph = flip_pol = eve_draw = False
    if cfg.attack == "dishonest_bob":
        flip_ph = attack_rng.random(n) < cfg.flip_fraction
        flip_pol = attack_rng.random(n) < cfg.flip_fraction
    elif cfg.attack == "beam_split":
        leak = ie_dual(TapParams(mu=sp.mu, eta_t=sp.eta_t))
        eve_draw = attack_rng.random(n) < leak

    clicks = counts > 0
    n_click = clicks.sum(axis=1)
    shows = [(n_click == len(dets)) & clicks[:, dets].all(axis=1) for _, dets, _ in _PATTERNS]
    ev = np.zeros((3, n), bool)
    for pattern, (_, _, event) in zip(shows, _PATTERNS):
        ev[event - 1] |= pattern
    ev1, ev2, ev3 = ev
    any_event = ev1 | ev2 | ev3

    xx = _XA[cls] & _XB[cls]
    zz = ~_XA[cls] & ~_XB[cls]
    ka_pol, kb_pol = _KA_POL[cls], _KB_POL[cls]

    # Charlie announces the phase relation from the H-detector index and
    # the polarization relation from the pattern class.
    kc_ph = clicks[:, Detector.D2H]
    t_ph = _KA_PH[cls] ^ _KB_PH[cls]
    t_pol = ka_pol ^ kb_pol
    err_ph = kc_ph ^ t_ph
    err_pol2 = t_pol
    err_pol3 = ~t_pol

    x1, x2, x3 = xx & ev1, xx & ev2, xx & ev3
    t: dict[str, int] = {}
    t["n_xx"] = int(m[_XA & _XB].sum())
    t["n_zz"] = int(m[~_XA & ~_XB].sum())
    t["n_mixed"] = size - t["n_xx"] - t["n_zz"]
    t["n_event1"] = int(x1.sum())
    t["n_event2"] = int(x2.sum())
    t["n_event3"] = int(x3.sum())
    t["n_fail_xx"] = t["n_xx"] - t["n_event1"] - t["n_event2"] - t["n_event3"]
    t["n_err1_ph"] = int((x1 & err_ph).sum())
    t["n_err2_ph"] = int((x2 & err_ph).sum())
    t["n_err2_pol"] = int((x2 & err_pol2).sum())
    t["n_err3_ph"] = int((x3 & err_ph).sum())
    t["n_err3_pol"] = int((x3 & err_pol3).sum())

    # Announced-bit comparisons: a dishonest receiver flips the bits he
    # announces, which shows up only in the checking tallies.
    obs_ph = err_ph ^ flip_ph
    obs_pol2 = err_pol2 ^ flip_pol
    obs_pol3 = err_pol3 ^ flip_pol

    # Every checked event yields the phase bit, a double click also the
    # polarization bit.
    checked = xx & any_event & (check_draw < cfg.check_fraction)
    chk2, chk3 = checked & ev2, checked & ev3
    t["n_check_x_bits"] = int(checked.sum() + chk2.sum() + chk3.sum())
    t["n_check_x_err"] = int((checked & obs_ph).sum() + (chk2 & obs_pol2).sum()
                             + (chk3 & obs_pol3).sum())

    # Z-basis checking where the inference is well defined: both senders
    # sent the H polarization mode, so a lone H click carries the phase
    # relation exactly as in the X basis.
    zc = zz & ev1 & ~ka_pol & ~kb_pol
    t["n_check_z_bits"] = int(zc.sum())
    t["n_check_z_err"] = int((zc & obs_ph).sum())

    key = xx & any_event & ~checked
    t["n_key_events"] = int(key.sum())
    t["n_eve_success"] = int((key & eve_draw).sum())

    even = (counts & 1) == 0
    t["parity"] = {}
    for pairing in PolPairing:
        enc = pairing.representative()
        rep_class = _XX_CLASS | enc.ka_ph << 3 | enc.ka_pol << 2 | enc.kb_ph << 1 | enc.kb_pol
        sel = cls == rep_class
        rep = t["parity"][pairing.name.lower()] = {"n": int(m[rep_class])}
        for (name, dets, _), pattern in zip(_PATTERNS, shows):
            cells = _CELLS[len(dets)]
            index = even[sel & pattern][:, dets] @ (1 << np.arange(len(dets)))[::-1]
            rep[name] = dict(zip(cells, np.bincount(index, minlength=len(cells)).tolist()))
    return t


def _merge(tallies: list):
    """Sum block tallies key by key, recursing into nested dicts."""
    if isinstance(tallies[0], dict):
        return {k: _merge([t[k] for t in tallies]) for k in tallies[0]}
    return sum(tallies)


def simulate(config: SimConfig, threads: int = 1) -> SimReport:
    """Run the simulation and return aggregated tallies.

    ``threads`` only controls execution; the report is bit-identical
    for any value because blocks are seeded by index and merged with
    integer sums.
    """
    if not is_integer(threads) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    blocks = list(enumerate(_block_sizes(config)))
    workers = min(threads, len(blocks))
    if workers == 1:
        tallies = [_block_tallies(config, b, s) for b, s in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(lambda bs: _block_tallies(config, bs[0], bs[1]), blocks))
    echo = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "sp"}
    return SimReport(**echo, **asdict(config.sp), **_merge(tallies))


def simulate_beam_split(config: SimConfig, threads: int = 1) -> SimReport:
    """Run with the beam-splitting eavesdropper sampling enabled."""
    return simulate(replace(config, attack="beam_split"), threads=threads)


def simulate_dishonest_bob(config: SimConfig, threads: int = 1) -> SimReport:
    """Run with the dishonest receiver flipping announced bits."""
    return simulate(replace(config, attack="dishonest_bob"), threads=threads)


def _sigma(count: int, n: int, p: float) -> float:
    """Binomial sigma-delta of an observed count against expectation n*p."""
    expected = n * p
    variance = n * p * (1.0 - p)
    if variance <= 0.0:
        return 0.0 if count == round(expected) else math.inf
    return (count - expected) / math.sqrt(variance)


def compare_to_analytic(report: SimReport) -> list[dict]:
    """Count-space comparison rows between the report and the closed forms.

    Each row holds the observed count, the trial count, the analytic
    probability, the expected count, the deviation in binomial standard
    errors, and ``informative``: whether the row expects at least
    ``MIN_EXPECTED`` counts. Gains
    and QBERs test the rate formulas; parity cells test the exclusive
    click probabilities at the two representative encodings; the Eve
    row (beam-split runs only) tests the leakage bound.
    """
    sp = report.system_params()
    rows: list[dict] = []

    def add(name: str, count: int, n: int, p: float) -> None:
        rows.append(
            {
                "name": name,
                "count": count,
                "n": n,
                "p_analytic": p,
                "expected": n * p,
                "sigma": _sigma(count, n, p),
                "informative": n * p >= MIN_EXPECTED,
            }
        )

    e1, e2, e3 = _event_terms(sp.mu_arm, sp.p_d)
    add("q_event1", report.n_event1, report.n_xx, e1.q)
    add("q_event2", report.n_event2, report.n_xx, e2.q)
    add("q_event3", report.n_event3, report.n_xx, e3.q)

    # Per-DOF QBERs: a wrong H index is dark-driven and is the Event1 bit
    # error; a wrong pattern class is the rest of the double-click bit
    # error, which averages the two per-DOF rates.
    p_wrong_h = e1.e_bit
    p_wrong_pat = 2.0 * e2.e_bit - e1.e_bit
    add("qber_event1_ph", report.n_err1_ph, report.n_event1, p_wrong_h)
    add("qber_event2_ph", report.n_err2_ph, report.n_event2, p_wrong_h)
    add("qber_event2_pol", report.n_err2_pol, report.n_event2, p_wrong_pat)
    add("qber_event3_ph", report.n_err3_ph, report.n_event3, p_wrong_h)
    add("qber_event3_pol", report.n_err3_pol, report.n_event3, p_wrong_pat)

    for pairing in PolPairing:
        rep_name = pairing.name.lower()
        ints = intensities(detector_amplitudes(pairing.representative(), sp.mu_arm))
        cells = report.parity[rep_name]
        for name, dets, _ in _PATTERNS:
            # product() runs through the parity classes in the cell order
            classes = itertools.product((ClickParity.ODD, ClickParity.EVEN), repeat=len(dets))
            for (cell, count), pars in zip(cells[name].items(), classes):
                p = exclusive_pattern_prob(dets, ints, sp.p_d, pars)
                add(f"parity_{rep_name}_{name}_{cell}", count, cells["n"], p)

    if report.attack == "beam_split":
        leak = ie_dual(TapParams(mu=sp.mu, eta_t=sp.eta_t))
        add("eve_leak", report.n_eve_success, report.n_key_events, leak)
    return rows


def max_abs_sigma(rows: list[dict]) -> float:
    """Largest absolute sigma-delta across comparison rows."""
    return max(abs(row["sigma"]) for row in rows)
