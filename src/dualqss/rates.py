"""Per-event gains and error rates, the asymptotic key rate, the
repeaterless reference bound, and the tolerable-QBER solver.

Event1 is a lone click on one H detector (D1H or D2H); Event2 a
same-index double click (D1H,D1V or D2H,D2V); Event3 a cross-index
double click (D1H,D2V or D2H,D1V). Event1 yields the phase bit only,
Event2/3 yield both bits. All closed forms condition on the two
representative polarization pairings with reference phase bits (0, 0);
the other encodings contribute identically by symmetry.

Shorthand used throughout, with I the per-port intensity eta_t * mu of
a lit detector and p_d the dark count probability:

    u  = e^I - 1 + p_d   any-click mass of a lit detector
    v  = p_d             any-click mass of an unlit detector
    ge = cosh I - 1 + p_d  even-classified click mass (lit)
    go = sinh I            odd-classified click mass (lit)

All gains are probabilities per emitted pulse pair: the two pairings
carry weight 1/2 each, so Q1 = c (u + v) and Q2 = Q3 = (b/2)(u + v)^2
with c = (1 - p_d)^3 e^-2I and b = (1 - p_d)^2 e^-2I the no-click
factors of the spectator detectors. Error rates divide the
pairing-conditional error terms by twice the conditional-gain sum,
which leaves them independent of the overall normalization. Event3 is
Event2 with the two equally weighted pairings swapped, so each of its
numerators is Event2's polynomial and the whole ``EventRates`` is shared,
one object built once per point. The Monte-Carlo module cross-checks
every one of these quantities, Event3 from its own truth-table columns.

One path evaluates all of this: ``_event_terms`` (the only copy of each closed form),
``_bracket`` (the only copy of the secret fraction, which ``max_distance`` also reads
unclamped) and the kernel ``_rate_point`` take plain, already validated floats, compute each
intermediate once per point and build each NamedTuple result once, through ``tuple.__new__``
as ``namedtuple._make`` does: the class's Python-level ``__new__`` would add a frame per
result. The ``EventRates`` triple of ``_event_terms`` is ``RatePoint.events`` itself. The
kernel clamps each bracket by a comparison, ``b if b > 0.0 else 0.0``: -0.0 and NaN give +0.0,
as ``max(0.0, b)`` did. Integer powers are products, and ``s * s`` is taken once: ``x ** 2``
calls libm ``pow``, 48 ns against 20 ns for ``x * x`` (Python 3.11, 2 vCPU), and is not always
correctly rounded where the product is. It stays scalar ``math`` code: on the arguments of the
analytic chain numpy differs from ``math`` in the last bit for 24% of ``sinh``, 5% of ``exp``
and ``10.0 ** x``, and 0.1-0.2% of ``expm1`` and ``log2`` inputs, which would change the curves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from typing import NamedTuple

from .attack import _budget_tapped, _ie_dual_tapped
from .detectors import SystemParams
from .optics import binary_entropy, check_range

__all__ = [
    "EventRates",
    "RatePoint",
    "event1_rates",
    "event2_rates",
    "event3_rates",
    "key_rate",
    "plob_bound",
    "qber_threshold_event1",
    "at_distance",
    "at_intensity",
    "QBER_THRESHOLD_EVENT23_REPORTED",
]

# Reported tolerable QBER for the double-click events. No single-line
# equation reproduces it (the Event1 analog (1+f)H(e) = 1 - I_E does
# reproduce the 2.39% single-click threshold), so the value is recorded
# here and flagged unverified by the CLI rather than derived.
QBER_THRESHOLD_EVENT23_REPORTED = 0.0208

# From this arm intensity on, 2 s * s ~ 2 e^2I is inf, which would zero the double-click error rates.
_SCALED_FROM_I = 0.5 * math.log(0.5 * sys.float_info.max)
_FLOAT_MIN = sys.float_info.min  # smallest normal float

_new = tuple.__new__  # _new(Cls, values) is Cls(*values) without a __new__ frame, as in _make


class EventRates(NamedTuple):
    """Gain and error rates of one event class; built by ``tuple.__new__`` once per point.

    q       probability of the event per emitted pulse pair
    e_bit   bit error rate of the announced key bits
    e_ph    phase error rate bounding the privacy amplification
    """

    q: float
    e_bit: float
    e_ph: float


class RatePoint(NamedTuple):
    """One evaluated point of the rate curve; built by ``tuple.__new__`` once per point."""

    l_km: float
    mu: float
    r: float
    i_e: float
    events: tuple[EventRates, EventRates, EventRates]
    r_events: tuple[float, float, float]


def _event_terms(i: float, p_d: float) -> tuple[EventRates, EventRates, EventRates]:
    """``EventRates`` of Event1, Event2 and Event3 at arm intensity ``i``; Events 2 and 3 share one."""
    c = 1.0 - p_d
    if i >= _SCALED_FROM_I:
        # 2 s * s and then e^I would overflow. Take the masses times e^-I: every error rate is a
        # ratio of forms of equal degree in them, so it stays as it is, and the e^-2I of the
        # no-click factors folds into the gains.
        x = math.exp(-i)
        v = p_d * x
        t = math.expm1(-i)
        u = -t + v
        ge = 0.5 * (t * t) + v
        go = -0.5 * math.expm1(-2.0 * i)
        s = u + v
        k1, k2 = x, 1.0  # what is left of the no-click factors e^-2I once s carries e^-I
    else:
        u = math.expm1(i) + p_d
        v = p_d
        h = math.sinh(0.5 * i)
        ge = 2.0 * (h * h) + p_d
        go = math.sinh(i)
        s = u + v
        if s == 0.0:
            return (EventRates(0.0, 0.0, 0.0),) * 3
        k1 = k2 = math.exp(-2.0 * i)  # the no-click factor of the gains
    s2 = s * s
    q1 = c * c * c * k1 * s
    q = 0.5 * (c * c * k2) * s2
    event1 = _new(EventRates, (q1, v / s, ge / s))
    denom = 2.0 * s2
    if denom < _FLOAT_MIN:
        # s * s is subnormal or zero (I and p_d both below ~1e-154). The double-click error rates
        # are ratios of quadratic forms in the masses, so take them on the masses scaled by 1 / s.
        u, v, ge, go = u / s, v / s, ge / s, go / s
        denom = 2.0
    n_ph = ge * (3.0 * go + ge) + v * (go + v)
    double = _new(EventRates, (q, (v * u + v * v + 2.0 * v * u) / denom, n_ph / denom))
    return event1, double, double


def event1_rates(sp: SystemParams) -> EventRates:
    """Single H-detector click: gain and error rates.

    The lone click is D1H (lit under phase-agreeing pairs) or D2H; the
    bit error collects the dark-driven wrong-detector terms and the
    phase error the even-parity terms of the lit detector.
    """
    return _event_terms(sp.mu_arm, sp.p_d)[0]


def event2_rates(sp: SystemParams) -> EventRates:
    """Same-index double click (D1H,D1V or D2H,D2V): gain and error rates.

    Conditional on pairing ++ the lit ports are (H1, V1); conditional on
    +- they are (H1, V2), so one clicked detector of each same-index
    pattern is dark-driven. The phase-error numerator sums the
    parity-weighted terms (coefficient 2 where both bits flip):
    2(o,e) + (e,o) + (e,e) on the lit pattern, (e,o) + (o,e) on the
    half-lit pattern, and (e,e) + (o,e) on the unlit pattern.
    """
    return _event_terms(sp.mu_arm, sp.p_d)[1]


def event3_rates(sp: SystemParams) -> EventRates:
    """Cross-index double click (D1H,D2V or D2H,D1V): the values of ``event2_rates``.

    Mirror image of the same-index event: conditional on ++ the cross
    patterns are half lit, conditional on +- the (H1, V2) pattern is
    fully lit, and the both-dark pattern is conditioned on the pairing
    that leaves both of its detectors unlit. Swapping the pairings maps
    one event onto the other.
    """
    return _event_terms(sp.mu_arm, sp.p_d)[2]


def _bracket(i_e: float, e_bit: float, e_ph: float, f: float) -> float:
    """Unclamped secret fraction 1 - I_E - H(e_ph) - f H(e_bit) of one event."""
    return 1.0 - i_e - binary_entropy(e_ph) - f * binary_entropy(e_bit)


def _rate_point(mu: float, l_km: float, eta_t: float, p_d: float, f: float) -> RatePoint:
    """``key_rate`` on plain floats that the caller has already validated."""
    events = _event_terms(eta_t * mu, p_d)
    (q1, e_bit1, e_ph1), (q2, e_bit2, e_ph2), _ = events
    i_e = _ie_dual_tapped((1.0 - eta_t) * mu)
    r1 = q1 * (b if (b := _bracket(i_e, e_bit1, e_ph1, f)) > 0.0 else 0.0)
    r2 = r3 = q2 * (b if (b := _bracket(i_e, e_bit2, e_ph2, f)) > 0.0 else 0.0)
    # left to right, as sum() adds before Python 3.12: 0 + r1 == r1 since each r >= +0.0
    return _new(RatePoint, (l_km, mu, r1 + r2 + r3, i_e, events, (r1, r2, r3)))


def key_rate(sp: SystemParams) -> RatePoint:
    """Asymptotic key rate R = sum_i Q_i [1 - I_E - H(E_ph) - f H(E_bit)].

    Each per-event bracket is clamped below at zero before summing, so a
    dying event cannot subtract from live ones and per-event rates are
    exact zeros beyond their death distance.
    """
    return _rate_point(sp.mu, sp.l_km, sp.eta_t, sp.p_d, sp.f)


def plob_bound(l_km: float, alpha: float = 0.2) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta_ch) of the channel.

    eta_ch = 10^(-alpha l / 10) is the end-to-end power transmittance.
    Returns +inf at zero distance.
    """
    l_km, alpha = check_range("l_km", l_km, 0.0), check_range("alpha", alpha, 0.0)
    eta_ch = 10.0 ** (-alpha * l_km / 10.0)
    if eta_ch >= 1.0:
        return math.inf
    return -math.log1p(-eta_ch) / math.log(2.0)


def _bisect(below, lo: float, hi: float, tol: float = 0.0) -> tuple[float, float]:
    """Halve [lo, hi], keeping ``below(lo)`` true and ``below(hi)`` false,
    until it is at most ``tol`` wide or its midpoint is one of its ends."""
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def qber_threshold_event1(sp: SystemParams) -> float:
    """Largest tolerable single-click QBER at the long-distance limit.

    Solves (1 + f) H(e) = 1 - I_E(mu, eta_t -> 0) for e in (0, 0.5) by
    bisection down to adjacent floats, taking equal bit and phase error
    rates at threshold. Returns 0 where the budget 1 - I_E underflows to 0.
    """
    budget = _budget_tapped(sp.mu)
    if budget <= 0.0:
        return 0.0
    scale = 1.0 + sp.f
    lo, hi = _bisect(lambda e: scale * binary_entropy(e) < budget, 0.0, 0.5)
    return 0.5 * (lo + hi)


def at_distance(sp: SystemParams, l_km: float) -> SystemParams:
    """Copy of ``sp`` evaluated at another distance."""
    return replace(sp, l_km=l_km)


def at_intensity(sp: SystemParams, mu: float) -> SystemParams:
    """Copy of ``sp`` evaluated at another source intensity."""
    return replace(sp, mu=mu)
