"""Per-event gains, error rates, and the asymptotic key rate.

The frozen chain below was evaluated with an independent script using
mpmath-style expanded expressions before the module existed; agreement
is required to 1e-12 relative.
"""

import hashlib
import importlib
import math
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualqss
from dualqss.attack import TapParams, _budget_tapped, ie_dual
from dualqss.detectors import SystemParams
from dualqss.optics import binary_entropy, coherent_overlap
from dualqss.optimize import SweepSpec, SweepVariable, max_distance, sweep
from dualqss.rates import (
    QBER_THRESHOLD_EVENT23_REPORTED,
    EventRates,
    RatePoint,
    _bisect,
    at_distance,
    at_intensity,
    event1_rates,
    event2_rates,
    event3_rates,
    key_rate,
    plob_bound,
    qber_threshold_event1,
)

SP_084_400 = SystemParams(mu=0.84, l_km=400.0)
# Each reaches one branch of rates._event_terms: the overflow-free form
# (arm intensity 1e4 >= _SCALED_FROM_I) and, with s ** 2 below the
# smallest normal float, the masses scaled by 1 / s.
SP_SCALED = SystemParams(mu=1e4, l_km=0.0, eta_d=1.0)
SP_SUBNORMAL_S = SystemParams(mu=1e-170, p_d=0.0)


def test_event1_chain_frozen():
    e1 = event1_rates(SP_084_400)
    assert e1.q == pytest.approx(1.2339770614410125e-05, rel=1e-12)
    assert e1.e_bit == pytest.approx(0.006482943202427557, rel=1e-12)
    assert e1.e_ph == pytest.approx(0.00648895420357228, rel=1e-12)


def test_event2_chain_frozen():
    e2 = event2_rates(SP_084_400)
    assert e2.q == pytest.approx(7.613684844236297e-11, rel=1e-12)
    assert e2.e_bit == pytest.approx(0.009682386251075434, rel=1e-12)
    assert e2.e_ph == pytest.approx(0.012848661336826312, rel=1e-12)


@pytest.mark.parametrize("sp", (SP_084_400, SP_SCALED, SP_SUBNORMAL_S, SystemParams(mu=0.0, p_d=0.0),
                                SystemParams(p_d=1.0), SystemParams(l_km=374.0)),
                         ids=("400km", "scaled", "subnormal_s", "no_clicks", "p_d_1", "374km"))
def test_event3_equals_event2(sp):
    # mirror-image detector patterns: one EventRates, so equal to the last bit on every branch.
    # At 374 km the two summation orders of the double-click bit error round an ulp apart.
    point = key_rate(sp)
    assert point.events[1] is point.events[2]
    assert event3_rates(sp) == event2_rates(sp)
    assert point.r_events[1] == point.r_events[2]


@pytest.mark.parametrize("mu", (0.4, 0.84, 1.5))
def test_event3_reach_equals_event2(mu):
    assert max_distance(mu, SystemParams(), event=3) == max_distance(mu, SystemParams(), event=2)


def test_double_click_numerators_are_one_polynomial():
    """Event3's bit- and phase-error numerators, as _event_terms computed them
    before Event3 began sharing Event2's EventRates, against Event2's, which it
    keeps. Event3 is Event2 with the two pairings swapped (its patterns are half
    lit under ++ where Event2's are lit, and lit under +-), and the pairings weigh
    1/2 each, so both sums collect the same terms: 3uv + v^2 for the bit error
    and 3 go ge + ge^2 + go v + v^2 for the phase error. Checked exactly, in
    rationals, so the only difference the floats saw was summation order."""
    rng = random.Random(20261020)
    for _ in range(200):
        u, v, ge, go = (Fraction(rng.randint(0, 10 ** 9), rng.randint(1, 10 ** 9)) for _ in range(4))
        assert v * u + v * v + 2 * v * u == u * v + 2 * u * v + v * v
        assert ((2 * go * ge + ge * go + ge * ge) + (go * v) + (v * v)
                == (go * v) + (ge * go + 2 * go * ge + ge * ge) + (v * v))


def test_key_rate_frozen():
    point = key_rate(SP_084_400)
    assert point.i_e == pytest.approx(0.6500633068148931, rel=1e-12)
    assert point.r == pytest.approx(2.820032606068101e-06, rel=1e-12)
    assert point.r == pytest.approx(sum(point.r_events), rel=1e-12)
    assert point.l_km == 400.0
    assert point.mu == 0.84


def test_key_rate_second_point_frozen():
    point = key_rate(SystemParams(mu=1.5, l_km=400.0))
    assert point.r == pytest.approx(1.980506672580578e-06, rel=1e-12)


@pytest.mark.parametrize("sp", (SP_084_400, SystemParams(), SystemParams(mu=1.5, l_km=0.0, p_d=0.0),
                                SystemParams(mu=0.0, p_d=0.0), SP_SCALED, SP_SUBNORMAL_S))
def test_result_type_contract(sp):
    point = key_rate(sp)
    assert type(point) is RatePoint
    assert type(point.events) is tuple and type(point.r_events) is tuple
    replaced = point._replace(r=0.0)
    assert type(replaced) is RatePoint and replaced == (point.l_km, point.mu, 0.0, *point[3:])
    assert point._asdict() == dict(zip(RatePoint._fields, point))
    assert point.events[0]._asdict() == dict(zip(EventRates._fields, point.events[0]))
    restored = pickle.loads(pickle.dumps(point))
    assert restored == point and type(restored) is RatePoint
    assert type(restored.events[0]) is EventRates
    assert RatePoint._fields == ("l_km", "mu", "r", "i_e", "events", "r_events")
    assert EventRates._fields == ("q", "e_bit", "e_ph")
    for obj, name in ((point, "r"), (point.events[0], "q")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
    singles = (event1_rates(sp), event2_rates(sp), event3_rates(sp))
    for k in range(3):
        assert type(point.events[k]) is EventRates
        assert point.events[k] == singles[k]
    r1, r2, r3 = point.r_events
    assert point.r == r1 + r2 + r3
    assert dualqss.RatePoint is RatePoint and dualqss.EventRates is EventRates


@pytest.mark.parametrize("variable, lo, hi, step", ((SweepVariable.DISTANCE, 0.0, 500.0, 25.0),
                                                  (SweepVariable.MU, 0.0, 20.0, 0.5)))
def test_sweep_points_are_rate_points(variable, lo, hi, step):
    points = sweep(SweepSpec(variable=variable, lo=lo, hi=hi, step=step, fixed=SP_084_400))
    for point in points:
        assert type(point) is RatePoint
        assert all(type(ev) is EventRates for ev in point.events)


def _point_floats(point):
    yield from point[:4]
    for ev in point.events:
        yield from ev
    yield from point.r_events


def _off_default_floats():
    scaled = [SystemParams(mu=mu, l_km=0.0, eta_d=1.0, p_d=p_d)
              for mu in (354.6, 400.0, 1e4, 1e300) for p_d in (0.0, 1e-9, 8e-8, 1e-3, 0.5, 1.0)]
    subnormal_s = [SystemParams(mu=mu, p_d=p_d)
                   for mu in (1e-300, 1e-250, 1e-200, 1e-170, 3e-160, 1e-155)
                   for p_d in (0.0, 1e-300, 1e-170, 5e-160)]
    for sp in (*scaled, *subnormal_s, SystemParams(mu=0.0, p_d=0.0),
               SystemParams(p_d=1.0), SystemParams(eta_d=1.0), SystemParams(mu=20.0)):
        yield from _point_floats(key_rate(sp))
    for mu in (0.4, 0.84, 1.5):
        for event in (1, 2, 3):
            yield max_distance(mu, SystemParams(), event=event)
    spec = SweepSpec(variable=SweepVariable.MU, lo=0.0, hi=20.0, step=0.01,
                     fixed=SystemParams(l_km=0.0))
    for point in sweep(spec):
        yield from _point_floats(point)


OFF_DEFAULT_SHA256 = "d92be9041ebe77d6d6ea9ee313fd2954e8fa8b3402d77c057580048514c9e9c7"


def test_off_default_digest():
    """SHA-256 of the repr of every float of key_rate at 24 overflow-free
    (scaled) points, 24 subnormal-s points, mu = p_d = 0 (no clicks),
    p_d = 1, eta_d = 1 and mu = 20; of max_distance per event (1, 2, 3)
    at mu = 0.4, 0.84, 1.5; and of a mu sweep over [0, 20] at 0 km. The
    analytic chain digest of test_optimize sees the default parameters
    only, which never leave the ordinary branch of _event_terms. Recorded
    before the rate results were built through tuple.__new__, so it pins
    that change to the last bit on every branch. Re-recorded when Event3
    began sharing Event2's EventRates: only Event3's e_bit moved (<= 2 ulp).
    Re-recorded for the expm1 leakage (i_e, 0.0 -> 4x/3 at the subnormal-s
    points) and the factored Event2/3 e_ph (<= 4 ulp), with the rates they feed."""
    h = hashlib.sha256()
    for value in _off_default_floats():
        h.update(repr(value).encode() + b"\n")
    assert h.hexdigest() == OFF_DEFAULT_SHA256


def test_package_exports_every_module_all():
    modules = [importlib.import_module(f"dualqss.{name}") for name in
               ("attack", "detectors", "montecarlo", "optics", "optimize", "rates")]
    assert len(dualqss.__all__) == len(set(dualqss.__all__))
    assert set(dualqss.__all__) == {n for m in modules for n in m.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(dualqss, name) is getattr(module, name)


def test_event1_phase_error_without_darks():
    # with p_d=0 the phase error is the even-photon fraction of clicks
    sp = SystemParams(mu=0.84, l_km=100.0, p_d=0.0)
    i = sp.mu_arm
    expected = (math.cosh(i) - 1.0) / (math.exp(i) - 1.0)
    assert event1_rates(sp).e_ph == pytest.approx(expected, rel=1e-12)
    assert event1_rates(sp).e_bit == 0.0


def test_gain_positive_and_small():
    for l_km in (0.0, 100.0, 300.0):
        e1 = event1_rates(SystemParams(mu=0.84, l_km=l_km))
        assert 0.0 < e1.q < 1.0


def test_rate_unimodal_in_distance():
    # short links still pay a large even-photon phase-error penalty, so
    # the curve rises for the first ~19 km before decaying to death
    rising = [key_rate(SystemParams(mu=0.84, l_km=float(l))).r for l in range(0, 11)]
    for a, b in zip(rising, rising[1:]):
        assert b > a
    falling = [key_rate(SystemParams(mu=0.84, l_km=float(l))).r for l in range(30, 451)]
    for a, b in zip(falling, falling[1:]):
        if a > 0.0:
            assert b < a


def test_rate_clamps_to_zero_beyond_reach():
    point = key_rate(SystemParams(mu=0.84, l_km=600.0))
    # +0.0, not -0.0: the clamp compares, and 0.0 + 0.0 keeps the sign
    for r in (point.r, *point.r_events):
        assert r == 0.0 and math.copysign(1.0, r) == 1.0


def test_per_event_clamping_is_independent():
    # between the double-click death and the single-click death only
    # the Event1 term survives
    point = key_rate(SystemParams(mu=0.84, l_km=445.0))
    assert point.r_events[0] > 0.0
    assert point.r_events[1] == 0.0
    assert point.r_events[2] == 0.0


@settings(max_examples=40)
@given(st.floats(min_value=0.05, max_value=2.5, allow_nan=False),
       st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
def test_error_rates_bounded(mu, l_km):
    sp = SystemParams(mu=mu, l_km=l_km)
    for rates in (event1_rates(sp), event2_rates(sp), event3_rates(sp)):
        assert 0.0 <= rates.e_bit <= 0.5
        assert 0.0 <= rates.e_ph <= 1.0
        assert rates.q >= 0.0


def test_plob_bound_frozen():
    assert plob_bound(400.0) == pytest.approx(1.4426950481024389e-08, rel=1e-12)
    assert plob_bound(0.0) == math.inf
    assert plob_bound(100.0) > plob_bound(200.0)


def test_float32_parameters_are_computed_in_float64():
    # A numpy float32 is stored as the float it checked, so the rate reads the same bits as that
    # float does; computed in float32 it differed by 4.7e-8 relative.
    sp = SystemParams(mu=np.float32(0.84), l_km=400.0)
    assert type(sp.mu) is float and type(TapParams(mu=1.0, eta_t=np.float32(0.5)).eta_t) is float
    assert key_rate(sp) == key_rate(SystemParams(mu=float(np.float32(0.84)), l_km=400.0))


@pytest.mark.parametrize("call", (
    lambda: coherent_overlap(np.float32(0.5), 1e200),
    lambda: plob_bound(1e200, np.float32(0.5)),
    lambda: ie_dual(TapParams(mu=1e200, eta_t=np.float32(0.5))),
), ids=("coherent_overlap", "plob_bound", "ie_dual"))
def test_float32_beside_a_huge_float_emits_no_overflow(call):
    # In float32 the huge float overflowed in its cast, a RuntimeWarning that
    # the suite's warnings-as-errors turns into an exception.
    assert math.isfinite(call())


@pytest.mark.parametrize("l_km, alpha, name", (
    (float("nan"), 0.2, "l_km"),
    (float("inf"), 0.2, "l_km"),
    (-1.0, 0.2, "l_km"),
    (100.0, float("nan"), "alpha"),
    (100.0, float("inf"), "alpha"),
    (100.0, -0.2, "alpha"),
    pytest.param(10**400, 0.2, "l_km", id="10**400-0.2-l_km"),
    pytest.param(100.0, 10**400, "alpha", id="100.0-10**400-alpha"),
))
def test_plob_bound_rejects_bad_input(l_km, alpha, name):
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
        plob_bound(l_km, alpha=alpha)


def test_qber_threshold_event1_frozen():
    assert qber_threshold_event1(SP_084_400) == pytest.approx(
        0.023890333206538786, abs=1e-9)


def test_qber_threshold_limits():
    # mu=0 taps nothing, so the whole unit budget covers the entropy
    # terms: f=1 solves 2 H(e) = 1
    assert qber_threshold_event1(SystemParams(mu=0.0, f=1.0)) == pytest.approx(
        0.11002786443835955, abs=1e-9)
    # a blinding-bright source leaks everything and tolerates nothing
    assert qber_threshold_event1(SystemParams(mu=30.0)) < 1e-6
    # cheaper error correction tolerates more noise
    assert qber_threshold_event1(SystemParams(mu=0.84, f=1.0)) > qber_threshold_event1(SP_084_400)


QBER_THRESHOLD_SHA256 = "b642fe8809bb9e28168aa7fe88fc1ce716e48414b6150c22a17efaeee2a1d7bd"


def test_qber_threshold_digest():
    """SHA-256 of the newline-joined reprs of qber_threshold_event1 at
    mu = 0.01, 0.1, 0.4, 0.84, 1.5, 2, 5, 10, 20 times f = 1, 1.15, 2.
    Recorded while the solver still ran a fixed 100 halvings, so it pins
    the move to a bisection that stops at adjacent floats. Re-recorded when the
    budget became (e^-2x + 2 e^-x)/3 in place of 1 - I_E: 13 of 27 values moved."""
    values = [repr(qber_threshold_event1(SystemParams(mu=mu, f=f)))
              for mu in (0.01, 0.1, 0.4, 0.84, 1.5, 2.0, 5.0, 10.0, 20.0) for f in (1.0, 1.15, 2.0)]
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == QBER_THRESHOLD_SHA256


def _threshold_predicate(sp):
    budget = _budget_tapped(sp.mu)
    return lambda e: (1.0 + sp.f) * binary_entropy(e) < budget


@pytest.mark.parametrize("mu", (0.84, 30.0, 37.0))
def test_bisect_ends_on_adjacent_floats(mu):
    # mu = 30 and 37 put the threshold near 1e-16 and 1e-18, deeper than
    # 100 fixed halvings of [0, 0.5] reach
    sp = SystemParams(mu=mu)
    below = _threshold_predicate(sp)
    lo, hi = _bisect(below, 0.0, 0.5)
    assert below(lo) and not below(hi)
    assert 0.0 < lo and hi == math.nextafter(lo, math.inf)
    assert qber_threshold_event1(sp) == 0.5 * (lo + hi)


@pytest.mark.parametrize("tol", (0.1, 1e-3, 1e-9))
def test_bisect_stops_at_tolerance(tol):
    below = _threshold_predicate(SP_084_400)
    lo, hi = _bisect(below, 0.0, 0.5, tol)
    assert below(lo) and not below(hi)
    assert tol / 2.0 < hi - lo <= tol


@pytest.mark.parametrize("mu", (37.1, 40.0))
def test_qber_threshold_positive_where_one_minus_ie_rounds_to_zero(mu):
    # 1 - I_E rounds to 0 from mu = 37.1 though the leakage is not complete; the budget
    # (e^-2x + 2 e^-x)/3 does not, so the threshold is still a positive solution
    sp = SystemParams(mu=mu)
    threshold = qber_threshold_event1(sp)
    assert 0.0 < threshold < 1e-17 and _threshold_predicate(sp)(math.nextafter(threshold, 0.0))


def test_reported_threshold_constant():
    assert QBER_THRESHOLD_EVENT23_REPORTED == 0.0208


def test_at_distance_and_at_intensity():
    sp = SystemParams(mu=0.84, l_km=100.0)
    moved = at_distance(sp, 400.0)
    assert moved.l_km == 400.0
    assert moved.mu == sp.mu
    scaled = at_intensity(sp, 1.5)
    assert scaled.mu == 1.5
    assert scaled.l_km == 100.0


# The whole valid domain; mu reaches far past the ~354.5 arm intensity
# at which 2 e^2I overflows. The 1e-12 slack on the error rates is rounding:
# at p_d = 1 an error rate already evaluates to 0.5000000000000002.
_ERROR_RATE_MAX = 0.5 + 1e-12

domain_st = st.builds(
    SystemParams,
    mu=st.one_of(st.floats(min_value=0.0, max_value=50.0),
                 st.floats(min_value=50.0, max_value=sys.float_info.max)),
    l_km=st.floats(min_value=0.0, max_value=1000.0),
    eta_d=st.floats(min_value=0.0, max_value=1.0),
    p_d=st.floats(min_value=0.0, max_value=1.0),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    f=st.floats(min_value=1.0, max_value=3.0),
)


@settings(max_examples=300)
@given(domain_st)
def test_key_rate_finite_and_non_negative(sp):
    point = key_rate(sp)
    assert math.isfinite(point.r) and point.r >= 0.0
    assert all(math.isfinite(r) and r >= 0.0 for r in point.r_events)


@settings(max_examples=300)
@given(domain_st)
def test_error_rates_within_half(sp):
    for ev in key_rate(sp).events:
        assert 0.0 <= ev.e_bit <= _ERROR_RATE_MAX
        assert 0.0 <= ev.e_ph <= _ERROR_RATE_MAX


@settings(max_examples=300)
@given(domain_st)
def test_event_rate_is_zero_exactly_when_bracket_is_not_positive(sp):
    point = key_rate(sp)
    for ev, r in zip(point.events, point.r_events):
        bracket = 1.0 - point.i_e - binary_entropy(ev.e_ph) - sp.f * binary_entropy(ev.e_bit)
        # q * bracket can also be zero for a positive bracket: q is zero
        # without clicks (eta_d = p_d = 0) or at p_d = 1, or the product
        # underflows.
        assert (r == 0.0) == (bracket <= 0.0 or ev.q * bracket == 0.0)


@pytest.mark.parametrize("mu", (354.0, 354.6, 354.9, 400.0, 1e4, 1e300, sys.float_info.max))
@pytest.mark.parametrize("p_d", (0.0, 8e-8, 1.0))
def test_key_rate_at_huge_intensity(mu, p_d):
    # 2 e^2I overflows past I ~ 354.54; the rate stays finite and is zero,
    # since the even-parity phase error of a bright lit detector is 1/2
    point = key_rate(SystemParams(mu=mu, l_km=0.0, eta_d=1.0, p_d=p_d))
    assert point.r == 0.0
    for ev in point.events:
        assert all(math.isfinite(x) for x in (ev.q, ev.e_bit, ev.e_ph))
        assert ev.e_ph == pytest.approx(0.5, abs=1e-12)


def test_event_rates_continuous_across_overflow_edge():
    # the overflow-free form takes over at I = ln(max float / 2) / 2
    edge = 0.5 * math.log(0.5 * sys.float_info.max)
    below = key_rate(SystemParams(mu=math.nextafter(edge, 0.0), l_km=0.0, eta_d=1.0, p_d=1e-3))
    above = key_rate(SystemParams(mu=edge, l_km=0.0, eta_d=1.0, p_d=1e-3))
    for a, b in zip(below.events, above.events):
        assert b.q == pytest.approx(a.q, rel=1e-12)
        assert b.e_bit == pytest.approx(a.e_bit, rel=1e-12)
        assert b.e_ph == pytest.approx(a.e_ph, rel=1e-12)
