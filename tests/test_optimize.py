"""Sweeps, intensity optimization, and the reach search."""

import gc
import hashlib
import math
import sys

import numpy as np
import pytest

from dualqss import optimize
from dualqss.detectors import SystemParams
from dualqss.optimize import (
    SweepSpec,
    SweepVariable,
    max_distance,
    optimize_mu,
    sweep,
)
from dualqss.rates import _bracket, _rate_point, at_distance, at_intensity, key_rate

SP = SystemParams(mu=0.84, l_km=400.0)


# --- sweep ---

def test_sweep_distance_points():
    spec = SweepSpec(variable=SweepVariable.DISTANCE, lo=0.0, hi=100.0, step=25.0, fixed=SP)
    points = sweep(spec)
    assert [p.l_km for p in points] == [0.0, 25.0, 50.0, 75.0, 100.0]
    assert all(p.mu == 0.84 for p in points)


def test_sweep_intensity_points():
    spec = SweepSpec(variable=SweepVariable.MU, lo=0.2, hi=1.0, step=0.2, fixed=SP)
    points = sweep(spec)
    assert [round(p.mu, 10) for p in points] == [0.2, 0.4, 0.6, 0.8, 1.0]
    assert all(p.l_km == 400.0 for p in points)


def test_sweep_handles_inexact_step():
    # 0.1 steps accumulate float error; the grid must still hit hi
    spec = SweepSpec(variable=SweepVariable.MU, lo=0.1, hi=0.5, step=0.1, fixed=SP)
    values = spec.values()
    assert len(values) == 5
    assert values[-1] == pytest.approx(0.5, abs=1e-12)


def test_sweep_spec_stores_checked_floats():
    # numpy float32 bounds are stored as the floats that check_range returns, so the grid
    # and its rates are those of the same bounds given as floats, not float32 arithmetic
    lo, hi, step = np.float32(0.0), np.float32(0.3), np.float32(0.1)
    spec = SweepSpec(variable=SweepVariable.DISTANCE, lo=lo, hi=hi, step=step, fixed=SP)
    plain = SweepSpec(variable=SweepVariable.DISTANCE, lo=float(lo), hi=float(hi), step=float(step), fixed=SP)
    assert {type(value) for value in (spec.lo, spec.hi, spec.step, *spec.values())} == {float}
    assert spec.values() == plain.values() and sweep(spec) == sweep(plain)


@pytest.mark.parametrize("fixed", (SP, SystemParams(mu=1.3, alpha=0.27, l_km=80.0, eta_d=0.6,
                                                   p_d=3e-4, f=1.4)))
@pytest.mark.parametrize("variable, lo, hi, step, at", (
    (SweepVariable.DISTANCE, 0.0, 460.0, 0.5, at_distance),
    (SweepVariable.MU, 0.0, 3.0, 0.01, at_intensity),
))
def test_sweep_points_equal_key_rate(fixed, variable, lo, hi, step, at):
    # the per-point kernel must give the very floats of key_rate
    spec = SweepSpec(variable=variable, lo=lo, hi=hi, step=step, fixed=fixed)
    assert sweep(spec) == [key_rate(at(fixed, value)) for value in spec.values()]


@pytest.mark.parametrize("variable, name", ((SweepVariable.DISTANCE, "l_km"),
                                            (SweepVariable.MU, "mu")))
def test_sweep_rejects_negative_lo(variable, name):
    spec = SweepSpec(variable=variable, lo=-1.0, hi=1.0, step=0.5, fixed=SP)
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
        sweep(spec)


@pytest.mark.parametrize("enabled, fails", ((True, False), (False, False), (True, True)),
                         ids=("enabled", "disabled", "kernel-raises"))
def test_sweep_restores_collector_state(monkeypatch, enabled, fails):
    # sweep pauses the cyclic collector while it builds points and hands back the caller's state
    seen = []

    def kernel(*args):
        seen.append(gc.isenabled())
        if fails:
            raise ZeroDivisionError("kernel")
        return _rate_point(*args)

    monkeypatch.setattr("dualqss.optimize._rate_point", kernel)
    spec = SweepSpec(variable=SweepVariable.DISTANCE, lo=0.0, hi=100.0, step=25.0, fixed=SP)
    try:
        if not enabled:
            gc.disable()
        if fails:
            with pytest.raises(ZeroDivisionError, match="kernel"):
                sweep(spec)
        else:
            assert len(sweep(spec)) == 5
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_sweep_points_form_no_cycles():
    # The pause in sweep defers collections only because the points hold no reference
    # cycles; if this fails, the pause defers real garbage and must be withdrawn.
    dark = SystemParams(p_d=0.0)
    gc.disable()
    try:
        gc.collect()
        sweep(SweepSpec(variable=SweepVariable.DISTANCE, lo=0.0, hi=500.0, step=0.5, fixed=SP))
        # mu = 0 at p_d = 0 shares one EventRates three times; mu = 1e308 is far past e^I's overflow
        points = sweep(SweepSpec(variable=SweepVariable.MU, lo=0.0, hi=1e308, step=1e306, fixed=dark))
        assert points[0].events[0] is points[0].events[2]
        del points
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(variable=SweepVariable.MU, lo=1.0, hi=0.5, step=0.1, fixed=SP)
    with pytest.raises(ValueError):
        SweepSpec(variable=SweepVariable.MU, lo=0.1, hi=0.5, step=0.0, fixed=SP)
    # anything but a member was once swept as mu over the given range
    for variable in ("L", None):
        with pytest.raises(ValueError, match="variable must be a SweepVariable member"):
            SweepSpec(variable=variable, lo=0.0, hi=100.0, step=50.0, fixed=SP)


@pytest.mark.parametrize("lo, hi, step", ((0.1, 0.2, 1e-300), (0.0, 1e7, 1.0), (-1e308, 1e308, 1.0)))
def test_sweep_spec_rejects_too_many_points(lo, hi, step):
    # only the constructor: values() on such a spec would exhaust memory
    with pytest.raises(ValueError, match="at most"):
        SweepSpec(variable=SweepVariable.MU, lo=lo, hi=hi, step=step, fixed=SP)


def test_sweep_spec_accepts_point_cap():
    spec = SweepSpec(variable=SweepVariable.MU, lo=0.0, hi=9_999_999.0, step=1.0, fixed=SP)
    assert spec.hi == 9_999_999.0


@pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
@pytest.mark.parametrize("name", ("lo", "hi", "step"))
def test_sweep_spec_rejects_non_finite(name, value):
    bounds = {"lo": 0.1, "hi": 0.5, "step": 0.1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SweepSpec(variable=SweepVariable.MU, fixed=SP, **bounds)


# --- intensity optimization ---

def test_optimize_beats_endpoints():
    from dualqss.rates import key_rate, at_distance, at_intensity
    res = optimize_mu(400.0, SP, method="grid")
    sp400 = at_distance(SP, 400.0)
    for mu in (0.1, 2.0):
        assert res.best_rate >= key_rate(at_intensity(sp400, mu)).r


def test_optimize_dead_zone_returns_lower_bound():
    # beyond reach every candidate rates zero; ties break low
    res = optimize_mu(600.0, SP, method="grid", bounds=(0.1, 2.0))
    assert res.best_rate == 0.0
    assert res.best_mu == 0.1


def test_optimize_rejects_bad_bounds():
    with pytest.raises(ValueError):
        optimize_mu(400.0, SP, bounds=(1.0, 0.5))
    # an infinite or out-of-float-range upper bound is named as bounds, not as the mu evaluated there
    for hi in (math.inf, 10**400):
        with pytest.raises(ValueError, match="bounds must be finite"):
            optimize_mu(400.0, SP, bounds=(0.1, hi))
    for method in ("golden", "genetic", "annealing"):
        with pytest.raises(ValueError, match="method must be 'grid'"):
            optimize_mu(400.0, SP, method=method)


@pytest.mark.parametrize("bounds", ((1e-320, 2e-320), (5e-324, 1e-323), (1e-300, 1e-300 + 1e-306)))
def test_optimize_refuses_subnormal_grid_step(bounds):
    # a 60th of these spans is subnormal, where the SweepSpec grid would
    # not have 61 points
    with pytest.raises(ValueError, match="bounds must satisfy 0 < lo < hi with a normal grid step"):
        optimize_mu(400.0, SP, bounds=bounds)


def test_optimize_accepts_smallest_normal_grid_step():
    tiny = sys.float_info.min
    bounds = (tiny, 61.0 * tiny)
    step = (bounds[1] - bounds[0]) / 60
    assert step == tiny
    assert len(SweepSpec(variable=SweepVariable.MU, lo=bounds[0], hi=bounds[1], step=step,
                         fixed=SP).values()) == 61
    res = optimize_mu(400.0, SP, bounds=bounds)
    assert res.best_rate == 0.0 and res.best_mu == bounds[0]


def test_optimize_survives_huge_intensity_bounds():
    res = optimize_mu(400.0, SystemParams(), bounds=(0.1, 1e300))
    assert res.best_rate == pytest.approx(optimize_mu(400.0, SystemParams()).best_rate, rel=1e-9)


# --- reach ---

def test_max_distance_frozen():
    assert max_distance(0.84, SP) == pytest.approx(458.2, abs=0.5)
    assert max_distance(1.5, SP) == pytest.approx(441.7, abs=0.5)


def test_max_distance_per_event():
    assert max_distance(0.84, SP, event=1) == pytest.approx(458.2, abs=0.5)
    assert max_distance(0.84, SP, event=2) == pytest.approx(434.3, abs=0.5)
    assert max_distance(0.84, SP, event=3) == pytest.approx(434.3, abs=0.5)


def test_max_distance_rate_sign_at_edge():
    from dualqss.rates import key_rate, at_distance, at_intensity
    sp = at_intensity(SP, 0.84)
    edge = max_distance(0.84, SP)
    # bracket property at the default 0.1 km resolution
    assert key_rate(at_distance(sp, edge)).r > 0.0
    assert key_rate(at_distance(sp, edge + 0.1)).r == 0.0


@pytest.mark.parametrize("mu, sp", (
    # positive on about [300.4, 304.7] km only, between two scan points
    (4.472, SP),
    # positive on about [0, 9.7] and [59.9, 672.6] km
    (0.8, SystemParams(eta_d=0.9, alpha=0.16)),
))
def test_max_distance_is_the_edge_of_the_farthest_window(mu, sp):
    base = at_intensity(sp, mu)
    edge = max_distance(mu, sp)
    assert key_rate(at_distance(base, edge)).r > 0.0
    beyond = [edge + 0.1 + 0.5 * k for k in range(int((1000.0 - edge) / 0.5))]
    assert all(key_rate(at_distance(base, l_km)).r == 0.0 for l_km in beyond)


def test_max_distance_requires_dead_upper_bound():
    with pytest.raises(ValueError):
        max_distance(0.84, SP, l_hi=300.0)


def test_max_distance_no_positive_window():
    # heavy darks kill the rate at every distance
    dead = SystemParams(mu=0.84, p_d=0.4)
    with pytest.raises(ValueError):
        max_distance(0.84, dead)


@pytest.mark.parametrize("event", (4, 0, 1.0, True, "1"))
def test_max_distance_event_validation(event):
    # 1.0 once failed deep in the rate closure; True gave Event1's reach
    with pytest.raises(ValueError, match="event must be None, 1, 2, or 3"):
        max_distance(0.84, SP, event=event)


def test_max_distance_accepts_numpy_event():
    assert max_distance(0.84, SP, event=np.int64(2)) == max_distance(0.84, SP, event=2)


@pytest.mark.parametrize("bad", (0.0, -1.0, float("nan"), float("inf"),
                                 pytest.param(10**400, id="10**400")))
def test_max_distance_rejects_bad_tolerance(bad):
    # 0 and -1 would never end the bisection, NaN would skip it
    with pytest.raises(ValueError, match="tol_km must be finite and positive"):
        max_distance(0.84, SP, tol_km=bad)
    # the same values as the scan's upper bound are named as l_hi, not as
    # the l_km of the rate evaluated there
    with pytest.raises(ValueError, match="l_hi must be finite and positive"):
        max_distance(0.84, SP, l_hi=bad)


@pytest.mark.parametrize("l_hi", (1e12, 2e8, sys.float_info.max))
def test_max_distance_refuses_unbounded_scan(l_hi):
    # more scan points at 20 km than a SweepSpec may have: 1e12 km alone
    # would be 5e10 points and days of work
    with pytest.raises(ValueError, match=r"l_hi=.* needs more than 10000000 scan points"):
        max_distance(0.84, SP, l_hi=l_hi)


@pytest.mark.parametrize("mu", (0.84, 4.472))
def test_max_distance_tolerance_below_float_resolution(mu):
    # bisection (0.84) and golden section (4.472, a window between scan
    # points) stop once their ends are adjacent floats
    base = at_intensity(SP, mu)
    edge = max_distance(mu, SP, tol_km=1e-300)
    assert key_rate(at_distance(base, edge)).r > 0.0
    assert key_rate(at_distance(base, math.nextafter(edge, math.inf))).r == 0.0


@pytest.mark.parametrize("event", (None, 1, 2, 3))
def test_max_distance_brackets_event2_once_per_point(event, monkeypatch):
    # At mu = 4.472 no scan point has a positive rate, so the window search scans the
    # brackets: 66 points, two brackets each, since Event3's EventRates is Event2's object.
    calls = []

    def counting(*args):
        calls.append(args)
        return _bracket(*args)

    monkeypatch.setattr(optimize, "_bracket", counting)
    if event in (None, 1):
        assert max_distance(4.472, SystemParams(), event=event) == 304.6957243435744
    else:
        with pytest.raises(ValueError, match="key rate is zero everywhere"):
            max_distance(4.472, SystemParams(), event=event)
    assert len(calls) == 132


# --- the analytic chain at full precision ---

ANALYTIC_CHAIN_SHA256 = "65040db331583c66cef253516c812a96f98238ad666ca9404446ab3f77bf438b"


def _float_digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode())
        h.update(b"\n")
    return h.hexdigest()


def _point_floats(point):
    yield from (point.l_km, point.mu, point.r, point.i_e)
    for e in point.events:
        yield from (e.q, e.e_bit, e.e_ph)
    yield from point.r_events


def _analytic_chain_floats():
    sp = SystemParams()
    for spec in (
        SweepSpec(variable=SweepVariable.DISTANCE, lo=0.0, hi=460.0, step=0.05, fixed=sp),
        SweepSpec(variable=SweepVariable.MU, lo=0.3, hi=1.5, step=0.001,
                  fixed=at_distance(sp, 400.0)),
    ):
        for point in sweep(spec):
            yield from _point_floats(point)
    for l_km in range(0, 500, 50):
        res = optimize_mu(float(l_km), sp)
        yield from (res.best_mu, res.best_rate, res.evaluations)
    for k in range(1, 21):
        yield max_distance(k / 10, sp)


def test_analytic_chain_digest():
    """SHA-256 of the repr of every number of the distance sweep (0-460 km,
    step 0.05), the mu sweep (0.3-1.5, step 0.001, at 400 km), optimize_mu
    at 0, 50, ..., 450 km and max_distance at mu = 0.1, ..., 2.0, all at
    the default SystemParams. The figure CSVs are written with %.10g and
    cannot see a last-bit drift; this can. The digest was recorded before
    the result types became NamedTuples, so it also pins that change.
    Re-recorded when Event3 began sharing Event2's EventRates: only Event3's
    e_bit (<= 2 ulp, another summation order) and r_event3 moved. Re-recorded
    for the expm1 leakage and products in place of powers: i_e (<= 2 ulp), the
    factored Event2/3 e_ph (<= 4 ulp), a few q2/e_bit2/e_ph1 (<= 2 ulp), and the
    rates and best rates they feed (the bracket cancels near the death distance).
    Re-recorded when the closed forms came to be taken on the masses times e^-I
    divided by their sum: the event outputs moved by at most 9 ulp, the rates they
    feed by up to 4,574 ulp where the bracket cancels, best_mu not at all."""
    assert _float_digest(_analytic_chain_floats()) == ANALYTIC_CHAIN_SHA256
