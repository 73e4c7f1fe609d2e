"""Parameter search over the key-rate surface.

Best source intensity at a fixed distance (a ``SweepSpec`` grid plus
golden-section refinement), maximum reachable distance at a fixed
intensity, and grid sweeps for curve generation.
Each varies one parameter over a range whose two ends are validated
once; every point then goes through the plain-float kernel of ``rates``
and gives the same floats as ``key_rate``.
``sweep`` pauses the cyclic collector, as its points hold no cycles but stay GC-tracked.
"""

from __future__ import annotations

import gc
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .detectors import SystemParams, arm_efficiency
from .optics import SMALLEST_POSITIVE, check_range, is_integer
from .rates import RatePoint, _bisect, _bracket, _rate_point, at_distance, at_intensity

__all__ = [
    "SweepVariable",
    "SweepSpec",
    "OptResult",
    "sweep",
    "optimize_mu",
    "max_distance",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 61
_GOLDEN_TOL = 1e-6
_SCAN_STEP_KM = 20.0

# Largest grid a SweepSpec may describe. The densest shipped sweep has
# 9,201 points; a tiny step would otherwise exhaust memory in values().
_MAX_SWEEP_POINTS = 10_000_000


class SweepVariable(Enum):
    DISTANCE = "L"
    MU = "mu"


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: sweep ``variable`` from lo to hi in steps of
    ``step``, holding the other parameters of ``fixed``."""

    variable: SweepVariable
    lo: float
    hi: float
    step: float
    fixed: SystemParams

    def __post_init__(self) -> None:
        if not isinstance(self.variable, SweepVariable):
            raise ValueError(f"variable must be a SweepVariable member, got {self.variable!r}")
        check_range("lo", self.lo)
        check_range("hi", self.hi)
        check_range("step", self.step, SMALLEST_POSITIVE)
        if self.hi < self.lo:
            raise ValueError(f"hi must be >= lo, got [{self.lo!r}, {self.hi!r}]")
        if (self.hi - self.lo) / self.step + 1 > _MAX_SWEEP_POINTS:
            raise ValueError(f"sweep must have at most {_MAX_SWEEP_POINTS} points; raise step")

    def values(self) -> list[float]:
        # Relative epsilon so that e.g. (0.3 - 0.0) / 0.1 lands on 3 points.
        n = int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return [self.lo + k * self.step for k in range(n)]


@dataclass(frozen=True)
class OptResult:
    best_mu: float
    best_rate: float
    evaluations: int
    method: str


def _curve(
    sp: SystemParams, variable: SweepVariable, lo: float, hi: float
) -> Callable[[float], RatePoint]:
    """Key rate of ``sp`` against ``variable`` on [lo, hi]. Each constraint
    of ``SystemParams`` is an interval, so checking the ends covers [lo, hi]."""
    distance = variable is SweepVariable.DISTANCE
    at = at_distance if distance else at_intensity
    at(sp, lo)
    at(sp, hi)
    if distance:
        mu, eta_d, alpha, p_d, f = sp.mu, sp.eta_d, sp.alpha, sp.p_d, sp.f
        return lambda l_km: _rate_point(mu, l_km, arm_efficiency(eta_d, alpha, l_km), p_d, f)
    l_km, eta_t, p_d, f = sp.l_km, sp.eta_t, sp.p_d, sp.f
    return lambda mu: _rate_point(mu, l_km, eta_t, p_d, f)


def sweep(spec: SweepSpec) -> list[RatePoint]:
    """Evaluate the rate at every grid value, in grid order, with the cyclic collector
    paused: the points hold no cycles but stay GC-tracked. A caller's disabled state is kept;
    the switch is process-wide: a concurrent sweep may re-enable it early, costing only speed."""
    values = spec.values()
    rate = _curve(spec.fixed, spec.variable, values[0], values[-1])
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [rate(value) for value in values]
    finally:
        if enabled:
            gc.enable()


def _golden_section(rate, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    evaluations = 0
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = rate(x1), rate(x2)
    evaluations += 2
    # each pass moves a up or b down until that meets float resolution
    while b - a > tol and a < x1 < x2 < b:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = rate(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = rate(x1)
        evaluations += 1
    best = x1 if f1 >= f2 else x2
    return best, max(f1, f2), evaluations


def optimize_mu(
    l_km: float,
    sp: SystemParams,
    bounds: tuple[float, float] = (0.1, 2.0),
    method: str = "grid",
) -> OptResult:
    """Source intensity maximizing the key rate at ``l_km``.

    The 61-point ``SweepSpec`` grid over ``bounds`` (its step must be a
    normal float), then golden-section refinement around the grid maximum.
    ``method`` must be "grid", the only method. Ties break toward the
    lower intensity (the grid keeps the first maximum, and a refinement
    result is adopted only when it is strictly better).
    """
    mu_lo, mu_hi = bounds
    check_range("bounds", mu_hi)
    step = (mu_hi - mu_lo) / (_GRID_POINTS - 1) if 0.0 < mu_lo < mu_hi else 0.0
    if step < sys.float_info.min:
        raise ValueError(f"bounds must satisfy 0 < lo < hi with a normal grid step, got {bounds!r}")
    if method != "grid":
        raise ValueError(f"method must be 'grid', got {method!r}")

    rate_at = _curve(at_distance(sp, l_km), SweepVariable.MU, mu_lo, mu_hi)
    grid = SweepSpec(variable=SweepVariable.MU, lo=mu_lo, hi=mu_hi, step=step, fixed=sp).values()
    best = max(map(rate_at, grid), key=lambda point: point.r)
    lo, hi = max(mu_lo, best.mu - step), min(mu_hi, best.mu + step)
    refined_mu, refined_rate, extra = _golden_section(lambda mu: rate_at(mu).r, lo, hi, _GOLDEN_TOL)
    best_mu, best_rate = (refined_mu, refined_rate) if refined_rate > best.r else (best.mu, best.r)
    return OptResult(best_mu=best_mu, best_rate=best_rate, evaluations=len(grid) + extra, method="grid")


def max_distance(
    mu: float,
    sp: SystemParams,
    l_hi: float = 1000.0,
    event: int | None = None,
    tol_km: float = 0.1,
) -> float:
    """Largest distance with a positive (per-event) key rate.

    The positive-rate region can be one or more windows of [0, l_hi],
    some narrower than the scan step (at high intensity the even-parity
    phase error kills the rate at short distance too). A coarse scan
    takes the farthest grid point with a positive rate. Without one, the
    unclamped bracket 1 - I_E - H(e_ph) - f H(e_bit) (of the best event,
    for the total rate) is scanned instead, and golden-section search in
    the two cells around its best grid point finds a window between grid
    points; it stays local because the brackets turn again deep in the
    negative tail. Bisection then sharpens the upper edge. The clamped
    rates are exact zeros beyond the edge, so the predicate is exact
    positivity. Raises when the scan would pass the sweep point limit,
    no positive point is found or the rate is still positive at ``l_hi``.
    """
    if event is not None and not (is_integer(event) and 1 <= event <= 3):
        raise ValueError(f"event must be None, 1, 2, or 3, got {event!r}")
    check_range("l_hi", l_hi, SMALLEST_POSITIVE)
    check_range("tol_km", tol_km, SMALLEST_POSITIVE)
    n_scan = int(math.ceil(l_hi / _SCAN_STEP_KM))
    if n_scan >= _MAX_SWEEP_POINTS:
        raise ValueError(f"l_hi={l_hi!r} km needs more than {_MAX_SWEEP_POINTS} scan points; lower l_hi")
    rate_at = _curve(at_intensity(sp, mu), SweepVariable.DISTANCE, 0.0, l_hi)

    def rate(l_km: float) -> float:
        point = rate_at(l_km)
        return point.r if event is None else point.r_events[event - 1]

    if rate(l_hi) > 0.0:
        raise ValueError(f"rate still positive at l_hi={l_hi!r} km; raise l_hi")

    def bracket(l_km: float) -> float:
        point = rate_at(l_km)  # Event3's EventRates is Event2's object, so its bracket is b2
        b1, b2 = (_bracket(point.i_e, e.e_bit, e.e_ph, sp.f) for e in point.events[:2])
        return max(b1, b2) if event is None else (b1, b2, b2)[event - 1]

    grid = [k * l_hi / n_scan for k in range(n_scan + 1)]
    lo = next((g for g in reversed(grid) if rate(g) > 0.0), None)
    if lo is None:
        margins = [bracket(g) for g in grid]
        best = margins.index(max(margins))
        lo = _golden_section(bracket, grid[max(best - 1, 0)], grid[min(best + 1, n_scan)], tol_km)[0]
        if rate(lo) <= 0.0:
            raise ValueError(f"key rate is zero everywhere on [0, {l_hi!r}] km")
    hi = next((g for g in grid if g > lo), l_hi)
    # the positive end of the bracket: rate(result) > 0 >= rate(result + tol)
    return _bisect(lambda l_km: rate(l_km) > 0.0, lo, hi, tol_km)[0]
