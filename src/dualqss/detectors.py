"""Threshold-detector response model for the middle node's four detectors.

Each detector sees an independent Poisson photon count with mean equal
to its mode intensity, plus an independent dark count with probability
p_d per gate. A clicked detector is classified Even when its photon
count is even (a dark-count click on vacuum counts as Even, since zero
is even) and Odd otherwise; the Even class is the one that corrupts the
interference-based inference.

One function, ``exclusive_pattern_prob``, gives the probability that
exactly a given set of detectors clicks, optionally with a parity class
per clicked detector; the detectors are independent, so it is a product
of per-detector terms. ``exclusive_single_click`` is its one-detector
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable

from .optics import ModeIntensities, check_range, is_integer, poisson_even_mass, poisson_odd_mass

__all__ = [
    "Detector",
    "ClickParity",
    "SystemParams",
    "arm_efficiency",
    "click_prob",
    "exclusive_single_click",
    "exclusive_pattern_prob",
]


class Detector(IntEnum):
    """Detector indices in the fixed order used by ModeIntensities."""

    D1H = 0
    D2H = 1
    D1V = 2
    D2V = 3


class ClickParity(Enum):
    ODD = "odd"
    EVEN = "even"


@dataclass(frozen=True)
class SystemParams:
    """Physical and protocol parameters of one configuration.

    mu      source mean photon number per pulse
    alpha   fiber attenuation in dB/km
    l_km    total distance between the two senders
    eta_d   detector efficiency
    p_d     dark count probability per detector per gate
    f       error-correction inefficiency (>= 1)
    """

    mu: float = 0.84
    alpha: float = 0.2
    l_km: float = 100.0
    eta_d: float = 0.145
    p_d: float = 8e-8
    f: float = 1.15

    def __post_init__(self) -> None:
        fields, inf = vars(self), math.inf  # stored as checked, a float: frozen guards setattr, not the dict
        for name, lo, hi in (("mu", 0.0, inf), ("alpha", 0.0, inf), ("l_km", 0.0, inf), ("eta_d", 0.0, 1.0),
                             ("p_d", 0.0, 1.0), ("f", 1.0, inf)):
            fields[name] = check_range(name, fields[name], lo, hi)

    @property
    def eta_t(self) -> float:
        """End-to-end per-arm efficiency; see ``arm_efficiency``."""
        return arm_efficiency(self.eta_d, self.alpha, self.l_km)

    @property
    def mu_arm(self) -> float:
        """Mean photon number of one sender's pulse at the beam splitter."""
        return self.eta_t * self.mu


def arm_efficiency(eta_d: float, alpha: float, l_km: float) -> float:
    """End-to-end per-arm efficiency eta_d * 10^(-alpha l / 20).

    Each sender's pulse travels half the total distance, hence the 20 in
    the exponent; detector efficiency is merged in. Checks nothing.
    """
    return eta_d * 10.0 ** (-alpha * l_km / 20.0)


def click_prob(i: float, p_d: float) -> float:
    """Probability that a threshold detector clicks: 1 - (1 - p_d) e^-i.

    Rejects p_d outside [0, 1], as ``exclusive_pattern_prob`` does.
    """
    check_range("i", i, 0.0)
    check_range("p_d", p_d, 0.0, 1.0)
    return -math.expm1(-i) + p_d * math.exp(-i)


def exclusive_single_click(
    target: Detector,
    parity: ClickParity | None,
    ints: ModeIntensities,
    p_d: float,
) -> float:
    """Probability that exactly ``target`` clicks, in the given parity class.

    ``parity=None`` accepts any click. The three other detectors must
    register neither photons nor dark counts.
    """
    return exclusive_pattern_prob((target,), ints, p_d, (parity,))


def exclusive_pattern_prob(
    clicked: Iterable[Detector],
    ints: ModeIntensities,
    p_d: float,
    parities: Iterable[ClickParity | None] | None = None,
) -> float:
    """Probability that exactly the given detector subset clicks.

    ``parities`` gives one parity class per clicked detector, in the
    order of ``clicked``, where None accepts any click; ``parities=None``
    accepts any click on every detector. A detector may be listed twice
    only with the same class. Detectors are independent, so the pattern
    probability factorizes into the no-click terms of the others and the
    classified click terms of the clicked ones.
    """
    clicked = list(clicked)
    parities = [None] * len(clicked) if parities is None else list(parities)
    if len(parities) != len(clicked):
        raise ValueError(f"need one parity per clicked detector, got {len(parities)} "
                         f"for {len(clicked)}")
    classes: dict[int, ClickParity | None] = {}
    for d, parity in zip(clicked, parities):
        if not (is_integer(d) and 0 <= d <= 3):
            raise ValueError(f"clicked must contain detector indices, got {d!r}")
        if parity is not None and not isinstance(parity, ClickParity):
            raise ValueError(f"parities must be ClickParity members or None, got {parity!r}")
        if classes.setdefault(d, parity) is not parity:
            raise ValueError(f"detector {d!r} listed with conflicting parities")
    check_range("p_d", p_d, 0.0, 1.0)
    i = ints.as_tuple()
    prob = 1.0  # the others' no-click terms in detector order, then the click terms in listed order
    for d in range(4):
        if d not in classes:
            prob *= (1.0 - p_d) * math.exp(-i[d])
    for d, parity in classes.items():  # Even: photon numbers >= 2, or the vacuum with a dark count
        prob *= (click_prob(i[d], p_d) if parity is None else poisson_odd_mass(i[d])
                 if parity is ClickParity.ODD else poisson_even_mass(i[d]) + p_d * math.exp(-i[d]))
    return prob
