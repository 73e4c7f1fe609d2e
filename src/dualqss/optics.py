"""Coherent-state optics for the dual degree-of-freedom encoding.

Each sender encodes one weak coherent pulse in polarization (H/V) and
phase (0/pi). At the middle node the two pulses interfere on a 50:50
beam splitter, each output port passes a polarizing beam splitter, and
the four resulting modes feed threshold detectors D1H, D2H, D1V, D2V.
Because beam splitters map coherent inputs to product coherent outputs,
every mode is fully described by one real amplitude.

``check_range`` is the library's one boundary rule: a parameter is finite
and inside its physical range, or a ValueError names it and words its range
from the bounds. NaN, infinities and integers beyond the float range fail.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "EncodingPair",
    "ModeAmplitudes",
    "ModeIntensities",
    "PolPairing",
    "detector_amplitudes",
    "intensities",
    "poisson_even_mass",
    "poisson_odd_mass",
    "coherent_overlap",
    "binary_entropy",
]

_SQRT2 = math.sqrt(2.0)


# Lower bound of the "positive" rule: for floats and ints, x >= it exactly when x > 0.
SMALLEST_POSITIVE = math.ulp(0.0)


def check_range(name: str, value: float, lo: float = -math.inf, hi: float = math.inf) -> None:
    """Raise ValueError unless ``value`` is finite and lo <= value <= hi.

    The message words the range from the bounds alone: "in [lo, hi]", "non-negative"
    (lo 0), "positive" (lo ``SMALLEST_POSITIVE``), ">= lo", or without bounds "finite".
    """
    try:
        if math.isfinite(value) and lo <= value <= hi:
            return
        got = repr(value)
    except OverflowError:
        got = "an integer beyond the float range"
    lo_s, hi_s = (repr(float(bound)).removesuffix(".0") for bound in (lo, hi))
    rule = (f" and in [{lo_s}, {hi_s}]" if hi < math.inf else " and non-negative" if lo == 0 else
            " and positive" if lo == SMALLEST_POSITIVE else f" and >= {lo_s}" if lo > -math.inf else "")
    raise ValueError(f"{name} must be finite{rule}, got {got}")


def is_integer(value: object) -> bool:
    """True for ints (answered first) and numpy integers; bools and integral floats are not counts."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


@dataclass(frozen=True)
class EncodingPair:
    """The four classical bits behind one round.

    ``ka_ph``/``ka_pol`` are the first sender's phase and polarization
    bits, ``kb_ph``/``kb_pol`` the second sender's. Each must be 0 or 1.
    """

    ka_ph: int
    ka_pol: int
    kb_ph: int
    kb_pol: int

    def __post_init__(self) -> None:
        for name, bit in vars(self).items():
            if not (is_integer(bit) and bit in (0, 1)):
                raise ValueError(f"{name} must be 0 or 1, got {bit!r}")


class PolPairing(Enum):
    """Representative polarization sign combination of the two senders.

    The analytic rates condition on the two representatives with
    reference phase bits (0, 0); each carries statistical weight 1/2 and
    the remaining encodings follow by symmetry.
    """

    PLUS_PLUS = "++"
    PLUS_MINUS = "+-"

    def representative(self) -> EncodingPair:
        if self is PolPairing.PLUS_PLUS:
            return EncodingPair(0, 0, 0, 0)
        return EncodingPair(0, 0, 0, 1)


@dataclass(frozen=True)
class ModeAmplitudes:
    """Signed coherent amplitudes in the modes hitting D1H, D2H, D1V, D2V."""

    a_h1: float
    a_h2: float
    a_v1: float
    a_v2: float


@dataclass(frozen=True)
class ModeIntensities:
    """Mean photon numbers arriving at the four detectors."""

    i_h1: float
    i_h2: float
    i_v1: float
    i_v2: float

    def __post_init__(self) -> None:
        for name in ("i_h1", "i_h2", "i_v1", "i_v2"):
            check_range(name, getattr(self, name), 0.0)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.i_h1, self.i_h2, self.i_v1, self.i_v2)


def detector_amplitudes(pair: EncodingPair, mu_arm: float) -> ModeAmplitudes:
    """Mode amplitudes behind the BS and PBSs with both senders in the X basis.

    ``mu_arm`` is the mean photon number of each pulse as it arrives at
    the beam splitter (source intensity already multiplied by the total
    transmittance). Bit-to-sign convention: phase sign s = (-1)**k_ph,
    polarization sign p = (-1)**k_pol, so each sender emits amplitudes
    a_h = s*sqrt(mu_arm/2) and a_v = s*p*sqrt(mu_arm/2). The 50:50 BS
    maps each polarization to (a+b)/sqrt(2) and (a-b)/sqrt(2).
    """
    check_range("mu_arm", mu_arm, 0.0)
    root = math.sqrt(mu_arm / 2.0)
    s_a = 1.0 - 2.0 * pair.ka_ph
    p_a = 1.0 - 2.0 * pair.ka_pol
    s_b = 1.0 - 2.0 * pair.kb_ph
    p_b = 1.0 - 2.0 * pair.kb_pol
    a_h, a_v = s_a * root, s_a * p_a * root
    b_h, b_v = s_b * root, s_b * p_b * root
    return ModeAmplitudes(
        a_h1=(a_h + b_h) / _SQRT2,
        a_h2=(a_h - b_h) / _SQRT2,
        a_v1=(a_v + b_v) / _SQRT2,
        a_v2=(a_v - b_v) / _SQRT2,
    )


def intensities(amps: ModeAmplitudes) -> ModeIntensities:
    """Square the amplitudes into mean photon numbers."""
    return ModeIntensities(
        i_h1=amps.a_h1 ** 2,
        i_h2=amps.a_h2 ** 2,
        i_v1=amps.a_v1 ** 2,
        i_v2=amps.a_v2 ** 2,
    )


def poisson_even_mass(i: float) -> float:
    """Probability of an even photon number >= 2 under Poisson(i).

    Equals e^-i (cosh i - 1); written as expm1(-i)^2 / 2, which is exact
    for small i where the cosh form cancels catastrophically.
    """
    check_range("i", i, 0.0)
    return 0.5 * math.expm1(-i) ** 2


def poisson_odd_mass(i: float) -> float:
    """Probability of an odd photon number under Poisson(i): e^-i sinh i."""
    check_range("i", i, 0.0)
    return -0.5 * math.expm1(-2.0 * i)


def coherent_overlap(alpha: float, beta: float) -> float:
    """Overlap <alpha|beta> of two real-amplitude coherent states."""
    check_range("alpha", alpha)
    check_range("beta", beta)
    d = alpha - beta
    # beyond 40 the exponential is already 0.0, and the square would overflow near 1.3e154
    return math.exp(-0.5 * d ** 2) if abs(d) <= 40.0 else 0.0


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H(x) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))
