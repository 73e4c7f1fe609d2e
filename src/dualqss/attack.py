"""Eavesdropper leakage bounds under the beam-splitting attack.

Eve replaces the lossy fiber with a lossless one and taps the fraction
1 - eta_t of each pulse with a variable beam splitter, so the receivers
see unchanged statistics. She stores the tapped light and attempts
unambiguous state discrimination (USD) after the basis announcement;
the leakage I_E is the fraction of announced-basis key bits she learns.
Closed forms are provided for the dual encoding and for the three
single-degree-of-freedom comparison protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .optics import check_range, coherent_overlap

__all__ = [
    "TapParams",
    "StateEnsemble",
    "usd_bound",
    "dual_dof_ensemble",
    "ie_dual",
    "ie_wcp_ph",
    "ie_wcp_pol",
    "ie_dps_tf",
]

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class TapParams:
    """Source intensity and total transmittance seen by the receivers.

    Eve taps the complementary fraction 1 - eta_t of each pulse.
    """

    mu: float
    eta_t: float

    def __post_init__(self) -> None:
        fields = vars(self)  # stored as checked, a float: frozen guards setattr, not the dict
        fields["mu"], fields["eta_t"] = check_range("mu", self.mu, 0.0), check_range("eta_t", self.eta_t, 0.0, 1.0)

    @property
    def tapped_mu(self) -> float:
        """Mean photon number of the tapped fraction per pulse."""
        return (1.0 - self.eta_t) * self.mu


@dataclass(frozen=True)
class StateEnsemble:
    """N states given by preparation probabilities and overlap magnitudes."""

    probs: tuple[float, ...]
    overlaps: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.probs)
        if len(self.overlaps) != n or any(len(row) != n for row in self.overlaps):
            raise ValueError("overlap matrix shape must match the probability vector")
        if not all(0.0 <= p < math.inf for p in self.probs):
            raise ValueError(f"probabilities must be finite and non-negative, got {self.probs!r}")
        if abs(sum(self.probs) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probs)!r}")
        for i in range(n):
            if self.overlaps[i][i] != 1.0:  # dual_dof_ensemble's diagonal is exactly 1.0
                raise ValueError(f"overlap matrix diagonal must be 1, got {self.overlaps[i][i]!r}")
            for j in range(n):
                o = self.overlaps[i][j]
                if not 0.0 <= o <= 1.0:
                    raise ValueError(f"overlap magnitudes must be in [0, 1], got {o!r}")
                if abs(o - self.overlaps[j][i]) > _PROB_TOL:
                    raise ValueError("overlap matrix must be symmetric")


def usd_bound(ensemble: StateEnsemble) -> float:
    """Upper bound on the USD success probability for the ensemble.

    1 - (1/(N-1)) * sum_{i != j} sqrt(p_i p_j) |<psi_i|psi_j>|, clamped
    to [0, 1].
    """
    n = len(ensemble.probs)
    if n < 2:
        raise ValueError("USD bound requires at least two states")
    s = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                s += math.sqrt(ensemble.probs[i] * ensemble.probs[j]) * ensemble.overlaps[i][j]
    return min(1.0, max(0.0, 1.0 - s / (n - 1)))


def dual_dof_ensemble(tp: TapParams) -> StateEnsemble:
    """The four equiprobable X-basis states as seen in Eve's tapped modes.

    Each state is a product of H and V coherent states with per-mode
    amplitude beta = sqrt((1 - eta_t) mu / 2) and sign pattern (+,+),
    (-,-), (+,-), (-,+); overlaps are products of per-mode overlaps.
    """
    beta = math.sqrt(tp.tapped_mu / 2.0)
    signs = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
    overlaps = tuple(
        tuple(
            coherent_overlap(si[0] * beta, sj[0] * beta)
            * coherent_overlap(si[1] * beta, sj[1] * beta)
            for sj in signs
        )
        for si in signs
    )
    return StateEnsemble(probs=(0.25, 0.25, 0.25, 0.25), overlaps=overlaps)


def ie_dual(tp: TapParams) -> float:
    """Leakage bound for the dual (polarization + phase) encoding.

    1 - (1/3)[e^{-2x} + 2 e^{-x}] with x = (1 - eta_t) mu. It is a bound
    with slack, not Eve's optimum: the optimal USD success on the four
    tapped states is (1 - e^{-x})^2, and one mode alone gives 1 - e^{-x};
    at mu = 0.4, eta_t = 0.0145 these read 0.399, 0.106 and 0.326.
    """
    return _ie_dual_tapped(tp.tapped_mu)


def _ie_dual_tapped(x: float) -> float:
    """``ie_dual`` as a plain function of the tapped intensity x."""
    return 1.0 - (math.exp(-2.0 * x) + 2.0 * math.exp(-x)) / 3.0


def ie_wcp_ph(tp: TapParams) -> float:
    """Leakage bound for the phase-only WCP protocol: 1 - e^{-2x}."""
    return -math.expm1(-2.0 * tp.tapped_mu)


def ie_wcp_pol(tp: TapParams) -> float:
    """Leakage bound for the polarization-only WCP protocol: 1 - e^{-x}."""
    return -math.expm1(-tp.tapped_mu)


def ie_dps_tf(tp: TapParams) -> float:
    """Collision-probability leakage bound for the DPS twin-field protocol.

    2 mu (1 - eta_t), clamped at 1 since a leakage rate is a probability.
    """
    return min(1.0, 2.0 * tp.tapped_mu)
