"""Key rates of a dual-degree-of-freedom quantum secret sharing protocol.

Three parties share weak coherent pulses carrying one bit in the
relative phase and one in the polarization of each pulse pair. The
modules compute detection statistics at the combining receiver, the
eavesdropper's beam-splitting information bound, the resulting
asymptotic key rate, and Monte-Carlo cross-checks of all of it.
"""

from .attack import (
    StateEnsemble,
    TapParams,
    dual_dof_ensemble,
    ie_dps_tf,
    ie_dual,
    ie_wcp_ph,
    ie_wcp_pol,
    usd_bound,
)
from .detectors import (
    ClickParity,
    Detector,
    SystemParams,
    click_prob,
    exclusive_pattern_prob,
    exclusive_single_click,
)
from .montecarlo import (
    SimConfig,
    SimReport,
    compare_to_analytic,
    max_abs_sigma,
    simulate,
    simulate_beam_split,
    simulate_dishonest_bob,
)
from .optics import (
    EncodingPair,
    ModeAmplitudes,
    ModeIntensities,
    PolPairing,
    all_encoding_pairs,
    binary_entropy,
    coherent_overlap,
    detector_amplitudes,
    intensities,
    poisson_even_mass,
    poisson_odd_mass,
)
from .optimize import (
    OptResult,
    SweepSpec,
    SweepVariable,
    max_distance,
    optimize_mu,
    sweep,
)
from .rates import (
    QBER_THRESHOLD_EVENT23_REPORTED,
    EventRates,
    RatePoint,
    at_distance,
    at_intensity,
    event1_rates,
    event2_rates,
    event3_rates,
    key_rate,
    plob_bound,
    qber_threshold_event1,
)

__version__ = "0.1.0"

__all__ = [
    "ClickParity",
    "Detector",
    "EncodingPair",
    "EventRates",
    "ModeAmplitudes",
    "ModeIntensities",
    "OptResult",
    "PolPairing",
    "QBER_THRESHOLD_EVENT23_REPORTED",
    "RatePoint",
    "SimConfig",
    "SimReport",
    "StateEnsemble",
    "SweepSpec",
    "SweepVariable",
    "SystemParams",
    "TapParams",
    "all_encoding_pairs",
    "at_distance",
    "at_intensity",
    "binary_entropy",
    "click_prob",
    "coherent_overlap",
    "compare_to_analytic",
    "detector_amplitudes",
    "dual_dof_ensemble",
    "event1_rates",
    "event2_rates",
    "event3_rates",
    "exclusive_pattern_prob",
    "exclusive_single_click",
    "ie_dps_tf",
    "ie_dual",
    "ie_wcp_ph",
    "ie_wcp_pol",
    "intensities",
    "key_rate",
    "max_abs_sigma",
    "max_distance",
    "optimize_mu",
    "plob_bound",
    "poisson_even_mass",
    "poisson_odd_mass",
    "qber_threshold_event1",
    "simulate",
    "simulate_beam_split",
    "simulate_dishonest_bob",
    "sweep",
    "usd_bound",
]
