"""Key rates of a dual-degree-of-freedom quantum secret sharing protocol.

Three parties share weak coherent pulses carrying one bit in the
relative phase and one in the polarization of each pulse pair. The
modules compute detection statistics at the combining receiver, the
eavesdropper's beam-splitting information bound, the resulting
asymptotic key rate, and Monte-Carlo cross-checks of all of it.

The package exports every module's public names; each module's
``__all__`` is the one list of them.
"""

from . import attack, detectors, montecarlo, optics, optimize, rates
from .attack import *
from .detectors import *
from .montecarlo import *
from .optics import *
from .optimize import *
from .rates import *

__version__ = "0.1.0"

__all__ = []
__all__ += attack.__all__
__all__ += detectors.__all__
__all__ += montecarlo.__all__
__all__ += optics.__all__
__all__ += optimize.__all__
__all__ += rates.__all__
