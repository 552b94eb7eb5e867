"""Simulation and verification toolkit for measurement-based feedback
control of a single cavity mode: truncated-Fock-space trajectory
integrators, classical and quantum Kalman-type filters, a PID-controlled
closed loop, transfer-function tools, and Monte Carlo verdicts.  The
package re-exports each module's ``__all__``, all but ``cli``'s."""

from cavityfilter import (classical, control, errors, fock, lti, mc, qkf,
                          trajectory)
from cavityfilter.classical import *
from cavityfilter.control import *
from cavityfilter.errors import *
from cavityfilter.fock import *
from cavityfilter.lti import *
from cavityfilter.mc import *
from cavityfilter.qkf import *
from cavityfilter.trajectory import *

__version__ = "0.1.0"

__all__ = []
__all__ += classical.__all__
__all__ += control.__all__
__all__ += errors.__all__
__all__ += fock.__all__
__all__ += lti.__all__
__all__ += mc.__all__
__all__ += qkf.__all__
__all__ += trajectory.__all__
