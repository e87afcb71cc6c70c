"""Steady-state simulator for a dissipative three-cavity ring.

Two Kerr-nonlinear cavities are coupled directly through a complex-phase
hop and indirectly through a lossy linear bridge cavity.  The package
builds the Lindblad generator of the driven system, solves for its steady
state, and evaluates transmissions, photon-number statistics, and
equal-time correlation functions for both drive directions, alongside an
independent analytic scattering-matrix treatment of the linearized
network.
"""

__version__ = "0.1.0"

# each module's __all__ is the one list of the names it exports
from .errors import *  # noqa: F401,F403
from .fock import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .lindblad import *  # noqa: F401,F403
from .observables import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403
