"""Synchronization analysis for finite Kuramoto oscillator networks.

Simulates networks with arbitrary connected topology, non-uniform
symmetric coupling and non-identical natural frequencies, and provides the
machinery to certify synchronization: invariant sets, coupling-gain
thresholds, equilibrium location, linearized stability classification,
nontangency rank tests, and Lyapunov diagnostics. Each module's
``__all__`` is its public API; this package re-exports the six below.
"""

from .analysis import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .netfile import *  # noqa: F403
from .network import *  # noqa: F403
from .planar import *  # noqa: F403

__version__ = "0.1.0"
