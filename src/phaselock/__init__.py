"""Synchronization analysis for finite Kuramoto oscillator networks.

Simulates networks with arbitrary connected topology, non-uniform
symmetric coupling and non-identical natural frequencies, and provides the
machinery to certify synchronization: invariant sets, coupling-gain
thresholds, equilibrium location, linearized stability classification,
nontangency rank tests, and Lyapunov diagnostics.
"""

from .analysis import (
    INDETERMINATE,
    SEMISTABLE_CANDIDATE,
    UNSTABLE,
    AttractingSetReport,
    CouplingBounds,
    InvarianceReport,
    SetHMembership,
    StabilityReport,
    attracting_set_check,
    classify_stability,
    coupling_bounds,
    in_set_h,
    invariance_certificate,
    linearize,
    lyapunov_v2_along,
    lyapunov_v3,
    nontangency_rank_test,
    onset_lower_bounds,
    solve_equilibrium,
    sufficient_gain_bounds,
    sync_frequency,
    uniform_critical_gain,
)
from .dynamics import (
    EdgeState,
    Trajectory,
    edge_transform,
    g_matrix,
    simulate,
    simulate_many,
    theta_dot,
    vector_field_grid,
    wrap_phase,
)
from .errors import (
    DivergenceError,
    NetworkFileError,
    NoEquilibriumError,
    OutOfDomainError,
    SingularJacobianError,
)
from .netfile import parse_network, write_network
from .network import (
    OscillatorNetwork,
    edge_count,
    edge_index,
    edge_laplacian,
    edge_pairs,
    incidence_matrix,
    is_connected,
)
from .planar import (
    GlobalSyncReport,
    PlanarParams,
    SlopeInterval,
    direction_cone_estimate,
    drift_region_fixed_point,
    global_sync_verdict,
    in_region_g,
    nontangency_planar,
    phase_difference_rate,
    phase_locked_offset,
    planar_field,
    region_g_bounds,
    simulate_planar,
)

__version__ = "0.1.0"
