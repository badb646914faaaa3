"""Information backflow under coherently controlled lossy qubit channels.

The package simulates a qubit channel family whose canonical decoherence
rates include an always-negative one, builds two coherent-control
configurations over pairs of channel copies (order superposition and
channel-choice superposition with a control qubit), and detects information
backflow through the time derivative of the probe-pair trace distance.
Closed-form output states, derivative formulas, backflow thresholds and
(a, p) region scans are all cross-checked against direct supermap
simulation and an RK4 master-equation oracle.
"""

import types

from .channel import (
    CptpReport,
    KrausChannel,
    apply,
    choi_matrix,
    completeness_residual,
    eternal_nm_generator,
    integrate_canonical,
    phi_t_kraus,
    validate_cptp,
)
from .control import (
    AmplitudeVectors,
    ControlConfig,
    build_supermap,
    closed_form_output,
    controlled_output,
    path_config,
    path_kraus,
    switch_config,
    switch_kraus,
)
from .detect import (
    BACKFLOW_EPS,
    BackflowReport,
    RegionScan,
    analytic_derivative,
    asymptotic_threshold,
    central_difference,
    detect_backflow,
    log_time_grid,
    probe_distance,
    probe_pair,
    scan_region,
)
from .qmat import (
    PostSelectionImpossibleError,
    check_density_operator,
    dagger,
    kron,
    project_control,
    pure_state,
    trace_distance,
)

# Every name imported above is public; the submodules themselves are not.
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
__version__ = "0.1.0"
