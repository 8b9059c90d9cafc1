"""Energy cooperation between two hybrid-powered base stations.

Plan and simulate grid/renewable-supplied base stations that share energy
over a lossy power line and buffer it in lossy finite storage: an offline
LP planner for known profiles, a closed-form greedy online controller, and
a hybrid of the two for partially predictable profiles.
"""

__version__ = "0.1.0"

from .model import (
    ControlAction,
    FeasibilityReport,
    InvalidState,
    LengthMismatch,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    check_feasible,
    normalize_actions,
    save_trajectory,
    total_cost,
)
from .lp import LpInfeasible, LpProblem, LpSolution, SolverError, lp_solve
from .offline import (
    Stage2Infeasible,
    build_stage1,
    build_stage2,
    plan_offline,
    plan_single_bs,
)
from .greedy import greedy_step_with_case, run_greedy
from .hybrid import (
    DecomposedProfile,
    HybridResult,
    residual_profile,
    run_hybrid_stream,
)
from .profiles import (
    ParseError,
    add_gaussian_noise,
    load_profile,
    sinusoid,
)
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    default_spec,
    run_experiment,
    write_result,
)
