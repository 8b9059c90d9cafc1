"""Full-knowledge planning over a deterministic net-energy profile.

Stage 1 minimizes total grid energy over the whole horizon; stage 2
re-solves with the stage-1 cost as a budget and maximizes the terminal
storage sum, so leftover flexibility is banked for later horizons.  Both
stages share one sparse constraint system with about 22 non-zeros per
slot, so building and storing it takes time and memory linear in the
horizon.  The single-BS baseline for savings percentages is the same pair
program restricted to one station: BS 2 gets a zero profile and every
column through which it could act is pinned to zero.
"""

from __future__ import annotations

from typing import Sequence

from .lp import (
    LpProblem,
    LpSolution,
    LpStatus,
    SolverError,
    _ProblemBuilder,
    lp_solve,
)
from .model import (
    ControlAction,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    normalize_action,
    step_state,
)

# Relative slack on the stage-2 cost budget.  Large enough that stage 2 is
# never numerically infeasible, small enough that the cost inflation it
# allows (the whole budget can be converted into terminal storage) stays
# far below the 1e-6 equality tolerances used throughout the test suite.
EPS_LEX_FACTOR = 1e-9

_N_ACTION = 8  # w1 w2 c1 c2 d1 d2 x12 x21 per slot
_PINNED_SINGLE_BS = (1, 3, 5, 6, 7)  # w2 c2 d2 x12 x21


def eps_lex(v1: float) -> float:
    return EPS_LEX_FACTOR * max(1.0, abs(v1))


class Stage2Infeasible(SolverError):
    """Stage 2 rejected a budget that stage 1 certified as attainable."""


def _slot_var(t: int, k: int) -> int:
    return _N_ACTION * t + k


def _state_var(n_slots: int, t: int, bs: int) -> int:
    return _N_ACTION * n_slots + 2 * t + bs


def _pair_problem(params: SystemParams, profile: NetEnergyProfile,
                  ) -> _ProblemBuilder:
    """Shared constraint system of both planning stages."""
    n = params.n_slots
    if profile.n_slots != n:
        raise ValueError(
            f"profile has {profile.n_slots} slots, params say {n}")
    a, b = params.alpha, params.beta

    labels = []
    for t in range(n):
        labels += [f"{name}[{t}]" for name in
                   ("w1", "w2", "c1", "c2", "d1", "d2", "x12", "x21")]
    for t in range(n + 1):
        labels += [f"s1[{t}]", f"s2[{t}]"]

    pb = _ProblemBuilder(_N_ACTION * n + 2 * (n + 1), labels)

    for t in range(n + 1):
        for bs in range(2):
            pb.upper[_state_var(n, t, bs)] = params.s_max

    for bs in range(2):
        pb.add_eq({_state_var(n, 0, bs): 1.0}, params.s_init[bs],
                  f"init_s{bs + 1}")

    for t in range(n):
        w1, w2, c1, c2, d1, d2, x12, x21 = (_slot_var(t, k) for k in range(8))
        s1, s2 = _state_var(n, t, 0), _state_var(n, t, 1)
        s1n, s2n = _state_var(n, t + 1, 0), _state_var(n, t + 1, 1)
        # storage dynamics s(t+1) = s(t) + alpha c(t) - d(t)
        pb.add_eq({s1n: 1.0, s1: -1.0, c1: -a, d1: 1.0}, 0.0, f"dyn1[{t}]")
        pb.add_eq({s2n: 1.0, s2: -1.0, c2: -a, d2: 1.0}, 0.0, f"dyn2[{t}]")
        # energy neutralization, written as <= rows
        pb.add_ub({w1: -1.0, c1: 1.0, d1: -a, x12: 1.0, x21: -b},
                  profile.e1[t], f"neutral1[{t}]")
        pb.add_ub({w2: -1.0, c2: 1.0, d2: -a, x21: 1.0, x12: -b},
                  profile.e2[t], f"neutral2[{t}]")
        # cannot discharge more than is stored
        pb.add_ub({d1: 1.0, s1: -1.0}, 0.0, f"d1_le_s1[{t}]")
        pb.add_ub({d2: 1.0, s2: -1.0}, 0.0, f"d2_le_s2[{t}]")
        if a == 0.0:
            # charging stores nothing; pin it to keep solutions clean
            pb.upper[c1] = 0.0
            pb.upper[c2] = 0.0

    return pb


def build_stage1(params: SystemParams, profile: NetEnergyProfile,
                 ) -> LpProblem:
    """Cost-minimizing program: min total grid draw over the horizon."""
    pb = _pair_problem(params, profile)
    for t in range(params.n_slots):
        pb.objective[_slot_var(t, 0)] = 1.0
        pb.objective[_slot_var(t, 1)] = 1.0
    return pb.build()


def build_stage2(params: SystemParams, profile: NetEnergyProfile,
                 v1: float) -> LpProblem:
    """Storage-maximizing program under the stage-1 cost budget.

    Maximizes s1(N) + s2(N) subject to total grid draw <= v1 + eps_lex(v1).
    """
    n = params.n_slots
    pb = _pair_problem(params, profile)
    pb.objective[_state_var(n, n, 0)] = -1.0
    pb.objective[_state_var(n, n, 1)] = -1.0
    budget = {_slot_var(t, k): 1.0 for t in range(n) for k in (0, 1)}
    pb.add_ub(budget, v1 + eps_lex(v1), "cost_budget")
    return pb.build()


def _extract_trajectory(params: SystemParams, x: Sequence[float],
                        ) -> Trajectory:
    """Turn an LP point into a normalized, dynamics-consistent trajectory."""
    n = params.n_slots
    actions = []
    states = [StorageState(*params.s_init)]
    for t in range(n):
        raw = [max(0.0, x[_slot_var(t, k)]) for k in range(_N_ACTION)]
        action = normalize_action(ControlAction(*raw), params.alpha)
        states.append(step_state(params, states[-1], action))
        actions.append(action)
    return Trajectory(tuple(actions), tuple(states))


def _solve(problem: LpProblem, what: str) -> LpSolution:
    sol = lp_solve(problem)
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverError(f"{what} ended {sol.status.value}")
    return sol


def offline_cost(params: SystemParams, profile: NetEnergyProfile) -> float:
    """Certified minimum total grid draw (the stage-1 optimum).

    ``plan_offline`` realizes this value up to the eps_lex budget slack its
    second stage may convert into terminal storage; use this routine when
    only the cost is needed, it is both cheaper and exact.
    """
    return _solve(build_stage1(params, profile), "stage 1").objective_value


def plan_offline(params: SystemParams, profile: NetEnergyProfile,
                 ) -> Trajectory:
    """Two-stage plan: minimal cost, then maximal terminal storage."""
    v1 = offline_cost(params, profile)
    sol2 = lp_solve(build_stage2(params, profile, v1))
    if sol2.status is not LpStatus.OPTIMAL:
        raise Stage2Infeasible(
            f"stage 2 ended {sol2.status.value} under budget {v1}")
    return _extract_trajectory(params, sol2.x)


def build_single_bs(params: SystemParams, e: Sequence[float]) -> LpProblem:
    """One-station restriction of the pair program (the savings baseline).

    BS 2 sees a zero profile and its grid, charge and discharge columns are
    pinned to zero together with both transfer columns, so only BS 1 can
    act; the objective is BS 1's grid draw.  HiGHS presolve removes the
    fixed columns.
    """
    pb = _pair_problem(params, NetEnergyProfile(e1=e, e2=(0.0,) * len(e)))
    for t in range(params.n_slots):
        pb.objective[_slot_var(t, 0)] = 1.0
        for k in _PINNED_SINGLE_BS:
            pb.upper[_slot_var(t, k)] = 0.0
    return pb.build()


def single_bs_cost(params: SystemParams, e: Sequence[float]) -> float:
    """Minimum grid draw of one isolated station (the savings denominator)."""
    return _solve(build_single_bs(params, e), "single-BS plan").objective_value


def plan_single_bs(params: SystemParams, e: Sequence[float]) -> Trajectory:
    """Cost-optimal plan for one isolated station (the savings baseline).

    The result is expressed as a two-BS trajectory whose BS-2 columns are
    zero, so the usual feasibility checker applies against the profile
    (e, zeros).  Only stage 1 is solved; the baseline is a cost.
    """
    sol = _solve(build_single_bs(params, e), "single-BS plan")
    return _extract_trajectory(params, sol.x)
