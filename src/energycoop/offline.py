"""Full-knowledge planning over a deterministic net-energy profile.

Stage 1 minimizes total grid energy over the whole horizon; stage 2
re-solves with the stage-1 cost as a budget and maximizes the terminal
storage sum, so leftover flexibility is banked for later horizons.  Every
offline program derives from the stage-1 program: a sparse constraint
system with about 22 non-zeros per slot, assembled once per plan in one
numpy pass, in time and memory linear in the horizon.  Stage 2 edits it
into a new objective and one more ``cost_budget`` row and shares every
other array; the single-BS baseline restricts it to one station (BS 2
gets a zero profile and every column through which it could act is
pinned to zero).  ``lp_solve`` returns a certified optimum or raises; an
infeasible stage 2 raises ``Stage2Infeasible``.  A plan is its certified
point: the action columns normalized in one array pass and the storage
columns clipped onto [0, s_max].  Plans are solved cold; ``offline_costs``
re-solves stage 1 warm across profiles.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix, vstack

from .lp import LpInfeasible, LpProblem, LpSession, lp_solve
from .model import (
    ControlAction,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    check_slots,
    normalize_actions,
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


class Stage2Infeasible(LpInfeasible):
    """Stage 2 rejected a budget that stage 1 certified as attainable."""


# Column of a constraint entry, counted from slot t's first action column
# (8t) or from its storage pair (s1[t] at 8N + 2t, s2[t] one further).
_ACT, _STO = 0, 1


def _per_slot(n: int, rows: Sequence[tuple],
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR index arrays of constraint rows repeated every slot.

    ``rows`` lists each row's entries (base, offset, value) in ascending
    column order, the order CSR keeps within a row.  Returns indptr (with
    the end), column indices and values, slot-major.
    """
    base, offset, value = (np.array(v) for v in zip(
        *(entry for entries in rows for entry in entries)))
    t = np.arange(n)[:, None]
    indices = np.where(base == _STO, _N_ACTION * n + 2 * t,
                       _N_ACTION * t) + offset
    starts = np.cumsum([0] + [len(entries) for entries in rows])
    indptr = np.append((len(value) * t + starts[:-1]).ravel(),
                       len(value) * n)
    return indptr, indices.ravel(), np.tile(value, n)


def _csr(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
         n_vars: int) -> csr_matrix:
    a = csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_vars))
    # explicit zeros (alpha = 0, beta = 0) are dropped so the backend sees
    # only structural non-zeros
    a.eliminate_zeros()
    return a


def _ub_rhs(params: SystemParams, profile: NetEnergyProfile) -> np.ndarray:
    """Stage-1 ub right-hand sides: e1, e2 on the neutral rows, else 0."""
    check_slots("profile", profile.n_slots, params.n_slots)
    zeros = np.zeros((params.n_slots, 2))
    return np.column_stack((profile.e1, profile.e2, zeros)).ravel()


def build_stage1(params: SystemParams, profile: NetEnergyProfile,
                 ) -> LpProblem:
    """Cost-minimizing program: min total grid draw over the horizon.

    Columns: the actions w1 w2 c1 c2 d1 d2 x12 x21 of slot t at 8t + k,
    then the storage levels s1[t], s2[t] at 8N + 2t + bs for t = 0 .. N.
    Eq rows: init_s1, init_s2, then dyn1[t], dyn2[t] at 2 + 2t + bs.  Ub
    rows: neutral1[t], neutral2[t], d1_le_s1[t], d2_le_s2[t] at 4t + k.
    All index arrays are computed at once; the caller owns them.
    """
    n = params.n_slots
    b_ub = _ub_rhs(params, profile)
    a, b = params.alpha, params.beta
    n_vars = _N_ACTION * n + 2 * (n + 1)

    # storage dynamics s(t+1) = s(t) + alpha c(t) - d(t)
    dyn_ptr, dyn_idx, dyn_val = _per_slot(n, (
        ((_ACT, 2, -a), (_ACT, 4, 1.0), (_STO, 0, -1.0), (_STO, 2, 1.0)),
        ((_ACT, 3, -a), (_ACT, 5, 1.0), (_STO, 1, -1.0), (_STO, 3, 1.0))))
    # energy neutralization, written as <= rows; then cannot discharge
    # more than is stored
    ub_ptr, ub_idx, ub_val = _per_slot(n, (
        ((_ACT, 0, -1.0), (_ACT, 2, 1.0), (_ACT, 4, -a), (_ACT, 6, 1.0),
         (_ACT, 7, -b)),
        ((_ACT, 1, -1.0), (_ACT, 3, 1.0), (_ACT, 5, -a), (_ACT, 6, -b),
         (_ACT, 7, 1.0)),
        ((_ACT, 4, 1.0), (_STO, 0, -1.0)),
        ((_ACT, 5, 1.0), (_STO, 1, -1.0))))

    s0 = _N_ACTION * n
    a_eq = _csr(np.concatenate(([0, 1], 2 + dyn_ptr)),
                np.concatenate(([s0, s0 + 1], dyn_idx)),
                np.concatenate(([1.0, 1.0], dyn_val)), n_vars)
    b_eq = np.zeros(2 + 2 * n)
    b_eq[:2] = params.s_init

    upper = np.full(n_vars, math.inf)
    upper[s0:] = params.s_max
    if a == 0.0:
        # charging stores nothing; pin it to keep solutions clean
        upper[2:s0:_N_ACTION] = 0.0
        upper[3:s0:_N_ACTION] = 0.0

    objective = np.zeros(n_vars)
    objective[:s0].reshape(n, _N_ACTION)[:, :2] = 1.0  # w1, w2
    return LpProblem(
        objective=objective,
        a_eq=a_eq, b_eq=b_eq,
        a_ub=_csr(ub_ptr, ub_idx, ub_val, n_vars), b_ub=b_ub,
        lower=np.zeros(n_vars), upper=upper)


def build_stage2(stage1: LpProblem, v1: float) -> LpProblem:
    """Storage-maximizing program under the stage-1 cost budget.

    Maximizes s1(N) + s2(N) subject to total grid draw <= v1 + eps_lex(v1),
    ``v1`` the optimum of ``stage1``.  Returns ``stage1`` with that
    objective and one more ``cost_budget`` row, sharing every other array.
    """
    terminal = np.zeros(stage1.n_vars)
    terminal[-2:] = -1.0  # s1[N], s2[N]
    budget = csr_matrix(stage1.objective)  # the stage-1 cost as a row
    return replace(
        stage1, objective=terminal,
        a_ub=vstack((stage1.a_ub, budget), format="csr"),
        b_ub=np.append(stage1.b_ub, v1 + eps_lex(v1)))


def _extract_trajectory(params: SystemParams, x: np.ndarray) -> Trajectory:
    """Normalized actions (sign dust snapped to 0) and the storage columns,
    clipped onto [0, s_max], of a certified LP point."""
    n = params.n_slots
    actions = normalize_actions(x[:_N_ACTION * n].reshape(n, _N_ACTION),
                                params.alpha)
    states = np.clip(x[_N_ACTION * n:], 0.0, params.s_max).reshape(n + 1, 2)
    return Trajectory(tuple(map(ControlAction._make, actions.tolist())),
                      tuple(map(StorageState._make, states.tolist())))


def offline_costs(params: SystemParams,
                  profiles: Sequence[NetEnergyProfile]) -> list[float]:
    """``offline_cost`` of each profile: stage 1 is assembled once and each
    later profile, which moves only its ub right-hand sides, solved warm."""
    session = LpSession()
    stage1 = build_stage1(params, profiles[0]) if profiles else None
    return [session.solve(replace(stage1, b_ub=_ub_rhs(params, p)))
            .objective_value for p in profiles]


def offline_cost(params: SystemParams, profile: NetEnergyProfile) -> float:
    """Certified minimum total grid draw (the stage-1 optimum), exact;
    ``plan_offline`` realizes it up to the eps_lex budget slack."""
    return offline_costs(params, [profile])[0]


def plan_offline(params: SystemParams, profile: NetEnergyProfile,
                 ) -> Trajectory:
    """Two-stage plan: minimal cost, then maximal terminal storage."""
    stage1 = build_stage1(params, profile)
    v1 = lp_solve(stage1).objective_value
    try:
        sol2 = lp_solve(build_stage2(stage1, v1))
    except LpInfeasible as exc:
        raise Stage2Infeasible(
            f"stage 2 infeasible under budget {v1 + eps_lex(v1)} "
            f"(stage-1 cost {v1}): {exc}") from exc
    return _extract_trajectory(params, sol2.x)


def build_single_bs(params: SystemParams, e: Sequence[float]) -> LpProblem:
    """One-station restriction of the stage-1 program (the savings baseline).

    BS 2 sees a zero profile and its grid, charge and discharge columns are
    pinned to zero together with both transfer columns, so only BS 1 can
    act; the objective is BS 1's grid draw.  HiGHS presolve removes the
    fixed columns.
    """
    n = params.n_slots
    problem = build_stage1(params,
                           NetEnergyProfile(e1=e, e2=(0.0,) * len(e)))
    problem.objective[1:_N_ACTION * n:_N_ACTION] = 0.0  # w2
    problem.upper[:_N_ACTION * n].reshape(n, _N_ACTION)[
        :, _PINNED_SINGLE_BS] = 0.0
    return problem


def single_bs_cost(params: SystemParams, e: Sequence[float]) -> float:
    """Minimum grid draw of one isolated station (the savings denominator)."""
    return lp_solve(build_single_bs(params, e)).objective_value


def plan_single_bs(params: SystemParams, e: Sequence[float]) -> Trajectory:
    """Cost-optimal plan for one isolated station (the savings baseline).

    The result is expressed as a two-BS trajectory whose BS-2 columns are
    zero, so the usual feasibility checker applies against the profile
    (e, zeros).  Only stage 1 is solved; the baseline is a cost.
    """
    return _extract_trajectory(params, lp_solve(build_single_bs(params, e)).x)
