"""Full-knowledge planning over a deterministic net-energy profile.

Stage 1 minimizes total grid energy over the whole horizon; stage 2
re-solves with the stage-1 cost as a budget and maximizes the terminal
storage sum, so leftover flexibility is banked for later horizons.  Every
offline program derives from the stage-1 program: one sparse matrix with
about 22 non-zeros per slot and a lower and upper bound on each row,
assembled from one table of (row, column, value) entries written as
arrays over the slots, in time and memory linear in the horizon.  The
matrix depends only on N, alpha and beta, so ``_matrices`` assembles it
once per process for each such system, with the priced program's
matrix beside it, and every program of that system shares both; a
profile, a capacity or an initial storage changes only bounds.  Stage 2
inserts one ``cost_budget`` row; costs are priced on the program
without the 2N rows that bound discharge by storage, which never change
the optimal value, and re-solves edit its row bounds.  ``lp_solve``
returns a certified optimum or raises; an infeasible stage 2 raises
``Stage2Infeasible``.  A plan is its certified point: the action columns
normalized in one array pass and the storage columns clipped onto
[0, s_max].  Every stage-1 cost is priced by ``stage1_costs``, the first
profile cold and the rest warm in its session; stage 2 is solved cold.
Only stage 1's unique optimal value is used, so its session is
value-only: no HiGHS presolve (it removed 6 rows and 6 columns yet took
19-36% of the cold solve) and Devex dual pricing, cheaper per iteration
than steepest edge; all three move the value in its last digits only, and
a price whose duals do not back it is re-solved cold with presolve (see
``lp.LpSession``).  Stage 2 keeps presolve and
steepest edge: its optimum is tied, and the vertex HiGHS returns depends
on the solve path.  The single-station savings baseline is no LP but a
greedy rollout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .greedy import run_greedy
from .lp import Csr, LpInfeasible, LpProblem, LpSession, lp_solve
from .model import (
    ControlAction,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    check_slots,
    normalize_actions,
    total_cost,
)

# Relative slack on the stage-2 cost budget.  Large enough that stage 2 is
# never numerically infeasible, small enough that the cost inflation it
# allows (the whole budget can be converted into terminal storage) stays
# far below the 1e-6 equality tolerances used throughout the test suite.
EPS_LEX_FACTOR = 1e-9

_N_ACTION = 8  # w1 w2 c1 c2 d1 d2 x12 x21 per slot
_SYSTEMS_KEPT = 4  # (N, alpha, beta) whose matrices a process keeps


def eps_lex(v1: float) -> float:
    return EPS_LEX_FACTOR * max(1.0, abs(v1))


class Stage2Infeasible(LpInfeasible):
    """Stage 2 rejected a budget that stage 1 certified as attainable."""


def _row_upper(params: SystemParams, profile: NetEnergyProfile,
               ) -> np.ndarray:
    """Stage-1 row upper bounds: e1, e2 on the neutral rows, s_init on the
    init rows, else 0."""
    n = params.n_slots
    check_slots("profile", profile.n_slots, n)
    neutral = np.column_stack((profile.e1, profile.e2, np.zeros((n, 2))))
    return np.concatenate((neutral.ravel(), params.s_init, np.zeros(2 * n)))


def _stage1_entries(n: int, a: float, b: float) -> tuple[np.ndarray, ...]:
    """Rows, columns and values of the stage-1 matrix's entries for N = n,
    alpha = a and beta = b: a table whose rows and columns are arrays over
    t, written once per station k, which sends on column 8t + 6 + k and
    receives on 8t + 7 - k.  No (row, column) pair repeats; a zero
    efficiency writes explicit zeros."""
    s0 = _N_ACTION * n
    t, bs = np.arange(n), np.arange(2)
    act, s, ub, dyn = _N_ACTION * t, s0 + 2 * t, 4 * t, 4 * n + 2 + 2 * t
    # storage starts at s_init
    entries = [(4 * n + bs, s0 + bs, 1.0)]
    for k in (0, 1):
        row, w, c, d = ub + k, act + k, act + 2 + k, act + 4 + k
        entries += [
            # energy neutralization, written as <= rows
            (row, w, -1.0), (row, c, 1.0), (row, d, -a),
            (row, act + 6 + k, 1.0), (row, act + 7 - k, -b),
            # cannot discharge more than is stored
            (row + 2, d, 1.0), (row + 2, s + k, -1.0),
            # storage dynamics s(t+1) = s(t) + alpha c(t) - d(t)
            (dyn + k, c, -a), (dyn + k, d, 1.0), (dyn + k, s + k, -1.0),
            (dyn + k, s + 2 + k, 1.0)]
    rows, cols, values = zip(*entries)
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate([np.full(len(r), v) for r, v in zip(rows, values)]))


@functools.lru_cache(maxsize=_SYSTEMS_KEPT)
def _matrices(n: int, alpha: float, beta: float,
              ) -> tuple[Csr, Csr, np.ndarray]:
    """The stage-1 matrix of every N-slot system with these efficiencies,
    the priced program's matrix and the stage-1 indices of the rows it
    keeps, made once per process for the last ``_SYSTEMS_KEPT`` systems.

    The stage-1 matrix is the ``_stage1_entries`` table in CSR form,
    sorted by row, then column, with int32 indices, as scipy would
    assemble it.  The priced program drops its d_le_s rows and keeps
    neutral1[t], neutral2[t] at 2t + k, then the equalities.  Those rows
    never change the optimal value.  Cancelling a slot's charge and
    discharge overlap m = min(alpha c, d), as ``normalize_actions`` does,
    keeps w and the storage columns and widens the neutral slack by
    m / alpha - alpha m >= 0; then c = 0 or d = 0, so the dynamics row and
    s[t + 1] >= 0 already give d <= s[t] (at alpha = 0, c is pinned to 0).
    Every array is read-only, so the programs of one system share them.
    """
    n_vars, m = _N_ACTION * n + 2 * (n + 1), 6 * n + 2
    rows, cols, data = _stage1_entries(n, alpha, beta)
    order = np.argsort(rows * n_vars + cols)
    # explicit zeros are dropped: the backend sees only structural non-zeros
    order = order[data[order] != 0.0]
    counts = np.bincount(rows[order], minlength=m)
    stage1 = Csr(np.concatenate(([0], np.cumsum(counts)), dtype=np.int32),
                 cols[order].astype(np.int32), data[order], (m, n_vars))
    row = np.arange(m)
    kept = (row % 4 < 2) | (row >= 4 * n)
    keep, entries = np.flatnonzero(kept), kept[stage1.rows]
    priced = Csr(np.concatenate(([0], np.cumsum(counts[keep])),
                                dtype=np.int32),
                 stage1.indices[entries], stage1.data[entries],
                 (len(keep), n_vars))
    keep.flags.writeable = False
    return stage1, priced, keep


def build_stage1(params: SystemParams, profile: NetEnergyProfile,
                 ) -> LpProblem:
    """Cost-minimizing program: min total grid draw over the horizon.

    Columns: the actions w1 w2 c1 c2 d1 d2 x12 x21 of slot t at 8t + k,
    then the storage levels s1[t], s2[t] at 8N + 2t + bs for t = 0 .. N.
    Rows, the ``<=`` rows first: neutral1[t], neutral2[t], d1_le_s1[t],
    d2_le_s2[t] at 4t + k; then the equalities init_s1, init_s2 at 4N,
    4N + 1 and dyn1[t], dyn2[t] at 4N + 2 + 2t + bs.  The matrix is
    ``_matrices``' stage-1 matrix, shared by every program of the same
    N, alpha and beta: the profile, s_max and s_init enter only bounds.
    """
    n = params.n_slots
    row_upper = _row_upper(params, profile)
    matrix = _matrices(n, params.alpha, params.beta)[0]
    s0, n_vars = _N_ACTION * n, matrix.shape[1]
    row_lower = np.append(np.full(4 * n, -math.inf), row_upper[4 * n:])

    upper = np.full(n_vars, math.inf)
    upper[s0:] = params.s_max
    if params.alpha == 0.0:
        # charging stores nothing; pin it to keep solutions clean
        upper[:s0].reshape(n, _N_ACTION)[:, 2:4] = 0.0  # c1, c2

    objective = np.zeros(n_vars)
    objective[:s0].reshape(n, _N_ACTION)[:, :2] = 1.0  # w1, w2
    return LpProblem(
        objective=objective,
        a=matrix, row_lower=row_lower, row_upper=row_upper,
        lower=np.zeros(n_vars), upper=upper)


def build_stage2(stage1: LpProblem, v1: float) -> LpProblem:
    """Storage-maximizing program under the stage-1 cost budget.

    Maximizes s1(N) + s2(N) subject to total grid draw <= v1 + eps_lex(v1),
    ``v1`` the optimum of ``stage1``.  Returns ``stage1`` with that
    objective and a ``cost_budget`` row inserted at 4N, its last ``<=`` row.
    """
    terminal = np.zeros(stage1.n_vars)
    terminal[-2:] = -1.0  # s1[N], s2[N]
    a, row = stage1.a, 4 * (len(stage1.row_upper) // 6)  # 6N + 2 rows
    cols, cut = np.flatnonzero(stage1.objective), a.indptr[row]
    matrix = Csr(  # the stage-1 cost as a row
        np.append(a.indptr[:row + 1], a.indptr[row:] + len(cols)),
        np.insert(a.indices, cut, cols),
        np.insert(a.data, cut, stage1.objective[cols]),
        (a.shape[0] + 1, a.shape[1]))
    return replace(
        stage1, objective=terminal, a=matrix,
        row_lower=np.insert(stage1.row_lower, row, -math.inf),
        row_upper=np.insert(stage1.row_upper, row, v1 + eps_lex(v1)))


def _extract_trajectory(params: SystemParams, x: np.ndarray) -> Trajectory:
    """Normalized actions (sign dust snapped to 0) and the storage columns,
    clipped onto [0, s_max] and then + 0.0 so no -0.0 is left, of a
    certified LP point."""
    n, new = params.n_slots, tuple.__new__
    actions = normalize_actions(x[:_N_ACTION * n].reshape(n, _N_ACTION),
                                params.alpha)
    states = x[_N_ACTION * n:].reshape(n + 1, 2).clip(0.0, params.s_max) + 0.0
    return Trajectory(
        tuple([new(ControlAction, row) for row in actions.tolist()]),
        tuple([new(StorageState, row) for row in states.tolist()]))


def stage1_costs(params: SystemParams, profiles: Sequence[NetEnergyProfile],
                 ) -> tuple[LpProblem, list[float]]:
    """The stage-1 program of ``profiles[0]`` and the ``offline_cost`` of
    each profile, priced on the priced program of ``_matrices``, which
    has the same optimal value and 2N rows fewer: the first solved cold in
    a new value-only session (presolve off, Devex pricing), each later one
    re-solved warm in it with only its neutral-row upper bounds changed."""
    stage1 = build_stage1(params, profiles[0])
    _, matrix, keep = _matrices(params.n_slots, params.alpha, params.beta)
    priced = replace(stage1, a=matrix, row_lower=stage1.row_lower[keep],
                     row_upper=stage1.row_upper[keep])
    session = LpSession(value_only=True)
    return stage1, [session.solve(replace(
        priced, row_upper=_row_upper(params, p)[keep])).objective_value
        for p in profiles]


def offline_cost(params: SystemParams, profile: NetEnergyProfile) -> float:
    """Certified minimum total grid draw (the stage-1 optimum, priced by
    ``stage1_costs``); ``plan_offline`` realizes it up to eps_lex slack."""
    return stage1_costs(params, [profile])[1][0]


def plan_and_price(params: SystemParams, profile: NetEnergyProfile,
                   realized: Sequence[NetEnergyProfile] = (),
                   ) -> tuple[Trajectory, list[float]]:
    """``plan_offline(params, profile)`` and the ``offline_cost`` of each
    realized profile, solved warm in the session of the plan's stage 1."""
    stage1, (v1, *costs) = stage1_costs(params, [profile, *realized])
    try:
        sol2 = lp_solve(build_stage2(stage1, v1))
    except LpInfeasible as exc:
        raise Stage2Infeasible(
            f"stage 2 infeasible under budget {v1 + eps_lex(v1)} "
            f"(stage-1 cost {v1}): {exc}") from exc
    return _extract_trajectory(params, sol2.x), costs


def plan_offline(params: SystemParams, profile: NetEnergyProfile,
                 ) -> Trajectory:
    """Two-stage plan: minimal cost, then maximal terminal storage."""
    return plan_and_price(params, profile)[0]


def plan_single_bs(params: SystemParams, e: Sequence[float]) -> Trajectory:
    """Cost-optimal plan for one isolated station (the savings baseline):
    the ``no_transfer`` rollout of (e, 0), optimal at beta = 0, in which
    BS 2 never acts, so ``check_feasible`` applies against (e, zeros)."""
    return run_greedy(params, NetEnergyProfile(e1=e, e2=(0.0,) * len(e)),
                      "no_transfer")


def single_bs_cost(params: SystemParams, e: Sequence[float]) -> float:
    """Minimum grid draw of one isolated station (the savings denominator)."""
    return total_cost(plan_single_bs(params, e))
