"""Random-instance generators and constructors shared across the tests."""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.sparse import csr_matrix

from energycoop import (ControlAction, NetEnergyProfile, StorageState,
                        SystemParams, Trajectory)
from energycoop.greedy import stepper
from energycoop.model import (
    DEFAULT_TOL,
    Violation,
    check_slots,
    neutralization_residuals,
)
from energycoop.lp import Csr, LpProblem


def dense_csr(rows) -> Csr:
    """The ``Csr`` of a dense 2-d array, its zeros left out."""
    m = csr_matrix(np.asarray(rows, dtype=float))
    return Csr(m.indptr, m.indices, m.data, m.shape)


def scipy_csr(a: Csr) -> csr_matrix:
    """``a`` as a scipy matrix, for its products and conversions."""
    return csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def make_problem(c, eq=(), ub=(), bounds=()) -> LpProblem:
    """Sparse ``LpProblem`` from dense (row, rhs) tuples.

    The ``<=`` rows ``ub`` come first, then the equalities ``eq``, the
    order in which ``linprog`` stacks them for HiGHS.  ``bounds`` holds
    one (lower, upper) pair per variable and defaults to [0, inf)
    throughout.
    """
    n = len(c)
    rows = [*ub, *eq]
    a = dense_csr([r for r, _ in rows] if rows else np.zeros((0, n)))
    rhs = np.array([b for _, b in rows], dtype=float)
    bounds = np.asarray(bounds or [(0.0, math.inf)] * n, dtype=float)
    return LpProblem(objective=np.asarray(c, dtype=float), a=a,
                     row_lower=np.where(np.arange(len(rows)) < len(ub),
                                        -math.inf, rhs),
                     row_upper=rhs, lower=bounds[:, 0], upper=bounds[:, 1])


def save_profile(profile: NetEnergyProfile, path) -> None:
    """Write a profile CSV in the net form ``t,E1,E2``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "E1", "E2"])
        for t in range(profile.n_slots):
            writer.writerow([t, repr(profile.e1[t]), repr(profile.e2[t])])


def rand_unit_open(rng) -> float:
    """Uniform draw on (0, 1]."""
    return 1.0 - rng.uniform(0.0, 1.0)


def rand_params(rng, n_slots, alpha=None, beta=None, s_max=None,
                s_init=(0.0, 0.0)) -> SystemParams:
    a = alpha if alpha is not None else rand_unit_open(rng)
    b = beta if beta is not None else rand_unit_open(rng)
    sm = s_max if s_max is not None else rng.uniform(0.2, 3.0)
    return SystemParams(a, b, sm, n_slots, s_init)


def rand_profile(rng, n_slots, e1_range=(-3.0, 3.0), e2_range=(-3.0, 3.0),
                 ) -> NetEnergyProfile:
    e1 = rng.uniform(*e1_range, n_slots)
    e2 = rng.uniform(*e2_range, n_slots)
    return NetEnergyProfile(e1=tuple(e1), e2=tuple(e2))


def rand_state(rng, s_max) -> StorageState:
    return StorageState(rng.uniform(0.0, s_max), rng.uniform(0.0, s_max))


def check_feasible_ref(params, profile, traj) -> list[Violation]:
    """Per-slot reference for ``check_feasible``: every constraint but
    ``finite_*``, slot by slot, in plain Python floats."""
    n = params.n_slots
    check_slots("profile", profile.n_slots, n)
    check_slots("trajectory", traj.n_slots, n)

    bad: list[Violation] = []

    def flag(name: str, slot: int, residual: float) -> None:
        # written so that a NaN residual is flagged too
        if not residual >= -DEFAULT_TOL:
            bad.append(Violation(name, slot, residual))

    for i, (s0, si) in enumerate(zip(traj.states[0], params.s_init)):
        flag(f"initial_state_s{i + 1}", 0, -abs(s0 - si))

    for t in range(n):
        act = traj.actions[t]
        s, s_next = traj.states[t], traj.states[t + 1]
        for name, val in zip(ControlAction._fields, act):
            flag(f"nonneg_{name}", t, val)
        flag("discharge_le_storage_1", t, s.s1 - act.d1)
        flag("discharge_le_storage_2", t, s.s2 - act.d2)
        dyn1 = s_next.s1 - (s.s1 + params.alpha * act.c1 - act.d1)
        dyn2 = s_next.s2 - (s.s2 + params.alpha * act.c2 - act.d2)
        flag("dynamics_1", t, -abs(dyn1))
        flag("dynamics_2", t, -abs(dyn2))
        r1, r2 = neutralization_residuals(
            params, profile.e1[t], profile.e2[t], act)
        flag("neutralization_1", t, r1)
        flag("neutralization_2", t, r2)

    for t, s in enumerate(traj.states):
        flag("storage_lower_1", t, s.s1)
        flag("storage_lower_2", t, s.s2)
        flag("storage_upper_1", t, params.s_max - s.s1)
        flag("storage_upper_2", t, params.s_max - s.s2)

    return bad


def hex_fields(traj) -> tuple:
    """Each action and state of ``traj`` as its type's name and its fields
    in ``float.hex``, which, unlike ==, tells -0.0 from 0.0; then the
    cases."""
    return tuple((type(row).__name__, *map(float.hex, row))
                 for row in (*traj.actions, *traj.states)), traj.cases


def hybrid_stream_ref(params, offline_traj, realized):
    """Slot-by-slot reference for ``run_hybrid_stream`` on a given plan:
    the ``standard`` step of ``stepper`` per slot,
    ``neutralization_residuals`` for the residual, the ``max``/``min``
    builtins for caps, releases and the storage clamp.  Returns the
    combined and greedy trajectories and the greedy layer's energies
    (e1, e2)."""
    step = stepper("standard", params.alpha, params.beta)
    g_state = StorageState(0.0, 0.0)
    g_actions, g_states, cases, g1s, g2s = [], [g_state], [], [], []
    for t, (e1, e2) in enumerate(zip(realized.e1, realized.e2)):
        g1, g2 = neutralization_residuals(params, e1, e2,
                                          offline_traj.actions[t])
        s_d_next = offline_traj.states[t + 1]
        cap1 = max(0.0, params.s_max - s_d_next.s1)
        cap2 = max(0.0, params.s_max - s_d_next.s2)
        q1 = max(0.0, g_state.s1 - cap1)
        q2 = max(0.0, g_state.s2 - cap2)
        g1 += params.alpha * q1
        g2 += params.alpha * q2
        # the step's clamp as first written; after it, its own is a no-op
        s1 = min(max(g_state.s1 - q1, 0.0), cap1)
        s2 = min(max(g_state.s2 - q2, 0.0), cap2)
        w1, w2, c1, c2, d1, d2, x12, x21, s1, s2, label = step(
            cap1, cap2, s1, s2, g1, g2)
        g_state = StorageState(s1, s2)
        g_actions.append(
            ControlAction(w1, w2, c1, c2, d1 + q1, d2 + q2, x12, x21))
        g_states.append(g_state)
        cases.append(label)
        g1s.append(g1)
        g2s.append(g2)
    greedy = Trajectory(tuple(g_actions), tuple(g_states), tuple(cases))
    combined = Trajectory(
        tuple(ControlAction(*(a + b for a, b in zip(ad, ag)))
              for ad, ag in zip(offline_traj.actions, g_actions)),
        tuple(StorageState(sd.s1 + sg.s1, sd.s2 + sg.s2)
              for sd, sg in zip(offline_traj.states, g_states)),
        greedy.cases)
    return combined, greedy, (tuple(g1s), tuple(g2s))
