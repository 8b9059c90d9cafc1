"""Hybrid planning: offline on the predictable part, greedy on the rest.

The net energy splits into a deterministic component known for the whole
horizon and a residual revealed causally.  An offline plan is computed once
for the deterministic component; per slot, the greedy controller then
covers whatever the realized energy leaves over, inside the storage
head-room the offline plan does not occupy.  The emitted trajectory is the
exact field-wise sum of the two components.  The realized stream is read in
step with the plan; a slot books the plan's action against the realized
energy and runs the greedy layer's ``standard`` step, resolved once per
stream, with its storage and energy checks.  Each slot appends its
greedy and combined rows as soon as it is decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .greedy import stepper
from .model import (
    ControlAction,
    LengthMismatch,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    check_slots,
    neutralization_residuals,
)
from .offline import plan_offline


@dataclass(frozen=True)
class DecomposedProfile:
    """Realized net energies together with their predictable component."""

    deterministic: NetEnergyProfile
    realized: NetEnergyProfile

    def __post_init__(self) -> None:
        check_slots("realized profile", self.realized.n_slots,
                    self.deterministic.n_slots)


def residual_profile(decomposed: DecomposedProfile, offline_traj: Trajectory,
                     params: SystemParams) -> NetEnergyProfile:
    """Per-slot energies the greedy layer must neutralize."""
    realized = decomposed.realized
    check_slots("offline trajectory", offline_traj.n_slots, realized.n_slots)
    g1, g2 = neutralization_residuals(
        params, realized.e1, realized.e2,
        ControlAction._make(np.reshape(offline_traj.actions, (-1, 8)).T))
    return NetEnergyProfile(e1=g1, e2=g2)


@dataclass(frozen=True)
class HybridResult:
    """Combined trajectory plus the two components for inspection.

    ``greedy_profile`` is the residual energy the greedy layer actually
    saw, including any energy recovered by forced releases (see
    ``run_hybrid_stream``); the greedy component is feasible against it
    under the per-slot caps.
    """

    combined: Trajectory
    offline: Trajectory
    greedy: Trajectory
    greedy_profile: NetEnergyProfile


def run_hybrid_stream(params: SystemParams,
                      deterministic: NetEnergyProfile,
                      realized_slots: Iterable[tuple[float, float]],
                      offline_traj: Trajectory | None = None,
                      ) -> HybridResult:
    """Run the hybrid policy consuming realized energies slot by slot.

    ``realized_slots`` is only ever advanced one slot at a time and never
    ahead of the slot being decided, so feeding a live source is safe.  A
    stream that ends early, or yields anything when read once more after
    slot N-1 is decided, raises ``LengthMismatch``; an exception the stream
    raises itself propagates unchanged.  The greedy layer at slot t
    runs under per-station caps equal to the storage head-room the offline
    plan leaves after the slot; when an offline charge shrinks a cap below
    the greedy layer's carried storage, the overhang is released as a
    forced discharge whose recovered energy (alpha per unit) is credited to
    the slot's residual.
    """
    n = params.n_slots
    check_slots("deterministic profile", deterministic.n_slots, n)
    step = stepper("standard", params.alpha, params.beta)
    if offline_traj is None:
        offline_traj = plan_offline(params, deterministic)
    check_slots("offline trajectory", offline_traj.n_slots, n)

    alpha, beta, s_max = params.alpha, params.beta, params.s_max
    s1 = s2 = 0.0  # the greedy layer's storage
    # combined = offline + greedy, field by field; its first state is the
    # plan's + 0.0, which turns a -0.0 into 0.0 as a sum with 0.0 does
    new = tuple.__new__
    p1, p2 = offline_traj.states[0]
    g_actions, g_states = [], [new(StorageState, (0.0, 0.0))]
    c_actions, c_states = [], [new(StorageState, (p1 + 0.0, p2 + 0.0))]
    cases, g1s, g2s = [], [], []  # and the residual energies
    it = iter(realized_slots)
    # the stream is zipped last, so it is not read once the plan runs out
    for ((w1d, w2d, c1d, c2d, d1d, d2d, x12d, x21d), (s_d1, s_d2),
         (e1, e2)) in zip(offline_traj.actions, offline_traj.states[1:], it):
        if not (math.isfinite(e1) and math.isfinite(e2)):
            raise ValueError(f"realized energies at slot {len(cases)} "
                             f"are not finite: ({e1}, {e2})")
        # model.neutralization_residuals, repeated here in its operand order
        g1 = e1 + w1d - c1d + alpha * d1d - x12d + beta * x21d
        g2 = e2 + w2d - c2d + alpha * d2d - x21d + beta * x12d

        # each cap and release is max(0.0, v), which is v only if v > 0.0
        cap1, cap2 = s_max - s_d1, s_max - s_d2
        cap1 = cap1 if cap1 > 0.0 else 0.0
        cap2 = cap2 if cap2 > 0.0 else 0.0
        q1, q2 = s1 - cap1, s2 - cap2
        q1 = q1 if q1 > 0.0 else 0.0
        q2 = q2 if q2 > 0.0 else 0.0
        g1 += alpha * q1
        g2 += alpha * q2

        w1, w2, c1, c2, d1, d2, x12, x21, s1, s2, label = step(
            cap1, cap2, s1 - q1, s2 - q2, g1, g2)
        d1, d2 = d1 + q1, d2 + q2  # the forced releases
        g_actions.append(
            new(ControlAction, (w1, w2, c1, c2, d1, d2, x12, x21)))
        g_states.append(new(StorageState, (s1, s2)))
        c_actions.append(new(ControlAction, (
            w1d + w1, w2d + w2, c1d + c1, c2d + c2, d1d + d1, d2d + d2,
            x12d + x12, x21d + x21)))
        c_states.append(new(StorageState, (s_d1 + s1, s_d2 + s2)))
        cases.append(label)
        g1s.append(g1)
        g2s.append(g2)

    if len(cases) < n:
        raise LengthMismatch(f"realized energies ended at slot "
                             f"{len(cases)}, want {n}")
    for _ in it:  # read once more: the stream must be exhausted
        raise LengthMismatch(f"realized energies run past {n} slots")
    cases = tuple(cases)
    return HybridResult(
        Trajectory(tuple(c_actions), tuple(c_states), cases), offline_traj,
        Trajectory(tuple(g_actions), tuple(g_states), cases),
        NetEnergyProfile(e1=g1s, e2=g2s))
