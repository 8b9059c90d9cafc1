"""Hybrid planning: offline on the predictable part, greedy on the rest.

The net energy splits into a deterministic component known for the whole
horizon and a residual revealed causally.  An offline plan is computed once
for the deterministic component; per slot, the greedy controller then
covers whatever the realized energy leaves over, inside the storage
head-room the offline plan does not occupy.  The emitted trajectory is the
exact field-wise sum of the two components.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .greedy import capped_step, check_mode
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
    stream that ends early, or yields again when read once more after slot
    N-1 is decided, raises ``LengthMismatch``.  The greedy layer at slot t
    runs under per-station caps equal to the storage head-room the offline
    plan leaves after the slot; when an offline charge shrinks a cap below
    the greedy layer's carried storage, the overhang is released as a
    forced discharge whose recovered energy (alpha per unit) is credited to
    the slot's residual.
    """
    n = params.n_slots
    check_slots("deterministic profile", deterministic.n_slots, n)
    check_mode("standard", params.alpha, params.beta)
    if offline_traj is None:
        offline_traj = plan_offline(params, deterministic)
    check_slots("offline trajectory", offline_traj.n_slots, n)

    g_state = StorageState(0.0, 0.0)
    g_actions, g_states, g_energies, cases = [], [g_state], [], []

    it: Iterator[tuple[float, float]] = iter(realized_slots)
    for t in range(n):
        try:
            e1, e2 = next(it)
        except StopIteration:
            raise LengthMismatch(
                f"realized energies ended at slot {t}, want {n}") from None
        if not (math.isfinite(e1) and math.isfinite(e2)):
            raise ValueError(
                f"realized energies at slot {t} are not finite: ({e1}, {e2})")
        act_d = offline_traj.actions[t]
        g1, g2 = neutralization_residuals(params, e1, e2, act_d)

        s_d_next = offline_traj.states[t + 1]
        cap1 = max(0.0, params.s_max - s_d_next.s1)
        cap2 = max(0.0, params.s_max - s_d_next.s2)
        q1 = max(0.0, g_state.s1 - cap1)
        q2 = max(0.0, g_state.s2 - cap2)
        g1 += params.alpha * q1
        g2 += params.alpha * q2

        act_g, g_state, label = capped_step(
            params.alpha, params.beta, cap1, cap2,
            g_state.s1 - q1, g_state.s2 - q2, g1, g2)
        w1, w2, c1, c2, d1, d2, x12, x21 = act_g
        act_g = ControlAction(w1, w2, c1, c2, d1 + q1, d2 + q2, x12, x21)

        g_actions.append(act_g)
        g_states.append(g_state)
        g_energies.append((g1, g2))
        cases.append(label)

    if next(it, None) is not None:
        raise LengthMismatch(f"realized energies run past {n} slots")
    greedy_traj = Trajectory(tuple(g_actions), tuple(g_states), tuple(cases))
    combined = Trajectory(
        tuple([ControlAction._make(map(operator.add, a, b))
               for a, b in zip(offline_traj.actions, g_actions)]),
        tuple([StorageState(s1 + z1, s2 + z2) for (s1, s2), (z1, z2)
               in zip(offline_traj.states, g_states)]),
        greedy_traj.cases)
    greedy_profile = NetEnergyProfile(
        e1=tuple(g1 for g1, _ in g_energies),
        e2=tuple(g2 for _, g2 in g_energies))
    return HybridResult(combined, offline_traj, greedy_traj, greedy_profile)
