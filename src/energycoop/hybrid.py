"""Hybrid planning: offline on the predictable part, greedy on the rest.

The net energy splits into a deterministic component known for the whole
horizon and a residual revealed causally.  An offline plan is computed once
for the deterministic component; per slot, the greedy controller then
covers whatever the realized energy leaves over, inside the storage
head-room the offline plan does not occupy.  The emitted trajectory is the
exact field-wise sum of the two components.  The greedy layer's mode is
checked once per stream, its storage and energies in every slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .greedy import _dispatch, _rollout, _step, check_mode
from .model import (
    ControlAction,
    LengthMismatch,
    NetEnergyProfile,
    SystemParams,
    Trajectory,
    check_slots,
    neutralization_residuals,
    trajectory_from_rows,
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

    alpha, beta, s_max = params.alpha, params.beta, params.s_max
    s1 = s2 = 0.0  # the greedy layer's storage
    records, g1s, g2s = [], [], []  # step records, residual energies
    it: Iterator[tuple[float, float]] = iter(realized_slots)
    for act_d, (s_d1, s_d2) in zip(offline_traj.actions,
                                   offline_traj.states[1:]):
        try:
            e1, e2 = next(it)
        except StopIteration:
            raise LengthMismatch(f"realized energies ended at slot "
                                 f"{len(records)}, want {n}") from None
        if not (math.isfinite(e1) and math.isfinite(e2)):
            raise ValueError(f"realized energies at slot {len(records)} "
                             f"are not finite: ({e1}, {e2})")
        g1, g2 = neutralization_residuals(params, e1, e2, act_d)

        # each cap and release is max(0.0, v), which is v only if v > 0.0
        cap1, cap2 = s_max - s_d1, s_max - s_d2
        cap1 = cap1 if cap1 > 0.0 else 0.0
        cap2 = cap2 if cap2 > 0.0 else 0.0
        q1, q2 = s1 - cap1, s2 - cap2
        q1 = q1 if q1 > 0.0 else 0.0
        q2 = q2 if q2 > 0.0 else 0.0
        g1 += alpha * q1
        g2 += alpha * q2

        w1, w2, c1, c2, d1, d2, x12, x21, s1, s2, label = _step(
            _dispatch, alpha, beta, cap1, cap2, s1 - q1, s2 - q2, g1, g2,
            False)
        records.append(
            (w1, w2, c1, c2, d1 + q1, d2 + q2, x12, x21, s1, s2, label))
        g1s.append(g1)
        g2s.append(g2)

    if next(it, None) is not None:
        raise LengthMismatch(f"realized energies run past {n} slots")
    greedy_traj = _rollout((0.0, 0.0), records)
    # offline + greedy, field by field; spelled out, as it measured faster
    # than map(operator.add, ...) per row
    combined = trajectory_from_rows(
        [(a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6,
          a7 + b7)
         for (a0, a1, a2, a3, a4, a5, a6, a7), (b0, b1, b2, b3, b4, b5, b6, b7)
         in zip(offline_traj.actions, greedy_traj.actions)],
        [(a0 + b0, a1 + b1) for (a0, a1), (b0, b1)
         in zip(offline_traj.states, greedy_traj.states)],
        greedy_traj.cases)
    return HybridResult(combined, offline_traj, greedy_traj,
                        NetEnergyProfile(e1=g1s, e2=g2s))
