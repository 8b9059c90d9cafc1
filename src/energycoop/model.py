"""Domain types, feasibility checking, normalization and cost accounting.

Two base stations (BS 1 and BS 2) share energy over a resistive power line.
Each has a renewable source, a grid connection and a finite battery.  Per
time slot the controller picks grid draws ``w``, storage charges ``c``,
discharges ``d`` and line transfers ``x12``/``x21``.  Charging a battery
stores only ``alpha * c`` and a transfer delivers only ``beta * x`` at the
far end; both efficiencies live in [0, 1].  A slot's ``ControlAction`` and
a ``StorageState`` are immutable named tuples: they unpack and index like
tuples, and ``as_tuple()`` returns their fields as a plain tuple.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-6


class ModelError(Exception):
    """Base class for model-level failures."""


class LengthMismatch(ModelError):
    """Sequence lengths disagree with the declared horizon."""


class InvalidState(ModelError):
    """A storage state is outside its admissible range."""


def check_slots(what: str, n: int, want: int) -> None:
    """Raise LengthMismatch unless the input ``what`` spans ``want`` slots."""
    if n != want:
        raise LengthMismatch(f"{what} has {n} slots, want {want}")


def check_slot_count(n: int) -> None:
    """Raise ValueError unless ``n`` is an integer >= 1; a bool is not."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise ValueError(f"n_slots must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the two-BS system.

    alpha   storage efficiency (fraction surviving a charge, and applied
            symmetrically when discharged energy enters the energy balance)
    beta    transfer efficiency of the connecting power line
    s_max   per-BS storage capacity
    n_slots horizon length N
    s_init  initial storage pair, defaults to empty batteries
    """

    alpha: float
    beta: float
    s_max: float
    n_slots: int
    s_init: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not self.s_max >= 0.0:
            raise ValueError(f"s_max must be >= 0, got {self.s_max}")
        check_slot_count(self.n_slots)
        # s_max may be infinite, the initial storage may not
        s1, s2 = self.s_init
        if not all(math.isfinite(s) and 0.0 <= s <= self.s_max
                   for s in (s1, s2)):
            raise ValueError(
                f"s_init must be finite and lie in [0, s_max]^2, "
                f"got {self.s_init}")


@dataclass(frozen=True)
class NetEnergyProfile:
    """Per-slot net energies for both base stations.

    ``e_i(t)`` is renewable generation minus demand; positive means surplus,
    negative means deficit.  The planners read nothing else, so a profile
    holds only the net values; every one must be finite.
    """

    e1: tuple[float, ...]
    e2: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "e1", tuple(map(float, self.e1)))
        object.__setattr__(self, "e2", tuple(map(float, self.e2)))
        check_slots("e2", len(self.e2), len(self.e1))
        for name, seq in (("e1", self.e1), ("e2", self.e2)):
            if not all(map(math.isfinite, seq)):
                t = next(t for t, v in enumerate(seq) if not math.isfinite(v))
                raise ValueError(f"{name}[{t}] is not finite: {seq[t]}")

    @property
    def n_slots(self) -> int:
        return len(self.e1)


class ControlAction(NamedTuple):
    """One slot's decision tuple.

    All fields are nonnegative energies in a feasible action; validity is
    established by ``check_feasible`` rather than at construction time so
    that deliberately broken actions can still be inspected.
    """

    w1: float = 0.0
    w2: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    d1: float = 0.0
    d2: float = 0.0
    x12: float = 0.0
    x21: float = 0.0

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)


class StorageState(NamedTuple):
    """Stored energy pair (s1, s2)."""

    s1: float
    s2: float

    def as_tuple(self) -> tuple[float, float]:
        return tuple(self)


ACTION_FIELDS = ControlAction._fields

TRAJECTORY_HEADER = ("t", "E1", "E2", *ACTION_FIELDS, *StorageState._fields)


@dataclass(frozen=True)
class Trajectory:
    """A control policy rolled out over the horizon.

    ``states`` has one more entry than ``actions``; ``states[0]`` is the
    initial storage pair and ``states[t+1]`` is s_i + alpha*c_i - d_i after
    ``actions[t]``: a greedy rollout computes it in its case rules, an
    offline plan reads it off its certified LP point, clipped onto
    [0, s_max].  ``cases`` optionally records which greedy decision rule
    produced each slot's action (debug/introspection only).
    """

    actions: tuple[ControlAction, ...]
    states: tuple[StorageState, ...]
    cases: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.states) != len(self.actions) + 1:
            raise LengthMismatch(
                f"{len(self.states)} states for {len(self.actions)} actions")
        if self.cases is not None and len(self.cases) != len(self.actions):
            raise LengthMismatch("cases length != actions length")

    @property
    def n_slots(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class Violation:
    """One violated constraint: name, slot index and signed residual."""

    constraint: str
    slot: int
    residual: float


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def neutralization_residuals(params: SystemParams, e1: float, e2: float,
                             action: ControlAction) -> tuple[float, float]:
    """Per-BS energy-balance slack; nonnegative means demand is covered.

    For BS 1 this is e1 + w1 - c1 + alpha*d1 - x12 + beta*x21: the net
    energy plus everything the action contributes to the slot's balance.
    The hybrid planner books the offline action against the realized
    energy this way to get the energy left for its greedy layer; with zero
    residual noise that is exactly the offline plan's slack, and the
    combined action satisfies the realized-profile balance whenever the
    greedy layer neutralizes it.
    """
    a, b = params.alpha, params.beta
    r1 = (e1 + action.w1 - action.c1 + a * action.d1
          - action.x12 + b * action.x21)
    r2 = (e2 + action.w2 - action.c2 + a * action.d2
          - action.x21 + b * action.x12)
    return r1, r2


def check_feasible(params: SystemParams, profile: NetEnergyProfile,
                   traj: Trajectory) -> FeasibilityReport:
    """Check a trajectory against every model constraint.

    The report lists each violated constraint with its slot and residual
    (negative residual = amount of violation).  An empty report certifies,
    within ``DEFAULT_TOL``: nonnegative actions, d_i <= s_i, exact storage
    dynamics, storage bounds, the declared initial state, and both energy
    neutralization inequalities at every slot.
    """
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
        for name, val in zip(ACTION_FIELDS, act):
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

    return FeasibilityReport(tuple(bad))


def normalize_actions(actions: np.ndarray, alpha: float) -> np.ndarray:
    """Cancel simultaneous charge/discharge and opposing line transfers.

    ``actions`` holds one action per row in ``ControlAction`` field order;
    a normalized copy is returned.  A charge/discharge overlap
    m = min(alpha*c, d) loses m/alpha of charge and m of discharge (with
    alpha = 0 the charge is dropped), so the net storage change and the
    net line flow stay intact and each energy-balance slack can only grow
    (m/alpha >= alpha*m).  Grid draws, and so an optimizer's objective
    value, are unchanged.  Fields below -DEFAULT_TOL, and NaN fields, are
    rejected; solver dust in [-DEFAULT_TOL, 0) and -0.0 become +0.0.
    """
    ok = np.all(actions >= -DEFAULT_TOL, axis=1)
    if not ok.all():
        bad = ControlAction._make(actions[np.argmin(ok)].tolist())
        raise ValueError(f"cannot normalize a negative or NaN action: {bad}")
    # maximum(v, 0.0), not maximum(0.0, v): the latter keeps -0.0
    out = np.maximum(actions, 0.0)
    c, d, x = out[:, 2:4], out[:, 4:6], out[:, 6:8]  # views into out
    overlap = (c > 0.0) & (d > 0.0)
    stored = alpha * c
    keep_c = overlap & (stored >= d)  # never with alpha = 0, as d > 0
    keep_d = overlap & ~keep_c
    # d / alpha can round above c; only the selected entries divide
    c[keep_c] = np.maximum(c[keep_c] - d[keep_c] / alpha, 0.0)
    d[keep_c] = 0.0
    d[keep_d] -= stored[keep_d]
    c[keep_d] = 0.0
    x -= x.min(axis=1, keepdims=True)
    return out


def total_cost(traj: Trajectory) -> float:
    """Grid energy drawn over the whole horizon."""
    return sum(a.w1 + a.w2 for a in traj.actions)


def save_trajectory(traj: Trajectory, profile: NetEnergyProfile,
                    path: str | Path, with_cases: bool = False) -> None:
    """Write a trajectory CSV.

    One row per slot with the slot's net energies, action and start-of-slot
    storage; a final row carries only the terminal storage.  ``with_cases``
    appends a ``case`` column when the trajectory recorded decision cases.
    """
    check_slots("profile", profile.n_slots, traj.n_slots)
    cases = traj.cases if (with_cases and traj.cases is not None) else None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(TRAJECTORY_HEADER)
        if cases is not None:
            header.append("case")
        writer.writerow(header)
        for t, act in enumerate(traj.actions):
            s = traj.states[t]
            row = [t, repr(profile.e1[t]), repr(profile.e2[t])]
            row += [repr(v) for v in act]
            row += [repr(s.s1), repr(s.s2)]
            if cases is not None:
                row.append(cases[t])
            writer.writerow(row)
        final = traj.states[-1]
        row = [traj.n_slots] + [""] * 10 + [repr(final.s1), repr(final.s2)]
        if cases is not None:
            row.append("")
        writer.writerow(row)

