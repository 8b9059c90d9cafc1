"""Closed-form one-step greedy controller.

Per slot the controller minimizes the grid draw and, among equal-cost
choices, maximizes the stored-energy sum.  ``greedy_step_with_case`` does
this with closed-form case rules keyed on the signs of the two net
energies and on whether the line (efficiency beta) beats the
charge/discharge round trip (alpha squared).  Every rule returns one step
record, the eight action fields, s1, s2 after the slot and the case label.
``stepper`` resolves a mode once into its per-slot step, which guards the
mode's rule: every slot's storage must lie within its caps and its net
energies must be finite.  A rollout (``run_greedy``, and the hybrid
planner's greedy layer) resolves its step once and makes each slot's
named tuples from its record inside the slot loop.  The tests check the
rules against a one-slot LP oracle.  No rule calls ``min``, ``max`` or
``abs``: each clamp is a conditional with the builtin's tie rule, the
first operand winning a tie, so ``max(a, b)`` is ``b if b > a else a``,
``min(a, b)`` is ``b if b < a else a`` and ``max(0.0, -0.0)`` stays 0.0.
The step cleans the net energies once, before the rule.
"""

from __future__ import annotations

import math

from .model import (
    ControlAction,
    InvalidState,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    check_slots,
)

# Net energies within this band of zero are classified as exactly zero so
# the case split is deterministic.
CASE_TOL = 1e-12


def _fill(alpha: float, cap: float, s: float, surplus: float,
          ) -> tuple[float, float, float]:
    """Charge as much of ``surplus`` as fits: returns (charge, new s, leftover).

    Bookkeeping is exact: a storage-limited charge lands on the cap, so
    later full/not-full tests never see rounding dust.
    """
    room = cap - s
    want = (room if room > 0.0 else 0.0) / alpha
    if want <= surplus:
        return want, cap, surplus - want
    s += alpha * surplus
    return surplus, s if s < cap else cap, 0.0


def _case1(alpha: float, beta: float, cap1: float, cap2: float,
           s1: float, s2: float, e1: float, e2: float):
    """Both stations in surplus: charge locally, cross-charge, curtail."""
    c1, s1, left1 = _fill(alpha, cap1, s1, e1)
    c2, s2, left2 = _fill(alpha, cap2, s2, e2)
    x12 = x21 = 0.0
    if left1 > 0.0 and s2 < cap2:
        x12 = left1
        extra, s2, _ = _fill(alpha, cap2, s2, beta * x12)
        c2 += extra
    elif left2 > 0.0 and s1 < cap1:
        x21 = left2
        extra, s1, _ = _fill(alpha, cap1, s1, beta * x21)
        c1 += extra
    return (0.0, 0.0, c1, c2, 0.0, 0.0, x12, x21, s1, s2, "1")


def _case2a(alpha: float, beta: float, cap1: float, cap2: float,
            s1: float, s2: float, e1: float, e2: float):
    """Surplus at BS 1, deficit at BS 2, line preferred: transfer first."""
    deficit = -e2
    if deficit / beta <= e1:
        # the deficit is fully covered by transfer; leftover surplus is
        # stored exactly as in the all-surplus case
        x12 = deficit / beta
        w1, w2, c1, c2, d1, d2, x12b, _, s1, s2, _ = _case1(
            alpha, beta, cap1, cap2, s1, s2, e1 - x12, 0.0)
        return (w1, w2, c1, c2, d1, d2, x12 + x12b, 0.0, s1, s2, "2A")
    x12 = e1
    rem = deficit - beta * e1  # > 0: deficit left after sending everything
    d2 = rem / alpha
    d2 = s2 if s2 < d2 else d2
    s2 -= d2
    s2 = s2 if s2 > 0.0 else 0.0
    rem -= alpha * d2
    if rem <= CASE_TOL:
        return (0.0, 0.0, 0.0, 0.0, 0.0, d2, x12, 0.0, s1, s2, "2A")
    d1 = rem / (alpha * beta)
    d1 = s1 if s1 < d1 else d1
    s1 -= d1
    s1 = s1 if s1 > 0.0 else 0.0
    x12 += alpha * d1
    w2 = rem - alpha * beta * d1
    w2 = w2 if w2 > 0.0 else 0.0
    return (0.0, w2, 0.0, 0.0, d1, d2, x12, 0.0, s1, s2, "2A")


def _case2b(alpha: float, beta: float, cap1: float, cap2: float,
            s1: float, s2: float, e1: float, e2: float):
    """Surplus at BS 1, deficit at BS 2, storage round trip preferred.

    BS 1 keeps as much energy in its own storage as covering the deficit
    allows.  When even the whole surplus plus BS 2's storage cannot cover
    the deficit, everything is thrown at it: full transfer, full local
    discharge, then remote discharge, then grid.
    """
    deficit = -e2
    if deficit >= beta * e1 + alpha * s2:
        d2, s2 = s2, 0.0
        rem = deficit - beta * e1 - alpha * d2
        rem = rem if rem > 0.0 else 0.0
        d1 = rem / (alpha * beta)
        d1 = s1 if s1 < d1 else d1
        s1 -= d1
        s1 = s1 if s1 > 0.0 else 0.0
        x12 = e1 + alpha * d1
        w2 = rem - alpha * beta * d1
        w2 = w2 if w2 > 0.0 else 0.0
        return (0.0, w2, 0.0, 0.0, d1, d2, x12, 0.0, s1, s2, "2B.1")
    room1 = cap1 - s1
    room1 = room1 if room1 > 0.0 else 0.0
    x12 = (deficit - alpha * s2) / beta
    spill = e1 - room1 / alpha  # the surplus BS 1 cannot store
    x12 = spill if spill > x12 else x12
    x12 = 0.0 if 0.0 > x12 else x12
    c1 = e1 - x12
    c1 = c1 if c1 > 0.0 else 0.0
    d2 = (deficit - beta * x12) / alpha
    d2 = 0.0 if 0.0 > d2 else d2
    if d2 > 0.0:
        d2 = s2 if s2 < d2 else d2
        c2 = 0.0
    else:
        room2, over = cap2 - s2, beta * x12 - deficit
        c2 = (room2 if room2 > 0.0 else 0.0) / alpha
        over = over if over > 0.0 else 0.0
        c2 = over if over < c2 else c2
    s1 += alpha * c1
    s1 = s1 if s1 < cap1 else cap1
    s2 = s2 + alpha * c2 - d2
    s2 = s2 if s2 > 0.0 else 0.0
    s2 = s2 if s2 < cap2 else cap2
    return (0.0, 0.0, c1, c2, 0.0, d2, x12, 0.0, s1, s2, "2B.2")


def _mirror(result):
    """Swap the two stations' roles in a step result."""
    w1, w2, c1, c2, d1, d2, x12, x21, s1, s2, label = result
    return (w2, w1, c2, c1, d2, d1, x21, x12, s2, s1, "3" + label[1:])


def _case4(alpha: float, beta: float, cap1: float, cap2: float,
           s1: float, s2: float, e1: float, e2: float, case2):
    """Both stations in deficit: each drains its own storage first."""
    parts = []
    for s, e in ((s1, e1), (s2, e2)):
        need = -e / alpha
        if need <= s:
            parts.append((need, s - need, 0.0))
        else:
            parts.append((s, 0.0, e + alpha * s))
    (d1, s1, e1p), (d2, s2, e2p) = parts
    if e1p < 0.0 and e2p < 0.0:
        return (-e1p, -e2p, 0.0, 0.0, d1, d2, 0.0, 0.0, s1, s2, "4")
    e1p = 0.0 if -CASE_TOL <= e1p <= CASE_TOL else e1p
    e2p = 0.0 if -CASE_TOL <= e2p <= CASE_TOL else e2p
    sub = _dispatch(alpha, beta, cap1, cap2, s1, s2, e1p, e2p, case2)
    w1, w2, c1, c2, d1s, d2s, x12, x21, s1, s2, label = sub
    return (w1, w2, c1, c2, d1 + d1s, d2 + d2s, x12, x21, s1, s2,
            "4-" + label)


def _dispatch(alpha: float, beta: float, cap1: float, cap2: float,
              s1: float, s2: float, e1: float, e2: float, case2):
    """The case rules on cleaned energies; ``case2`` is 2A or 2B."""
    if e1 >= 0.0 and e2 >= 0.0:
        return _case1(alpha, beta, cap1, cap2, s1, s2, e1, e2)
    if e1 < 0.0 and e2 < 0.0:
        return _case4(alpha, beta, cap1, cap2, s1, s2, e1, e2, case2)
    if e1 >= 0.0:
        return case2(alpha, beta, cap1, cap2, s1, s2, e1, e2)
    return _mirror(case2(alpha, beta, cap2, cap1, s2, s1, e2, e1))


def _step_no_storage(alpha: float, beta: float, cap1: float, cap2: float,
                     s1: float, s2: float, e1: float, e2: float, case2):
    w1 = w2 = x12 = x21 = 0.0
    if e1 < 0.0 and e2 < 0.0:
        w1, w2 = -e1, -e2
    elif e1 >= 0.0 > e2:
        if beta > 0.0:
            x12 = -e2 / beta
            x12 = x12 if x12 < e1 else e1
        w2 = -(e2 + beta * x12)
        w2 = w2 if w2 > 0.0 else 0.0
    elif e2 >= 0.0 > e1:
        if beta > 0.0:
            x21 = -e1 / beta
            x21 = x21 if x21 < e2 else e2
        w1 = -(e1 + beta * x21)
        w1 = w1 if w1 > 0.0 else 0.0
    return (w1, w2, 0.0, 0.0, 0.0, 0.0, x12, x21, s1, s2, "no_storage")


def _step_no_transfer(alpha: float, beta: float, cap1: float, cap2: float,
                      s1: float, s2: float, e1: float, e2: float, case2):
    out = []
    for cap, s, e in ((cap1, s1, e1), (cap2, s2, e2)):
        w = c = d = 0.0
        if e >= 0.0:
            if alpha > 0.0:
                c, s, _ = _fill(alpha, cap, s, e)
        else:
            if alpha > 0.0:
                d = -e / alpha
                d = d if d < s else s
                s -= d
                s = s if s > 0.0 else 0.0
            w = -(e + alpha * d)
            w = w if w > 0.0 else 0.0
        out.append((w, c, d, s))
    (w1, c1, d1, s1), (w2, c2, d2, s2) = out
    return (w1, w2, c1, c2, d1, d2, 0.0, 0.0, s1, s2, "no_transfer")


# each mode's rule; all take _dispatch's arguments
_RULES = {"standard": _dispatch, "force_case_2a": _dispatch,
          "no_storage": _step_no_storage, "no_transfer": _step_no_transfer}
MODES = tuple(_RULES)


def stepper(mode: str, alpha: float, beta: float):
    """The per-slot step ``step(cap1, cap2, s1, s2, e1, e2)`` of ``mode``.

    Raises ValueError unless ``mode`` is known and allows (alpha, beta):
    the case rules of ``standard`` and ``force_case_2a`` divide by
    alpha * beta, so both efficiencies and their product must be > 0.
    The step returns the mode's step record from storage (s1, s2) under
    caps (cap1, cap2).  A pair outside the caps by more than CASE_TOL
    raises InvalidState and non-finite net energies raise ValueError; the
    pair is then clamped onto [0, cap1] x [0, cap2] and, once per step,
    each energy within CASE_TOL of zero becomes 0.0 (see the module doc).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    rule = _RULES[mode]
    if rule is _dispatch and not (alpha > 0.0 and beta > 0.0):
        raise ValueError(f"mode {mode!r} needs alpha > 0 and beta > 0, "
                         f"got alpha = {alpha}, beta = {beta}")
    if rule is _dispatch and not alpha * beta > 0.0:  # an underflow
        raise ValueError(f"mode {mode!r} needs alpha * beta > 0, got "
                         f"alpha * beta = {alpha * beta} (alpha = {alpha}, "
                         f"beta = {beta})")
    # the mixed-sign rule: transfer first if forced or the line beats storage
    case2 = (_case2a if mode == "force_case_2a" or beta >= alpha * alpha
             else _case2b)

    def step(cap1: float, cap2: float, s1: float, s2: float,
             e1: float, e2: float):
        if not (-CASE_TOL <= s1 <= cap1 + CASE_TOL
                and -CASE_TOL <= s2 <= cap2 + CASE_TOL):
            raise InvalidState(
                f"storage ({s1}, {s2}) outside caps ({cap1}, {cap2})")
        if not (math.isfinite(e1) and math.isfinite(e2)):
            raise ValueError(f"net energies ({e1}, {e2}) are not finite")
        # min(max(s, 0.0), cap), and abs(e) <= CASE_TOL as a chained test
        s1 = 0.0 if 0.0 > s1 else s1
        s2 = 0.0 if 0.0 > s2 else s2
        return rule(alpha, beta, cap1, cap2, cap1 if cap1 < s1 else s1,
                    cap2 if cap2 < s2 else s2,
                    0.0 if -CASE_TOL <= e1 <= CASE_TOL else e1,
                    0.0 if -CASE_TOL <= e2 <= CASE_TOL else e2, case2)
    return step


def greedy_step_with_case(params: SystemParams, state: StorageState,
                          e1: float, e2: float, mode: str = "standard",
                          ) -> tuple[ControlAction, StorageState, str]:
    """One greedy step from ``state`` under (e1, e2) and the case it took."""
    r = stepper(mode, params.alpha, params.beta)(
        params.s_max, params.s_max, state.s1, state.s2, e1, e2)
    return ControlAction._make(r[:8]), StorageState(r[8], r[9]), r[10]


def run_greedy(params: SystemParams, profile: NetEnergyProfile,
               mode: str = "standard") -> Trajectory:
    """Roll the greedy controller over the whole horizon.

    Modes: ``standard`` (the case rules as derived), ``force_case_2a``
    (transfer-first rule applied to every mixed-sign slot, optimal when one
    station is always in surplus and the other always in deficit),
    ``no_storage`` and ``no_transfer``; the last two take any alpha and
    beta, the first two need both positive.  The mode is resolved once
    into its ``stepper`` step, which checks every slot.
    """
    check_slots("profile", profile.n_slots, params.n_slots)
    step, cap = stepper(mode, params.alpha, params.beta), params.s_max
    (s1, s2), new = params.s_init, tuple.__new__
    actions, states, cases = [], [new(StorageState, (s1, s2))], []
    for e1, e2 in zip(profile.e1, profile.e2):
        w1, w2, c1, c2, d1, d2, x12, x21, s1, s2, label = step(
            cap, cap, s1, s2, e1, e2)
        actions.append(new(ControlAction, (w1, w2, c1, c2, d1, d2, x12, x21)))
        states.append(new(StorageState, (s1, s2)))
        cases.append(label)
    return Trajectory(tuple(actions), tuple(states), tuple(cases))
