"""Closed-form one-step greedy controller.

Per slot the controller minimizes the grid draw and, among equal-cost
choices, maximizes the stored-energy sum.  ``greedy_step_with_case`` does
this with closed-form case rules keyed on the signs of the two net
energies and on whether the line (efficiency beta) beats the
charge/discharge round trip (alpha squared).  The tests check it against
a one-slot LP oracle.
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

MODES = ("standard", "force_case_2a", "no_storage", "no_transfer")


def _clean(e: float) -> float:
    return 0.0 if abs(e) <= CASE_TOL else e


def _fill(alpha: float, cap: float, s: float, surplus: float,
          ) -> tuple[float, float, float]:
    """Charge as much of ``surplus`` as fits: returns (charge, new s, leftover).

    Bookkeeping is exact: a storage-limited charge lands on the cap, so
    later full/not-full tests never see rounding dust.
    """
    room = max(0.0, cap - s)
    want = room / alpha
    if want <= surplus:
        return want, cap, surplus - want
    return surplus, min(cap, s + alpha * surplus), 0.0


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
    d2 = min(rem / alpha, s2)
    s2 = max(0.0, s2 - d2)
    rem -= alpha * d2
    if rem <= CASE_TOL:
        return (0.0, 0.0, 0.0, 0.0, 0.0, d2, x12, 0.0, s1, s2, "2A")
    d1 = min(rem / (alpha * beta), s1)
    s1 = max(0.0, s1 - d1)
    x12 += alpha * d1
    w2 = max(0.0, rem - alpha * beta * d1)
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
        rem = max(0.0, deficit - beta * e1 - alpha * d2)
        d1 = min(rem / (alpha * beta), s1)
        s1 = max(0.0, s1 - d1)
        x12 = e1 + alpha * d1
        w2 = max(0.0, rem - alpha * beta * d1)
        return (0.0, w2, 0.0, 0.0, d1, d2, x12, 0.0, s1, s2, "2B.1")
    room1 = max(0.0, cap1 - s1)
    x12 = max((deficit - alpha * s2) / beta, e1 - room1 / alpha, 0.0)
    c1 = max(0.0, e1 - x12)
    d2 = max((deficit - beta * x12) / alpha, 0.0)
    if d2 > 0.0:
        d2 = min(d2, s2)
        c2 = 0.0
    else:
        c2 = min(max(0.0, cap2 - s2) / alpha,
                 max(0.0, beta * x12 - deficit))
    s1 = min(cap1, s1 + alpha * c1)
    s2 = min(cap2, max(0.0, s2 + alpha * c2 - d2))
    return (0.0, 0.0, c1, c2, 0.0, d2, x12, 0.0, s1, s2, "2B.2")


def _mirror(result):
    """Swap the two stations' roles in a step result."""
    w1, w2, c1, c2, d1, d2, x12, x21, s1, s2, label = result
    return (w2, w1, c2, c1, d2, d1, x21, x12, s2, s1, "3" + label[1:])


def _case4(alpha: float, beta: float, cap1: float, cap2: float,
           s1: float, s2: float, e1: float, e2: float, force_2a: bool):
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
    sub = _dispatch(alpha, beta, cap1, cap2, s1, s2, e1p, e2p, force_2a)
    w1, w2, c1, c2, d1s, d2s, x12, x21, s1, s2, label = sub
    return (w1, w2, c1, c2, d1 + d1s, d2 + d2s, x12, x21, s1, s2,
            "4-" + label)


def _dispatch(alpha: float, beta: float, cap1: float, cap2: float,
              s1: float, s2: float, e1: float, e2: float, force_2a: bool):
    e1, e2 = _clean(e1), _clean(e2)
    if e1 >= 0.0 and e2 >= 0.0:
        return _case1(alpha, beta, cap1, cap2, s1, s2, e1, e2)
    if e1 >= 0.0:
        if force_2a or beta >= alpha * alpha:
            return _case2a(alpha, beta, cap1, cap2, s1, s2, e1, e2)
        return _case2b(alpha, beta, cap1, cap2, s1, s2, e1, e2)
    if e2 >= 0.0:
        if force_2a or beta >= alpha * alpha:
            return _mirror(_case2a(alpha, beta, cap2, cap1, s2, s1, e2, e1))
        return _mirror(_case2b(alpha, beta, cap2, cap1, s2, s1, e2, e1))
    return _case4(alpha, beta, cap1, cap2, s1, s2, e1, e2, force_2a)


def _step_no_storage(beta: float, e1: float, e2: float):
    e1, e2 = _clean(e1), _clean(e2)
    w1 = w2 = x12 = x21 = 0.0
    if e1 < 0.0 and e2 < 0.0:
        w1, w2 = -e1, -e2
    elif e1 >= 0.0 > e2:
        if beta > 0.0:
            x12 = min(e1, -e2 / beta)
        w2 = max(0.0, -(e2 + beta * x12))
    elif e2 >= 0.0 > e1:
        if beta > 0.0:
            x21 = min(e2, -e1 / beta)
        w1 = max(0.0, -(e1 + beta * x21))
    return (w1, w2, 0.0, 0.0, 0.0, 0.0, x12, x21)


def _step_no_transfer(alpha: float, cap1: float, cap2: float,
                      s1: float, s2: float, e1: float, e2: float):
    out = []
    for cap, s, e in ((cap1, s1, _clean(e1)), (cap2, s2, _clean(e2))):
        w = c = d = 0.0
        if e >= 0.0:
            if alpha > 0.0:
                c, s, _ = _fill(alpha, cap, s, e)
        else:
            if alpha > 0.0:
                d = min(s, -e / alpha)
                s = max(0.0, s - d)
            w = max(0.0, -(e + alpha * d))
        out.append((w, c, d, s))
    (w1, c1, d1, s1), (w2, c2, d2, s2) = out
    return (w1, w2, c1, c2, d1, d2, 0.0, 0.0, s1, s2)


def check_mode(mode: str, alpha: float, beta: float) -> None:
    """Raise ValueError unless ``mode`` is known and allows (alpha, beta):
    the case rules of the first two ``MODES`` divide by both efficiencies."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not (alpha > 0.0 and beta > 0.0) and mode in MODES[:2]:
        raise ValueError(f"mode {mode!r} needs alpha > 0 and beta > 0, "
                         f"got alpha = {alpha}, beta = {beta}")


def capped_step(alpha: float, beta: float, cap1: float, cap2: float,
                s1: float, s2: float, e1: float, e2: float,
                mode: str = "standard",
                ) -> tuple[ControlAction, StorageState, str]:
    """One greedy step with independent per-station storage caps.

    The caps replace the shared capacity everywhere the decision rules
    reference it; the hybrid planner uses this to run the controller inside
    the storage head-room its offline component leaves free.  Non-finite
    net energies raise ValueError.
    """
    check_mode(mode, alpha, beta)
    if not (-CASE_TOL <= s1 <= cap1 + CASE_TOL
            and -CASE_TOL <= s2 <= cap2 + CASE_TOL):
        raise InvalidState(
            f"storage ({s1}, {s2}) outside caps ({cap1}, {cap2})")
    if not (math.isfinite(e1) and math.isfinite(e2)):
        raise ValueError(f"net energies ({e1}, {e2}) are not finite")
    s1 = min(max(s1, 0.0), cap1)
    s2 = min(max(s2, 0.0), cap2)

    if mode == "no_storage":
        r = _step_no_storage(beta, e1, e2)
        return ControlAction._make(r), StorageState(s1, s2), mode
    if mode == "no_transfer":
        r = _step_no_transfer(alpha, cap1, cap2, s1, s2, e1, e2)
        return ControlAction._make(r[:8]), StorageState(r[8], r[9]), mode

    r = _dispatch(alpha, beta, cap1, cap2, s1, s2, e1, e2,
                  force_2a=(mode == "force_case_2a"))
    return ControlAction._make(r[:8]), StorageState(r[8], r[9]), r[10]


def greedy_step_with_case(params: SystemParams, state: StorageState,
                          e1: float, e2: float, mode: str = "standard",
                          ) -> tuple[ControlAction, StorageState, str]:
    """One greedy step from ``state`` under (e1, e2) and the case it took."""
    return capped_step(params.alpha, params.beta, params.s_max,
                       params.s_max, state.s1, state.s2, e1, e2, mode)


def run_greedy(params: SystemParams, profile: NetEnergyProfile,
               mode: str = "standard") -> Trajectory:
    """Roll the greedy controller over the whole horizon.

    Modes: ``standard`` (the case rules as derived), ``force_case_2a``
    (transfer-first rule applied to every mixed-sign slot, optimal when one
    station is always in surplus and the other always in deficit),
    ``no_storage`` and ``no_transfer``; the last two take any alpha and
    beta, the first two need both positive.
    """
    check_slots("profile", profile.n_slots, params.n_slots)
    check_mode(mode, params.alpha, params.beta)

    state = StorageState(*params.s_init)
    actions, states, cases = [], [state], []
    for e1, e2 in zip(profile.e1, profile.e2):
        action, state, label = greedy_step_with_case(
            params, state, e1, e2, mode)
        actions.append(action)
        states.append(state)
        cases.append(label)
    return Trajectory(tuple(actions), tuple(states), tuple(cases))
