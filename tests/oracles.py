"""Independent oracles used by the test suite.

Nothing here may call into the package's solver or planner paths: the
vertex enumerator checks the LP engine by brute force over basic
solutions, the grid DP checks the planners by discretized dynamic
programming over storage states, the one-slot LP checks the greedy
controller by handing one slot's program straight to scipy's HiGHS, the
public ``linprog`` reference checks the engine's own HiGHS call, the
reference builder spells out the planning programs one constraint row at
a time, and the scalar normalizer spells out action normalization one
action at a time.  Only the domain types of ``energycoop.model`` are shared.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, csr_matrix, vstack

from energycoop.model import (
    DEFAULT_TOL,
    ControlAction,
    StorageState,
    normalize_actions,
)

VERTEX_TOL = 1e-8

# The one-slot LP runs HiGHS at the tolerances the package's LP engine
# uses, and re-checks its point at the engine's certification tolerance.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "presolve": True,
}
ONE_SLOT_FEAS_TOL = 1e-9


def enumerate_lp_optimum(c, eq, ub, bounds):
    """Brute-force a small bounded LP over all candidate vertices.

    Every vertex of a bounded polyhedron is the solution of n linearly
    independent active constraints (all equalities are always active).
    Enumerate those subsets, solve, keep feasible points, take the best.
    Returns ("Optimal", value) or ("Infeasible", None).  Only valid when
    all variable bounds are finite, which keeps the feasible set bounded.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    rows = []
    rhs = []
    for row, b in eq:
        rows.append(np.asarray(row, dtype=float))
        rhs.append(b)
    n_eq = len(rows)
    for row, b in ub:
        rows.append(np.asarray(row, dtype=float))
        rhs.append(b)
    for j, (lo, hi) in enumerate(bounds):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("vertex oracle needs finite bounds")
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e.copy())
        rhs.append(hi)
        rows.append(-e)
        rhs.append(-lo)
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)

    def feasible(x):
        if not np.all(np.isfinite(x)):
            return False
        for (row, b) in eq:
            if abs(np.dot(row, x) - b) > VERTEX_TOL:
                return False
        for (row, b) in ub:
            if np.dot(row, x) - b > VERTEX_TOL:
                return False
        for j, (lo, hi) in enumerate(bounds):
            if x[j] < lo - VERTEX_TOL or x[j] > hi + VERTEX_TOL:
                return False
        return True

    best = None
    free = range(n_eq, len(rows))
    if n_eq > n:
        return ("Infeasible", None)
    for extra in itertools.combinations(free, n - n_eq):
        idx = list(range(n_eq)) + list(extra)
        a = rows[idx]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, rhs[idx])
        if feasible(x):
            val = float(np.dot(c, x))
            if best is None or val < best:
                best = val
    if best is None:
        return ("Infeasible", None)
    return ("Optimal", best)


def linprog_reference(problem, **options):
    """Public ``linprog(method="highs")`` on a program's fields, with the
    engine's options updated by ``options`` (``presolve=False`` and
    ``simplex_dual_edge_weight_strategy="devex"`` for a session made with
    ``value_only=True``).

    ``problem`` is anything with the ``LpProblem`` fields.  Its rows with
    a ``-inf`` lower bound become ``A_ub``; every other row must be an
    equality, or this raises ValueError.  ``linprog`` hands HiGHS the rows
    ``[A_ub; A_eq]`` with the engine's options, so a program whose ``<=``
    rows come first is translated exactly and returns the same point and
    iteration count.
    """
    ub = problem.row_lower == -math.inf
    eq = ~ub
    if not np.array_equal(problem.row_lower[eq], problem.row_upper[eq]):
        raise ValueError("linprog takes only <= rows and equalities")
    a = problem.a
    a = csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    return linprog(problem.objective,
                   A_ub=a[ub], b_ub=problem.row_upper[ub],
                   A_eq=a[eq], b_eq=problem.row_upper[eq],
                   bounds=np.column_stack((problem.lower, problem.upper)),
                   method="highs", options={**_HIGHS_OPTIONS, **options})


def normalize_action_ref(action, alpha):
    """Scalar reference for ``normalize_actions``: one action, field by field.

    Snap dust to +0.0 (``max(0.0, -0.0)`` is ``0.0``), cancel each
    station's charge/discharge overlap m = min(alpha*c, d) as m/alpha of
    charge and m of discharge (with alpha = 0 the charge is dropped), and
    cancel opposing transfers.
    """
    if not all(v >= -DEFAULT_TOL for v in action):
        raise ValueError(
            f"cannot normalize a negative or NaN action: {action}")
    w1, w2, c1, c2, d1, d2, x12, x21 = (max(0.0, v) for v in action)
    pairs = []
    for c, d in ((c1, d1), (c2, d2)):
        if c <= 0.0 or d <= 0.0:
            pairs.append((c, d))
        elif alpha <= 0.0:
            pairs.append((0.0, d))
        elif alpha * c >= d:
            pairs.append((max(0.0, c - d / alpha), 0.0))
        else:
            pairs.append((0.0, d - alpha * c))
    (c1, d1), (c2, d2) = pairs
    q = min(x12, x21)
    return ControlAction(w1, w2, c1, c2, d1, d2, x12 - q, x21 - q)


def greedy_step_lp(params, state, e1, e2, gamma=None):
    """One-slot LP equivalent of the greedy step.

    Minimizes (w1 + w2) - gamma * (stored energy after the slot); any gamma
    in the open interval (0, alpha*beta) makes the LP agree with the
    two-stage greedy on both the grid cost and the storage sum (individual
    storage levels may differ at ties).  Defaults to the interval midpoint.
    Returns the normalized action and the storage pair after the slot.

    For extreme efficiencies (alpha**2 * beta below roughly 1e-12) the
    storage reward drops under the backend's dual tolerance and the LP may
    return an equal-cost action that stores less than the closed-form
    controller; the grid cost is unaffected.
    """
    a, b = params.alpha, params.beta
    if gamma is None:
        gamma = a * b / 2.0
    if not (0.0 < gamma < a * b):
        raise ValueError(f"gamma must be in (0, {a * b}), got {gamma}")
    s1, s2, s_max, inf = state.s1, state.s2, params.s_max, math.inf
    if not (0.0 <= s1 <= s_max and 0.0 <= s2 <= s_max):
        raise ValueError(f"state {state} outside [0, {s_max}]")

    # columns w1 w2 c1 c2 d1 d2 x12 x21
    a_ub = np.array([[0, 0, a, 0, -1, 0, 0, 0],    # storage_ub1
                     [0, 0, -a, 0, 1, 0, 0, 0],    # storage_lb1
                     [0, 0, 0, a, 0, -1, 0, 0],    # storage_ub2
                     [0, 0, 0, -a, 0, 1, 0, 0],    # storage_lb2
                     [-1, 0, 1, 0, -a, 0, 1, -b],  # neutral1
                     [0, -1, 0, 1, 0, -a, -b, 1]],  # neutral2
                    dtype=float)
    b_ub = np.array([s_max - s1, s1, s_max - s2, s2, e1, e2])
    bounds = np.array([(0.0, inf)] * 4 + [(0.0, s1), (0.0, s2)]
                      + [(0.0, inf)] * 2)
    res = linprog([1.0, 1.0, -gamma * a, -gamma * a, gamma, gamma, 0.0, 0.0],
                  A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"one-slot LP failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    excess = np.concatenate((a_ub @ x - b_ub, bounds[:, 0] - x,
                             x - bounds[:, 1]))
    if not np.all(excess <= ONE_SLOT_FEAS_TOL):
        raise RuntimeError(
            f"one-slot LP point violates its program by {excess.max()}")

    action = ControlAction._make(
        normalize_actions(np.maximum(x, 0.0)[None, :], a)[0].tolist())
    s1 = min(max(s1 + a * action.c1 - action.d1, 0.0), s_max)
    s2 = min(max(s2 + a * action.c2 - action.d2, 0.0), s_max)
    return action, StorageState(s1, s2)


def _slot_grid_draw(beta, b1, b2):
    """Minimal grid draw given both stations' post-storage balances.

    Complementary charge/discharge and one-directional transfers lose
    nothing; a transfer is useful only from a surplus toward a deficit and
    beyond the surplus it is dominated by drawing grid power locally.
    """
    w = np.where((b1 < 0) & (b2 < 0), -b1 - b2, 0.0)
    w = np.where((b1 >= 0) & (b2 < 0), np.maximum(0.0, -b2 - beta * b1), w)
    w = np.where((b1 < 0) & (b2 >= 0), np.maximum(0.0, -b1 - beta * b2), w)
    return w


def dp_pair_cost(alpha, beta, s_max, e1_seq, e2_seq, step,
                 s_init=(0.0, 0.0)):
    """Discretized-DP optimal cost for the two-station system.

    Storage levels live on a grid of spacing ``step``; each transition
    fixes both stations' storage deltas, which pins charges/discharges,
    and the only remaining freedom (the transfer) is optimized in closed
    form inside ``_slot_grid_draw``.  The result upper-bounds the true
    optimum and converges to it as ``step`` shrinks.
    """
    grid = np.arange(0.0, s_max + step / 2, step)
    if abs(grid[-1] - s_max) > 1e-12:
        grid = np.append(grid, s_max)
    g = len(grid)

    def balances(e, s_from):
        # balance left at a station after moving storage s_from -> grid[k]
        delta = grid - s_from
        return np.where(delta >= 0, e - delta / alpha, e - alpha * delta)

    n = len(e1_seq)
    value = np.zeros((g, g))
    for t in range(n - 1, -1, -1):
        new_value = np.empty((g, g))
        b2 = np.vstack([balances(e2_seq[t], grid[j]) for j in range(g)])
        for i in range(g):
            b1 = balances(e1_seq[t], grid[i])  # (k,)
            w = _slot_grid_draw(beta, b1[:, None, None], b2[None, :, :])
            total = w + value[:, None, :]  # value[k, l] over axes (k, j, l)
            new_value[i] = total.min(axis=(0, 2))
        value = new_value

    i = int(round(s_init[0] / step))
    j = int(round(s_init[1] / step))
    return float(value[min(i, g - 1), min(j, g - 1)])


def dp_single_cost(alpha, s_max, e_seq, step, s_init=0.0):
    """Discretized-DP optimal cost for one isolated station."""
    grid = np.arange(0.0, s_max + step / 2, step)
    if abs(grid[-1] - s_max) > 1e-12:
        grid = np.append(grid, s_max)
    g = len(grid)
    value = np.zeros(g)
    for t in range(len(e_seq) - 1, -1, -1):
        new_value = np.empty(g)
        for i in range(g):
            delta = grid - grid[i]
            balance = np.where(delta >= 0, e_seq[t] - delta / alpha,
                               e_seq[t] - alpha * delta)
            w = np.maximum(0.0, -balance)
            new_value[i] = (w + value).min()
        value = new_value
    return float(value[min(int(round(s_init / step)), g - 1)])


class _RefRows:
    """COO triplets and right-hand sides of one constraint kind."""

    def __init__(self):
        self.i, self.j, self.v, self.rhs = [], [], [], []

    def add(self, entries, rhs):
        self.i.extend([len(self.rhs)] * len(entries))
        self.j.extend(entries)
        self.v.extend(entries.values())
        self.rhs.append(rhs)

    def matrix(self, n_vars):
        a = coo_matrix((self.v, (self.i, self.j)),
                       shape=(len(self.rhs), n_vars)).tocsr()
        a.eliminate_zeros()
        return a


def reference_planning_program(params, e1, e2, kind, v1=None):
    """The offline planning programs built one dict per constraint row.

    ``kind`` is "stage1" (min total grid draw), "stage2" (max terminal
    storage under the budget v1 + 1e-9 * max(1, |v1|)) or "single_bs"
    (BS 1 alone: stage 1 with e2 replaced by zeros and BS 2's grid, charge
    and discharge columns and both transfer columns pinned to zero; w2
    keeps its stage-1 cost, which its zero bound makes moot).
    Returns a dict with the ``LpProblem`` field names as keys: the ``<=``
    rows stacked over the equalities.
    """
    n = params.n_slots
    a, b = params.alpha, params.beta
    if kind == "single_bs":
        e2 = [0.0] * n

    def slot(t, k):
        return 8 * t + k

    def state(t, bs):
        return 8 * n + 2 * t + bs

    n_vars = 8 * n + 2 * (n + 1)
    objective = np.zeros(n_vars)
    upper = np.full(n_vars, math.inf)
    eq, ub = _RefRows(), _RefRows()

    for t in range(n + 1):
        for bs in range(2):
            upper[state(t, bs)] = params.s_max
    for bs in range(2):
        eq.add({state(0, bs): 1.0}, params.s_init[bs])
    for t in range(n):
        w1, w2, c1, c2, d1, d2, x12, x21 = (slot(t, k) for k in range(8))
        s1, s2 = state(t, 0), state(t, 1)
        s1n, s2n = state(t + 1, 0), state(t + 1, 1)
        # dynamics, energy neutralization, discharge within storage
        eq.add({s1n: 1.0, s1: -1.0, c1: -a, d1: 1.0}, 0.0)
        eq.add({s2n: 1.0, s2: -1.0, c2: -a, d2: 1.0}, 0.0)
        ub.add({w1: -1.0, c1: 1.0, d1: -a, x12: 1.0, x21: -b}, e1[t])
        ub.add({w2: -1.0, c2: 1.0, d2: -a, x21: 1.0, x12: -b}, e2[t])
        ub.add({d1: 1.0, s1: -1.0}, 0.0)
        ub.add({d2: 1.0, s2: -1.0}, 0.0)
        if a == 0.0:
            upper[c1] = 0.0
            upper[c2] = 0.0

    if kind == "stage2":
        objective[state(n, 0)] = -1.0
        objective[state(n, 1)] = -1.0
        budget = {slot(t, k): 1.0 for t in range(n) for k in (0, 1)}
        ub.add(budget, v1 + 1e-9 * max(1.0, abs(v1)))
    elif kind in ("stage1", "single_bs"):
        for t in range(n):
            objective[slot(t, 0)] = 1.0
            objective[slot(t, 1)] = 1.0
            if kind == "single_bs":
                for k in (1, 3, 5, 6, 7):
                    upper[slot(t, k)] = 0.0
    else:
        raise ValueError(f"unknown program kind {kind!r}")

    b_ub, b_eq = (np.asarray(rows.rhs, dtype=float) for rows in (ub, eq))
    return {
        "objective": objective,
        "a": vstack((ub.matrix(n_vars), eq.matrix(n_vars)), format="csr"),
        "row_lower": np.concatenate((np.full(len(b_ub), -math.inf), b_eq)),
        "row_upper": np.concatenate((b_ub, b_eq)),
        "lower": np.zeros(n_vars), "upper": upper,
    }


def single_bs_optimum(params, e):
    """Optimal cost of the "single_bs" reference program of the profile
    (e, 0), by public ``linprog``: the arbiter of the savings baseline."""
    ref = reference_planning_program(params, e, [0.0] * len(e), "single_bs")
    res = linprog_reference(SimpleNamespace(**ref))
    if res.status != 0:
        raise ValueError(f"single-BS reference program: {res.message}")
    return res.fun
