"""LP engine contract: certified optima, raised failures, invariants."""

import math
import os
import pickle
import re
import subprocess
import sys
from copy import deepcopy
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import _linprog_highs
from scipy.optimize._highspy._core import (
    HighsModelStatus, HighsStatus, HighsVarType, ObjSense, _Highs)
from scipy.sparse import csr_matrix

from energycoop import (SystemParams, add_gaussian_noise, lp, offline,
                        sinusoid)
from energycoop.lp import (
    FEAS_TOL, LpInfeasible, LpProblem, LpSession, SolverError, lp_solve)
from energycoop.offline import build_stage1, build_stage2, plan_and_price

from helpers import dense_csr, make_problem, scipy_csr
from oracles import enumerate_lp_optimum, linprog_reference


def random_program(rng):
    n = int(rng.integers(2, 7))
    lo = rng.uniform(-2, 0, n)
    hi = rng.uniform(0.5, 3, n)
    c = rng.normal(size=n)
    eq = [(rng.normal(size=n), rng.normal())
          for _ in range(int(rng.integers(0, min(2, n))))]
    ub = [(rng.normal(size=n), rng.normal())
          for _ in range(int(rng.integers(0, 4)))]
    return c, eq, ub, list(zip(lo, hi))


def test_min_nonneg_var():
    sol = lp_solve(make_problem([1.0]))
    assert isinstance(sol.x, np.ndarray)
    assert sol.x[0] == pytest.approx(0.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)


def test_max_bounded_var():
    sol = lp_solve(make_problem([-1.0], bounds=[(0.0, 3.0)]))
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(-3.0)


def test_unbounded():
    with pytest.raises(SolverError, match="unbounded") as exc:
        lp_solve(make_problem([-1.0]))
    assert not isinstance(exc.value, LpInfeasible)


def test_infeasible():
    with pytest.raises(LpInfeasible):
        lp_solve(make_problem([1.0], eq=[(np.array([1.0]), -2.0)]))


def test_validation():
    with pytest.raises(ValueError):
        make_problem([1.0, 1.0], eq=[(np.array([1.0]), 0.0)])
    with pytest.raises(ValueError):
        make_problem([1.0], bounds=[(2.0, 1.0)])


def test_vertex_oracle_agreement_smoke():
    # the full 200-program run is acceptance criterion 11
    rng = np.random.default_rng(42)
    for _ in range(40):
        c, eq, ub, bounds = random_program(rng)
        problem = make_problem(c, eq, ub, bounds)
        status, value = enumerate_lp_optimum(c, eq, ub, bounds)
        if status == "Infeasible":
            with pytest.raises(LpInfeasible):
                lp_solve(problem)
        else:
            sol = lp_solve(problem)
            assert sol.objective_value == pytest.approx(value, abs=1e-7)


def test_optimal_point_certified_feasible():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c, eq, ub, bounds = random_program(rng)
        try:
            x = lp_solve(make_problem(c, eq, ub, bounds)).x
        except LpInfeasible:
            continue
        for row, b in eq:
            assert abs(np.dot(row, x) - b) <= 1e-9
        for row, b in ub:
            assert np.dot(row, x) - b <= 1e-9
        for j, (lo, hi) in enumerate(bounds):
            assert lo - 1e-9 <= x[j] <= hi + 1e-9


def test_row_permutation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        c, eq, ub, bounds = random_program(rng)
        perm = make_problem(c, eq[::-1], ub[::-1], bounds)
        try:
            base = lp_solve(make_problem(c, eq, ub, bounds))
        except LpInfeasible:
            with pytest.raises(LpInfeasible):
                lp_solve(perm)
            continue
        assert abs(base.objective_value
                   - lp_solve(perm).objective_value) <= 1e-9


def test_redundant_row_invariance():
    rng = np.random.default_rng(13)
    count = 0
    while count < 25:
        c, eq, ub, bounds = random_program(rng)
        if not ub:
            continue
        count += 1
        dup = make_problem(c, eq, ub + [ub[0]], bounds)
        try:
            base = lp_solve(make_problem(c, eq, ub, bounds))
        except LpInfeasible:
            with pytest.raises(LpInfeasible):
                lp_solve(dup)
            continue
        assert abs(base.objective_value
                   - lp_solve(dup).objective_value) <= 1e-9


def test_determinism():
    rng = np.random.default_rng(3)
    c, eq, ub, bounds = random_program(rng)
    a = lp_solve(make_problem(c, eq, ub, bounds))
    b = lp_solve(make_problem(c, eq, ub, bounds))
    assert np.array_equal(a.x, b.x)
    assert (a.objective_value, a.iterations) == (b.objective_value,
                                                 b.iterations)


def _mutated_backend(monkeypatch, status=None, x=None):
    """Replace the HiGHS class the session instantiates with the real one
    whose reported model status (``status``) and point (``x``) are swapped
    in once the returned ``armed`` list is non-empty.  ``created`` lists
    every instance, so a test can tell a warm re-solve from a cold one."""
    armed, created = [], []

    class Mutated:
        def __init__(self):
            self.real = _Highs()
            created.append(self)

        def __getattr__(self, name):
            return getattr(self.real, name)

        def getModelStatus(self):
            if armed and status is not None:
                return status
            return self.real.getModelStatus()

        def getSolution(self):
            if armed and x is not None:  # HiGHS's duals, another point
                return SimpleNamespace(
                    col_value=x, row_dual=self.real.getSolution().row_dual)
            return self.real.getSolution()

    monkeypatch.setattr(lp, "_Highs", Mutated)
    return armed, created


def _armed_session(problem, armed, warm):
    """A session whose next solve of ``problem`` runs mutated: cold on a
    fresh session, or warm after a clean solve of ``problem`` with looser
    ``<=`` rows."""
    session = LpSession()
    if warm:
        session.solve(replace(problem, row_upper=problem.row_upper + 1.0))
    armed.append(True)
    return session


def test_nan_point_not_certified(monkeypatch):
    # every comparison with NaN is false, so a NaN entry must fail the
    # re-check rather than slip through it, on a warm run as on a cold one
    problem = make_problem([1.0, 1.0], ub=[(np.array([1.0, 1.0]), 2.0)],
                           bounds=[(0.0, 1.0), (0.0, 1.0)])
    for warm in (False, True):
        armed, created = _mutated_backend(monkeypatch,
                                          x=np.array([math.nan, 0.5]))
        session = _armed_session(problem, armed, warm)
        with pytest.raises(SolverError, match="violated by nan"):
            session.solve(problem)
        assert len(created) == 1  # a warm run reused the first instance


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
def test_certificate_tolerance_scales_with_the_row_bounds(scale):
    # x1 + x2 = scale: the tolerance is FEAS_TOL * scale on the row and on
    # each column bound, which a finite column bound of 1e300 does not
    # widen; a point off by 10 times it is rejected, by a tenth accepted
    problem = replace(make_problem([1.0, 1.0], bounds=[(0.0, 1e300)] * 2),
                      a=dense_csr(np.ones((1, 2))),
                      row_lower=np.full(1, scale), row_upper=np.full(1, scale))
    tol = FEAS_TOL * scale
    for kind, x in (("row 0", lambda off: [scale, off]),
                    ("bound of variable 1", lambda off: [scale + off, -off])):
        lp._certify(problem, np.array(x(0.1 * tol)))
        with pytest.raises(SolverError, match=(
                rf"^{kind} violated by \S+ \(tolerance {tol:.3e}\) after")):
            lp._certify(problem, np.array(x(10 * tol)))


def test_point_below_a_ge_row_not_certified(monkeypatch):
    # x1 + x2 >= 1 is a row with a finite lower bound only; a point under
    # it fails the re-check like one over a <= row
    problem = replace(make_problem([1.0, 1.0], bounds=[(0.0, 1.0)] * 2),
                      a=dense_csr(np.ones((1, 2))), row_lower=np.ones(1),
                      row_upper=np.full(1, math.inf))
    armed, _ = _mutated_backend(monkeypatch, x=np.array([0.25, 0.25]))
    assert lp_solve(problem).objective_value == pytest.approx(1.0)
    armed.append(True)
    with pytest.raises(SolverError, match="row 0 violated by 5.000e-01"):
        lp_solve(problem)


@pytest.mark.parametrize("status, point", [
    (None, [0.5, 0.5]), (HighsModelStatus.kUnknown, None)])
def test_value_only_solve_highs_cannot_back_is_resolved(monkeypatch, status,
                                                        point):
    # min x1 + 2 x2 with x1 + x2 >= 1 and x in [0, 1]^2 has the optimum
    # (1, 0); the first instance calls the feasible (0.5, 0.5) optimal, 0.5
    # worse, beside HiGHS's own duals, which prove 1, or reports no
    # verdict; the session re-solves it cold with lp_solve's options and
    # goes on warm in that instance
    problem = replace(make_problem([1.0, 2.0], bounds=[(0.0, 1.0)] * 2),
                      a=dense_csr(np.ones((1, 2))), row_lower=np.ones(1),
                      row_upper=np.full(1, math.inf))
    created = []

    class FirstMisleads:
        def __init__(self):
            self.real = _Highs()
            created.append(self)

        def __getattr__(self, name):
            return getattr(self.real, name)

        def getModelStatus(self):
            if self is created[0] and status is not None:
                return status
            return self.real.getModelStatus()

        def getSolution(self):
            real = self.real.getSolution()
            if self is created[0] and point is not None:
                return SimpleNamespace(col_value=point,
                                       row_dual=real.row_dual)
            return real

    monkeypatch.setattr(lp, "_Highs", FirstMisleads)
    session = LpSession(value_only=True)
    sol = session.solve(problem)
    assert sol.x.tolist() == [1.0, 0.0] and sol.objective_value == 1.0
    assert len(created) == 2 and session._highs is created[1]
    assert created[1].getOptions().presolve == "on"
    edited = replace(problem, row_lower=np.full(1, 0.5))
    assert session.solve(edited).objective_value == 0.5
    assert len(created) == 2  # warm in the instance of the re-solve


def test_dual_certificate_rejects_what_the_primal_one_passes():
    # a stage-1 price is certified by its duals; a sign-flipped dual, or a
    # value 1e-9 above the bound the duals prove, fails, as in the prices
    # HiGHS gave without presolve at alpha = 1e-3
    params = SystemParams(0.9, 0.8, 1.0, 24)
    stage1 = build_stage1(params, sinusoid(3.0, 2 * math.pi / 24,
                                           math.pi / 2, 24))
    sol = LpSession(value_only=True).solve(stage1)
    lp._certify_dual(stage1, sol)
    v = sol.objective_value
    lp._certify_dual(stage1, replace(sol, objective_value=v * (1 + 1e-14)))
    with pytest.raises(SolverError, match=r"^duality gap 1\.0\d*e-09 "):
        lp._certify_dual(stage1, replace(sol, objective_value=v * (1 + 1e-9)))
    flipped = replace(sol, row_dual=-sol.row_dual,
                      reduced_cost=2 * stage1.objective - sol.reduced_cost)
    with pytest.raises(SolverError, match="on an infinite bound"):
        lp._certify_dual(stage1, flipped)


@pytest.mark.parametrize("status, error, match", [
    (HighsModelStatus.kInfeasible, LpInfeasible, "LP infeasible"),
    (HighsModelStatus.kUnbounded, SolverError, "LP unbounded"),
    (HighsModelStatus.kUnboundedOrInfeasible, SolverError,
     "LP backend failed: HiGHS status kUnboundedOrInfeasible"),
    (HighsModelStatus.kModelError, SolverError,
     "LP backend failed: HiGHS status kModelError"),
    (HighsModelStatus.kIterationLimit, SolverError, "LP backend failed"),
])
def test_backend_status_mapping(monkeypatch, status, error, match):
    problem = make_problem([1.0], ub=[(np.array([1.0]), 2.0)])
    for warm in (False, True):
        armed, created = _mutated_backend(monkeypatch, status=status)
        session = _armed_session(problem, armed, warm)
        with pytest.raises(error, match=match) as exc:
            session.solve(problem)
        assert len(created) == 1
        assert isinstance(exc.value, LpInfeasible) == (error is LpInfeasible)


def _feasible_program(rng):
    """A random program with a finite box and a strictly feasible point."""
    while True:
        problem = make_problem(*random_program(rng))
        try:
            lp_solve(problem)
        except LpInfeasible:
            continue
        return problem


def _random_edit(problem, rng):
    """``problem`` with some row bounds, column bounds or costs moved; the
    constraint matrix is the same object.  A ``<=`` row moves its upper
    bound, an equality both."""
    n = problem.n_vars
    pick = rng.random(n) < 0.5
    changes = {}
    ub = problem.row_lower == -math.inf
    shift = np.zeros(len(ub))
    for rows, scale in ((ub, 0.3), (~ub, 0.1)):
        if rows.any() and rng.random() < 0.6:
            shift[rows] = rng.normal(scale=scale, size=rows.sum())
    if shift.any():
        changes["row_lower"] = problem.row_lower + shift
        changes["row_upper"] = problem.row_upper + shift
    if rng.random() < 0.5:
        # lower and upper bounds move on independent columns
        upper = np.where(pick, problem.upper + rng.uniform(-0.3, 0.5, n),
                         problem.upper)
        lower = np.where(rng.random(n) < 0.5,
                         problem.lower + rng.uniform(-0.5, 0.3, n),
                         problem.lower)
        changes["lower"] = np.minimum(lower, upper - 0.1)
        changes["upper"] = upper
    if rng.random() < 0.5:
        changes["objective"] = np.where(pick, rng.normal(size=n),
                                        problem.objective)
    return replace(problem, **changes)


def _assert_feasible(problem, x):
    """Every row and column bound of ``problem`` holds at x to FEAS_TOL."""
    ax = scipy_csr(problem.a) @ x
    assert np.all((problem.row_lower - FEAS_TOL <= ax)
                  & (ax <= problem.row_upper + FEAS_TOL))
    assert np.all((problem.lower - FEAS_TOL <= x)
                  & (x <= problem.upper + FEAS_TOL))


@pytest.mark.parametrize("value_only", [False, True])
def test_session_warm_resolves_match_cold(value_only):
    # random edits of right-hand sides, bounds and costs re-solve warm;
    # each point is certified and attains the cold optimum
    rng = np.random.default_rng(5)
    warm_solves = 0
    for _ in range(30):
        problem = _feasible_program(rng)
        session = LpSession(value_only)
        session.solve(problem)
        for _ in range(5):
            edited = _random_edit(problem, rng)
            try:
                cold = lp_solve(edited).objective_value
            except LpInfeasible:
                with pytest.raises(LpInfeasible):
                    session.solve(edited)
                break  # the session is cold after a failure
            highs = session._highs
            sol = session.solve(edited)
            warm_solves += session._highs is highs
            assert abs(sol.objective_value - cold) <= 1e-9 * max(1.0,
                                                                 abs(cold))
            _assert_feasible(edited, sol.x)
            problem = edited
    assert warm_solves >= 100


def test_optimal_face_resolves_warm(monkeypatch):
    # a new cost on the optimal face of a solved program: some tight <=
    # rows become equalities and some columns at a bound are fixed there;
    # a replace edit shares ``a``, so the session re-solves it warm on its
    # one HiGHS instance, and the certified optimum is the cold one and
    # the vertex oracle's
    _, created = _mutated_backend(monkeypatch)
    rng = np.random.default_rng(19)
    checked = rows_fixed = cols_fixed = 0
    for _ in range(80):
        c, eq, ub, bounds = random_program(rng)
        problem = make_problem(c, eq, ub, bounds)
        session, before = LpSession(), len(created)
        try:
            x = session.solve(problem).x
        except LpInfeasible:
            continue
        slack = problem.row_upper - scipy_csr(problem.a) @ x
        tight = ((problem.row_lower == -math.inf) & (slack <= FEAS_TOL)
                 & (rng.random(len(slack)) < 0.7))
        at_lower = (np.abs(x - problem.lower) <= FEAS_TOL) & (rng.random(
            len(x)) < 0.7)
        at_upper = (np.abs(x - problem.upper) <= FEAS_TOL) & (rng.random(
            len(x)) < 0.7)
        face = replace(
            problem, objective=rng.normal(size=len(x)),
            row_lower=np.where(tight, problem.row_upper, problem.row_lower),
            lower=np.where(at_upper, problem.upper, problem.lower),
            upper=np.where(at_lower, problem.lower, problem.upper))
        sol = session.solve(face)
        assert face.a is problem.a and len(created) == before + 1
        cold = lp_solve(face)
        assert abs(sol.objective_value - cold.objective_value) <= 1e-9 * max(
            1.0, abs(cold.objective_value))
        _assert_feasible(face, sol.x)
        face_eq = eq + [row for row, t in zip(ub, tight) if t]
        face_ub = [row for row, t in zip(ub, tight) if not t]
        status, value = enumerate_lp_optimum(
            face.objective, face_eq, face_ub,
            np.column_stack((face.lower, face.upper)))
        assert status == "Optimal"
        assert sol.objective_value == pytest.approx(value, abs=1e-7)
        checked += 1
        rows_fixed += tight.any()
        cols_fixed += (at_lower | at_upper).any()
    assert checked >= 50 and rows_fixed >= 20 and cols_fixed >= 40


def _random_ranged_program(rng):
    """A random program with a >= row, a two-sided row and up to two more
    rows of either kind or equalities, in the row form and in the dense
    (eq, ub) form the vertex oracle takes."""
    n = int(rng.integers(2, 6))
    c = rng.normal(size=n)
    bounds = list(zip(rng.uniform(-2, 0, n), rng.uniform(0.5, 3, n)))
    kinds = ["ge", "range", *rng.choice(["ge", "range", "eq"],
                                        size=int(rng.integers(0, 3)))]
    rows, lower, upper, eq, ub = [], [], [], [], []
    for kind in kinds:
        row, lo = rng.normal(size=n), rng.normal()
        hi = {"ge": math.inf, "range": lo + rng.uniform(0.0, 1.5),
              "eq": lo}[kind]
        rows.append(row)
        lower.append(lo)
        upper.append(hi)
        if kind == "eq":
            eq.append((row, lo))
            continue
        ub.append((-row, -lo))
        if hi < math.inf:
            ub.append((row, hi))
    problem = LpProblem(c, dense_csr(rows), np.array(lower),
                        np.array(upper), *np.array(bounds).T)
    return problem, (c, eq, ub, bounds)


def test_ge_and_two_sided_rows_match_vertex_oracle():
    rng = np.random.default_rng(23)
    optimal = 0
    for _ in range(60):
        problem, dense = _random_ranged_program(rng)
        status, value = enumerate_lp_optimum(*dense)
        if status == "Infeasible":
            with pytest.raises(LpInfeasible):
                lp_solve(problem)
            continue
        sol = lp_solve(problem)
        assert sol.objective_value == pytest.approx(value, abs=1e-7)
        _assert_feasible(problem, sol.x)
        optimal += 1
    assert optimal >= 30


def test_session_new_matrices_solve_cold():
    # fresh matrix objects, even with equal values, are passed cold: the
    # point and iterations are lp_solve's to the bit
    rng = np.random.default_rng(9)
    session = LpSession()
    for _ in range(20):
        problem = _feasible_program(rng)
        copy = replace(problem, a=replace(problem.a))
        for fresh in (problem, copy):
            highs = session._highs
            sol = session.solve(fresh)
            assert session._highs is not highs
            ref = lp_solve(fresh)
            assert np.array_equal(sol.x, ref.x)
            assert sol.iterations == ref.iterations


@pytest.mark.parametrize("value_only", [False, True])
def test_session_warm_infeasible_edit_raises(value_only):
    # x1 + x2 <= b with both in [0.5, 1]: b = 0.5 cannot be met
    problem = make_problem([-1.0, -1.0], ub=[(np.array([1.0, 1.0]), 1.5)],
                           bounds=[(0.5, 1.0), (0.5, 1.0)])
    session = LpSession(value_only)
    assert session.solve(problem).objective_value == pytest.approx(-1.5)
    highs = session._highs
    with pytest.raises(LpInfeasible):
        session.solve(replace(problem, row_upper=np.array([0.5])))
    assert session._highs is highs  # the infeasible solve ran warm
    # after a failure the next program is passed cold, with the options of
    # a fresh session of the same kind
    again = session.solve(problem)
    assert session._highs is not highs
    fresh = LpSession(value_only).solve(problem)
    assert np.array_equal(again.x, fresh.x)
    assert again.iterations == fresh.iterations


def test_rejected_model_or_edit_raises(monkeypatch):
    # HiGHS refuses matrix entries of 1e15 and more when the model is passed
    huge = make_problem([1.0], ub=[(np.array([1e20]), 1.0)])
    with pytest.raises(SolverError, match="HiGHS status kModelError"):
        lp_solve(huge)

    class RejectsRowEdits:
        def __init__(self):
            self.real = _Highs()

        def __getattr__(self, name):
            return getattr(self.real, name)

        def changeRowBounds(self, *args):
            return HighsStatus.kError

    monkeypatch.setattr(lp, "_Highs", RejectsRowEdits)
    problem = make_problem([1.0], ub=[(np.array([-1.0]), -1.0)])
    session = LpSession()
    assert session.solve(problem).objective_value == pytest.approx(1.0)
    with pytest.raises(SolverError, match="HiGHS status kModelError"):
        session.solve(replace(problem, row_upper=np.array([-2.0])))


def _full_problem():
    """A ``<=`` row (row 0), an equality (row 1) and finite bounds, every
    field non-empty."""
    return make_problem([1.0, 2.0], eq=[(np.array([1.0, 1.0]), 1.0)],
                        ub=[(np.array([1.0, -1.0]), 0.5)],
                        bounds=[(0.0, 1.0), (0.0, 1.0)])


# The error that rejects each value the split form rejected in a right-hand
# side: b_eq held both bounds of an equality, b_ub the upper bound of a row
# whose lower bound is -inf (so b_ub = inf leaves the row free).
_RHS_REJECTED = {
    ("b_eq", "nan"): "row_lower has a value of nan",
    ("b_eq", "inf"): "row_lower has a value of inf",
    ("b_eq", "-inf"): "row_upper has a value of -inf",
    ("b_ub", "nan"): "row_upper has a value of nan",
    ("b_ub", "inf"): "row 0 has no finite bound",
    ("b_ub", "-inf"): "row_upper has a value of -inf",
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["objective", "b_eq", "b_ub",
                                   "a_eq", "a_ub"])
def test_non_finite_data_rejected(field, bad):
    # ``field`` names where the split form kept the value; the row form
    # puts it in the same row of ``a`` or its bounds and still rejects it,
    # a matrix entry when the Csr is made
    base = _full_problem()
    row = 1 if field.endswith("_eq") else 0
    if field == "objective":
        objective = base.objective.copy()
        objective[0] = bad
        make = partial(replace, base, objective=objective)
        error = "objective has a non-finite value"
    elif field.startswith("a_"):
        data = base.a.data.copy()
        data[base.a.indptr[row]] = bad
        make = partial(replace, base.a, data=data)
        error = "a has a non-finite value"
    else:
        lower, upper = base.row_lower.copy(), base.row_upper.copy()
        upper[row] = bad
        if field == "b_eq":
            lower[row] = bad
        make = partial(replace, base, row_lower=lower, row_upper=upper)
        error = _RHS_REJECTED[field, str(bad)]
    with pytest.raises(ValueError, match=f"^{re.escape(error)}"):
        make()


def _set(name, index, value):
    """Edit of ``_full_problem`` with ``name[index]`` set to ``value``."""
    def edit(base):
        array = getattr(base, name).copy()
        array[index] = value
        return {name: array}
    return edit


@pytest.mark.parametrize("edit, error", [
    (lambda base: {"row_lower": np.full(2, -math.inf),
                   "row_upper": np.array([0.5, math.inf])},
     "row 1 has no finite bound"),
    (_set("row_lower", 1, math.nan), "row_lower has a value of nan"),
    (_set("row_upper", 1, math.nan), "row_upper has a value of nan"),
    (_set("lower", 0, math.nan), "lower has a value of nan"),
    (_set("upper", 1, math.nan), "upper has a value of nan"),
    (_set("row_lower", 1, 2.0), "row_lower 2.0 exceeds row_upper 1.0"),
    (_set("lower", 0, 1.5), "lower 1.5 exceeds upper 1.0"),
    (lambda base: {"row_upper": np.ones(1)},
     "row_lower/row_upper of length 2/1, want 2"),
    (lambda base: {"upper": np.ones(3)}, "lower/upper of length 2/3, want 2"),
    (lambda base: {"a": dense_csr(np.zeros((2, 3)))},
     "a has 3 columns, want 2"),
    (lambda base: {"a": scipy_csr(base.a)}, "a must be a Csr"),
    (lambda base: {"a": scipy_csr(base.a).tocsc()}, "a must be a Csr"),
    (lambda base: {"a": scipy_csr(base.a).tocoo()}, "a must be a Csr"),
    (lambda base: {"a": scipy_csr(base.a).toarray()}, "a must be a Csr"),
], ids=["free_row", "nan_row_lower", "nan_row_upper", "nan_lower",
        "nan_upper", "crossed_row", "crossed_bound", "row_bounds_length",
        "bounds_length", "columns", "scipy_csr", "csc", "coo", "dense"])
def test_row_form_rejections(edit, error):
    # wrong-side infinities are in the test below; a CSC matrix's indptr
    # would reach HiGHS as row starts, and no scipy matrix is checked or
    # frozen as a Csr is
    base = _full_problem()
    with pytest.raises(ValueError, match=f"^{re.escape(error)}"):
        replace(base, **edit(base))


@pytest.mark.parametrize("indptr, indices, data, error", [
    ([0, 2], [0, 1], [1.0, 1.0], "a.indptr has 2 entries, want 3"),
    ([0], [], [], "a.indptr has 1 entries, want 3"),
    ([1, 2, 4], [0, 1, 0, 1], [1.0] * 4, "a.indptr starts at 1, want 0"),
    ([0, 3, 2], [0, 1], [1.0] * 2, "a.indptr decreases after entry 1"),
    ([0, 2, 3], [0, 1, 0, 1], [1.0] * 4,
     "a.indices has 4 entries, a.indptr ends at 3"),
    ([0, 2, 4], [0, 1, 0, 1], [1.0] * 3,
     "a.data has 3 entries, a.indptr ends at 4"),
    ([0, 2, 4], [0, 2, 0, 1], [1.0] * 4,
     "a.indices has column 2 outside [0, 2)"),
    ([0, 2, 4], [0, 1, -1, 1], [1.0] * 4,
     "a.indices has column -1 outside [0, 2)"),
    (np.array([0.0, 2.0, 4.0]), [0, 1, 0, 1], [1.0] * 4,
     "a.indptr has dtype float64, want an integer dtype"),
    ([0, 2, 4], np.array([0.0, 0.7, 0.0, 1.0]), [1.0] * 4,
     "a.indices has dtype float64, want an integer dtype"),
    ([0, 1, 2], np.array([False, True]), [1.0] * 2,
     "a.indices has dtype bool, want an integer dtype"),
], ids=["short_indptr", "one_entry_indptr", "indptr_start", "indptr_falls",
        "indptr_past_indices", "data_length", "column_past_end",
        "negative_column", "float_indptr", "float_indices", "bool_indices"])
def test_malformed_csr_rejected(indptr, indices, data, error):
    # without the check each reached the solve: numpy's broadcast or
    # bincount errors, HiGHS's kModelError for a bad column, or (for a
    # float index) numpy's IndexError in the certification; a list is
    # made int32, as the library's builders make their indices
    def index(values):
        return np.array(values, dtype=np.int32) if isinstance(
            values, list) else values

    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        lp.Csr(index(indptr), index(indices), np.array(data), (2, 2))


@pytest.mark.parametrize("field, bad", [("lower", math.inf),
                                        ("upper", -math.inf),
                                        ("row_lower", math.inf),
                                        ("row_upper", -math.inf)])
def test_infinite_bound_on_the_wrong_side_rejected(field, bad):
    base = make_problem([1.0, 1.0], bounds=[(-math.inf, math.inf)] * 2)
    rows = {"row_lower": (0.0, math.inf), "row_upper": (-math.inf, 1.0)}
    if field in rows:  # a >= row or a <= row
        base = replace(base, a=dense_csr(np.ones((1, 2))),
                       row_lower=np.array(rows[field][:1]),
                       row_upper=np.array(rows[field][1:]))
    value = getattr(base, field).copy()
    value[0] = bad  # the other bound is infinite, so lower <= upper holds
    with pytest.raises(ValueError, match=f"^{field} has a value of"):
        replace(base, **{field: value})


def test_non_canonical_entries_rejected():
    # HiGHS takes each row's columns once and in increasing order, and the
    # solve passes the caller's arrays as they are: row 1 repeats column
    # 0, then lists its columns out of order; row 0 ending at column 1
    # before row 1 starts at column 0 is canonical
    for indices in ([0, 1, 0, 0], [0, 1, 1, 0]):
        with pytest.raises(ValueError, match=r"^a\.indices of row 1 do not "
                                             "strictly increase$"):
            lp.Csr(np.array([0, 2, 4]), np.array(indices), np.ones(4), (2, 2))


_CORRUPTIONS = ("none", "length", "start", "fall", "range", "repeat",
                "unsorted", "non_finite")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_csr_check_matches_scipy(data):
    # scipy is the independent arbiter: a Csr is made exactly when scipy
    # takes the arrays whole (a full format check passes and no entry past
    # indptr[-1] is pruned), finds them canonical and every entry finite;
    # the rows it then keeps are scipy's COO rows
    m = data.draw(st.integers(0, 4), label="m")
    n = data.draw(st.integers(1, 4), label="n")
    cols = [sorted(data.draw(st.sets(st.integers(0, n - 1))))
            for _ in range(m)]
    indptr = np.cumsum([0] + [len(c) for c in cols])
    indices = np.array([j for c in cols for j in c], dtype=np.int64)
    values = np.array(data.draw(st.lists(
        st.floats(-5, 5), min_size=len(indices), max_size=len(indices))))
    arrays = {"indptr": indptr, "indices": indices, "data": values}
    how = data.draw(st.sampled_from(_CORRUPTIONS), label="corruption")
    k = data.draw(st.integers(0, max(len(indices) - 1, 0)), label="k")
    if how == "length":
        name = data.draw(st.sampled_from(sorted(arrays)), label="array")
        old = arrays[name]
        arrays[name] = (old[:-1] if data.draw(st.booleans()) and len(old)
                        else np.append(old, old[-1] if len(old) else 0))
    elif how == "start":
        indptr[0] = data.draw(st.integers(-2, 2).filter(bool))
    elif how == "fall" and m:
        indptr[data.draw(st.integers(1, m))] += data.draw(st.integers(-3, -1))
    elif how == "range" and len(indices):
        indices[k] = data.draw(st.sampled_from([-3, -1, n, n + 2]))
    elif how in ("repeat", "unsorted") and k:
        indices[k] = indices[k - 1] if how == "repeat" else indices[k] - 1
    elif how == "non_finite" and len(indices):
        values[k] = data.draw(st.sampled_from([math.nan, math.inf,
                                               -math.inf]))
    ptr, idx, val = (arrays[name].copy()
                     for name in ("indptr", "indices", "data"))
    try:
        ref = csr_matrix((val, idx, ptr), shape=(m, n))
        ref.check_format(full_check=True)
        accept = (len(ref.indices) == len(idx) and ref.has_canonical_format
                  and np.isfinite(val).all())
    except ValueError:
        accept = False
    make = partial(lp.Csr, arrays["indptr"], arrays["indices"],
                   arrays["data"], (m, n))
    if accept:
        assert np.array_equal(make().rows, ref.tocoo().row)
    else:
        with pytest.raises(ValueError):
            make()


def test_built_matrix_cannot_change_under_a_session():
    # a plan's matrix is read-only: neither a NaN nor an efficiency edit
    # can be written into it after a session solved it, so the warm path,
    # which trusts a matrix it has seen by identity, never solves a stale
    # one; the edit is a new Csr, which the session passes cold
    params = SystemParams(0.9, 0.8, 1.0, 24)
    stage1 = build_stage1(params, sinusoid(3.0, 2 * math.pi / 24,
                                           math.pi / 2, 24))
    a = stage1.a
    with pytest.raises(ValueError, match="read-only"):
        a.data[0] = math.nan
    session = LpSession()
    cold = session.solve(stage1).objective_value
    efficiency = a.data == -0.9
    with pytest.raises(ValueError, match="read-only"):
        a.data[efficiency] = -0.5
    for name in ("indptr", "indices", "rows"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, name)[-1] = 0
    highs = session._highs
    assert session.solve(replace(stage1)).objective_value == pytest.approx(
        cold, abs=1e-9)
    assert session._highs is highs  # warm: the same, unchanged matrix
    edited = replace(stage1, a=replace(a, data=np.where(efficiency, -0.5,
                                                        a.data)))
    sol = session.solve(edited)
    assert session._highs is not highs
    assert np.array_equal(sol.x, lp_solve(edited).x)


def test_copied_matrix_is_checked_and_frozen():
    # a copy or an unpickled Csr is made anew from its arrays, so it too
    # keeps its rows and cannot be written into
    a = build_stage1(SystemParams(0.9, 0.8, 1.0, 24),
                     sinusoid(3.0, 2 * math.pi / 24, 0.0, 24)).a
    for copy in (pickle.loads(pickle.dumps(a)), deepcopy(a)):
        assert copy is not a and copy.shape == a.shape
        for name in ("indptr", "indices", "data", "rows"):
            assert np.array_equal(getattr(copy, name), getattr(a, name))
            assert not getattr(copy, name).flags.writeable


def _planning_programs():
    """Stage 1 and stage 2 programs at N = 48, three thetas."""
    params = SystemParams(0.9, 0.8, 1.0, 48, (0.0, 0.0))
    for theta in (0.0, math.pi / 2, math.pi):
        profile = sinusoid(3.0, 2 * math.pi / 24, theta, 48)
        stage1 = build_stage1(params, profile)
        yield stage1
        yield build_stage2(stage1, lp_solve(stage1).objective_value)


def test_cold_pass_holds_the_programs_arrays():
    # the cold path hands HiGHS fifteen positional arguments; the model
    # HiGHS keeps must hold each of the program's arrays in its own place,
    # so two swapped arguments fail here even when the solve succeeds
    for problem in _planning_programs():
        session = LpSession()
        session.solve(problem)
        session._highs.ensureRowwise()
        model = session._highs.getLp()
        a = model.a_matrix_
        for got, want in ((model.col_cost_, problem.objective),
                          (model.col_lower_, problem.lower),
                          (model.col_upper_, problem.upper),
                          (model.row_lower_, problem.row_lower),
                          (model.row_upper_, problem.row_upper),
                          (a.start_, problem.a.indptr),
                          (a.index_, problem.a.indices),
                          (a.value_, problem.a.data)):
            assert np.array_equal(got, want)
        assert model.sense_ == ObjSense.kMinimize
        assert model.offset_ == 0.0
        assert len(model.integrality_) == problem.n_vars
        assert set(model.integrality_) == {HighsVarType.kContinuous}


def test_each_csr_checked_once(monkeypatch):
    # a matrix is checked when made and a program that shares it checks
    # only its own arrays: a system's first plan makes three, stage 1's,
    # its priced form's serving four cost solves, 2N rows fewer, and stage
    # 2's, with its budget row, one more than stage 1's; its next plan, of
    # another profile, shares the first two and makes only stage 2's
    checked = []
    check = lp.Csr.__post_init__

    def spy(a):
        checked.append(a)
        check(a)

    monkeypatch.setattr(lp.Csr, "__post_init__", spy)
    offline._matrices.cache_clear()
    params = SystemParams(0.9, 0.8, 1.0, 48)
    for theta in (math.pi / 2, math.pi):
        profile = sinusoid(3.0, 2 * math.pi / 24, theta, 48)
        plan_and_price(params, profile, [
            add_gaussian_noise(profile, 0.125, k) for k in range(3)])
    assert len(checked) == 4
    assert checked[1].shape[0] == checked[0].shape[0] - 2 * 48
    assert checked[0].shape[0] + 1 == checked[2].shape[0]  # the budget row
    assert checked[3].shape == checked[2].shape


def _random_programs():
    rng = np.random.default_rng(42)
    for _ in range(40):
        yield make_problem(*random_program(rng))


# the linprog options of a value-only session: presolve off, Devex pricing
_VALUE_ONLY = {"presolve": False, "simplex_dual_edge_weight_strategy": "devex"}


def test_matches_public_linprog():
    # a session calls HiGHS through scipy's private binding; public linprog
    # with the same options is the reference, so a scipy release that
    # changes the binding fails here instead of silently moving a plan;
    # lp_solve keeps linprog's defaults, stage 1's value-only session not
    checked = 0
    for options, solve in (
            ({}, lp_solve),
            (_VALUE_ONLY,
             lambda problem: LpSession(value_only=True).solve(problem))):
        for problem in (*_random_programs(), *_planning_programs()):
            res = linprog_reference(problem, **options)
            if res.status == 2:
                with pytest.raises(LpInfeasible):
                    solve(problem)
                continue
            assert res.status == 0
            sol = solve(problem)
            assert np.array_equal(sol.x, res.x)
            assert sol.iterations == res.nit
            checked += 1
    assert checked >= 40


def test_options_match_public_linprog(monkeypatch):
    # the options linprog hands to its HiGHS wrapper, read off that call
    seen = {}
    wrapper = _linprog_highs._highs_wrapper

    def spy(*args):
        seen.update(args[-1])
        return wrapper(*args)

    monkeypatch.setattr(_linprog_highs, "_highs_wrapper", spy)
    for options, engine in (({}, lp._OPTIONS),
                            (_VALUE_ONLY, lp._VALUE_ONLY_OPTIONS)):
        seen.clear()
        linprog_reference(make_problem([1.0]), **options)
        set_options = {key: value for key, value in seen.items()
                       if value is not None and key != "sense"}
        # and the engine moves no option off its HiGHS default that
        # linprog leaves there
        fresh = lp.HighsOptions()
        assert {key for key in dir(fresh) if not key.startswith("_")
                and not callable(getattr(fresh, key))
                and getattr(engine, key) != getattr(fresh, key)
                } <= set_options.keys()
        presolve = set_options.pop("presolve")
        assert presolve is options.get("presolve", True)
        assert engine.presolve == ("on" if presolve else "off")
        for key, value in set_options.items():
            assert getattr(engine, key) == getattr(value, "value", value), key


@pytest.mark.parametrize("problem, status, error", [
    (make_problem([-1.0]), 3, SolverError),
    (make_problem([1.0], eq=[(np.array([1.0]), -2.0)]), 2, LpInfeasible),
])
def test_failures_match_public_linprog(problem, status, error):
    assert linprog_reference(problem).status == status
    with pytest.raises(error) as exc:
        lp_solve(problem)
    assert type(exc.value) is error


_SOLVE_TINY = """
import numpy as np
import energycoop
tiny = energycoop.LpProblem(
    np.ones(1), energycoop.lp.Csr(np.array([0, 1]), np.array([0]),
                                  np.array([-1.0]), (1, 1)),
    np.array([-np.inf]), np.array([-1.0]), np.zeros(1), np.full(1, np.inf))
assert energycoop.lp_solve(tiny).x.tolist() == [1.0]
"""

_SAME_BINDING = """
assert energycoop.lp._Highs is sys.modules[
    "scipy.optimize._highspy._core"]._Highs
assert linprog([1.0], A_ub=[[-1.0]], b_ub=[-1.0]).status == 0
"""


def _run_fresh(code):
    """Run ``code`` in a new interpreter with only ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_binding_loads_without_scipy_optimize():
    # importing scipy.optimize costs a third of every start-up; energycoop
    # loads only the binding, and scipy.optimize imported later (or
    # earlier) shares that very module rather than loading a second copy
    _run_fresh("import sys\n" + _SOLVE_TINY
               + "assert 'scipy.optimize' not in sys.modules\n"
               + "from scipy.optimize import linprog\n" + _SAME_BINDING)
    _run_fresh("import sys\nfrom scipy.optimize import linprog\n"
               + _SOLVE_TINY + _SAME_BINDING)


def test_library_imports_without_scipy_sparse_or_special():
    # scipy.sparse and scipy.special each import scipy's array-API layer,
    # which imports numpy.f2py, numpy.testing and more, over half of a
    # fresh `import energycoop`.  A plan, a noise draw and a program on a
    # hand-made Csr need neither
    _run_fresh("import math, sys\nimport energycoop as ec\n"
               "params = ec.SystemParams(0.9, 0.8, 1.0, 24)\n"
               "profile = ec.sinusoid(3.0, 2 * math.pi / 24, 1.0, 24)\n"
               "ec.plan_offline(params, profile)\n"
               "ec.add_gaussian_noise(profile, 0.125, 0)\n" + _SOLVE_TINY
               + "for name in ('scipy.sparse', 'scipy.special',\n"
               "             'scipy._lib._array_api'):\n"
               "    assert name not in sys.modules, name\n")


def test_binding_reachable_through_its_package():
    # energycoop leaves no parentless entry behind: the binding imported by
    # its dotted name afterwards is an attribute of its package, and the
    # same extension energycoop solves with
    _run_fresh("import sys\n" + _SOLVE_TINY
               + "import scipy.optimize._highspy._core\n"
               + "assert scipy.optimize._highspy._core._Highs"
               + " is energycoop.lp._Highs\n"
               + "from scipy.optimize import linprog\n" + _SAME_BINDING)


def test_missing_binding_raises_import_error(monkeypatch, tmp_path):
    where = tmp_path / "optimize" / "_highspy"
    where.mkdir(parents=True)
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(
            f"scipy {scipy.__version__}: no {where}/_core")):
        lp._load_highs()
