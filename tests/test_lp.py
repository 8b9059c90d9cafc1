"""LP engine contract: certified optima, raised failures, invariants."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from energycoop.lp import LpInfeasible, SolverError, lp_solve

from helpers import make_problem
from oracles import enumerate_lp_optimum


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


def test_nan_point_not_certified(monkeypatch):
    # every comparison with NaN is false, so a NaN entry must fail the
    # re-check rather than slip through it
    def nan_backend(*args, **kwargs):
        return SimpleNamespace(status=0, x=np.array([math.nan, 0.5]),
                               nit=1, message="synthetic NaN point")

    monkeypatch.setattr("energycoop.lp.linprog", nan_backend)
    problem = make_problem([1.0, 1.0], ub=[(np.array([1.0, 1.0]), 2.0)],
                           bounds=[(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(SolverError, match="violated by nan"):
        lp_solve(problem)
