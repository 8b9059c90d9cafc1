"""Bounded-variable linear programs and a certified solve routine.

``LpProblem`` carries a minimization objective, sparse (CSR) equality and
upper-bound constraint matrices with their right-hand sides, and
per-variable bounds.  Only the non-zeros are stored, so a planning program
takes memory linear in its horizon; the planners assemble the index and
value arrays of these matrices with numpy in one pass.  ``lp_solve`` hands
the matrices straight to scipy's HiGHS backend (tightened to 1e-10
feasibility tolerances) and then independently re-checks the returned
point against every constraint at 1e-9.  It returns only that certified
optimum; everything else raises: ``LpInfeasible`` for an infeasible
program, ``SolverError`` for an unbounded one, any other backend failure
and a point that fails the re-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

FEAS_TOL = 1e-9

_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "presolve": True,
}


class SolverError(Exception):
    """The backend failed or returned a point that fails certification."""


class LpInfeasible(SolverError):
    """The backend proved the program infeasible."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min objective . x  subject to eq rows, ub rows and box bounds.

    ``a_eq`` / ``a_ub`` are CSR matrices with one column per variable and
    one row per entry of ``b_eq`` / ``b_ub``; a ub row means row . x <= rhs.
    ``lower`` and ``upper`` bound each variable, upper may be ``math.inf``.
    """

    objective: np.ndarray
    a_eq: csr_matrix
    b_eq: np.ndarray
    a_ub: csr_matrix
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.objective)
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError(f"{len(self.lower)}/{len(self.upper)} bounds "
                             f"for {n} variables")
        bad = np.flatnonzero(~(self.lower <= self.upper))
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"bound lower {self.lower[j]} exceeds upper "
                             f"{self.upper[j]}")
        for a, b in ((self.a_eq, self.b_eq), (self.a_ub, self.b_ub)):
            if a.shape != (len(b), n):
                raise ValueError(f"constraint matrix of shape {a.shape}, "
                                 f"want ({len(b)}, {n})")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """A certified minimizer, its objective value and HiGHS's iterations."""

    x: np.ndarray
    objective_value: float
    iterations: int


def _certify(problem: LpProblem, x: np.ndarray) -> None:
    """Raise SolverError unless x is primal feasible within FEAS_TOL.

    ``argmax`` picks the first NaN and ``not ... <= FEAS_TOL`` rejects it,
    so a point with a NaN entry is never certified.
    """
    lower, upper = problem.lower, problem.upper
    for kind, resid in (
            ("eq constraint", np.abs(problem.a_eq @ x - problem.b_eq)),
            ("ub constraint", problem.a_ub @ x - problem.b_ub),
            ("bound of variable", np.maximum(lower - x, x - upper))):
        if resid.size:
            worst = int(np.argmax(resid))
            if not resid[worst] <= FEAS_TOL:
                raise SolverError(
                    f"{kind} {worst} violated by {resid[worst]:.3e} "
                    "after solve")


def lp_solve(problem: LpProblem) -> LpSolution:
    """Solve a bounded-variable LP; deterministic for identical inputs.

    Returns the minimizer once it passes the 1e-9 feasibility re-check.
    Raises LpInfeasible for an infeasible program and SolverError for an
    unbounded one, for any other backend outcome and for a returned point
    failing the re-check.
    """
    c = problem.objective
    res = linprog(c, A_ub=problem.a_ub, b_ub=problem.b_ub,
                  A_eq=problem.a_eq, b_eq=problem.b_eq,
                  bounds=np.column_stack((problem.lower, problem.upper)),
                  method="highs", options=_HIGHS_OPTIONS)

    if res.status == 2:
        raise LpInfeasible(f"LP infeasible: {res.message}")
    if res.status == 3:
        raise SolverError(f"LP unbounded: {res.message}")
    if res.status != 0 or res.x is None:
        raise SolverError(f"LP backend failed: {res.message}")

    x = np.asarray(res.x, dtype=float)
    _certify(problem, x)
    return LpSolution(x, float(np.dot(c, x)), int(np.sum(res.nit)))
