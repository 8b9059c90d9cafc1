"""Bounded-variable linear programs and a certified solve routine.

``LpProblem`` carries a minimization objective, sparse (CSR) equality and
upper-bound constraint matrices with their right-hand sides, and
per-variable bounds.  Only the non-zeros are stored, so a planning program
takes memory linear in its horizon; the planners assemble the index and
value arrays of these matrices with numpy in one pass.  An ``LpSession``
passes them straight to the HiGHS solver scipy bundles, through its private
binding ``scipy.optimize._highspy._core``, loaded from its file to skip
importing scipy.optimize, a third of start-up, as the model and options
(1e-10 feasibility tolerances) that ``linprog(method="highs")`` would pass;
the ``*_match_public_linprog`` tests in ``tests/test_lp.py`` pin that, so a
scipy release that changes the binding fails there instead of silently
moving a plan; a session re-solves edits of its last program warm.  Every
point is then re-checked against every constraint at 1e-9, and only that
certified optimum is returned; everything else raises: ``LpInfeasible`` for
an infeasible program, ``SolverError`` for an unbounded one, any other
backend failure and a point that fails the re-check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np
import scipy
from scipy.sparse import csr_matrix, vstack


def _load_highs() -> str | None:
    """Load scipy's HiGHS binding into ``sys.modules``, not its package;
    returns its name if this call put it there."""
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        where = f"{scipy.__path__[0]}/optimize/_highspy"
        if (spec := machinery.PathFinder.find_spec(name, [where])) is None:
            raise ImportError(f"scipy {scipy.__version__}: no {where}/_core")
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
        return name
    return None


_loaded = _load_highs()  # a module in sys.modules imports without parents
from scipy.optimize._highspy._core import (  # noqa: E402
    HighsDebugLevel, HighsLp, HighsModelStatus, HighsOptions, HighsStatus,
    MatrixFormat, _Highs, kHighsInf, simplex_constants)
if _loaded:  # else it hides _core from its package; a later import loads
    del sys.modules[_loaded]  # it there, sharing the cached extension

FEAS_TOL = 1e-9


# the options linprog(method="highs") sets for these tolerances
_OPTIONS = HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = (
    simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_OPTIONS.primal_feasibility_tolerance = 1e-10
_OPTIONS.dual_feasibility_tolerance = 1e-10
_OPTIONS.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False


class SolverError(Exception):
    """The backend failed or returned a point that fails certification."""


class LpInfeasible(SolverError):
    """The backend proved the program infeasible."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min objective . x  subject to eq rows, ub rows and box bounds.

    ``a_eq`` / ``a_ub`` are CSR matrices with one column per variable and
    one row per entry of ``b_eq`` / ``b_ub``; a ub row means row . x <= rhs.
    ``lower`` and ``upper`` bound each variable; lower may be ``-inf`` and
    upper ``+inf``, and every other value must be finite.
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
        # HiGHS does not reject these: a NaN cost comes back "optimal"
        for name, values in (("objective", self.objective),
                             ("b_eq", self.b_eq), ("b_ub", self.b_ub),
                             ("a_eq", self.a_eq.data),
                             ("a_ub", self.a_ub.data)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} has a non-finite value")
        if np.any(self.lower == np.inf):
            raise ValueError("lower has a value of +inf")
        if np.any(self.upper == -np.inf):
            raise ValueError("upper has a value of -inf")

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


def _bounds(problem: LpProblem) -> tuple[np.ndarray, ...]:
    """HiGHS column and row bounds of ``problem``, rows ``[a_ub; a_eq]``."""
    return (np.clip(problem.lower, -kHighsInf, kHighsInf),
            np.clip(problem.upper, -kHighsInf, kHighsInf),
            np.append(np.full(len(problem.b_ub), -kHighsInf), problem.b_eq),
            np.append(problem.b_ub, problem.b_eq))


class LpSession:
    """One HiGHS instance.  A program whose ``a_eq`` and ``a_ub`` are the
    very objects of the last one solved is pushed as the costs and bounds
    that differ and re-solved from its optimal basis; any other, and any
    after a failed solve, is passed cold to a fresh instance."""

    _highs = _last = None  # the instance and the last program it solved

    def solve(self, problem: LpProblem) -> LpSolution:
        """Certified minimizer of ``problem``; raises as ``lp_solve``."""
        last, self._last, new = self._last, None, _bounds(problem)
        if (last is not None and problem.a_eq is last.a_eq
                and problem.a_ub is last.a_ub):
            highs, old = self._highs, _bounds(last)
            cols = np.flatnonzero(problem.objective != last.objective)
            done = [highs.changeColsCost(len(cols), cols,
                                         problem.objective[cols])]
            cols = np.flatnonzero((new[0] != old[0]) | (new[1] != old[1]))
            done.append(highs.changeColsBounds(len(cols), cols, new[0][cols],
                                               new[1][cols]))
            done += [highs.changeRowBounds(row, new[2][row], new[3][row])
                     for row in np.flatnonzero(new[3] != old[3]).tolist()]
        else:
            a = vstack((problem.a_ub, problem.a_eq), format="csr")
            if not a.has_canonical_format:  # HiGHS rejects duplicate entries
                a.sum_duplicates()
            lp = HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = problem.n_vars
            lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
            lp.a_matrix_.format_ = MatrixFormat.kRowwise
            lp.a_matrix_.start_ = a.indptr
            lp.a_matrix_.index_ = a.indices
            lp.a_matrix_.value_ = a.data
            lp.col_cost_ = problem.objective
            lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_ = new
            highs = self._highs = _Highs()
            highs.passOptions(_OPTIONS)
            done = [highs.passModel(lp)]
        if HighsStatus.kError in done:  # HiGHS rejected the model or an edit
            raise SolverError("LP backend failed: HiGHS status kModelError")
        ran = highs.run() != HighsStatus.kError
        status = highs.getModelStatus()
        if status == HighsModelStatus.kInfeasible:
            raise LpInfeasible(f"LP infeasible: HiGHS status {status.name}")
        if status == HighsModelStatus.kUnbounded:
            raise SolverError(f"LP unbounded: HiGHS status {status.name}")
        if not ran or status != HighsModelStatus.kOptimal:
            raise SolverError(f"LP backend failed: HiGHS status {status.name}")
        x = np.array(highs.getSolution().col_value)
        _certify(problem, x)
        self._last = problem
        return LpSolution(x, float(np.dot(problem.objective, x)),
                          highs.getInfo().simplex_iteration_count)


def lp_solve(problem: LpProblem) -> LpSolution:
    """Solve a bounded-variable LP; deterministic for identical inputs.

    Returns the minimizer once it passes the 1e-9 feasibility re-check.
    Raises LpInfeasible for an infeasible program and SolverError for an
    unbounded one, for any other backend outcome and for a returned point
    failing the re-check.  A first session solve is cold.
    """
    return LpSession().solve(problem)
