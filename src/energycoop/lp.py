"""Bounded-variable linear programs and a certified solve routine.

``LpProblem`` is a program in the form HiGHS takes: a minimization
objective, one sparse (CSR) matrix whose rows each carry a lower and an
upper bound (equal on an equality row, ``-inf`` below a ``<=`` row), and
per-variable bounds.  Only the non-zeros are stored, so a planning program
takes memory linear in its horizon.  The matrix is a ``Csr`` and nothing
else: it is checked once, when made, and then frozen; its arrays are read
in numpy, so scipy.sparse (whose array-API layer imports most of numpy's
submodules) is never imported.  An ``LpSession`` hands the arrays, with
no ``HighsLp`` copy, to the array ``passModel`` of the HiGHS solver scipy
bundles (its private binding ``scipy.optimize._highspy._core``, loaded
from its file to skip importing scipy.optimize, a third of start-up),
with the options (1e-10 feasibility tolerances) that
``linprog(method="highs")`` would pass, and in a session made with
``value_only=True`` presolve off and Devex dual pricing, as ``linprog``
with ``presolve=False, simplex_dual_edge_weight_strategy="devex"``; the
``*_match_public_linprog`` tests in ``tests/test_lp.py`` pin both, so a
scipy release that changes the binding fails there instead of silently
moving a plan; a session re-solves edits of its last program warm.
Every point is then re-checked against every constraint at 1e-9
times max(1, largest finite |row bound|), so a plan does not depend on the
energy unit, and only that certified optimum is returned, with HiGHS's
row duals and the reduced costs they imply; everything else raises:
``LpInfeasible`` for an infeasible program, ``SolverError`` for an
unbounded one, any other backend failure and a point that fails the
re-check.  A value-only solve must also close the weak-duality gap of its
duals, or it is re-solved cold with ``linprog``'s options: without
presolve, HiGHS can call a point optimal that is infeasible or up to
1e-9 worse than the optimum when an efficiency is as small as 1e-3.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from importlib import machinery, util
from math import inf

import numpy as np
import scipy


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


_loaded = _load_highs()  # a module in sys.modules imports without parents
from scipy.optimize._highspy._core import (  # noqa: E402
    HighsDebugLevel, HighsModelStatus, HighsOptions, HighsStatus,
    MatrixFormat, _Highs, simplex_constants)
if _loaded:  # else it hides _core from its package; a later import loads
    del sys.modules[_loaded]  # it there, sharing the cached extension

FEAS_TOL = 1e-9
# weak-duality tolerance of a value-only solve: benchmark sinusoids met it
# to 7e-16, the points HiGHS could not back missed it by 6e-11 or more
DUAL_TOL = 1e-12

# the options linprog(method="highs") sets for these tolerances, and for a
# value-only session those with presolve off and Devex dual pricing
_OPTIONS, _VALUE_ONLY_OPTIONS = HighsOptions(), HighsOptions()
for _options in (_OPTIONS, _VALUE_ONLY_OPTIONS):
    _options.simplex_strategy = (
        simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    _options.primal_feasibility_tolerance = 1e-10
    _options.dual_feasibility_tolerance = 1e-10
    _options.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
    _options.output_flag = False
    _options.log_to_console = False
_OPTIONS.presolve, _VALUE_ONLY_OPTIONS.presolve = "on", "off"
_VALUE_ONLY_OPTIONS.simplex_dual_edge_weight_strategy = 1  # Devex


@dataclass(frozen=True, eq=False)
class Csr:
    """A compressed sparse row matrix: row i holds ``data[k]`` in column
    ``indices[k]`` for k in ``range(indptr[i], indptr[i + 1])``.  Checked
    when made (canonical and finite, as HiGHS needs), it keeps each entry's
    row as ``rows`` and owns its arrays: all four are made read-only."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ptr, cols, n = self.indptr, self.indices, self.shape[1]
        for name, values in (("indptr", ptr), ("indices", cols)):
            if values.dtype.kind not in "iu":  # numpy indexes by integers
                raise ValueError(f"a.{name} has dtype {values.dtype}, "
                                 "want an integer dtype")
        if len(ptr) != self.shape[0] + 1:
            raise ValueError(f"a.indptr has {len(ptr)} entries, "
                             f"want {self.shape[0] + 1}")
        if ptr[0] != 0:
            raise ValueError(f"a.indptr starts at {ptr[0]}, want 0")
        if (drop := np.flatnonzero(np.diff(ptr) < 0)).size:
            raise ValueError(f"a.indptr decreases after entry {drop[0]}")
        for name, values in (("indices", cols), ("data", self.data)):
            if len(values) != ptr[-1]:
                raise ValueError(f"a.{name} has {len(values)} entries, "
                                 f"a.indptr ends at {ptr[-1]}")
        if (bad := cols[(cols < 0) | (cols >= n)]).size:
            raise ValueError(f"a.indices has column {bad[0]} outside [0, {n})")
        rows = np.repeat(np.arange(self.shape[0]), np.diff(ptr))
        if (bad := np.flatnonzero(np.diff(rows * n + cols) <= 0)).size:
            raise ValueError(f"a.indices of row {rows[bad[0]]} do not "
                             "strictly increase")  # HiGHS rejects a repeat
        if not np.isfinite(self.data).all():
            raise ValueError("a has a non-finite value")
        object.__setattr__(self, "rows", rows)
        for values in (ptr, cols, self.data, rows):
            values.flags.writeable = False

    def __reduce__(self):  # a copy or an unpickled matrix is checked anew
        return Csr, (self.indptr, self.indices, self.data, self.shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


class SolverError(Exception):
    """The backend failed or returned a point that fails certification."""


class LpInfeasible(SolverError):
    """The backend proved the program infeasible."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min objective . x  subject to row_lower <= a x <= row_upper and
    lower <= x <= upper.

    ``a`` is a ``Csr`` with one column per variable and one row per entry
    of ``row_lower`` / ``row_upper``: an equality row has equal bounds, a
    ``<=`` row a lower bound of ``-inf``, a ``>=`` row an upper bound of
    ``+inf``; a row with no finite bound is rejected.  ``lower`` and
    ``upper`` bound each variable.  Every bound is finite but a lower
    ``-inf`` and an upper ``+inf``.  The matrix checked itself when made.
    """

    objective: np.ndarray
    a: Csr
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.objective)
        if not isinstance(self.a, Csr):
            raise ValueError(f"a must be a Csr, not {type(self.a)}")
        if self.a.shape[1] != n:
            raise ValueError(f"a has {self.a.shape[1]} columns, want {n}")
        # HiGHS does not reject this: a NaN cost comes back "optimal"
        if not np.isfinite(self.objective).all():
            raise ValueError("objective has a non-finite value")
        for size, pair in ((self.a.shape[0], ("row_lower", "row_upper")),
                           (n, ("lower", "upper"))):
            lo, hi = (getattr(self, name) for name in pair)
            if len(lo) != size or len(hi) != size:
                raise ValueError(f"{pair[0]}/{pair[1]} of length "
                                 f"{len(lo)}/{len(hi)}, want {size}")
            for name, values, wrong in zip(pair, (lo, hi), (inf, -inf)):
                if (bad := values[np.isnan(values) | (values == wrong)]).size:
                    raise ValueError(f"{name} has a value of {bad[0]}")
            if (bad := np.flatnonzero(lo > hi)).size:
                raise ValueError(f"{pair[0]} {lo[bad[0]]} exceeds "
                                 f"{pair[1]} {hi[bad[0]]}")
        if (free := np.isinf(self.row_lower) & np.isinf(self.row_upper)).any():
            raise ValueError(f"row {np.argmax(free)} has no finite bound")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """A certified minimizer, its objective value, HiGHS's iterations, its
    row duals y (> 0 at a row's lower bound, < 0 at its upper) and the
    reduced costs r = objective - a^T y (> 0 at a column's lower bound)."""

    x: np.ndarray
    objective_value: float
    iterations: int
    row_dual: np.ndarray
    reduced_cost: np.ndarray


def _certify(problem: LpProblem, x: np.ndarray) -> None:
    """Raise SolverError unless x is primal feasible within FEAS_TOL times
    max(1, largest finite |row bound|), as HiGHS is in its scaled model;
    never scaled by x or a column bound, so x cannot widen its own check.

    ``argmax`` picks the first NaN and ``not ... <= tol`` rejects it, so a
    point with a NaN entry is never certified.  ``a x`` sums each row's
    products in entry order, as scipy's CSR product does.
    """
    a = problem.a
    ax = np.bincount(a.rows, a.data * x[a.indices], a.shape[0])
    bounds = np.abs(np.concatenate((problem.row_lower, problem.row_upper)))
    tol = FEAS_TOL * max(1.0, bounds.max(initial=0.0, where=bounds < inf))
    for kind, lower, y, upper in (
            ("row", problem.row_lower, ax, problem.row_upper),
            ("bound of variable", problem.lower, x, problem.upper)):
        resid = np.maximum(lower - y, y - upper)
        if resid.size:
            worst = int(np.argmax(resid))
            if not resid[worst] <= tol:
                raise SolverError(f"{kind} {worst} violated by "
                                  f"{resid[worst]:.3e} (tolerance "
                                  f"{tol:.3e}) after solve")


def _certify_dual(problem: LpProblem, solution: LpSolution) -> None:
    """Raise SolverError unless the duals prove ``solution`` optimal by weak
    duality within DUAL_TOL.  Each dual selects the bound its sign names,
    as in ``LpSolution``; on a finite one it adds dual * bound to L, on an
    infinite one it must be 0 within DUAL_TOL.  r = objective - a^T y by
    construction, so objective . x >= L for every x in the program, and
    the gap objective . x - L, relative to max(1, |objective . x|), must
    be at most DUAL_TOL."""
    low, value = 0.0, solution.objective_value
    for kind, dual, lower, upper in (
            ("row", solution.row_dual, problem.row_lower, problem.row_upper),
            ("column", solution.reduced_cost, problem.lower, problem.upper)):
        bound = np.where(dual > 0.0, lower, upper)
        infinite = np.isinf(bound)
        if (worst := np.abs(dual, where=infinite, out=np.zeros_like(dual))
                ).max(initial=0.0) > DUAL_TOL:
            k = int(np.argmax(worst))
            raise SolverError(f"{kind} {k} has dual {dual[k]:.3e} on an "
                              "infinite bound after solve")
        low += np.dot(dual, np.where(infinite, 0.0, bound))
    if not (gap := (value - low) / max(1.0, abs(value))) <= DUAL_TOL:
        raise SolverError(f"duality gap {gap:.3e} (tolerance "
                          f"{DUAL_TOL:.0e}) after solve")


def _run(highs: _Highs, problem: LpProblem, done: list) -> LpSolution:
    """Run HiGHS on ``problem`` once the statuses ``done`` of setting it up
    passed, and read its point and duals; raises as ``lp_solve`` for a
    failure that HiGHS reports, not yet for the point."""
    if HighsStatus.kError in done:  # HiGHS refused the setup or an edit
        raise SolverError("LP backend failed: HiGHS status kModelError")
    ran = highs.run() != HighsStatus.kError
    status = highs.getModelStatus()
    if status == HighsModelStatus.kInfeasible:
        raise LpInfeasible(f"LP infeasible: HiGHS status {status.name}")
    if status == HighsModelStatus.kUnbounded:
        raise SolverError(f"LP unbounded: HiGHS status {status.name}")
    if not ran or status != HighsModelStatus.kOptimal:
        raise SolverError(f"LP backend failed: HiGHS status {status.name}")
    point, a = highs.getSolution(), problem.a
    x = np.fromiter(point.col_value, float, problem.n_vars)
    y = np.fromiter(point.row_dual, float, a.shape[0])
    return LpSolution(
        x, float(np.dot(problem.objective, x)),
        highs.getInfo().simplex_iteration_count, y,
        problem.objective - np.bincount(a.indices, a.data * y[a.rows],
                                        a.shape[1]))


class LpSession:
    """One HiGHS instance.  A program whose ``a`` is the very object of the
    last one solved is pushed as the costs and bounds that differ and
    re-solved from its optimal basis; any other, and any after a failed
    solve, is passed cold to a fresh instance with ``_OPTIONS``, or with
    ``_VALUE_ONLY_OPTIONS`` (presolve off, Devex pricing) if ``value_only``
    is true: the caller then uses only each optimal value, which is unique,
    so the session may end at any optimal vertex.  A warm re-solve runs in
    the same instance, so it prices as the cold solve did.  The stage-1
    programs of one system share one matrix (``offline._matrices``), so a
    session re-solves any of them warm after another, whatever its profile,
    capacity or initial storage.

    A value-only point must also pass ``_certify_dual``.  A value-only
    solve that fails either certificate, or ends in any failure but
    infeasibility, is re-solved cold in a fresh instance with
    ``_OPTIONS``, which is certified as ``lp_solve``'s is, and the session
    goes on warm from there: presolve then removes what misled HiGHS."""

    _highs = _last = None  # the instance and the last program it solved

    def __init__(self, value_only: bool = False) -> None:
        self.options = _VALUE_ONLY_OPTIONS if value_only else _OPTIONS

    def solve(self, problem: LpProblem) -> LpSolution:
        """Certified minimizer of ``problem``; raises as ``lp_solve``."""
        last, self._last = self._last, None
        if last is not None and problem.a is last.a:
            highs = self._highs
            cols = np.flatnonzero(problem.objective != last.objective)
            done = [highs.changeColsCost(len(cols), cols,
                                         problem.objective[cols])]
            cols = np.flatnonzero((problem.lower != last.lower)
                                  | (problem.upper != last.upper))
            done.append(highs.changeColsBounds(
                len(cols), cols, problem.lower[cols], problem.upper[cols]))
            rows = np.flatnonzero((problem.row_lower != last.row_lower)
                                  | (problem.row_upper != last.row_upper))
            done += map(highs.changeRowBounds, rows.tolist(),
                        problem.row_lower[rows], problem.row_upper[rows])
        else:
            a, n = problem.a, problem.n_vars
            highs = self._highs = _Highs()
            highs.passOptions(self.options)
            done = [highs.passModel(  # minimize (1), all continuous (0)
                n, a.shape[0], a.nnz, int(MatrixFormat.kRowwise), 1, 0.0,
                problem.objective, problem.lower, problem.upper,
                problem.row_lower, problem.row_upper,
                a.indptr, a.indices, a.data, np.zeros(n, np.int32))]
        value_only = self.options is _VALUE_ONLY_OPTIONS
        try:
            solution = _run(highs, problem, done)
            _certify(problem, solution.x)
            if value_only:
                _certify_dual(problem, solution)
        except SolverError as exc:
            if not value_only or isinstance(exc, LpInfeasible):
                raise
            retry = LpSession()  # lp_solve's: cold, with _OPTIONS
            solution, self._highs = retry.solve(problem), retry._highs
        self._last = problem
        return solution


def lp_solve(problem: LpProblem) -> LpSolution:
    """Solve a bounded-variable LP; deterministic for identical inputs.

    Returns the minimizer once it passes the (scaled) 1e-9 re-check.
    Raises LpInfeasible for an infeasible program and SolverError for an
    unbounded one, for any other backend outcome and for a returned point
    failing the re-check.  A first session solve is cold.
    """
    return LpSession().solve(problem)
