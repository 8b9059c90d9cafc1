"""Experiment sweeps reproducing the four simulation studies, as CSV.

Each study is one row of ``_STUDIES``: its defaults and the constants its
CSV's metadata block records, so a run is reproducible byte for byte from
its spec.  Each task prices its costs in one ``offline.stage1_costs``
call, one cold solve and the rest warm: the seeded hybrid-vs-greedy runs
a task per grid point, whose plan's stage 1 prices every noise seed; the
other studies a task per s_max column, pricing its thetas; the cost
studies' single-BS baseline is a greedy rollout, no LP.  Tasks
go to a process pool; set ENERGYCOOP_WORKERS (at least 1) or pass
``workers=1`` to run serially.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import mean, stdev

from . import __version__
from .greedy import CASE_TOL, run_greedy, stepper
from .hybrid import run_hybrid_stream
from .model import SystemParams, check_count, total_cost
from .offline import (EPS_LEX_FACTOR, plan_and_price, plan_single_bs,
                      stage1_costs)
from .profiles import add_gaussian_noise, sinusoid

WORKERS_ENV = "ENERGYCOOP_WORKERS"

DEFAULT_THETAS = tuple(k * math.pi / 8 for k in range(17))
DEFAULT_SMAX_GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)
FIG2_THETAS = (math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
DEFAULT_SEEDS = tuple(range(20))
OMEGA = 2 * math.pi / 24  # one period per 24 slots in every study
NOISE_SCALE = 0.125  # residual noise of hybrid-vs-greedy and the CLI

# Per study: defaults beyond the shared grid, and the constants its CSV
# records beyond the spec.  A study records noise_scale and seeds if it adds
# noise, and then takes seeds and runs a task per grid point; case_tol if the
# greedy controller runs, in standard mode; eps_lex_factor if it plans.
_STUDIES = {
    "cost-vs-storage": (
        {"thetas": FIG2_THETAS, "s_max_grid": DEFAULT_SMAX_GRID}, ()),
    "saving-vs-theta": ({}, ()),
    "greedy-loss-vs-theta": ({}, ("case_tol",)),
    "hybrid-vs-greedy": (
        {"s_max_grid": (3.5,), "amplitude": 5.0, "seeds": DEFAULT_SEEDS},
        ("noise_scale", "eps_lex_factor", "case_tol", "seeds")),
}
EXPERIMENT_IDS = tuple(_STUDIES)


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep definition: which study, over which grid, with what system."""

    experiment: str
    thetas: tuple[float, ...]
    s_max_grid: tuple[float, ...]
    alpha: float = 0.9
    beta: float = 0.8
    n_slots: int = 240
    amplitude: float = 3.0
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {EXPERIMENT_IDS}")
        # len, not truth: a numpy array grid has no truth value
        if len(self.thetas) == 0 or len(self.s_max_grid) == 0:
            raise ValueError("theta and s_max grids must be non-empty")
        _, records = _STUDIES[self.experiment]
        if (len(self.seeds) > 0) != ("seeds" in records):
            raise ValueError(f"{self.experiment}: only hybrid-vs-greedy takes "
                             "seeds, and it needs them")
        if "case_tol" in records:  # the greedy controller runs, standard
            stepper("standard", self.alpha, self.beta)
        for s_max in self.s_max_grid:  # each grid point's system is valid
            self.params(s_max)
        for theta in self.thetas:  # and its profile
            self.profile(theta)
        for v in self.seeds:
            check_count("seed", v, 0)
        for name in ("alpha", "beta", "amplitude"):  # a CSV holds floats
            object.__setattr__(self, name, float(getattr(self, name)))
        for name, to in (("thetas", float), ("s_max_grid", float),
                         ("seeds", int)):
            object.__setattr__(self, name, tuple(map(to, getattr(self, name))))

    def params(self, s_max: float) -> SystemParams:
        return SystemParams(self.alpha, self.beta, s_max, self.n_slots)

    def profile(self, theta: float):
        return sinusoid(self.amplitude, OMEGA, theta, self.n_slots)


def default_spec(experiment: str, **overrides) -> ExperimentSpec:
    """Reference defaults for each study; keyword overrides win."""
    row, _ = _STUDIES.get(experiment, ({}, ()))  # others: the spec raises
    return ExperimentSpec(**{"experiment": experiment, "s_max_grid": (1.0,),
                             "thetas": DEFAULT_THETAS, **row, **overrides})


@dataclass(frozen=True)
class ResultRow:
    theta: float | None
    s_max: float | None
    metric: str
    value: float


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    rows: tuple[ResultRow, ...]

    def value(self, metric: str, theta: float | None = None,
              s_max: float | None = None) -> float:
        hits = [r.value for r in self.rows
                if r.metric == metric
                and (theta is None or r.theta == theta)
                and (s_max is None or r.s_max == s_max)]
        if len(hits) != 1:
            raise KeyError(
                f"{len(hits)} rows for metric={metric} theta={theta} "
                f"s_max={s_max}")
        return hits[0]

    def metadata(self) -> list[tuple[str, str]]:
        """The spec, and the constants of the code the study ran."""
        s = self.spec
        used = {
            "noise_scale": repr(NOISE_SCALE),
            "eps_lex_factor": repr(EPS_LEX_FACTOR),
            "case_tol": repr(CASE_TOL),
            "seeds": ",".join(str(v) for v in s.seeds),
        }
        return [
            ("experiment", s.experiment),
            ("alpha", repr(s.alpha)),
            ("beta", repr(s.beta)),
            ("s_max_grid", ",".join(repr(v) for v in s.s_max_grid)),
            ("n_slots", str(s.n_slots)),
            ("amplitude", repr(s.amplitude)),
            ("omega", repr(OMEGA)),
            *((key, used[key]) for key in _STUDIES[s.experiment][1]),
            ("version", __version__),
        ]


def write_result(result: ExperimentResult, path: str | Path) -> None:
    """CSV with a '# key: value' metadata block, then theta,s_max,metric,value."""
    with open(path, "w", newline="") as fh:
        for key, val in result.metadata():
            fh.write(f"# {key}: {val}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta", "s_max", "metric", "value"])
        for row in result.rows:
            writer.writerow([
                "" if row.theta is None else repr(row.theta),
                "" if row.s_max is None else repr(row.s_max),
                row.metric, repr(row.value)])


def _run_tasks(fn, tasks, workers: int | None) -> list:
    name = "workers"
    if workers is None:  # not a whole number: checked, and shown, as text
        name = WORKERS_ENV
        workers = os.environ.get(WORKERS_ENV) or str(os.cpu_count() or 1)
        workers = int(workers) if workers.isdecimal() else workers
    check_count(name, workers, 1)
    size = min(len(tasks), workers)
    if size <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # pools only
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, tasks))


def _pct(task, metric: str, change: float, base: float) -> float:
    """100 * change / base at grid point ``task``; a zero base raises."""
    spec, theta, s_max = task
    if base == 0.0:
        raise ValueError(f"{spec.experiment}: {metric} is undefined at "
                         f"theta={theta!r}, s_max={s_max!r}: base cost is 0")
    return 100.0 * change / base


def _column(task) -> list[list[ResultRow]]:
    """One s_max column: a row group per theta, all priced in one
    ``stage1_costs`` call, then a cost study's single-BS row."""
    spec, s_max = task
    params = spec.params(s_max)
    profiles = [spec.profile(theta) for theta in spec.thetas]
    greedy = spec.experiment == "greedy-loss-vs-theta"
    single = None if greedy else total_cost(  # e1 does not depend on theta
        plan_single_bs(params, profiles[0].e1))
    groups = []
    for theta, profile, cost in zip(spec.thetas, profiles,
                                    stage1_costs(params, profiles)[1]):
        row, point = partial(ResultRow, theta, s_max), (spec, theta, s_max)
        if greedy:
            gre = total_cost(run_greedy(params, profile))
            groups.append([row("offline_cost", cost), row("greedy_cost", gre),
                           row("loss_pct", _pct(point, "loss_pct",
                                                gre - cost, cost))])
        elif spec.experiment == "cost-vs-storage":
            groups.append([row("cost_per_bs", cost / 2.0)])
        else:
            groups.append([row("saving_pct", _pct(
                point, "saving_pct", single - cost / 2.0, single))])
    return groups + ([] if greedy else
                     [[ResultRow(None, s_max, "single_bs_cost", single)]])


def _point_hybrid(task) -> list[ResultRow]:
    """Greedy vs hybrid loss against the full-knowledge offline optimum.

    Losses are computed per noise seed against the offline plan for that
    seed's realized profile, then averaged; the same seeds are used at
    every grid point so the comparison is paired.
    """
    spec, theta, s_max = task
    params = spec.params(s_max)
    deterministic = spec.profile(theta)
    realizations = [add_gaussian_noise(deterministic, NOISE_SCALE, seed)
                    for seed in spec.seeds]
    offline_det, costs = plan_and_price(params, deterministic, realizations)
    greedy_losses, hybrid_losses = [], []
    for realized, off in zip(realizations, costs):
        gre = total_cost(run_greedy(params, realized))
        hyb = total_cost(run_hybrid_stream(
            params, deterministic, zip(realized.e1, realized.e2),
            offline_traj=offline_det).combined)
        greedy_losses.append(
            _pct(task, "greedy_loss_mean_pct", gre - off, off))
        hybrid_losses.append(
            _pct(task, "hybrid_loss_mean_pct", hyb - off, off))
    rows = []
    for name, losses in (("greedy", greedy_losses), ("hybrid", hybrid_losses)):
        err = (stdev(losses) / math.sqrt(len(losses))
               if len(losses) > 1 else 0.0)
        rows.append(ResultRow(theta, s_max, f"{name}_loss_mean_pct",
                              mean(losses)))
        rows.append(ResultRow(theta, s_max, f"{name}_loss_stderr_pct", err))
    return rows


def run_experiment(spec: ExperimentSpec,
                   workers: int | None = None) -> ExperimentResult:
    """Run one study over the whole theta x s_max grid.

    Rows come in grid order (theta outer, s_max inner).  The two offline
    studies also append one ``single_bs_cost`` row per s_max; saving-vs-theta
    reports each pair cost as its percentage saving over that baseline.
    """
    by_column = not spec.seeds  # a seeded study runs per grid point
    tasks = ([(spec, sm) for sm in spec.s_max_grid] if by_column else
             [(spec, th, sm) for th in spec.thetas for sm in spec.s_max_grid])
    batches = _run_tasks(_column if by_column else _point_hybrid, tasks,
                         workers)
    if by_column:  # columns of row groups to grid order, single-BS rows last
        batches = (group for groups in zip(*batches) for group in groups)
    return ExperimentResult(spec, tuple(r for b in batches for r in b))
