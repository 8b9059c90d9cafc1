"""Experiment harness: reproducibility, metadata, row structure."""

import csv
import math
from collections import Counter

import numpy as np
import pytest

from energycoop.experiments import (
    EXPERIMENT_IDS,
    NOISE_SCALE,
    OMEGA,
    ExperimentResult,
    ExperimentSpec,
    ResultRow,
    default_spec,
    run_experiment,
    write_result,
)
from energycoop import experiments, lp
from energycoop.greedy import run_greedy
from energycoop.hybrid import run_hybrid_stream
from energycoop.lp import lp_solve
from energycoop.model import total_cost
from energycoop.offline import build_stage1, plan_offline

from oracles import single_bs_optimum

SMALL = dict(n_slots=48, thetas=(0.0, math.pi / 2, math.pi),
             s_max_grid=(0.5, 1.0))


def small_spec(experiment, **overrides):
    kw = dict(SMALL)
    if experiment == "hybrid-vs-greedy":
        kw.update(seeds=(0, 1, 2), amplitude=5.0, s_max_grid=(3.5,))
    kw.update(overrides)
    return default_spec(experiment, **kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        default_spec("bogus")
    with pytest.raises(ValueError):
        ExperimentSpec("saving-vs-theta", thetas=(), s_max_grid=(1.0,))
    with pytest.raises(ValueError, match="needs them"):
        ExperimentSpec("hybrid-vs-greedy", thetas=(0.0,), s_max_grid=(1.0,),
                       seeds=())
    with pytest.raises(ValueError, match="only hybrid-vs-greedy takes seeds"):
        ExperimentSpec("saving-vs-theta", thetas=(0.0,), s_max_grid=(1.0,),
                       seeds=(0,))


@pytest.mark.parametrize("overrides, err", [
    ({"s_max_grid": (1.0, -1.0)}, "s_max must be >= 0, got -1.0"),
    ({"s_max_grid": (1.0, math.nan)}, "s_max must be >= 0, got nan"),
    ({"alpha": 1.5}, "alpha must be in [0, 1], got 1.5"),
    ({"beta": -0.5}, "beta must be in [0, 1], got -0.5"),
    ({"n_slots": 0}, "n_slots=0: want an integer >= 1"),
    ({"n_slots": True}, "n_slots=True: want an integer >= 1"),
    ({"n_slots": 2.5}, "n_slots=2.5: want an integer >= 1")])
@pytest.mark.parametrize("experiment", ["cost-vs-storage", "saving-vs-theta"])
def test_every_grid_point_checked_when_built(experiment, overrides, err):
    # a bad s_max used to fail in its own column, after the columns
    # before it were solved (in other workers, in a pool)
    with pytest.raises(ValueError) as exc:
        small_spec(experiment, **overrides)
    assert str(exc.value) == err


@pytest.mark.parametrize("seed", [-1, True, 1.5, "1", None])
def test_bad_seed_named_when_built(seed):
    # numpy's own message named neither the flag nor the seed
    with pytest.raises(ValueError) as exc:
        small_spec("hybrid-vs-greedy", seeds=(0, seed))
    assert str(exc.value) == f"seed={seed!r}: want an integer >= 0"


def test_numpy_integer_seeds_taken():
    seeds = tuple(np.arange(3))
    assert small_spec("hybrid-vs-greedy", seeds=seeds).seeds == seeds


@pytest.mark.parametrize("efficiencies", [{"alpha": 0.0}, {"beta": 0.0}])
@pytest.mark.parametrize("experiment", ["greedy-loss-vs-theta",
                                        "hybrid-vs-greedy"])
def test_greedy_studies_reject_zero_efficiency_before_any_solve(
        monkeypatch, experiment, efficiencies):
    # the greedy layer runs in standard mode; its mode check comes when
    # the spec is built, not after the stage-1 LPs of every grid point
    def no_solve(self, problem):
        raise AssertionError("LP solved before the mode check")

    monkeypatch.setattr(lp.LpSession, "solve", no_solve)
    used = {"alpha": 0.9, "beta": 0.8, **efficiencies}  # 0.9, 0.8: defaults
    with pytest.raises(ValueError) as exc:
        run_experiment(small_spec(experiment, **efficiencies), workers=1)
    assert str(exc.value) == (
        "mode 'standard' needs alpha > 0, beta > 0 and alpha * beta > 0, "
        f"got alpha = {used['alpha']}, beta = {used['beta']}, "
        "alpha * beta = 0.0")


@pytest.mark.parametrize("experiment", ["greedy-loss-vs-theta",
                                        "hybrid-vs-greedy"])
def test_greedy_studies_reject_underflowing_efficiencies_before_any_solve(
        monkeypatch, experiment):
    # 1e-170 * 1e-170 is 0.0, by which the greedy case rules would divide
    def no_solve(self, problem):
        raise AssertionError("LP solved before the mode check")

    monkeypatch.setattr(lp.LpSession, "solve", no_solve)
    with pytest.raises(ValueError) as exc:
        small_spec(experiment, alpha=1e-170, beta=1e-170)
    assert str(exc.value) == (
        "mode 'standard' needs alpha > 0, beta > 0 and alpha * beta > 0, "
        "got alpha = 1e-170, beta = 1e-170, alpha * beta = 0.0")


@pytest.mark.parametrize("efficiencies", [{"alpha": 0.0}, {"beta": 0.0}])
@pytest.mark.parametrize("experiment", ["cost-vs-storage", "saving-vs-theta"])
def test_cost_studies_take_zero_efficiency(experiment, efficiencies):
    assert small_spec(experiment, **efficiencies).experiment == experiment


@pytest.mark.parametrize("experiment", ["cost-vs-storage", "saving-vs-theta",
                                        "greedy-loss-vs-theta"])
def test_noise_scale_only_for_hybrid(experiment):
    # the noise scale is the NOISE_SCALE constant, not a spec field
    assert not hasattr(default_spec(experiment), "noise_scale")
    with pytest.raises(TypeError, match="noise_scale"):
        default_spec(experiment, noise_scale=7.0)


def test_default_specs_cover_study_grids():
    spec = default_spec("cost-vs-storage")
    assert spec.s_max_grid == (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)
    assert len(spec.thetas) == 4
    spec = default_spec("saving-vs-theta")
    assert len(spec.thetas) == 17
    assert spec.thetas[8] == pytest.approx(math.pi)
    spec = default_spec("hybrid-vs-greedy")
    assert spec.amplitude == 5.0
    assert spec.s_max_grid == (3.5,)
    assert len(spec.seeds) == 20
    assert NOISE_SCALE == 0.125
    assert OMEGA == 2 * math.pi / 24


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_rows_unique_per_metric(experiment):
    result = run_experiment(small_spec(experiment), workers=1)
    counts = Counter((r.metric, r.theta, r.s_max) for r in result.rows)
    assert all(v == 1 for v in counts.values())
    assert result.rows


def test_metadata_records_required_keys():
    # each study records its spec and only the constants it ran with
    extras = {"cost-vs-storage": [],
              "saving-vs-theta": [],
              "greedy-loss-vs-theta": ["case_tol"],
              "hybrid-vs-greedy": ["noise_scale", "eps_lex_factor",
                                   "case_tol", "seeds"]}
    for experiment, extra in extras.items():
        result = ExperimentResult(small_spec(experiment), ())
        keys = [key for key, _ in result.metadata()]
        assert keys == ["experiment", "alpha", "beta", "s_max_grid",
                        "n_slots", "amplitude", "omega", *extra, "version"]


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_recorded_keys_follow_behaviour(monkeypatch, experiment):
    # what the CSV says a study used is what it ran: case_tol exactly when
    # the standard-mode greedy check rejects alpha = 0, seeds exactly when
    # seeds are required and the study runs a task per grid point
    spec = small_spec(experiment)
    keys = {key for key, _ in ExperimentResult(spec, ()).metadata()}

    def rejects(**overrides):
        try:
            small_spec(experiment, **overrides)
        except ValueError:
            return True
        return False

    tasks = []
    monkeypatch.setattr(experiments, "_run_tasks",
                        lambda fn, ts, workers: tasks.extend(ts) or [])
    run_experiment(spec, workers=1)
    per_point = len(tasks) == len(spec.thetas) * len(spec.s_max_grid)
    assert len(spec.thetas) > 1
    assert ("case_tol" in keys) == rejects(alpha=0.0)
    assert ("seeds" in keys) == rejects(seeds=()) == per_point


@pytest.mark.parametrize("rows, hits", [
    ((), 0),
    ((ResultRow(0.0, 1.0, "cost_per_bs", 1.0),
      ResultRow(0.0, 1.0, "cost_per_bs", 2.0)), 2),
])
def test_value_needs_exactly_one_row(rows, hits):
    result = ExperimentResult(small_spec("cost-vs-storage"), rows)
    with pytest.raises(KeyError, match=f"{hits} rows for metric=cost_per_bs"):
        result.value("cost_per_bs", theta=0.0)


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_byte_identical_reruns(tmp_path, experiment):
    spec = small_spec(experiment)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_result(run_experiment(spec, workers=1), a)
    write_result(run_experiment(spec, workers=2), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("experiment", ["saving-vs-theta",
                                        "hybrid-vs-greedy"])
def test_csv_bytes_do_not_depend_on_number_types(tmp_path, experiment):
    # an API-built spec may carry ints, numpy scalars, lists or numpy
    # arrays; it stores floats, ints and tuples, so its CSV is the float
    # spec's byte for byte (the ints were written as 1 and 0, numpy's as
    # np.float64(0.9); a numpy grid raised numpy's ambiguous truth value)
    seeds = {"seeds": (0, 1)} if experiment == "hybrid-vs-greedy" else {}
    floats = dict(n_slots=24, alpha=1.0, beta=1.0, amplitude=3.0,
                  thetas=(0.0, 1.0), s_max_grid=(1.0,), **seeds)
    ints = dict(floats, alpha=1, beta=1, amplitude=3, thetas=[0, 1],
                s_max_grid=(1,), seeds=list(seeds.get("seeds", ())))
    numpys = dict(floats, alpha=np.float64(0.9), beta=np.float64(0.8),
                  amplitude=np.float64(3.0), thetas=np.array([0.0, 0.5]),
                  s_max_grid=np.array([1.0]),
                  seeds=np.arange(len(seeds.get("seeds", ()))))
    for kind, plain in ((ints, floats),
                        (numpys, dict(floats, alpha=0.9, beta=0.8,
                                      thetas=(0.0, 0.5)))):
        csvs = []
        for overrides in (kind, plain):
            spec = default_spec(experiment, **overrides)
            assert spec == default_spec(experiment, **plain)
            hash(spec)
            csvs.append(tmp_path / f"{len(csvs)}.csv")
            write_result(run_experiment(spec, workers=1), csvs[-1])
        assert csvs[0].read_bytes() == csvs[1].read_bytes()


@pytest.mark.parametrize("experiment", ["saving-vs-theta",
                                        "greedy-loss-vs-theta"])
def test_every_study_sweeps_the_storage_grid(experiment):
    spec = small_spec(experiment)
    result = run_experiment(spec, workers=1)
    swept = {(r.theta, r.s_max) for r in result.rows if r.theta is not None}
    assert swept == {(th, sm) for th in spec.thetas for sm in spec.s_max_grid}
    singles = [r.s_max for r in result.rows if r.metric == "single_bs_cost"]
    assert singles == (list(spec.s_max_grid)
                       if experiment == "saving-vs-theta" else [])


@pytest.mark.parametrize("experiment", ["cost-vs-storage", "saving-vs-theta",
                                        "greedy-loss-vs-theta"])
def test_cost_studies_match_cold_recomputation(experiment):
    # each column prices its thetas warm in one session; every row equals
    # the cold per-point solve, the baseline equals the single-BS program's
    # optimum, and rows keep grid order
    spec = small_spec(experiment)
    singles = {sm: single_bs_optimum(spec.params(sm), spec.profile(0.0).e1)
               for sm in spec.s_max_grid}
    expected = []
    for theta in spec.thetas:
        for sm in spec.s_max_grid:
            params, profile = spec.params(sm), spec.profile(theta)
            pair = lp_solve(build_stage1(params, profile)).objective_value
            if experiment == "greedy-loss-vs-theta":
                gre = total_cost(run_greedy(params, profile))
                expected += [(theta, sm, "offline_cost", pair),
                             (theta, sm, "greedy_cost", gre),
                             (theta, sm, "loss_pct",
                              100.0 * (gre - pair) / pair)]
            else:
                expected.append(
                    (theta, sm, "cost_per_bs", pair / 2.0)
                    if experiment == "cost-vs-storage" else
                    (theta, sm, "saving_pct",
                     100.0 * (singles[sm] - pair / 2.0) / singles[sm]))
    if experiment != "greedy-loss-vs-theta":
        expected += [(None, sm, "single_bs_cost", singles[sm])
                     for sm in spec.s_max_grid]
    rows = run_experiment(spec, workers=1).rows
    assert [(r.theta, r.s_max, r.metric) for r in rows] == [
        e[:3] for e in expected]
    for row, (*_, value) in zip(rows, expected):
        assert abs(row.value - value) <= 1e-9 * max(1.0, abs(value))


def _raw(traj):
    """Every number of a trajectory as bytes, so -0.0 differs from 0.0."""
    return np.array(traj.actions).tobytes() + np.array(traj.states).tobytes()


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
def test_hybrid_point_plans_as_plan_offline(monkeypatch, theta):
    # the point's stage-1 session also prices its seeds; its plan is still
    # exactly the cold two-stage plan, sign of zero included
    spec = small_spec("hybrid-vs-greedy", n_slots=240)
    plans = []

    def spy(*args, offline_traj):
        plans.append(_raw(offline_traj))
        return run_hybrid_stream(*args, offline_traj=offline_traj)

    monkeypatch.setattr(experiments, "run_hybrid_stream", spy)
    experiments._point_hybrid((spec, theta, 3.5))
    want = _raw(plan_offline(spec.params(3.5), spec.profile(theta)))
    assert plans == [want] * len(spec.seeds)


@pytest.mark.parametrize("run, task, cold", [
    (experiments._point_hybrid,
     (small_spec("hybrid-vs-greedy"), math.pi / 2, 3.5), 2),
    (experiments._column, (small_spec("saving-vs-theta"), 1.0), 1),
    (experiments._column, (small_spec("cost-vs-storage"), 0.5), 1),
    (experiments._column, (small_spec("greedy-loss-vs-theta"), 1.0), 1),
], ids=["hybrid-point", "saving-column", "cost-column", "greedy-column"])
def test_cold_highs_instances_per_task(monkeypatch, run, task, cold):
    # a hybrid point: stage 1 (every seed re-solved warm) and stage 2; a
    # column: the first theta, every other theta warm; the single-BS
    # baseline is a rollout
    made = []

    def counting():
        made.append(None)
        return highs()

    highs = lp._Highs
    monkeypatch.setattr(lp, "_Highs", counting)
    run(task)
    assert len(made) == cold


@pytest.mark.parametrize("workers", [0, -5, True, False, 1.0, "2"])
def test_bad_workers_argument_rejected(workers):
    # the rule of ENERGYCOOP_WORKERS: an integer >= 1, and a bool is not
    with pytest.raises(ValueError) as exc:
        run_experiment(small_spec("saving-vs-theta"), workers=workers)
    assert str(exc.value) == f"workers={workers!r}: want an integer >= 1"


def test_numpy_integer_workers_taken():
    spec = small_spec("saving-vs-theta")
    assert (run_experiment(spec, workers=np.int64(1))
            == run_experiment(spec, workers=1))


def test_result_csv_round_trip(tmp_path):
    result = run_experiment(small_spec("cost-vs-storage"), workers=1)
    path = tmp_path / "out.csv"
    write_result(result, path)
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    assert rows[0] == ["theta", "s_max", "metric", "value"]
    # repr round-trips every float exactly
    assert rows[1:] == [["" if r.theta is None else repr(r.theta),
                         "" if r.s_max is None else repr(r.s_max),
                         r.metric, repr(r.value)] for r in result.rows]


def test_cost_vs_storage_orderings():
    result = run_experiment(small_spec("cost-vs-storage"), workers=2)
    for s_max in (0.5, 1.0):
        anti = result.value("cost_per_bs", theta=math.pi, s_max=s_max)
        aligned = result.value("cost_per_bs", theta=0.0, s_max=s_max)
        single = result.value("single_bs_cost", s_max=s_max)
        assert anti <= aligned + 1e-9
        assert anti <= single + 1e-9


def test_greedy_loss_nonnegative():
    result = run_experiment(small_spec("greedy-loss-vs-theta"), workers=1)
    for row in result.rows:
        if row.metric == "loss_pct":
            assert row.value >= -1e-6


def test_saving_reflection_symmetry():
    # savings at theta and 2pi - theta coincide except one grid point:
    # at 7pi/8 vs 9pi/8 the finite horizon with empty initial storage
    # breaks the reflection by a constant transient (~0.023 percentage
    # points at N=240, shrinking relatively as the horizon grows)
    spec = default_spec("saving-vs-theta")
    result = run_experiment(spec, workers=2)
    savings = {r.theta: r.value for r in result.rows
               if r.metric == "saving_pct"}
    for k in range(1, 7):
        lo = savings[spec.thetas[k]]
        hi = savings[spec.thetas[16 - k]]
        assert abs(lo - hi) <= 1e-9, f"k={k}: {lo} vs {hi}"
    transient = abs(savings[spec.thetas[7]] - savings[spec.thetas[9]])
    assert 0.01 < transient < 0.05
