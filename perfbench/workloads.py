"""The benchmark's three workloads: generated inputs, operations and checks.

Each workload is a fixed list of operations, one call into energycoop's
public functions each.  The runner repeats the whole list, so every pass
does the same work.  Inputs depend only on the workload seed and are built
before timing starts.  Every output is checked outside the timed span: a
trajectory must pass ``check_feasible`` and hold only finite numbers, and
each workload adds checks of its own.  At the default seed, costs and study
rows must also match ``reference.json``, which was produced by the seed
version of the code.

Why these workloads:

* ``offline-long`` plans long horizons with the two-stage LP, where LP
  construction, the HiGHS call, certification and trajectory extraction do
  nearly all the work and memory grows with the square of the horizon.
  The greedy and hybrid controllers do no work here.
* ``online-rollout`` runs the per-slot Python controllers over a year of
  hourly slots and many hybrid noise realizations.  No LP runs in its
  timed part: the hybrid's offline plan is made once, during set-up.
* ``study-sweep`` runs two of the paper's studies through the command line
  entry point: many small LPs mixed with greedy and hybrid rollouts, noise
  generation and CSV writing.  It shows fixed costs per solve that the
  large LPs of ``offline-long`` hide.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from energycoop import cli, greedy, hybrid, model, offline, profiles

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-9
# Relative slack of the stage-2 cost budget in the seed code (eps_lex),
# and the absolute tolerance to which lp_solve certifies the budget row.
LEX_BUDGET = 1e-9
FEAS_TOL = 1e-9
OMEGA = 2 * math.pi / 24


@dataclass
class Op:
    """One timed call and the checks of its output."""

    label: str
    slots: int
    run: Callable[[], Any]
    # problems found in the output; empty when it is correct
    check: Callable[[Any], list[str]]
    # values compared with reference.json at the default seed
    fingerprint: Callable[[Any], list]


@dataclass
class Workload:
    params: dict  # the resolved parameters, recorded in every result
    ops: list[Op]


def _sub_seed(seed: int, k: int) -> int:
    """Independent per-input noise seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _finite(traj: model.Trajectory) -> bool:
    values = [v for a in traj.actions for v in a.as_tuple()]
    values += [v for s in traj.states for v in s.as_tuple()]
    return bool(np.isfinite(np.asarray(values)).all())


def _trajectory_problems(params: model.SystemParams,
                         profile: model.NetEnergyProfile,
                         traj: model.Trajectory) -> list[str]:
    problems = []
    if not _finite(traj):
        problems.append("trajectory holds a non-finite value")
    report = model.check_feasible(params, profile, traj)
    if not report.ok:
        v = report.violations[0]
        problems.append(f"{len(report.violations)} violations, first "
                        f"{v.constraint} at slot {v.slot}: {v.residual:.3e}")
    return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-3)


def _lex_problem(cost: float, optimum: float, what: str) -> list[str]:
    budget = LEX_BUDGET * max(1.0, abs(optimum))
    if not -budget <= cost - optimum <= budget + FEAS_TOL:
        return [f"{what} cost {cost!r} outside the eps_lex budget of the "
                f"stage-1 optimum {optimum!r}"]
    return []


def _cost(traj: model.Trajectory) -> list:
    return [model.total_cost(traj)]


# ---------------------------------------------------------------- offline-long

OFFLINE_N = 960
# Three phase shifts keep a pass near 10 s, so a 20-second run repeats
# every plan at least twice; theta = pi, the anti-correlated pair, takes
# the most HiGHS iterations.
OFFLINE_THETAS = (math.pi / 4, math.pi / 2, math.pi)


def _plan_op(label: str, params, profile) -> Op:
    optimum: list[float] = []

    def check(traj) -> list[str]:
        problems = _trajectory_problems(params, profile, traj)
        if not optimum:
            optimum.append(offline.offline_cost(params, profile))
        return problems + _lex_problem(model.total_cost(traj), optimum[0],
                                       label)

    return Op(label, params.n_slots,
              lambda: offline.plan_offline(params, profile), check, _cost)


def _single_op(label: str, params, e) -> Op:
    profile = model.NetEnergyProfile(e1=e, e2=(0.0,) * len(e))
    optimum: list[float] = []

    def check(traj) -> list[str]:
        problems = _trajectory_problems(params, profile, traj)
        if not optimum:
            optimum.append(offline.single_bs_cost(params, e))
        cost = model.total_cost(traj)
        if not _close(cost, optimum[0]):
            problems.append(f"{label} cost {cost!r} is not the single-BS "
                            f"optimum {optimum[0]!r}")
        return problems

    return Op(label, params.n_slots,
              lambda: offline.plan_single_bs(params, e), check, _cost)


def offline_long(seed: int, workdir: Path) -> Workload:
    n, amplitude, noise_scale = OFFLINE_N, 3.0, 0.125
    params = model.SystemParams(0.9, 0.8, 1.0, n)
    noise_seed = _sub_seed(seed, 0)
    ops = [_plan_op(f"plan_offline theta={theta:.4f}", params,
                    profiles.sinusoid(amplitude, OMEGA, theta, n))
           for theta in OFFLINE_THETAS]
    noisy = profiles.add_gaussian_noise(
        profiles.sinusoid(amplitude, OMEGA, math.pi / 2, n), noise_scale,
        noise_seed)
    ops.append(_plan_op("plan_offline noisy", params, noisy))
    ops.append(_single_op("plan_single_bs noisy e1", params, noisy.e1))
    ops.append(_single_op("plan_single_bs noisy e2", params, noisy.e2))
    # warm the code paths on a tiny horizon so the first timed plan pays
    # no one-off cost
    tiny = model.SystemParams(0.9, 0.8, 1.0, 24)
    offline.plan_offline(tiny, profiles.sinusoid(amplitude, OMEGA, 1.0, 24))
    offline.plan_single_bs(tiny, noisy.e1[:24])
    return Workload({
        "n_slots": n, "amplitude": amplitude, "omega": OMEGA,
        "thetas": list(OFFLINE_THETAS), "noisy_theta": math.pi / 2,
        "noise_scale": noise_scale, "noise_seed": noise_seed,
        "systems": [{"alpha": 0.9, "beta": 0.8, "s_max": 1.0}],
    }, ops)


# -------------------------------------------------------------- online-rollout

GREEDY_N = 8760
# (alpha, beta, mode): beta < alpha**2 takes the 2B/3B branches, beta >
# alpha**2 the 2A/3A branches; the degenerate modes get the systems they
# are required for.
GREEDY_SYSTEMS = ((0.9, 0.8, "standard"), (0.8, 0.9, "standard"),
                  (0.9, 0.8, "force_case_2a"), (0.0, 0.8, "no_storage"),
                  (0.9, 0.0, "no_transfer"))
HYBRID_N = 480
HYBRID_REALIZATIONS = 8


def _greedy_op(params, profile, mode: str) -> Op:
    label = f"run_greedy alpha={params.alpha} beta={params.beta} {mode}"
    return Op(label, params.n_slots,
              lambda: greedy.run_greedy(params, profile, mode),
              lambda traj: _trajectory_problems(params, profile, traj), _cost)


def _hybrid_op(label: str, params, deterministic, realized,
               offline_traj) -> Op:
    def run():
        return hybrid.run_hybrid_stream(
            params, deterministic, zip(realized.e1, realized.e2),
            offline_traj=offline_traj)

    def check(result) -> list[str]:
        problems = _trajectory_problems(params, realized, result.combined)
        for t, (c, d, g) in enumerate(zip(result.combined.actions,
                                          result.offline.actions,
                                          result.greedy.actions)):
            if c.as_tuple() != tuple(
                    vd + vg for vd, vg in zip(d.as_tuple(), g.as_tuple())):
                problems.append(f"combined action at slot {t} is not "
                                f"offline + greedy")
                break
        for t, (c, d, g) in enumerate(zip(result.combined.states,
                                          result.offline.states,
                                          result.greedy.states)):
            if (c.s1, c.s2) != (d.s1 + g.s1, d.s2 + g.s2):
                problems.append(f"combined state at slot {t} is not "
                                f"offline + greedy")
                break
        return problems

    return Op(label, params.n_slots, run, check,
              lambda result: _cost(result.combined))


def online_rollout(seed: int, workdir: Path) -> Workload:
    amplitude, noise_scale = 3.0, 0.5
    base = profiles.sinusoid(amplitude, OMEGA, math.pi / 2, GREEDY_N)
    ops, greedy_seeds = [], []
    for k, (alpha, beta, mode) in enumerate(GREEDY_SYSTEMS):
        greedy_seeds.append(_sub_seed(seed, k))
        profile = profiles.add_gaussian_noise(base, noise_scale,
                                              greedy_seeds[-1])
        ops.append(_greedy_op(model.SystemParams(alpha, beta, 1.0, GREEDY_N),
                              profile, mode))

    h_amplitude, h_theta, h_scale, h_smax = 5.0, 3 * math.pi / 4, 0.125, 3.5
    h_params = model.SystemParams(0.9, 0.8, h_smax, HYBRID_N)
    deterministic = profiles.sinusoid(h_amplitude, OMEGA, h_theta, HYBRID_N)
    offline_traj = offline.plan_offline(h_params, deterministic)
    problems = _trajectory_problems(h_params, deterministic, offline_traj)
    if problems:
        raise RuntimeError(f"hybrid offline plan: {problems}")
    hybrid_seeds = [_sub_seed(seed, 100 + k)
                    for k in range(HYBRID_REALIZATIONS)]
    for k, noise_seed in enumerate(hybrid_seeds):
        realized = profiles.add_gaussian_noise(deterministic, h_scale,
                                               noise_seed)
        ops.append(_hybrid_op(f"run_hybrid_stream realization={k}",
                              h_params, deterministic, realized,
                              offline_traj))
    tiny = model.SystemParams(0.9, 0.8, 1.0, 24)
    tiny_profile = profiles.sinusoid(amplitude, OMEGA, 1.0, 24)
    for mode in ("standard", "force_case_2a"):
        greedy.run_greedy(tiny, tiny_profile, mode)
    hybrid.run_hybrid_stream(tiny, tiny_profile,
                             zip(tiny_profile.e1, tiny_profile.e2))
    return Workload({
        "greedy": {"n_slots": GREEDY_N, "amplitude": amplitude,
                   "omega": OMEGA, "theta": math.pi / 2,
                   "noise_scale": noise_scale, "noise_seeds": greedy_seeds,
                   "systems": [{"alpha": a, "beta": b, "s_max": 1.0,
                                "mode": m} for a, b, m in GREEDY_SYSTEMS]},
        "hybrid": {"n_slots": HYBRID_N, "amplitude": h_amplitude,
                   "omega": OMEGA, "theta": h_theta, "noise_scale": h_scale,
                   "noise_seeds": hybrid_seeds,
                   "systems": [{"alpha": 0.9, "beta": 0.8, "s_max": h_smax}]},
    }, ops)


# ----------------------------------------------------------------- study-sweep

STUDY_N = 240
SAVING_THETAS = ((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4),
                 (math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, math.pi))
HYBRID_THETAS = (math.pi / 4, 3 * math.pi / 4)
STUDY_NOISE_SEEDS = 3


def _read_rows(path: Path) -> list[list]:
    """Data rows of an experiment CSV; the '#' metadata lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, None)
        if header != ["theta", "s_max", "metric", "value"]:
            raise ValueError(f"{path}: unexpected header {header}")
        return [[float(theta) if theta else None,
                 float(s_max) if s_max else None, metric, float(value)]
                for theta, s_max, metric, value in reader]


def _study_op(label: str, argv: list[str], out: Path, n_rows: int,
              slots: int) -> Op:
    first: list[bytes] = []

    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv + ["--serial", "--n", str(STUDY_N),
                                    "--out", str(out)])
        return code, stdout.getvalue()

    def check(result) -> list[str]:
        code, stdout = result
        if code != 0:
            return [f"{label} exited {code}: {stdout.strip()}"]
        data = out.read_bytes()
        rows = _read_rows(out)
        problems = []
        if len(rows) != n_rows:
            problems.append(f"{label} wrote {len(rows)} rows, want {n_rows}")
        if not all(math.isfinite(value) for *_, value in rows):
            problems.append(f"{label} wrote a non-finite value")
        # the offline plan is optimal, so no online controller beats it
        if any(metric.endswith("_loss_mean_pct") and value < -1e-6
               for _, _, metric, value in rows):
            problems.append(f"{label} reports a negative loss")
        if not first:
            first.append(data)
        elif data != first[0]:
            problems.append(f"{label} CSV differs from its first run")
        return problems

    return Op(label, slots, run, check, lambda result: _read_rows(out))


def _saving_op(k: int, workdir: Path) -> Op:
    thetas = SAVING_THETAS[k]
    argv = ["experiment", "saving-vs-theta",
            "--thetas", ",".join(map(repr, thetas))]
    # one single-BS solve plus one pair solve per theta
    solves = len(thetas) + 1
    return _study_op(f"saving-vs-theta grid={k}", argv,
                     workdir / f"saving-{k}.csv", solves, STUDY_N * solves)


def study_sweep(seed: int, workdir: Path) -> Workload:
    noise_seeds = [_sub_seed(seed, k) % 2**31
                   for k in range(STUDY_NOISE_SEEDS)]
    argv = ["experiment", "hybrid-vs-greedy",
            "--thetas", ",".join(map(repr, HYBRID_THETAS)),
            "--seeds", ",".join(map(str, noise_seeds))]
    # per theta: one plan, then per seed a cost solve, a greedy and a
    # hybrid rollout
    plans = len(HYBRID_THETAS) * (1 + 3 * len(noise_seeds))
    ops = [_saving_op(0, workdir),
           _study_op("hybrid-vs-greedy", argv, workdir / "hybrid.csv",
                     4 * len(HYBRID_THETAS), STUDY_N * plans),
           _saving_op(1, workdir)]
    warm = workdir / "warm-up.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["experiment", "hybrid-vs-greedy", "--serial", "--n", "24",
                  "--thetas", "1.0", "--seeds", "0", "--out", str(warm)])
    warm.unlink()
    return Workload({
        "n_slots": STUDY_N, "saving_thetas": [list(t) for t in SAVING_THETAS],
        "hybrid_thetas": list(HYBRID_THETAS), "noise_seeds": noise_seeds,
        "systems": [{"alpha": 0.9, "beta": 0.8, "s_max": 1.0,
                     "study": "saving-vs-theta"},
                    {"alpha": 0.9, "beta": 0.8, "s_max": 3.5,
                     "study": "hybrid-vs-greedy"}],
    }, ops)


WORKLOADS = {"offline-long": offline_long, "online-rollout": online_rollout,
             "study-sweep": study_sweep}


def reference_problems(a, b, where: str) -> list[str]:
    """Differences between a fingerprint and its reference value."""
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} values, reference has {len(b)}"]
        problems = []
        for i, (x, y) in enumerate(zip(a, b)):
            problems += reference_problems(x, y, f"{where}[{i}]")
        return problems[:3]
    if isinstance(a, float) and isinstance(b, (int, float)):
        return [] if _close(a, b) else [f"{where}: {a!r} != reference {b!r}"]
    return [] if a == b else [f"{where}: {a!r} != reference {b!r}"]


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]
