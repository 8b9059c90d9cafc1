"""In-memory spans around the names energycoop's layers call through.

The traced run replaces module-level names such as
``energycoop.offline.lp_solve`` with wrappers that record a span (name,
start, end, parent) when the tracer is in the matching phase, and leave the
call untouched otherwise.  Nothing inside ``src/`` changes: every span sits
at a call between two layers.  Inspection work done only for the trace
(counting LP non-zeros, recomputing residual profiles) runs in
``trace.inspect`` spans, so it is excluded from the self time of the span
that encloses it and shows up only in the measured tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

import numpy as np

# The greedy decision labels ``Trajectory.cases`` can hold.
CASE_LABELS = ("1", "2A", "2B.1", "2B.2", "3A", "3B.1", "3B.2", "4",
               "4-1", "4-2A", "4-2B.1", "4-2B.2", "4-3A", "4-3B.1", "4-3B.2",
               "no_storage", "no_transfer")

# Per-layer metrics of one traced pass over a workload's operations: times
# and sizes are averaged over the traced passes of a run, counts must be the
# same in every pass.  Which end-to-end metric each should move:
# - lp.*, offline.* and model.normalize_*: op_best_s_p50 and
#   best_slots_per_s on offline-long, op_best_s_p50 on study-sweep, nothing
#   on online-rollout; lp.problem_mb moves peak_rss_mb, strongly on
#   offline-long.  Halving lp.solves should move offline-long and barely
#   move study-sweep.
# - greedy.* and hybrid.*: best_slots_per_s and op_best_s_p50 on
#   online-rollout, a small share of study-sweep.
# - profiles.noise_s, experiments.*, cli.main_s: op_best_s_p50 on
#   study-sweep.
# - model.check_s times the untimed output checks; it moves no end-to-end
#   metric.
PER_LAYER = (
    [("lp.problem_mb", "MB"), ("lp.rows", "count"), ("lp.vars", "count"),
     ("lp.nnz", "count"), ("lp.solve_s", "s"), ("lp.highs_s", "s"),
     ("lp.solve_self_s", "s"), ("lp.solves", "count"),
     ("lp.iterations", "count"),
     ("offline.build_stage1_s", "s"), ("offline.build_stage2_s", "s"),
     ("offline.single_bs_s", "s"), ("offline.cost_s", "s"),
     ("offline.extract_s", "s"),
     ("model.normalize_s", "s"), ("model.normalize_calls", "count"),
     ("model.check_s", "s"),
     ("greedy.rollout_s", "s"), ("greedy.step_us", "us")]
    + [(f"greedy.cases.{label}", "count") for label in CASE_LABELS]
    + [("greedy.cases.other", "count"),
       ("hybrid.stream_s", "s"), ("hybrid.slot_us", "us"),
       ("hybrid.forced_release", "energy"),
       ("profiles.noise_s", "s"), ("experiments.study_s", "s"),
       ("experiments.write_s", "s"), ("cli.main_s", "s"),
       ("trace.overhead_s", "s")])

# Counts that must repeat exactly on every pass over the same inputs.
EXACT_COUNTS = (["lp.iterations", "lp.solves", "model.normalize_calls"]
                + [f"greedy.cases.{label}" for label in CASE_LABELS]
                + ["greedy.cases.other"])

OP, CHECK = "op", "check"


class Tracer:
    """Records spans in memory while ``phase`` matches a wrapper's phase."""

    def __init__(self) -> None:
        self.phase: str | None = None
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.sums: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()
        self.maxima, self.sums = defaultdict(float), defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, phase: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase != phase:
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                args, kwargs, state = tracer.call(
                    "trace.inspect", before, tracer, args, kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                tracer.call("trace.inspect", after, tracer, state, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every name in ``WRAPPED``; a name that is gone is skipped."""
        self.missing = []
        for module_name, attr, name, phase, before, after in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, phase, before, after))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def _lp_sizes(tracer: Tracer, args, kwargs):
    """Rows, variables, non-zeros and row bytes of the problem being solved."""
    problem = args[0] if args else kwargs.get("problem")
    try:
        rows = list(problem.eq_constraints) + list(problem.ub_constraints)
        n_vars = len(problem.objective)
    except (AttributeError, TypeError):
        return args, kwargs, None
    nnz = nbytes = 0
    for row, _ in rows:
        arr = np.asarray(row, dtype=float)
        nnz += int(np.count_nonzero(arr))
        nbytes += arr.nbytes
    for key, value in (("lp.rows", len(rows)), ("lp.vars", n_vars),
                       ("lp.nnz", nnz), ("lp.problem_mb", nbytes / 2**20)):
        tracer.maxima[key] = max(tracer.maxima[key], value)
    return args, kwargs, None


def _lp_iterations(tracer: Tracer, state, solution) -> None:
    tracer.counts["lp.iterations"] += int(getattr(solution, "iterations", 0))


def _greedy_cases(tracer: Tracer, state, traj) -> None:
    for label, n in Counter(traj.cases or ()).items():
        key = label if label in CASE_LABELS else "other"
        tracer.counts[f"greedy.cases.{key}"] += n


def _hybrid_inputs(tracer: Tracer, args, kwargs):
    """Materialize the realized slots so the residual can be recomputed."""
    from energycoop import hybrid
    bound = inspect.signature(hybrid.run_hybrid_stream).bind(*args, **kwargs)
    slots = list(bound.arguments["realized_slots"])
    bound.arguments["realized_slots"] = iter(slots)
    state = (bound.arguments["params"], bound.arguments["deterministic"],
             slots)
    return bound.args, bound.kwargs, state


def _forced_release(tracer: Tracer, state, result) -> None:
    """Energy credited by forced releases: greedy_profile minus residual."""
    from energycoop import hybrid, model
    params, deterministic, slots = state
    realized = model.NetEnergyProfile(e1=tuple(e1 for e1, _ in slots),
                                      e2=tuple(e2 for _, e2 in slots))
    residual = hybrid.residual_profile(
        hybrid.DecomposedProfile(deterministic, realized), result.offline,
        params)
    seen = result.greedy_profile
    tracer.sums["hybrid.forced_release"] += (
        math.fsum(seen.e1) - math.fsum(residual.e1)
        + math.fsum(seen.e2) - math.fsum(residual.e2))


# (module, attribute, span name, phase, before hook, after hook).  The
# benchmark calls the public entry points through the same module
# attributes, so its own calls are traced as well.
WRAPPED = (
    ("energycoop.lp", "linprog", "lp.highs", OP, None, None),
    ("energycoop.offline", "lp_solve", "lp.solve", OP,
     _lp_sizes, _lp_iterations),
    ("energycoop.offline", "build_stage1", "offline.build_stage1", OP,
     None, None),
    ("energycoop.offline", "build_stage2", "offline.build_stage2", OP,
     None, None),
    ("energycoop.offline", "build_single_bs", "offline.single_bs", OP,
     None, None),
    ("energycoop.offline", "normalize_action", "model.normalize", OP,
     None, None),
    ("energycoop.offline", "plan_offline", "offline.plan", OP, None, None),
    ("energycoop.offline", "plan_single_bs", "offline.plan", OP, None, None),
    ("energycoop.greedy", "run_greedy", "greedy.rollout", OP,
     None, _greedy_cases),
    ("energycoop.greedy", "greedy_step_with_case", "greedy.step", OP,
     None, None),
    ("energycoop.hybrid", "run_hybrid_stream", "hybrid.stream", OP,
     _hybrid_inputs, _forced_release),
    ("energycoop.hybrid", "capped_step", "hybrid.slot", OP, None, None),
    ("energycoop.experiments", "plan_offline", "offline.plan", OP,
     None, None),
    ("energycoop.experiments", "offline_cost", "offline.cost", OP,
     None, None),
    ("energycoop.experiments", "single_bs_cost", "offline.cost", OP,
     None, None),
    ("energycoop.experiments", "run_greedy", "greedy.rollout", OP,
     None, _greedy_cases),
    ("energycoop.experiments", "run_hybrid_stream", "hybrid.stream", OP,
     _hybrid_inputs, _forced_release),
    ("energycoop.experiments", "add_gaussian_noise", "profiles.noise", OP,
     None, None),
    ("energycoop.cli", "run_experiment", "experiments.study", OP,
     None, None),
    ("energycoop.cli", "write_result", "experiments.write", OP, None, None),
    ("energycoop.cli", "main", "cli.main", OP, None, None),
    ("energycoop.model", "check_feasible", "model.check", CHECK, None, None),
)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counts recorded since ``reset``."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    normalize_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "model.normalize":
                normalize_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    extract = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[i]
        calls[name] += 1
        if name == "offline.plan":
            # extraction includes the normalize_action calls it makes
            extract += end - start - child_time[i] + normalize_time[i]

    def mean_us(name: str) -> float:
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    out = {
        "lp.solve_s": total["lp.solve"],
        "lp.highs_s": total["lp.highs"],
        "lp.solve_self_s": own["lp.solve"],
        "lp.solves": calls["lp.solve"],
        "offline.build_stage1_s": total["offline.build_stage1"],
        "offline.build_stage2_s": total["offline.build_stage2"],
        "offline.single_bs_s": total["offline.single_bs"],
        "offline.cost_s": total["offline.cost"],
        "offline.extract_s": extract,
        "model.normalize_s": total["model.normalize"],
        "model.normalize_calls": calls["model.normalize"],
        "model.check_s": total["model.check"],
        "greedy.rollout_s": total["greedy.rollout"],
        "greedy.step_us": mean_us("greedy.step"),
        "hybrid.stream_s": total["hybrid.stream"],
        "hybrid.slot_us": mean_us("hybrid.slot"),
        "profiles.noise_s": total["profiles.noise"],
        "experiments.study_s": total["experiments.study"],
        "experiments.write_s": total["experiments.write"],
        "cli.main_s": total["cli.main"],
    }
    for key in ("lp.problem_mb", "lp.rows", "lp.vars", "lp.nnz"):
        out[key] = tracer.maxima.get(key, 0)
    out["hybrid.forced_release"] = tracer.sums.get(
        "hybrid.forced_release", 0.0)
    for key in EXACT_COUNTS:
        out.setdefault(key, tracer.counts.get(key, 0))
    return out
