"""Benchmark of energycoop's planners, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload offline-long --seed 0 --seconds 20
    python3 perfbench/run.py                  # every workload, end to end
    python3 perfbench/run.py --trace 1        # every workload, per layer

Each workload runs in a fresh child process (``child.py``) under an
address-space cap, with BLAS and OpenMP pinned to one thread and
``ENERGYCOOP_WORKERS=1``, so no experiment pool forks.  The child repeats
the workload's operations for ``--seconds`` of operation time in a closed
loop and checks every output.  With ``--trace 0`` the end-to-end metrics
are printed:

    setup_s       median time from process start to the first timed
                  operation, over SETUP_RUNS fresh processes
    op_s_p50      median wall time of one operation
    slots_per_s   horizon slots completed per second of operation time
    peak_rss_mb   peak resident memory of the measuring process

The three timings are reported at a reference machine speed: each time is
multiplied by REFERENCE_PROBE_S over the time of ``child.py``'s speed
probe, a fixed pure-Python loop timed in the same process just before it
(right after set-up for ``setup_s``, right before each operation for the
others).  Shared virtual machines change speed in bursts and for minutes
at a time.  On a 2-vCPU VM, ten runs of each workload spread (quartile
distance over median) 10-36% in op_s_p50 and slots_per_s as measured,
and 2.5-8.5% once each operation was scaled by its probe.  The figures as
measured, ``op_s_p90`` where at least ten samples lie above it, and
``fail_frac`` are printed and recorded as well.

With ``--trace 1`` the per-layer metrics of ``tracing.py`` are printed,
together with the measured tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full record, with
the environment and the resolved workload parameters.  Records, and the
spans of the first traced pass, are also written to
``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline-long", "online-rollout", "study-sweep")
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("slots_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
SETUP_RUNS = 7
# A fast time of child.speed_probe on a 2-vCPU x86-64 VM with Python 3.11;
# timings are scaled to the machine speed at which the probe takes this
# long.
REFERENCE_PROBE_S = 1.25e-3
DEFAULT_SECONDS = 20.0
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(Exception):
    """A child process failed; no result may be printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["ENERGYCOOP_WORKERS"] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return the JSON record it prints."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("time limit reached before a child could start")
    t0 = time.monotonic()
    cmd = [sys.executable, "-I", str(HERE / "child.py"), *args,
           "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child exceeded the time limit: {cmd}") from None
    if proc.returncode != 0:
        raise BenchmarkError(
            f"child exited {proc.returncode}: {cmd}\n{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchmarkError(f"child printed no record: {cmd}") from None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment() -> dict:
    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        / 2**20,
        "git_commit": _git_commit(),
        "threads_pinned": 1,
    }


def _timing(ops: list) -> dict:
    """Operation-time statistics at the reference speed and as measured."""
    scaled = [elapsed * REFERENCE_PROBE_S / probe
              for _, elapsed, _, _, probe in ops]
    measured = [op[1] for op in ops]
    slots = sum(op[2] for op in ops)
    out = {"op_s_p50": statistics.median(scaled),
           "slots_per_s": slots / sum(scaled),
           "measured_op_s_p50": statistics.median(measured),
           "measured_slots_per_s": slots / sum(measured),
           "samples": len(ops)}
    if len(ops) >= 100:
        p90 = statistics.quantiles(scaled, n=10)[-1]
        if sum(t > p90 for t in scaled) >= 10:
            out["op_s_p90"] = p90
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    """Measure one workload in fresh processes; returns its full record."""
    common = ["--workload", name, "--seed", str(seed)]

    def setup_only() -> dict:
        return _spawn(common + ["--seconds", "0", "--setup-only"], deadline)

    # set-up samples are split around the measuring run, so they see the
    # machine at different moments
    setups = [] if trace else [setup_only() for _ in range(SETUP_RUNS // 2)]
    child = _spawn(common + ["--seconds", repr(seconds),
                             "--trace", str(trace)], deadline)
    ops = child["ops"]
    failed = sum(not op[3] for op in ops)
    problems = child.pop("problems", [])
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "attempted": len(ops), "failed": failed,
              "fail_frac": failed / len(ops), "problems": problems,
              "environment": _environment(), **child}
    record["failures"] = record["failures"][:20]
    if trace:
        record["metrics"] = record.pop("per_layer")
    else:
        setups.append(child)
        while len(setups) < SETUP_RUNS:
            setups.append(setup_only())
        record["setup_samples"] = [s["setup_s"] for s in setups]
        record["setup_probe_samples"] = [s["setup_probe_s"] for s in setups]
        record["probe_s_p50"] = statistics.median(op[4] for op in ops)
        timing = _timing(ops)
        record.update(timing)
        record["metrics"] = {
            "setup_s": statistics.median(
                s["setup_s"] * REFERENCE_PROBE_S / s["setup_probe_s"]
                for s in setups),
            "op_s_p50": timing["op_s_p50"],
            "slots_per_s": timing["slots_per_s"],
            "peak_rss_mb": child["peak_rss_mb"]}
    record["correct"] = failed == 0 and not problems
    return record


def _units(trace: int) -> dict[str, str]:
    if not trace:
        return dict(END_TO_END)
    sys.path.insert(0, str(HERE))
    from tracing import PER_LAYER
    return dict(PER_LAYER)


def _report(record: dict, units: dict[str, str]) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['passes']} passes, {record['attempted']} operations, "
          f"closed loop, one caller)")
    rows = [(key, record["metrics"][key], unit, "")
            for key, unit in units.items()]
    if not record["trace"]:
        rows += [
            ("setup_s", statistics.median(record["setup_samples"]), "s",
             "as measured"),
            ("op_s_p50", record["measured_op_s_p50"], "s", "as measured"),
            ("slots_per_s", record["measured_slots_per_s"], "1/s",
             "as measured"),
            ("op_s_p90", record.get("op_s_p90", math.nan), "s",
             f"{record['samples']} samples" if "op_s_p90" in record else
             f"only {record['samples']} samples, fewer than ten above p90"),
            ("speed probe", record["probe_s_p50"], "s",
             f"median; reference {REFERENCE_PROBE_S} s")]
    rows.append(("fail_frac", record["fail_frac"], "",
                 f"{record['failed']}/{record['attempted']}"))
    for key, value, unit, note in rows:
        print(f"  {key:28s} {value:>16.6g} {unit:6s} {note}".rstrip())
    for line in record["problems"] + record["failures"]:
        print(f"  problem: {line}")


def _save(record: dict) -> None:
    out = HERE / "_work" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{record['workload']}-seed{record['seed']}"
                  f"-trace{record['trace']}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="energycoop benchmark; see the module docstring")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    units = _units(args.trace)
    records = []
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            records.append(run_workload(name, args.seed, args.seconds,
                                        args.trace, deadline))
            _report(records[-1], units)
            _save(records[-1])
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    def metrics(record: dict, prefix: str = "") -> dict:
        return {prefix + key: {"value": record["metrics"][key], "unit": unit}
                for key, unit in units.items()}

    if len(records) == 1:
        (record,) = records
        shown = metrics(record)
    else:
        shown = {}
        for record in records:
            shown.update(metrics(record, record["workload"] + "/"))
    # the full record, without the per-operation list that _save keeps
    print(json.dumps([{k: v for k, v in r.items() if k != "ops"}
                      for r in records]))
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
