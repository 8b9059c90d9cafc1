"""Run one workload in this fresh process and print its record as JSON.

Started by ``run.py``, never by hand.  The process caps its own address
space first, so a memory blow-up fails operations instead of exhausting
the machine.  It then imports energycoop from the checkout's ``src/``,
builds the workload's inputs (set-up), and repeats the workload's list of
operations until ``--seconds`` of operation time have been measured,
always finishing a pass so that every run does whole passes.  Each
operation is one closed-loop call: the next starts only when the previous
one has returned and its output has been checked.  Checks run outside the
timed span.

Right before each operation, and in a burst right after set-up, the
process times a fixed pure-Python loop, the speed probe; ``run.py``
divides each timing by the probe's to report it at a reference machine
speed.

With ``--trace 1`` passes alternate between traced and untraced, starting
traced; at least two traced passes run, so their exact counts can be
compared.  With ``--setup-only`` the process stops after set-up and the
probe burst.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

MEMORY_CAP_BYTES = 3 * 2**30
PROBE_BURST = 50
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop on this machine, now."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


def _check(op, out, reference) -> list[str]:
    try:
        problems = op.check(out)
        if reference is not None:
            from workloads import reference_problems
            if op.label not in reference:
                problems.append(f"{op.label}: no reference value")
            else:
                problems += reference_problems(
                    op.fingerprint(out), reference[op.label], op.label)
        return problems
    except Exception as exc:  # a check that cannot run fails the operation
        return [f"{op.label}: check raised {type(exc).__name__}: {exc}"]


def _run_pass(workload, tracer, reference, records: list) -> float:
    """One pass over the workload's operations; returns their timed wall."""
    from tracing import CHECK, OP
    wall = 0.0
    for op in workload.ops:
        probe = min(speed_probe(), speed_probe())
        if tracer is not None:
            tracer.phase = OP
        start = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.phase = CHECK
        problems = [error] if error else _check(op, out, reference)
        if tracer is not None:
            tracer.phase = None
        del out
        records.append((op.label, elapsed, op.slots, problems, probe))
        wall += elapsed
    return wall


def _measure(workload, seconds: float, reference, records: list) -> dict:
    passes, timed = 0, 0.0
    while True:
        timed += _run_pass(workload, None, reference, records)
        passes += 1
        if timed >= seconds:
            return {"passes": passes}


def _measure_traced(workload, seconds: float, reference,
                    records: list) -> dict:
    from tracing import EXACT_COUNTS, PER_LAYER, Tracer, summarize
    tracer = Tracer()
    traced, plain, layers, problems = [], [], [], []
    first_spans: list = []
    while not (traced and plain and len(traced) >= 2
               and sum(traced) + sum(plain) >= seconds):
        if len(traced) <= len(plain):
            tracer.reset()
            tracer.install()
            try:
                traced.append(_run_pass(workload, tracer, reference, records))
            finally:
                tracer.uninstall()
            layers.append(summarize(tracer))
            first_spans = first_spans or tracer.spans
        else:
            plain.append(_run_pass(workload, None, reference, records))
    for key in EXACT_COUNTS:
        values = [layer[key] for layer in layers]
        if len(set(values)) != 1:
            problems.append(f"{key} differs between traced passes: {values}")
    per_layer = {}
    for key, unit in PER_LAYER:
        if key == "trace.overhead_s":
            per_layer[key] = (statistics.median(traced)
                              - statistics.median(plain))
        elif unit == "count" and len({layer[key] for layer in layers}) == 1:
            per_layer[key] = int(layers[0][key])
        else:
            per_layer[key] = statistics.fmean(layer[key] for layer in layers)
    return {"passes": len(traced) + len(plain), "traced_walls": traced,
            "plain_walls": plain, "per_layer": per_layer,
            "missing": tracer.missing, "problems": problems,
            "spans": first_spans}


def _save_spans(spans: list, args) -> None:
    """Write the first traced pass's spans as [name, start, end, parent]."""
    out = HERE / "_work" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-spans.json"
    path.write_text(json.dumps(spans))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS,
                       (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import energycoop
    if not Path(energycoop.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"energycoop imported from {energycoop.__file__}, "
                         f"not from {src}")
    import numpy
    import scipy
    import workloads

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        record = {"setup_s": setup_s, "setup_probe_s": min(
            speed_probe() for _ in range(PROBE_BURST))}
        if not args.setup_only:
            reference = (workloads.load_reference(args.workload)
                         if args.seed == workloads.DEFAULT_SEED else None)
            records: list = []
            measure = _measure_traced if args.trace else _measure
            record.update(measure(workload, args.seconds, reference,
                                  records))
            if args.trace:
                _save_spans(record.pop("spans"), args)
            record.update(
                ops=[[label, elapsed, slots, not problems, probe]
                     for label, elapsed, slots, problems, probe in records],
                failures=[p for _, _, _, problems, _ in records
                          for p in problems],
                params=workload.params,
                reference_checked=reference is not None,
                peak_rss_mb=resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                versions={"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "energycoop": energycoop.__version__})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
