"""Command-line front end.

Subcommands: ``offline``, ``greedy``, ``hybrid`` run one planner over
profile CSVs; ``experiment`` regenerates a whole study.  Exit codes:
0 success, 2 validation/input error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .experiments import (EXPERIMENT_IDS, NOISE_SCALE, default_spec,
                          run_experiment, write_result)
from .greedy import MODES, run_greedy
from .hybrid import run_hybrid_stream
from .lp import SolverError
from .model import (ModelError, SystemParams, check_slots, save_trajectory,
                    total_cost)
from .offline import plan_offline
from .profiles import ParseError, add_gaussian_noise, load_profile

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.9,
                        help="storage efficiency in [0, 1]")
    parser.add_argument("--beta", type=float, default=0.8,
                        help="transfer efficiency in [0, 1]")
    parser.add_argument("--smax", type=float, default=None,
                        help="per-BS storage capacity (default 1.0); for "
                             "experiment: a one-point --smax-grid")
    parser.add_argument("--out", type=Path, default=None,
                        help="output CSV path (default: stdout summary only)")


def _params(args, n_slots: int) -> SystemParams:
    s_max = args.smax if args.smax is not None else 1.0
    return SystemParams(args.alpha, args.beta, s_max, n_slots)


def _emit(traj, profile, args, with_cases: bool = False) -> None:
    print(f"slots={traj.n_slots} total_cost={total_cost(traj):.9g}")
    if args.out is not None:
        save_trajectory(traj, profile, args.out, with_cases=with_cases)
        print(f"wrote {args.out}")


def _cmd_offline(args) -> int:
    profile = load_profile(args.profile)
    traj = plan_offline(_params(args, profile.n_slots), profile)
    _emit(traj, profile, args)
    return EXIT_OK


def _cmd_greedy(args) -> int:
    profile = load_profile(args.profile)
    traj = run_greedy(_params(args, profile.n_slots), profile,
                      mode=args.mode)
    _emit(traj, profile, args, with_cases=args.debug_cases)
    return EXIT_OK


def _cmd_hybrid(args) -> int:
    deterministic = load_profile(args.det)
    if args.realized is not None:
        if args.noise_scale is not None or args.seed is not None:
            raise ValueError("--noise-scale and --seed make the noise that "
                             "--realized replaces; give one or the other")
        realized = load_profile(args.realized)
        check_slots("realized profile", realized.n_slots,
                    deterministic.n_slots)
    else:
        realized = add_gaussian_noise(
            deterministic,
            NOISE_SCALE if args.noise_scale is None else args.noise_scale,
            0 if args.seed is None else args.seed)
    params = _params(args, deterministic.n_slots)
    result = run_hybrid_stream(params, deterministic,
                               zip(realized.e1, realized.e2))
    _emit(result.combined, realized, args, with_cases=args.debug_components)
    if args.debug_components:
        off_path = args.out.with_suffix(".offline.csv")
        gre_path = args.out.with_suffix(".greedy.csv")
        save_trajectory(result.offline, deterministic, off_path)
        save_trajectory(result.greedy, result.greedy_profile, gre_path,
                        with_cases=True)
        print(f"wrote {off_path} and {gre_path}")
    return EXIT_OK


def _grid(flag: str, text: str, kind=float) -> tuple:
    try:  # an empty or malformed grid is an error naming its flag
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} {text!r}: want a list like 1,2") from None


def _cmd_experiment(args) -> int:
    overrides: dict = {"alpha": args.alpha, "beta": args.beta}
    if args.thetas is not None:
        overrides["thetas"] = _grid("--thetas", args.thetas)
    if args.smax_grid is not None:
        if args.smax is not None:
            raise ValueError("give --smax or --smax-grid, not both")
        overrides["s_max_grid"] = _grid("--smax-grid", args.smax_grid)
    elif args.smax is not None:
        overrides["s_max_grid"] = (args.smax,)
    if args.seeds is not None:
        overrides["seeds"] = _grid("--seeds", args.seeds, int)
    if args.n is not None:
        overrides["n_slots"] = args.n
    spec = default_spec(args.id, **overrides)
    result = run_experiment(spec, workers=1 if args.serial else None)
    write_result(result, args.out)
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and kept,
    so later calls do not pay about 1 ms each to build it again; parsing
    leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="energycoop", allow_abbrev=False,
        description="Energy cooperation planners for two base stations")
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p_off = command("offline", help="full-knowledge two-stage plan")
    p_off.add_argument("--profile", type=Path, required=True,
                       help="net-energy profile CSV")
    _add_common(p_off)
    p_off.set_defaults(fn=_cmd_offline)

    p_gre = command("greedy", help="online greedy rollout")
    p_gre.add_argument("--profile", type=Path, required=True)
    p_gre.add_argument("--mode", choices=MODES, default="standard",
                       help="decision rule; standard and force_case_2a "
                            "need alpha > 0, beta > 0 and alpha * beta > 0")
    p_gre.add_argument("--debug-cases", action="store_true",
                       help="append the per-slot decision case column")
    _add_common(p_gre)
    p_gre.set_defaults(fn=_cmd_greedy)

    p_hyb = command("hybrid", help="offline plan plus greedy residual")
    p_hyb.add_argument("--det", type=Path, required=True,
                       help="deterministic component CSV")
    p_hyb.add_argument("--realized", type=Path, default=None,
                       help="realized profile CSV (default: add noise)")
    p_hyb.add_argument("--noise-scale", type=float, default=None,
                       help="noise standard deviation when --realized is "
                            f"not given (default {NOISE_SCALE})")
    p_hyb.add_argument("--seed", type=int, default=None,
                       help="noise seed when --realized is not given "
                            "(default 0)")
    p_hyb.add_argument("--debug-components", action="store_true",
                       help="also write the offline and greedy components")
    _add_common(p_hyb)
    p_hyb.set_defaults(fn=_cmd_hybrid)

    p_exp = command("experiment", help="regenerate a study CSV")
    p_exp.add_argument("id", choices=EXPERIMENT_IDS)
    p_exp.add_argument("--thetas", default=None,
                       help="comma-separated theta grid (radians)")
    p_exp.add_argument("--smax-grid", default=None,
                       help="comma-separated storage grid")
    p_exp.add_argument("--seeds", default=None,
                       help="comma-separated noise seeds")
    p_exp.add_argument("--n", type=int, default=None,
                       help="horizon length (default: the study's)")
    p_exp.add_argument("--serial", action="store_true",
                       help="single-threaded debug mode")
    _add_common(p_exp)
    p_exp.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its exit
    code.  Calls in one process share the parser and the stage-1 matrices
    of the last systems planned (``offline._matrices``), so a second study
    pays only for its own solves; its CSV bytes are those of a fresh
    process."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and args.out is None:
        parser.error("experiment requires --out")
    for flag in ("debug_cases", "debug_components"):  # they only add files
        if getattr(args, flag, False) and args.out is None:
            parser.error(f"--{flag.replace('_', '-')} requires --out")
    try:
        return args.fn(args)
    except (ValueError, ModelError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
