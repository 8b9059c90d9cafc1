"""CLI subcommands, flags and exit codes."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from energycoop import lp, sinusoid
from energycoop.cli import main
from energycoop.lp import SolverError
from energycoop.model import TRAJECTORY_HEADER
from helpers import save_profile


@pytest.fixture
def profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    save_profile(sinusoid(3.0, 2 * math.pi / 24, math.pi, 48), path)
    return path


def test_offline_roundtrip(profile_csv, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["offline", "--profile", str(profile_csv),
                 "--out", str(out)]) == 0
    assert "total_cost=" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    # header, one row per slot, then the terminal storage row
    assert [row[0] for row in rows] == ["t", *map(str, range(49))]


def test_greedy_debug_cases(profile_csv, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["greedy", "--profile", str(profile_csv), "--debug-cases",
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.endswith(",case")


def test_greedy_mode_flag(profile_csv, tmp_path):
    assert main(["greedy", "--profile", str(profile_csv),
                 "--mode", "no_transfer", "--beta", "0.0"]) == 0


@pytest.mark.parametrize("argv", [
    ["greedy", "--debug-cases"],
    ["hybrid", "--debug-components", "--seed", "3"],
], ids=["greedy", "hybrid"])
def test_debug_flag_without_out_exits_2(profile_csv, tmp_path, capsys, argv):
    # the flag only adds to files that --out names
    command, flag, *rest = argv
    where = "--profile" if command == "greedy" else "--det"
    with pytest.raises(SystemExit) as exc:
        main([command, where, str(profile_csv), flag, *rest])
    assert exc.value.code == 2
    assert f"{flag} requires --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [profile_csv]


def test_hybrid_with_noise(profile_csv, tmp_path):
    out = tmp_path / "hybrid.csv"
    assert main(["hybrid", "--det", str(profile_csv), "--seed", "3",
                 "--smax", "3.5", "--out", str(out),
                 "--debug-components"]) == 0

    def read(path):  # each row's action and state cells, and its case
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[:13] == list(TRAJECTORY_HEADER)
        return ([[float(v) if v else None for v in row[3:13]]
                 for row in rows], [row[13:] for row in rows])

    combined, combined_cases = read(out)
    offline, _ = read(out.with_suffix(".offline.csv"))
    greedy, greedy_cases = read(out.with_suffix(".greedy.csv"))
    assert len(combined) == len(offline) == len(greedy) == 49
    # combined = offline + greedy, cell by cell, exactly; the last row
    # holds only the terminal storage
    for c_row, o_row, g_row in zip(combined, offline, greedy):
        assert c_row == [None if o is None else o + g
                         for o, g in zip(o_row, g_row)]
    assert combined_cases == greedy_cases
    assert all(case for case, in combined_cases[:-1])  # a label per slot


def test_hybrid_with_realized_csv(profile_csv, tmp_path):
    realized = tmp_path / "realized.csv"
    save_profile(sinusoid(3.1, 2 * math.pi / 24, math.pi, 48), realized)
    assert main(["hybrid", "--det", str(profile_csv),
                 "--realized", str(realized), "--smax", "3.5"]) == 0


def test_hybrid_realized_length_mismatch_exits_2(profile_csv, tmp_path,
                                                 capsys):
    realized = tmp_path / "realized.csv"
    save_profile(sinusoid(3.1, 2 * math.pi / 24, math.pi, 47), realized)
    assert main(["hybrid", "--det", str(profile_csv),
                 "--realized", str(realized), "--smax", "3.5"]) == 2
    assert "realized profile has 47 slots" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--noise-scale", "0.2"]])
def test_noise_flags_rejected_with_realized(profile_csv, tmp_path, capsys,
                                            flag):
    out = tmp_path / "hybrid.csv"
    assert main(["hybrid", "--det", str(profile_csv),
                 "--realized", str(profile_csv), "--out", str(out)]
                + flag) == 2
    assert "give one or the other" in capsys.readouterr().err
    assert not out.exists()


def test_bad_noise_seed_exits_2(profile_csv, tmp_path, capsys):
    out = tmp_path / "hybrid.csv"
    assert main(["hybrid", "--det", str(profile_csv), "--seed", "-1",
                 "--out", str(out)]) == 2
    assert "error: seed=-1: want an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_subcommand(tmp_path):
    out = tmp_path / "exp.csv"
    assert main(["experiment", "saving-vs-theta", "--out", str(out),
                 "--thetas", "0.0,3.14159", "--n", "48", "--serial"]) == 0
    text = out.read_text()
    assert text.startswith("# experiment: saving-vs-theta\n")
    assert "saving_pct" in text


def test_study_after_other_systems_writes_fresh_process_bytes(tmp_path):
    # stage-1 matrices outlive a command: after studies of more systems
    # than the cache keeps, one of them this study's own at another s_max,
    # a study writes the bytes of the same command in a new interpreter
    argv = ["experiment", "hybrid-vs-greedy", "--n", "24", "--thetas",
            "0.0,1.5", "--smax-grid", "1.0,3.5", "--seeds", "0,1",
            "--serial", "--out"]
    other = str(tmp_path / "other.csv")
    for alpha, beta in ((0.5, 0.8), (0.9, 0.5), (0.7, 0.7), (0.6, 0.9),
                        (0.8, 0.6), (0.9, 0.8)):
        assert main(["experiment", "cost-vs-storage", "--n", "24",
                     "--thetas", "1.0", "--smax-grid", "0.5", "--alpha",
                     str(alpha), "--beta", str(beta), "--serial",
                     "--out", other]) == 0
    here, fresh = tmp_path / "here.csv", tmp_path / "fresh.csv"
    assert main(argv + [str(here)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    subprocess.run([sys.executable, "-m", "energycoop.cli", *argv,
                    str(fresh)], env=env, check=True, capture_output=True,
                   timeout=300)
    assert here.read_bytes() == fresh.read_bytes()


def test_experiment_smax_flag_sets_grid(tmp_path):
    out = tmp_path / "exp.csv"
    assert main(["experiment", "saving-vs-theta", "--out", str(out),
                 "--thetas", "0.0", "--smax", "2.0", "--n", "24",
                 "--serial"]) == 0
    assert "# s_max_grid: 2.0\n" in out.read_text()


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_non_finite_theta_exits_2(tmp_path, capsys, theta):
    out = tmp_path / "exp.csv"
    assert main(["experiment", "saving-vs-theta", "--out", str(out),
                 "--thetas", f"0.0,{theta}", "--n", "24", "--serial"]) == 2
    captured = capsys.readouterr()
    assert "theta must be finite" in captured.err
    assert "Warning" not in captured.err


def test_nan_theta_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # the spec builds every theta's profile, so the finite first theta
    # of a seeded study is not planned before the NaN one is rejected
    solves, solve = [], lp.LpSession.solve

    def counting_solve(self, problem):
        solves.append(problem)
        return solve(self, problem)

    monkeypatch.setattr(lp.LpSession, "solve", counting_solve)
    out = tmp_path / "exp.csv"
    assert main(["experiment", "hybrid-vs-greedy", "--n", "24",
                 "--thetas", "0,nan", "--seeds", "0,1,2", "--serial",
                 "--out", str(out)]) == 2
    assert "theta must be finite" in capsys.readouterr().err
    assert solves == [] and not out.exists()


def test_experiment_without_out_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "saving-vs-theta", "--n", "24"])
    assert exc.value.code == 2
    assert "experiment requires --out" in capsys.readouterr().err


def test_greedy_study_zero_efficiency_exits_2(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    assert main(["experiment", "hybrid-vs-greedy", "--alpha", "0",
                 "--n", "24", "--thetas", "0", "--seeds", "0",
                 "--out", str(out)]) == 2
    assert ("error: mode 'standard' needs alpha > 0, beta > 0 and "
            "alpha * beta > 0, got alpha = 0.0, beta = 0.8, "
            "alpha * beta = 0.0" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["greedy", "--profile", "{profile}"],
    ["hybrid", "--det", "{profile}"],
    ["experiment", "greedy-loss-vs-theta", "--n", "24", "--thetas", "0",
     "--serial", "--out", "{out}"]], ids=["greedy", "hybrid", "experiment"])
def test_underflowing_efficiency_product_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, argv):
    def no_solve(self, problem):
        raise AssertionError("LP solved before the mode check")

    monkeypatch.setattr(lp.LpSession, "solve", no_solve)
    profile, out = tmp_path / "p.csv", tmp_path / "out.csv"
    save_profile(sinusoid(3.0, 2 * math.pi / 24, math.pi / 2, 24), profile)
    argv = [a.format(profile=profile, out=out) for a in argv]
    assert main([*argv, "--alpha", "1e-170", "--beta", "1e-170"]) == 2
    assert ("error: mode 'standard' needs alpha > 0, beta > 0 and "
            "alpha * beta > 0, got alpha = 1e-170, beta = 1e-170, "
            "alpha * beta = 0.0" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("experiment, argv, err", [
    ("saving-vs-theta", ["--smax-grid", "1,-1"],
     "s_max must be >= 0, got -1.0"),
    ("cost-vs-storage", ["--smax-grid", "1,-1"],
     "s_max must be >= 0, got -1.0"),
    ("hybrid-vs-greedy", ["--seeds", "0,-1"],
     "seed=-1: want an integer >= 0")])
def test_bad_grid_point_or_seed_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, experiment, argv, err):
    def no_solve(self, problem):
        raise AssertionError("LP solved before the spec was checked")

    monkeypatch.setattr(lp.LpSession, "solve", no_solve)
    out = tmp_path / "exp.csv"
    assert main(["experiment", experiment, "--n", "24", "--thetas", "0",
                 "--serial", "--out", str(out), *argv]) == 2
    assert f"error: {err}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["offline", "--profile", "P", "--seed", "1"],
    ["greedy", "--profile", "P", "--n", "48"],
    # Prefixes of --noise-scale and --seeds: must not be taken as those.
    ["hybrid", "--det", "P", "--n", "48"],
    ["experiment", "saving-vs-theta", "--seed", "1"],
    ["experiment", "saving-vs-theta", "--workers", "2"]])
def test_flags_that_did_nothing_are_gone(profile_csv, tmp_path, argv):
    argv = [str(profile_csv) if a == "P" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("experiment", ["cost-vs-storage", "saving-vs-theta",
                                        "greedy-loss-vs-theta"])
def test_seeds_rejected_where_unused(tmp_path, capsys, experiment):
    out = tmp_path / "exp.csv"
    assert main(["experiment", experiment, "--seeds", "1", "--thetas", "0.0",
                 "--n", "24", "--serial", "--out", str(out)]) == 2
    assert "only hybrid-vs-greedy takes seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, metric", [
    ("saving-vs-theta", "saving_pct"),
    ("greedy-loss-vs-theta", "loss_pct"),
    ("hybrid-vs-greedy", "greedy_loss_mean_pct")])
def test_zero_cost_baseline_exits_2(tmp_path, capsys, experiment, metric):
    # twelve surplus slots: nothing is ever drawn, so no percentage exists
    out = tmp_path / "exp.csv"
    assert main(["experiment", experiment, "--n", "12", "--thetas", "0.0",
                 "--serial", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"{experiment}: {metric} is undefined at theta=0.0, s_max="
            in err)
    assert "base cost is 0" in err
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [
    ("abc", "'abc'"), ("0", "0"), ("-2", "'-2'"), ("1.5", "'1.5'")],
    ids=["abc", "0", "-2", "1.5"])
def test_bad_workers_variable_exits_2(tmp_path, capsys, monkeypatch, value,
                                      shown):
    # a whole number is shown as the integer it is, anything else as the
    # string the variable held
    monkeypatch.setenv("ENERGYCOOP_WORKERS", value)
    out = tmp_path / "exp.csv"
    assert main(["experiment", "saving-vs-theta", "--thetas", "0.0",
                 "--n", "24", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: ENERGYCOOP_WORKERS={shown}: want an integer >= 1" in err
    assert not out.exists()


def test_valid_workers_variable_runs(tmp_path, monkeypatch):
    out = tmp_path / "exp.csv"
    monkeypatch.setenv("ENERGYCOOP_WORKERS", "1")
    assert main(["experiment", "saving-vs-theta", "--thetas", "0.0",
                 "--n", "24", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("argv, err", [
    (["--thetas", ""], "--thetas ''"),
    (["--thetas", "0.0,"], "--thetas '0.0,'"),
    (["--smax-grid", ""], "--smax-grid ''"),
    (["--smax-grid", "", "--smax", "2.0"], "--smax or --smax-grid"),
    (["--seeds", ""], "--seeds ''"),
    (["--seeds", "1.5"], "--seeds '1.5'")])
def test_empty_or_malformed_grid_exits_2(tmp_path, capsys, argv, err):
    # an empty grid used to fall back to the study's defaults
    out = tmp_path / "exp.csv"
    if "--thetas" not in argv:
        argv = argv + ["--thetas", "0.0"]
    assert main(["experiment", "hybrid-vs-greedy", "--n", "24", "--serial",
                 "--out", str(out), *argv]) == 2
    assert err in capsys.readouterr().err
    assert not out.exists()


def test_smax_with_smax_grid_rejected(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    assert main(["experiment", "saving-vs-theta", "--smax", "2.0",
                 "--smax-grid", "0.5,1.0", "--thetas", "0.0", "--n", "24",
                 "--serial", "--out", str(out)]) == 2
    assert "--smax or --smax-grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "-0.5"])
def test_bad_noise_scale_named(profile_csv, capsys, scale):
    assert main(["hybrid", "--det", str(profile_csv),
                 "--noise-scale", scale]) == 2
    assert "scale must be finite" in capsys.readouterr().err


def test_validation_exit_codes(profile_csv, tmp_path, capsys):
    # bad parameter value
    assert main(["offline", "--profile", str(profile_csv),
                 "--alpha", "1.5"]) == 2
    # missing profile file
    assert main(["offline", "--profile", str(tmp_path / "nope.csv")]) == 2
    # malformed profile
    bad = tmp_path / "bad.csv"
    bad.write_text("t,E1,E2\n0,x,1\n")
    assert main(["offline", "--profile", str(bad)]) == 2
    # mode/parameter mismatch
    assert main(["greedy", "--profile", str(profile_csv),
                 "--alpha", "0.0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_non_finite_profile_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"t,E1,E2\n0,-1.0,1.0\n1,{text},1.0\n")
    assert main(["greedy", "--profile", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "non-finite" in err


def test_solver_error_exit_code(profile_csv, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr("energycoop.cli.plan_offline", boom)
    assert main(["offline", "--profile", str(profile_csv)]) == 3
    assert "solver error" in capsys.readouterr().err


def test_stage2_infeasible_exits_3(profile_csv, monkeypatch, capsys):
    # a negative budget slack makes stage 2 reject the stage-1 optimum
    monkeypatch.setattr("energycoop.offline.eps_lex", lambda v1: -1.0)
    assert main(["offline", "--profile", str(profile_csv)]) == 3
    assert "stage 2 infeasible under budget" in capsys.readouterr().err
