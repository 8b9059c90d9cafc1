"""Acceptance suite: one test per release criterion, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Every trajectory produced along the way is collected and
re-checked for feasibility by the final criterion.
"""

import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from energycoop import (
    NetEnergyProfile,
    SystemParams,
    check_feasible,
    greedy_step_with_case,
    lp_solve,
    plan_offline,
    run_greedy,
    run_hybrid_stream,
    sinusoid,
    total_cost,
)
from energycoop.experiments import (NOISE_SCALE, OMEGA, default_spec,
                                    run_experiment)
from energycoop.lp import LpInfeasible
from energycoop.offline import build_stage1
from energycoop.profiles import add_gaussian_noise

from helpers import make_problem, rand_params, rand_profile, rand_state
from oracles import enumerate_lp_optimum, greedy_step_lp

THETA_GRID = tuple(k * math.pi / 8 for k in range(17))

# trajectories produced by the criteria runs, re-verified at the end:
# (params, profile, trajectory, went_through_normalize_actions)
_PRODUCED = []


def register(params, profile, traj, normalized=True):
    _PRODUCED.append((params, profile, traj, normalized))


def report(number, ok, detail, elapsed):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: "
          f"{detail} ({elapsed:.1f}s)")


def test_c01_one_step_controller_matches_lp_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst_cost = worst_sum = worst_v1 = 0.0
    for _ in range(1000):
        p = rand_params(rng, 1)
        state = rand_state(rng, p.s_max)
        e1, e2 = rng.uniform(-3.0, 3.0, 2)
        act_g, st_g = greedy_step_with_case(p, state, e1, e2)[:2]
        act_l, st_l = greedy_step_lp(p, state, e1, e2)
        worst_cost = max(worst_cost, abs(
            (act_g.w1 + act_g.w2) - (act_l.w1 + act_l.w2)))
        worst_sum = max(worst_sum, abs(
            (st_g.s1 + st_g.s2) - (st_l.s1 + st_l.s2)))
        for act in (act_g, act_l):
            assert act.c1 * act.d1 <= 1e-9 and act.c2 * act.d2 <= 1e-9
            assert act.x12 * act.x21 <= 1e-9
        one_slot = replace(p, s_init=(state.s1, state.s2))
        v1 = lp_solve(build_stage1(
            one_slot, NetEnergyProfile(e1=(e1,), e2=(e2,)))).objective_value
        worst_v1 = max(worst_v1, abs((act_l.w1 + act_l.w2) - v1))
    elapsed = time.time() - t0
    ok = worst_cost <= 1e-7 and worst_sum <= 1e-7 and elapsed < 60
    report(1, ok, "one-step controller vs LP oracle, 1000 instances: "
           f"|dcost|={worst_cost:.2e} |dstorage|={worst_sum:.2e} "
           f"|dstage1|={worst_v1:.2e}", elapsed)
    assert worst_cost <= 1e-7
    assert worst_sum <= 1e-7
    assert worst_v1 <= 1e-7
    assert elapsed < 60


def test_c02_offline_never_worse_than_greedy():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst = -math.inf
    for _ in range(500):
        n = int(rng.integers(1, 21))
        p = rand_params(rng, n)
        prof = rand_profile(rng, n)
        off = plan_offline(p, prof)
        gre = run_greedy(p, prof)
        register(p, prof, off)
        register(p, prof, gre)
        worst = max(worst, total_cost(off) - total_cost(gre))
    elapsed = time.time() - t0
    ok = worst <= 1e-6
    report(2, ok, "offline dominance on 500 instances: "
           f"max(cost_off - cost_greedy)={worst:.2e}", elapsed)
    assert worst <= 1e-6


def test_c03_boundary_line_efficiencies_greedy_optimal():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for beta, mode in ((0.0, "no_transfer"), (1.0, "standard")):
        for _ in range(200):
            n = int(rng.integers(1, 13))
            p = rand_params(rng, n, beta=beta)
            prof = rand_profile(rng, n)
            off = plan_offline(p, prof)
            gre = run_greedy(p, prof, mode=mode)
            register(p, prof, off)
            register(p, prof, gre)
            worst = max(worst, abs(total_cost(gre) - total_cost(off)))
    elapsed = time.time() - t0
    ok = worst <= 1e-6
    report(3, ok, "greedy optimal at line efficiency 0 and 1, 200 each: "
           f"max|gap|={worst:.2e}", elapsed)
    assert worst <= 1e-6


def test_c04_always_surplus_station_greedy_optimal():
    # station 1 never in deficit and the line beats storage round trips
    t0 = time.time()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        alpha = rng.uniform(0.05, 0.95)
        beta = rng.uniform(alpha + 1e-6, 1.0)
        p = rand_params(rng, n, alpha=alpha, beta=beta)
        prof = rand_profile(rng, n, e1_range=(0.0, 3.0))
        off = plan_offline(p, prof)
        gre = run_greedy(p, prof)
        register(p, prof, off)
        register(p, prof, gre)
        worst = max(worst, abs(total_cost(gre) - total_cost(off)))
    elapsed = time.time() - t0
    ok = worst <= 1e-6
    report(4, ok, "greedy optimal when one station always has surplus "
           f"and the line is cheap: max|gap|={worst:.2e}", elapsed)
    assert worst <= 1e-6


def test_c05_transfer_first_mode_optimal_for_opposed_signs():
    t0 = time.time()
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        p = rand_params(rng, n)
        prof = rand_profile(rng, n, e1_range=(0.0, 3.0),
                            e2_range=(-3.0, 0.0))
        off = plan_offline(p, prof)
        gre = run_greedy(p, prof, mode="force_case_2a")
        register(p, prof, off)
        register(p, prof, gre)
        worst = max(worst, abs(total_cost(gre) - total_cost(off)))
    elapsed = time.time() - t0
    ok = worst <= 1e-6
    report(5, ok, "transfer-first mode optimal for opposed-sign profiles: "
           f"max|gap|={worst:.2e}", elapsed)
    assert worst <= 1e-6


def _jstar(params, profile):
    traj = plan_offline(params, profile)
    register(params, profile, traj)
    return total_cost(traj)


def test_c06_cost_to_go_inequalities():
    t0 = time.time()
    rng = np.random.default_rng(1006)
    tol = 1e-6
    worst = {}

    def run(name, instance):
        gap = -math.inf
        for _ in range(100):
            gap = max(gap, instance())
        worst[name] = gap
        assert gap <= tol, f"{name}: violated by {gap:.2e}"

    def base(e1_range=(-3.0, 3.0)):
        n = int(rng.integers(1, 5))
        p = rand_params(rng, n, s_max=rng.uniform(0.5, 2.0))
        prof = rand_profile(rng, n, e1_range=e1_range)
        s1, s2 = rng.uniform(0.0, p.s_max, 2)
        return p, prof, s1, s2

    def monotone_in_storage():
        p, prof, s1, s2 = base()
        up1 = rng.uniform(0.0, p.s_max - s1)
        up2 = rng.uniform(0.0, p.s_max - s2)
        low = _jstar(replace(p, s_init=(s1, s2)), prof)
        high = _jstar(replace(p, s_init=(s1 + up1, s2 + up2)), prof)
        return low - (high + p.alpha * (up1 + up2))

    def grid_charging_never_pays():
        p, prof, s1, s2 = base()
        d1 = rng.uniform(0.0, (p.s_max - s1) / p.alpha)
        d2 = rng.uniform(0.0, (p.s_max - s2) / p.alpha)
        charged = _jstar(replace(p, s_init=(s1 + p.alpha * d1,
                                            s2 + p.alpha * d2)), prof)
        plain = _jstar(replace(p, s_init=(s1, s2)), prof)
        return plain - (charged + d1 + d2)

    def surplus_station_storage_value_bound():
        p, prof, s1, s2 = base(e1_range=(0.0, 3.0))
        delta = rng.uniform(0.0, p.s_max - s1)
        low = _jstar(replace(p, s_init=(s1, s2)), prof)
        high = _jstar(replace(p, s_init=(s1 + delta, s2)), prof)
        return low - (high + p.alpha * p.beta * delta)

    def store_locally_beats_remote_charge():
        p, prof, s1, s2 = base()
        cap = min((p.s_max - s1) / p.alpha,
                  (p.s_max - s2) / (p.alpha * p.beta))
        delta = rng.uniform(0.0, cap)
        local = _jstar(replace(p, s_init=(s1 + p.alpha * delta, s2)), prof)
        remote = _jstar(
            replace(p, s_init=(s1, s2 + p.alpha * p.beta * delta)), prof)
        return local - remote

    def discharge_locally_beats_remote():
        p, prof, s1, s2 = base()
        cap = min(p.alpha * s1, p.alpha * p.beta * s2)
        delta = rng.uniform(0.0, cap)
        local = _jstar(replace(p, s_init=(s1 - delta / p.alpha, s2)), prof)
        remote = _jstar(
            replace(p, s_init=(s1, s2 - delta / (p.alpha * p.beta))), prof)
        return local - remote

    def transfer_first_never_hurts():
        n = int(rng.integers(1, 5))
        alpha = rng.uniform(0.05, 0.95)
        beta = rng.uniform(alpha + 1e-6, 1.0)
        p = rand_params(rng, n, alpha=alpha, beta=beta,
                        s_max=rng.uniform(0.5, 2.0))
        prof = rand_profile(rng, n)
        e1 = list(prof.e1)
        e2 = list(prof.e2)
        e1[0] = rng.uniform(0.1, 3.0)
        e2[0] = -rng.uniform(0.1, 3.0)
        original = NetEnergyProfile(e1=tuple(e1), e2=tuple(e2))
        shift = min(-e2[0] / beta, e1[0])
        e1[0] -= shift
        e2[0] += beta * shift
        transferred = NetEnergyProfile(e1=tuple(e1), e2=tuple(e2))
        return _jstar(p, transferred) - _jstar(p, original)

    run("monotone_in_storage", monotone_in_storage)
    run("grid_charging_never_pays", grid_charging_never_pays)
    run("surplus_station_storage_value_bound",
        surplus_station_storage_value_bound)
    run("store_locally_beats_remote_charge",
        store_locally_beats_remote_charge)
    run("discharge_locally_beats_remote", discharge_locally_beats_remote)
    run("transfer_first_never_hurts", transfer_first_never_hurts)

    elapsed = time.time() - t0
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(6, elapsed < 300, f"cost-to-go inequalities, 100 each: {detail}",
           elapsed)
    assert elapsed < 300


def test_c07_saving_curve_peaks_at_anti_correlation():
    t0 = time.time()
    spec = default_spec("saving-vs-theta")
    result = run_experiment(spec, workers=2)
    savings = {r.theta: r.value for r in result.rows
               if r.metric == "saving_pct"}
    best_theta = max(savings, key=savings.get)
    min_saving = min(savings.values())
    elapsed = time.time() - t0
    ok = (best_theta == pytest.approx(math.pi) and min_saving >= -1e-6
          and elapsed < 120)
    report(7, ok, "saving peaks at the anti-correlated shift: "
           f"argmax={best_theta / math.pi:.3f}pi "
           f"min={min_saving:.2e}%", elapsed)
    assert best_theta == pytest.approx(math.pi)
    assert min_saving >= -1e-6
    assert elapsed < 120


def test_c08_greedy_loss_bounded():
    t0 = time.time()
    spec = default_spec("greedy-loss-vs-theta")
    result = run_experiment(spec, workers=2)
    losses = {r.theta: r.value for r in result.rows if r.metric == "loss_pct"}
    max_loss = max(losses.values())
    at_pi = losses[THETA_GRID[8]]
    median = statistics.median(losses.values())
    # keep a few of the underlying rollouts for the feasibility criterion
    for k in (0, 4, 8):
        p = SystemParams(spec.alpha, spec.beta, spec.s_max_grid[0],
                         spec.n_slots)
        prof = sinusoid(spec.amplitude, OMEGA, THETA_GRID[k],
                        spec.n_slots)
        register(p, prof, run_greedy(p, prof))
        register(p, prof, plan_offline(p, prof))
    elapsed = time.time() - t0
    ok = (max_loss <= 3.0 and at_pi <= median
          and min(losses.values()) >= -1e-6 and elapsed < 180)
    report(8, ok, f"greedy loss bounded: max={max_loss:.3f}% "
           f"at_pi={at_pi:.3f}% median={median:.3f}%", elapsed)
    assert max_loss <= 3.0
    assert at_pi <= median
    assert min(losses.values()) >= -1e-6
    assert elapsed < 180


def test_c09_hybrid_beats_greedy_at_moderate_shift():
    t0 = time.time()
    spec = default_spec("hybrid-vs-greedy",
                        thetas=(0.0, math.pi / 2, math.pi))
    result = run_experiment(spec, workers=2)
    greedy = {r.theta: r.value for r in result.rows
              if r.metric == "greedy_loss_mean_pct"}
    hybrid = {r.theta: r.value for r in result.rows
              if r.metric == "hybrid_loss_mean_pct"}
    # keep a few hybrid trajectories for the feasibility criterion
    p = SystemParams(spec.alpha, spec.beta, spec.s_max_grid[0], spec.n_slots)
    for theta in spec.thetas:
        det = sinusoid(spec.amplitude, OMEGA, theta, spec.n_slots)
        offline_det = plan_offline(p, det)
        for seed in spec.seeds[:3]:
            realized = add_gaussian_noise(det, NOISE_SCALE, seed)
            res = run_hybrid_stream(p, det, zip(realized.e1, realized.e2),
                                    offline_traj=offline_det)
            register(p, realized, res.combined, normalized=False)
    elapsed = time.time() - t0
    half_pi = math.pi / 2
    ok = (hybrid[half_pi] < greedy[half_pi] and greedy[0.0] <= hybrid[0.0]
          and greedy[math.pi] <= hybrid[math.pi] and elapsed < 600)
    report(9, ok, "hybrid vs greedy mean loss over 20 seeds: "
           f"at pi/2 {hybrid[half_pi]:.3f}% < {greedy[half_pi]:.3f}%, "
           f"at 0 {greedy[0.0]:.3f}% <= {hybrid[0.0]:.3f}%, "
           f"at pi {greedy[math.pi]:.3f}% <= {hybrid[math.pi]:.3f}%",
           elapsed)
    assert hybrid[half_pi] < greedy[half_pi]
    assert greedy[0.0] <= hybrid[0.0]
    assert greedy[math.pi] <= hybrid[math.pi]
    assert elapsed < 600


def test_c10_all_trajectories_feasible():
    t0 = time.time()
    assert _PRODUCED, "earlier criteria must register their trajectories"
    worst_product = 0.0
    for params, profile, traj, normalized in _PRODUCED:
        rep = check_feasible(params, profile, traj)
        assert rep.ok, (
            f"infeasible trajectory: {rep.violations[:3]}")
        if normalized:
            for act in traj.actions:
                worst_product = max(worst_product, act.c1 * act.d1,
                                    act.c2 * act.d2, act.x12 * act.x21)
    elapsed = time.time() - t0
    ok = worst_product <= 1e-9
    report(10, ok, f"{len(_PRODUCED)} trajectories feasible at 1e-6; "
           f"max complementarity product {worst_product:.2e}", elapsed)
    assert worst_product <= 1e-9


def test_extra_cost_vs_storage_orderings():
    # stands in for absolute-value reproduction of the cost-vs-storage
    # study: phase-shift monotonicity, single-station dominance, and the
    # near-flatness of the anti-correlated curve in storage size
    t0 = time.time()
    spec = default_spec("cost-vs-storage")
    result = run_experiment(spec, workers=2)
    baselines = {}
    for s_max in spec.s_max_grid:
        per_theta = [result.value("cost_per_bs", theta=th, s_max=s_max)
                     for th in spec.thetas]
        single = result.value("single_bs_cost", s_max=s_max)
        baselines[s_max] = single
        # cost decreases as the shift grows toward pi
        assert all(a >= b - 1e-9 for a, b in zip(per_theta, per_theta[1:]))
        assert per_theta[-1] == min(per_theta)
        # cooperation never loses to the isolated station
        assert all(v <= single + 1e-9 for v in per_theta)
    anti_small = result.value("cost_per_bs", theta=math.pi, s_max=0.25)
    anti_large = result.value("cost_per_bs", theta=math.pi, s_max=4.0)
    flatness = anti_small - anti_large
    floor = min(baselines.values())
    elapsed = time.time() - t0
    ok = flatness <= 0.05 * floor
    report("extra (cost-vs-storage)", ok,
           f"anti-correlated curve flat in storage: "
           f"drop={flatness:.3f} <= 5% of baseline {floor:.1f}", elapsed)
    assert flatness <= 0.05 * floor


def test_c11_lp_engine_matches_vertex_enumeration():
    t0 = time.time()
    rng = np.random.default_rng(1011)
    worst = 0.0
    statuses = {"Optimal": 0, "Infeasible": 0}
    for _ in range(200):
        n = int(rng.integers(2, 7))
        lo = rng.uniform(-2.0, 0.0, n)
        hi = rng.uniform(0.5, 3.0, n)
        c = rng.normal(size=n)
        eq = [(rng.normal(size=n), rng.normal())
              for _ in range(int(rng.integers(0, min(2, n))))]
        ub = [(rng.normal(size=n), rng.normal())
              for _ in range(int(rng.integers(0, 4)))]
        bounds = list(zip(lo, hi))
        prob = make_problem(c, eq, ub, bounds)
        status, value = enumerate_lp_optimum(c, eq, ub, bounds)
        statuses[status] += 1
        if status == "Infeasible":
            with pytest.raises(LpInfeasible):
                lp_solve(prob)
        else:
            worst = max(worst, abs(lp_solve(prob).objective_value - value))
    elapsed = time.time() - t0
    ok = worst <= 1e-7
    report(11, ok, "vertex-enumeration agreement on 200 programs "
           f"({statuses['Optimal']} optimal, {statuses['Infeasible']} "
           f"infeasible): max|dobj|={worst:.2e}", elapsed)
    assert worst <= 1e-7
