"""Offline planning: stage LPs, two-stage composition, single-BS baseline."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from energycoop import (
    ControlAction,
    LengthMismatch,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    check_feasible,
    lp_solve,
    run_greedy,
    run_hybrid_stream,
    add_gaussian_noise,
    save_trajectory,
    sinusoid,
    total_cost,
)
from energycoop.experiments import DEFAULT_SEEDS, NOISE_SCALE, default_spec
from energycoop.lp import FEAS_TOL, LpInfeasible
from energycoop.offline import (
    Stage2Infeasible,
    _extract_trajectory,
    build_single_bs,
    build_stage1,
    build_stage2,
    eps_lex,
    offline_cost,
    offline_costs,
    plan_offline,
    plan_single_bs,
    single_bs_cost,
)

from helpers import rand_params, rand_profile
from oracles import (
    dp_pair_cost,
    dp_single_cost,
    normalize_action_ref,
    reference_planning_program,
)


class TestStage1:
    def test_all_zero(self):
        p = SystemParams(0.9, 0.8, 1.0, 1)
        sol = lp_solve(build_stage1(p, NetEnergyProfile(e1=(0.0,), e2=(0.0,))))
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)
        assert max(abs(v) for v in sol.x) <= 1e-9

    def test_pure_deficit(self):
        p = SystemParams(0.9, 0.8, 1.0, 1)
        sol = lp_solve(build_stage1(
            p, NetEnergyProfile(e1=(-1.0,), e2=(-1.0,))))
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)

    def test_matches_grid_dp_oracle(self):
        # frozen oracle value: dp_pair_cost(...step=0.01) == 0.5240
        p = SystemParams(0.9, 0.8, 1.0, 2)
        prof = NetEnergyProfile(e1=(2.0, -1.0), e2=(0.0, -1.0))
        lp_cost = offline_cost(p, prof)
        dp_cost = dp_pair_cost(0.9, 0.8, 1.0, prof.e1, prof.e2, step=0.01)
        assert dp_cost == pytest.approx(0.524, abs=1e-9)
        assert lp_cost == pytest.approx(dp_cost, abs=0.02)

    def test_random_instances_bracket_dp_oracle(self):
        # the grid DP plans over a restricted feasible set, so it can never
        # beat the LP and exceeds it by at most the discretization error
        rng = np.random.default_rng(31337)
        for _ in range(12):
            n = int(rng.integers(2, 4))
            alpha = rng.uniform(0.5, 1.0)
            beta = rng.uniform(0.3, 1.0)
            e1 = rng.uniform(-2, 2, n)
            e2 = rng.uniform(-2, 2, n)
            p = SystemParams(alpha, beta, 1.0, n)
            prof = NetEnergyProfile(e1=tuple(e1), e2=tuple(e2))
            lp_cost = offline_cost(p, prof)
            dp_cost = dp_pair_cost(alpha, beta, 1.0, e1, e2, step=0.05)
            assert lp_cost <= dp_cost + 1e-9
            assert dp_cost - lp_cost <= 0.05

    def test_sparse_at_year_scale(self):
        # 22 non-zeros per slot (4 + 4 dynamics, 5 + 5 neutralization,
        # 2 + 2 discharge caps) plus the two initial-state rows
        omega = 2 * math.pi / 24
        n = 8760
        prob = build_stage1(SystemParams(0.9, 0.8, 1.0, n),
                            sinusoid(3.0, omega, math.pi / 2, n))
        assert prob.a_eq.nnz + prob.a_ub.nnz == 22 * n + 2
        # a 24-slot periodic profile: ten 240-slot horizons cost ten times
        # one, and the long program is solved and certified in one piece
        day = offline_cost(SystemParams(0.9, 0.8, 1.0, 240),
                           sinusoid(3.0, omega, math.pi / 2, 240))
        cost = offline_cost(SystemParams(0.9, 0.8, 1.0, 2400),
                            sinusoid(3.0, omega, math.pi / 2, 2400))
        assert cost == pytest.approx(10 * day, rel=1e-9)


class TestStage2:
    def test_all_zero_profile(self):
        p = SystemParams(0.9, 0.8, 1.0, 2)
        prof = NetEnergyProfile(e1=(0.0, 0.0), e2=(0.0, 0.0))
        traj = plan_offline(p, prof)
        assert total_cost(traj) <= 1e-6
        final = traj.states[-1]
        assert final.s1 + final.s2 <= 1e-6

    def test_terminal_storage_maximized(self):
        # one surplus slot: fill s1, ship the leftover into s2
        p = SystemParams(0.9, 0.8, 1.0, 1)
        prof = NetEnergyProfile(e1=(2.0,), e2=(0.0,))
        traj = plan_offline(p, prof)
        assert total_cost(traj) <= 1e-6
        final = traj.states[-1]
        assert final.s1 == pytest.approx(1.0, abs=1e-6)
        assert final.s2 == pytest.approx(0.9 * 0.8 * (2.0 - 1.0 / 0.9),
                                         abs=1e-6)

    def test_budget_respected_random(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            p = rand_params(rng, n)
            prof = rand_profile(rng, n)
            stage1 = build_stage1(p, prof)
            v1 = lp_solve(stage1).objective_value
            x = lp_solve(build_stage2(stage1, v1)).x
            cost2 = sum(x[8 * t + k] for t in range(n) for k in (0, 1))
            assert cost2 <= v1 + eps_lex(v1) + 1e-9

    def test_edits_stage1_without_rebuilding(self):
        stage1 = build_stage1(SystemParams(0.9, 0.8, 1.0, 24),
                              sinusoid(3.0, 2 * math.pi / 24, 1.0, 24))
        stage2 = build_stage2(stage1, 5.0)
        for name in ("a_eq", "b_eq", "lower", "upper"):
            assert getattr(stage2, name) is getattr(stage1, name), name
        assert stage2.a_ub.shape[0] == stage1.a_ub.shape[0] + 1
        assert stage2.b_ub[-1] == 5.0 + eps_lex(5.0)


class TestPlanOffline:
    def test_surplus_profile_free(self):
        rng = np.random.default_rng(61)
        p = rand_params(rng, 6)
        prof = rand_profile(rng, 6, e1_range=(0.0, 3.0), e2_range=(0.0, 3.0))
        traj = plan_offline(p, prof)
        assert total_cost(traj) <= 1e-6

    def test_feasible_and_within_budget(self):
        rng = np.random.default_rng(62)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            p = rand_params(rng, n)
            prof = rand_profile(rng, n)
            v1 = offline_cost(p, prof)
            traj = plan_offline(p, prof)
            assert check_feasible(p, prof, traj).ok
            assert total_cost(traj) <= v1 + eps_lex(v1) + 1e-9
            for act in traj.actions:
                assert act.c1 * act.d1 <= 1e-9
                assert act.c2 * act.d2 <= 1e-9
                assert act.x12 * act.x21 <= 1e-9

    def test_nonzero_s_init(self):
        # stored energy covers the deficit instead of the grid
        p = SystemParams(1.0, 0.8, 2.0, 1, (1.0, 0.0))
        prof = NetEnergyProfile(e1=(-1.0,), e2=(0.0,))
        assert offline_cost(p, prof) == pytest.approx(0.0, abs=1e-9)

    def test_cost_nonincreasing_in_storage(self):
        prof = sinusoid(3.0, 2 * math.pi / 24, math.pi / 2, 240)
        small = offline_cost(SystemParams(0.9, 0.8, 0.5, 240), prof)
        large = offline_cost(SystemParams(0.9, 0.8, 2.0, 240), prof)
        assert large <= small + 1e-6


    def test_stage2_infeasible_names_budget(self, monkeypatch):
        # a negative budget slack makes stage 2 reject the stage-1 optimum
        p = SystemParams(0.9, 0.8, 1.0, 24)
        prof = sinusoid(3.0, 2 * math.pi / 24, math.pi / 2, 24)
        v1 = offline_cost(p, prof)
        monkeypatch.setattr("energycoop.offline.eps_lex", lambda v1: -1.0)
        with pytest.raises(Stage2Infeasible) as exc:
            plan_offline(p, prof)
        assert isinstance(exc.value, LpInfeasible)
        assert f"under budget {v1 - 1.0} (stage-1 cost {v1})" in str(exc.value)

    def test_builds_stage1_once(self, monkeypatch):
        # stage 2 is an edit of the one stage-1 program, not a second build
        built, edited = [], []

        def counting(*args):
            built.append(build_stage1(*args))
            return built[-1]

        def recording(stage1, v1):
            edited.append(stage1)
            return build_stage2(stage1, v1)

        monkeypatch.setattr("energycoop.offline.build_stage1", counting)
        monkeypatch.setattr("energycoop.offline.build_stage2", recording)
        plan_offline(SystemParams(0.9, 0.8, 1.0, 24),
                     sinusoid(3.0, 2 * math.pi / 24, math.pi / 2, 24))
        assert len(built) == 1
        assert len(edited) == 1 and edited[0] is built[0]


class TestExtraction:
    """A plan is its certified LP point: normalized actions, and the
    storage columns clipped onto [0, s_max] as the states."""

    @staticmethod
    def instances():
        rng = np.random.default_rng(63)
        for k in range(24):
            n = int(rng.integers(1, 9))
            s_max = math.inf if k % 4 == 3 else rng.uniform(0.2, 3.0)
            s_init = ((0.0, 0.0) if k % 3 == 0
                      else tuple(rng.uniform(0.0, min(s_max, 3.0), 2)))
            p = rand_params(rng, n, alpha=0.0 if k % 5 == 1 else None,
                            s_max=s_max, s_init=s_init)
            yield p, rand_profile(rng, n)

    @staticmethod
    def assert_is_point(p, traj, x):
        n = p.n_slots
        assert traj.actions == tuple(
            normalize_action_ref(ControlAction(*raw), p.alpha)
            for raw in x[:8 * n].reshape(n, 8).tolist())
        assert not np.signbit(traj.actions).any()
        assert traj.states == tuple(
            StorageState(*s) for s in
            np.clip(x[8 * n:], 0.0, p.s_max).reshape(n + 1, 2).tolist())
        assert traj.states[0] == StorageState(*p.s_init)
        for act, s, s_next in zip(traj.actions, traj.states,
                                  traj.states[1:]):
            assert abs(s_next.s1 - (s.s1 + p.alpha * act.c1 - act.d1)) \
                <= FEAS_TOL
            assert abs(s_next.s2 - (s.s2 + p.alpha * act.c2 - act.d2)) \
                <= FEAS_TOL

    def test_plan_offline_states_are_certified_storage(self):
        for p, prof in self.instances():
            stage1 = build_stage1(p, prof)
            v1 = lp_solve(stage1).objective_value
            x = lp_solve(build_stage2(stage1, v1)).x
            traj = plan_offline(p, prof)
            self.assert_is_point(p, traj, x)
            assert check_feasible(p, prof, traj).ok

    def test_storage_dust_clipped_onto_bounds(self):
        # a point within the certificate's tolerance of a storage bound
        p = SystemParams(0.9, 0.8, 1.0, 1)
        x = np.zeros(8 + 4)
        x[8:] = (-1e-12, 1.0 + 1e-12, 0.5, 1.0)
        traj = _extract_trajectory(p, x)
        assert traj.states == (StorageState(0.0, 1.0), StorageState(0.5, 1.0))

    def test_action_dust_snapped_to_positive_zero(self):
        p = SystemParams(0.9, 0.8, 1.0, 2)
        x = np.zeros(16 + 6)
        x[:16] = (-0.0, -1e-9, 0.3, -0.0, -0.0, 0.2, -1e-7, -0.0,
                  2.0, -0.0, -1e-12, 0.0, 0.1, -0.0, 0.4, 0.4)
        x[16:] = (0.0, 0.0, 0.0, 0.0, 0.1, 0.0)
        traj = _extract_trajectory(p, x)
        assert traj.actions == (ControlAction(c1=0.3, d2=0.2),
                                ControlAction(w1=2.0, d1=0.1))
        assert not np.signbit(traj.actions).any()

    def test_plan_single_bs_states_are_certified_storage(self):
        for p, prof in self.instances():
            x = lp_solve(build_single_bs(p, prof.e1)).x
            traj = plan_single_bs(p, prof.e1)
            self.assert_is_point(p, traj, x)
            assert check_feasible(
                p, replace(prof, e2=(0.0,) * p.n_slots), traj).ok


def _idle(n):
    return Trajectory(tuple(ControlAction() for _ in range(n)),
                      tuple(StorageState(0.0, 0.0) for _ in range(n + 1)))


# Every entry point checks slot counts through model.check_slots, so each
# message names the input and both counts the same way.
@pytest.mark.parametrize("planner, what", [
    (plan_offline, "profile"),
    (offline_cost, "profile"),
    (run_greedy, "profile"),
    (lambda params, profile: single_bs_cost(params, profile.e1), "profile"),
    (lambda params, profile: run_hybrid_stream(
        params, profile, zip(profile.e1, profile.e2)),
     "deterministic profile"),
    (lambda params, profile: check_feasible(params, profile, _idle(24)),
     "profile"),
    (lambda params, profile: offline_costs(
        params, [sinusoid(3.0, 2 * math.pi / 24, 1.0, 24), profile]),
     "profile"),
    (lambda params, profile: save_trajectory(_idle(24), profile, os.devnull),
     "profile"),
    (lambda params, profile: NetEnergyProfile(e1=(0.0,) * 24, e2=profile.e2),
     "e2"),
], ids=["plan_offline", "offline_cost", "run_greedy", "single_bs_cost",
        "run_hybrid_stream", "check_feasible", "offline_costs",
        "save_trajectory",
        "NetEnergyProfile"])
def test_wrong_length_profile_raises_length_mismatch(planner, what):
    params = SystemParams(0.9, 0.8, 1.0, 24)
    with pytest.raises(LengthMismatch,
                       match=f"^{what} has 23 slots, want 24$"):
        planner(params, sinusoid(3.0, 2 * math.pi / 24, 1.0, 23))


class TestSingleBs:
    def test_surplus_free(self):
        p = SystemParams(0.9, 0.8, 1.0, 3)
        traj = plan_single_bs(p, (0.5, 0.0, 1.0))
        assert total_cost(traj) <= 1e-9

    def test_store_then_discharge(self):
        p = SystemParams(1.0, 0.8, 10.0, 3)
        traj = plan_single_bs(p, (-1.0, 2.0, -1.0))
        assert total_cost(traj) == pytest.approx(1.0, abs=1e-9)
        dp = dp_single_cost(1.0, 10.0, (-1.0, 2.0, -1.0), step=0.01)
        assert dp == pytest.approx(1.0, abs=1e-9)

    def test_matches_dp_oracle_lossy(self):
        e = (-0.5, 1.5, -1.0, 0.25)
        p = SystemParams(0.8, 0.8, 1.0, 4)
        cost = single_bs_cost(p, e)
        dp = dp_single_cost(0.8, 1.0, e, step=0.005)
        assert cost == pytest.approx(dp, abs=0.02)

    def test_trajectory_checks_against_padded_profile(self):
        p = SystemParams(0.9, 0.8, 1.0, 3)
        e = (-1.0, 0.5, -0.25)
        traj = plan_single_bs(p, e)
        prof = NetEnergyProfile(e1=e, e2=(0.0, 0.0, 0.0))
        assert check_feasible(p, prof, traj).ok


class TestOfflineCosts:
    """Per-profile costs re-solved warm equal cold stage-1 solves."""

    def test_default_seeds_at_a_hybrid_grid_point(self):
        spec = default_spec("hybrid-vs-greedy")
        params = spec.params(spec.s_max_grid[0])
        deterministic = spec.profile(math.pi / 2)
        realized = [add_gaussian_noise(deterministic, NOISE_SCALE, seed)
                    for seed in DEFAULT_SEEDS]
        warm = offline_costs(params, realized)
        assert len(warm) == len(DEFAULT_SEEDS) == 20
        for profile, cost in zip(realized, warm):
            cold = offline_cost(params, profile)
            assert cold == lp_solve(build_stage1(params, profile)
                                    ).objective_value
            assert abs(cost - cold) <= 1e-9 * abs(cold)

    def test_first_cost_is_the_cold_one(self):
        rng = np.random.default_rng(17)
        p = rand_params(rng, 48)
        profiles = [rand_profile(rng, 48) for _ in range(4)]
        costs = offline_costs(p, profiles)
        assert costs[0] == offline_cost(p, profiles[0])
        for profile, cost in zip(profiles, costs):
            cold = offline_cost(p, profile)
            assert abs(cost - cold) <= 1e-9 * max(1.0, abs(cold))
        assert offline_costs(p, []) == []


class TestAssembly:
    """The vectorized builders emit exactly the row-by-row programs."""

    @staticmethod
    def assert_same_program(problem, ref):
        for name in ("a_eq", "a_ub"):
            got, want = getattr(problem, name), ref[name]
            assert got.shape == want.shape
            for part in ("indptr", "indices", "data"):
                got_part, want_part = getattr(got, part), getattr(want, part)
                assert got_part.dtype == want_part.dtype
                assert np.array_equal(got_part, want_part)
        for name in ("objective", "b_eq", "b_ub", "lower", "upper"):
            assert np.array_equal(getattr(problem, name), ref[name]), name

    @pytest.mark.parametrize("n", [1, 2, 24, 240])
    @pytest.mark.parametrize("efficiencies", [
        (None, None), (0.0, None), (None, 0.0), (0.0, 0.0), (1.0, 1.0)])
    def test_matches_reference_builder(self, n, efficiencies):
        rng = np.random.default_rng(n)
        alpha, beta = efficiencies
        s_max = rng.uniform(0.2, 3.0)
        s_init = (rng.uniform(0.0, s_max), rng.uniform(0.0, s_max))
        p = rand_params(rng, n, alpha=alpha, beta=beta, s_max=s_max,
                        s_init=s_init)
        prof = rand_profile(rng, n)
        v1 = rng.uniform(0.0, 10.0 * n)
        self.assert_same_program(
            build_stage1(p, prof),
            reference_planning_program(p, prof.e1, prof.e2, "stage1"))
        self.assert_same_program(
            build_stage2(build_stage1(p, prof), v1),
            reference_planning_program(p, prof.e1, prof.e2, "stage2", v1))
        self.assert_same_program(
            build_single_bs(p, prof.e1),
            reference_planning_program(p, prof.e1, prof.e2, "single_bs"))
