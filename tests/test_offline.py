"""Offline planning: stage LPs, two-stage composition, single-BS baseline."""

import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, vstack

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
from energycoop.lp import FEAS_TOL, LpInfeasible, LpSession
from energycoop.offline import (
    EPS_LEX_FACTOR,
    Stage2Infeasible,
    _extract_trajectory,
    _matrices,
    _stage1_entries,
    build_stage1,
    build_stage2,
    eps_lex,
    offline_cost,
    plan_and_price,
    plan_offline,
    plan_single_bs,
    single_bs_cost,
    stage1_costs,
)

from helpers import hex_fields, rand_params, rand_profile
from oracles import (
    dp_pair_cost,
    dp_single_cost,
    linprog_reference,
    normalize_action_ref,
    reference_planning_program,
    single_bs_optimum,
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
        assert prob.a.nnz == 22 * n + 2
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
        for name in ("lower", "upper"):
            assert getattr(stage2, name) is getattr(stage1, name), name
        # the budget row is inserted at 4N, after the last <= row
        budget, kept = 4 * 24, np.r_[:4 * 24, 4 * 24 + 1:6 * 24 + 3]
        a1, a2 = (csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
                  for a in (stage1.a, stage2.a))
        assert a2.shape[0] == a1.shape[0] + 1
        assert (a2[kept] != a1).nnz == 0
        assert np.array_equal(a2[budget].toarray()[0],
                              stage1.objective)
        assert stage2.row_lower[budget] == -math.inf
        assert stage2.row_upper[budget] == 5.0 + eps_lex(5.0)
        for name in ("row_lower", "row_upper"):
            assert np.array_equal(getattr(stage2, name)[kept],
                                  getattr(stage1, name))


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
        # no -0.0 in an action or a state, though HiGHS returns some
        assert not np.signbit(traj.actions).any()
        assert not np.signbit(traj.states).any()
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
            # v1 as the plan takes it: stage 1 solved without presolve
            v1 = offline_cost(p, prof)
            x = lp_solve(build_stage2(build_stage1(p, prof), v1)).x
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
        x[16:] = (0.0, -0.0, -0.0, 0.0, 0.1, -0.0)  # states keep no -0.0
        traj = _extract_trajectory(p, x)
        assert traj.actions == (ControlAction(c1=0.3, d2=0.2),
                                ControlAction(w1=2.0, d1=0.1))
        assert not np.signbit(traj.actions).any()
        assert not np.signbit(traj.states).any()

    def test_plan_single_bs_states_are_certified_storage(self):
        # the baseline is no LP point: it is the no_transfer rollout of
        # (e1, 0), bit for bit
        for p, prof in self.instances():
            single = replace(prof, e2=(0.0,) * p.n_slots)
            traj = plan_single_bs(p, prof.e1)
            assert hex_fields(traj) == hex_fields(
                run_greedy(p, single, "no_transfer"))
            assert check_feasible(p, single, traj).ok


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
    # the wrong profile second: the warm re-price checks its own
    (lambda params, profile: stage1_costs(
        params, [sinusoid(3.0, 2 * math.pi / 24, 1.0, 24), profile]),
     "profile"),
    (lambda params, profile: save_trajectory(_idle(24), profile, os.devnull),
     "profile"),
    (lambda params, profile: NetEnergyProfile(e1=(0.0,) * 24, e2=profile.e2),
     "e2"),
], ids=["plan_offline", "offline_cost", "run_greedy", "single_bs_cost",
        "run_hybrid_stream", "check_feasible", "stage1_costs",
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

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rollout_is_the_single_bs_optimum(self, data):
        # the single-BS program stays the arbiter: the rollout's cost is
        # its linprog optimum, the plan is feasible against (e, 0), and
        # BS 2 never acts, though it may start with stored energy
        n = data.draw(st.integers(1, 60), label="n")
        alpha = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                          label="alpha")
        beta = data.draw(st.floats(0.0, 1.0), label="beta")
        s_max = data.draw(st.sampled_from([0.0, math.inf])
                          | st.floats(0.0, 4.0), label="s_max")
        share = st.floats(0.0, 1.0)
        s_init = tuple(data.draw(share, label="s_init") * min(s_max, 3.0)
                       for _ in range(2))
        p = SystemParams(alpha, beta, s_max, n, s_init)
        e = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                               max_size=n), label="e")
        cost, want = single_bs_cost(p, e), single_bs_optimum(p, e)
        assert abs(cost - want) <= 1e-9 * max(1.0, abs(want))
        traj = plan_single_bs(p, e)
        assert total_cost(traj) == cost
        assert check_feasible(
            p, NetEnergyProfile(e1=e, e2=(0.0,) * n), traj).ok
        assert all(a.w2 == a.c2 == a.d2 == a.x12 == a.x21 == 0.0
                   for a in traj.actions)
        assert all(s.s2 == p.s_init[1] for s in traj.states)


class TestEnergyUnit:
    """A plan does not depend on the energy unit: the certificate's
    tolerance scales with the row bounds, as HiGHS's own does."""

    # (scale, theta / (pi / 8), s_max / scale): each raised SolverError on
    # an init or dynamics row under an absolute 1e-9 certificate
    @pytest.mark.parametrize("scale, k, s_max", [
        (1e4, 0, 1.0), (1e4, 2, 3.5), (1e6, 2, 1.0), (1e6, 0, math.inf)])
    def test_scaled_sinusoid_plans_at_scaled_cost(self, scale, k, s_max):
        theta = k * math.pi / 8
        unit = offline_cost(SystemParams(0.9, 0.8, s_max, 240),
                            sinusoid(3.0, 2 * math.pi / 24, theta, 240))
        p = SystemParams(0.9, 0.8, s_max * scale, 240)
        prof = sinusoid(3.0 * scale, 2 * math.pi / 24, theta, 240)
        cost = offline_cost(p, prof)
        assert abs(cost - scale * unit) <= 1e-12 * scale * unit
        traj = plan_offline(p, prof)
        assert check_feasible(p, prof, traj).ok
        assert total_cost(traj) == pytest.approx(cost, rel=2 * EPS_LEX_FACTOR)


def _priced(params, stage1):
    """``stage1`` as ``stage1_costs`` prices it: on its system's priced
    matrix, without the d_le_s rows."""
    _, a, keep = _matrices(params.n_slots, params.alpha, params.beta)
    return replace(stage1, a=a, row_lower=stage1.row_lower[keep],
                   row_upper=stage1.row_upper[keep])


# a sparse profile on a 1/8 grid at alpha = 1e-3: without presolve, HiGHS
# called a point optimal that violates neutral2[2] by 7.5e-9
_SPARSE_N13 = (
    SystemParams(1e-3, 0.04901477618527157, math.inf, 13,
                 (0.4278957533653893, 1.0081854795801413)),
    [0, -1.375, 0, 0.75, 1.375, 0.25, -3, 0.75, -2.125, 0, 0, 0.5, 0],
    [-1.375, -1.5, 0, 0, 0, 0, 1.75, 0, 0, 0, 2.625, 0, 0.5])


class TestOfflineCosts:
    """Per-profile costs re-solved warm equal cold stage-1 solves."""

    def test_default_seeds_at_a_hybrid_grid_point(self):
        spec = default_spec("hybrid-vs-greedy")
        params = spec.params(spec.s_max_grid[0])
        deterministic = spec.profile(math.pi / 2)
        realized = [add_gaussian_noise(deterministic, NOISE_SCALE, seed)
                    for seed in DEFAULT_SEEDS]
        # priced in the session of the deterministic plan's stage 1
        warm = plan_and_price(params, deterministic, realized)[1]
        assert len(warm) == len(DEFAULT_SEEDS) == 20
        for profile, cost in zip(realized, warm):
            cold = offline_cost(params, profile)
            assert cold == LpSession(value_only=True).solve(_priced(
                params, build_stage1(params, profile))).objective_value
            assert abs(cost - cold) <= 1e-9 * abs(cold)
            full = lp_solve(build_stage1(params, profile)).objective_value
            assert abs(cold - full) <= 1e-9 * abs(full)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 48),
           s_max=st.sampled_from([None, math.inf]), lossless=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_cost_without_presolve_is_the_presolved_optimum(
            self, seed, n, s_max, lossless):
        # stage 1 is priced without its d_le_s rows and HiGHS presolve,
        # with Devex; its optimal value is unique, so the presolved
        # steepest-edge cold solve of the full program that lp_solve makes
        # reaches it to HiGHS's tolerances (its 1e-10 dual tolerance is the
        # least it accepts), also with unbounded storage and a lossless
        # system, where ties are most common
        rng = np.random.default_rng(seed)
        efficiency = 1.0 if lossless else None
        p = rand_params(rng, n, efficiency, efficiency, s_max)
        prof = rand_profile(rng, n)
        cost = offline_cost(p, prof)
        want = lp_solve(build_stage1(p, prof)).objective_value
        assert abs(cost - want) <= 1e-9 * max(1.0, abs(want))

    @given(alpha=st.sampled_from([0.0, 1e-3, 1.0]) | st.floats(1e-3, 1.0),
           beta=st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0),
           s_max=st.sampled_from([0.0, math.inf]) | st.floats(0.0, 4.0),
           shares=st.tuples(*[st.floats(0.125, 1.0)] * 2),
           e=st.integers(1, 48).flatmap(lambda n: st.tuples(
               *[st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)]
               * 2)))
    # sparse profiles at alpha = 1e-3, which HiGHS without presolve priced
    # 1.3e-9 too high and at a point 7.3e-9 outside neutral1[2]
    @example(alpha=1e-3, beta=0.0625, s_max=2.7869083606436864,
             shares=(0.75, 1.0),
             e=([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, -3.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, -2.5, 0.0]))
    @example(alpha=1e-3, beta=0.0625, s_max=2.7869083606436864,
             shares=(0.5, 0.125),
             e=([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -3.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, -2.5, 0.0]))
    @settings(max_examples=100, deadline=None)
    def test_priced_program_has_the_stage1_optimum(self, alpha, beta, s_max,
                                                   shares, e):
        # the priced program drops the d_le_s rows; at the edges of every
        # efficiency and capacity, and with storage to start from, its
        # value is the optimum of the oracle's full stage-1 program
        (e1, e2), s_init = e, tuple(share * min(s_max, 3.0)
                                    for share in shares)
        p = SystemParams(alpha, beta, s_max, len(e1), s_init)
        cost = stage1_costs(p, [NetEnergyProfile(e1=e1, e2=e2)])[1][0]
        ref = linprog_reference(SimpleNamespace(
            **reference_planning_program(p, e1, e2, "stage1")))
        assert ref.status == 0, ref.message
        assert abs(cost - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))

    def test_sparse_profile_at_small_alpha(self):
        p, e1, e2 = _SPARSE_N13
        cost = offline_cost(p, NetEnergyProfile(e1=e1, e2=e2))
        ref = linprog_reference(SimpleNamespace(
            **reference_planning_program(p, e1, e2, "stage1")))
        assert ref.status == 0, ref.message
        assert abs(cost - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))

    def test_first_cost_is_the_cold_one(self):
        rng = np.random.default_rng(17)
        p = rand_params(rng, 48)
        profiles = [rand_profile(rng, 48) for _ in range(4)]
        stage1, costs = stage1_costs(p, profiles)
        first = build_stage1(p, profiles[0])  # priced by an independent solve
        for name in ("objective", "row_lower", "row_upper", "lower", "upper"):
            assert np.array_equal(getattr(stage1, name), getattr(first, name))
        assert costs[0] == LpSession(value_only=True).solve(
            _priced(p, first)).objective_value
        for profile, cost in zip(profiles, costs):
            cold = lp_solve(build_stage1(p, profile)).objective_value
            assert abs(cost - cold) <= 1e-9 * max(1.0, abs(cold))


class TestCsrMatchesScipy:
    """The CSR arrays, their values and dtypes are the ones scipy assembles
    from the same entry table (scipy is the oracle, not a dependency)."""

    @staticmethod
    def assert_same_csr(got, want):
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            got_part, want_part = getattr(got, part), getattr(want, part)
            assert got_part.dtype == want_part.dtype, part
            assert got_part.tobytes() == want_part.tobytes(), part

    @pytest.mark.parametrize("n", [1, 2, 24, 961])
    @pytest.mark.parametrize("alpha", [0.0, 0.8, 0.9, 1.0])
    @pytest.mark.parametrize("beta", [0.0, 0.8, 0.9, 1.0])
    def test_stage1_and_stage2(self, n, alpha, beta):
        params = SystemParams(alpha, beta, 2.0, n, (0.5, 1.25))
        stage1 = build_stage1(params, sinusoid(3.0, 0.3, 1.0, n))
        rows, cols, data = _stage1_entries(n, alpha, beta)
        want = csr_matrix((data, (rows, cols)), shape=stage1.a.shape)
        want.eliminate_zeros()
        self.assert_same_csr(stage1.a, want)
        # priced without the d_le_s rows 4t + 2, 4t + 3
        keep = [r for r in range(6 * n + 2) if r % 4 < 2 or r >= 4 * n]
        matrix, priced, got_keep = _matrices(n, alpha, beta)
        assert matrix is stage1.a
        assert got_keep.tolist() == keep
        self.assert_same_csr(priced, want[keep])
        budget = csr_matrix(stage1.objective)
        self.assert_same_csr(build_stage2(stage1, 17.5).a, vstack(
            (want[:4 * n], budget, want[4 * n:]), format="csr"))


class TestSharedMatrices:
    """Each system's stage-1 and priced matrices are made once per process
    and shared by all its programs; the cache keeps the last few systems."""

    def test_priced_matrix_is_scipys_rows_of_the_stage1_matrix(self):
        _matrices.cache_clear()
        params = SystemParams(0.9, 0.8, 1.0, 48)
        stage1 = build_stage1(params, sinusoid(3.0, 0.3, 1.0, 48))
        matrix, priced, keep = _matrices(48, 0.9, 0.8)
        assert _matrices.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert matrix is stage1.a
        want = csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                          shape=matrix.shape)[keep]
        TestCsrMatchesScipy.assert_same_csr(priced, want)
        for part in (*(getattr(a, name) for a in (matrix, priced)
                       for name in ("indptr", "indices", "data", "rows")),
                     keep):
            assert not part.flags.writeable

    def test_programs_of_one_system_share_its_matrices(self):
        # a profile, a capacity or an initial storage moves bounds only
        base = SystemParams(0.9, 0.8, 1.0, 24)
        a = build_stage1(base, sinusoid(3.0, 0.3, 1.0, 24)).a
        for params, theta in ((base, 2.0), (replace(base, s_max=3.5), 1.0),
                              (replace(base, s_init=(0.5, 0.25)), 1.0)):
            assert build_stage1(params, sinusoid(3.0, 0.3, theta, 24)).a is a
        for other in (replace(base, alpha=0.8), replace(base, beta=0.9)):
            assert build_stage1(other, sinusoid(3.0, 0.3, 1.0, 24)).a is not a

    def test_cache_keeps_the_last_systems(self):
        _matrices.cache_clear()
        size = _matrices.cache_info().maxsize
        first = _matrices(24, 0.9, 0.8)
        for k in range(size):
            _matrices(24, 0.9, 0.5 + k / 100)
        assert _matrices.cache_info().currsize == size
        again = _matrices(24, 0.9, 0.8)  # evicted, so made anew
        assert again[0] is not first[0]
        for old, new in zip(first[:2], again[:2]):
            TestCsrMatchesScipy.assert_same_csr(old, new)


class TestAssembly:
    """The vectorized builders emit exactly the row-by-row programs."""

    @staticmethod
    def assert_same_program(problem, ref):
        got, want = problem.a, ref["a"]
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            got_part, want_part = getattr(got, part), getattr(want, part)
            assert got_part.dtype == want_part.dtype
            assert np.array_equal(got_part, want_part)
        for name in ("objective", "row_lower", "row_upper", "lower",
                     "upper"):
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
