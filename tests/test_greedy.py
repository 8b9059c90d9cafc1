"""Greedy controller: case rules, LP oracle agreement, rollout modes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from energycoop import (
    NetEnergyProfile,
    StorageState,
    SystemParams,
    check_feasible,
    greedy_step_with_case,
    lp_solve,
    run_greedy,
    total_cost,
)
from energycoop.greedy import MODES, capped_step
from energycoop.model import InvalidState, neutralization_residuals
from energycoop.offline import build_stage1, offline_cost

from helpers import rand_params, rand_profile, rand_state, rand_unit_open
from oracles import greedy_step_lp

P = SystemParams(0.9, 0.8, 1.0, 1)


class TestCases:
    def test_case4_empty_storage(self):
        act, state, label = greedy_step_with_case(
            P, StorageState(0, 0), -1.0, -1.0)
        assert label == "4"
        assert (act.w1, act.w2) == (1.0, 1.0)
        assert act.c1 == act.c2 == act.d1 == act.d2 == 0.0
        assert act.x12 == act.x21 == 0.0
        assert state == StorageState(0.0, 0.0)

    def test_case1_fill_then_cross_charge(self):
        act, state, label = greedy_step_with_case(
            P, StorageState(0, 0), 2.0, 0.5)
        assert label == "1"
        assert act.c1 == pytest.approx(1 / 0.9)
        assert state.s1 == pytest.approx(1.0)
        assert act.x12 == pytest.approx(2.0 - 1 / 0.9)
        # arriving energy exceeds the remaining room, so the charge is
        # room-limited: min(0.8 * 0.8889, (1 - 0.45) / 0.9) = 0.6111
        assert act.c2 == pytest.approx(0.5 + (1.0 - 0.45) / 0.9)
        assert state.s2 == pytest.approx(1.0)
        assert act.w1 == act.w2 == 0.0

    def test_case2a_cascade(self):
        p = SystemParams(0.9, 0.95, 1.0, 1)
        act, state, label = greedy_step_with_case(
            p, StorageState(0.5, 0.2), 0.3, -1.0)
        assert label == "2A"
        assert act.x12 == pytest.approx(0.3 + 0.9 * 0.5)
        assert act.d2 == pytest.approx(0.2)
        assert act.d1 == pytest.approx(0.5)
        assert act.w2 == pytest.approx(0.1075, abs=1e-12)
        assert state == StorageState(0.0, 0.0)
        # the one-slot LP is the oracle for both cost and storage sum
        act_lp, state_lp = greedy_step_lp(p, StorageState(0.5, 0.2), 0.3, -1.0)
        assert act.w1 + act.w2 == pytest.approx(
            act_lp.w1 + act_lp.w2, abs=1e-9)
        assert state.s1 + state.s2 == pytest.approx(
            state_lp.s1 + state_lp.s2, abs=1e-9)

    def test_case2b_keeps_local_storage(self):
        # beta < alpha^2 and a small deficit: charge locally, discharge 2
        p = SystemParams(0.9, 0.5, 1.0, 1)
        act, state, label = greedy_step_with_case(
            p, StorageState(0.0, 0.8), 1.0, -0.1)
        assert label == "2B.2"
        assert act.x12 == 0.0
        assert act.c1 == pytest.approx(1.0)
        assert act.d2 == pytest.approx(0.1 / 0.9)
        assert state.s1 == pytest.approx(0.9)

    def test_case2b_all_out(self):
        # deficit swamps everything: full transfer plus both storages
        p = SystemParams(0.9, 0.5, 1.0, 1)
        act, state, label = greedy_step_with_case(
            p, StorageState(0.4, 0.3), 0.5, -3.0)
        assert label == "2B.1"
        assert act.d2 == pytest.approx(0.3)
        assert act.d1 == pytest.approx(0.4)
        assert act.x12 == pytest.approx(0.5 + 0.9 * 0.4)
        assert state == StorageState(0.0, 0.0)
        assert act.w2 == pytest.approx(
            3.0 - 0.5 * (0.5 + 0.36) - 0.9 * 0.3)

    def test_case3_mirrors_case2(self):
        p = SystemParams(0.9, 0.95, 1.0, 1)
        act2, st2, lab2 = greedy_step_with_case(
            p, StorageState(0.5, 0.2), 0.3, -1.0)
        act3, st3, lab3 = greedy_step_with_case(
            p, StorageState(0.2, 0.5), -1.0, 0.3)
        assert lab3 == "3A"
        assert (act3.w2, act3.w1) == (act2.w1, act2.w2)
        assert (act3.x21, act3.x12) == (act2.x12, act2.x21)
        assert (st3.s2, st3.s1) == (st2.s1, st2.s2)

    def test_case4_reduction_label(self):
        # BS1's storage covers its deficit, leaving a case-2 shape
        p = SystemParams(0.9, 0.95, 2.0, 1)
        act, state, label = greedy_step_with_case(
            p, StorageState(2.0, 0.1), -0.9, -2.0)
        assert label.startswith("4-2A")
        assert act.d1 >= 1.0  # own deficit plus remote help

    def test_exclusive_classification(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = rand_params(rng, 1)
            st = rand_state(rng, p.s_max)
            e1, e2 = rng.uniform(-3, 3, 2)
            _, _, label = greedy_step_with_case(p, st, e1, e2)
            top = label.split("-")[0].split(".")[0]
            if e1 >= 0 and e2 >= 0:
                assert top == "1"
            elif e1 >= 0:
                assert top in ("2A", "2B")
                assert (top == "2A") == (p.beta >= p.alpha ** 2)
            elif e2 >= 0:
                assert top in ("3A", "3B")
            else:
                assert top == "4"

    def test_invalid_state(self):
        with pytest.raises(InvalidState):
            greedy_step_with_case(P, StorageState(1.5, 0.0), 0.0, 0.0)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("station", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, bad, station, mode):
        e = [1.0, -0.5]
        e[station - 1] = bad
        with pytest.raises(ValueError, match="not finite"):
            greedy_step_with_case(P, StorageState(0.5, 0.5), *e, mode)
        with pytest.raises(ValueError, match="not finite"):
            capped_step(0.9, 0.8, 1.0, 0.5, 0.5, 0.5, *e, mode)

    def test_no_charging_when_transfer_below_deficit(self):
        # covered-deficit transfers never charge the receiving station
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(500):
            p = rand_params(rng, 1)
            st = rand_state(rng, p.s_max)
            e1 = rng.uniform(0, 3)
            e2 = rng.uniform(-3, 0)
            act, _, _ = greedy_step_with_case(p, st, e1, e2)
            if act.w2 <= 1e-12 and p.beta * act.x12 <= -e2 + 1e-12:
                hits += 1
                assert act.c2 <= 1e-9
        assert hits > 50


class TestLpOracle:
    def test_zero_instance(self):
        act, state = greedy_step_lp(P, StorageState(0, 0), 0.0, 0.0)
        assert all(abs(v) <= 1e-9 for v in act.as_tuple())
        assert state == StorageState(0.0, 0.0)

    def test_gamma_validation(self):
        st = StorageState(0, 0)
        with pytest.raises(ValueError, match="gamma"):
            greedy_step_lp(P, st, 0.0, 0.0, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            greedy_step_lp(P, st, 0.0, 0.0, gamma=0.9 * 0.8)
        with pytest.raises(ValueError, match="gamma"):
            greedy_step_lp(P, st, 0.0, 0.0, gamma=-0.1)
        greedy_step_lp(P, st, 0.0, 0.0, gamma=0.36)

    def test_agreement_and_stage1_match(self):
        # smoke version of acceptance criterion 1
        rng = np.random.default_rng(100)
        for _ in range(150):
            p = rand_params(rng, 1)
            st = rand_state(rng, p.s_max)
            e1, e2 = rng.uniform(-3, 3, 2)
            act_g, st_g = greedy_step_with_case(p, st, e1, e2)[:2]
            act_l, st_l = greedy_step_lp(p, st, e1, e2)
            assert act_g.w1 + act_g.w2 == pytest.approx(
                act_l.w1 + act_l.w2, abs=1e-7)
            assert st_g.s1 + st_g.s2 == pytest.approx(
                st_l.s1 + st_l.s2, abs=1e-7)
            one_slot = replace(p, s_init=(st.s1, st.s2))
            v1 = lp_solve(build_stage1(
                one_slot,
                NetEnergyProfile(e1=(e1,), e2=(e2,)))).objective_value
            assert act_l.w1 + act_l.w2 == pytest.approx(v1, abs=1e-7)

    def test_gamma_anywhere_in_interval(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            p = rand_params(rng, 1)
            st = rand_state(rng, p.s_max)
            e1, e2 = rng.uniform(-3, 3, 2)
            lo = greedy_step_lp(p, st, e1, e2, gamma=0.01 * p.alpha * p.beta)
            hi = greedy_step_lp(p, st, e1, e2, gamma=0.99 * p.alpha * p.beta)
            assert lo[0].w1 + lo[0].w2 == pytest.approx(
                hi[0].w1 + hi[0].w2, abs=1e-7)
            assert lo[1].s1 + lo[1].s2 == pytest.approx(
                hi[1].s1 + hi[1].s2, abs=1e-7)


class TestRollout:
    def test_surplus_profile_free(self):
        rng = np.random.default_rng(21)
        p = rand_params(rng, 10)
        prof = rand_profile(rng, 10, e1_range=(0, 3), e2_range=(0, 3))
        traj = run_greedy(p, prof)
        assert total_cost(traj) == 0.0
        assert check_feasible(p, prof, traj).ok

    def test_beta_one_is_optimal(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            p = rand_params(rng, n, beta=1.0)
            prof = rand_profile(rng, n)
            greedy_cost = total_cost(run_greedy(p, prof))
            assert greedy_cost == pytest.approx(
                offline_cost(p, prof), abs=1e-6)

    def test_cases_recorded(self):
        prof = NetEnergyProfile(e1=(1.0, -1.0), e2=(1.0, 1.0))
        traj = run_greedy(SystemParams(0.9, 0.8, 1.0, 2), prof)
        assert traj.cases is not None and len(traj.cases) == 2
        assert traj.cases[0] == "1"

    def test_mode_validation(self):
        prof = NetEnergyProfile(e1=(1.0,), e2=(1.0,))
        with pytest.raises(ValueError):
            run_greedy(SystemParams(0.0, 0.8, 1.0, 1), prof)
        with pytest.raises(ValueError):
            run_greedy(SystemParams(0.9, 0.0, 1.0, 1), prof)
        with pytest.raises(ValueError) as exc:
            run_greedy(P, prof, mode="bogus")
        assert str(exc.value) == (
            f"unknown mode 'bogus'; expected one of {MODES}")
        with pytest.raises(ValueError) as exc:
            run_greedy(SystemParams(0.9, 0.0, 1.0, 1), prof, "force_case_2a")
        assert str(exc.value) == ("mode 'force_case_2a' needs alpha > 0 and "
                                  "beta > 0, got alpha = 0.9, beta = 0.0")

    @pytest.mark.parametrize("mode, alpha, beta", [
        *((mode, None, None) for mode in MODES),
        ("no_storage", 0.0, None),
        ("no_transfer", None, 0.0),
        # each boundary mode also runs on the other boundary
        ("no_storage", None, 0.0),
        ("no_transfer", 0.0, None),
    ])
    def test_rollout_equals_chained_steps(self, mode, alpha, beta):
        rng = np.random.default_rng(25)
        p = rand_params(rng, 200, alpha=alpha, beta=beta)
        p = replace(p, s_init=tuple(rng.uniform(0.0, p.s_max, 2)))
        prof = rand_profile(rng, 200)
        state = StorageState(*p.s_init)
        actions, states, cases = [], [state], []
        for e1, e2 in zip(prof.e1, prof.e2):
            action, state, label = greedy_step_with_case(
                p, state, e1, e2, mode)
            actions.append(action)
            states.append(state)
            cases.append(label)
        traj = run_greedy(p, prof, mode)
        # == on every float field: the rollout is bit for bit its steps
        assert traj.actions == tuple(actions)
        assert traj.states == tuple(states)
        assert traj.cases == tuple(cases)
        assert len(set(cases)) > 1 or mode.startswith("no_")
        assert check_feasible(p, prof, traj).ok

    def test_no_storage_mode(self):
        p = SystemParams(0.0, 0.8, 1.0, 3)
        prof = NetEnergyProfile(e1=(2.0, -1.0, 1.0), e2=(-1.0, -1.0, 1.0))
        traj = run_greedy(p, prof, mode="no_storage")
        assert check_feasible(p, prof, traj).ok
        assert all(a.c1 == a.c2 == a.d1 == a.d2 == 0.0 for a in traj.actions)
        # slot 0: transfer covers BS2's deficit at cost |e2| - beta*x12
        assert traj.actions[0].x12 == pytest.approx(1.0 / 0.8)
        assert traj.actions[0].w2 == pytest.approx(0.0, abs=1e-12)
        assert traj.actions[1].w1 == pytest.approx(1.0)

    def test_no_storage_matches_offline_alpha_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(1, 10))
            p = rand_params(rng, n, alpha=0.0)
            prof = rand_profile(rng, n)
            cost = total_cost(run_greedy(p, prof, mode="no_storage"))
            assert cost == pytest.approx(offline_cost(p, prof), abs=1e-6)

    def test_no_transfer_mode(self):
        p = SystemParams(0.9, 0.0, 1.0, 2)
        prof = NetEnergyProfile(e1=(2.0, -1.0), e2=(-1.0, 0.5))
        traj = run_greedy(p, prof, mode="no_transfer")
        assert check_feasible(p, prof, traj).ok
        assert all(a.x12 == a.x21 == 0.0 for a in traj.actions)
        assert traj.actions[0].w2 == pytest.approx(1.0)
        # slot 0 banked s1 = 1; discharging it releases alpha * 1 = 0.9
        assert traj.actions[1].d1 == pytest.approx(1.0)
        assert traj.actions[1].w1 == pytest.approx(0.1)

    def test_force_case_2a_labels(self):
        p = SystemParams(0.9, 0.5, 1.0, 2)  # beta < alpha^2
        prof = NetEnergyProfile(e1=(1.0, -0.5), e2=(-0.5, 1.0))
        traj = run_greedy(p, prof, mode="force_case_2a")
        assert traj.cases == ("2A", "3A")

    def test_capped_step_respects_caps(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            alpha = rand_unit_open(rng)
            beta = rand_unit_open(rng)
            cap1, cap2 = rng.uniform(0.0, 2.0, 2)
            s1 = rng.uniform(0, cap1)
            s2 = rng.uniform(0, cap2)
            e1, e2 = rng.uniform(-3, 3, 2)
            act, state, _ = capped_step(alpha, beta, cap1, cap2,
                                        s1, s2, e1, e2)
            assert -1e-9 <= state.s1 <= cap1 + 1e-9
            assert -1e-9 <= state.s2 <= cap2 + 1e-9
            assert act.d1 <= s1 + 1e-9 and act.d2 <= s2 + 1e-9
            r1, r2 = neutralization_residuals(
                SystemParams(alpha, beta, max(cap1, cap2, 0.1), 1),
                e1, e2, act)
            assert r1 >= -1e-9 and r2 >= -1e-9
