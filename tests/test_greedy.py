"""Greedy controller: case rules, LP oracle agreement, rollout modes."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energycoop import (
    ControlAction,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    add_gaussian_noise,
    check_feasible,
    greedy_step_with_case,
    lp_solve,
    run_greedy,
    sinusoid,
    total_cost,
)
from energycoop.greedy import MODES, stepper
from energycoop.model import InvalidState, neutralization_residuals
from energycoop.offline import build_stage1, offline_cost

from helpers import (digest, hex_fields, rand_params, rand_profile,
                     rand_state, rand_unit_open)
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
            stepper(mode, 0.9, 0.8)(1.0, 0.5, 0.5, 0.5, *e)

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

    @pytest.mark.parametrize("mode", ["standard", "force_case_2a"])
    def test_underflowing_efficiency_product_rejected(self, mode):
        # each efficiency is > 0, but the case rules divide by their
        # product, which is 0.0
        with pytest.raises(ValueError) as exc:
            stepper(mode, 1e-170, 1e-170)
        assert str(exc.value) == (
            f"mode {mode!r} needs alpha * beta > 0, got alpha * beta = 0.0 "
            "(alpha = 1e-170, beta = 1e-170)")

    @pytest.mark.parametrize("mode", ["no_storage", "no_transfer"])
    def test_boundary_modes_roll_out_with_underflowing_product(self, mode):
        p = SystemParams(1e-170, 1e-170, 1.0, 48, (0.5, 0.25))
        prof = rand_profile(np.random.default_rng(31), 48)
        assert check_feasible(p, prof, run_greedy(p, prof, mode)).ok

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
        # the rollout is bit for bit its steps, signs of zero included
        assert hex_fields(traj) == hex_fields(
            Trajectory(tuple(actions), tuple(states), tuple(cases)))
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

    @pytest.mark.parametrize("mode, alpha, beta", [
        *((mode, None, None) for mode in MODES),
        ("no_storage", 0.0, None),
        ("no_transfer", None, 0.0),
    ])
    def test_step_respects_caps(self, mode, alpha, beta):
        rng = np.random.default_rng(24)
        for _ in range(200):
            a, b = rand_unit_open(rng), rand_unit_open(rng)
            a = a if alpha is None else alpha
            b = b if beta is None else beta
            cap1, cap2 = rng.uniform(0.0, 2.0, 2)
            s1 = rng.uniform(0, cap1)
            s2 = rng.uniform(0, cap2)
            e1, e2 = rng.uniform(-3, 3, 2)
            record = stepper(mode, a, b)(cap1, cap2, s1, s2, e1, e2)
            act = ControlAction._make(record[:8])
            assert -1e-9 <= record[8] <= cap1 + 1e-9
            assert -1e-9 <= record[9] <= cap2 + 1e-9
            assert act.d1 <= s1 + 1e-9 and act.d2 <= s2 + 1e-9
            r1, r2 = neutralization_residuals(
                SystemParams(a, b, max(cap1, cap2, 0.1), 1), e1, e2, act)
            assert r1 >= -1e-9 and r2 >= -1e-9
            if mode == "no_storage":
                assert act.c1 == act.c2 == act.d1 == act.d2 == 0.0


OMEGA = 2 * math.pi / 24
# a year of a noisy sinusoid; (alpha, beta) 0.9/0.8 takes the 2B/3B
# branches (beta < alpha**2), 0.8/0.9 the 2A/3A ones
NOISY = add_gaussian_noise(sinusoid(3.0, OMEGA, math.pi / 2, 8760), 0.5, 7)
# every pair (k/4, j/4), k and j in -8..8, in stride -19 order so that
# storage levels vary between slots: with alpha 0.5 and beta 0.5 or
# 0.125 every sum is exact, so ties and exact zeros occur
_PAIRS = list(itertools.product([k / 4 for k in range(-8, 9)], repeat=2))
DYADIC = NetEnergyProfile(*zip(*(_PAIRS[-19 * i % 289] for i in range(289))))


class TestBitForBit:
    """Every rollout field, bit for bit, pinned by its ``digest``."""

    @pytest.mark.parametrize("alpha, beta, mode, expected", [
        (0.9, 0.8, "standard",
         "624748c87b83354ace969299bc1eb139a145c3852ba4b39e4849d4d8ed470453"),
        (0.9, 0.8, "force_case_2a",
         "8fa9cb3a1b28f72ca503a2d9a8e0bf4b7a1d5ced52b87d5312a9248cdc6ec8bc"),
        (0.9, 0.8, "no_storage",
         "c728fd3288a04035482baad37fe25b9cef937ef032aee4ecd749254f3d7a35c2"),
        (0.9, 0.8, "no_transfer",
         "096a0e44dfb4eefb9da778ff083ce6a0f174f92ada18e0537947df722c86f1ff"),
        (0.8, 0.9, "standard",
         "e5e2963e020b02d58c5bfac81396d3a7171bbcfed45e69311fee7ead0de8f1a7"),
        (0.8, 0.9, "force_case_2a",
         "e5e2963e020b02d58c5bfac81396d3a7171bbcfed45e69311fee7ead0de8f1a7"),
        (0.8, 0.9, "no_storage",
         "45f326877e5778d11cf9aa00dc2ef08818ecd0ed0d7120750801edad0ac3f073"),
        (0.8, 0.9, "no_transfer",
         "b38593b76bdf76038948efb718490a07ebc4b0386600383b7683365502c73382"),
    ])
    def test_noisy_sinusoid(self, alpha, beta, mode, expected):
        traj = run_greedy(SystemParams(alpha, beta, 1.0, 8760), NOISY, mode)
        assert digest(traj) == expected

    @pytest.mark.parametrize("beta, s_max, mode, expected", [
        (0.5, 0.5, "standard",
         "896201a623e0e653680c1bb90b0a262235253ebd5bb3ec9c5902a2049313ba6c"),
        (0.5, 0.5, "force_case_2a",
         "896201a623e0e653680c1bb90b0a262235253ebd5bb3ec9c5902a2049313ba6c"),
        (0.5, 0.5, "no_storage",
         "fe4b7e5fde653c71637b9fc33e2a5a3da4dd408a399c5a6c615fa105730a4125"),
        (0.5, 0.5, "no_transfer",
         "c0ad0ae8c29a9cc33d3cb5143772a48641636f015c52238e25d8eb574aeccf94"),
        (0.5, 1.0, "standard",
         "f4025da07e2ff0ae7a43d22d56bf8574ae42bc8fc2feec02ec88f385665cef38"),
        (0.5, 1.0, "force_case_2a",
         "f4025da07e2ff0ae7a43d22d56bf8574ae42bc8fc2feec02ec88f385665cef38"),
        (0.5, 1.0, "no_storage",
         "fe4b7e5fde653c71637b9fc33e2a5a3da4dd408a399c5a6c615fa105730a4125"),
        (0.5, 1.0, "no_transfer",
         "bcc891eab35faf3cc7ae0d7dc15489b44cc4e2391ec93d9897b2315411f7f92e"),
        (0.125, 0.5, "standard",
         "7f443637e215404cdf91064e129f733abe209afa8f26a8110453f51a5611c8c0"),
        (0.125, 0.5, "force_case_2a",
         "35db64ccf71a85651803499799b41ca37c492dc71157c8b97a511801e9be92f1"),
        (0.125, 0.5, "no_storage",
         "e307e3f077d9f7fc740515147305d3dce6e1fddca498cc8c31328178362c4d5d"),
        (0.125, 0.5, "no_transfer",
         "c0ad0ae8c29a9cc33d3cb5143772a48641636f015c52238e25d8eb574aeccf94"),
        (0.125, 1.0, "standard",
         "da6aacad06448b786ca4ec49dd3af8c12bef3fcc164b48d947059a01507e910f"),
        (0.125, 1.0, "force_case_2a",
         "e5f1d988eea064e82f22a47eabaa430c4db5133742d41db120111de92f999548"),
        (0.125, 1.0, "no_storage",
         "e307e3f077d9f7fc740515147305d3dce6e1fddca498cc8c31328178362c4d5d"),
        (0.125, 1.0, "no_transfer",
         "bcc891eab35faf3cc7ae0d7dc15489b44cc4e2391ec93d9897b2315411f7f92e"),
    ])
    def test_dyadic_grid(self, beta, s_max, mode, expected):
        traj = run_greedy(SystemParams(0.5, beta, s_max, 289), DYADIC, mode)
        assert digest(traj) == expected
        if mode == "standard":  # the grid reaches the 4-x reductions
            assert {"1", "4", "4-1"} <= set(traj.cases)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dyadic", [True, False])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_no_record_field_is_negative_zero(self, mode, dyadic, data):
        # each clamp lets its first operand win a tie, so max(0.0, -0.0)
        # is 0.0; a conditional written the other way round gives -0.0,
        # which exact dyadic sums such as -(-0.5 + 0.5 * 1.0) produce.  A
        # dyadic system steps through every pair of the grid, -0.0 included
        # (the step cleans it to 0.0); a random one through one drawn pair
        def value(grid, lo, hi):
            return st.sampled_from(grid) if dyadic else st.floats(lo, hi)

        efficiency = value([0.125, 0.25, 0.5, 1.0], 0.01, 1.0)
        if mode.startswith("no_"):
            efficiency |= st.just(0.0)
        step = stepper(mode, *(data.draw(efficiency, label=name)
                               for name in ("alpha", "beta")))
        cap1, cap2 = (data.draw(value([0.0, 0.5, 1.0, 2.0], 0.0, 3.0),
                                label=name) for name in ("cap1", "cap2"))
        s1, s2 = (data.draw(value([0.0, 0.25, 0.5, 1.0], 0.0, 1.0),
                            label=name) * cap for name, cap in
                  (("s1 share", cap1), ("s2 share", cap2)))
        energies = (itertools.product(
            [k / 4 for k in range(-8, 9)] + [-0.0], repeat=2) if dyadic
            else [tuple(data.draw(st.floats(-3.0, 3.0), label=name)
                        for name in ("e1", "e2"))])
        for e1, e2 in energies:
            record = step(cap1, cap2, s1, s2, e1, e2)
            assert not any(v == 0.0 and math.copysign(1.0, v) < 0.0
                           for v in record[:10]), (e1, e2, record)
