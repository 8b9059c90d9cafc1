"""Core types, dynamics, feasibility checking and normalization."""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from energycoop import (
    ControlAction,
    LengthMismatch,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    check_feasible,
    normalize_actions,
    run_greedy,
    save_trajectory,
    total_cost,
)
from energycoop.model import (
    ACTION_FIELDS,
    DEFAULT_TOL,
    TRAJECTORY_HEADER,
    neutralization_residuals,
)
from oracles import normalize_action_ref

P = SystemParams(0.9, 0.8, 1.0, 1)

finite = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def zero_traj(params, n):
    actions = tuple(ControlAction() for _ in range(n))
    states = tuple(StorageState(*params.s_init) for _ in range(n + 1))
    return Trajectory(actions, states)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(-0.1, 0.8, 1.0, 1)
        with pytest.raises(ValueError):
            SystemParams(0.9, 1.2, 1.0, 1)
        with pytest.raises(ValueError):
            SystemParams(0.9, 0.8, -1.0, 1)
        with pytest.raises(ValueError):
            SystemParams(0.9, 0.8, 1.0, 0)
        with pytest.raises(ValueError):
            SystemParams(0.9, 0.8, 1.0, 1, (0.0, 2.0))
        with pytest.raises(ValueError, match="n_slots must be an integer"):
            SystemParams(0.9, 0.8, 1.0, 2.5)

    @pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, "3", None])
    def test_non_integer_slot_count_rejected(self, bad):
        with pytest.raises(ValueError, match="n_slots must be an integer"):
            SystemParams(0.9, 0.8, 1.0, bad)

    def test_numpy_integer_slot_count_accepted(self):
        assert SystemParams(0.9, 0.8, 1.0, np.int64(3)).n_slots == 3

    def test_nan_s_max_names_s_max(self):
        with pytest.raises(ValueError, match="s_max must be"):
            SystemParams(0.9, 0.8, math.nan, 1)

    def test_profile_lengths(self):
        with pytest.raises(LengthMismatch):
            NetEnergyProfile(e1=(1.0,), e2=(1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_init_rejected(self, bad):
        # an infinite s_max stays allowed: both planners plan with it
        SystemParams(0.9, 0.8, math.inf, 3)
        with pytest.raises(ValueError, match="s_init must be finite"):
            SystemParams(0.9, 0.8, math.inf, 3, (bad, 0.0))
        with pytest.raises(ValueError, match="s_init must be finite"):
            SystemParams(0.9, 0.8, math.inf, 3, (0.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_profile_non_finite_names_slot(self, bad):
        # the message names the first bad slot
        with pytest.raises(ValueError,
                           match=rf"^e1\[1\] is not finite: {bad}$"):
            NetEnergyProfile(e1=(0.0, bad, math.nan), e2=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError,
                           match=rf"^e2\[0\] is not finite: {bad}$"):
            NetEnergyProfile(e1=(0.0, 0.0), e2=(bad, 0.0))

    def test_profile_values_are_floats(self):
        prof = NetEnergyProfile(e1=[1, "2.5"], e2=(np.float64(3.0), -0.0))
        assert prof.e1 == (1.0, 2.5) and prof.e2 == (3.0, -0.0)
        assert all(type(v) is float for v in prof.e1 + prof.e2)


class TestRecords:
    def test_field_order_and_defaults(self):
        assert ControlAction._fields == ACTION_FIELDS
        assert ControlAction() == (0.0,) * 8
        assert StorageState._fields == ("s1", "s2")
        with pytest.raises(TypeError):
            StorageState(1.0)

    def test_keyword_construction(self):
        act = ControlAction(x12=math.nan)
        assert math.isnan(act.x12)
        assert act.as_tuple()[:6] == (0.0,) * 6 and act.x21 == 0.0
        assert ControlAction(1.0, 2.0, d2=3.0).as_tuple() == (
            1.0, 2.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0)
        assert StorageState(s2=2.0, s1=1.0) == StorageState(1.0, 2.0)

    @pytest.mark.parametrize("record, field", [
        (ControlAction(), "w1"), (ControlAction(), "x21"),
        (StorageState(0.0, 0.0), "s1"), (StorageState(0.0, 0.0), "s2")])
    def test_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        assert getattr(record, field) == 0.0

    def test_repr(self):
        assert repr(ControlAction(w1=1.5, x21=0.25)) == (
            "ControlAction(w1=1.5, w2=0.0, c1=0.0, c2=0.0, d1=0.0, d2=0.0, "
            "x12=0.0, x21=0.25)")
        assert repr(StorageState(0.5, 1.0)) == "StorageState(s1=0.5, s2=1.0)"

    def test_as_tuple_unpack_and_index(self):
        act = ControlAction(*(0.5 * k for k in range(8)))
        assert type(act.as_tuple()) is tuple
        assert act.as_tuple() == (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
        w1, w2, *_, x21 = act
        assert (w1, w2, x21, act[6]) == (act.w1, act.w2, act.x21, act.x12)
        state = StorageState(0.25, 0.75)
        assert state.as_tuple() == (0.25, 0.75) == tuple(state)
        assert type(state.as_tuple()) is tuple


class TestCheckFeasible:
    def test_zero_on_surplus(self):
        params = SystemParams(0.9, 0.8, 1.0, 3)
        prof = NetEnergyProfile(e1=(0.5, 0.0, 1.0), e2=(2.0, 0.1, 0.0))
        assert check_feasible(params, prof, zero_traj(params, 3)).ok

    def test_uncovered_deficit(self):
        params = SystemParams(0.9, 0.8, 1.0, 2)
        prof = NetEnergyProfile(e1=(0.0, -1.0), e2=(0.0, 0.0))
        report = check_feasible(params, prof, zero_traj(params, 2))
        assert not report.ok
        (v,) = report.violations
        assert v.constraint == "neutralization_1"
        assert v.slot == 1
        assert v.residual == pytest.approx(-1.0)

    def test_negative_action_flagged(self):
        params = SystemParams(0.9, 0.8, 1.0, 1)
        traj = Trajectory((ControlAction(w1=-0.5),),
                          (StorageState(0, 0), StorageState(0, 0)))
        prof = NetEnergyProfile(e1=(1.0,), e2=(1.0,))
        names = [v.constraint for v in
                 check_feasible(params, prof, traj).violations]
        assert names == ["nonneg_w1"]

    def test_length_mismatch(self):
        params = SystemParams(0.9, 0.8, 1.0, 2)
        prof = NetEnergyProfile(e1=(0.0,), e2=(0.0,))
        with pytest.raises(LengthMismatch):
            check_feasible(params, prof, zero_traj(params, 2))

    def test_each_constraint_family_flagged(self):
        params = SystemParams(0.9, 0.8, 1.0, 1)
        prof = NetEnergyProfile(e1=(5.0,), e2=(5.0,))
        broken = Trajectory(
            # discharge with empty storage, inconsistent dynamics, and a
            # terminal state over the capacity
            (ControlAction(d1=0.5, c2=2.0),),
            (StorageState(0.0, 0.0), StorageState(0.7, 1.4)))
        names = {v.constraint for v in
                 check_feasible(params, prof, broken).violations}
        assert "discharge_le_storage_1" in names
        assert "dynamics_1" in names      # 0.7 != 0 + 0 - 0.5
        assert "dynamics_2" in names      # 1.4 != 1.8
        assert "storage_upper_2" in names

    def test_nan_flagged_inf_headroom_passes(self):
        params = SystemParams(0.9, 0.8, 1.0, 2)
        prof = NetEnergyProfile(e1=(1.0, 1.0), e2=(-1.0, 0.5))
        traj = run_greedy(params, prof)
        actions = (traj.actions[0], ControlAction(x12=math.nan))
        broken = Trajectory(actions, traj.states)
        report = check_feasible(params, prof, broken)
        assert ("neutralization_1", 1) in {
            (v.constraint, v.slot) for v in report.violations}

    def test_wrong_initial_state_flagged(self):
        params = SystemParams(0.9, 0.8, 1.0, 1, (0.5, 0.0))
        prof = NetEnergyProfile(e1=(1.0,), e2=(1.0,))
        traj = Trajectory((ControlAction(),),
                          (StorageState(0.0, 0.0), StorageState(0.0, 0.0)))
        names = [v.constraint for v in
                 check_feasible(params, prof, traj).violations]
        assert "initial_state_s1" in names


def normalize_one(action, alpha):
    """``normalize_actions`` on a one-row block, as a ControlAction."""
    out = normalize_actions(np.array([action], dtype=float), alpha)
    assert out.shape == (1, 8)
    return ControlAction._make(out[0].tolist())


def random_block(rng, n):
    """Random action rows with every overlap pattern normalization meets:
    zeros, -0.0 and sign dust, ties alpha*c == d, and equal transfers."""
    block = rng.uniform(0.0, 5.0, (n, 8))
    block[rng.random((n, 8)) < 0.3] = 0.0
    block[rng.random((n, 8)) < 0.1] = -0.0
    dust = rng.random((n, 8)) < 0.1
    block[dust] = -rng.uniform(0.0, DEFAULT_TOL, dust.sum())
    equal = rng.random(n) < 0.2
    block[equal, 7] = block[equal, 6]
    return block


class TestNormalizeAction:
    def test_pure_charge_unchanged(self):
        act = ControlAction(c1=1.0)
        assert normalize_one(act, 0.9) == act

    @pytest.mark.parametrize("bad", [math.nan, -0.5])
    def test_negative_or_nan_field_rejected(self, bad):
        # max(0.0, nan) is 0.0, so a NaN field must fail the check instead
        with pytest.raises(ValueError, match="negative or NaN"):
            normalize_one(ControlAction(w1=1.0, d2=bad), 0.9)

    def test_rejection_shows_the_action(self):
        with pytest.raises(ValueError) as exc:
            normalize_one(ControlAction(w1=1.0, d2=-0.5), 0.9)
        assert str(exc.value) == (
            "cannot normalize a negative or NaN action: ControlAction(w1=1.0, "
            "w2=0.0, c1=0.0, c2=0.0, d1=0.0, d2=-0.5, x12=0.0, x21=0.0)")

    def test_rejection_names_the_first_bad_row(self):
        block = np.zeros((5, 8))
        block[2, 3] = math.nan
        block[4, 0] = -1.0
        with pytest.raises(ValueError, match=r"ControlAction\(w1=0.0, w2=0.0, "
                           r"c1=0.0, c2=nan, "):
            normalize_actions(block, 0.9)

    def test_input_left_untouched(self):
        block = np.array([[0.0, 0.0, 1.0, 0.0, 0.5, 0.0, 0.7, 0.7]])
        before = block.copy()
        normalize_actions(block, 0.9)
        assert np.array_equal(block, before)

    def test_opposing_transfers_cancel(self):
        act = normalize_one(ControlAction(x12=0.7, x21=0.7), 1.0)
        assert act.x12 == 0.0 and act.x21 == 0.0

    def test_overlap_cancels_exactly(self):
        # alpha*c == d: both sides vanish, net storage change stays zero
        before = ControlAction(c1=1.0, d1=0.9)
        after = normalize_one(before, 0.9)
        assert after.c1 == pytest.approx(0.0)
        assert after.d1 == pytest.approx(0.0)
        net_before = 0.9 * before.c1 - before.d1
        net_after = 0.9 * after.c1 - after.d1
        assert net_after == pytest.approx(net_before, abs=1e-12)
        r_before = neutralization_residuals(P, 1.0, 0.0, before)
        r_after = neutralization_residuals(P, 1.0, 0.0, after)
        assert r_after[0] >= r_before[0] - 1e-12
        assert r_after[0] == pytest.approx(r_before[0] + 0.19, abs=1e-12)

    def test_negative_zero_and_dust_become_positive_zero(self):
        block = np.array([[-0.0, -1e-7, -0.0, -DEFAULT_TOL, 0.0, -0.0,
                           -0.0, -5e-324]])
        out = normalize_actions(block, 0.9)
        assert np.array_equal(out, np.zeros((1, 8)))
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("alpha", [0.0, 1e-300, 5e-324, 0.3, 0.625,
                                       0.85, 0.9, 1.0])
    def test_blocks_match_scalar_reference(self, alpha):
        # bit for bit, sign of zero included, against the per-action
        # reference; a tiny alpha must not warn about d / alpha either
        rng = np.random.default_rng(int(alpha * 1000) + 7)
        for n in (1, 2, 17, 300):
            block = random_block(rng, n)
            if alpha > 0.0:
                ties = rng.random(n) < 0.2
                block[ties, 4] = alpha * block[ties, 2]
            out = normalize_actions(block, alpha)
            want = np.array([normalize_action_ref(ControlAction(*row), alpha)
                             for row in block.tolist()])
            assert np.array_equal(out, want)
            assert np.array_equal(np.signbit(out), np.signbit(want))
            assert not np.signbit(out).any()

    @given(alpha=st.floats(0.0, 1.0), beta=st.floats(0.0, 1.0),
           rows=st.lists(st.tuples(*[finite] * 6), min_size=1, max_size=6))
    @settings(max_examples=300)
    # d / alpha rounding above c used to leave a negative charge
    @example(alpha=0.85, beta=1.0, rows=[(1.43, 0.85 * 1.43, 0.0, 0.0,
                                          0.0, 0.0)])
    @example(alpha=0.625, beta=0.0, rows=[(0.0, 0.0, 5e-324, 5e-324,
                                           0.0, 0.0)])
    @example(alpha=1e-300, beta=0.5, rows=[(1.0, 2.0, 3.0, 1e-301,
                                            4.0, 4.0)])
    def test_invariants(self, alpha, beta, rows):
        params = SystemParams(alpha, beta, 10.0, 1)
        block = np.array([(1.0, 1.0, c1, c2, d1, d2, x12, x21)
                          for c1, d1, c2, d2, x12, x21 in rows])
        out = normalize_actions(block, alpha)
        assert out.shape == block.shape
        assert (out >= 0.0).all() and not np.signbit(out).any()
        # complementarity
        assert (out[:, 2:4] * out[:, 4:6] <= 1e-9).all()
        assert (out[:, 6] * out[:, 7] <= 1e-9).all()
        for before, after in zip(map(ControlAction._make, block.tolist()),
                                 map(ControlAction._make, out.tolist())):
            # net storage deltas preserved
            for c_b, d_b, c_a, d_a in (
                    (before.c1, before.d1, after.c1, after.d1),
                    (before.c2, before.d2, after.c2, after.d2)):
                assert alpha * c_a - d_a == pytest.approx(
                    alpha * c_b - d_b, abs=1e-9)
            # balance slack never decreases; exact when lossless
            rb = neutralization_residuals(params, 0.0, 0.0, before)
            ra = neutralization_residuals(params, 0.0, 0.0, after)
            assert ra[0] >= rb[0] - 1e-9 and ra[1] >= rb[1] - 1e-9
            if alpha == 1.0 and beta == 1.0:
                assert ra[0] == pytest.approx(rb[0], abs=1e-9)
                assert ra[1] == pytest.approx(rb[1], abs=1e-9)
        # a normalized block is a fixed point
        assert np.array_equal(normalize_actions(out, alpha), out)


class TestTotalCost:
    def test_zero(self):
        assert total_cost(zero_traj(P, 1)) == 0.0

    def test_constant_draw(self):
        params = SystemParams(0.9, 0.8, 1.0, 240)
        actions = tuple(ControlAction(w1=1.0, w2=1.0) for _ in range(240))
        states = tuple(StorageState(0, 0) for _ in range(241))
        traj = Trajectory(actions, states)
        assert total_cost(traj) == pytest.approx(480.0)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        prof = NetEnergyProfile(e1=(1.0, -0.25), e2=(0.5, 1 / 3))
        actions = (ControlAction(w1=0.125, c1=0.5),
                   ControlAction(d1=0.45, x12=math.pi / 10))
        # under alpha = 0.9, c1 = 0.5 stores 0.45 and d1 = 0.45 takes it out
        states = (StorageState(0.0, 0.0), StorageState(0.45, 0.0),
                  StorageState(0.0, 0.0))
        traj = Trajectory(actions, states, cases=("1", "2A"))
        path = tmp_path / "traj.csv"
        save_trajectory(traj, prof, path, with_cases=True)
        with open(path, newline="") as fh:
            header, *body, final = csv.reader(fh)
        assert header == [*TRAJECTORY_HEADER, "case"] == [
            "t", "E1", "E2", "w1", "w2", "c1", "c2", "d1", "d2", "x12", "x21",
            "s1", "s2", "case"]
        assert [int(row[0]) for row in body] == [0, 1]
        for t, row in enumerate(body):
            assert (float(row[1]), float(row[2])) == (prof.e1[t], prof.e2[t])
            assert ControlAction(*map(float, row[3:11])) == traj.actions[t]
            assert StorageState(*map(float, row[11:13])) == traj.states[t]
            assert row[13] == traj.cases[t]
        assert StorageState(*map(float, final[11:13])) == traj.states[-1]

    def test_final_row_is_terminal_state(self, tmp_path):
        params = SystemParams(0.9, 0.8, 1.0, 1)
        prof = NetEnergyProfile(e1=(1.0,), e2=(0.0,))
        traj = Trajectory(
            (ControlAction(c1=1.0),),
            (StorageState(0, 0), StorageState(0.9, 0.0)))
        path = tmp_path / "traj.csv"
        save_trajectory(traj, prof, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        last = lines[-1].split(",")
        assert last[0] == "1"
        assert last[1] == "" and last[10] == ""
        assert float(last[11]) == 0.9
