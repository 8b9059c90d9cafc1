"""Hybrid planner: residual bookkeeping, superposition, caps, causality."""

import math
from dataclasses import replace

import pytest

from energycoop import (
    ControlAction,
    DecomposedProfile,
    LengthMismatch,
    NetEnergyProfile,
    StorageState,
    SystemParams,
    Trajectory,
    add_gaussian_noise,
    check_feasible,
    plan_offline,
    residual_profile,
    run_hybrid_stream,
    sinusoid,
    total_cost,
)
from energycoop.model import neutralization_residuals

OMEGA = 2 * math.pi / 24
SECT5 = SystemParams(0.9, 0.8, 3.5, 240)


def sect5_profiles(theta, seed):
    det = sinusoid(5.0, OMEGA, theta, 240)
    return DecomposedProfile(det, add_gaussian_noise(det, 0.125, seed))


class TestResidualProfile:
    def test_zero_noise_equals_offline_slack(self):
        det = sinusoid(5.0, OMEGA, math.pi / 2, 48)
        params = SystemParams(0.9, 0.8, 3.5, 48)
        traj = plan_offline(params, det)
        res = residual_profile(DecomposedProfile(det, det), traj, params)
        for t in range(48):
            slack = neutralization_residuals(
                params, det.e1[t], det.e2[t], traj.actions[t])
            assert res.e1[t] == pytest.approx(slack[0], abs=1e-12)
            assert res.e2[t] == pytest.approx(slack[1], abs=1e-12)
            assert res.e1[t] >= -1e-9 and res.e2[t] >= -1e-9

    def test_zero_offline_passthrough(self):
        n = 5
        det = NetEnergyProfile(e1=(0.0,) * n, e2=(0.0,) * n)
        realized = NetEnergyProfile(e1=(1.0, -1.0, 0.5, 0.0, 2.0),
                                    e2=(0.0, 0.25, -2.0, 1.0, -0.5))
        zero = Trajectory(tuple(ControlAction() for _ in range(n)),
                          tuple(StorageState(0, 0) for _ in range(n + 1)))
        res = residual_profile(DecomposedProfile(det, realized), zero,
                               SystemParams(0.9, 0.8, 1.0, n))
        assert res.e1 == realized.e1
        assert res.e2 == realized.e2

    def test_residual_identity_sect5(self):
        # E_g - E_r - slack_d sums to zero per station by construction
        decomposed = sect5_profiles(math.pi / 2, seed=42)
        traj = plan_offline(SECT5, decomposed.deterministic)
        res = residual_profile(decomposed, traj, SECT5)
        det, realized = decomposed.deterministic, decomposed.realized
        total1 = total2 = 0.0
        for t in range(240):
            slack = neutralization_residuals(
                SECT5, det.e1[t], det.e2[t], traj.actions[t])
            total1 += res.e1[t] - (realized.e1[t] - det.e1[t]) - slack[0]
            total2 += res.e2[t] - (realized.e2[t] - det.e2[t]) - slack[1]
        assert total1 == pytest.approx(0.0, abs=1e-9)
        assert total2 == pytest.approx(0.0, abs=1e-9)

    def test_length_mismatch(self):
        det = sinusoid(1.0, OMEGA, 0.0, 4)
        traj = Trajectory(
            tuple(ControlAction() for _ in range(3)),
            tuple(StorageState(0, 0) for _ in range(4)))
        with pytest.raises(LengthMismatch):
            residual_profile(DecomposedProfile(det, det), traj,
                             SystemParams(0.9, 0.8, 1.0, 4))


class TestRunHybrid:
    def test_zero_residual_matches_offline(self):
        det = sinusoid(5.0, OMEGA, math.pi / 2, 72)
        params = SystemParams(0.9, 0.8, 3.5, 72)
        combined = run_hybrid_stream(
            params, det, zip(det.e1, det.e2)).combined
        offline = plan_offline(params, det)
        assert total_cost(combined) == pytest.approx(
            total_cost(offline), abs=1e-6)
        assert check_feasible(params, det, combined).ok

    @staticmethod
    def check_superposition(s_init):
        params = replace(SECT5, s_init=s_init)
        decomposed = sect5_profiles(math.pi / 2, seed=3)
        result = run_hybrid_stream(
            params, decomposed.deterministic,
            zip(decomposed.realized.e1, decomposed.realized.e2))
        for t in range(240):
            comb = result.combined.actions[t].as_tuple()
            off = result.offline.actions[t].as_tuple()
            gre = result.greedy.actions[t].as_tuple()
            for a, b, c in zip(comb, off, gre):
                assert a == b + c
        for t in range(241):
            comb = result.combined.states[t]
            off, gre = result.offline.states[t], result.greedy.states[t]
            assert comb.s1 == off.s1 + gre.s1
            assert comb.s2 == off.s2 + gre.s2
        assert result.combined.states[0] == StorageState(*s_init)
        assert result.combined.cases == result.greedy.cases
        assert len(result.combined.cases) == 240

    def test_superposition_fields_are_exact_sums(self):
        self.check_superposition((0.0, 0.0))

    def test_superposition_with_stored_initial_energy(self):
        self.check_superposition((1.0, 2.5))

    def test_feasible_and_partitioned_many_seeds(self):
        # storage partition and realized-profile feasibility, 200 seeds
        theta = 2 * math.pi / 3
        det = sinusoid(5.0, OMEGA, theta, 240)
        offline = plan_offline(SECT5, det)
        for seed in range(200):
            realized = add_gaussian_noise(det, 0.125, seed)
            result = run_hybrid_stream(
                SECT5, det, zip(realized.e1, realized.e2),
                offline_traj=offline)
            assert check_feasible(SECT5, realized, result.combined).ok
            for t in range(241):
                assert (result.offline.states[t].s1
                        + result.greedy.states[t].s1) <= SECT5.s_max + 1e-6
                assert (result.offline.states[t].s2
                        + result.greedy.states[t].s2) <= SECT5.s_max + 1e-6

    def test_greedy_component_feasible_against_residual(self):
        decomposed = sect5_profiles(0.0, seed=11)
        result = run_hybrid_stream(
            SECT5, decomposed.deterministic,
            zip(decomposed.realized.e1, decomposed.realized.e2))
        for t in range(240):
            act = result.greedy.actions[t]
            r1, r2 = neutralization_residuals(
                SECT5, result.greedy_profile.e1[t],
                result.greedy_profile.e2[t], act)
            assert r1 >= -1e-9 and r2 >= -1e-9

    def test_cap_shrink_forced_release(self):
        # offline charges in slot 1, squeezing out greedy-held storage
        params = SystemParams(0.9, 0.8, 1.0, 2)
        det = NetEnergyProfile(e1=(0.0, 2.0), e2=(0.0, 0.0))
        offline = plan_offline(params, det)
        assert offline.states[2].s1 == pytest.approx(1.0, abs=1e-6)
        realized = NetEnergyProfile(e1=(1.5, 2.0), e2=(0.0, 0.0))
        result = run_hybrid_stream(
            params, det, zip(realized.e1, realized.e2),
            offline_traj=offline)
        # the greedy layer banked residual surplus in slot 0 ...
        assert result.greedy.states[1].s1 > 0.5
        # ... and must give it back in slot 1 as a forced discharge
        assert result.greedy.actions[1].d1 > 0.0
        assert check_feasible(params, realized, result.combined).ok
        final = result.combined.states[2]
        assert final.s1 <= params.s_max + 1e-6

    def test_causal_streaming(self):
        det = sinusoid(5.0, OMEGA, 1.0, 24)
        params = SystemParams(0.9, 0.8, 3.5, 24)
        realized = add_gaussian_noise(det, 0.125, 1)
        seen = []

        def feed():
            for t in range(24):
                seen.append(t)
                yield realized.e1[t], realized.e2[t]

        result = run_hybrid_stream(params, det, feed())
        assert seen == list(range(24))
        assert result.combined.n_slots == 24

    def test_short_stream_raises(self):
        det = sinusoid(5.0, OMEGA, 1.0, 24)
        params = SystemParams(0.9, 0.8, 3.5, 24)
        with pytest.raises(LengthMismatch):
            run_hybrid_stream(params, det,
                              iter([(0.0, 0.0)] * 10))

    def test_long_stream_raises(self):
        # the stream is read once more only after the last slot is decided
        det = sinusoid(5.0, OMEGA, 1.0, 24)
        params = SystemParams(0.9, 0.8, 3.5, 24)
        seen = []

        def feed():
            for t in range(100):
                seen.append(t)
                yield 0.0, 0.0

        with pytest.raises(LengthMismatch, match="past 24 slots"):
            run_hybrid_stream(params, det, feed())
        assert seen == list(range(25))

    @pytest.mark.parametrize("n_plan", [12, 48])
    def test_offline_traj_length_checked(self, n_plan):
        det = sinusoid(5.0, OMEGA, 1.0, 24)
        plan = plan_offline(SystemParams(0.9, 0.8, 3.5, n_plan),
                            sinusoid(5.0, OMEGA, 1.0, n_plan))
        with pytest.raises(LengthMismatch, match=(
                f"^offline trajectory has {n_plan} slots, want 24$")):
            run_hybrid_stream(SystemParams(0.9, 0.8, 3.5, 24), det,
                              zip(det.e1, det.e2), offline_traj=plan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_realized_rejected(self, bad):
        det = sinusoid(5.0, OMEGA, 1.0, 24)
        params = SystemParams(0.9, 0.8, 3.5, 24)
        slots = [(0.0, 0.0)] * 24
        slots[5] = (1.0, bad)
        with pytest.raises(ValueError, match="slot 5"):
            run_hybrid_stream(params, det, iter(slots))

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.8), (0.9, 0.0)])
    def test_zero_efficiency_rejected_before_planning(self, alpha, beta,
                                                      monkeypatch):
        def no_plan(*args):
            raise AssertionError("planned offline before checking the mode")

        monkeypatch.setattr("energycoop.hybrid.plan_offline", no_plan)
        params = SystemParams(alpha, beta, 1.0, 24)
        det = sinusoid(3.0, OMEGA, 1.0, 24)
        with pytest.raises(ValueError, match="needs alpha > 0 and beta > 0"):
            run_hybrid_stream(params, det, zip(det.e1, det.e2))

    def test_decomposed_validation(self):
        with pytest.raises(LengthMismatch):
            DecomposedProfile(sinusoid(1.0, OMEGA, 0.0, 4),
                              sinusoid(1.0, OMEGA, 0.0, 5))
