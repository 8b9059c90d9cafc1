"""Hybrid planner: residual bookkeeping, superposition, caps, causality."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    run_greedy,
    run_hybrid_stream,
    sinusoid,
    total_cost,
)
from energycoop.model import neutralization_residuals

from helpers import digest, hex_fields, hybrid_stream_ref

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


class CountedStream:
    """``items``, then ``end`` raised on every later read; counts every
    read, also those after the end."""

    def __init__(self, items, end=StopIteration):
        self.items, self.end, self.reads = list(items), end, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.reads += 1
        if self.reads > len(self.items):
            raise self.end
        return self.items[self.reads - 1]


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

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_stream_matches_slot_reference(self, data):
        # bit for bit, on a planned offline component or on an arbitrary
        # one whose storage path forces releases in most draws; s_max -0.0
        # gives caps of -0.0 before max(0.0, .) makes them 0.0
        n = data.draw(st.integers(1, 8), label="n")
        alpha, beta = (data.draw(st.floats(0.05, 1.0), label=name)
                       for name in ("alpha", "beta"))
        s_max = data.draw(st.sampled_from([0.0, -0.0, 1.0, 3.5])
                          | st.floats(0.0, 4.0), label="s_max")
        share = st.floats(0.0, 1.0)
        s_init = tuple(data.draw(share, label="s_init") * s_max
                       for _ in range(2))
        params = SystemParams(alpha, beta, s_max, n, s_init)
        energy = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
        det = NetEnergyProfile(data.draw(energy, label="e1"),
                               data.draw(energy, label="e2"))
        noise = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
        realized = NetEnergyProfile(
            *([e + z for e, z in zip(es, data.draw(noise, label="noise"))]
              for es in (det.e1, det.e2)))
        if data.draw(st.booleans(), label="planned"):
            offline = plan_offline(params, det)
        else:
            offline = Trajectory(
                tuple(ControlAction(*data.draw(st.lists(
                    st.floats(0.0, 2.0), min_size=8, max_size=8)))
                    for _ in range(n)),
                (StorageState(*s_init), *(StorageState(
                    data.draw(share) * s_max, data.draw(share) * s_max)
                    for _ in range(n))))
        result = run_hybrid_stream(params, det,
                                   zip(realized.e1, realized.e2),
                                   offline_traj=offline)
        combined, greedy, energies = hybrid_stream_ref(params, offline,
                                                       realized)
        assert hex_fields(result.combined) == hex_fields(combined)
        assert hex_fields(result.greedy) == hex_fields(greedy)
        assert result.offline is offline
        got = (result.greedy_profile.e1, result.greedy_profile.e2)
        assert ([list(map(float.hex, e)) for e in got]
                == [list(map(float.hex, e)) for e in energies])

    def test_stream_is_pinned_bit_for_bit(self):
        # the offline component is the forecast's greedy rollout, not an
        # LP plan, so the digest does not move with the LP solver; its
        # charges shrink the caps and force releases in 38 of its slots
        params = SystemParams(0.9, 0.8, 3.5, 480)
        det = sinusoid(5.0, OMEGA, 3 * math.pi / 4, 480)
        realized = add_gaussian_noise(det, 0.125, 5)
        plan = run_greedy(params, det)
        result = run_hybrid_stream(params, det, zip(realized.e1, realized.e2),
                                   offline_traj=plan)
        assert digest(result.combined, result.greedy,
                      result.greedy_profile.e1, result.greedy_profile.e2) == (
            "fdb1922b67df63f16d1cbed1f5c614005b767e7b74cbec213a86c802c418b03c")
        assert {"2B.2", "3B.2", "4-1"} <= set(result.greedy.cases)

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
        with pytest.raises(LengthMismatch, match="^realized energies ended "
                                                 "at slot 10, want 24$"):
            run_hybrid_stream(params, det,
                              iter([(0.0, 0.0)] * 10))

    def test_long_stream_raises(self):
        # the stream is read once more only after the last slot is decided;
        # whatever that read yields, None too, is one slot too many
        det = sinusoid(5.0, OMEGA, 1.0, 24)
        params = SystemParams(0.9, 0.8, 3.5, 24)
        for extra in ((0.0, 0.0), None):
            stream = CountedStream([(0.0, 0.0)] * 24 + [extra, (1.0, 1.0)])
            with pytest.raises(LengthMismatch, match="past 24 slots"):
                run_hybrid_stream(params, det, stream)
            assert stream.reads == 25

    @pytest.mark.parametrize("k", [0, 1, 10, 23, 24])
    def test_stream_read_counts(self, k):
        # k items of 24: read k + 1 times, and a short stream names slot k
        det = sinusoid(5.0, OMEGA, 1.0, 24)
        params = SystemParams(0.9, 0.8, 3.5, 24)
        stream = CountedStream([(0.5, -0.5)] * k)
        if k == 24:
            result = run_hybrid_stream(params, det, stream)
            assert result.combined.n_slots == 24
        else:
            with pytest.raises(LengthMismatch,
                               match=f"^realized energies ended at slot {k},"):
                run_hybrid_stream(params, det, stream)
        assert stream.reads == k + 1

    @pytest.mark.parametrize("k", [0, 10, 24])
    def test_stream_error_propagates(self, k):
        # read k + 1 raising the stream's own error, also the read after
        # the last slot, surfaces unchanged and ends the reads
        class FeedDown(Exception):
            pass

        det = sinusoid(5.0, OMEGA, 1.0, 24)
        params = SystemParams(0.9, 0.8, 3.5, 24)
        error = FeedDown("sensor offline")
        stream = CountedStream([(0.5, -0.5)] * k, end=error)
        with pytest.raises(FeedDown) as info:
            run_hybrid_stream(params, det, stream)
        assert info.value is error
        assert stream.reads == k + 1

    def test_signed_zero_initial_state(self):
        # combined.states[0] is the plan's plus the greedy layer's 0.0, and
        # -0.0 + 0.0 is 0.0
        params = SystemParams(0.9, 0.8, 1.0, 2)
        det = NetEnergyProfile(e1=(0.5, -0.5), e2=(-0.5, 0.5))
        zero = StorageState(0.0, 0.0)
        plan = Trajectory((ControlAction(),) * 2,
                          (StorageState(-0.0, -0.0), zero, zero))
        result = run_hybrid_stream(params, det, zip(det.e1, det.e2),
                                   offline_traj=plan)
        assert [float.hex(s) for s in result.combined.states[0]] == [
            "0x0.0p+0", "0x0.0p+0"]
        assert type(result.combined.states[0]) is StorageState

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
        with pytest.raises(ValueError) as exc:
            run_hybrid_stream(params, det, zip(det.e1, det.e2))
        assert str(exc.value) == (
            "mode 'standard' needs alpha > 0, beta > 0 and alpha * beta > 0, "
            f"got alpha = {alpha}, beta = {beta}, alpha * beta = 0.0")

    def test_underflowing_efficiency_product_rejected_before_planning(
            self, monkeypatch):
        def no_plan(*args):
            raise AssertionError("planned offline before checking the mode")

        monkeypatch.setattr("energycoop.hybrid.plan_offline", no_plan)
        params = SystemParams(1e-170, 1e-170, 1.0, 24)
        det = sinusoid(3.0, OMEGA, 1.0, 24)
        with pytest.raises(ValueError) as exc:
            run_hybrid_stream(params, det, zip(det.e1, det.e2))
        assert str(exc.value) == (
            "mode 'standard' needs alpha > 0, beta > 0 and alpha * beta > 0, "
            "got alpha = 1e-170, beta = 1e-170, alpha * beta = 0.0")

    def test_decomposed_validation(self):
        with pytest.raises(LengthMismatch):
            DecomposedProfile(sinusoid(1.0, OMEGA, 0.0, 4),
                              sinusoid(1.0, OMEGA, 0.0, 5))
