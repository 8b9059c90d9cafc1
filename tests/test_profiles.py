"""Profile generation, seeded noise, and CSV round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energycoop import NetEnergyProfile, add_gaussian_noise, sinusoid
from energycoop.profiles import ParseError, load_profile
from helpers import save_profile

OMEGA = 2 * math.pi / 24


def test_zero_shift_identical():
    prof = sinusoid(3.0, OMEGA, 0.0, 48)
    assert prof.e1 == prof.e2


def test_pi_shift_negates():
    prof = sinusoid(3.0, OMEGA, math.pi, 48)
    for a, b in zip(prof.e1, prof.e2):
        assert b == pytest.approx(-a, abs=1e-12)


def test_reference_value_quarter_period():
    # peak of a 24-slot period sits at slot 6
    prof = sinusoid(3.0, OMEGA, 0.0, 240)
    assert prof.e1[6] == pytest.approx(3.0, abs=1e-12)
    assert prof.e1[18] == pytest.approx(-3.0, abs=1e-12)


@pytest.mark.parametrize("name", ["amplitude", "omega", "theta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_argument_named(name, bad):
    kw = dict(amplitude=3.0, omega=OMEGA, theta=0.5)
    kw[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        sinusoid(n_slots=24, **kw)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", 0, -1])
def test_non_integer_or_empty_slot_count_rejected(bad):
    with pytest.raises(ValueError, match="n_slots must be an integer >= 1"):
        sinusoid(3.0, OMEGA, 0.5, bad)


def test_numpy_integer_slot_count_accepted():
    assert sinusoid(3.0, OMEGA, 0.5, np.int64(3)).n_slots == 3


@given(theta=st.floats(-10.0, 10.0))
@settings(max_examples=100)
def test_periodicity_in_theta(theta):
    a = sinusoid(2.0, OMEGA, theta, 24)
    b = sinusoid(2.0, OMEGA, theta + 2 * math.pi, 24)
    for x, y in zip(a.e2, b.e2):
        assert y == pytest.approx(x, abs=1e-12)


class TestNoise:
    def test_zero_scale_identity(self):
        prof = sinusoid(3.0, OMEGA, 1.0, 30)
        noisy = add_gaussian_noise(prof, 0.0, seed=5)
        assert noisy.e1 == prof.e1 and noisy.e2 == prof.e2

    def test_same_seed_same_bytes(self):
        prof = sinusoid(3.0, OMEGA, 1.0, 240)
        a = add_gaussian_noise(prof, 0.125, seed=42)
        b = add_gaussian_noise(prof, 0.125, seed=42)
        assert a.e1 == b.e1 and a.e2 == b.e2

    def test_different_seeds_differ(self):
        prof = sinusoid(3.0, OMEGA, 1.0, 240)
        a = add_gaussian_noise(prof, 0.125, seed=1)
        b = add_gaussian_noise(prof, 0.125, seed=2)
        assert a.e1 != b.e1

    def test_sample_mean_bound(self):
        # mean of 480 iid draws scaled by 0.125 stays within 3 sigma
        prof = NetEnergyProfile(e1=(0.0,) * 240, e2=(0.0,) * 240)
        noisy = add_gaussian_noise(prof, 0.125, seed=2024)
        draws = np.concatenate([noisy.e1, noisy.e2])
        assert abs(draws.mean()) <= 3 * 0.125 / math.sqrt(480)

    def test_unit_variance_sanity(self):
        prof = NetEnergyProfile(e1=(0.0,) * 5000, e2=(0.0,) * 5000)
        noisy = add_gaussian_noise(prof, 1.0, seed=9)
        draws = np.concatenate([noisy.e1, noisy.e2])
        assert draws.std() == pytest.approx(1.0, abs=0.05)
        assert abs(draws.mean()) <= 0.05

    def test_zero_scale_returns_profile(self):
        prof = sinusoid(3.0, OMEGA, 1.0, 30)
        assert add_gaussian_noise(prof, 0.0, seed=5) is prof


class TestCsv:
    def test_round_trip_net_form(self, tmp_path):
        prof = sinusoid(3.0, OMEGA, 0.7, 50)
        path = tmp_path / "profile.csv"
        save_profile(prof, path)
        again = load_profile(path)
        for a, b in zip(prof.e1 + prof.e2, again.e1 + again.e2):
            assert b == pytest.approx(a, abs=1e-12)

    def test_re_de_net_definition(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("t,RE1,DE1,RE2,DE2\n0,2.0,0.5,1.0,3.0\n")
        prof = load_profile(path)
        assert prof.e1 == (1.5,)
        assert prof.e2 == (-2.0,)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("t,E1,E2\n0,1.0,2.0\n1,oops,2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_profile(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("t,E1,E2\n0,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_profile(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_field_names_line(self, tmp_path, text):
        path = tmp_path / "profile.csv"
        path.write_text(f"t,E1,E2\n0,1.0,2.0\n1,1.0,{text}\n")
        with pytest.raises(ParseError, match="line 3"):
            load_profile(path)

    @pytest.mark.parametrize("rows, line", [
        ("0,1.0,2.0\n2,1.0,2.0\n1,1.0,2.0\n", 3),  # out of order
        ("0,1.0,2.0\n0,1.0,2.0\n", 3),  # duplicate
        ("1,1.0,2.0\n2,1.0,2.0\n", 2),  # 1-based
        ("5,1.0,2.0\n0,1.0,2.0\n5,1.0,2.0\n", 2),
    ], ids=["out_of_order", "duplicate", "one_based", "unrelated"])
    def test_t_must_count_rows(self, tmp_path, rows, line):
        path = tmp_path / "profile.csv"
        path.write_text("t,E1,E2\n" + rows)
        with pytest.raises(ParseError, match=f"line {line}: t is "):
            load_profile(path)

    def test_t_rule_skips_blank_rows(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("t,RE1,DE1,RE2,DE2\n0,1.0,0.0,1.0,0.0\n\n"
                        "1,0.0,1.0,0.0,1.0\n")
        assert load_profile(path).e1 == (1.0, -1.0)

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError, match="line 1"):
            load_profile(path)

    def test_negative_renewable_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        for row in ("1,-1.0,0.0,0.0,0.0", "1,0.0,0.0,0.0,-0.5"):
            path.write_text(f"t,RE1,DE1,RE2,DE2\n0,2.0,0.5,1.0,3.0\n{row}\n")
            with pytest.raises(ParseError, match="line 3: RE and DE must be"):
                load_profile(path)

    def test_re_de_form_saved_as_net(self, tmp_path):
        src, out = tmp_path / "split.csv", tmp_path / "net.csv"
        src.write_text("t,RE1,DE1,RE2,DE2\n0,1.0,0.5,0.0,2.0\n"
                       "1,2.5,0.25,1.0,0.125\n")
        prof = load_profile(src)
        save_profile(prof, out)
        assert out.read_text().splitlines()[0] == "t,E1,E2"
        again = load_profile(out)
        assert again.e1 == prof.e1 == (0.5, 2.25)
        assert again.e2 == prof.e2 == (-2.0, 0.875)
