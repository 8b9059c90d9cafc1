"""Profile generation, seeded noise, and CSV round trips."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from energycoop import NetEnergyProfile, add_gaussian_noise, sinusoid
from energycoop.profiles import (ParseError, _inv_cdf, _standard_normals,
                                 load_profile)
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
    with pytest.raises(ValueError) as exc:
        sinusoid(3.0, OMEGA, 0.5, bad)
    assert str(exc.value) == f"n_slots={bad!r}: want an integer >= 1"


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

    @pytest.mark.parametrize("scale", [0.0, 0.125])
    @pytest.mark.parametrize("seed", [True, 1.5, "3", -1])
    def test_bad_seed_named(self, seed, scale):
        # numpy took True as seed 1, raised its own TypeError for 1.5 and
        # "3", and rejected -1 without naming the seed
        prof = sinusoid(3.0, OMEGA, 1.0, 24)
        with pytest.raises(ValueError) as exc:
            add_gaussian_noise(prof, scale, seed)
        assert str(exc.value) == f"seed={seed!r}: want an integer >= 0"

    def test_numpy_integer_seed_taken(self):
        prof = sinusoid(3.0, OMEGA, 1.0, 24)
        assert (add_gaussian_noise(prof, 0.125, np.int64(3))
                == add_gaussian_noise(prof, 0.125, 3))


def _pinned_uniforms(seed, shape):
    words = np.random.Generator(np.random.PCG64(seed)).integers(
        0, 2 ** 64, size=shape, dtype=np.uint64, endpoint=False)
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


# The stdlib's inverse CDF (Wichura's AS241) and cephes ndtri are two
# rational approximations, each within about an ulp of the true quantile,
# with a few roundings and, in the tails, one libm log each; measured, they
# differ by at most 7 ulps (1.2e-15 of max(1, |z|)).  8 eps of max(1, |z|)
# leaves that room and still fails a wrong branch, sign or coefficient.
_NDTRI_TOL = 8 * np.finfo(float).eps


def _near_ndtri(z, u):
    want = ndtri(u)
    return z.shape == want.shape and bool(np.all(
        np.abs(z - want) <= _NDTRI_TOL * np.maximum(1.0, np.abs(want))))


def test_first_draws_are_pinned():
    # a seed names one realization byte for byte, in C order over shape
    want = {0: ["0x1.66c1f2a4fbb69p-2", "-0x1.3a1730bdfda1fp-1",
                "-0x1.bd4fcc8e168d1p+0", "-0x1.10d2160e350fep+1"],
            1: ["0x1.e5919128ee116p-6", "0x1.a63cdf41ba9a0p+0",
                "-0x1.0fd32c5bbc864p+0", "0x1.a1c406dc87b2cp+0"]}
    for seed, hexes in want.items():
        z = _standard_normals(seed, (2, 2))
        assert [float.hex(v) for v in z.ravel().tolist()] == hexes


def test_normals_match_scipy_ndtri():
    # scipy.special is the tests' oracle: 2**20 uniforms of the pinned
    # construction, as _standard_normals makes them
    for seed, shape in ((0, (2 ** 20,)), (7, (2, 4096))):
        assert _near_ndtri(_standard_normals(seed, shape),
                           _pinned_uniforms(seed, shape))


def test_inverse_cdf_tails_and_branch_points_match_scipy_ndtri():
    # 2001 mantissas in every binade of each tail: down to 2**-54, the
    # smallest uniform, and up to 1 - 2**-53, the largest below 1
    mantissas = np.linspace(1.0, 2.0, 2001)[:, None]
    low = np.ldexp(mantissas, -np.arange(2, 55)).ravel()
    high = 1.0 - np.ldexp(mantissas, -np.arange(2, 54)).ravel()
    # and the branch points of both: AS241's |u - 0.5| = 0.425 and
    # u = exp(-25), cephes's u = exp(-2) and exp(-32)
    points = np.array([2.0 ** -54, 0.5, 0.075, 0.925] + [
        v for y in (2, 25, 32) for v in (math.exp(-y), 1 - math.exp(-y))]
        + [1 - 2.0 ** -53])
    for u in (low, high, points):
        z = np.array([_inv_cdf(v) for v in u.tolist()])
        assert _near_ndtri(z, u)


def test_top_uniform_maps_to_inf(monkeypatch):
    # the all-ones word rounds up to u = 1.0, which maps to +inf, and the
    # noisy profile names the slot
    class AllOnes:
        def __init__(self, bit_generator):
            pass

        def integers(self, low, high, size, dtype, endpoint):
            return np.full(size, 2 ** 64 - 1, dtype=dtype)

    monkeypatch.setattr(np.random, "Generator", AllOnes)
    assert _pinned_uniforms(0, (1,))[0] == 1.0
    assert _standard_normals(0, (2, 3)).tolist() == [[math.inf] * 3] * 2
    with pytest.raises(ValueError, match=r"^e1\[0\] is not finite: inf$"):
        add_gaussian_noise(sinusoid(3.0, OMEGA, 0.0, 3), 0.5, seed=0)


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

    @pytest.mark.parametrize("text, err", [
        ("", "empty file"), ("t,E1,E2\n", "no data rows"),
        ("t,E1,E2\n\n", "no data rows")], ids=["empty", "header", "blank"])
    def test_no_data_names_path(self, tmp_path, text, err):
        path = tmp_path / "profile.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                                             f"{err}$"):
            load_profile(path)

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

    @pytest.mark.parametrize("text, e1, e2", [
        ("t,E1,E2\n0,1.5,-2.0\n", (1.5,), (-2.0,)),
        ("t,RE1,DE1,RE2,DE2\n0,2.0,0.5,1.0,3.0\n", (1.5,), (-2.0,))],
        ids=["net", "re_de"])
    def test_byte_order_mark_skipped(self, tmp_path, text, e1, e2):
        # spreadsheets save "CSV UTF-8" with a BOM before the header
        path = tmp_path / "profile.csv"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        prof = load_profile(path)
        assert (prof.e1, prof.e2) == (e1, e2)

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
