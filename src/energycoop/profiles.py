"""Net-energy profile generation and CSV loading.

Profiles are CSV files with header ``t,E1,E2`` (net form).  The loader
also reads ``t,RE1,DE1,RE2,DE2`` with non-negative RE and DE, keeping only
the net energy RE - DE.
The k-th non-blank data row must have ``t == k``, counting from 0.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .model import NetEnergyProfile, check_slot_count


class ParseError(Exception):
    """A profile CSV row could not be parsed; the message names the line."""


def sinusoid(amplitude: float, omega: float, theta: float,
             n_slots: int) -> NetEnergyProfile:
    """Phase-shifted sinusoidal pair: e1 = A sin(w t), e2 = A sin(w t + theta).

    Evaluated at the integer slots 0 .. n_slots - 1.  ``theta``
    controls the correlation between the two stations; theta = pi makes
    them exactly anti-correlated.
    """
    check_slot_count(n_slots)
    for name, value in (("amplitude", amplitude), ("omega", omega),
                        ("theta", theta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    t = np.arange(n_slots, dtype=float)
    e1 = amplitude * np.sin(omega * t)
    e2 = amplitude * np.sin(omega * t + theta)
    return NetEnergyProfile(e1=tuple(e1.tolist()), e2=tuple(e2.tolist()))


# cephes ndtri's coefficients (to the double), highest power first; each
# Q has cephes's implied leading 1.0, and np.polyval is its Horner loop
_EXP_M2, _S2PI = 0.1353352832366127, 2.5066282746310007  # exp(-2), sqrt(2 pi)
_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703,
       13.931260938727968, -1.2391658386738125)
_Q0 = (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905,
       -225.46268785411937, 200.26021238006066, -82.03722561683334,
       15.90562251262117, -1.1833162112133)
_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213,
       44.08050738932008, 14.684956192885803, 2.1866330685079025,
       -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854)
_Q1 = (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672,
       15.04253856929075, 2.504649462083094, -0.14218292285478779,
       -0.03808064076915783, -0.0009332594808954574)
_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444,
       1.3330346081580755, 0.20148538954917908, 0.012371663481782003,
       0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09)
_Q2 = (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132,
       0.21623699359449663, 0.013420400608854318, 0.00032801446468212774,
       2.8924786474538068e-06, 6.790194080099813e-09)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of each u in [0, 1], bit for bit
    ``scipy.special.ndtri``: cephes's branches and operations in its
    order, with libm's log (numpy's SIMD log may differ in the last bit).
    """
    def log(v):
        return np.array([math.log(x) for x in v.tolist()])

    y = np.where(u > 1.0 - _EXP_M2, 1.0 - u, u)  # the tail nearer to u
    out = np.where(u > 0.5, np.inf, -np.inf)  # kept where y == 0
    mid = y > _EXP_M2
    d = y[mid] - 0.5
    d2 = d * d
    out[mid] = _S2PI * (d + d * (d2 * np.polyval(_P0, d2)
                                 / np.polyval(_Q0, d2)))
    tail = ~mid & (y > 0.0)
    x = np.sqrt(-2.0 * log(y[tail]))
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * np.polyval(_P1, z) / np.polyval(_Q1, z),
                  z * np.polyval(_P2, z) / np.polyval(_Q2, z))
    out[tail] = np.copysign(x - log(x) / x - x1, u[tail] - 0.5)
    return out


def _standard_normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Reproducible N(0,1) draws from a pinned generator construction.

    One PCG64 stream seeded directly with ``seed`` yields 64-bit words in
    C order over ``shape``; each word k becomes the uniform
    u = ((k >> 11) + 0.5) * 2**-53 in (0, 1] (1.0 for the top words, as
    the sum rounds) and is mapped through the inverse normal CDF
    ``_ndtri``, a numpy port of the cephes ``ndtri`` that scipy.special
    ships; ``tests/test_profiles.py`` pins it bitwise to
    ``scipy.special.ndtri`` on 2**20 of these uniforms and on both tails.
    Every step is pinned so the same seed produces the same bytes on any
    platform.
    """
    words = np.random.Generator(np.random.PCG64(seed)).integers(
        0, 2 ** 64, size=shape, dtype=np.uint64, endpoint=False)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return _ndtri(u)


def add_gaussian_noise(profile: NetEnergyProfile, scale: float,
                       seed: int) -> NetEnergyProfile:
    """Add iid scale * N(0,1) noise to both stations' net energies.

    The draw order is pinned (row 0 of the 2 x N normal block perturbs
    e1, row 1 perturbs e2), so a seed identifies one realization exactly.
    """
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError(f"scale must be finite and >= 0, got {scale}")
    if scale == 0.0:
        return profile
    z = _standard_normals(seed, (2, profile.n_slots))
    e1 = tuple((np.asarray(profile.e1) + scale * z[0]).tolist())
    e2 = tuple((np.asarray(profile.e2) + scale * z[1]).tolist())
    return NetEnergyProfile(e1=e1, e2=e2)


def load_profile(path: str | Path) -> NetEnergyProfile:
    """Read a UTF-8 profile CSV (BOM allowed) in the net or RE/DE form."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if header == ["t", "E1", "E2"]:
        net = [(e1, e2) for _, (_, e1, e2) in _parse_rows(rows, path, 3)]
    elif header == ["t", "RE1", "DE1", "RE2", "DE2"]:
        net = []
        for lineno, (_, re1, de1, re2, de2) in _parse_rows(rows, path, 5):
            if min(re1, de1, re2, de2) < 0.0:
                raise ParseError(f"{path}: line {lineno}: RE and DE must be "
                                 f"non-negative, got {rows[lineno - 1]}")
            net.append((re1 - de1, re2 - de2))
    else:
        raise ParseError(f"{path}: line 1: unrecognized header {header}")
    return NetEnergyProfile(e1=tuple(e1 for e1, _ in net),
                            e2=tuple(e2 for _, e2 in net))


def _parse_rows(rows: list[list[str]], path: str | Path, n_cols: int,
                ) -> list[tuple[int, list[float]]]:
    """(line number, fields) of each non-blank data row k: finite, t == k."""
    parsed = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != n_cols:
            raise ParseError(
                f"{path}: line {lineno}: expected {n_cols} fields, "
                f"got {len(row)}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(
                f"{path}: line {lineno}: non-finite value in {row}")
        if values[0] != len(parsed):
            raise ParseError(f"{path}: line {lineno}: t is {row[0]}, "
                             f"want {len(parsed)}")
        parsed.append((lineno, values))
    if not parsed:
        raise ParseError(f"{path}: no data rows")
    return parsed
