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
from scipy.special import ndtri

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


def _standard_normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Reproducible N(0,1) draws from a pinned generator construction.

    One PCG64 stream seeded directly with ``seed`` yields 64-bit words in
    C order over ``shape``; each word k becomes the uniform
    u = ((k >> 11) + 0.5) * 2**-53 in (0, 1) and is mapped through the
    inverse normal CDF.  Every step is pinned so the same seed produces the
    same bytes on any platform.
    """
    words = np.random.Generator(np.random.PCG64(seed)).integers(
        0, 2 ** 64, size=shape, dtype=np.uint64, endpoint=False)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(u)


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
    """Read a profile CSV in either the net or the RE/DE form."""
    with open(path, newline="") as fh:
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
