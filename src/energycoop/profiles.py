"""Net-energy profile generation and CSV serialization.

Profiles are CSV files with header ``t,E1,E2`` (net form) or
``t,RE1,DE1,RE2,DE2`` (renewable/demand form, net = RE - DE).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .model import NetEnergyProfile


class ParseError(Exception):
    """A profile CSV row could not be parsed; the message names the line."""


def sinusoid(amplitude: float, omega: float, theta: float, n_slots: int,
             t0: int = 0) -> NetEnergyProfile:
    """Phase-shifted sinusoidal pair: e1 = A sin(w t), e2 = A sin(w t + theta).

    Evaluated at the integer slots t0 .. t0 + n_slots - 1.  ``theta``
    controls the correlation between the two stations; theta = pi makes
    them exactly anti-correlated.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    for name, value in (("amplitude", amplitude), ("omega", omega),
                        ("theta", theta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    t = np.arange(t0, t0 + n_slots, dtype=float)
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
    The renewable/demand split, if any, is dropped: noisy net energies no
    longer decompose.
    """
    if scale < 0.0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    if scale == 0.0:
        return NetEnergyProfile(e1=profile.e1, e2=profile.e2)
    z = _standard_normals(seed, (2, profile.n_slots))
    e1 = tuple((np.asarray(profile.e1) + scale * z[0]).tolist())
    e2 = tuple((np.asarray(profile.e2) + scale * z[1]).tolist())
    return NetEnergyProfile(e1=e1, e2=e2)


def save_profile(profile: NetEnergyProfile, path: str | Path) -> None:
    """Write a profile CSV, using the RE/DE form when the split is known."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if profile.re1 is not None:
            writer.writerow(["t", "RE1", "DE1", "RE2", "DE2"])
            for t in range(profile.n_slots):
                writer.writerow([t, repr(profile.re1[t]), repr(profile.de1[t]),
                                 repr(profile.re2[t]), repr(profile.de2[t])])
        else:
            writer.writerow(["t", "E1", "E2"])
            for t in range(profile.n_slots):
                writer.writerow([t, repr(profile.e1[t]), repr(profile.e2[t])])


def load_profile(path: str | Path) -> NetEnergyProfile:
    """Read a profile CSV in either the net or the RE/DE form."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if header == ["t", "E1", "E2"]:
        columns = _parse_rows(rows, path, n_cols=3)
        return NetEnergyProfile(e1=columns[1], e2=columns[2])
    if header == ["t", "RE1", "DE1", "RE2", "DE2"]:
        columns = _parse_rows(rows, path, n_cols=5)
        return NetEnergyProfile.from_renewable_demand(
            columns[1], columns[2], columns[3], columns[4])
    raise ParseError(f"{path}: line 1: unrecognized header {header}")


def _parse_rows(rows: list[list[str]], path: str | Path, n_cols: int,
                ) -> list[tuple[float, ...]]:
    columns: list[list[float]] = [[] for _ in range(n_cols)]
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
        for col, v in zip(columns, values):
            col.append(v)
    if not columns[0]:
        raise ParseError(f"{path}: no data rows")
    return [tuple(col) for col in columns]
