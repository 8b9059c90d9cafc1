"""Random-instance generators and constructors shared across the tests."""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.sparse import csr_matrix

from energycoop import NetEnergyProfile, StorageState, SystemParams
from energycoop.lp import LpProblem


def make_problem(c, eq=(), ub=(), bounds=()) -> LpProblem:
    """Sparse ``LpProblem`` from dense (row, rhs) tuples.

    ``bounds`` holds one (lower, upper) pair per variable and defaults to
    [0, inf) throughout.
    """
    n = len(c)

    def matrix(rows):
        if not rows:
            return csr_matrix((0, n)), np.zeros(0)
        return (csr_matrix(np.array([r for r, _ in rows], dtype=float)),
                np.array([b for _, b in rows], dtype=float))

    a_eq, b_eq = matrix(eq)
    a_ub, b_ub = matrix(ub)
    bounds = np.asarray(bounds or [(0.0, math.inf)] * n, dtype=float)
    return LpProblem(objective=np.asarray(c, dtype=float),
                     a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                     lower=bounds[:, 0], upper=bounds[:, 1])


def save_profile(profile: NetEnergyProfile, path) -> None:
    """Write a profile CSV in the net form ``t,E1,E2``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "E1", "E2"])
        for t in range(profile.n_slots):
            writer.writerow([t, repr(profile.e1[t]), repr(profile.e2[t])])


def rand_unit_open(rng) -> float:
    """Uniform draw on (0, 1]."""
    return 1.0 - rng.uniform(0.0, 1.0)


def rand_params(rng, n_slots, alpha=None, beta=None, s_max=None,
                s_init=(0.0, 0.0)) -> SystemParams:
    a = alpha if alpha is not None else rand_unit_open(rng)
    b = beta if beta is not None else rand_unit_open(rng)
    sm = s_max if s_max is not None else rng.uniform(0.2, 3.0)
    return SystemParams(a, b, sm, n_slots, s_init)


def rand_profile(rng, n_slots, e1_range=(-3.0, 3.0), e2_range=(-3.0, 3.0),
                 ) -> NetEnergyProfile:
    e1 = rng.uniform(*e1_range, n_slots)
    e2 = rng.uniform(*e2_range, n_slots)
    return NetEnergyProfile(e1=tuple(e1), e2=tuple(e2))


def rand_state(rng, s_max) -> StorageState:
    return StorageState(rng.uniform(0.0, s_max), rng.uniform(0.0, s_max))
