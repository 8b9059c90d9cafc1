"""Extreme but valid systems either raise at the boundary or run feasibly.

Efficiencies at 0, the smallest subnormal or so small that their product
underflows; storage from none to unbounded; net energies from 1e-300 to
1e6.  Every greedy mode and the hybrid must raise ``ValueError`` or
``ModelError`` where the input enters, or return a trajectory that
``check_feasible`` passes: never a ``ZeroDivisionError`` from a case rule
or a ``SolverError`` from a plan that only a unit change would certify.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from energycoop import (NetEnergyProfile, SystemParams, check_feasible,
                        run_greedy, run_hybrid_stream)
from energycoop.greedy import MODES
from energycoop.model import ModelError

EFFICIENCIES = st.sampled_from([0.0, 5e-324, 1e-170, 1e-12, 1.0]) | st.floats(
    0.0, 1.0)
STORAGE = st.sampled_from([0.0, 5e-324, 1e-12, 1e6, math.inf]) | st.floats(
    0.0, 10.0)


@st.composite
def systems(draw):
    """A valid system and two profiles of one magnitude in [1e-300, 1e6]:
    the forecast and the realized energies."""
    n = draw(st.integers(1, 12), label="n")
    s_max = draw(STORAGE, label="s_max")
    magnitude = 10.0 ** draw(st.integers(-300, 6), label="log10 magnitude")
    room = min(s_max, magnitude)  # where s_max is inf, s_init stays finite
    s_init = tuple(draw(st.floats(0.0, 1.0), label="s_init share") * room
                   for _ in range(2))
    params = SystemParams(draw(EFFICIENCIES, label="alpha"),
                          draw(EFFICIENCIES, label="beta"), s_max, n, s_init)
    energies = st.lists(st.floats(-1.0, 1.0).map(lambda v: v * magnitude),
                        min_size=n, max_size=n)
    forecast, realized = (NetEnergyProfile(e1=draw(energies),
                                           e2=draw(energies))
                          for _ in range(2))
    return params, forecast, realized


def _feasible_or_rejected(run, params, profile):
    try:
        traj = run()
    except (ValueError, ModelError):
        return
    report = check_feasible(params, profile, traj)
    assert report.ok, report


# a forecast of magnitude 1e6 whose plan HiGHS meets to 1.9e-9 on its
# init_s1 row: within a tolerance scaled to the energies, not 1e-9
PLANNED_AT_1E6 = NetEnergyProfile(
    e1=(-690869.5071698183, 530196.6630377333, 379266.2380782224,
        -109580.50328523216, -94474.93718870281, -910010.8712818915,
        -142255.59490259032, -992688.2486422075, -757792.7086977072),
    e2=(-428565.5164201929, 996707.8954537897, -33269.63408681327,
        233721.69662292808, 581646.1494475924, -260070.84765748068,
        779792.4018218428, -948715.9237877763, -917082.6325149817))


@given(systems())
@example((SystemParams(0.2, 1e-12, 1.0, 9, (0.1, 0.8)), PLANNED_AT_1E6,
          PLANNED_AT_1E6))
@example((SystemParams(1e-170, 1e-170, 1.0, 1, (0.5, 0.0)),
          NetEnergyProfile(e1=(0.0,), e2=(0.0,)),
          NetEnergyProfile(e1=(0.0,), e2=(-1.0,))))
@settings(max_examples=150, deadline=None)
def test_every_mode_and_the_hybrid_raise_or_run_feasibly(system):
    params, forecast, realized = system
    for mode in MODES:
        _feasible_or_rejected(lambda: run_greedy(params, realized, mode),
                              params, realized)
    _feasible_or_rejected(
        lambda: run_hybrid_stream(params, forecast,
                                  zip(realized.e1, realized.e2)).combined,
        params, realized)
