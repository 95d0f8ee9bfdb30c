"""The CSV writer against the per-value writer it replaced."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from phaselock import OscillatorNetwork, simulate
from phaselock.planar import PlanarParams, direction_cone_estimate, nontangency_planar
from phaselock.tables import write_csv, write_trajectory


def _per_value_csv(path, header, rows):
    """Reference: one f-string per value, one write per row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.15g}" for v in row) + "\n")


def _same_bytes(tmp, header, rows):
    new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
    write_csv(new, header, rows)
    _per_value_csv(old, header, rows)
    return new.read_bytes() == old.read_bytes()


SPECIAL = [
    -0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e15, 3.0, -2.0, 123456789012345.0,
    1 / 3, math.pi, 1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1e-5,
]


def test_special_values_match_the_per_value_writer(tmp_path):
    assert _same_bytes(tmp_path, "a,b", np.reshape(SPECIAL, (-1, 2)))
    assert _same_bytes(tmp_path, "a", np.reshape(SPECIAL, (-1, 1)))


def test_cone_tuples_match_the_per_value_writer(tmp_path):
    params = PlanarParams(k=1.0, delta_omega=0.3)
    rows = []
    for a in np.linspace(-1.4, 1.4, 9):
        interval = direction_cone_estimate(a, 1e-3, params)
        rows.append((a, interval.lo, interval.hi, float(nontangency_planar(a, 1e-3, params))))
    rows.append((-0.0, 1.0, 5e-324, 0.0))
    assert _same_bytes(tmp_path, "a,lo_slope,hi_slope,nontangent", rows)


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        float,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_random_tables_match_the_per_value_writer(rows):
    with tempfile.TemporaryDirectory() as tmp:
        assert _same_bytes(tmp, "h", rows)


def test_tables_larger_than_a_block_match(tmp_path):
    rng = np.random.default_rng(8)
    assert _same_bytes(tmp_path, "x,y,z", rng.standard_normal((5000, 3)))
    assert _same_bytes(tmp_path, "wide", rng.standard_normal((3, 9000)))


def test_trajectory_file_matches_the_per_value_writer(tmp_path):
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    traj = simulate(net, [0.3, -0.2, 0.1], 2.0, 0.01)
    write_trajectory(tmp_path / "new.csv", traj)
    header = "t,theta_1,theta_2,theta_3,thetadot_1,thetadot_2,thetadot_3"
    rows = np.column_stack([traj.times, traj.thetas, traj.theta_dots])
    _per_value_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
