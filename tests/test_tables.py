"""The CSV and JSON writers against the per-value writers they replaced."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from phaselock import OscillatorNetwork, simulate
from phaselock.dynamics import Trajectory
from phaselock.planar import PlanarParams, direction_cone_estimate, nontangency_planar
from phaselock.tables import write_csv, write_json, write_trajectory


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
        elements=st.floats(),
    )
)
def test_random_tables_match_the_per_value_writer(rows):
    with tempfile.TemporaryDirectory() as tmp:
        assert _same_bytes(tmp, "h", rows)


def _powers_of_ten_and_neighbours():
    out = []
    for k in range(-9, 17):
        p = float(f"1e{k}")
        out += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return out


HARD = [
    12345678901234.25, 123456789012345.5, 123456789012344.5, 999999999999999.5,
    99999999999999.95, 9.9999999999999995e-05, 1e-8, 1e15, 5e-324, 2.2250738585072014e-308,
    np.nextafter(2.2250738585072014e-308, 0.0), -0.0, 0.0,
] + _powers_of_ten_and_neighbours()


def test_hard_cases_match_the_per_value_writer(tmp_path):
    """Ties at the 15th digit, carries into a new decade, the ends of the
    exact range, subnormals, signed zeros and the time columns."""
    column = np.array(HARD)[:, None]
    assert _same_bytes(tmp_path, "v", column)
    assert _same_bytes(tmp_path, "v,w", np.hstack([column, -column]))
    k = np.arange(5001.0)
    assert _same_bytes(tmp_path, "t,t2", np.column_stack([k * 0.01, k * 0.005]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-(10**16) + 1, 10**16 - 1), st.integers(-30, 20)),
        min_size=1,
        max_size=60,
    )
)
def test_short_decimals_match_the_per_value_writer(pairs):
    """m 10^e with m of up to 16 digits lands on or next to a tie at the
    15th digit far more often than uniform draws do."""
    rows = np.array([float(f"{m}e{e}") for m, e in pairs]).reshape(-1, 1)
    with tempfile.TemporaryDirectory() as tmp:
        assert _same_bytes(tmp, "v", rows)
        assert _same_bytes(tmp, "a,b,c", np.tile(rows, 3))


@pytest.mark.parametrize("shape", [(0, 3), (0, 1), (4, 0), (1, 0), (0, 0), (0,)])
def test_empty_tables_match_the_per_value_writer(tmp_path, shape):
    # (0,) is an empty row list: the header alone
    assert _same_bytes(tmp_path, "h", np.zeros(shape))
    assert _same_bytes(tmp_path, "a,b", np.zeros(shape).tolist())


@pytest.mark.parametrize("rows", [[1.0, 2.0], 5.0, np.zeros((2, 2, 2))])
def test_write_csv_names_the_shape_of_rows_that_are_not_2d(tmp_path, rows):
    shape = np.shape(rows)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        write_csv(tmp_path / "t.csv", "a", rows)
    assert not (tmp_path / "t.csv").exists()


def test_writing_a_simulate_n100_table_allocates_at_most_1_mb(tmp_path, traced_peak):
    rng = np.random.default_rng(5)
    rows = np.cumsum(rng.standard_normal((501, 201)) * 0.01, axis=0)
    rows[:, 0] = np.arange(501) * 0.01
    write_csv(tmp_path / "warm.csv", "h", rows[:2])
    _, peak = traced_peak(write_csv, tmp_path / "table.csv", "h", rows)
    assert peak <= 1.0e6, f"write_csv allocated {peak / 1e6:.2f} MB above its input"


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


# ---------------------------------------------------------------- JSON writer


def _round15(value):
    """The per-value rounding the JSON writer replaced; arrays enter as lists."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: _round15(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round15(v) for v in value]
    return value


def oracle_json(payload) -> str:
    """What the CLI wrote before ``write_json``: round, then the stdlib encoder."""
    return json.dumps(_round15(payload), indent=2, sort_keys=True) + "\n"


def _written(tmp, payload) -> str:
    path = Path(tmp) / "out.json"
    write_json(path, payload)
    return path.read_text()


JSON_SPECIAL = SPECIAL + [
    1e-5, 2.0, -7.0, 1e15 - 0.1, 1.5e15, 9.999999999999999e-5, 1e22,
    1e-310, -1.7976931348623157e308, math.nan, math.inf, -math.inf,
    # the CSV formatter's lower bound and the first value below it; a
    # negative value that rounds to 10^15; values integral only after rounding
    1e-8, -1e-8, float(np.nextafter(1e-8, 0.0)), -(1e15 - 0.1),
    2.9999999999999996, 123456789012345.4,
]
_json_floats = st.one_of(st.sampled_from(JSON_SPECIAL), st.floats())
_json_scalars = st.one_of(
    _json_floats, st.integers(-(10**20), 10**20), st.booleans(), st.none(), st.text(max_size=6)
)


@st.composite
def _block_arrays(draw):
    """Arrays the writer takes in more than one block of 2048 values (long
    1-D, rows of 3 or 7 values that do not tile a block, rows longer than
    a block, 3-D), or 0-d and empty ones; float64 or float32, with
    integral values mixed in."""
    shape = draw(st.sampled_from([
        (2049,), (4097,), (1000, 3), (700, 7), (2, 2049), (1030, 2, 1), (400, 3, 2),
        (), (0,), (0, 3), (3, 0), (2, 0, 4),
    ]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.stack([
        rng.choice(JSON_SPECIAL, shape),
        rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 20, shape),
        rng.integers(-(10**6), 10**6, shape).astype(float),  # integral-valued
        np.floor(rng.uniform(1e14, 1e17, shape)),  # integral, around the exponent switch
    ])
    values = np.choose(rng.integers(0, len(pool), shape), pool)
    with np.errstate(over="ignore"):  # float32 takes the largest values to inf
        return np.array(values, dtype=draw(st.sampled_from([np.float64, np.float32])))


_json_arrays = st.one_of(
    arrays(float, st.integers(0, 12), elements=_json_floats),
    arrays(float, st.tuples(st.integers(0, 8), st.just(2)), elements=_json_floats),
    _block_arrays(),
)
_json_payloads = st.recursive(
    st.one_of(_json_scalars, _json_arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=12,
)


def test_special_values_match_the_json_oracle(tmp_path):
    flat = np.array(JSON_SPECIAL)
    payload = {
        "flat": flat,
        "pairs": flat.reshape(-1, 2),
        "list": list(JSON_SPECIAL),
        "empty": [np.zeros(0), np.zeros((0, 2)), [], (), {}],
        "scalars": [0, -3, True, False, None, "ñ→\U0001f600", (1.5, -0.0)],
        "ключ": {"z": 1.0, "a": {"é": np.array([[1.0, -0.0]])}},
    }
    assert _written(tmp_path, payload) == oracle_json(payload)


@settings(max_examples=300, deadline=None)
@given(_json_payloads)
def test_random_payloads_match_the_json_oracle(payload):
    with tempfile.TemporaryDirectory() as tmp:
        assert _written(tmp, payload) == oracle_json(payload)


def test_writing_a_ring500_report_allocates_at_most_2_mb(tmp_path, traced_peak):
    # the arrays of an N = 500 analyze report: three edge-long vectors and
    # the eigenvalue pairs, 24 MB of JSON
    rng = np.random.default_rng(500)
    e = 500 * 499 // 2
    payload = {
        "per_edge_sufficient": rng.uniform(0.0, 500.0, e),
        "onset_lower": rng.uniform(0.0, 500.0, e),
        "equilibrium": rng.uniform(-1.5, 1.5, e),
        "eigenvalues": rng.standard_normal((2 * e, 2)),
        "classification": "semistable-candidate",
    }
    write_json(tmp_path / "warm.json", {"a": payload["equilibrium"][:3]})
    _, peak = traced_peak(write_json, tmp_path / "report.json", payload)
    assert peak <= 2.0e6, f"write_json allocated {peak / 1e6:.2f} MB above its input"


def test_writing_a_2001_by_200_trajectory_allocates_at_most_1_mb(tmp_path, traced_peak):
    rng = np.random.default_rng(6)
    times = np.arange(2001) * 0.01
    thetas = rng.uniform(-np.pi, np.pi, (2001, 200))
    traj = Trajectory(times=times, thetas=thetas, theta_dots=rng.standard_normal((2001, 200)))
    write_trajectory(tmp_path / "warm.csv", Trajectory(times[:2], thetas[:2], thetas[:2]))
    _, peak = traced_peak(write_trajectory, tmp_path / "trajectory.csv", traj)
    assert peak <= 1.0e6, f"write_trajectory allocated {peak / 1e6:.2f} MB above its input"


def _pair_lists(z):
    """A complex array as the nested lists of its [re, im] pairs."""
    if z.ndim == 0:
        return [float(z.real), float(z.imag)]
    return [_pair_lists(row) for row in z]


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from([(), (0,), (1,), (7,), (1025,), (2049,), (3, 2), (700, 3), (0, 4), (4, 0)]),
    dtype=st.sampled_from([np.complex128, np.complex64]),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_complex_arrays_match_the_json_oracle_of_their_pairs(shape, dtype, strided, seed):
    rng = np.random.default_rng(seed)
    z = np.empty(shape, dtype)
    with np.errstate(over="ignore"):  # complex64 takes the largest values to inf
        z.real, z.imag = rng.choice(JSON_SPECIAL, (2, *shape))
    if strided and z.ndim:  # every other value of the last axis
        z = np.repeat(z, 2, axis=-1)[..., ::2]
    with tempfile.TemporaryDirectory() as tmp:
        assert _written(tmp, {"z": z}) == oracle_json({"z": _pair_lists(z)})


def test_write_json_rejects_non_float_arrays(tmp_path):
    for array in (np.arange(3), np.arange(0)):
        with pytest.raises(TypeError, match="float arrays"):
            write_json(tmp_path / "out.json", {"a": array})
