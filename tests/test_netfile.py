"""Network definition file parsing, validation, and round-trips."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phaselock import NetworkFileError, OscillatorNetwork, parse_network, write_network
from phaselock.cli import main
from phaselock.netfile import _network_payload


def write_raw(tmp_path, payload, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_parse_dense(tmp_path):
    path = write_raw(tmp_path, {"n": 3, "omega": [1, 2, 3], "coupling": [9, 6, 0]})
    net = parse_network(path)
    assert net.n_oscillators == 3
    assert np.array_equal(net.natural_frequencies, [1.0, 2.0, 3.0])
    assert np.array_equal(net.coupling_gains, [9.0, 6.0, 0.0])


def test_parse_sparse_records(tmp_path):
    payload = {
        "n": 4,
        "omega": [0.5, 1.0, 1.5, 2.0],
        "coupling": [{"i": 1, "j": 2, "k": 3.0}, {"i": 2, "j": 4, "k": 1.5}],
    }
    net = parse_network(write_raw(tmp_path, payload))
    assert np.array_equal(net.coupling_gains, [3.0, 0.0, 0.0, 0.0, 1.5, 0.0])


def test_parse_rejects_wrong_coupling_length(tmp_path):
    path = write_raw(tmp_path, {"n": 3, "omega": [1, 2, 3], "coupling": [1, 2]})
    with pytest.raises(NetworkFileError, match="dense form needs 3"):
        parse_network(path)


def test_parse_rejects_negative_gain(tmp_path):
    path = write_raw(tmp_path, {"n": 3, "omega": [1, 2, 3], "coupling": [1, -2, 1]})
    with pytest.raises(NetworkFileError, match="nonnegative"):
        parse_network(path)


def test_parse_rejects_mixed_forms(tmp_path):
    payload = {"n": 3, "omega": [1, 2, 3], "coupling": [1.0, {"i": 1, "j": 2, "k": 2.0}]}
    with pytest.raises(NetworkFileError, match="mixes"):
        parse_network(write_raw(tmp_path, payload))


def test_parse_rejects_bad_records(tmp_path):
    base = {"n": 3, "omega": [1, 2, 3]}
    bad_order = dict(base, coupling=[{"i": 2, "j": 1, "k": 1.0}])
    with pytest.raises(NetworkFileError, match="1 <= i < j"):
        parse_network(write_raw(tmp_path, bad_order))
    duplicate = dict(base, coupling=[{"i": 1, "j": 2, "k": 1.0}, {"i": 1, "j": 2, "k": 2.0}])
    with pytest.raises(NetworkFileError, match="duplicate"):
        parse_network(write_raw(tmp_path, duplicate))
    missing_k = dict(base, coupling=[{"i": 1, "j": 2}])
    with pytest.raises(NetworkFileError, match="missing key 'k'"):
        parse_network(write_raw(tmp_path, missing_k))


def test_parse_rejects_field_problems(tmp_path):
    with pytest.raises(NetworkFileError, match="missing fields"):
        parse_network(write_raw(tmp_path, {"n": 2, "omega": [1, 2]}))
    with pytest.raises(NetworkFileError, match="unknown fields"):
        parse_network(
            write_raw(tmp_path, {"n": 2, "omega": [1, 2], "coupling": [1], "x": 0})
        )
    with pytest.raises(NetworkFileError, match="omega"):
        parse_network(write_raw(tmp_path, {"n": 3, "omega": [1, 2], "coupling": [1, 1, 1]}))
    with pytest.raises(NetworkFileError, match="'n'"):
        parse_network(write_raw(tmp_path, {"n": 1, "omega": [1], "coupling": []}))


_RECORD = {"i": 1, "j": 2, "k": 1.0}


def _coupled(coupling):
    return {"n": 3, "omega": [1, 2, 3], "coupling": coupling}


@pytest.mark.parametrize(
    "payload,message",
    [
        (_coupled([dict(_RECORD, w=1)]), "coupling[0]: unknown keys ['w']"),
        (_coupled([_RECORD, {"j": 3, "k": 1.0}]), "coupling[1]: missing key 'i'"),
        (_coupled([{"i": 1, "k": 1.0}]), "coupling[0]: missing key 'j'"),
        (_coupled([dict(_RECORD, j=2.0)]), "coupling[0]: i and j must be integers"),
        (_coupled([dict(_RECORD, i=True)]), "coupling[0]: i and j must be integers"),
        ([3, [1, 2, 3], [1, 1, 1]], "top level must be an object"),
        ("network", "top level must be an object"),
        (_coupled([]), "field 'coupling' must be a non-empty list"),
        (_coupled({"i": 1}), "field 'coupling' must be a non-empty list"),
    ],
    ids=["record-key", "record-no-i", "record-no-j", "record-float-j", "record-bool-i",
         "top-list", "top-string", "coupling-empty", "coupling-object"],
)
def test_parse_names_the_bad_structure(tmp_path, payload, message):
    path = write_raw(tmp_path, payload)
    with pytest.raises(NetworkFileError) as info:
        parse_network(path)
    assert str(info.value) == f"{path}: {message}"


def test_parse_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,\n "omega": [1, 2\n}')
    with pytest.raises(NetworkFileError, match="broken.json:"):
        parse_network(path)


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(404)
    for idx in range(100):
        n = int(rng.integers(2, 7))
        e = n * (n - 1) // 2
        net = OscillatorNetwork(n, rng.normal(size=n), rng.uniform(0, 5, e))
        path = tmp_path / f"net_{idx}.json"
        write_network(net, path)
        assert parse_network(path) == net


_EXTREME = st.sampled_from([5e-324, 2.2250738585072014e-308, 1e16, 1.7976931348623157e308])


@st.composite
def networks(draw):
    """Networks on N = 2..15 with zero, negative-zero and extreme gains and
    frequencies of any finite magnitude."""
    n = draw(st.integers(2, 15))
    e = n * (n - 1) // 2
    finite = st.floats(allow_nan=False, allow_infinity=False)
    extreme = st.one_of(_EXTREME, _EXTREME.map(lambda v: -v))
    omega = draw(arrays(float, n, elements=st.one_of(finite, extreme)))
    gain = st.one_of(st.just(0.0), st.just(-0.0), _EXTREME, st.floats(0.0, 1e300))
    return OscillatorNetwork(n, omega, draw(arrays(float, e, elements=gain)))


@settings(max_examples=200, deadline=None)
@given(networks())
def test_write_then_parse_round_trips(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        write_network(net, path)
        text = path.read_text()
        back = parse_network(path)
    # the stdlib spelling the writer reproduces
    assert text == json.dumps(_network_payload(net), indent=2) + "\n"
    assert back == net
    # bit for bit, so the sign of a zero survives too
    assert back.natural_frequencies.tobytes() == net.natural_frequencies.tobytes()
    assert back.coupling_gains.tobytes() == net.coupling_gains.tobytes()


_BAD_NUMBERS = [
    pytest.param(True, "expected a number, got True", id="bool"),
    pytest.param("1.0", "expected a number, got '1.0'", id="string"),
    pytest.param(None, "expected a number, got None", id="null"),
    pytest.param(10**400, "number out of range", id="huge-int"),
]
_DENSE3 = {"n": 3, "omega": [1, 2, 3], "coupling": [9, 6, 0]}


def _with_bad(field, bad):
    """The three-oscillator chain with ``bad`` at index 1 of one field."""
    payload = json.loads(json.dumps(_DENSE3))
    if field == "k":
        payload["coupling"] = [{"i": 1, "j": 2, "k": 9}, {"i": 2, "j": 3, "k": bad}]
    else:
        payload[field][1] = bad
    return payload


@pytest.mark.parametrize("bad,message", _BAD_NUMBERS)
@pytest.mark.parametrize(
    "field,where", [("omega", "omega[1]"), ("coupling", "coupling[1]"), ("k", "coupling[1].k")]
)
def test_parse_names_the_bad_number(tmp_path, field, where, bad, message):
    path = write_raw(tmp_path, _with_bad(field, bad))
    with pytest.raises(NetworkFileError) as exc:
        parse_network(path)
    assert f"{where}: {message}" in str(exc.value)


def test_cli_reports_an_out_of_range_number_in_one_line(tmp_path, capsys):
    path = write_raw(tmp_path, _with_bad("omega", 10**400))
    assert main(["bounds", "--network", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: omega[1]: number out of range\n"
