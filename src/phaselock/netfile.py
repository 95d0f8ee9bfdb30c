"""Read and write network definition files.

The format is JSON with three fields: ``n`` (oscillator count), ``omega``
(n natural frequencies) and ``coupling``, which is either a dense array of
n(n-1)/2 gains in lexicographic edge order or a list of records
``{"i": ..., "j": ..., "k": ...}`` with 1-based vertex indices i < j;
edges absent from the record list get gain zero. A coupling list mixing
the two forms is rejected.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import NetworkFileError
from .network import OscillatorNetwork, edge_count, edge_index

__all__ = ["parse_network", "write_network"]

_TOP_LEVEL_FIELDS = {"n", "omega", "coupling"}


def _require_number(value, where: str) -> float:
    # JSON numbers parse to exactly int or float; bool is neither
    if type(value) is not float and type(value) is not int:
        raise NetworkFileError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise NetworkFileError(f"{where}: number out of range") from None


def _numbers(entries: list, name: str) -> list[float]:
    """Convert a list of JSON numbers in one pass; only a bad list is
    walked again, to name its first bad entry."""
    if {*map(type, entries)} <= {float, int}:
        try:
            return [float(v) for v in entries]
        except OverflowError:
            pass
    return [_require_number(v, f"{name}[{idx}]") for idx, v in enumerate(entries)]


def _dense_coupling(entries: list, n: int) -> list[float]:
    e = edge_count(n)
    if len(entries) != e:
        raise NetworkFileError(
            f"coupling: dense form needs {e} entries for n = {n}, got {len(entries)}"
        )
    return _numbers(entries, "coupling")


def _sparse_coupling(entries: list, n: int) -> list[float]:
    gains = [0.0] * edge_count(n)
    seen = set()
    for idx, rec in enumerate(entries):
        where = f"coupling[{idx}]"
        extra = set(rec) - {"i", "j", "k"}
        if extra:
            raise NetworkFileError(f"{where}: unknown keys {sorted(extra)}")
        missing = sorted({"i", "j", "k"} - set(rec))
        if missing:
            raise NetworkFileError(f"{where}: missing key {missing[0]!r}")
        i, j = rec["i"], rec["j"]
        if type(i) is not int or type(j) is not int:  # JSON gives exact types; bool is not int
            raise NetworkFileError(f"{where}: i and j must be integers")
        if not 1 <= i < j <= n:
            raise NetworkFileError(f"{where}: need 1 <= i < j <= {n}, got ({i}, {j})")
        if (i, j) in seen:
            raise NetworkFileError(f"{where}: duplicate edge ({i}, {j})")
        seen.add((i, j))
        gains[edge_index(n, i - 1, j - 1)] = _require_number(rec["k"], f"{where}.k")
    return gains


def _network_from(raw) -> OscillatorNetwork:
    """Validate a decoded network definition; messages name no file."""
    if not isinstance(raw, dict):
        raise NetworkFileError("top level must be an object")
    missing = _TOP_LEVEL_FIELDS - set(raw)
    if missing:
        raise NetworkFileError(f"missing fields {sorted(missing)}")
    unknown = set(raw) - _TOP_LEVEL_FIELDS
    if unknown:
        raise NetworkFileError(f"unknown fields {sorted(unknown)}")

    n = raw["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise NetworkFileError("field 'n' must be an integer >= 2")
    omega = raw["omega"]
    if not isinstance(omega, list) or len(omega) != n:
        raise NetworkFileError(f"field 'omega' must be a list of {n} numbers")
    omega = _numbers(omega, "omega")

    coupling = raw["coupling"]
    if not isinstance(coupling, list) or not coupling:
        raise NetworkFileError("field 'coupling' must be a non-empty list")
    kinds = {*map(type, coupling)}
    dense, sparse = dict not in kinds, kinds == {dict}
    if not dense and not sparse:
        raise NetworkFileError("coupling mixes the dense array and edge-record forms")
    gains = _dense_coupling(coupling, n) if dense else _sparse_coupling(coupling, n)
    return OscillatorNetwork(
        n_oscillators=n, natural_frequencies=omega, coupling_gains=gains
    )


def parse_network(path) -> OscillatorNetwork:
    """Load and validate a network definition file; every error message
    starts with the file path."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise NetworkFileError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    except (OSError, ValueError, RecursionError) as exc:  # bad bytes, long ints, deep nesting
        raise NetworkFileError(f"{path}: {exc}") from exc
    try:
        return _network_from(raw)
    except NetworkFileError as exc:
        raise NetworkFileError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise NetworkFileError(f"{path}: {exc}") from exc


def _network_payload(net: OscillatorNetwork) -> dict:
    """The network in the dense coupling form, as JSON-ready lists."""
    return {
        "n": net.n_oscillators,
        "omega": net.natural_frequencies.tolist(),
        "coupling": net.coupling_gains.tolist(),
    }


def _json_items(values: list) -> str:
    """The entries of a list of finite numbers as ``json.dumps(indent=2)``
    spells them one level in: both write each float as its ``repr``."""
    return repr(values)[1:-1].replace(", ", ",\n    ")


def write_network(net: OscillatorNetwork, path) -> None:
    """Write a network in the dense coupling form, byte for byte as
    ``json.dumps(_network_payload(net), indent=2)`` plus a newline, in one
    C-level pass per array; parsing it back reproduces the network exactly."""
    payload = _network_payload(net)
    Path(path).write_text(
        f'{{\n  "n": {payload["n"]},\n'
        f'  "omega": [\n    {_json_items(payload["omega"])}\n  ],\n'
        f'  "coupling": [\n    {_json_items(payload["coupling"])}\n  ]\n}}\n'
    )
