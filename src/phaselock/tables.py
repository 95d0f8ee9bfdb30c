"""CSV tables and JSON reports written by the command line and the bundled
experiments.

Every value is printed with 15 significant digits (``%.15g``), so identical
runs give byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory

__all__ = ["write_csv", "write_json", "write_trajectory"]

_BLOCK_VALUES = 8192  # values formatted per write; bounds the text held at once


def write_csv(path: Path, header: str, rows) -> None:
    """Write a header line, then one line of comma-separated values per row."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.15g"] * rows.shape[-1]) + "\n"
    step = max(1, _BLOCK_VALUES // max(1, rows.shape[-1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(rows), step):
            block = rows[start : start + step].tolist()
            fh.write("".join([line % tuple(r) for r in block]))


def write_trajectory(path: Path, traj: Trajectory) -> None:
    """Write ``t,theta_1..theta_N,thetadot_1..thetadot_N``, one row per step."""
    n = traj.thetas.shape[1]
    header = ",".join(
        ["t"]
        + [f"theta_{i + 1}" for i in range(n)]
        + [f"thetadot_{i + 1}" for i in range(n)]
    )
    write_csv(path, header, np.column_stack([traj.times, traj.thetas, traj.theta_dots]))


_ZERO_TOKENS = np.array(["0.0", "-0.0"], dtype=object)
_TINY = np.finfo(float).tiny


def _array_text(a: np.ndarray, level: int) -> str:
    """A float array as the nested indented lists ``json.dumps`` writes,
    each value as ``_emit`` writes a float.

    Exact zeros are written directly and the other values are formatted
    in one ``%`` pass. For a normal, non-integral value that text is
    already ``repr`` of its rounded value: both carry the same at most 15
    digits and both switch to an exponent only below 1e-4. Integral values
    (``repr`` adds ".0" or drops the exponent), subnormal ones (fewer
    digits round-trip) and non-finite ones go through ``json.dumps``.
    """
    if a.dtype.kind != "f":
        raise TypeError(f"write_json takes float arrays, not {a.dtype}")
    flat = a.ravel()
    tokens = _ZERO_TOKENS[np.signbit(flat).astype(np.intp)]
    nonzero = np.flatnonzero(flat)
    if nonzero.size:
        digits = ("%.15g\n" * nonzero.size % tuple(flat[nonzero].tolist())).split()
        rounded = np.array(list(map(float, digits)))
        # NaN fails the second test, infinities the first
        plain = (rounded != np.trunc(rounded)) & (np.abs(rounded) >= _TINY)
        redo = np.flatnonzero(~plain)
        for idx, v in zip(redo.tolist(), rounded[redo].tolist()):
            digits[idx] = json.dumps(v)
        tokens[nonzero] = digits
    return _array_template(a.shape, level) % tuple(tokens.tolist())


def _array_template(shape: tuple, level: int) -> str:
    """``%s`` placeholders laid out as ``json.dumps(indent=2)`` nests a
    list of the given shape, built once per dimension, not per row."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    row = _array_template(shape[1:], level + 1)
    return "[" + inner + ("," + inner).join([row] * shape[0]) + "\n" + "  " * level + "]"


def _emit(value, level: int, out: list[str]) -> None:
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, np.ndarray):
        out.append(_array_text(value, level))
    elif isinstance(value, float):
        out.append(json.dumps(float("%.15g" % value)))
    elif isinstance(value, dict) and value:
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + json.dumps(key) + ": ")
            _emit(item, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "]")
    else:  # other scalars, strings and empty containers
        out.append(json.dumps(value))


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as ``json.dumps(indent=2, sort_keys=True)`` would,
    with every float rounded to 15 significant digits.

    Dicts (string keys), lists and tuples nest; float ndarrays are leaves
    written as nested lists, exact zeros as ``0.0``/``-0.0`` and
    non-finite values as ``NaN``/``Infinity``.
    """
    out: list[str] = []
    _emit(payload, 0, out)
    out.append("\n")
    with open(path, "w") as fh:
        fh.writelines(out)
