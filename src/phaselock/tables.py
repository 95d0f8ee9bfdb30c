"""CSV tables and JSON reports written by the command line and the bundled
experiments.

Every value is printed with 15 significant digits (``%.15g``), so identical
runs give byte-identical files.

``write_csv`` formats a whole block of values at once and writes exactly the
bytes ``"%.15g" % v`` writes. Each finite |v| in [1e-8, 1e15) is rounded to
15 digits exactly (``_significand15``) and spelled from a table of 4-byte
words; exact zeros are written directly. Only subnormal, non-finite and
larger or smaller values fall back to ``%``, one value at a time.

The CSV and the JSON writer both take their row blocks from
``dynamics._row_slices`` (the blocks of the phase wrap), so beside their
input they hold only block-sized text and temporaries (about 0.35 MB):
``write_trajectory`` formats row blocks straight from the trajectory's
three arrays, and ``write_json`` writes the file as it forms it, each float
or complex array one block of whole rows at a time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory, _row_slices

__all__ = ["write_csv", "write_json", "write_trajectory"]

# Offsets into _WORDS, the 4-byte words a value is spelled with; a NUL byte
# is one the word leaves unwritten.
#   _FULL + n, _LEAD + n, _TRAIL + n: the 4 digits of n < 10^4, in full,
#     with its leading zeros NUL, with its trailing zeros NUL;
#   _SIGNED + n (+ 1000 if negative): NUL or '-', then n < 1000 as _LEAD;
#   _POINT + n (+ 1000 to leave trailing zeros NUL): '.' and 3 digits of n,
#     all NUL at _POINT + 1000 (no fraction);
#   _EXP + 8 + X: e-08 .. e+15; _UNITS_ZERO: a lone 0; _COMMA; _NEWLINE; _NUL.
_FULL, _LEAD, _TRAIL, _SIGNED, _POINT, _EXP = 0, 10_000, 20_000, 30_000, 32_000, 34_000
_UNITS_ZERO, _COMMA, _NEWLINE, _NUL = 34_024, 34_025, 34_026, 34_027


def _word_table() -> np.ndarray:
    """The words at the offsets above, with NUL for every byte a word
    leaves unwritten."""
    words = np.zeros((_NUL + 1, 4), np.uint8)
    ten = np.arange(48, 58, dtype=np.uint8)  # '0'..'9'
    full = words[_FULL:_LEAD].reshape(10, 10, 10, 10, 4)
    for j in range(4):
        full[..., j] = ten.reshape((10,) + (1,) * (3 - j))
    full = full.reshape(10_000, 4)
    words[_LEAD:_TRAIL] = words[_TRAIL:_SIGNED] = full
    for j, p in enumerate((1000, 100, 10, 1)):
        words[_LEAD : _LEAD + p, j] = 0
        words[_TRAIL:_SIGNED : 10 * p, j] = 0
    words[_SIGNED:_POINT] = np.tile(words[_LEAD : _LEAD + 1000], (2, 1))
    words[_SIGNED + 1000 : _POINT, 0] = ord("-")
    words[_POINT : _POINT + 1000] = full[:1000]
    words[_POINT + 1000 : _EXP] = words[_TRAIL : _TRAIL + 1000]
    words[_POINT:_EXP, 0] = ord(".")
    words[_POINT + 1000] = 0  # no fraction at all
    k = np.arange(-8, 16)
    words[_EXP:_UNITS_ZERO, 0] = ord("e")
    words[_EXP:_UNITS_ZERO, 1] = np.where(k < 0, ord("-"), ord("+"))
    words[_EXP:_UNITS_ZERO, 2] = ten[abs(k) // 10]
    words[_EXP:_UNITS_ZERO, 3] = ten[abs(k) % 10]
    words[_UNITS_ZERO, 3] = ord("0")
    words[_COMMA, 0] = ord(",")
    words[_NEWLINE, 0] = ord("\n")
    return words.view(np.uint32).ravel()


_WORDS = _word_table()
# 10^m for m = 0..22, every one an exact double, with its Veltkamp split
_POW10 = np.array([float(10**m) for m in range(23)])
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = np.array([10**m for m in range(20)], dtype=np.uint64)


def _significand15(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each a > 0 in [1e-8, 1e15) as D 10^(X - 14), with D the integer in
    [1e14, 1e15) that ``%.15g`` prints: a rounded to 15 digits, half to even.

    X starts at floor(log10 a), so 10^(14 - X) is an exact double, and
    Dekker's product gives a 10^(14 - X) exactly as ``hi + lo``; rounding
    that sum to an integer is then exact.
    """
    # log10 rounds: next to a power of ten X may be one off (15 just below
    # 1e15), so keep 14 - X a valid index and correct X from the product
    x = np.minimum(np.maximum(np.floor(np.log10(a)), -8), 14).astype(np.intp)
    hi = a * _POW10[14 - x]
    x -= hi < 1e14
    x += hi >= 1e15
    hi = a * _POW10[14 - x]
    split = 134217729.0 * a  # 2^27 + 1
    a_hi = split - (split - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[14 - x], _POW10_LO[14 - x]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    whole = np.floor(hi)
    above = (hi - whole - 0.5) + lo  # hi - whole and the sign of the sum are exact
    d = whole.astype(np.uint64)
    d += (above > 0) | ((above == 0) & ((d & 1) == 1))
    carry = d == 10**15
    d[carry] = 10**14
    return d, x + carry


def _quarters(n: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four 4-digit groups of each n < 10^16, high to low."""
    groups = []
    for p in (10**12, 10**8, 10**4):
        high = n // p
        groups.append(high.astype(np.intp))
        n = n - high * p
    return (*groups, n.astype(np.intp))


def _integer_words(out: np.ndarray, whole: np.ndarray, negative: np.ndarray) -> None:
    """Sign and integer part, 15 digits with leading zeros unwritten
    (a lone 0 is written)."""
    w0, w1, w2, w3 = _quarters(whole)
    out[:, 0] = _WORDS[_SIGNED + w0 + 1000 * negative]
    out[:, 1] = _WORDS[np.where(whole < 10**12, _LEAD, _FULL) + w1]
    out[:, 2] = _WORDS[np.where(whole < 10**8, _LEAD, _FULL) + w2]
    units = np.where(whole < 10**4, _LEAD, _FULL)
    units[whole == 0] = _UNITS_ZERO  # then w3 is 0 too
    out[:, 3] = _WORDS[units + w3]


def _fraction_words(out: np.ndarray, frac: np.ndarray) -> None:
    """Point and fraction, 19 digits with trailing zeros unwritten (and no
    point when all are zero)."""
    top = frac // 10**16
    f1, f2, f3, f4 = _quarters(frac - top * 10**16)
    # a group leaves its trailing zeros unwritten when all later groups are 0
    zero_from4 = f4 == 0
    zero_from3 = zero_from4 & (f3 == 0)
    zero_from2 = zero_from3 & (f2 == 0)
    zero_from1 = zero_from2 & (f1 == 0)
    out[:, 0] = _WORDS[_POINT + top.astype(np.intp) + 1000 * zero_from1]
    out[:, 1] = _WORDS[np.where(zero_from2, _TRAIL, _FULL) + f1]
    out[:, 2] = _WORDS[np.where(zero_from3, _TRAIL, _FULL) + f2]
    out[:, 3] = _WORDS[np.where(zero_from4, _TRAIL, _FULL) + f3]
    out[:, 4] = _WORDS[_TRAIL + f4]


def _spell(values: np.ndarray, d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each value with ``%.15g`` digits D and exponent X, the 11 words
    of ``_WORDS`` that spell it: 4 for the sign and integer part, 5 for the
    point and fraction, the exponent and a comma."""
    # fixed notation for -4 <= X < 15, else d.ddd and an exponent; the
    # integer part is D less its last s digits, the fraction those digits
    fixed = (x >= -4) & (x < 15)
    s = np.where(fixed, 14 - x, 14)
    whole = d // _POW10_INT[s]
    words = np.empty((len(values), 11), np.uint32)
    _integer_words(words[:, :4], whole, np.signbit(values))
    _fraction_words(words[:, 4:9], (d - whole * _POW10_INT[s]) * _POW10_INT[19 - s])
    words[:, 9] = _WORDS[np.where(fixed, _NUL, _EXP + 8 + x)]
    words[:, 10] = _WORDS[_COMMA]
    return words


def _g15_bytes(block: np.ndarray) -> bytes:
    """The rows of a 2-D float block as lines of ``%.15g`` values joined by
    commas.

    Each value is spelled by 11 words of ``_WORDS``, and the NUL bytes are
    then dropped. Exact zeros come out as ``0`` and ``-0``; values
    ``_significand15`` cannot take (subnormal, outside its range or not
    finite) are formatted one at a time by ``%``.
    """
    values = block.ravel()
    a = np.abs(values)
    zero = a == 0
    exact = (a >= 1e-8) & (a < 1e15)
    a[~exact] = 1.0
    d, x = _significand15(a)
    d[zero] = 0
    words = _spell(values, d, x)
    words.reshape(block.shape + (11,))[:, -1, 10] = _WORDS[_NEWLINE]
    text = words.view(np.uint8)
    for i in np.flatnonzero(~(exact | zero)).tolist():
        token = b"%.15g" % values[i] + text[i, 40:41].tobytes()  # and its separator
        text[i] = 0
        text[i, : len(token)] = np.frombuffer(token, np.uint8)
    return text[text != 0].tobytes()


def _write_table(path: Path, header: str, columns) -> None:
    """Write a header line, then the rows of the 2-D float arrays
    ``columns`` side by side, one block of rows at a time, so no array of
    the whole table is formed."""
    width = sum(c.shape[-1] for c in columns)  # an empty row list is 1-D
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for rows in _row_slices(len(columns[0]), width):
            block = np.concatenate([c[rows] for c in columns], axis=1)
            fh.write(_g15_bytes(block) if block.size else b"\n" * len(block))


def write_csv(path: Path, header: str, rows) -> None:
    """Write a header line, then one line of comma-separated values per row,
    each value as ``"%.15g" % v`` writes it; no rows, the header alone."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 and rows.size:
        raise ValueError(f"rows must be 2-D, one sequence per row; got shape {rows.shape}")
    _write_table(path, header, [rows])


def write_trajectory(path: Path, traj: Trajectory) -> None:
    """Write ``t,theta_1..theta_N,thetadot_1..thetadot_N``, one row per step."""
    n = traj.thetas.shape[1]
    header = ",".join(
        ["t"]
        + [f"theta_{i + 1}" for i in range(n)]
        + [f"thetadot_{i + 1}" for i in range(n)]
    )
    _write_table(path, header, [traj.times[:, None], traj.thetas, traj.theta_dots])


_ZERO_TOKENS = np.array(["0.0", "-0.0"], dtype=object)
_TINY = np.finfo(float).tiny


def _float_tokens(flat: np.ndarray) -> tuple:
    """Each value of the 1-D float array ``flat`` as ``_emit`` writes a float.

    Exact zeros are written directly and the other values are formatted
    in one ``%`` pass. For a normal, non-integral value that text is
    already ``repr`` of its rounded value: both carry the same at most 15
    digits and both switch to an exponent only below 1e-4. Integral values
    (``repr`` adds ".0" or drops the exponent), subnormal ones (fewer
    digits round-trip) and non-finite ones go through ``json.dumps``.
    """
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
    return tuple(tokens.tolist())


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


def _write_array(a: np.ndarray, level: int, write) -> None:
    """Write a float array as the nested indented lists ``json.dumps``
    writes, a complex one with each value as a [re, im] pair, one block of
    whole rows at a time, so the text and tokens of the whole array are
    never held at once."""
    if a.dtype.kind == "c":  # a float view: each value becomes its last axis
        a = np.ascontiguousarray(a).view(a.real.dtype).reshape(a.shape + (2,))
    if a.dtype.kind != "f":
        raise TypeError(f"write_json takes complex or float arrays, not {a.dtype}")
    if not a.ndim or not len(a):
        write(_array_template(a.shape, level) % _float_tokens(a.ravel()))
        return
    inner = "\n" + "  " * (level + 1)
    row = _array_template(a.shape[1:], level + 1)
    sep = "[" + inner
    for block in map(a.__getitem__, _row_slices(len(a), a[:1].size)):
        template = ("," + inner).join([row] * len(block))
        write(sep + template % _float_tokens(block.ravel()))
        sep = "," + inner
    write("\n" + "  " * level + "]")


def _emit(value, level: int, write) -> None:
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, np.ndarray):
        _write_array(value, level, write)
    elif isinstance(value, float):
        write(json.dumps(float("%.15g" % value)))
    elif isinstance(value, dict) and value:
        sep = "{" + inner
        for key, item in sorted(value.items()):
            write(sep + json.dumps(key) + ": ")
            _emit(item, level + 1, write)
            sep = "," + inner
        write("\n" + "  " * level + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "[" + inner
        for item in value:
            write(sep)
            _emit(item, level + 1, write)
            sep = "," + inner
        write("\n" + "  " * level + "]")
    else:  # other scalars, strings and empty containers
        write(json.dumps(value))


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as ``json.dumps(indent=2, sort_keys=True)`` would,
    with every float rounded to 15 significant digits.

    Dicts (string keys), lists and tuples nest; float ndarrays are leaves
    written as nested lists, exact zeros as ``0.0``/``-0.0`` and
    non-finite values as ``NaN``/``Infinity``. A complex ndarray is written
    as the float array of its [re, im] pairs, read through a view (a
    contiguous one is not copied). The file is written as it is formed,
    arrays one block of rows at a time, so memory beyond the payload stays
    bounded whatever its size.
    """
    with open(path, "w") as fh:
        _emit(payload, 0, fh.write)
        fh.write("\n")
