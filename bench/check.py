"""Reference checks for benchmark task outputs.

A task's observation is a JSON-compatible tree. Strings, booleans, integers
and None are compared exactly: exit codes, classifications, zero counts,
certificate verdicts. Floats are compared within a round-off tolerance,
because the program promises round-off agreement with the recorded
reference, not bit identity. A float vector is reduced to a fingerprint of
a few weighted sums plus its extremes, so the committed reference stays
small while a relative change of about ``n * RTOL`` in any one of its n
entries is still caught.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
FP_KEY = "~fp"

# Full spectra hold the structural zero eigenvalues of a defective block
# matrix; those come out at about sqrt(eps * |A|) with arbitrary sign and
# phase, so they are not reproducible to round-off. The verdicts drawn from
# them (classification, n_zero_eigenvalues) are checked exactly instead.
UNCHECKED_KEYS = {"eigenvalues"}


def fingerprint(values) -> dict:
    """Round-off tolerant summary of a float array of any shape."""
    v = np.asarray(values, dtype=float).ravel()
    j = np.arange(v.size)
    weights = np.stack(
        [
            np.ones(v.size),
            np.cos(0.7 * j + 0.3),
            np.sin(1.3 * j + 0.1),
            (j * 7919 % 1000) / 500.0 - 1.0,
        ]
    )
    comps = [float(c) for c in weights @ v]
    if v.size:
        comps += [float(v.max()), float(v.min())]
    scale = float(np.abs(v).sum()) if np.all(np.isfinite(v)) else math.inf
    return {FP_KEY: comps, "n": int(v.size), "scale": max(1.0, scale)}


def _is_number_list(value) -> bool:
    return bool(value) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in _flatten(value)
    )


def _flatten(value):
    for x in value:
        if isinstance(x, list):
            yield from _flatten(x)
        else:
            yield x


def summarize(value):
    """Turn a parsed JSON output into an observation: numeric lists (of any
    nesting) become fingerprints, everything else keeps its value."""
    if isinstance(value, dict):
        return {k: summarize(v) for k, v in value.items() if k not in UNCHECKED_KEYS}
    if isinstance(value, list):
        if _is_number_list(value):
            return fingerprint(list(_flatten(value)))
        return [summarize(v) for v in value]
    return value


def compare(ref, obs, where: str = "") -> list[str]:
    """Mismatches between a reference observation and a new one."""
    here = where or "<root>"
    if isinstance(ref, dict) and FP_KEY in ref:
        if not (isinstance(obs, dict) and FP_KEY in obs) or obs["n"] != ref["n"]:
            return [f"{here}: expected a float array of length {ref['n']}, got {_brief(obs)}"]
        tol = RTOL * ref["scale"]
        worst = max(
            (abs(a - b) for a, b in zip(ref[FP_KEY], obs[FP_KEY])), default=0.0
        )
        if not worst <= tol:
            return [f"{here}: float array differs from reference by {worst:.3g} (tolerance {tol:.3g})"]
        return []
    if isinstance(ref, dict):
        if not isinstance(obs, dict):
            return [f"{here}: expected an object, got {_brief(obs)}"]
        out = []
        for key in sorted(set(ref) | set(obs)):
            if key not in obs:
                out.append(f"{where}.{key}: missing")
            elif key not in ref:
                out.append(f"{where}.{key}: not in reference")
            else:
                out.extend(compare(ref[key], obs[key], f"{where}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(obs, list) or len(obs) != len(ref):
            return [f"{here}: expected a list of {len(ref)}, got {_brief(obs)}"]
        out = []
        for idx, (r, o) in enumerate(zip(ref, obs)):
            out.extend(compare(r, o, f"{where}[{idx}]"))
        return out
    if isinstance(ref, float) and isinstance(obs, (int, float)) and not isinstance(obs, bool):
        tol = RTOL * max(1.0, abs(ref))
        if not abs(obs - ref) <= tol:
            return [f"{here}: {obs!r} differs from reference {ref!r}"]
        return []
    if type(ref) is not type(obs) or ref != obs:
        return [f"{here}: {_brief(obs)} != reference {_brief(ref)}"]
    return []


def _brief(value) -> str:
    text = json.dumps(value) if not isinstance(value, str) else repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def file_digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }
