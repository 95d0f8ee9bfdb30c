"""CSV tables written by the command line and the bundled experiments.

Every value is printed with 15 significant digits (``%.15g``), so identical
runs give byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dynamics import Trajectory

__all__ = ["write_csv", "write_trajectory"]

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
