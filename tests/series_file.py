"""Depth-series CSV files for the ``noise-fit`` command's tests."""

from __future__ import annotations

from pathlib import Path


def write_layer_series(path: str | Path, depths, successes, shots: int) -> None:
    """Write a depth series CSV that ``qcoin.experiments.read_layer_series`` reads."""
    rows = [f"{int(d)},{int(s)},{shots}\n" for d, s in zip(depths, successes)]
    Path(path).write_text("layers,successes,shots\n" + "".join(rows), encoding="utf-8")
