"""Deterministic file writers for trajectories, reports and certificates.

Every output carries the tool version and the scenario hash; nothing
time-dependent is written, so identical scenario + seed produces
byte-identical files regardless of thread count.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__


def _native(obj):
    """json.dumps hook for the numpy values a payload may hold."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def meta_block(scenario_hash: str, name: str) -> dict:
    return {"tool": "srx", "version": __version__,
            "scenario": name, "scenario_hash": scenario_hash}


def write_json(path: Path, payload: dict, scenario_hash: str, name: str) -> None:
    body = {"meta": meta_block(scenario_hash, name)}
    body.update(payload)
    path.write_text(json.dumps(body, indent=2, default=_native) + "\n",
                    encoding="utf-8")


def write_csv(path: Path, header: list[str], rows, scenario_hash: str,
              name: str) -> None:
    """Rows of Python ints and floats (not numpy scalars), each written by repr.

    Lines are streamed to the file, so no copy of the text is held whole.
    """
    with path.open("w", encoding="utf-8") as out:
        out.write(f"# srx {__version__} scenario={name} sha256={scenario_hash}\n"
                  f"{','.join(header)}\n")
        out.writelines(",".join(map(repr, row)) + "\n" for row in rows)
