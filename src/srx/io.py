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
    if isinstance(obj, dict):
        return {k: _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _native(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def meta_block(scenario_hash: str, name: str) -> dict:
    return {"tool": "srx", "version": __version__,
            "scenario": name, "scenario_hash": scenario_hash}


def write_json(path: Path, payload: dict, scenario_hash: str, name: str) -> None:
    body = {"meta": meta_block(scenario_hash, name)}
    body.update(_native(payload))
    path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")


def write_csv(path: Path, header: list[str], rows, scenario_hash: str,
              name: str) -> None:
    """Rows of Python ints and floats (not numpy scalars), each written by repr.

    Lines are streamed to the file, so no copy of the text is held whole.
    """
    with path.open("w", encoding="utf-8") as out:
        out.write(f"# srx {__version__} scenario={name} sha256={scenario_hash}\n"
                  f"{','.join(header)}\n")
        out.writelines(",".join(map(repr, row)) + "\n" for row in rows)
