"""Deterministic file writers for trajectories, reports and certificates.

Every output carries the tool version and the scenario hash; nothing
time-dependent is written, so identical scenario + seed produces
byte-identical files regardless of thread count.
"""
from __future__ import annotations

import json
from pathlib import Path

from . import __version__

CSV_ROWS = 64               # rows formatted by one string operation


def meta_block(scenario_hash: str, name: str) -> dict:
    return {"tool": "srx", "version": __version__,
            "scenario": name, "scenario_hash": scenario_hash}


def write_json(path: Path, payload: dict, scenario_hash: str, name: str) -> None:
    """Payload of Python values, streamed to the file after the meta block."""
    body = {"meta": meta_block(scenario_hash, name)}
    body.update(payload)
    with path.open("w", encoding="utf-8") as out:
        json.dump(body, out, indent=2)
        out.write("\n")


def write_csv(path: Path, header: list[str], blocks, scenario_hash: str,
              name: str) -> None:
    """Write each 2-D array of blocks in turn, one CSV row per array row.

    Every value is written by repr, the shortest text that parses back to
    the same float (or int, in an object array), CSV_ROWS rows at a time,
    so no copy of the text is held whole, and no block is held once written.
    """
    line = ",".join(["%r"] * len(header)) + "\n"
    with path.open("w", encoding="utf-8") as out:
        out.write(f"# srx {__version__} scenario={name} sha256={scenario_hash}\n"
                  f"{','.join(header)}\n")
        for block in blocks:
            for lo in range(0, len(block), CSV_ROWS):
                rows = block[lo:lo + CSV_ROWS]
                out.write(line * len(rows) % tuple(rows.ravel().tolist()))
            block = rows = None     # freed before the next block is built
