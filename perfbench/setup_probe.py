"""Time a fresh process's import of srx and load of one scenario file.

    python3 perfbench/setup_probe.py SCENARIO_JSON

load_scenario parses the file and runs the frame-independence check.
Prints one JSON object: the seconds taken and the srx package that ran.
"""
import json
import sys
import time

start = time.perf_counter()
import srx  # noqa: E402  (the import is what is being timed)
from srx.scenario import load_scenario  # noqa: E402

load_scenario(sys.argv[1])
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "srx": srx.__file__}))
