"""srx benchmark: the srx CLI end to end on seeded workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the program under test is the checkout's
src/srx, put on PYTHONPATH for each child process.  The load is a closed
loop from one client: one `srx` invocation at a time with `--threads 1` and
single-threaded BLAS, so at most one busy core on any host.

A run writes the workload's scenario from the seed, then invokes the CLI
until S seconds have passed (at least twice, so that outputs can be compared
byte for byte).  With --trace 0 it reports the end-to-end metrics from
untraced invocations plus the median of set-up probes spread over the run.
With --trace 1 it first makes one traced invocation that also counts
polynomial evaluations (perfbench/trace_run.py, in process; its times are
not used), then alternates timed traced invocations with untraced ones, and
reports per-layer metrics and the tracing overhead.  Every invocation's
outputs are checked; the last line of standard output is one JSON object
{correct, attempted, failed, metrics}.  The exit code is 0 only when every
check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from trace_run import summarize
from workloads import WORKLOADS, load_references

HERE = Path(__file__).resolve().parent
WORK_ROOT = Path(".perfbench_work")
SETUP_PROBES = 15
INVOCATION_LIMIT_S = 120.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "work_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "trace.main_s": "s", "trace.overhead_s": "s",
    "cli.self_s": "s", "scenario.self_s": "s", "flows.self_s": "s",
    "extremals.self_s": "s", "homotopy.self_s": "s", "certify.self_s": "s",
    "io.self_s": "s",
    "scenario.load_s": "s",
    "flows.integrate_s": "s", "flows.tangent_flow_s": "s",
    "flows.integrate_calls": "count", "flows.rk4_cell_steps": "count",
    "homotopy.natural_homotopy_s": "s", "homotopy.variation_s": "s",
    "homotopy.members": "count",
    "core.poly_evals": "count", "core.poly_points": "count",
    "core.points_per_eval": "points/call",
    "extremals.nsre_s": "s", "extremals.hamiltonian_s": "s",
    "extremals.span_columns": "count",
    "certify.verify_s": "s", "certify.verify_self_s": "s",
    "certify.trials": "count",
    "certify.constants_s": "s", "certify.certificate_s": "s",
    "io.write_s": "s", "io.bytes_written": "count",
}
# Counts that read 0 on every passing run of these workloads: printed and
# checked for repeatability, but not declared in BENCHMARK.json.
PRINTED_COUNTS = {"certify.sampler_rejections": "count",
                  "certify.violations": "count"}
# Taken only from the invocation that counts polynomial evaluations.
POLY_COUNTS = ("core.poly_evals", "core.poly_points", "core.points_per_eval")


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def invoke(argv: list[str], env: dict, stderr_path: Path) -> Invocation:
    """Run one child to completion; wall time, CPU time and peak RSS."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, proc.returncode)


def setup_probe(scen_path: Path, env: dict, root: Path) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                           str(scen_path)], env=env, capture_output=True,
                          text=True, timeout=INVOCATION_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    if not Path(probe["srx"]).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"probe imported srx from {probe['srx']}, "
                           f"not from {root / 'src'}")
    return probe["setup_s"]


def invocation_kind(i: int, seed: int, trace: bool) -> str:
    """'plain', 'traced' (timed) or 'counted' (traced, counts poly evals).

    With tracing, the counted invocation goes first; after it, the seed's
    parity picks whether a traced or a plain invocation leads the
    alternation, so neither kind always runs on a colder host.
    """
    if not trace:
        return "plain"
    if i == 0:
        return "counted"
    return ("traced", "plain")[(i + seed) % 2]


def same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def tail_percentile(samples: list[float]) -> str:
    """Highest percentile above the median with at least ten samples beyond.

    Empty when there is none: that takes at least 40 samples (p75).
    """
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"; p{p} {statistics.quantiles(samples, n=100)[p - 1]:.6g}"
    return ""


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    workload = WORKLOADS[name]
    refs = load_references()
    work = root / WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = workload.scenario(seed)
    scen_path = work / "scenario.json"
    scen_path.write_text(json.dumps(scenario, indent=1))
    env = child_env(root)

    setup: list[float] = []

    def probe_until(share: float) -> None:
        """Set-up probes, spread over the run in proportion to its time."""
        if not trace:
            target = min(SETUP_PROBES, 1 + int(SETUP_PROBES * share))
            while len(setup) < target:
                setup.append(setup_probe(scen_path, env, root))

    min_invocations = 3 if trace else 2
    runs: list[tuple[Invocation, int, str]] = []    # (invocation, work, kind)
    layers: list[tuple[str, dict]] = []             # (kind, layer metrics)
    problems: list[str] = []
    failed = 0
    start = time.perf_counter()
    while len(runs) < min_invocations or \
            time.perf_counter() - start + runs[-1][0].wall_s <= seconds:
        probe_until((time.perf_counter() - start) / seconds if seconds else 0)
        i = len(runs)
        kind = invocation_kind(i, seed, trace)
        out = work / f"out{i}"
        cli_args = [workload.command, "--config", str(scen_path),
                    "--out", str(out), "--threads", "1"]
        spans = work / f"spans{i}.json"
        if kind == "plain":
            argv = [sys.executable, "-m", "srx.cli"]
        else:
            argv = [sys.executable, str(HERE / "trace_run.py"), str(spans)]
            argv += ["--count-poly-evals", "--"] if kind == "counted" else ["--"]
        inv = invoke(argv + cli_args, env, work / f"stderr{i}.txt")
        mine = []
        units = 0
        if inv.exit_code != 0:
            err = (work / f"stderr{i}.txt").read_text(errors="replace").strip()
            mine.append(f"exit code {inv.exit_code}: {err[-300:]}")
        else:
            try:
                units, found = workload.check(out, scenario, refs)
                mine += found
                if kind != "plain":
                    layers.append((kind, summarize(json.loads(spans.read_text()))))
                if i > 0 and not same_outputs(work / "out0", out):
                    mine.append("outputs differ from the first invocation's")
            except (OSError, KeyError, TypeError, ValueError) as err:
                mine.append(f"unreadable output: {err!r}")
        if mine:
            failed += 1
            problems += [f"invocation {i}: {p}" for p in mine]
        runs.append((inv, units, kind))
    probe_until(1.0)

    plain = [(inv, units) for inv, units, kind in runs if kind == "plain"]
    samples = {
        "wall_s": [inv.wall_s for inv, _ in plain],
        "cpu_s": [inv.cpu_s for inv, _ in plain],
        "work_per_s": [units / inv.wall_s for inv, units in plain],
        "peak_rss_mb": [inv.peak_rss_mb for inv, _ in plain],
    }
    if trace:
        wanted = {**PER_LAYER, **PRINTED_COUNTS}
        for key, unit in wanted.items():
            if key == "trace.overhead_s":
                continue
            # Times from timed invocations, counts from every traced one.
            kinds = (("counted",) if key in POLY_COUNTS else
                     ("counted", "traced") if unit == "count" else ("traced",))
            samples[key] = [m[key] for k, m in layers if k in kinds]
            if unit == "count" and len(set(samples[key])) > 1:
                problems.append(f"{key} differs between invocations: "
                                f"{samples[key]}")
        traced_walls = [inv.wall_s for inv, _, k in runs if k == "traced"]
        samples["trace.overhead_s"] = [
            statistics.median(traced_walls)
            - statistics.median(samples["wall_s"])] if traced_walls else []
    else:
        samples["setup_s"] = setup
        wanted = END_TO_END
    metrics = {key: {"value": statistics.median(samples[key]), "unit": unit}
               for key, unit in wanted.items() if samples.get(key)}
    correct = not problems and len(metrics) == len(wanted)
    if correct:
        shutil.rmtree(work)
    return {"correct": correct, "attempted": len(runs), "failed": failed,
            "metrics": metrics, "samples": samples, "problems": problems,
            "work_unit": workload.work_unit}


def report(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} invocations, "
          f"{result['failed']} failed, fail_ratio "
          f"{result['failed'] / result['attempted']:.3g} "
          f"(work unit: {result['work_unit']})")
    for key, metric in result["metrics"].items():
        samples = result["samples"][key]
        line = f"  {key:<28} {metric['value']:.6g} {metric['unit']}"
        if metric["unit"] == "s" and len(samples) > 1:
            line += f"  (median of n={len(samples)}{tail_percentile(samples)})"
        print(line)
    for problem in result["problems"]:
        print(f"  FAIL {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="srx end-to-end benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "srx" / "cli.py").is_file():
        print(f"error: no srx sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), root)
            report(name, results[name])
    except (RuntimeError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    prefix = len(names) > 1
    metrics = {f"{name}.{key}" if prefix else key: metric
               for name, res in results.items()
               for key, metric in res["metrics"].items()
               if key not in PRINTED_COUNTS}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
