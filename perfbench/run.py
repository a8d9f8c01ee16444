#!/usr/bin/env python3
"""abelsplit benchmark: run one workload and print its metrics.

Usage:
  python3 perfbench/run.py --workload desk_scan [--seed 1] [--seconds 40] [--trace 0|1]

Workloads: desk_scan, checks (see perfbench/README.md).
Every body runs in a fresh worker process with its own output directory,
so the library's caches start cold and no checkpoint leaks between runs.
A run makes a fixed number of rounds of the serial body, one per ROUND_S
of --seconds (2 for 40 s), whatever their speed. --trace 0 reports the
end-to-end metrics: setup_s and wall_s scaled to the reference host speed
(reference.py), wall_s as the sum over the body's phases of each phase's
fastest round. --trace 1 adds to the first round the body traced
and (desk_scan only) on a two-worker pool, and reports the per-layer
metrics. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from reference import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk_scan", "checks")
DEFAULT_SEED = 1
CLAIM_SEED = 2
SETUP_SAMPLES = 5  # imports per setup slot: one slot before the first round, one after each
RUN_BUDGET_S = 170.0  # one run must end within 180 s
ROUND_S = 20.0  # --seconds per round; the count never depends on the body's speed
POOLED = ("desk_scan",)  # workloads whose scan also runs on a pool
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRA_UNITS = {"scan.parallel_wall_s": "s", "bench.trace_overhead_s": "s"}


class RunFailed(RuntimeError):
    pass


def _run_child(argv, deadline, env):
    """Run argv in its own process group and return its stdout.

    Whatever ends the wait (completion, timeout, SIGTERM or SIGINT to this
    process), the whole group, pool workers included, is killed and the
    child reaped before this returns.
    """
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise RunFailed("run budget exhausted")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{argv[1:3]} timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"{argv[1:3]} exited with {proc.returncode}")
    return out


def host_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "cpu_model": None, "cache_size": None}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and facts["cpu_model"] is None:
                    facts["cpu_model"] = value.strip()
                elif key == "cache size" and facts["cache_size"] is None:
                    facts["cache_size"] = value.strip()
    except OSError:
        pass
    return facts


# After the import, the child runs the reference loop on its own CPU and
# prints the loop's time.
SETUP_ARGV = [sys.executable, "-c",
              f"import abelsplit, abelsplit.cli, sys; sys.path.append({str(HERE)!r}); "
              "import reference; print(reference.reference_s())"]


def setup_slot(deadline, env) -> list[tuple[float, float]]:
    """SETUP_SAMPLES fresh interpreters importing the library and the CLI,
    as (wall time less the child's reference loop, that loop's time). A run
    takes a slot before its first round and one after each round, so that
    a slow spell of the host does not set setup_s on its own."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = perf_counter()
        ref = float(_run_child(SETUP_ARGV, deadline, env))
        samples.append((perf_counter() - started - ref, ref))
    return samples


def run_body(args, jobs, trace, out_dir, deadline, env) -> dict:
    spec = {"workload": args.workload, "jobs": jobs, "trace": trace, "seed": args.seed,
            "out_dir": str(out_dir)}
    out = _run_child([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], deadline, env)
    return json.loads(out.strip().splitlines()[-1])


def fastest_phases(bodies, scale: bool) -> float:
    """Sum over a body's phases of the fastest round's time for each.

    Contention from outside the process can only slow a phase down, and on
    the host this was tuned on it comes in bursts of seconds to minutes, so
    the fastest time of each phase is the steadiest estimate of its cost.
    With scale, each phase's time is first scaled by the reference loop's
    time measured around it, which takes out the slower drift of host speed
    between runs.
    """
    phases = [b["phases"] for b in bodies]
    if scale:
        phases = [[scaled(t, ref) for t, ref in zip(b["phases"], b["refs"])] for b in bodies]
    if len({len(p) for p in phases}) != 1:
        raise RunFailed("rounds of one body ran different numbers of phases")
    return sum(min(times) for times in zip(*phases))


def round_count(args) -> int:
    """Rounds of a run: one per ROUND_S of --seconds, at least one."""
    return max(1, round(args.seconds / ROUND_S))


def measure(args, tmp: Path, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    host = host_facts()
    # One unmeasured import first writes the bytecode cache, as any user's
    # first run does.
    _run_child(SETUP_ARGV, deadline, env)
    setup = setup_slot(deadline, env)
    # A round is the serial body; when traced, the first round adds the
    # traced body and, for desk_scan, the scan on a process pool.
    plan = [[("serial", 1, False)] for _ in range(round_count(args))]
    if args.trace:
        plan[0].append(("traced", 1, True))
        if args.workload in POOLED:
            plan[0].append(("parallel", min(2, os.cpu_count() or 1), False))
    rounds, failures, attempted = [], [], 0
    for i, bodies in enumerate(plan):
        results = {}
        for name, jobs, trace in bodies:
            results[name] = run_body(args, jobs, trace, tmp / f"r{i}_{name}", deadline, env)
            attempted += results[name]["attempted"] + 1
            failures += results[name]["failures"]
            if results[name]["digest"] != results["serial"]["digest"]:
                failures.append(f"{name} and serial output documents differ")
        rounds.append(results)
        setup += setup_slot(deadline, env)

    serial = [r["serial"] for r in rounds]
    host["calib_s"] = statistics.median(t for b in serial for t in b["ref_samples"])
    unscaled = {"setup_s": statistics.median(t for t, _ in setup),
                "wall_s": fastest_phases(serial, scale=False)}
    if args.trace:
        r = rounds[0]
        metrics = dict(r["traced"]["layers"])
        metrics["scan.parallel_wall_s"] = r["parallel"]["wall_s"] if "parallel" in r else 0.0
        metrics["bench.trace_overhead_s"] = r["traced"]["wall_s"] - unscaled["wall_s"]
        units = {**r["traced"]["layer_units"], **TRACE_EXTRA_UNITS}
    else:
        metrics = {
            "setup_s": statistics.median(scaled(t, ref) for t, ref in setup),
            "wall_s": fastest_phases(serial, scale=True),
            "peak_rss_mb": statistics.median([b["peak_rss_kb"] / 1024 for b in serial]),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return {"host": host, "rounds": len(rounds), "unscaled": unscaled, "metrics": metrics,
            "attempted": attempted, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {CLAIM_SEED} is reserved "
                             "for checking a speed claim)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help=f"a run makes one round per {ROUND_S:g} s (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that the child's process group is
    # killed and the private directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "abelsplit" / "__init__.py").is_file():
        print(f"error: no abelsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_BUDGET_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = measure(args, tmp, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = result["metrics"]
    failed = len(result["failures"])
    attempted = result["attempted"]
    print(f"host {json.dumps(result['host'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} rounds {result['rounds']}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, value in result["unscaled"].items():
        print(f"unscaled {name} = {value:.6g} s (diagnostic)")
    print(f"metric error_rate = {failed / attempted:.6g} (failed {failed} of {attempted})")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
