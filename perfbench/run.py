"""The openrmt benchmark: one workload, timed or traced, checked, as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sample_n3 --seed 7 --seconds 35 --trace 0

Every workload is a closed loop of ``openrmt.cli.main(argv)`` calls with
``--workers 1`` in a fresh Python process that imports the checkout's
``src`` (see ``worker.py`` for the workloads and the output checks).

``--trace 0`` measures the end-to-end metrics with tracing off.  The run
is split over ``PROCESSES`` fresh processes in turn, each timing its
share of ``--seconds``, so that set-up is measured several times:

* ``setup_s``: from starting a fresh interpreter until ``openrmt.cli`` is
  imported and the inputs are ready, median over the processes.  Each
  process's wall time is scaled to a fixed host speed: multiplied by
  ``SETUP_REF_NOMINAL_S`` over the CPU time the process takes, right
  after set-up, for the interpreter-bound reference computation;
* ``items_per_ref``: items a timed CLI call completes per reference
  unit, median over the run's calls.  An item is a trial (``sample``), a
  coefficient set (``verify roundtrip``) or a Monte Carlo sample
  (``density mc-compare``).  The reference unit is the CPU time this
  process takes, right beside the call, for a fixed computation of the
  benchmark's own (``worker.reference_seconds``), so the host's drifting
  speed divides out; the call is timed in CPU time, so time spent waiting
  for a core is left out.  It is throughput in machine-independent time:
  halving a call's CPU time doubles it;
* ``ok_fraction``: one minus the failed fraction, the share of attempted
  items that passed every check;
* ``peak_rss_mb``: peak resident memory of a workload process, median
  over the processes.

``--trace 1`` runs one process that makes each call twice, untraced and
traced, and reports the per-layer metrics of ``tracing.py`` plus
``trace.overhead_ratio``, traced over untraced wall time.  A traced
output that differs from its untraced twin fails the run's ``correct``.

Lines before the last one report every failed gate (malformed output,
which makes ``correct`` false), every call with failed items and why, the
unscaled set-up time, wall-clock and CPU throughput and reference time
(``--trace 0``), the environment, the failed fraction and the output
digest.  The last line is ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 0 when that line was printed, and nonzero (with no
result) when the benchmark itself could not run, for instance without
``src/openrmt``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

PROCESSES = 3
# CPU seconds of the interpreter-bound reference (worker.reference_seconds)
# at the host speed ``setup_s`` is quoted at: about its median over twenty
# runs on the shared 2-core x86_64 VM the bounds were set on.
SETUP_REF_NOMINAL_S = 0.037
DEADLINE_S = 170.0
OUT_DIR = ".perfbench"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(root: Path, spec: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; return its set-up time and result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("OPENRMT_SEED", None)
    argv = [sys.executable, str(root / "perfbench" / "worker.py"), json.dumps(spec)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            argv,
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed the {DEADLINE_S:.0f} s deadline and was killed") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - started, result


def git_commit(root: Path) -> str | None:
    """The checkout's git commit, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def timed(root: Path, args, deadline: float) -> tuple[list, dict, dict]:
    calls, setups, scaled_setups, rss, env = [], [], [], [], None
    for k in range(PROCESSES):
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "mode": "timed",
            "budget_s": args.seconds / PROCESSES,
            "start": len(calls),
            "out_dir": OUT_DIR,
            "env": k == 0,
        }
        setup, result = spawn(root, spec, deadline)
        setups.append(setup)
        scaled_setups.append(setup * SETUP_REF_NOMINAL_S / result["setup_ref_seconds"])
        rss.append(result["rss_mb"])
        calls.extend(result["calls"])
        env = env or result["env"]
    items = sum(c["items"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "items_per_ref": (statistics.median(map(items_per_ref, calls)), "1/ref"),
        "ok_fraction": (1.0 - failed / items, "fraction"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    raw = {
        "items_per_s": statistics.median(c["items"] / c["seconds"] for c in calls),
        "items_per_cpu_s": statistics.median(c["items"] / c["cpu_seconds"] for c in calls),
        "ref_seconds": statistics.median(c["ref_seconds"] for c in calls),
        "setup_s": statistics.median(setups),
    }
    print("unscaled: " + json.dumps(raw, sort_keys=True))
    return calls, metrics, env


def items_per_ref(call: dict) -> float:
    """Items a call completes in the CPU time of one reference run beside it."""
    return call["items"] * call["ref_seconds"] / call["cpu_seconds"]


def traced(root: Path, args, deadline: float) -> tuple[list, dict, dict]:
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": "traced",
        "budget_s": args.seconds,
        "start": 0,
        "out_dir": OUT_DIR,
        "env": True,
    }
    _, result = spawn(root, spec, deadline)
    calls = result["calls"]
    for name in result["missing"]:
        print(f"trace: {name} not found, reported as never called")
    twins: dict[int, set] = {}
    for call in calls:
        twins.setdefault(call["index"], set()).add(call["digest"])
    for call in calls:
        if call["traced"] and len(twins[call["index"]]) != 1:
            call["gates"].append("traced output differs from untraced")
            call["failed"], call["reasons"] = call["items"], {"gate": call["items"]}
    untraced_s = sum(c["seconds"] for c in calls if not c["traced"])
    traced_s = sum(c["seconds"] for c in calls if c["traced"])
    metrics = {name: tuple(value) for name, value in result["layers"].items()}
    metrics["trace.pairs"] = (len(twins), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return calls, metrics, result["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "openrmt" / "cli.py").is_file():
        print(f"error: no openrmt sources under {root / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        calls, metrics, env = (traced if args.trace else timed)(root, args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["items"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    gates = [f"call {c['index']}: {gate}" for c in calls for gate in c["gates"]]
    reasons: dict[str, int] = {}
    for call in calls:
        for reason, count in call["reasons"].items():
            reasons[reason] = reasons.get(reason, 0) + count
    for gate in gates:
        print(f"gate failed: {gate}")
    for call in calls:
        if call["failed"]:
            print(f"failed items: call {call['index']}: {json.dumps(call['reasons'], sort_keys=True)}")
    env.update(git_commit=git_commit(root), seed=args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "calls": len(calls),
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "failed_by_reason": reasons,
        "digest": next(c["digest"] for c in calls if c["index"] == 0),
    }
    print("report: " + json.dumps(report, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not gates,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
