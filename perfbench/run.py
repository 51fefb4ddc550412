"""qcmatch benchmark: one workload per call, each run in fresh worker processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload c08 --seed 1 --seconds 50 --trace 0

``--trace 0`` times three fresh set-up workers (``setup_s`` is their
median; two run before the measured worker, one after it) and one measured
worker that works for about ``--seconds``, and prints every end-to-end
metric.
``--trace 1`` runs one pass of every stage twice, untraced and traced, and
prints the per-layer metrics plus the tracing overhead; spans are written
to ``perfbench/out/``.  Each worker caps its own address space.  The last
line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("c08", "lp-unit")

SETUP_PROBES = 3


def deadline_s(seconds: float) -> float:
    """Wall-time limit of one call: the measured worker's --seconds, the
    traced run's two workers, and a margin for set-up and the CLI chains."""
    return 60.0 + 2.0 * seconds

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "alg1_trials_per_s": "trials/s",
    "apx_two_round_trials_per_s": "trials/s",
    "apx_heavy_prune_trials_per_s": "trials/s",
    "greedy_trials_per_s": "trials/s",
    "oracle_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "instance.generate_s": "s",
    "lpmatch.solve_s": "s",
    "lpmatch.highs_calls": "count",
    "lpmatch.highs_s": "s",
    "lpmatch.rows": "count",
    "lpmatch.rhs_s": "s",
    "lpmatch.check_exhaustive_s": "s",
    "permdist.build_calls": "count",
    "permdist.build_s": "s",
    "permdist.support_max": "count",
    "permdist.build_s.k5": "s",
    "permdist.build_s.k6": "s",
    "permdist.build_s.k7": "s",
    "engine.compile_round_calls": "count",
    "engine.compile_round_s": "s",
    "engine.dist_cache_hit_ratio": "ratio",
    "mcsim.compile_arrays_calls": "count",
    "mcsim.compile_arrays_s": "s",
    "mcsim.round2_compiles_per_1k_trials": "count/1k",
    "mcsim.chunk_calls": "count",
    "mcsim.chunk_s": "s",
    "mcsim.trials_per_chunk_call": "trials/call",
    "mcsim.greedy_chunk_s": "s",
    "oracle.events_s": "s",
    "oracle.joint_build_s": "s",
    "oracle.joint_entries": "count",
    "oracle.expected_opt_s": "s",
    "cli.import_s": "s",
    "cli.gen_s": "s",
    "cli.solve_s": "s",
    "cli.run_s": "s",
    "cli.oracle_s": "s",
    "cli.report_s": "s",
    "failed_share": "ratio",
    "probes_failed": "count",
    "trace_overhead_share": "ratio",
}

# stages whose one-pass times are compared between the untraced and the
# traced worker to give the tracing overhead
OVERHEAD_STAGES = ("solve", "alg1", "apx", "greedy", "oracle")


class BenchError(RuntimeError):
    pass


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("benchmark deadline passed")
        return left


_children: list[subprocess.Popen] = []


def _end_children(signum, frame) -> None:
    """On SIGTERM/SIGINT, end the running child's process group first."""
    for proc in _children:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def run_child(argv, deadline: Deadline, env=None) -> tuple[float, str]:
    """Run a child to completion; returns (wall seconds, stdout)."""
    timeout = deadline.left()
    t0 = time.perf_counter()
    # own process group, so ending it also ends the worker's CLI children
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    _children.append(proc)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child timed out: {argv[1:3]}") from None
    finally:
        _children.remove(proc)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {argv[1:]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return wall, out


def worker(args, deadline: Deadline, mode: str, *, passes: int = 0, trace: int = 0) -> tuple[float, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode, "--passes", str(passes),
            "--trace", str(trace)]
    wall, out = run_child(argv, deadline, env)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return wall, json.loads(lines[-1])


def provenance(args, load_at_start, res: dict) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "versions": res.get("versions"),
        "git_commit": commit,
        "loadavg_at_start": load_at_start,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mc_seed_base": args.seed * 1_000_000,
        "instance_seeds": {i["label"]: i["gen_seed"] for i in res.get("instances", [])},
        "mem_cap_mb": res.get("mem_cap_mb"),
    }


def measure(args, deadline: Deadline) -> tuple[dict, dict]:
    setup = [worker(args, deadline, "setup")[0] for _ in range(SETUP_PROBES - 1)]
    _, res = worker(args, deadline, "run")
    setup.append(worker(args, deadline, "setup")[0])
    metrics = {"setup_s": statistics.median(setup), **res["metrics"]}
    res["setup_probe_s"] = setup
    return metrics, res


def measure_traced(args, deadline: Deadline) -> tuple[dict, dict]:
    _, plain = worker(args, deadline, "run", passes=1, trace=0)
    _, res = worker(args, deadline, "run", passes=1, trace=1)
    metrics = dict(res["layers"])
    plain_s = sum(plain["stage_s"].get(s, 0.0) for s in OVERHEAD_STAGES)
    traced_s = sum(res["stage_s"].get(s, 0.0) for s in OVERHEAD_STAGES)
    metrics["trace_overhead_share"] = traced_s / plain_s - 1.0
    probes_failed = sum(1 for p in res["probes"] if p["failed"])
    metrics["probes_failed"] = probes_failed
    metrics["failed_share"] = (res["failed"] + probes_failed) / (res["attempted"] + len(res["probes"]))
    res["untraced_stage_s"] = plain["stage_s"]
    return metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qcmatch benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qcmatch" / "__init__.py").is_file():
        print(f"error: no qcmatch sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _end_children)
    signal.signal(signal.SIGINT, _end_children)
    load_at_start = list(os.getloadavg())
    deadline = Deadline(deadline_s(args.seconds))
    try:
        # byte-compile the sources once, so set-up probes do not time it
        run_child([sys.executable, "-m", "compileall", "-q", "src"], deadline)
        if args.trace:
            metrics, res = measure_traced(args, deadline)
            units = PER_LAYER
        else:
            metrics, res = measure(args, deadline)
            units = END_TO_END
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [name for name in units if metrics.get(name) is None]
    correct = res["failed"] == 0 and not (missing and not args.trace)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args, load_at_start, res),
        "errors": res["errors"] + [f"metric {m} not measured" for m in missing],
        "probes": res["probes"],
        "details": {k: res[k] for k in ("stage_s", "round_s", "setup_probe_s", "untraced_stage_s", "trace_file", "samples") if k in res},
    }
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{args.workload:10s} {name:38s} {shown:>14s} {unit}")
    for p in res["probes"]:
        print(f"{args.workload:10s} probe {'FAILED' if p['failed'] else 'passed'}: {p['name']}: {p['detail']}")
    for err in report["errors"]:
        print(f"{args.workload:10s} error: {err}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"] + (len(missing) if not args.trace else 0),
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
