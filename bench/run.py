"""Benchmark of the ``ceord`` CLI: three workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload frontier-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then a closed loop with one client in a worker process of its
own.  ``--trace 1`` measures the per-layer metrics: module import times from
``-X importtime``, an untraced loop, and a traced loop whose ``ceord``
functions are wrapped by ``spans.Recorder``.  Every command's output is
validated by ``oracle``.  All children run with BLAS and OpenMP pinned to one
thread, and ``ceord`` is imported from this checkout's ``src``.

End-to-end times are scaled to the speed of a fixed reference kernel timed
alongside them (``reference``), so that sets of runs made minutes apart on a
shared machine compare; the raw times are in the record line.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the workload.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Pinned before numpy loads, here and in every child.
os.environ.update({v: "1" for v in THREAD_VARS})
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
SETUP_REPS = 6
IMPORT_REPS = 6
CHILD_TIMEOUT = 150
# What the ``ceord`` console script does, in a fresh interpreter.
ENTRY = "import sys; from ceord.cli import main; sys.exit(main(sys.argv[1:]))"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CEO_RD_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


@contextlib.contextmanager
def pinned(i: int):
    """Pin this process, and the children it starts, to the i-th allowed CPU.

    Set-up children alternate CPUs, like the worker's commands, so that a
    busy neighbour on one CPU of a shared machine does not decide the median.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[i % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _run(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {CHILD_TIMEOUT}s: {cmd[:4]}") from None


def measure_setup(workload: str, env: dict) -> tuple[list[float], list[float], int, int]:
    """Wall time of the workload's first command in fresh interpreters.

    One untimed run first, so every timed one finds the bytecode cache as a
    user's installed package would.  A reference-kernel sample precedes each
    run on the same CPU.  Returns (times, reference times, attempted, failed).
    """
    probe = workloads.PROBES[workload]
    cmd = [sys.executable, "-c", ENTRY] + workloads.argv(probe)
    times, ref, failed = [], [], 0
    ref_kernel = reference.Reference()
    for rep in range(SETUP_REPS + 1):
        with pinned(rep):
            ref_s = ref_kernel.sample()
            t0 = time.perf_counter()
            proc = _run(cmd, env)
            elapsed = time.perf_counter() - t0
        problem = oracle.check(probe, proc.returncode, proc.stdout)
        if problem is not None:
            failed += 1
            print(f"setup probe failed: {problem}: {proc.stderr[-500:]}", file=sys.stderr)
        if rep:
            times.append(elapsed)
            ref.append(ref_s)
    return times, ref, SETUP_REPS + 1, failed


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")


def measure_imports(env: dict) -> dict[str, float]:
    """Median cumulative import time (ms) of each ``ceord`` module."""
    samples: dict[str, list[float]] = {m: [] for m in spans.MODULES}
    for rep in range(IMPORT_REPS + 1):
        with pinned(rep):
            proc = _run([sys.executable, "-X", "importtime", "-c", "import ceord.cli"], env)
        if proc.returncode != 0:
            raise BenchError(f"import ceord.cli failed: {proc.stderr[-500:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(3).startswith("ceord."):
                seen[m.group(3)[len("ceord."):]] = int(m.group(2)) / 1000.0
        for mod in spans.MODULES:
            if mod not in seen:
                raise BenchError(f"-X importtime did not report ceord.{mod}")
            samples[mod].append(seen[mod])
    return {m: statistics.median(v[1:]) for m, v in samples.items()}


def run_worker(workload: str, seed: int, seconds: float, traced: bool, env: dict) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--traced", str(int(traced)), "--src", str(SRC),
    ]
    proc = _run(cmd, env)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for err in res["errors"]:
        print(f"failed command: {err}", file=sys.stderr)
    return res


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: 1 for v in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speed(ref: list[float]) -> float:
    """Reference-kernel speed of the run relative to ``reference.REF_S``."""
    return reference.REF_S / statistics.median(ref)


def end_to_end(workload: str, res: dict, setup: list[float], setup_ref: list[float]) -> tuple[dict, dict]:
    """Times are scaled to reference speed (see ``reference``); raw ones go
    to the record."""
    lat = sorted(res["latencies"])
    pct = workloads.WORKLOADS[workload]["tail_pct"]
    tail = workloads.nearest_rank(lat, pct)
    raw = {
        "setup_s": statistics.median(setup),
        "cmd_per_s": len(lat) / sum(lat),
        "cmd_p50_ms": 1e3 * statistics.median(lat),
        "cmd_tail_ms": 1e3 * tail,
    }
    run_speed, setup_speed = speed(res["reference_s"]), speed(setup_ref)
    metrics = {
        "setup_s": metric(raw["setup_s"] * setup_speed, "s"),
        "cmd_per_s": metric(raw["cmd_per_s"] / run_speed, "1/s"),
        "cmd_p50_ms": metric(raw["cmd_p50_ms"] * run_speed, "ms"),
        "cmd_tail_ms": metric(raw["cmd_tail_ms"] * run_speed, "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    record = {
        "commands_timed": len(lat),
        "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for t in lat if t > tail),
        "raw": raw,
        "speed": {"run": run_speed, "setup": setup_speed, "samples": len(res["reference_s"])},
    }
    return metrics, record


def per_layer(res: dict, plain: dict, imports: dict[str, float]) -> dict:
    sp = res["spans"]
    calls, self_s, counts = sp["calls"], sp["self_s"], sp["counts"]
    out = {}
    for mod, names in spans.TARGETS.items():
        for fname in names:
            key = f"{mod}.{fname}"
            out[f"{key}.calls"] = metric(calls.get(key, 0), "count")
            out[f"{key}.self_ms"] = metric(1e3 * self_s.get(key, 0.0), "ms")
    for mod in spans.MODULES:
        tot = sum(self_s.get(f"{mod}.{f}", 0.0) for f in spans.TARGETS[mod])
        out[f"{mod}.self_ms"] = metric(1e3 * tot, "ms")
        out[f"{mod}.import_ms"] = metric(imports[mod], "ms")
    solves = calls.get(spans.SOLVE, 0)
    cmds = len(res["latencies"])
    out["rdcore.solves_per_cmd"] = metric(solves / cmds, "count")
    out["rdcore.evals_per_solve"] = metric(counts.get("evals_in_solve", 0) / solves if solves else 0.0, "count")
    out["mcsim.rng_streams"] = metric(counts.get("rng_streams", 0), "count")
    out["mcsim.sample_mb"] = metric(counts.get("sample_bytes", 0) / 1e6, "MB")
    # 1.0 when the workload runs no gated command: no gate failed
    gated = res["gated"]
    out["mcsim.gate_pass_ratio"] = metric(res["gate_passed"] / gated if gated else 1.0, "ratio")
    out["cli.output_kb"] = metric(res["output_bytes"] / 1e3, "kB")
    traced_rate = cmds / sum(res["latencies"]) / speed(res["reference_s"])
    plain_rate = len(plain["latencies"]) / sum(plain["latencies"]) / speed(plain["reference_s"])
    out["trace.overhead_ratio"] = metric(traced_rate / plain_rate, "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ceord" / "cli.py").is_file():
        print(f"error: {SRC / 'ceord'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2

    env = child_env()
    wl = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "why": wl["why"],
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, 1 client, whole passes",
        "environment": environment(),
    }
    try:
        if args.trace == 0:
            setup, setup_ref, s_att, s_fail = measure_setup(args.workload, env)
            res = run_worker(args.workload, args.seed, args.seconds, False, env)
            metrics, rec = end_to_end(args.workload, res, setup, setup_ref)
            attempted, failed = res["attempted"] + s_att, res["failed"] + s_fail
        else:
            imports = measure_imports(env)
            plain = run_worker(args.workload, args.seed, args.seconds, False, env)
            res = run_worker(args.workload, args.seed, args.seconds, True, env)
            metrics = per_layer(res, plain, imports)
            rec = {"commands_timed": len(res["latencies"])}
            attempted = plain["attempted"] + res["attempted"]
            failed = plain["failed"] + res["failed"]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    record.update(rec)
    record.update(
        commands_generated=res["commands_generated"],
        pass_length=res["pass_length"],
        failed_ratio=failed / attempted,
        mc_gated=res["gated"],
        mc_gate_passed=res["gate_passed"],
    )
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
