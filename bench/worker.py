"""One workload, in process: a closed loop with a single client.

Runs ``ceord.cli.main(argv)`` on the generated commands, one at a time, each
issued after the previous one returned and was validated.  Only the call
itself is timed; validation is client think time.  The loop runs whole
passes until the timed total reaches ``--seconds``.  With ``--traced 1`` the
``ceord`` functions are wrapped by the span recorder after warm-up.

Prints one JSON object on stdout.  Started by ``run.py``, which sets
PYTHONPATH to the checkout's ``src`` and pins the BLAS/OpenMP threads.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import oracle
import reference
import workloads

REF_EVERY_S = 0.4  # timed command seconds between two reference samples


def _import_ceord(src: str):
    import ceord
    from ceord import bergertung, cli, converse, mcsim, rdcore, spectra  # noqa: F401

    where = os.path.realpath(os.path.dirname(ceord.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"ceord imported from {where}, not from {src}")
    return cli


class Loop:
    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.gated = 0
        self.gate_passed = 0
        self.output_bytes = 0
        self.errors: list[str] = []

    def run(self, spec) -> float:
        """Run one command, validate it, and return its latency in seconds."""
        argv = workloads.argv(spec)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:  # argparse rejected the argv
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # a crash is a failed command, not a dead run
                rc = f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
        text = out.getvalue()
        self.attempted += 1
        self.output_bytes += len(text.encode())
        problem = oracle.check(spec, rc, text) if isinstance(rc, int) else f"{spec['cmd']}: raised {rc}"
        if problem is None and spec["cmd"] in oracle.GATED:
            self.gated += 1
            self.gate_passed += rc == 0
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{problem} | argv: {' '.join(argv)}")
        return t1 - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    cli = _import_ceord(args.src)
    specs = workloads.generate(args.workload, args.seed)
    plen = workloads.pass_length(args.workload)
    loop = Loop(cli)
    for spec in [workloads.PROBES[args.workload]] + workloads.warmup(specs):
        loop.run(spec)
    loop.output_bytes = 0
    ref_kernel = reference.Reference()
    ref_kernel.sample()

    rec = None
    if args.traced:
        from spans import Recorder

        rec = Recorder()
        rec.instrument()

    # Alternate the CPU each command runs on, so that a busy neighbour on one
    # CPU of a shared machine slows part of every run rather than all of some,
    # and sample the reference kernel on the same CPUs between commands.
    cpus = sorted(os.sched_getaffinity(0))
    lat: list[float] = []
    ref: list[float] = []
    since_ref = REF_EVERY_S
    wall0 = time.perf_counter()
    cap = 2 * args.seconds + 10
    pos = 0
    while True:
        for spec in specs[pos : pos + plen]:
            os.sched_setaffinity(0, {cpus[len(lat) % len(cpus)]})
            if since_ref >= REF_EVERY_S:
                ref.append(ref_kernel.sample())
                since_ref = 0.0
            lat.append(loop.run(spec))
            since_ref += lat[-1]
        pos = (pos + plen) % len(specs)
        if sum(lat) >= args.seconds or time.perf_counter() - wall0 > cap:
            break
    wall = time.perf_counter() - wall0

    result = {
        "latencies": lat,
        "reference_s": ref,
        "wall_s": wall,
        "commands_generated": len(specs),
        "pass_length": plen,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "gated": loop.gated,
        "gate_passed": loop.gate_passed,
        "output_bytes": loop.output_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        rec.uninstrument()
        result["spans"] = {
            "calls": dict(rec.calls),
            "self_s": dict(rec.self_s),
            "counts": dict(rec.counts),
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
