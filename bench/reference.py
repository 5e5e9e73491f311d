"""Machine-speed reference for timing on a shared host.

On a machine shared with other tenants the speed of one CPU changes by up to
~40 % for tens of seconds at a time, so raw wall times of two sets of runs
made minutes apart differ by more than any useful regression bound.  The
benchmark therefore times this fixed kernel, which uses no ``ceord`` code,
interleaved with the commands on the same CPUs, and scales its times by
``REF_S / median(kernel time)``: a reported time is the time the run would
have taken on a machine where the kernel takes ``REF_S``.  The kernel mirrors
the work of the three workloads (argparse construction and JSON emission,
a pure-Python bisection, dense linear algebra up to 160 x 160, bulk Philox
normals), so its working set slows down with theirs.  Raw times are kept in
the run record.
"""
from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

# Typical kernel time between commands on the machine the bounds were set on
# (Intel Xeon, 2 vCPUs); it only fixes the unit of the scaled times.
REF_S = 0.018

_M = np.full((48, 48), 0.3) + np.eye(48)
_BIG = np.full((160, 160), 0.3) + np.eye(160)


class Reference:
    """The kernel, with its bulk arrays allocated once so that its time does
    not depend on how the preceding command left the heap."""

    def __init__(self):
        self._normals = np.empty((60_000, 9))
        self._product = np.empty((60_000, 9))

    def kernel(self) -> float:
        p = argparse.ArgumentParser(prog="reference")
        sub = p.add_subparsers(dest="cmd")
        for name in "abcdefgh":
            q = sub.add_parser(name)
            for i in range(12):
                q.add_argument(f"--opt-{i}", type=float, default=0.0)
        args = p.parse_args(["c"] + [f"--opt-{i}={i * 0.5}" for i in range(12)])
        doc = {
            "x": {str(i): math.sqrt(i + args.opt_3) for i in range(60)},
            "rows": [{"a": i / 7, "b": i * 1.1} for i in range(30)],
        }
        json.dumps(doc, indent=2)
        lo, hi = 0.0, 8.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid * (1.0 + mid) / (2.0 + mid) < 1.7:
                lo = mid
            else:
                hi = mid
        acc = lo
        for k in range(8, 48, 4):
            acc += np.linalg.slogdet(_M[:k, :k] + 0.5 * np.eye(k))[1]
            acc += float(np.trace(np.linalg.solve(_M[:k, :k], _M[:k, :k])))
        acc += np.linalg.slogdet(_BIG)[1] + float(np.linalg.solve(_BIG, _BIG[:, :80]).sum())
        np.random.Generator(np.random.Philox(7)).standard_normal(out=self._normals)
        np.matmul(self._normals, _M[:9, :9], out=self._product)
        return acc + float(np.square(self._product, out=self._product).mean())

    def sample(self) -> float:
        """Wall time of one kernel run, in seconds.

        The kernel runs twice and the second run is timed: the first finds
        the caches full of the preceding command's data, which depends on
        the command, not on the machine.
        """
        self.kernel()
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0
