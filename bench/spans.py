"""Span recorder that instruments ``ceord`` from outside.

``Recorder.instrument`` replaces every binding of each listed function
object, in every loaded ``ceord`` module, with a wrapper that records a span
(name, start, end, parent).  Bindings are found by identity, so a function
imported by name into another module (``dense`` into ``bergertung`` and
``mcsim``, ``d_min`` into ``rdcore`` and ``converse``) is recorded whichever
module the caller goes through.  Spans are kept in memory for the current
command and folded into per-function totals when the outermost span ends;
self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MODULES = ("spectra", "rdcore", "bergertung", "converse", "mcsim", "cli")

TARGETS = {
    "spectra": ("validate", "d_min", "dense", "basis"),
    "rdcore": (
        "solve_lambda_q",
        "distortion_at_lambda",
        "distortion_profile",
        "rate_bar",
        "mu_nu",
        "check_conditions",
        "classify_regime",
    ),
    "bergertung": ("achievable_point", "check_symmetric_rate", "subset_mutual_info"),
    "converse": ("candidate_minimizer", "kkt_multipliers", "verify_kkt", "solve_numeric"),
    "mcsim": ("sample", "empirical_distortion", "decomposition_check"),
    "cli": ("build_parser", "main"),
}

SOLVE = "rdcore.solve_lambda_q"
EVAL = "rdcore.distortion_at_lambda"


class Recorder:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._spans: list = []  # [name, start, end, parent] of the open command
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            if hook is not None:
                hook(self, args, kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
                if not stack:
                    self._fold()

        return wrapper

    def _fold(self) -> None:
        spans = self._spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - child[i]
            if name == EVAL:
                p = parent
                while p >= 0 and spans[p][0] != SOLVE:
                    p = spans[p][3]
                if p >= 0:
                    self.counts["evals_in_solve"] += 1
        spans.clear()

    def active(self, prefix: str) -> bool:
        return any(self._spans[i][0].startswith(prefix) for i in self._stack)

    # -- instrumentation -----------------------------------------------
    def instrument(self) -> list[tuple[str, str, str]]:
        """Wrap every binding of every target; return (span, module, attr)."""
        import numpy as np

        originals = {}
        for mod, names in TARGETS.items():
            module = sys.modules[f"ceord.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, f"{mod}.{fname}", self._wrap(f"{mod}.{fname}", fn))
        bound = []
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "ceord" or modname.startswith("ceord.")):
                continue
            for attr, val in list(vars(module).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((module, attr, val))
                    setattr(module, attr, hit[2])
                    bound.append((hit[1], modname, attr))

        philox = np.random.Philox
        rec = self

        def counting_philox(*args, **kwargs):
            if rec.active("mcsim."):
                rec.counts["rng_streams"] += 1
            return philox(*args, **kwargs)

        self._restore.append((np.random, "Philox", philox))
        np.random.Philox = counting_philox
        return bound

    def uninstrument(self) -> None:
        for module, attr, val in reversed(self._restore):
            setattr(module, attr, val)
        self._restore.clear()


def _sample_hook(rec: Recorder, args, kwargs) -> None:
    model = args[0] if args else kwargs["model"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    rec.counts["sample_bytes"] += n * 3 * model.ell * 8


_HOOKS = {"mcsim.sample": _sample_hook}
