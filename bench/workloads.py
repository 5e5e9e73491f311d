"""Seeded command generators for the benchmark workloads.

A workload is a fixed-seed list of command specs.  Each spec is a plain dict
(command name, model parameters, options); ``argv(spec)`` turns it into the
argument list that ``ceord`` receives, so the program sees only generated
argv.  The same (workload, seed) always yields the same list.

Every workload is built from *passes*: one pass has a fixed shape (the same
command types, the same dimension strata and, for Monte Carlo, the same
sample sizes), and the seed draws the values inside each slot.  The timed
loop runs whole passes, so two seeds do the same amount of work up to the
jitter inside the strata, and run-to-run spread measures the machine, not
the draw.
"""
from __future__ import annotations

import math
import random

FRONTIER_COMMANDS = ("point", "region", "conditions", "verify", "bt-check", "sweep")

# The ten criterion-9 acceptance models (gamma_x, rho_x, gamma_z, rho_z, ell).
MC_MODELS = (
    (1.0, 0.0, 1.0, 0.0, 3),
    (1.0, 0.5, 1.0, 0.0, 3),
    (1.0, 0.4, 2.0, -0.1, 4),
    (1.0, -0.3, 1.0, -0.1, 3),
    (2.0, 0.8, 0.5, 0.3, 3),
    (0.5, 0.2, 3.0, 0.6, 2),
    (1.0, 0.9, 1.0, 0.9, 4),
    (1.0, -0.2, 0.2, -0.15, 5),
    (3.0, 0.1, 0.1, 0.0, 3),
    (1.0, 0.6, 1.0, -0.2, 3),
)

# One Monte Carlo pass: (command, ell, rows or j, n).  For simulate the third
# field is the number of j-rows, ell - k + 1, so the pass spans 1..5 rows; for
# decomp-check it is j.  Both sample sizes appear for both commands.
MC_PASS = (
    ("simulate", 2, 1, 1_000_000),
    ("simulate", 3, 2, 250_000),
    ("simulate", 4, 3, 250_000),
    ("simulate", 4, 4, 250_000),
    ("simulate", 5, 5, 250_000),
    ("simulate", 3, 1, 1_000_000),
    ("decomp-check", 3, 3, 1_000_000),
    ("decomp-check", 5, 5, 250_000),
    ("decomp-check", 4, 4, 250_000),
    ("decomp-check", 2, 2, 250_000),
)

# Log-spaced dimension strata for the wide frontier, covering [32, 256].
WIDE_STRATA = tuple(
    (round(32 * 2 ** (i / 2)), round(32 * 2 ** ((i + 1) / 2))) for i in range(6)
)

# tail_pct: the highest of p90, p75 and p50 that leaves at least ten samples
# beyond it at the workload's usual count of timed commands (frontier runs
# time over 1000, Monte Carlo runs 40-50).  Fixed per workload, so a tail
# figure means the same thing in every run.
WORKLOADS = {
    "frontier-small": dict(
        why="the paper's regime: ell 2-8, ~5 ms commands dominated by CLI "
        "parsing and lambda_q bisection; mcsim idle",
        passes=100,
        tail_pct=90,
    ),
    "frontier-wide": dict(
        why="ell 32-256 with k in [ell/4, 3ell/4]: the O(k^4) dense region "
        "check and O(ell) profiles dominate, unlike frontier-small",
        passes=40,
        tail_pct=90,
    ),
    "montecarlo": dict(
        why="simulate and decomp-check on the ten criterion-9 models at n "
        "2.5e5 and 1e6: Philox draws dominate; rdcore and cli negligible",
        passes=6,
        tail_pct=75,
    ),
}


def _lam1(gamma: float, rho: float, j: int) -> float:
    return (1.0 + (j - 1) * rho) * gamma


def observation(gx: float, rx: float, gz: float, rz: float) -> tuple[float, float]:
    gs = gx + gz
    return gs, (rx * gx + rz * gz) / gs


def d_min(model: tuple, j: int) -> float:
    """MMSE floor at sub-dimension j (benchmark-side closed form)."""
    gx, rx, gz, rz, _ = model
    gs, rs = observation(gx, rx, gz, rz)
    x1, z1, s1 = _lam1(gx, rx, j), _lam1(gz, rz, j), _lam1(gs, rs, j)
    x2, z2, s2 = (1 - rx) * gx, (1 - rz) * gz, (1 - rs) * gs
    d1 = x1 * z1 / s1 if s1 > 1e-12 else 0.0
    d2 = x2 * z2 / s2 if s2 > 1e-12 else 0.0
    return (d1 + (j - 1) * d2) / j


def random_model(rng: random.Random, ell: int) -> tuple:
    """A random valid model with both observation eigenvalues bounded away
    from 0, drawn like the test suite's ``random_model``."""
    lo = -1.0 / (ell - 1)
    while True:
        gx = rng.uniform(0.3, 3.0)
        gz = rng.uniform(0.05, 3.0)
        rx = rng.uniform(0.95 * lo, 0.95)
        rz = rng.uniform(0.95 * lo, 0.95)
        gs, rs = observation(gx, rx, gz, rz)
        if _lam1(gs, rs, ell) > 1e-6 and (1 - rs) * gs > 1e-6:
            return (gx, rx, gz, rz, ell)


def interior_dk(rng: random.Random, model: tuple, k: int, lo=0.05, hi=0.95) -> float:
    floor = d_min(model, k)
    return floor + rng.uniform(lo, hi) * (model[0] - floor)


def _frontier_spec(rng: random.Random, cmd: str, model: tuple, k: int, steps: tuple) -> dict:
    ell = model[4]
    spec = dict(cmd=cmd, model=model, k=k, bits=rng.random() < 0.3, fmt="json")
    if cmd == "sweep":
        a, b = sorted((rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
        floor = d_min(model, k)
        spec["dk_min"] = floor + a * (model[0] - floor)
        spec["dk_max"] = floor + max(b, a + 0.01) * (model[0] - floor)
        spec["steps"] = rng.randint(*steps)
    else:
        spec["dk"] = interior_dk(rng, model, k)
    if cmd in ("sweep", "region", "bt-check") and rng.random() < 0.3:
        spec["fmt"] = "csv"
    if cmd == "verify" and rng.random() < 0.5:
        spec["j"] = rng.randint(k, ell)
    return spec


def _frontier_small(rng: random.Random, passes: int) -> list[dict]:
    out = []
    for _ in range(passes):
        block = []
        for ell in range(2, 9):
            for cmd in FRONTIER_COMMANDS:
                model = random_model(rng, ell)
                block.append(_frontier_spec(rng, cmd, model, rng.randint(1, ell), (18, 22)))
        rng.shuffle(block)
        out.extend(block)
    return out


def _frontier_wide(rng: random.Random, passes: int) -> list[dict]:
    out = []
    for _ in range(passes):
        block = []
        for lo, hi in WIDE_STRATA:
            # stratified k/ell in [1/4, 3/4]: one slot per command type
            slots = list(range(len(FRONTIER_COMMANDS)))
            rng.shuffle(slots)
            for cmd, slot in zip(FRONTIER_COMMANDS, slots):
                ell = rng.randint(lo, hi)
                frac = 0.25 + 0.5 * (slot + rng.random()) / len(slots)
                k = min(ell, max(1, round(frac * ell)))
                model = random_model(rng, ell)
                block.append(_frontier_spec(rng, cmd, model, k, (3, 5)))
        rng.shuffle(block)
        out.extend(block)
    return out


def _montecarlo(rng: random.Random, passes: int) -> list[dict]:
    by_ell: dict[int, list[tuple]] = {}
    for m in MC_MODELS:
        by_ell.setdefault(m[4], []).append(m)
    out = []
    for _ in range(passes):
        block = []
        for cmd, ell, third, n in MC_PASS:
            model = rng.choice(by_ell[ell])
            spec = dict(cmd=cmd, model=model, n=n, seed=rng.randrange(1 << 31), fmt="json")
            if cmd == "simulate":
                k = ell - third + 1
                spec.update(k=k, dk=interior_dk(rng, model, k, 0.2, 0.8))
                if rng.random() < 0.3:
                    spec["fmt"] = "csv"
            else:
                gx, rx, gz, rz, _ = model
                gs, rs = observation(gx, rx, gz, rz)
                bound = min(_lam1(gs, rs, third), (1 - rs) * gs)
                spec.update(
                    j=third,
                    lambda_q=10 ** rng.uniform(-1.0, 1.0),
                    lambda_w=rng.uniform(0.2, 0.8) * bound,
                )
            block.append(spec)
        rng.shuffle(block)
        out.extend(block)
    return out


_GENERATORS = {
    "frontier-small": _frontier_small,
    "frontier-wide": _frontier_wide,
    "montecarlo": _montecarlo,
}

# The fixed first command of each workload; set-up time is measured on it.
PROBES = {
    "frontier-small": dict(cmd="point", model=(1.0, 0.0, 1.0, 0.0, 3), k=2, dk=0.75, bits=False, fmt="json"),
    "frontier-wide": dict(cmd="point", model=(1.0, 0.2, 1.0, 0.1, 64), k=32, dk=0.75, bits=False, fmt="json"),
    "montecarlo": dict(cmd="simulate", model=MC_MODELS[5], k=2, dk=0.45, n=250_000, seed=0, fmt="json"),
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's timed command list for ``seed`` (whole passes)."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, WORKLOADS[workload]["passes"])


def pass_length(workload: str) -> int:
    return len(generate(workload, 0)) // WORKLOADS[workload]["passes"]


def warmup(specs: list[dict]) -> list[dict]:
    """One command of each type, with Monte Carlo sample sizes cut to 2e4."""
    seen: dict[str, dict] = {}
    for s in specs:
        if s["cmd"] not in seen:
            w = dict(s)
            if "n" in w:
                w["n"] = 20_000
            seen[s["cmd"]] = w
    return list(seen.values())


_FLAGS = ("k", "dk", "dk_min", "dk_max", "steps", "j", "n", "seed", "lambda_q", "lambda_w")


def argv(spec: dict) -> list[str]:
    # "--flag=value": argparse would take a separate "-6e-05" for an option
    gx, rx, gz, rz, ell = spec["model"]
    params = dict(gamma_x=gx, rho_x=rx, gamma_z=gz, rho_z=rz, ell=ell)
    params.update((k, spec[k]) for k in _FLAGS if k in spec)
    out = [spec["cmd"]] + [f"--{k.replace('_', '-')}={v!r}" for k, v in params.items()]
    if spec.get("bits"):
        out.append("--bits")
    if spec.get("fmt") == "csv":
        out += ["--format", "csv"]
    return out


def nearest_rank(sorted_vals: list[float], pct: float) -> float:
    idx = max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)
    return sorted_vals[idx]
