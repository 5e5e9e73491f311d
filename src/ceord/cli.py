"""Command-line frontend: frontier sweeps, condition reports, KKT
verification, and Monte Carlo validation, as JSON or CSV.

Exit codes: 0 success, 2 domain/validation error (a Monte Carlo array too
large to allocate included), 3 internal inconsistency (certificate and
numerical oracle disagree), 4 statistical gate failure.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import types
from typing import TYPE_CHECKING, Any, Optional

from . import bergertung, converse, mcsim, rdcore, spectra
from .spectra import DomainError, InconsistencyError, ModelError

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = 1

EXIT_DOMAIN = 2
EXIT_INCONSISTENT = 3
EXIT_STATISTICAL = 4

LN2 = math.log(2.0)


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


@functools.cache
def _encoder(depth: int):
    """json's C encoder (or, without one, its Python encoder), separating the
    members of a container at depth as json.dumps(indent=2) does."""
    enc = json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))
    make = json.encoder.c_make_encoder
    if make is None:
        return enc.encode
    c = make(None, enc.default, _key, None, ": ", enc.item_separator, False, False, True)
    return lambda obj: "".join(c(obj, 0))


_key = json.encoder.encode_basestring_ascii
# exact types: an instance of a subclass takes the general path of _dumps
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _flat(values) -> bool:
    return _SCALARS.issuperset(map(type, values))


def _dumps(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=2), byte for byte, for a document with str keys.

    A scalar, an empty container, a container of scalars or a list of flat
    dicts (a table's rows) is one C encoder call.  In any other container,
    each run of members that are not non-empty containers is one call, and
    each member that is recurses here.
    """
    if not (obj and isinstance(obj, (dict, list, tuple))):
        return _encoder(depth)(obj)
    is_dict = isinstance(obj, dict)
    inner, sep = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    if _flat(obj.values() if is_dict else obj):
        body = _encoder(depth)(obj)[1:-1]
    elif not is_dict and all(isinstance(v, dict) and v and _flat(v.values()) for v in obj):
        # raw newlines occur only in separators (ensure_ascii escapes them in
        # strings), so "},<sep>{" can only join two rows
        rows = _encoder(depth + 1)(obj)[2:-2]
        body = "{" + sep + rows.replace("}," + sep + "{", inner + "}," + inner + "{" + sep)
        body += inner + "}"
    else:
        enc, parts, run = _encoder(depth), [], {}
        for k, v in obj.items() if is_dict else enumerate(obj):
            if not (isinstance(v, (dict, list, tuple)) and v):
                run[k] = v
                continue
            if run:
                parts.append(enc(run if is_dict else [*run.values()])[1:-1])
                run = {}
            parts.append(f"{_key(k)}: {_dumps(v, depth + 1)}" if is_dict else _dumps(v, depth + 1))
        if run:
            parts.append(enc(run if is_dict else [*run.values()])[1:-1])
        body = ("," + inner).join(parts)
    brackets = "{}" if is_dict else "[]"
    return brackets[0] + inner + body + "\n" + "  " * depth + brackets[1]


# What each cmd_* handler returns: (payload, table, exit code), the table
# being (header, data) or None.  main builds the model once and _emit writes.
Result = tuple[dict, Optional[tuple[list[str], list[list]]], int]


def _emit(args, model: spectra.SourceModel, result: Result) -> int:
    """Write a handler's result and return its exit code.

    The JSON document is the schema version, the model, the payload and,
    for a tabular command, its table as "rows"; with --format csv the table
    alone is written as CSV.
    """
    payload, table, code = result
    if table is not None and args.format == "csv":
        header, data = table
        text = "".join(",".join(map(_csv_cell, row)) + "\r\n" for row in (header, *data))
    else:
        doc = {"schema_version": SCHEMA_VERSION, "model": _model_dict(model), **payload}
        if table is not None:
            header, data = table
            doc["rows"] = [dict(zip(header, row)) for row in data]
        text = _dumps(doc) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise DomainError(f"cannot write --out {args.out!r}: {e.strerror}") from None
    else:
        sys.stdout.write(text)
    return code


def _model(args) -> spectra.SourceModel:
    x = spectra.SymmetricSpec(args.gamma_x, args.rho_x, args.ell)
    z = spectra.SymmetricSpec(args.gamma_z, args.rho_z, args.ell)
    return spectra.validate(x, z)


def _rate(args, nats: float) -> float:
    return nats / LN2 if args.bits else nats


def _model_dict(model: spectra.SourceModel) -> dict:
    return {
        "gamma_x": model.x.gamma,
        "rho_x": model.x.rho,
        "gamma_z": model.z.gamma,
        "rho_z": model.z.rho,
        "gamma_s": model.s.gamma,
        "rho_s": model.s.rho,
        "ell": model.ell,
    }


def cmd_point(args, model: spectra.SourceModel) -> Result:
    lv = spectra.level(model, args.k)
    lam, rate, profile = bergertung.frontier_step(lv, args.dk)
    payload = {
        "k": args.k,
        "d_k": args.dk,
        "lambda_q": lam,
        "rate": _rate(args, rate),
        "rate_units": "bits" if args.bits else "nats",
        "profile": {str(j): d for j, d in zip(range(args.k, model.ell + 1), profile)},
        "conditions": rdcore.conditions_at_lambda(lv, lam)._asdict(),
    }
    return payload, None, 0


def cmd_sweep(args, model: spectra.SourceModel) -> Result:
    if args.steps < 1:
        raise DomainError(f"--steps must be >= 1, got {args.steps}")
    if not (math.isfinite(args.dk_min) and math.isfinite(args.dk_max)):
        raise DomainError(f"--dk-min/--dk-max must be finite, got {args.dk_min}, {args.dk_max}")
    ks = args.k
    level = spectra.level(model, ks)
    header = ["d_k", "lambda_q", "rate"] + [
        f"d_{j}" for j in range(ks, model.ell + 1)
    ] + ["cond1", "cond2"]
    data = []
    skipped = []
    for i in range(args.steps):
        if args.steps == 1:
            d = args.dk_min
        else:
            d = args.dk_min + (args.dk_max - args.dk_min) * i / (args.steps - 1)
        try:
            lam, rate, profile = bergertung.frontier_step(level, d)
        except DomainError as e:
            skipped.append(f"d_k={d:.12g}: {e}")
            continue
        _, _, cond1, cond2 = rdcore.ratio_conditions(level, lam)
        data.append([d, lam, _rate(args, rate), *profile, cond1, cond2])
    if not data:
        raise DomainError(f"no sweep point lies in (d_min, gamma_x); first skipped {skipped[0]}")
    for reason in skipped:
        print(f"warning: skipping {reason}", file=sys.stderr)
    return {"k": ks}, (header, data), 0


def cmd_region(args, model: spectra.SourceModel) -> Result:
    lam, _, profile = bergertung.achievable_point(model, args.k, args.dk)
    data = [[j, d] for j, d in zip(range(args.k, model.ell + 1), profile)]
    payload = {"k": args.k, "d_k": args.dk, "lambda_q": lam}
    return payload, (["j", "d_j"], data), 0


def cmd_conditions(args, model: spectra.SourceModel) -> Result:
    rep = rdcore.check_conditions(model, args.k, args.dk)
    return {"k": args.k, "d_k": args.dk, "conditions": rep._asdict()}, None, 0


def cmd_verify(args, model: spectra.SourceModel) -> Result:
    j = args.j if args.j is not None else args.k
    lv = spectra.level(model, args.k)
    lam = rdcore.solve_lambda_q(lv, args.dk)
    cert = converse.verify_at_lambda(lv, j, lam, args.dk)
    point, opt = converse.solve_numeric(lv, j, args.dk)
    rbar = rdcore.rate_at_lambda(lv, lam)
    gap = opt - rbar
    conditions_fail = not cert.multipliers.nonnegative
    if conditions_fail:
        status = "conditions-fail"
    elif cert.valid and abs(gap) <= 1e-6:
        status = "valid"
    else:
        status = "inconsistent"
    payload = {
        "k": args.k,
        "j": j,
        "d_k": args.dk,
        "case": cert.case,
        "status": status,
        "certificate_valid": cert.valid,
        "violations": list(cert.violations),
        "point": cert.point._asdict(),
        "multipliers": cert.multipliers._asdict(),
        "residuals": cert.residuals,
        "objective": _rate(args, cert.objective),
        "rate_bar": _rate(args, rbar),
        "numeric_optimum": _rate(args, opt),
        "numeric_gap": gap,
        "numeric_argmin": point._asdict(),
    }
    return payload, None, EXIT_INCONSISTENT if status == "inconsistent" else 0


def cmd_bt_check(args, model: spectra.SourceModel) -> Result:
    check = bergertung.check_symmetric_rate(model, args.k, args.dk)
    header = ["subset_size", "required_sum_rate", "provided_sum_rate", "satisfied"]
    data = [
        [b, _rate(args, req), _rate(args, b * check.rate), ok]
        for b, req, ok in check.constraints
    ]
    payload = {
        "k": args.k,
        "d_k": args.dk,
        "rate": _rate(args, check.rate),
        "all_satisfied": check.ok,
    }
    return payload, (header, data), 0


def cmd_simulate(args, model: spectra.SourceModel) -> Result:
    lv = spectra.level(model, args.k)
    lam = rdcore.solve_lambda_q(lv, args.dk)
    # the draw first: it refuses an ell too large for its arrays before the
    # O(ell - k) profile runs
    measured = mcsim.empirical_profile(model, args.k, lam, args.n, args.seed)
    profile = rdcore.profile_at_lambda(lv, lam)
    header = ["j", "analytic", "empirical", "stderr", "sigmas", "pass"]
    data = []
    ok_all = True
    for j, emp, analytic in zip(range(args.k, model.ell + 1), measured, profile):
        sigmas = abs(emp.distortion - analytic) / emp.stderr
        ok = sigmas <= 3.0
        ok_all = ok_all and ok
        data.append([j, analytic, emp.distortion, emp.stderr, sigmas, ok])
    payload = {
        "k": args.k,
        "d_k": args.dk,
        "lambda_q": lam,
        "n": args.n,
        "seed": args.seed,
        "all_pass": ok_all,
    }
    return payload, (header, data), 0 if ok_all else EXIT_STATISTICAL


def cmd_decomp_check(args, model: spectra.SourceModel) -> Result:
    j = args.j if args.j is not None else model.ell
    rep = mcsim.decomposition_check(model, j, args.lambda_w, args.lambda_q, args.n, args.seed)
    ok = rep.sigma_ok and rep.delta_diag_ok
    head = {"j": j, "lambda_w": rep.lambda_w, "lambda_q": args.lambda_q, "n": args.n}
    payload = {**head, **rep._asdict(), "all_pass": ok}
    return payload, None, 0 if ok else EXIT_STATISTICAL


# flag: add_argument keywords.  Every command takes the model flags first.
_MODEL = {
    "--gamma-x": dict(type=float, required=True),
    "--rho-x": dict(type=float, default=0.0),
    "--gamma-z": dict(type=float, required=True),
    "--rho-z": dict(type=float, default=0.0),
    "--ell": dict(type=int, required=True),
    "--out": dict(default=None),
}
_K = {"--k": dict(type=int, required=True)}
_DK = {"--dk": dict(type=float, required=True)}
_J = {"--j": dict(type=int, default=None)}
_N = {"--n": dict(type=int, default=1000000)}
_SEED = {"--seed": dict(type=int, default=0)}
_FORMAT = {"--format": dict(choices=["json", "csv"], default="json")}
_BITS = {"--bits": dict(action="store_true", default=False, help="report rates in bits")}

# subcommand: (handler, its option table), built once: the shared model
# flags, then the flags the command adds
_COMMANDS = {
    "point": (cmd_point, {**_MODEL, **_K, **_DK, **_BITS}),
    "sweep": (
        cmd_sweep,
        {
            **_MODEL,
            **_K,
            "--dk-min": dict(type=float, required=True),
            "--dk-max": dict(type=float, required=True),
            "--steps": dict(type=int, required=True),
            **_FORMAT, **_BITS,
        },
    ),
    "region": (cmd_region, {**_MODEL, **_K, **_DK, **_FORMAT, **_BITS}),
    "conditions": (cmd_conditions, {**_MODEL, **_K, **_DK, **_BITS}),
    "verify": (cmd_verify, {**_MODEL, **_K, **_DK, **_J, **_BITS}),
    "bt-check": (cmd_bt_check, {**_MODEL, **_K, **_DK, **_FORMAT, **_BITS}),
    "simulate": (cmd_simulate, {**_MODEL, **_K, **_DK, **_N, **_SEED, **_FORMAT}),
    "decomp-check": (
        cmd_decomp_check,
        {
            **_MODEL,
            **_J,
            "--lambda-w": dict(type=float, default=None),
            "--lambda-q": dict(type=float, required=True),
            **_N, **_SEED,
        },
    ),
}


def _compile(name: str, func, table: dict) -> tuple[dict, dict, frozenset]:
    """A command's option table as _read_args reads it: each flag's (dest,
    type, choices, store_true), the namespace's defaults, the required dests."""
    flags, required = {}, set()
    defaults = {"command": name, "func": func}
    for flag, kw in table.items():
        dest = flag[2:].replace("-", "_")
        flags[flag] = dest, kw.get("type", str), kw.get("choices"), kw.get("action") == "store_true"
        defaults[dest] = kw.get("default")
        if kw.get("required"):
            required.add(dest)
    return flags, defaults, frozenset(required)


_READER = {name: _compile(name, fn, table) for name, (fn, table) in _COMMANDS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ceord`` parser, built on first use (main uses it only for argv
    that _read_args declines) and shared by every caller, so no caller may
    modify it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ceord",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, table) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kw in table.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=fn)
    return parser


def _read_args(argv: list[str]) -> Optional[types.SimpleNamespace]:
    """build_parser().parse_args(argv), read from the compiled option table,
    for the spelling every script uses: a command, then each of its flags
    exactly once, as "--flag=value", "--flag value" (value not starting with
    "-") or a bare store_true flag, with every required flag present and
    every value converted and within its choices.

    None for any other argv, which argparse then parses, so that help,
    errors and every other spelling (abbreviations, "--", a repeated flag)
    come from the parser alone.
    """
    if not argv or argv[0] not in _READER:
        return None
    flags, defaults, required = _READER[argv[0]]
    given: dict[str, Any] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        opt = flags.get(flag)
        if opt is None or opt[0] in given:
            return None
        dest, convert, choices, store_true = opt
        if store_true:
            if eq:
                return None
            given[dest] = True
            continue
        if not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        elif value == "--":  # argparse drops it and stores []
            return None
        try:
            value = convert(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    if not required.issubset(given):
        return None
    return types.SimpleNamespace(**{**defaults, **given})


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _read_args(argv)
        if args is None:  # argparse drops "--" from an attached "--flag=--" and stores []
            args = build_parser().parse_args(argv)
            if empty := [f"--{k.replace('_', '-')}" for k, v in vars(args).items() if v == []]:
                raise DomainError(f"{empty[0]} needs a value, got '--'")
        model = _model(args)
        return _emit(args, model, args.func(args, model))
    except (DomainError, ModelError, MemoryError) as e:  # MemoryError: numpy could not allocate
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_DOMAIN
    except InconsistencyError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
