import argparse
import contextlib
import csv
import functools
import io
import json
import math
import random
import shlex
import string
import sys
from pathlib import Path
from typing import Any, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceord import bergertung, cli, converse, d_min, rdcore, spectra
from ceord.cli import main
from ceord.spectra import DomainError, level

from helpers import make_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

M0 = ["--gamma-x", "1", "--gamma-z", "1", "--ell", "3"]


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestPoint:
    def test_m0_fields(self, capsys):
        code, doc, _ = run_json(capsys, "point", *M0, "--k", "2", "--dk", "0.75")
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["lambda_q"] == pytest.approx(2.0, rel=1e-12)
        assert doc["rate"] == pytest.approx(0.25 * math.log(4), rel=1e-12)
        assert doc["rate_units"] == "nats"
        assert doc["profile"]["2"] == pytest.approx(0.75)
        assert doc["profile"]["3"] == pytest.approx(0.75)
        assert doc["conditions"]["regime"] == "always"

    def test_bits_flag(self, capsys):
        _, doc, _ = run_json(
            capsys, "point", *M0, "--k", "2", "--dk", "0.75", "--bits"
        )
        assert doc["rate"] == pytest.approx(0.5)
        assert doc["rate_units"] == "bits"

    def test_domain_error_cites_dmin(self, capsys):
        code, out, err = run(capsys, "point", *M0, "--k", "2", "--dk", "0.3")
        assert code == 2
        assert out == ""
        assert "d_min" in err

    def test_psd_failure_exit2(self, capsys):
        code, _, err = run(
            capsys,
            "point",
            "--gamma-x",
            "1",
            "--rho-x",
            "-0.9",
            "--gamma-z",
            "1",
            "--ell",
            "3",
            "--k",
            "2",
            "--dk",
            "0.75",
        )
        assert code == 2
        assert "eigenvalue" in err

    def test_params_json(self, capsys):
        blob = json.dumps(
            {"gamma_x": 1, "gamma_z": 1, "ell": 3, "k": 2, "dk": 0.75}
        )
        code, doc, _ = run_json(capsys, "point", "--params-json", blob)
        assert code == 0 and doc["lambda_q"] == pytest.approx(2.0)

    def test_params_json_every_spelling_the_parser_reads(self, capsys):
        # each prefix that argparse expands to --params-json, with the value
        # attached or separate, before the command (where the full parser
        # reads it, and where '--params-json={...}' and '--params {...}'
        # were once ignored) or after it
        blob = '{"dk": 0.8}'
        point = ["point", *M0, "--k", "2", "--dk", "0.75"]
        for n in range(3, len("--params-json") + 1):
            flag = "--params-json"[:n]
            for spelling in ([f"{flag}={blob}"], [flag, blob]):
                assert cli.build_parser().parse_args(spelling + point).params_json == blob
                for argv in (spelling + point, point + spelling):
                    code, doc, _ = run_json(capsys, *argv)
                    assert code == 0 and doc["d_k"] == 0.8, argv

    @pytest.mark.parametrize(
        "tail, message",
        [(["{bad"], "Expecting"), ([], "needs a JSON object"), (["[1]"], "got [1]")],
        ids=["malformed", "missing-value", "not-an-object"],
    )
    def test_params_json_errors_exit2(self, capsys, tail, message):
        argv = ["point", *M0, "--k", "2", "--dk", "0.75", "--params-json", *tail]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("bits, units", [(True, "bits"), (False, "nats")])
    def test_params_json_boolean_is_a_bare_flag(self, capsys, bits, units):
        # true adds the flag alone, false adds nothing
        blob = json.dumps({"bits": bits})
        assert cli._apply_params_json(["point", "--params-json", blob]) == (
            ["point", "--bits"] if bits else ["point"]
        )
        argv = ["point", *M0, "--k", "2", "--dk", "0.75", "--params-json", blob]
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0 and doc["rate_units"] == units

    def test_values_equal_library_exactly(self, capsys):
        m = make_model(1.3, 0.37, 0.7, -0.004, 200)
        argv = ["--gamma-x", "1.3", "--rho-x", "0.37", "--gamma-z", "0.7", "--rho-z", "-0.004"]
        _, doc, _ = run_json(capsys, "point", *argv, "--ell", "200", "--k", "61", "--dk", "0.4")
        assert doc["lambda_q"] == rdcore.solve_lambda_q(level(m, 61), 0.4)
        assert doc["rate"] == rdcore.rate_bar(m, 61, 0.4)

    def test_region_failure_exit3(self, capsys, monkeypatch):
        # a zero rate fails every subset constraint of the real region check
        monkeypatch.setattr(rdcore, "rate_at_lambda", lambda *a: 0.0)
        code, out, err = run(capsys, "point", *M0, "--k", "2", "--dk", "0.75")
        assert code == 3 and out == ""
        assert "outside the rate region" in err


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "cmd, flag, value",
        [
            ("point", "--dk", "nan"),
            ("point", "--gamma-z", "nan"),
            ("point", "--gamma-z", "inf"),
            ("point", "--gamma-x", "inf"),
            ("point", "--rho-z", "nan"),
            ("point", "--rho-x", "nan"),
            ("bt-check", "--rho-z", "nan"),
        ],
    )
    def test_exit2_without_nan(self, capsys, cmd, flag, value):
        base = {"--gamma-x": "1", "--gamma-z": "1", "--ell": "3", "--k": "2", "--dk": "0.75"}
        base[flag] = value
        argv = [cmd] + [t for kv in base.items() for t in kv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "NaN" not in out
        assert err.startswith("error: ") and "finite" in err


class TestOptionTable:
    @pytest.mark.parametrize(
        "flag, commands",
        [
            ("--tol", {"verify"}),
            ("--seed", {"simulate", "decomp-check"}),
            ("--format", {"sweep", "region", "bt-check", "simulate"}),
            ("--bits", {"point", "sweep", "region", "conditions", "verify", "bt-check"}),
        ],
    )
    def test_option_only_where_read(self, flag, commands):
        have = {name for name, (_, flags) in cli._COMMANDS.items() if flag in flags}
        assert have == commands

    @pytest.mark.parametrize(
        "cmd, extra",
        [
            ("point", ["--format", "csv"]),
            ("conditions", ["--format", "csv"]),
            ("point", ["--seed", "1"]),
            ("verify", ["--seed", "1"]),
            ("point", ["--tol", "1e-6"]),
            ("simulate", ["--bits"]),
            ("decomp-check", ["--bits"]),
            ("decomp-check", ["--format", "csv"]),
        ],
    )
    def test_unread_option_rejected(self, capsys, cmd, extra):
        tail = ["--k", "2", "--dk", "0.75"]
        if cmd == "decomp-check":
            tail = ["--lambda-q", "2.0"]
        with pytest.raises(SystemExit) as exc:
            main([cmd, *M0, *tail, *extra])
        cap = capsys.readouterr()
        assert exc.value.code == 2 and cap.out == ""
        assert "unrecognized arguments: " + " ".join(extra) in cap.err


class TestInvalidOptions:
    VERIFY = ["verify", *M0, "--k", "2", "--dk", "0.75"]
    SIMULATE = ["simulate", *M0, "--k", "2", "--dk", "0.75", "--n", "100"]
    DECOMP = ["decomp-check", *M0, "--lambda-q", "2", "--n", "100"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol_exit2(self, capsys, tol):
        code, out, err = run(capsys, *self.VERIFY, "--tol", tol)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "tol" in err

    @pytest.mark.parametrize("k", ["0", "4"])
    @pytest.mark.parametrize("cmd", ["point", "sweep", "region", "conditions", "verify", "bt-check"])
    def test_bad_k_names_the_level_rule(self, capsys, cmd, k):
        # every frontier command reads its level first, so each reports a
        # bad --k through the level rule
        if cmd == "sweep":
            tail = ["--dk-min", "0.6", "--dk-max", "0.9", "--steps", "3"]
        else:
            tail = ["--dk", "0.75"]
        code, out, err = run(capsys, cmd, *M0, f"--k={k}", *tail)
        assert (code, out, err) == (2, "", f"error: k={k} out of range [1, 3]\n")

    @pytest.mark.parametrize(
        "bad, message",
        [
            (["--k=0", "--dk=nan", "--tol=nan", "--j=9"], "k=0 out of range"),
            (["--k=2", "--dk=nan", "--tol=nan", "--j=9"], "d_k must be finite"),
            (["--k=2", "--dk=0.75", "--tol=nan", "--j=9"], "tol must be positive"),
            (["--k=2", "--dk=0.75", "--tol=1e-9", "--j=9"], "need 1 <= k <= j <= ell"),
        ],
        ids=["level", "d_k", "tol", "pair"],
    )
    def test_verify_rule_order(self, capsys, bad, message):
        # verify reads the level, solves lambda_q at d_k, then builds the
        # certificate: the level, d_k, tol and (k, j) rules report in that order
        code, out, err = run(capsys, "verify", *M0, *bad)
        assert (code, out) == (2, "") and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [SIMULATE, DECOMP], ids=["simulate", "decomp"])
    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_negative_seed_exit2(self, capsys, monkeypatch, argv, via_env):
        if via_env:
            monkeypatch.setenv("CEO_RD_SEED", "-3")
        else:
            argv = [*argv, "--seed", "-1"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "seed" in err


class TestCorrelationBoundaries:
    # rho_s = 1 (lambda_s2 = 0) and rho_s = -1/(ell-1) with k = ell (lambda_s1(k) = 0)
    S2ZERO = [*M0, "--rho-x", "1", "--rho-z", "1", "--k", "2", "--dk", "0.75"]
    S1ZERO = [*M0, "--rho-x", "-0.5", "--rho-z", "-0.5", "--k", "3", "--dk", "0.7"]

    @pytest.mark.parametrize("cmd", ["point", "conditions"])
    @pytest.mark.parametrize(
        "argv, undefined",
        [(S2ZERO, {"nu": None, "nu_kj": [None, None]}), (S1ZERO, {"mu": None})],
        ids=["rho_s-one", "rho_s-min"],
    )
    def test_undefined_ratios_are_null(self, capsys, cmd, argv, undefined):
        code, out, _ = run(capsys, cmd, *argv)
        assert code == 0
        assert "NaN" not in out and "Infinity" not in out
        cond = json.loads(out)["conditions"]
        assert {key: cond[key] for key in undefined} == undefined

    @pytest.mark.parametrize(
        "argv, message",
        [(S2ZERO, "case P needs"), (S1ZERO, "case P-hat needs")],
        ids=["rho_s-one", "rho_s-min"],
    )
    def test_verify_exits_2_naming_the_case(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message} ")

    def test_verify_noiseless_model_is_valid(self, capsys):
        argv = ["--gamma-x", "1", "--gamma-z", "0", "--ell", "3", "--k", "2", "--dk", "0.75"]
        code, doc, _ = run_json(capsys, "verify", *argv)
        assert code == 0 and doc["status"] == "valid"

    def test_point_rate_matches_s2zero_closed_form(self, capsys):
        _, doc, _ = run_json(capsys, "point", *self.S2ZERO)
        m = make_model(1, 1, 1, 1, 3)
        rate, _ = rdcore.degenerate_rate_s2zero(m, 2, 2, 0.75)
        assert doc["rate"] == pytest.approx(rate, rel=1e-10)


class TestOneSolvePerOperatingPoint:
    ARGV = ["--gamma-x", "1", "--rho-x", "0.3", "--gamma-z", "0.5", "--rho-z", "-0.1", "--ell", "6"]

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = rdcore.solve_lambda_q

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(rdcore, "solve_lambda_q", counted)
        return calls

    @pytest.fixture
    def levels(self, monkeypatch):
        # spectra.level through every binding: spectra.level itself and the
        # name each module imported
        calls = []
        read = spectra.level

        def counted(*args):
            calls.append(args)
            return read(*args)

        for name, module in list(sys.modules.items()):
            if name == "ceord" or name.startswith("ceord."):
                for attr, val in list(vars(module).items()):
                    if val is read:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    @pytest.mark.parametrize(
        "cmd, extra",
        [
            ("point", []),
            ("region", []),
            ("conditions", []),
            ("verify", []),
            ("verify", ["--j", "5"]),
            ("bt-check", []),
            ("simulate", ["--n", "2000", "--seed", "1"]),
        ],
    )
    def test_frontier_command_solves_once(self, capsys, solves, cmd, extra):
        code, _, _ = run(capsys, cmd, *self.ARGV, "--k", "4", "--dk", "0.6", *extra)
        assert code in (0, 4)
        assert len(solves) == 1

    def test_sweep_solves_once_per_step(self, capsys, solves):
        span = ["--dk-min", "0.5", "--dk-max", "0.9", "--steps", "7"]
        code, doc, _ = run_json(capsys, "sweep", *self.ARGV, "--k", "4", *span)
        assert code == 0 and len(doc["rows"]) == 7
        assert len(solves) == 7

    @pytest.mark.parametrize(
        "cmd, extra",
        [
            ("point", []),
            ("region", []),
            ("conditions", []),
            ("verify", []),
            ("verify", ["--j", "5"]),
            ("bt-check", []),
        ],
    )
    def test_frontier_command_reads_its_level_once(self, capsys, levels, cmd, extra):
        code, _, _ = run(capsys, cmd, *self.ARGV, "--k", "4", "--dk", "0.6", *extra)
        assert code == 0
        assert levels == [(levels[0][0], 4)]

    @pytest.mark.parametrize("steps", ["1", "7"])
    def test_sweep_reads_its_level_once(self, capsys, levels, steps):
        span = ["--dk-min", "0.5", "--dk-max", "0.9", "--steps", steps]
        code, doc, _ = run_json(capsys, "sweep", *self.ARGV, "--k", "4", *span)
        assert code == 0 and len(doc["rows"]) == int(steps)
        assert levels == [(levels[0][0], 4)]

    def test_sweep_skips_the_per_j_conditions(self, capsys, monkeypatch):
        calls = []
        for name in ("classify_regime", "conditions_at_lambda"):
            monkeypatch.setattr(rdcore, name, lambda *a, name=name: calls.append(name))
        span = ["--dk-min", "0.5", "--dk-max", "0.9", "--steps", "7"]
        code, doc, _ = run_json(capsys, "sweep", *self.ARGV, "--k", "4", *span)
        assert code == 0 and len(doc["rows"]) == 7
        assert calls == []


class TestSweep:
    @pytest.mark.parametrize(
        "rho_x, rho_z, sign",
        [(0.3, 0.2, 1), (-0.3, -0.1, -1), (0.2, -0.2, 0)],
        ids=["rho_s-positive", "rho_s-negative", "rho_s-zero"],
    )
    def test_conditions_match_conditions_at_lambda(self, capsys, rho_x, rho_z, sign):
        model = make_model(1, rho_x, 1, rho_z, 3)
        assert (model.s.rho > 0) - (model.s.rho < 0) == sign
        argv = [f"--rho-x={rho_x!r}", f"--rho-z={rho_z!r}", "--k", "3", "--dk-min", "0.55",
                "--dk-max", "0.95", "--steps", "6"]
        code, doc, _ = run_json(capsys, "sweep", *M0, *argv)
        assert code == 0 and len(doc["rows"]) == 6
        for row in doc["rows"]:
            rep = rdcore.conditions_at_lambda(level(model, 3), row["lambda_q"])
            assert (row["cond1"], row["cond2"]) == (rep.cond1, rep.cond2)

    def test_rate_monotone(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "sweep",
            *M0,
            "--k",
            "2",
            "--dk-min",
            "0.55",
            "--dk-max",
            "0.95",
            "--steps",
            "9",
        )
        assert code == 0
        rates = [r["rate"] for r in doc["rows"]]
        assert len(rates) == 9
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_single_point(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "sweep",
            *M0,
            "--k",
            "2",
            "--dk-min",
            "0.75",
            "--dk-max",
            "0.9",
            "--steps",
            "1",
        )
        assert code == 0
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["d_k"] == pytest.approx(0.75)

    def test_out_of_range_points_skipped(self, capsys):
        code, doc, err = run_json(
            capsys,
            "sweep",
            *M0,
            "--k",
            "2",
            "--dk-min",
            "0.3",
            "--dk-max",
            "0.9",
            "--steps",
            "4",
        )
        assert code == 0
        assert len(doc["rows"]) < 4
        assert "skipping" in err

    def test_csv_round_trip(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep",
            *M0,
            "--k",
            "2",
            "--dk-min",
            "0.6",
            "--dk-max",
            "0.9",
            "--steps",
            "4",
            "--format",
            "csv",
            "--out",
            str(out),
        )
        assert code == 0
        raw = out.read_bytes()
        assert b"\r\n" in raw
        rows = list(csv.reader(io.StringIO(raw.decode())))
        assert rows[0][:3] == ["d_k", "lambda_q", "rate"]
        assert len(rows) == 5
        # values survive a parse at 12 significant digits
        d = float(rows[1][0])
        assert d == pytest.approx(0.6, rel=1e-11)

    def test_csv_inapplicable_condition_is_an_empty_cell(self, capsys):
        # rho_s < 0: cond1 does not apply and is written as "", cond2 as 0/1
        argv = ["--rho-x", "-0.3", "--rho-z", "-0.1", "--k", "2", "--dk-min", "0.6",
                "--dk-max", "0.9", "--steps", "3", "--format", "csv"]
        code, out, _ = run(capsys, "sweep", *M0, *argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][-2:] == ["cond1", "cond2"] and len(rows) == 4
        assert all(row[-2] == "" and row[-1] in {"0", "1"} for row in rows[1:])

    @staticmethod
    def _span_models():
        """(model, argv, k, (dk_min, dk_max, steps)): a fixed draw with
        rho_s < 0, = 0 and > 0, each at k = 1 and k = ell, on spans that start
        below d_min^(k)."""
        rng = random.Random(21)
        for sign in (-1, 0, 1):
            for at_ell in (False, True):
                ell = rng.randint(2, 8)
                gx, gz = rng.uniform(0.3, 3.0), rng.uniform(0.05, 3.0)
                top = 0.9 if sign > 0 else 0.9 / (ell - 1)
                if sign:
                    rx, rz = sign * rng.uniform(0.0, top), sign * rng.uniform(0.0, top)
                else:
                    gz, rx = gx, rng.uniform(-top, top)
                    rz = -rx
                m = make_model(gx, rx, gz, rz, ell)
                assert (m.s.rho > 0) - (m.s.rho < 0) == sign
                k = ell if at_ell else 1
                lo = d_min(m, k)
                span = [lo - 0.3 * (gx - lo), lo + 0.95 * (gx - lo), rng.randint(5, 9)]
                argv = [f"--gamma-x={gx!r}", f"--rho-x={rx!r}", f"--gamma-z={gz!r}",
                        f"--rho-z={rz!r}", f"--ell={ell}", f"--k={k}",
                        *(f"--{f}={v!r}" for f, v in zip(("dk-min", "dk-max", "steps"), span))]
                yield m, argv, k, span

    @pytest.mark.parametrize("fmt", ["json", "csv", "bits"])
    def test_rows_equal_the_point_path(self, capsys, fmt):
        # each row is achievable_point and ratio_conditions at its d_k, to the
        # bit, and each skipped d_k is one achievable_point rejects
        for m, argv, k, (lo, hi, steps) in self._span_models():
            rows, warnings = [], []
            for i in range(steps):
                d = lo + (hi - lo) * i / (steps - 1)
                try:
                    lam, rate, profile = bergertung.achievable_point(m, k, d)
                except DomainError as e:
                    warnings.append(f"warning: skipping d_k={d:.12g}: {e}\n")
                    continue
                _, _, cond1, cond2 = rdcore.ratio_conditions(level(m, k), lam)
                rate = rate / cli.LN2 if fmt == "bits" else rate
                rows.append([d, lam, rate, *profile, cond1, cond2])
            assert warnings and rows, argv
            extra = {"json": [], "csv": ["--format=csv"], "bits": ["--bits"]}[fmt]
            code, out, err = run(capsys, "sweep", *argv, *extra)
            assert code == 0 and err == "".join(warnings)
            if fmt == "csv":
                got = list(csv.reader(io.StringIO(out)))[1:]
                assert got == [[cli._csv_cell(v) for v in row] for row in rows]
            else:
                doc = json.loads(out)
                assert [list(row.values()) for row in doc["rows"]] == rows


class TestConditionsAndRegion:
    def test_conditions_m0(self, capsys):
        code, doc, _ = run_json(capsys, "conditions", *M0, "--k", "2", "--dk", "0.75")
        assert code == 0
        c = doc["conditions"]
        assert c["mu"] == pytest.approx(1.0)
        assert c["cond1"] is True and c["regime"] == "always"

    def test_region_rows(self, capsys):
        code, doc, _ = run_json(capsys, "region", *M0, "--k", "2", "--dk", "0.75")
        assert code == 0
        assert [r["j"] for r in doc["rows"]] == [2, 3]


class TestVerify:
    def test_valid_m0(self, capsys):
        code, doc, _ = run_json(capsys, "verify", *M0, "--k", "2", "--dk", "0.75")
        assert code == 0
        assert doc["status"] == "valid"
        assert doc["case"] == "P"
        assert doc["multipliers"]["c"] == pytest.approx(1.0)
        assert abs(doc["numeric_gap"]) < 1e-6

    def test_conditions_fail_status(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "verify",
            "--gamma-x",
            "1",
            "--rho-x",
            "0.99",
            "--gamma-z",
            "100",
            "--rho-z",
            "0.999",
            "--ell",
            "2",
            "--k",
            "2",
            "--dk",
            "0.98984051",
        )
        assert code == 0
        assert doc["status"] == "conditions-fail"
        assert doc["multipliers"]["b1"] < 0

    @pytest.mark.parametrize(
        "argv",
        [
            # m0 scaled by 10^-s: the stationarity terms are about 1/d
            *([f"--gamma-x=1e-{s}", f"--gamma-z=1e-{s}", "--ell=3", "--k=2", f"--dk=7.5e-{s + 1}"]
              for s in range(12)),
            # multiplier c = 1.9e9 on the distortion constraint
            ["--gamma-x=0.3", "--rho-x=0.6480194263666841", "--gamma-z=1000.0",
             "--rho-z=-0.03333333333333333", "--ell=16", "--k=2",
             "--dk=0.2998682370963948", "--j=10"],
            # noiseless, d_k just above d_min = 0
            ["--gamma-x=0.001", "--rho-x=-0.16666666666666666", "--gamma-z=0.0",
             "--rho-z=-0.3333333333333333", "--ell=4", "--k=1",
             "--dk=1.0000000000000002e-12"],
            ["--gamma-x=1", "--gamma-z=0", "--ell=3", "--k=2", "--dk=1e-20"],
            # a correlation within 1e-9 of its boundary: delta << d, where the
            # terms of the b multipliers once cancelled
            ["--gamma-x=0.31023890465883586", "--rho-x=0.999999999", "--gamma-z=0.0",
             "--rho-z=-0.249999999", "--ell=5", "--k=2", "--dk=0.07698264549459341"],
            ["--gamma-x=0.6267730581981378", "--rho-x=-0.249999999",
             "--gamma-z=0.002427458919844822", "--rho-z=-0.249999999", "--ell=5", "--k=5",
             "--dk=0.5785833778521291"],
        ],
        ids=[*(f"m0-scaled-1e-{s}" for s in range(12)), "large-c", "noiseless-1e-12",
             "noiseless-1e-20", "near-boundary-k2", "near-boundary-k5"],
    )
    def test_valid_whatever_the_size_of_the_terms(self, capsys, argv):
        code, doc, _ = run_json(capsys, "verify", *argv)
        assert code == 0 and doc["status"] == "valid", doc["violations"]

    @pytest.mark.parametrize("cmd", ["point", "verify"])
    def test_noiseless_dk_below_the_floor_exits_2(self, capsys, cmd):
        # with d_min = 0 the lower slack is 1e-24 gamma_x: below it lambda_q
        # and the squared distortions of the converse would underflow
        argv = [cmd, "--gamma-x=1", "--gamma-z=0", "--ell=3", "--k=2", "--dk=1e-250"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "must exceed d_min" in err

    def test_inconsistent_status_exits_3(self, capsys, monkeypatch):
        # an oracle optimum 1e-3 away from the certificate: the full
        # document is still written, with status "inconsistent", exit 3
        argv = ["verify", *M0, "--k", "2", "--dk", "0.75"]
        _, valid, _ = run_json(capsys, *argv)
        solve = converse.solve_numeric

        def off(*args):
            point, opt = solve(*args)
            return point, opt + 1e-3

        monkeypatch.setattr(converse, "solve_numeric", off)
        code, doc, err = run_json(capsys, *argv)
        assert code == 3 and err == ""
        assert doc["status"] == "inconsistent" and doc["certificate_valid"] is True
        assert list(doc) == list(valid)
        assert doc["numeric_gap"] == pytest.approx(valid["numeric_gap"] + 1e-3)

    def test_j_defaults_to_k(self, capsys):
        _, doc, _ = run_json(capsys, "verify", *M0, "--k", "2", "--dk", "0.75")
        assert doc["j"] == 2

    def test_oracle_evaluations_bounded(self, capsys, monkeypatch):
        calls = []
        eta = converse._eta_at

        def counted(*args):
            calls.append(args)
            return eta(*args)

        monkeypatch.setattr(converse, "_eta_at", counted)
        code, _, _ = run(capsys, "verify", *M0, "--k", "2", "--dk", "0.75")
        assert code == 0
        # golden-section search shrinks its bracket by 1/phi per evaluation,
        # from about hi to 1e-13 * hi; beyond that, its two first probes, the
        # probe at hi and the certificate's own objective
        iterations = math.ceil(math.log(1e13) / math.log((1 + math.sqrt(5)) / 2))
        assert len(calls) <= iterations + 5


def _readme_cli_examples():
    """The commands of the code block under "## CLI" in README.md, one argv
    each, with continuation lines joined and the leading "ceord" dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("ceord ")]
    if not examples:
        raise ValueError("README.md has no ceord command under ## CLI")
    return examples


class TestReadme:
    @pytest.mark.parametrize("argv", _readme_cli_examples(), ids=lambda argv: argv[0])
    def test_cli_example_runs(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.delenv("CEO_RD_SEED", raising=False)
        argv = list(argv)
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        else:
            argv += ["--out", str(tmp_path / "out")]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "", "")
        target = Path(argv[argv.index("--out") + 1])
        assert target.stat().st_size > 0


class TestBTCheck:
    def test_m0(self, capsys):
        code, doc, _ = run_json(capsys, "bt-check", *M0, "--k", "2", "--dk", "0.75")
        assert code == 0
        assert doc["all_satisfied"] is True
        last = doc["rows"][-1]
        assert last["subset_size"] == 2
        assert last["required_sum_rate"] == pytest.approx(2 * doc["rate"], abs=1e-10)


class TestSimulate:
    def test_pass_and_deterministic(self, capsys):
        argv = [
            "simulate",
            *M0,
            "--k",
            "2",
            "--dk",
            "0.75",
            "--n",
            "50000",
            "--seed",
            "3",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["all_pass"] is True
        assert {r["j"] for r in doc["rows"]} == {2, 3}

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CEO_RD_SEED", "3")
        argv = ["simulate", *M0, "--k", "2", "--dk", "0.75", "--n", "50000"]
        _, out_env, _ = run(capsys, *argv)
        monkeypatch.delenv("CEO_RD_SEED")
        _, out_seeded, _ = run(capsys, *argv, "--seed", "3")
        assert json.loads(out_env)["rows"] == json.loads(out_seeded)["rows"]


class TestMonteCarloDomain:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", *M0, "--k", "2", "--dk", "0.75", "--n", "1"],
            ["decomp-check", *M0, "--lambda-q", "2.0", "--n", "1"],
            ["decomp-check", *M0, "--lambda-q", "0"],
        ],
        ids=["simulate-n1", "decomp-n1", "decomp-lambda-q0"],
    )
    def test_degenerate_exit2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "NaN" not in out
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", f"--k={2**53}", "--dk=0.75", "--n=100"],
            ["decomp-check", f"--j={2**53}", "--lambda-q=1"],
        ],
        ids=["simulate", "decomp-check"],
    )
    def test_unaddressable_arrays_exit2(self, capsys, argv):
        # at ell = 2**53 every O(ell^2) array is past numpy's size limit, so
        # the command is refused before numpy is asked for one; at k = ell
        # (j = ell) each per-j loop runs once
        model = ["--gamma-x=1", "--gamma-z=1", f"--ell={2**53}"]
        code, out, err = run(capsys, argv[0], *model, *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "address space" in err

    def test_unaddressable_simulate_stops_before_the_profile(self, capsys, monkeypatch):
        # the O(ell - k) closed-form profile is computed only once the draw's
        # arrays are known to fit, so a k far below ell = 2**53 exits 2 at
        # once instead of looping first
        calls = []
        monkeypatch.setattr(rdcore, "profile_at_lambda", lambda *a: calls.append(a))
        argv = ["--gamma-x=1", "--gamma-z=1", f"--ell={2**53}", f"--k={2**53 - 1000}"]
        code, out, err = run(capsys, "simulate", *argv, "--dk=0.75", "--n=100")
        assert (code, out, calls) == (2, "", [])
        assert "address space" in err

    @pytest.mark.parametrize(
        "exc, msg",
        [(MemoryError("Unable to allocate 639. PiB"), "Unable to allocate 639. PiB"),
         (MemoryError(), "out of memory")],
        ids=["numpy", "bare"],
    )
    def test_memory_error_exit2(self, capsys, monkeypatch, exc, msg):
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli.mcsim, "empirical_profile", fail)
        code, out, err = run(capsys, "simulate", *M0, "--k", "2", "--dk", "0.75", "--n", "100")
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    def test_decomp_single_component(self, capsys):
        code, doc, _ = run_json(
            capsys, "decomp-check", *M0, "--lambda-q", "2.0", "--j", "1", "--n", "20000"
        )
        assert code in (0, 4)
        assert doc["delta_offdiag_max_sigmas"] == 0.0
        assert math.isfinite(doc["sigma_max_sigmas"])

    def test_bad_seed_env_exit2(self, capsys, monkeypatch):
        monkeypatch.setenv("CEO_RD_SEED", "abc")
        argv = ["simulate", *M0, "--k", "2", "--dk", "0.75", "--n", "100"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "CEO_RD_SEED" in err
        # an explicit --seed wins, and commands without randomness ignore it
        code, _, _ = run(capsys, *argv, "--seed", "1")
        assert code in (0, 4)
        code, _, _ = run(capsys, "point", *M0, "--k", "2", "--dk", "0.75")
        assert code == 0


class TestDecompCheck:
    def test_default_lambda_w(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "decomp-check",
            *M0,
            "--lambda-q",
            "2.0",
            "--n",
            "50000",
            "--seed",
            "1",
        )
        assert code == 0
        assert doc["j"] == 3
        assert doc["lambda_w"] == pytest.approx(1.0)
        assert doc["all_pass"] is True

    def test_default_lambda_w_is_the_explicit_value(self, capsys):
        argv = ["decomp-check", *M0, "--rho-x=0.4", "--rho-z=0.1", "--j=2", "--lambda-q=2"]
        argv += ["--n=20000", "--seed=1"]
        m = make_model(1, 0.4, 1, 0.1, 3)
        lambda_w = 0.5 * min(m.s.lambda1(2), m.s.lambda2)
        default = run(capsys, *argv)
        assert default[0] in (0, 4) and default[2] == ""
        assert run(capsys, *argv, f"--lambda-w={lambda_w!r}") == default

    @pytest.mark.parametrize("rho_x", ["1", "-0.5"])
    @pytest.mark.parametrize("lambda_w", [[], ["--lambda-w=0.5"]], ids=["default", "explicit"])
    def test_zero_lambda_w_bound_exit2(self, capsys, rho_x, lambda_w):
        # rho_x = 1 zeroes lambda_s2 and rho_x = -0.5 zeroes lambda_s1(3), so
        # (0, min(lambda_s1(j), lambda_s2)) is empty; the message once named
        # the default lambda_w=0 as if the user had given it
        argv = ["--gamma-x=1", f"--rho-x={rho_x}", "--gamma-z=0", "--ell=3", "--lambda-q=1"]
        code, out, err = run(capsys, "decomp-check", *argv, "--n=100", "--seed=1", *lambda_w)
        assert (code, out) == (2, "")
        assert err == "error: no lambda_w is admissible at j=3: min(lambda_s1(j), lambda_s2) = 0\n"

    def test_huge_lambda_q_writes_finite_numbers(self, capsys):
        # (ls - lw)(lw + lq) overflowed at lq = 1e300, and the predicted
        # covariance, and with it sigma_max_sigmas, became NaN
        argv = ["--gamma-x=2", "--rho-x=0.5", "--gamma-z=1e50", "--ell=4", "--j=4"]
        argv += ["--lambda-w=1e-12", "--lambda-q=1e300", "--n=3"]
        code, out, err = run(capsys, "decomp-check", *argv)
        assert code in (0, 4) and err == ""
        assert "NaN" not in out and "Infinity" not in out
        assert math.isfinite(json.loads(out)["sigma_max_sigmas"])

    @pytest.mark.parametrize("ell", [5, 2**53])
    def test_reads_level_j_alone(self, capsys, ell):
        # the draw is n x 3j, so (ell, j) writes the bytes of (j, j) but for
        # model.ell; rho >= 0 keeps both models valid
        argv = ["--gamma-x=1", "--rho-x=0.4", "--gamma-z=2", "--rho-z=0.1", "--j=2"]
        argv += ["--lambda-q=1.3", "--n=1000"]
        code, doc, err = run_json(capsys, "decomp-check", *argv, f"--ell={ell}")
        want = run_json(capsys, "decomp-check", *argv, "--ell=2")
        assert doc["model"].pop("ell") == ell and want[1]["model"].pop("ell") == 2
        assert (code, doc, err) == want
        assert code == 0

    def test_bad_lambda_w_exit2(self, capsys):
        code, _, err = run(
            capsys,
            "decomp-check",
            *M0,
            "--lambda-q",
            "2.0",
            "--lambda-w",
            "5.0",
            "--n",
            "100",
        )
        assert code == 2
        assert "lambda_w" in err


@functools.cache
def _workload_argv(workload):
    return [workloads.argv(spec) for spec in workloads.generate(workload, 7)]


def _same_namespace(got, want):
    """Equal attributes of equal types, NaN equal to NaN."""

    def same(a, b):
        return type(a) is type(b) and (a == b or a != a and b != b)

    return got.keys() == want.keys() and all(same(got[k], want[k]) for k in got)


def _subparsers(parser):
    """The subcommand parsers of the top-level parser, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestPerCommandParser:
    """The parser every command runs through: one per process, compared with
    a fresh build (the reference).

    The ``used`` fixture has the cached parser parse valid argv and reject
    bad argv first, so that any state carried between calls would show.
    """

    POINT = ["point", *M0, "--k", "2", "--dk", "0.75"]

    @pytest.fixture
    def used(self, capsys):
        assert run(capsys, *self.POINT)[0] == 0
        cli.build_parser().parse_args(self.POINT)
        for argv in (["--bogus"], self.POINT[:-2], [*self.POINT, "--bogus"], ["nope"]):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        return cli.build_parser()

    @pytest.mark.parametrize("cmd", [None, *cli._COMMANDS])
    def test_help_matches_reference(self, used, cmd):
        fresh = cli.build_parser.__wrapped__()
        if cmd is not None:
            used, fresh = _subparsers(used)[cmd], _subparsers(fresh)[cmd]
        assert used.format_help() == fresh.format_help()

    @pytest.mark.parametrize("workload", ["frontier-small", "frontier-wide", "montecarlo"])
    def test_namespace_matches_reference(self, used, workload):
        # every workload argv is read from the option table, not by argparse
        fresh = cli.build_parser.__wrapped__()
        for argv in _workload_argv(workload):
            want = vars(fresh.parse_args(argv))
            assert vars(used.parse_args(argv)) == want
            read = cli._read_args(argv)
            assert read is not None and _same_namespace(vars(read), want), argv

    @pytest.mark.parametrize(
        "extra", [["--bogus"], ["--tol", "1e-6", "x"], ["--", "--k", "3"]]
    )
    def test_unrecognized_arguments_match_reference(self, capsys, used, extra):
        argv = [*self.POINT, *extra]
        with pytest.raises(SystemExit) as want:
            cli.build_parser.__wrapped__().parse_args(argv)
        ref = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        cap = capsys.readouterr()
        assert got.value.code == want.value.code == 2
        assert cap.out == ref.out == ""
        assert cap.err == ref.err and "unrecognized arguments" in cap.err

    def test_built_once_per_process(self, capsys, monkeypatch):
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        cli.build_parser.cache_clear()
        # a well-formed argv is read from the option table: no parser built
        assert run(capsys, "point", "--gamma-x=1", "--gamma-z=1", "--ell=3", "--k=2", "--dk=0.75")[0] == 0
        assert calls == []
        # the first argv that needs argparse builds it: top level -h and
        # --params-json; each command -h and its table, the six model flags
        # and its own flags
        with pytest.raises(SystemExit):
            main([*self.POINT, "-h"])
        assert len(calls) == 2 + sum(1 + len(table) for _, table in cli._COMMANDS.values())
        calls.clear()
        with pytest.raises(SystemExit):
            main([*self.POINT, "--bogus"])
        assert run(capsys, *self.POINT)[0] == 0
        assert calls == []


def _not_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds).map(repr)


def _ints(**bounds):
    return st.integers(**bounds).map(str)


_NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
_NOT_A_NUMBER = st.text(string.ascii_letters, min_size=1, max_size=8).filter(_not_float)
# An integer too large to convert to a float
HUGE = str(10**400)
_BAD_RHO = _NON_FINITE | _NOT_A_NUMBER | _floats(min_value=1.01) | _floats(max_value=-0.51)

# Invalid values for each flag, against the bases below (ell = 3, k = 2,
# d_min = 0.5, gamma_x = 1, lambda_w bound 2).
BAD_VALUES = {
    "--gamma-x": _NON_FINITE | _NOT_A_NUMBER | _floats(max_value=9e-61) | _floats(min_value=2e60),
    "--gamma-z": _NON_FINITE | _NOT_A_NUMBER | _floats(max_value=-1e-9) | _floats(min_value=2e60),
    "--rho-x": _BAD_RHO,
    "--rho-z": _BAD_RHO,
    "--ell": _NOT_A_NUMBER | _ints(max_value=1) | st.just("2.5") | st.just(HUGE),
    "--k": _NOT_A_NUMBER | _ints(max_value=0) | _ints(min_value=4) | st.just(HUGE),
    "--dk": _NON_FINITE | _NOT_A_NUMBER | _floats(max_value=0.5) | _floats(min_value=1.0),
    "--dk-min": _NON_FINITE | _NOT_A_NUMBER,
    "--dk-max": _NON_FINITE | _NOT_A_NUMBER,
    "--steps": _NOT_A_NUMBER | _ints(max_value=0),
    "--j": _NOT_A_NUMBER | _ints(max_value=0) | _ints(min_value=4) | st.just(HUGE),
    "--tol": _NON_FINITE | _NOT_A_NUMBER | _floats(max_value=0.0),
    "--n": _NOT_A_NUMBER | _ints(max_value=1),
    "--seed": _NOT_A_NUMBER | _ints(max_value=-1),
    "--format": st.text(string.ascii_letters, min_size=1).filter(lambda f: f not in ("json", "csv")),
    "--lambda-w": _NON_FINITE | _NOT_A_NUMBER | _floats(max_value=0.0) | _floats(min_value=2.0),
    "--lambda-q": _NON_FINITE | _NOT_A_NUMBER | _floats(max_value=0.0),
}

_MODEL = {"--gamma-x": "1", "--rho-x": "0", "--gamma-z": "1", "--rho-z": "0", "--ell": "3"}
_POINT = {**_MODEL, "--k": "2", "--dk": "0.75"}
VALID_BASES = {
    "point": _POINT,
    "region": {**_POINT, "--format": "json"},
    "conditions": _POINT,
    "verify": {**_POINT, "--j": "2", "--tol": "1e-9"},
    "bt-check": {**_POINT, "--format": "json"},
    "sweep": {**_MODEL, "--k": "2", "--dk-min": "0.6", "--dk-max": "0.9", "--steps": "3"},
    "simulate": {**_POINT, "--n": "100", "--seed": "1", "--format": "json"},
    "decomp-check": {
        **_MODEL, "--j": "3", "--lambda-w": "1", "--lambda-q": "2", "--n": "100", "--seed": "1"
    },
}


@pytest.fixture(scope="module")
def unwritable(tmp_path_factory):
    """--out targets that fail: open() refuses a file in a missing directory,
    a directory and ""; a write to /dev/full, where it exists, fails."""
    root = tmp_path_factory.mktemp("out")
    full = ["/dev/full"] if Path("/dev/full").exists() else []
    return [str(root / "missing" / "x.json"), str(root), "", *full]


class TestOut:
    @pytest.mark.parametrize("cmd", sorted(VALID_BASES))
    def test_file_holds_what_stdout_would(self, capsys, tmp_path, cmd):
        argv = [cmd] + [f"{f}={v}" for f, v in VALID_BASES[cmd].items()]
        code, out, err = run(capsys, *argv)
        target = tmp_path / "doc"
        assert run(capsys, *argv, f"--out={target}") == (code, "", err)
        assert target.read_bytes() == out.encode("utf-8")


class TestCsvTables:
    @pytest.mark.parametrize(
        "argv",
        [
            ["region", *M0, "--rho-x", "0.5", "--k", "1", "--dk", "0.75"],
            ["bt-check", *M0, "--k", "2", "--dk", "0.75"],
            ["simulate", *M0, "--k", "1", "--dk", "0.75", "--n", "2000", "--seed", "1"],
        ],
        ids=["region", "bt-check", "simulate"],
    )
    def test_cells_spell_the_json_rows(self, capsys, argv):
        # the integer columns (j, subset_size) are written plain, booleans as
        # 1/0 and floats at 12 significant digits, in CRLF-terminated lines
        code, doc, _ = run_json(capsys, *argv)
        csv_code, out, _ = run(capsys, *argv, "--format", "csv")
        assert csv_code == code
        lines = out.split("\r\n")
        assert lines[-1] == "" and "\n" not in "".join(lines)
        header, *cells = list(csv.reader(lines[:-1]))
        assert header == list(doc["rows"][0])
        assert len(cells) == len(doc["rows"])
        kinds = set()
        for row, want in zip(cells, doc["rows"]):
            assert len(row) == len(want)
            for cell, value in zip(row, want.values()):
                kinds.add(type(value))
                if isinstance(value, bool):
                    assert cell == ("1" if value else "0")
                elif isinstance(value, int):
                    assert cell == str(value)
                else:
                    assert cell == f"{value:.12g}"
                    assert float(cell) == pytest.approx(value, rel=1e-11, abs=0)
        assert int in kinds and float in kinds


# Documents for the JSON writer: keys that look like its own separators, and
# every scalar that json spells in a way of its own.
_DOC_KEYS = st.text(max_size=6) | st.sampled_from(
    ["\n", "},", "},\n    {", "é", " ", '"', "\\", "\x00", 'a"\x00', '"\\u0000"']
)
_DOC_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308])
    | _DOC_KEYS
)
_DOC_ROWS = st.lists(st.dictionaries(_DOC_KEYS, _DOC_SCALARS, min_size=1, max_size=4), max_size=4)


class _DocPair(NamedTuple):
    """A record member: a tuple subclass, which json writes as an array."""

    first: Any
    second: Any


def _alternating(inner):
    """Lists and dicts whose members alternate between a scalar and a
    non-empty container."""
    nested = st.lists(inner, min_size=1, max_size=3) | st.dictionaries(
        _DOC_KEYS, inner, min_size=1, max_size=3
    )
    pairs = st.lists(st.tuples(_DOC_KEYS, _DOC_SCALARS, _DOC_KEYS, nested), min_size=1, max_size=3)
    return pairs.map(lambda ps: [m for _, a, _, b in ps for m in (a, b)]) | pairs.map(
        lambda ps: {k: v for ka, a, kb, b in ps for k, v in ((ka, a), (kb, b))}
    )


_DOCS = st.recursive(
    _DOC_SCALARS | _DOC_ROWS | st.sampled_from([{}, [], ()]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_DOC_KEYS, inner, max_size=4)
    | st.builds(_DocPair, inner, inner)
    | _alternating(inner),
    max_leaves=40,
)
_ELL64 = {"--gamma-x": "1", "--rho-x": "0.2", "--gamma-z": "1", "--rho-z": "0.1", "--ell": "64"}
_WIDE = {"--k": "32", "--dk": "0.75", "--dk-min": "0.6", "--dk-max": "0.9", "--j": "64"}


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(doc=_DOCS)
    def test_equals_json_dumps_indent_2(self, doc):
        assert cli._dumps(doc) == json.dumps(doc, indent=2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(doc=_DOCS)
    def test_equals_json_dumps_indent_2_without_c_encoder(self, doc):
        # an interpreter without _json: each depth's encoder, chosen when it
        # is built, is json's Python one
        cli._encoder.cache_clear()
        try:
            with mock.patch.object(json.encoder, "c_make_encoder", None):
                assert isinstance(cli._encoder(0).__self__, json.JSONEncoder)
                assert cli._dumps(doc) == json.dumps(doc, indent=2)
        finally:
            cli._encoder.cache_clear()

    @pytest.mark.parametrize("ell", [3, 64])
    @pytest.mark.parametrize("cmd", sorted(VALID_BASES))
    def test_stdout_is_indent_2_json(self, capsys, cmd, ell):
        flags = dict(VALID_BASES[cmd])
        if ell == 64:
            flags.update(_ELL64)
            flags.update((f, v) for f, v in _WIDE.items() if f in flags)
        code, out, _ = run(capsys, cmd, *[f"{f}={v}" for f, v in flags.items()])
        assert code in (0, 4)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestExitCodeContract:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_bad_value_exits_2_with_empty_stdout(self, unwritable, data):
        cmd = data.draw(st.sampled_from(sorted(VALID_BASES)), label="command")
        flag = data.draw(st.sampled_from([*VALID_BASES[cmd], "--out"]), label="flag")
        bad = st.sampled_from(unwritable) if flag == "--out" else BAD_VALUES[flag]
        flags = {**VALID_BASES[cmd], flag: data.draw(bad, label="value")}
        # "--flag=value", so that a negative value is not read as an option
        argv = [cmd] + [f"{f}={v}" for f, v in flags.items()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        assert code == 2, err.getvalue()
        assert out.getvalue() == ""

    @pytest.mark.parametrize(
        "cmd, flag",
        [
            (cmd, flag)
            for cmd, (_, flags) in cli._COMMANDS.items()
            for flag, kw in {**cli._MODEL, **flags}.items()
            if kw.get("action") != "store_true"
        ],
    )
    def test_attached_double_dash_exits_2(self, capsys, cmd, flag):
        # argparse drops "--" from "--flag=--" and stores [], which once
        # reached a handler and raised a TypeError
        flags = {**VALID_BASES[cmd], flag: "--"}
        code, out, err = run(capsys, cmd, *[f"{f}={v}" for f, v in flags.items()])
        assert (code, out) == (2, "")
        assert err == f"error: {flag} needs a value, got '--'\n"

    @pytest.mark.parametrize("j", ["0", "-1", "4", "7", HUGE])
    def test_decomp_check_j_out_of_range(self, capsys, j):
        code, out, err = run(capsys, "decomp-check", *M0, "--lambda-q", "2", "--n", "100", "--j", j)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"j={j} out of range [1, 3]" in err

    @pytest.mark.parametrize("lambda_q, n", [("5e-324", "100"), ("1e-300", "1000"), ("1e-200", "1000")])
    def test_decomp_check_tiny_lambda_q(self, capsys, lambda_q, n):
        # a standard error underflows to 0 and a z-score would be NaN or Infinity
        code, out, err = run(capsys, "decomp-check", *M0, f"--lambda-q={lambda_q}", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error: lambda_q=") and "NaN" not in err and "Infinity" not in err

    @pytest.mark.parametrize(
        "span, message",
        [
            (["--dk-min", "0.6", "--dk-max", "0.9", "--steps", "0"], "--steps"),
            (["--dk-min", "0.6", "--dk-max", "0.9", "--steps", "-2"], "--steps"),
            (["--dk-min", "nan", "--dk-max", "0.9", "--steps", "3"], "finite"),
            (["--dk-min", "0.6", "--dk-max", "inf", "--steps", "3"], "finite"),
            (["--dk-min", "0.2", "--dk-max", "0.4", "--steps", "3"], "no sweep point"),
        ],
    )
    def test_sweep_empty_or_non_finite_range(self, capsys, span, message):
        code, out, err = run(capsys, "sweep", *M0, "--k", "2", *span)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("k", ["0", "4"])
    def test_sweep_k_out_of_range(self, capsys, k):
        span = ["--dk-min", "0.6", "--dk-max", "0.9", "--steps", "3"]
        code, out, err = run(capsys, "sweep", *M0, "--k", k, *span)
        assert code == 2 and out == ""
        assert f"k={k} out of range" in err

    @pytest.mark.parametrize("cmd", ["point", "verify", "bt-check"])
    @pytest.mark.parametrize("s", ["1e-100", "1e100", "1e308"])
    def test_variance_outside_the_domain(self, capsys, cmd, s):
        # m0 scaled by s: once a traceback or a wrong "within rounding" error
        dk = f"--dk={0.75 * float(s)!r}"
        code, out, err = run(capsys, cmd, f"--gamma-x={s}", f"--gamma-z={s}", "--ell=3", "--k=2", dk)
        assert code == 2 and out == ""
        assert err.startswith("error: need 1e-60 <= gamma_x <= 1e+60")

    def test_empty_out(self, capsys):
        code, out, err = run(capsys, "point", *M0, "--k", "2", "--dk", "0.75", "--out=")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out ''")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    def test_out_write_error(self, capsys):
        code, out, err = run(capsys, "point", *M0, "--k", "2", "--dk", "0.75", "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err == "error: cannot write --out '/dev/full': No space left on device\n"

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "point", *M0, "--k", "2", "--dk", "0.75", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(target) in err
        assert not target.parent.exists()


# Values that argparse reads in its own way: negative (as a token of its
# own, "-1" is a number to argparse but "-inf", "-1e-05" and "-x" are
# options), empty, padded, NaN, too large for a float, non-ASCII digits,
# "--" (dropped from an attached value, leaving []), a bad --format
_ODD_VALUES = [
    "-1", "-0.5", "-inf", "-1e-05", "-x", "", " ", " 2 ", "nan", HUGE,
    "\u0663", "\u0662.\u0665", "--", "-", "1_0", "xml",
]
_ODD_TOKENS = ["--bits=1", "--bits=", "-h", "--help", "--", "--format=xml", "--format", "xml", "--bogus", "-x"]
_ODD_COMMANDS = [*cli._COMMANDS, "poin", "points", "", "-h", "--k=2"]


def _pick(draw, argv):
    return draw(st.integers(1, len(argv) - 1))


def _abbreviate(draw, argv):
    i = _pick(draw, argv)
    flag, eq, value = argv[i].partition("=")
    argv[i] = flag[: draw(st.integers(3, max(3, len(flag) - 1)))] + eq + value
    return argv


def _repeat(draw, argv):
    return argv + [argv[_pick(draw, argv)]]


def _revalue(draw, argv):
    # a new value, attached or as a token of its own
    i = end = _pick(draw, argv)
    flag, eq, value = argv[i].partition("=")
    if not eq and end + 1 < len(argv) and not argv[end + 1].startswith("-"):
        end += 1
        value = argv[end]
    new = draw(st.sampled_from([value, *_ODD_VALUES]))
    argv[i : end + 1] = draw(st.sampled_from([[f"{flag}={new}"], [flag, new]]))
    return argv


def _insert(draw, argv):
    argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ODD_TOKENS)))
    return argv


def _recommand(draw, argv):
    return [draw(st.sampled_from(_ODD_COMMANDS)), *argv[1:]]


def _drop(draw, argv):
    del argv[_pick(draw, argv)]
    return argv


def _to_params_json(draw, argv):
    # move some flags into one --params-json object, under any spelling
    # argparse expands to it, before or after the command
    keep, params = [argv[0]], {}
    for token in argv[1:]:
        flag, eq, value = token.partition("=")
        if flag.startswith("--") and draw(st.booleans()):
            try:
                params[flag[2:].replace("-", "_")] = json.loads(value) if eq else True
            except ValueError:
                params[flag[2:].replace("-", "_")] = value
        else:
            keep.append(token)
    spelling = "--params-json"[: draw(st.integers(3, len("--params-json")))]
    blob = json.dumps(params)
    option = draw(st.sampled_from([[f"{spelling}={blob}"], [spelling, blob]]))
    return option + keep if draw(st.booleans()) else keep + option


_EDITS = [_abbreviate, _repeat, _revalue, _insert, _recommand, _drop]


@st.composite
def _mutated_argv(draw):
    """A workload argv of seed 7, maybe with --out (the one flag without a
    type), with up to three edits, then maybe a --params-json expansion."""
    pool = _workload_argv(draw(st.sampled_from(["frontier-small", "frontier-wide", "montecarlo"])))
    # an index, not sampled_from: that would hash the whole pool per draw
    argv = list(pool[draw(st.integers(0, len(pool) - 1))])
    if draw(st.booleans()):
        value = draw(st.sampled_from(["doc.json", *_ODD_VALUES]))
        argv += draw(st.sampled_from([[f"--out={value}"], ["--out", value]]))
    for _ in range(draw(st.integers(0, 3))):
        if len(argv) > 1:
            argv = draw(st.sampled_from(_EDITS))(draw, argv)
    if len(argv) > 1 and draw(st.booleans()):
        argv = _to_params_json(draw, argv)
    return argv


class TestReader:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argv=_mutated_argv())
    def test_agrees_with_argparse(self, argv):
        # where the reader returns a namespace, it is argparse's; where
        # argparse exits (help or an error), the reader returned None
        try:
            argv = cli._apply_params_json(argv)
        except cli.DomainError:
            return  # main exits 2 before either reads argv
        read = cli._read_args(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                want = vars(cli.build_parser.__wrapped__().parse_args(argv))
            except SystemExit:
                assert read is None, argv
                return
        assert read is None or _same_namespace(vars(read), want), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["point", *M0, "--k", "2", "--dk", "0.75", "--bits"],
            ["point", "--gamma-x=1", "--gamma-z=1", "--ell=3", "--k=2", "--dk=-1", "--out="],
            ["sweep", *M0, "--k=2", "--dk-min=0.6", "--dk-max=0.9", "--steps=3", "--format", "csv"],
            ["verify", *M0, "--k=2", "--dk=nan", "--tol= 1e-6 ", "--j=\u0662"],
        ],
        ids=["separate", "attached", "choices", "converted"],
    )
    def test_reads_well_formed_argv(self, argv):
        read = cli._read_args(argv)
        assert read is not None
        assert _same_namespace(vars(read), vars(cli.build_parser.__wrapped__().parse_args(argv)))

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["point", *M0, "--k", "2", "--dk", "0.75", "-h"],
            ["point", *M0, "--k", "2", "--d", "0.75"],
            ["point", *M0, "--k", "2", "--dk", "0.75", "--k", "3"],
            ["point", *M0, "--k", "2", "--dk", "0.75", "--bits=1"],
            ["point", *M0, "--k", "2", "--dk", "-1"],
            ["point", *M0, "--k", "2", "--dk", "0.75", "--out=--"],
            ["point", *M0, "--k", "2", "--dk", "-inf"],
            ["point", *M0, "--k", "2", "--dk", "0.75", "--", "--bits"],
            ["point", *M0, "--k", "2.5", "--dk", "0.75"],
            ["point", *M0, "--k", "2"],
            ["region", *M0, "--k", "2", "--dk", "0.75", "--format", "xml"],
            ["nope", *M0],
        ],
        ids=[
            "empty", "help", "command-help", "abbreviated", "repeated", "bits-value",
            "separate-negative", "attached-dashes", "separate-option-like", "double-dash", "not-an-int", "missing",
            "bad-choice", "unknown-command",
        ],
    )
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._read_args(argv) is None


@pytest.mark.parametrize("cmd", sorted(cli._COMMANDS))
def test_compiled_table_agrees_with_the_parser(cmd):
    # the reader's table, compiled once from _COMMANDS, against the parser
    # argparse builds from the same option table
    flags, defaults, required = cli._READER[cmd]
    func, table = cli._COMMANDS[cmd]
    parser = _subparsers(cli.build_parser.__wrapped__())[cmd]
    actions = {a.option_strings[0]: a for a in parser._actions if a.dest != "help"}
    assert flags.keys() == actions.keys() == table.keys()
    for flag, (dest, convert, choices, store_true) in flags.items():
        action = actions[flag]
        assert dest == action.dest
        assert store_true == isinstance(action, argparse._StoreTrueAction)
        assert convert is (action.type or str)
        assert choices == action.choices
        assert type(defaults[dest]) is type(action.default) and defaults[dest] == action.default
        assert (dest in required) == action.required
    assert defaults.keys() == {"params_json", "command", "func", *(opt[0] for opt in flags.values())}
    assert (defaults["params_json"], defaults["command"], defaults["func"]) == (None, cmd, func)
