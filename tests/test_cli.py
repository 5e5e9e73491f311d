import argparse
import contextlib
import csv
import io
import json
import math
import string
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceord import bergertung, cli, converse, rdcore
from ceord.cli import main

from helpers import make_model, reference_parser

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

    def test_values_equal_library_exactly(self, capsys):
        m = make_model(1.3, 0.37, 0.7, -0.004, 200)
        argv = ["--gamma-x", "1.3", "--rho-x", "0.37", "--gamma-z", "0.7", "--rho-z", "-0.004"]
        _, doc, _ = run_json(capsys, "point", *argv, "--ell", "200", "--k", "61", "--dk", "0.4")
        assert doc["lambda_q"] == rdcore.solve_lambda_q(m, 61, 0.4)
        assert doc["rate"] == rdcore.rate_bar(m, 61, 0.4)

    def test_region_failure_exit3(self, capsys, monkeypatch):
        monkeypatch.setattr(bergertung, "subset_mutual_info", lambda *a: 1e6)
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


class TestSweep:
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

    def test_j_defaults_to_k(self, capsys):
        _, doc, _ = run_json(capsys, "verify", *M0, "--k", "2", "--dk", "0.75")
        assert doc["j"] == 2

    def test_oracle_evaluations_bounded(self, capsys, monkeypatch):
        calls = []
        eta = converse._eta

        def counted(*args):
            calls.append(args)
            return eta(*args)

        monkeypatch.setattr(converse, "_eta", counted)
        code, _, _ = run(capsys, "verify", *M0, "--k", "2", "--dk", "0.75")
        assert code == 0
        # golden-section search shrinks its bracket by 1/phi per evaluation,
        # from about hi to 1e-13 * hi; beyond that, its two first probes, the
        # probe at hi and the certificate's own objective
        iterations = math.ceil(math.log(1e13) / math.log((1 + math.sqrt(5)) / 2))
        assert len(calls) <= iterations + 5


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


class TestPerCommandParser:
    POINT = ["point", *M0, "--k", "2", "--dk", "0.75"]

    @pytest.mark.parametrize("cmd", [None, *cli._COMMANDS])
    def test_help_matches_reference(self, cmd):
        parser, subparsers = reference_parser()
        ref = parser if cmd is None else subparsers[cmd]
        assert cli.build_parser(cmd).format_help() == ref.format_help()

    @pytest.mark.parametrize("workload", ["frontier-small", "frontier-wide"])
    def test_namespace_matches_reference(self, workload):
        parser, _ = reference_parser()
        for spec in workloads.generate(workload, 7)[:150]:
            argv = workloads.argv(spec)
            want = vars(parser.parse_args(argv))
            assert want.pop("command") == argv[0] and want.pop("params_json") is None
            got, extra = cli.build_parser(argv[0]).parse_known_args(argv[1:])
            assert extra == [] and vars(got) == want

    @pytest.mark.parametrize(
        "extra", [["--bogus"], ["--tol", "1e-6", "x"], ["--", "--k", "3"]]
    )
    def test_unrecognized_arguments_match_reference(self, capsys, extra):
        argv = [*self.POINT, *extra]
        with pytest.raises(SystemExit) as want:
            reference_parser()[0].parse_args(argv)
        ref = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        cap = capsys.readouterr()
        assert got.value.code == want.value.code == 2
        assert cap.out == ref.out == ""
        assert cap.err == ref.err and "unrecognized arguments" in cap.err

    def test_builds_only_the_commands_parser(self, capsys, monkeypatch):
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        code, _, _ = run(capsys, *self.POINT)
        assert code == 0
        # -h, the six model flags, and point's own flags
        assert len(calls) == 1 + 6 + len(cli._COMMANDS["point"][1])


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
_BAD_RHO = _NON_FINITE | _NOT_A_NUMBER | _floats(min_value=1.01) | _floats(max_value=-0.51)

# Invalid values for each flag, against the bases below (ell = 3, k = 2,
# d_min = 0.5, gamma_x = 1, lambda_w bound 2).
BAD_VALUES = {
    "--gamma-x": _NON_FINITE | _NOT_A_NUMBER | _floats(max_value=9e-61) | _floats(min_value=2e60),
    "--gamma-z": _NON_FINITE | _NOT_A_NUMBER | _floats(max_value=-1e-9) | _floats(min_value=2e60),
    "--rho-x": _BAD_RHO,
    "--rho-z": _BAD_RHO,
    "--ell": _NOT_A_NUMBER | _ints(max_value=1) | st.just("2.5"),
    "--k": _NOT_A_NUMBER | _ints(max_value=0) | _ints(min_value=4),
    "--dk": _NON_FINITE | _NOT_A_NUMBER | _floats(max_value=0.5) | _floats(min_value=1.0),
    "--dk-min": _NON_FINITE | _NOT_A_NUMBER,
    "--dk-max": _NON_FINITE | _NOT_A_NUMBER,
    "--steps": _NOT_A_NUMBER | _ints(max_value=0),
    "--j": _NOT_A_NUMBER | _ints(max_value=0) | _ints(min_value=4),
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
    """Two --out targets open() refuses: a file in a missing directory, a directory."""
    root = tmp_path_factory.mktemp("out")
    return [str(root / "missing" / "x.json"), str(root)]


class TestOut:
    @pytest.mark.parametrize("cmd", sorted(VALID_BASES))
    def test_file_holds_what_stdout_would(self, capsys, tmp_path, cmd):
        argv = [cmd] + [f"{f}={v}" for f, v in VALID_BASES[cmd].items()]
        code, out, err = run(capsys, *argv)
        target = tmp_path / "doc"
        assert run(capsys, *argv, f"--out={target}") == (code, "", err)
        assert target.read_bytes() == out.encode("utf-8")


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

    @pytest.mark.parametrize("j", ["0", "-1", "4", "7"])
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

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "point", *M0, "--k", "2", "--dk", "0.75", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(target) in err
        assert not target.parent.exists()
