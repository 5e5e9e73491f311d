"""Checks of the benchmark's own span recorder and output oracle.

Run with ``python3 -m pytest bench/test_spans.py`` from the repository root.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ceord import bergertung, cli, converse, mcsim, rdcore, spectra  # noqa: E402


@pytest.fixture
def rec():
    r = spans.Recorder()
    bound = r.instrument()
    try:
        yield r, bound
    finally:
        r.uninstrument()


def model():
    return spectra.validate(spectra.SymmetricSpec(1.0, 0.2, 4), spectra.SymmetricSpec(1.0, 0.1, 4))


def test_every_binding_of_imported_names_is_wrapped(rec):
    _, bound = rec
    where = {(name, mod) for name, mod, _ in bound}
    for mod in ("ceord.spectra", "ceord.bergertung", "ceord.mcsim", "ceord"):
        assert ("spectra.dense", mod) in where
    for mod in ("ceord.spectra", "ceord.rdcore", "ceord.converse", "ceord"):
        assert ("spectra.d_min", mod) in where
    for mod, names in spans.TARGETS.items():
        for fname in names:
            assert (f"{mod}.{fname}", f"ceord.{mod}") in where


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda m: spectra.dense(m.s, 3), "spectra.dense"),
        (lambda m: bergertung.dense(m.s, 3), "spectra.dense"),
        (lambda m: mcsim.dense(m.s, 3), "spectra.dense"),
        (lambda m: spectra.d_min(m, 2), "spectra.d_min"),
        (lambda m: rdcore.d_min(m, 2), "spectra.d_min"),
        (lambda m: converse.d_min(m, 2), "spectra.d_min"),
    ],
)
def test_call_through_each_importing_module_is_recorded(rec, call, name):
    r, _ = rec
    call(model())
    assert r.calls[name] == 1


def test_nested_calls_record_parent_and_self_time(rec):
    r, _ = rec
    m = model()
    bergertung.check_symmetric_rate(m, 3, 0.8)
    assert r.calls["bergertung.check_symmetric_rate"] == 1
    assert r.calls["bergertung.subset_mutual_info"] == 3
    assert r.calls["spectra.dense"] == 3  # one per subset, through bergertung
    assert r.calls[spans.SOLVE] == 1
    assert r.counts["evals_in_solve"] == r.calls[spans.EVAL]
    assert all(v >= 0 for v in r.self_s.values())


def test_self_time_is_duration_minus_children():
    r = spans.Recorder()

    def child():
        time.sleep(0.02)

    wrapped_child = r._wrap("c", child)

    def parent():
        time.sleep(0.01)
        wrapped_child()

    r._wrap("p", parent)()
    assert r.calls == {"p": 1, "c": 1}
    assert 0.02 <= r.self_s["c"] < 0.03
    assert 0.01 <= r.self_s["p"] < 0.02


def test_uninstrument_restores_originals():
    r = spans.Recorder()
    before = spectra.dense, bergertung.dense, cli.main
    r.instrument()
    assert bergertung.dense is not before[1]
    r.uninstrument()
    assert (spectra.dense, bergertung.dense, cli.main) == before


def _run(spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(workloads.argv(spec))
    return rc, out.getvalue()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_oracle_accepts_generated_commands(workload):
    specs = workloads.warmup(workloads.generate(workload, 3))
    assert {s["cmd"] for s in specs} <= set(oracle._CHECKS)
    for spec in specs:
        rc, text = _run(spec)
        assert oracle.check(spec, rc, text) is None


def test_oracle_rejects_a_wrong_lambda():
    spec = workloads.PROBES["frontier-small"]
    rc, text = _run(spec)
    doc = json.loads(text)
    doc["lambda_q"] *= 1 + 1e-9
    assert "resubstitution" in oracle.check(spec, rc, json.dumps(doc))
    assert oracle.check(spec, 3, text) == "point: exit code 3"
