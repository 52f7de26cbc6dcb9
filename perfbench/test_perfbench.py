"""Tests of the benchmark itself.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return run.import_program()


def _pool(name, seed, program):
    return workloads.build_pool(workloads.WORKLOADS[name], seed, program[1]["complexes"])


def test_generation_is_deterministic_per_seed_and_differs_across_seeds(program):
    for name in ("check", "realize"):
        first = _pool(name, 1, program)
        assert first == _pool(name, 1, program)
        assert first != _pool(name, 2, program)


def test_constructed_families_are_the_documented_ones(program):
    # Bracelet counts for m = 6..12, the numbers of simplicial (m-4)-polytopes on m vertices.
    assert [len(workloads.all_bracelets(m)) for m in range(6, 13)] == [2, 5, 8, 18, 29, 57, 96]
    kinds = set()
    for name in ("check", "realize"):
        for op in _pool(name, 3, program):
            kinds.add(op.kind)
            if op.kind == "pairs":
                assert len(op.members) == 9 and all(len(a) == 2 for a in op.members)
                assert sorted(v for a in op.members for v in a) == list(range(1, 19))
                continue
            full = workloads.apply_labels(op.labels, workloads.bracelet_members(op.bracelet))
            assert sum(op.bracelet) == op.m and len(op.bracelet) % 2 == 1
            if op.kind in ("sphere", "accepted"):
                assert op.members == full
            else:
                assert op.kind in ("non_sphere", "even")
                assert len(op.members) % 2 == 0 and len(op.members) >= 4
                assert set(op.members) < set(full) and len(full) - len(op.members) == 1
            doc = json.loads(op.stdin)
            if op.argv[0] == "realize":
                assert doc == {"m": op.m, "nonfaces": [list(a) for a in op.members]}
            else:  # every member is a non-face of the complex that check reads
                assert doc["m"] == op.m
                assert not any(set(a) <= set(f) for a in op.members for f in doc["facets"])
    assert kinds == {"sphere", "non_sphere", "accepted", "pairs", "even"}


def test_wrong_answers_and_timeouts_count_as_failures(program, monkeypatch, capsys):
    cli = program[1]["cli"]
    pool = _pool("realize", 1, program)
    accepted = next(op for op in pool if op.kind == "accepted")
    session = run.Session("realize")
    assert session.run(cli, accepted, "ok")[2]
    assert not session.run(cli, replace(accepted, m=accepted.m + 1), "wrong size")[2]
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.01)
    pairs = next(op for op in pool if op.kind == "pairs")
    assert not session.run(cli, pairs, "slow")[2]
    assert (session.attempted, session.failed) == (3, 2)
    log = capsys.readouterr().err
    assert "wrong size" in log and "OpTimeout" in log and '"nonfaces"' in log


def test_tracer_reaches_aliases_and_global_calls_and_restores_them(program):
    package, modules = run.import_program()
    originals = {(m, attr): value for m in (*modules.values(), package) for attr, value in vars(m).items()}
    t = tracer.Tracer(modules, package)
    t.install()
    try:
        assert hasattr(modules["cli"].run_catalog, tracer.WRAPPED_MARK)
        assert hasattr(package.catalog, tracer.WRAPPED_MARK)
        modules["linalg"].kernel_basis([[1, 2], [2, 4]])
    finally:
        t.uninstall()
    t.finish_op("test", 1.0)
    totals = tracer.aggregate(t.totals)
    assert totals["linalg.kernel_basis"][0] == 1 and totals["linalg.rref"][0] == 1
    assert [s.name for s in t.spans] == ["linalg.rref", "linalg.kernel_basis"]
    assert tracer.installed_wrappers(modules, package) == []
    for (module, attr), value in originals.items():
        assert vars(module)[attr] is value


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_printed_metrics_match_benchmark_json_and_no_wrapper_is_left():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(spec["paths"]) == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(["--workload", "realize", "--seed", "1", "--seconds", "0.5", "--trace", str(trace)])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    package = sys.modules["oddsphere"]
    modules = {layer: sys.modules[f"oddsphere.{layer}"] for layer in tracer.LAYERS}
    assert tracer.installed_wrappers(modules, package) == []
