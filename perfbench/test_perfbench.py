"""Tests of the benchmark itself: seeded corpora, the traced name rebinding,
and a tiny end-to-end run of every workload.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpora  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from shufflecodec import Graph, canon, compress, perms, shuffle  # noqa: E402

TINY = {"er-attr": 20, "pa-pu": 2, "symmetric": 6, "multiset": 3}


def _keys(data):
    if isinstance(data, list):
        return data
    return [g.key() for g in data.graphs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_corpus(name):
    a = corpora.generate(name, 7, TINY[name])
    assert _keys(a) == _keys(corpora.generate(name, 7, TINY[name]))
    assert _keys(a) != _keys(corpora.generate(name, 8, TINY[name]))


def test_symmetric_family_covers_nine_families():
    names = [name for name, _ in corpora.symmetric_family()]
    assert len(names) == len(set(names))
    for prefix in ("K1,", "E", "3K3", "K5", "K2,3", "C6", "grid6x6", "Q5", "hub4x4"):
        assert any(n.startswith(prefix) for n in names), prefix


def test_tracer_restores_every_rebound_name():
    before = (shuffle.canonize, canon.schreier_sims, compress.graph_codec_for,
              perms.coset_canon, shuffle.ShuffleCodec.encode)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert shuffle.canonize is not before[0]
        assert canon.schreier_sims is not before[1]
        shuffle.canonize(Graph(3, [(0, 1), (1, 2)]))
    after = (shuffle.canonize, canon.schreier_sims, compress.graph_codec_for,
             perms.coset_canon, shuffle.ShuffleCodec.encode)
    assert after == before
    layers = tracer.metrics()
    assert layers["canon.canonize.calls"] == 1
    assert layers["perms.schreier_sims.calls"] == 1
    assert 0 <= layers["canon.canonize.self_s"] <= tracer.spans["canon.canonize"].total_s


def test_latency_tail_needs_ten_samples_beyond():
    assert tracing.latency([1.0] * 19)[2] == 50.0
    assert tracing.latency([float(i) for i in range(100)])[1:] == (89.0, 90.0)
    assert tracing.latency([float(i) for i in range(1000)])[2] == 99.0


def test_noncanonical_check_flags_a_label_dependent_canonizer():
    wl = workloads.build("symmetric", corpora.generate("symmetric", 3, 4))
    assert workloads.noncanonical_inputs(wl, 3) == 0
    wl.canonical_form = lambda g: g  # the input labeling itself
    assert workloads.noncanonical_inputs(wl, 3) == 4


def test_symmetric_shows_the_canon_defect():
    # Diagnostic workload, not in BENCHMARK.json: canonize breaks ties between
    # target cells by a vertex label, so some grids and hypercubes canonize
    # differently under another labeling. A fix to canon makes this 0.
    wl = workloads.build("symmetric", corpora.generate("symmetric", 1, 100))
    assert workloads.noncanonical_inputs(wl, 1) > 0


def test_decode_exception_fails_its_objects_and_the_run_goes_on(monkeypatch, capsys):
    wl = workloads.build("pa-pu", corpora.generate("pa-pu", 3, 2))
    encoded = wl.encode()
    assert workloads.count_failures(wl.expected, wl.decode(encoded)) == 0

    def corrupt(data, name="decoded"):
        raise ValueError("corrupt message")

    monkeypatch.setattr(workloads, "decompress_corpus", corrupt)
    assert workloads.count_failures(wl.expected, wl.decode(encoded)) == 2
    assert "corrupt message" in capsys.readouterr().err


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_end_to_end(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(corpora, "SIZES", TINY)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", name, "--seed", "5",
                                      "--seconds", "0.01", "--trace", str(trace)])
    assert run.main() == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == TINY[name] * (1 + trace)
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(run.declared_units(kind))


def test_benchmark_json_names_its_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.MEASURED)
    assert spec["paths"] == ["perfbench"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pa-pu", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120, env=env,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
