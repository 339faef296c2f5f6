"""The benchmark's per-layer metrics still name functions that exist.

BENCHMARK.json lists per-layer metrics as <layer>.<name>.<stat>.  The
tracer in perfbench/ reports a metric whose function is gone as null, and a
traced run still exits 0, so a rename would pass unnoticed.  These tests
resolve every name by the tracer's own rule (Tracer._targets, read without
installing any wrapper) and check the entry points perfbench calls directly;
one short traced run checks the printed result end to end.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import lfunlab

ROOT = Path(__file__).resolve().parent.parent
# Metrics the benchmark runner measures itself rather than per function.
RUNNER_LAYERS = {"trace", "host"}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _per_layer_names():
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.fixture(scope="module")
def traced_keys():
    tracer = _tracer()
    modules = tracer.package_modules(lfunlab)
    keys = {key for key, *_ in tracer.Tracer._targets(SimpleNamespace(modules=modules))}
    layers = {m.__name__.rsplit(".", 1)[1] for m in modules}
    return keys, layers, tracer.COUNTERS


@pytest.mark.parametrize("name", _per_layer_names())
def test_per_layer_metric_resolves(name, traced_keys):
    keys, layers, counters = traced_keys
    layer, *rest = name.split(".")
    if layer in RUNNER_LAYERS:
        return
    assert layer in layers, f"{name}: no module lfunlab.{layer}"
    if len(rest) == 1:  # a whole-layer figure such as <layer>.self_s
        return
    function = counters.get(name, name.rsplit(".", 1)[0])  # a counter belongs to its function
    assert function in keys, f"{name}: {function} is no public function or method of lfunlab.{layer}"


def test_directly_called_entry_points():
    from lfunlab import chars, lfun, meanval

    assert callable(lfun.default_truncation)
    assert callable(meanval.clear_memo)
    assert callable(chars.get_table.cache_clear) and callable(chars.get_table.cache_info)


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cache-reuse", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(_per_layer_names())
    assert [name for name, m in result["metrics"].items() if m["value"] is None] == []
