"""Tests of the outside-in tracer and of the metric names the benchmark declares.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from layertrace import Tracer  # noqa: E402


@pytest.fixture
def toy_package(monkeypatch):
    """A package ``toypkg`` whose ``caller`` module imports ``inner`` by name."""
    lib = types.ModuleType("toypkg.lib")

    def inner(delay):
        time.sleep(delay)
        return delay

    lib.inner = inner
    caller = types.ModuleType("toypkg.caller")
    caller.inner = inner

    def outer(delay):
        caller.inner(delay)
        time.sleep(delay / 2)
        return delay

    caller.outer = outer
    pkg = types.ModuleType("toypkg")
    for name, module in (("toypkg", pkg), ("toypkg.lib", lib), ("toypkg.caller", caller)):
        monkeypatch.setitem(sys.modules, name, module)
    return lib, caller


def test_wraps_every_binding_and_restores(toy_package):
    lib, caller = toy_package
    original_inner, original_outer = lib.inner, caller.outer
    tracer = Tracer("toypkg")
    tracer.add("lib.inner", lib, "inner")
    tracer.add("caller.outer", caller, "outer")
    with tracer:
        assert lib.inner is not original_inner
        assert caller.inner is lib.inner
        caller.outer(0.01)
    assert lib.inner is original_inner
    assert caller.inner is original_inner
    assert caller.outer is original_outer
    assert tracer.spans["lib.inner"].calls == 1
    assert tracer.spans["caller.outer"].calls == 1


def test_restores_when_the_body_raises(toy_package):
    lib, caller = toy_package
    original = lib.inner
    tracer = Tracer("toypkg")
    tracer.add("lib.inner", lib, "inner")
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert lib.inner is original and caller.inner is original


def test_self_time_excludes_children_and_observers(toy_package):
    lib, caller = toy_package
    tracer = Tracer("toypkg")
    tracer.add("lib.inner", lib, "inner",
               lambda counters, args, kwargs, result: time.sleep(0.05))
    tracer.add("caller.outer", caller, "outer")
    with tracer:
        caller.outer(0.02)
    inner, outer = tracer.spans["lib.inner"], tracer.spans["caller.outer"]
    assert outer.self_s == pytest.approx(outer.busy_s - inner.busy_s, abs=1e-9)
    assert inner.self_s == inner.busy_s >= 0.02
    assert outer.self_s >= 0.01
    # the 50 ms observer ran inside outer's span but is not charged to it
    assert outer.busy_s < 0.045


def test_layer_tracer_restores_the_package():
    import emofuse
    from emofuse import alignment, model, tensor, training
    import workloads

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "emofuse" or name.startswith("emofuse."))]
    before = [dict(vars(m)) for m in modules]
    pool = alignment.temporal_align_pool
    tracer = workloads.layer_tracer()
    with tracer:
        assert model.temporal_align_pool is alignment.temporal_align_pool is not pool
        assert training.adam_step.__wrapped__.__name__ == "adam_step"
        tensor.matmul(tensor.Tensor([[1.0]]), tensor.Tensor([[2.0]]))
    assert tracer.spans["tensor.matmul"].calls == 1
    for module, snapshot in zip(modules, before):
        for key, value in snapshot.items():
            assert vars(module)[key] is value, f"{module.__name__}.{key} not restored"
    assert emofuse.temporal_align_pool is alignment.temporal_align_pool


def test_declared_metrics_match_the_emitted_ones():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    tracer = workloads.layer_tracer()
    with tracer:
        pass
    emitted = set(workloads.layer_metrics(tracer)) | {"trace.overhead_frac"}
    assert per_layer == emitted
    assert {m["name"] for m in spec["end_to_end"]} == set(workloads.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
