"""The benchmark's own checks.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LayerTrace, Patcher, _timed_resumptions  # noqa: E402


def _program_modules() -> set:
    found = set()
    base = os.path.join(SRC, "repro")
    for dirpath, _dirs, files in os.walk(base):
        for name in files:
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), SRC)
            module = rel[:-3].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[: -len(".__init__")]
            found.add(module)
    return found


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_every_module_is_mapped_to_a_layer_or_untimed():
    modules = _program_modules()
    unmapped = sorted(modules - set(layers.MODULE_LAYERS))
    stale = sorted(set(layers.MODULE_LAYERS) - modules)
    assert not unmapped, f"modules missing from MODULE_LAYERS: {unmapped}"
    assert not stale, f"MODULE_LAYERS names modules that are gone: {stale}"
    bad = {m: l for m, l in layers.MODULE_LAYERS.items()
           if l is not None and l not in layers.LAYERS}
    assert not bad


def test_targets_sit_in_their_modules_layer():
    for target in layers.TARGETS:
        module = target.name.split(":")[0]
        if module.startswith("repro"):
            assert layers.MODULE_LAYERS[module] == target.layer, target


def test_every_target_resolves_and_restores():
    from repro.sim.kernel import Environment
    from repro.orb import compiled

    original_run = Environment.run
    original_codec = compiled.OperationCodec
    patcher = Patcher(LayerTrace())
    patcher.install()
    try:
        assert patcher.missing == []
        assert Environment.run is not original_run
    finally:
        patcher.restore()
    assert Environment.run is original_run
    assert compiled.OperationCodec is original_codec


def test_timed_generator_passes_values_errors_and_returns():
    trace = LayerTrace()
    tid = trace.target("gen", "chaos")

    def inner():
        got = yield 1
        try:
            yield got + 1
        except KeyError:
            yield "caught"
        return "done"

    gen = _timed_resumptions(inner(), trace, tid)
    assert next(gen) == 1
    assert gen.send(10) == 11
    assert gen.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert trace.entries_of("gen") == 4
    assert trace.returned_of("gen") == 1
    assert len(trace.stack) == 1
    assert abs(sum(trace.self_s) - trace.covered_s()) < 1e-9


def test_program_exception_is_a_failed_check_not_a_crash():
    class Raising(workloads._Workload):
        def ops(self, state):
            return 7

        def run(self, state, lap):
            raise ValueError("boom")

    outcome = Raising().measure(None)
    assert not outcome.ok
    assert (outcome.ops, outcome.errors) == (7, 7)
    assert outcome.problems == ["program raised ValueError: boom"]


def _toy_state(workload):
    if isinstance(workload, workloads.ChaosSteady):
        return workloads.build_world(3)
    return workload._build(workloads.WARM_SCALE, 3)


def _toy_chaos_steady():
    workload = workloads.ChaosSteady()
    workload.horizon = 30.0
    return workload


@pytest.mark.parametrize("workload", [_toy_chaos_steady(),
                                      workloads.C18Sharded(),
                                      workloads.C18Flood()],
                         ids=lambda w: w.name)
def test_traced_toy_run_matches_untraced_and_accounts(workload):
    plain = run._measure(workload, _toy_state(workload))
    traced = run.traced(workload, lambda: _toy_state(workload))
    assert plain.ok and traced.ok
    assert traced.digest == plain.digest
    assert run.check_trace(traced) == []


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    workload = workloads.C18Sharded()
    rep = run.traced(workload, lambda: _toy_state(workload))
    printed = set(run.reported(run.per_layer(rep))) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == printed


def test_host_clock_keeps_reference_time_out_of_laps_and_gc_state():
    import gc

    import hostspeed

    clock = hostspeed.HostClock()
    clock.lap()
    clock.lap()
    assert clock.laps == 2 and len(clock.refs) == 3
    # Each lap is the time between reference samples, so two laps with
    # no work between them are far shorter than one reference sample.
    assert clock.raw_s < min(clock.refs)
    assert clock.norm_s >= 0.0
    assert gc.isenabled()
