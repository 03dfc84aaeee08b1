"""The benchmark's tracer (bench/tracing.py) still finds every layer it wraps.

The tracer replaces module attributes by name, and a name it cannot find is
only listed as unhooked, so a refactor that renames or moves one of them
would silently drop that layer from the per-layer metrics. The MCS counts
are read from the call and its warning, which are checked here too, and a
traced evaluate and cluster run on the benchmark's tiny inputs executes
every counter, which reads the records the layers return.
"""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import starclust.cli
from starclust import clustering, evaluation, pipeline

from _golden import tiny_inputs

MODULES = {"cli": starclust.cli, "clustering": clustering,
           "evaluation": evaluation, "pipeline": pipeline}


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module of a class through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py, imported with bench/ on sys.path for its own imports only."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    before = set(sys.modules)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    yield module
    for name in {spec.name, "gen_panel", "tracing"} - before:  # run.py's own imports
        del sys.modules[name]


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    """The benchmark's self-test inputs and run config (bench/run.py, --tiny):
    40 units over 1981-2010, k = 1/3/4, horizon 10, 200 replications."""
    return tiny_inputs(tmp_path_factory.mktemp("bench_tiny"))


def test_every_hook_resolves(tracing):
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.HOOKS
               if not callable(getattr(MODULES[module], attr, None))]
    assert missing == []


def test_hooked_replaces_and_restores_every_hook(tracing):
    originals = {(module, attr): getattr(MODULES[module], attr)
                 for module, attr, _ in tracing.HOOKS}
    tracer = tracing.Tracer(run=0)
    with tracing.hooked(tracer):
        assert tracer.unhooked == []
        assert [key for key, fn in originals.items()
                if getattr(MODULES[key[0]], key[1]) is fn] == []
    assert [key for key, fn in originals.items()
            if getattr(MODULES[key[0]], key[1]) is not fn] == []


def test_mcs_counts_read_from_a_traced_call(tracing):
    # Two pairs, (a, b) and (c, d), whose differential is constant. The
    # tracer counts degenerate pairs by parsing the RuntimeWarning mcs
    # raises, so this pins the warning text the per-layer metrics rely on.
    rng = np.random.default_rng(4)
    base = np.round(rng.random(30) * 64) / 64
    noisy = base + 3.0 + rng.normal(0, 0.05, 30) ** 2
    values = {"a": base, "b": base + 0.5, "c": noisy, "d": noisy + 0.25}
    losses = [evaluation.LossSeries(model=model, periods=tuple(range(30)), values=v)
              for model, v in values.items()]
    tracer = tracing.Tracer(run=0)
    with tracing.hooked(tracer):
        report = evaluation.mcs(losses, reps=200, seed=0)
    assert len(report.eliminations) == 4
    assert tracer.counts["evaluation.mcs_draws"] == 200 * 30
    assert tracer.counts["evaluation.mcs_rounds"] == 3
    assert tracer.counts["evaluation.mcs_degenerate_pairs"] == 2


def test_traced_runs_execute_every_counter(tracing, tiny_config, tmp_path, capsys):
    metrics, counted, spans = {}, set(), {}
    for argv in (["evaluate"], ["cluster", "--scheme", "C"]):
        tracer = tracing.Tracer(run=0)
        with tracing.hooked(tracer), tracer.span(f"cli.{argv[0]}"):
            code = starclust.cli.main([*argv, "--config", str(tiny_config),
                                       "--out", str(tmp_path / argv[0])])
        assert code == 0
        assert tracer.unhooked == []
        metrics[argv[0]] = tracing.layer_metrics(tracer)
        assert set(tracing.COUNTS) <= set(metrics[argv[0]])
        counted |= set(tracer.counts)
        spans[argv[0]] = {span.name for span in tracer.spans}
    assert counted == set(tracing.COUNTS) - {"trace.spans"}
    # A caller that binds a hooked function by name, not through its module
    # at call time, would run it untraced: its layer would have no span.
    assert {"evaluation.oos", "evaluation.in_sample", "evaluation.mcs",
            "evaluation.report", "pipeline.builder", "weights.build", "star.fit",
            "star.fitted", "star.forecast", "evaluation.loss_series"} <= spans["evaluate"]
    assert metrics["evaluate"]["panel.cells"] == metrics["cluster"]["panel.cells"] == 40 * 30
    assert metrics["evaluate"]["star.equations"] == 14 * 40


def test_benchmark_argv_and_config_resolve(bench_run, tmp_path):
    # A flag or config key the benchmark passes that the CLI no longer takes
    # fails here, not as a failed run of every benchmark workload.
    for name, workload in bench_run.WORKLOADS.items():
        workload = dataclasses.replace(workload, **bench_run.TINY)
        inputs = bench_run.prepare(workload, 7, tmp_path / name)
        argv = bench_run.cli_args(workload, inputs["config"], tmp_path / name / "out")
        args = starclust.cli._base_parser().parse_args(argv)
        assert args.command == workload.command
        starclust.cli._resolve_config(args).validate(require_adjacency=True)
