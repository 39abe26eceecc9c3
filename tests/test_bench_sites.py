"""The benchmark harness (``perfbench/``) against the package: its tracer sites
(``layers.py``) and each of its workloads (``workloads.py``) at the self-test size."""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"

# The sites that the package no longer has: their per-layer metrics read zero.
KNOWN_MISSING = {
    "engine.record_oblivious_trace",
    "zerosum.engine.check_loss_vector",
    "zerosum.learners.regularized_argmin",
    "zerosum.learners.bregman_prox",
    "zerosum.engine.amwu_step",
    *(f"learners.{cls}.step" for cls in ("Aftrl", "Mwu", "Omwu", "ProdBr")),
}


class _NoOpTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attribute, name, kernel=False, tag=None):
        self.wrapped.append(name)


def test_no_further_site_is_missing():
    # a refactor that moves or renames a traced function drops its site silently
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = _NoOpTracer()
    missing = layers.install(tracer)
    assert set(missing) <= KNOWN_MISSING, sorted(set(missing) - KNOWN_MISSING)
    assert "engine.run_vs_adversary" in tracer.wrapped and "engine.grid_run" in tracer.wrapped


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, which imports its siblings ``layers`` and ``tracer`` by
    name: ``perfbench/`` is on ``sys.path``, and the three in ``sys.modules`` (where its
    dataclasses look their module up), only while it loads."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in (spec.name, "layers", "tracer"):
            sys.modules.pop(name, None)
    return module


def test_each_workload_runs_clean_at_its_tiny_size(workloads, tmp_path):
    # the calls the harness makes (grid_run's parallelism, the run-alone names, the agents'
    # fields, SeriesRecord's keywords, the certificate labels) break here, not in a benchmark
    seed = 7
    for name, w in workloads.WORKLOADS.items():
        if isinstance(w, workloads.EquilibriumWorkload):
            games, certificate_games = w.setup(seed, 1, tiny=True)
            solutions, _, certificates, _ = w.timed(games, certificate_games)
            failures, failed = workloads.equilibrium_failures(games, solutions, certificates)
            ops = len(solutions)
        else:
            configs = w.setup(seed, 1, tiny=True)
            outcomes, csv_path, _ = w.timed(configs, tmp_path)
            failures = workloads.grid_failures(w, configs, outcomes, csv_path,
                                               w.sample(configs, seed))
            failed, ops = [], len(outcomes)
        assert ops > 0 and failures == {} and failed == [], (name, failures, failed)


@pytest.mark.parametrize("name", ("oblivious-grid", "self-play"))
def test_each_traced_site_sees_its_workload(workloads, tmp_path, name):
    # a refactor that calls around a traced function (as forward_regret around
    # forward_comparators) leaves its per-layer metric reading 0 with no error; the sites
    # each workload reaches are the metrics that layers.MOVES names it for, the checked
    # traces and the CSV writer
    layers, w = workloads.layers, workloads.WORKLOADS[name]
    configs = w.setup(7, 1, tiny=True)
    originals = {fn: vars(layers.metrics)[fn] for fn in layers.METRIC_FUNCTIONS}
    tracer = workloads.Tracer()
    layers.install(tracer)
    try:
        w.timed(configs, tmp_path)
    finally:
        tracer.uninstall()
    assert {fn: vars(layers.metrics)[fn] for fn in layers.METRIC_FUNCTIONS} == originals
    sites = [f"metrics.{fn}" for fn in layers.METRIC_FUNCTIONS
             if name in layers.MOVES[f"metrics.{fn}.self_s"][1]]
    assert len(sites) == {"oblivious-grid": 6, "self-play": 2}[name]
    sites += ["core.Trace.from_rounds", "cli.emit_csv"]
    assert [site for site in sites if not tracer.spans(site)] == []
