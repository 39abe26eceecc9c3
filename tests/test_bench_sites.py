"""The benchmark harness's tracer sites (``perfbench/layers.py``) against the package."""
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

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
