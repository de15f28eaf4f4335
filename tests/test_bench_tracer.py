"""The benchmark's tracer wraps nskwave layers by attribute name; installing
and removing it here makes a renamed layer fail in the test suite, not only
in a benchmark run."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_patches_every_layer_and_restores_it():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer_mod.instrument(tracer)
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        tracer.remove()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
