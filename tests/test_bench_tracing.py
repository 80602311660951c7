import importlib
import importlib.util
import inspect
from pathlib import Path

import hopbound

_PATH = Path(__file__).resolve().parents[1] / "hopbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_target_resolves():
    # Tracer.install looks each one up by name, so a renamed or deleted
    # function stops every traced benchmark run
    missing = [(module, name) for module, name, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_simulate_latency_accepts_workers():
    # the mc_latency workload passes workers= to hopbound.simulate_latency
    assert "workers" in inspect.signature(hopbound.simulate_latency).parameters
