"""Tooling guard: every function the benchmark's span tracer patches
(``perfbench/tracer.py``, ``TARGETS``) still exists where it looks, so
deleting or moving one fails here rather than in a ``--trace 1`` run."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    """``TARGETS`` of the tracer source, compiled and run in memory, so
    that reading it writes nothing beside it."""
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         namespace)
    return namespace["TARGETS"]


def test_every_tracer_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    missing = [(module, attr) for module, attr, _, _ in targets
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []
