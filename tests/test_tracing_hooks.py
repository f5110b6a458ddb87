"""The benchmark's tracer wraps names of this package by attribute lookup
(perfbench/tracing.py).  A traced name that is renamed or moved would make
its per-layer metrics read zero without any error, so every target must
resolve, and a method target must live in its class's own __dict__, where
the tracer reads and restores it."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    targets = tracing._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
        if isinstance(owner, type):
            assert attr in owner.__dict__, (owner.__name__, attr, name)
