"""The benchmark's tracer wraps names of this package by attribute lookup
(perfbench/tracing.py).  A traced name that is renamed or moved would make
its per-layer metrics read zero without any error, so every target must
resolve, a method target must live in its class's own __dict__, where
the tracer reads and restores it, and every target must be called on a
proof: a call moved out of the module the tracer wraps is not."""

import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
JOBS = Path(__file__).resolve().parent.parent / "data" / "example_jobs.jsonl"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    targets = tracing._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
        if isinstance(owner, type):
            assert attr in owner.__dict__, (owner.__name__, attr, name)


def test_tracer_records_every_target_on_the_example_jobs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from g3chabauty import cli
    jobs = [json.loads(line) for line in JOBS.read_text().splitlines()]
    assert len(jobs) == 3
    with tracing.Tracer().installed() as tracer:
        for job in jobs:
            cli.run_job(job)
    recorded = {span[0] for span in tracer.spans}
    assert {name for _, _, name, _ in tracing._targets()} <= recorded
