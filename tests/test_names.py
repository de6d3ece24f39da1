"""Names that other code looks up by string must keep resolving."""

from pathlib import Path

import fleetchain

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_exported_name_resolves():
    missing = [name for name in fleetchain.__all__ if not hasattr(fleetchain, name)]
    assert missing == []


def test_tracer_installs_and_restores_every_patched_attribute(monkeypatch):
    # `benchmarks/run.py --trace 1` wraps these attributes; a deleted one
    # makes `install` raise.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    targets = list(tracing.SPANS.values()) + list(tracing.COUNTS.values())
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(targets, originals))
