"""The benchmark's layer names: every function perfbench traces must exist.

The tracer skips an attribute it cannot find, so a renamed layer would read
0 in the trace instead of failing.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrument_wraps_existing_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    from tracing import Tracer

    missing = []

    class Recording(Tracer):
        def wrap(self, owner, attr, name, **kwargs):
            if isinstance(owner, dict):
                found = attr in owner
            elif isinstance(owner, type):
                found = attr in owner.__dict__
            else:
                found = hasattr(owner, attr)
            if not found:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            super().wrap(owner, attr, name, **kwargs)

    tracer = Recording()
    try:
        bench.instrument(tracer)
    finally:
        tracer.unwrap()
    assert missing == []
