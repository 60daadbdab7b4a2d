"""The benchmark tracer finds every package call it wraps.

``perfbench/spans.py`` refuses to run when a name it wraps is gone, so a
renamed or deleted call would otherwise fail only in the benchmark's own
runs.
"""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    def current():
        return [spans._lookup(owner, attr) for owner, attr, _ in spans.TARGETS]

    before = current()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = current()
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert current() == before
