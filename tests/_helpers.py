"""Shared helpers for the test suite (imported via the conftest path hook)."""

from __future__ import annotations

#: Reduced measurement windows for tests: enough simulated time for rates
#: to stabilise, small enough to keep the suite fast.
FAST_WARMUP_NS = 200_000.0
FAST_MEASURE_NS = 800_000.0


def fast_throughput(build, switch_name, frame_size=64, **kwargs):
    """measure_throughput with the reduced test windows."""
    from repro.measure.throughput import measure_throughput

    return measure_throughput(
        build,
        switch_name,
        frame_size,
        warmup_ns=FAST_WARMUP_NS,
        measure_ns=FAST_MEASURE_NS,
        **kwargs,
    )


def full_throughput(build, switch_name, frame_size=64, **kwargs):
    """measure_throughput with the production default windows.

    Needed where transients are long relative to the fast windows: VALE's
    adaptive mega-batches on long chains, and t4p4s's long jitter episodes.
    """
    from repro.measure.throughput import measure_throughput

    return measure_throughput(build, switch_name, frame_size, **kwargs)


def parkable_task_types() -> tuple:
    """Every task type that declares ``park_rings`` (see ``Core.start``)."""
    from repro.switches.base import SoftwareSwitch, _Worker
    from repro.traffic.guest import GuestMonitor
    from repro.vm.apps import GuestL2Fwd, GuestValeBridge, GuestValeXConnect

    return (
        SoftwareSwitch, _Worker, GuestL2Fwd, GuestValeXConnect, GuestValeBridge,
        GuestMonitor,
    )


def strip_park_declarations(monkeypatch, classes=None) -> None:
    """Busy-poll reference: testbeds built afterwards never park.

    Removes the ``park_rings`` declaration of each task class (default:
    every parkable type), so ``Core.start`` sees a task that never opted
    in.  ``monkeypatch`` is pytest's fixture or anything with the same
    ``setattr(target, name, value)`` method.
    """
    for cls in classes if classes is not None else parkable_task_types():
        if isinstance(cls.__dict__.get("park_rings"), property):
            monkeypatch.setattr(cls, "park_rings", None)
            continue
        init = cls.__init__  # declared per instance, in __init__

        def stripped(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            del self.park_rings

        monkeypatch.setattr(cls, "__init__", stripped)
