"""The runtime health plane end to end: a watchdog stall, a shed burst
that dumps a flight-recorder blackbox, and the ``obstop`` dashboard.

Run with::

    python examples/health_demo.py

What it shows:

1. ``obs.configure(health=True)`` arms the health plane (off by default;
   every hook in serving / DSE / the pools is one flag check when
   disabled).
2. A :class:`~repro.obs.health.Watchdog` watch over a deliberately
   stalled loop trips once per stall episode — detected by the monitor's
   tick, never by anything on the hot path.
3. A burst of shed requests (``SHED_BURST`` inside ``SHED_BURST_WINDOW``
   seconds, reported through the same ``note_shed`` hook a
   ``ScenarioService`` calls) raises one ``shed.burst`` event, a trigger
   kind: the flight recorder auto-dumps a self-contained blackbox JSONL
   into ``health_dump_dir``.
4. The blackbox renders with the ``obstop`` dashboard (also:
   ``python -m repro.tools.obstop blackbox.jsonl``).
"""

import os
import tempfile
import time

from repro import obs
from repro.obs.health import SHED_BURST
from repro.tools.obstop import main as obstop_main


def main() -> None:
    obs.configure(enabled=True, health=True, reset=True)
    mon = obs.health()
    try:
        # 1. a watchdog watch over a loop that stops beating
        tok = mon.watch("demo.loop", timeout=0.0001, source="demo")
        mon.beat(tok)
        time.sleep(0.01)                   # ... the loop goes silent
        stalled = mon.tick()
        print(f"watchdog: {[ev.kind for ev in stalled]} "
              f"(watch={stalled[0].detail['watch']})")
        mon.disarm(tok)

        with tempfile.TemporaryDirectory() as td:
            # 2. a shed burst; the stall above dumped nothing because no
            #    dump directory was set, so the burst's blackbox is not
            #    rate-limited behind it
            obs.configure(health_dump_dir=td)
            for _ in range(SHED_BURST):
                mon.note_shed("serving", "queue_full")
            burst = [ev for ev in mon.recorder.events()
                     if ev.kind == "shed.burst"]
            print(f"shed burst: {burst[0].detail['count']} sheds "
                  f"(last cause {burst[0].detail['last_cause']})")

            # 3. the auto-dumped blackbox, rendered by obstop
            path = mon.recorder.dumps[0]
            print()
            obstop_main([path, "--max-events", "4"])
            with open(path) as fh:
                n_records = sum(1 for _ in fh)
            print(f"\nblackbox written: {os.path.basename(path)} "
                  f"({n_records} records)")
    finally:
        obs.configure(enabled=False, health=False, reset=True,
                      health_dump_dir=None)


if __name__ == "__main__":
    main()
