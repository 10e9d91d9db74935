"""The runtime health plane end to end: watchdog, SLO burn alert and a
flight-recorder blackbox.

Run with::

    python examples/health_demo.py

What it shows:

1. ``obs.configure(health=True, slo=[...])`` arms the health plane (off
   by default; every hook in serving / DSE / the pools is one flag check
   when disabled).
2. A :class:`~repro.obs.health.Watchdog` watch over a deliberately
   stalled loop trips once per stall episode — detected by the monitor's
   tick, never by anything on the hot path.
3. A latency SLO burns when a slow burst eats the error budget faster
   than the objective allows; the multi-window burn-rate alert fires
   through hysteresis.
4. The flight recorder dumps a self-contained blackbox JSONL, rendered
   here with the ``obstop`` dashboard (also:
   ``python -m repro.tools.obstop blackbox.jsonl``).
"""

import os
import tempfile

from repro import obs
from repro.serving.requests import ServiceStats
from repro.tools.obstop import render_dashboard


def main() -> None:
    obs.configure(
        enabled=True, health=True, reset=True,
        slo=["lat:latency:0.9:0.01:1/5:1"],
    )
    mon = obs.health()
    try:
        # 1. a watchdog watch over a loop that stops beating
        tok = mon.watch("demo.loop", timeout=0.0001, source="demo")
        mon.beat(tok)
        import time as _t
        _t.sleep(0.01)                     # ... the loop goes silent
        stalled = mon.tick()
        print(f"watchdog: {[ev.kind for ev in stalled]} "
              f"(watch={stalled[0].detail['watch']})")
        mon.disarm(tok)

        # 2. a latency SLO burning under a slow burst
        stats = ServiceStats()
        mon.watch_service("demo-svc", stats)
        mon.tick()                         # baseline burn-rate sample
        for _ in range(20):
            stats.record_request(0.05)     # 5x over the 10 ms threshold
        burn = mon.tick() + mon.tick()
        fired = [ev for ev in burn if ev.kind == "slo.burn"]
        print(f"slo: {fired[0].detail['slo']} burning")

        # 3. the blackbox artifact + the obstop dashboard
        with tempfile.TemporaryDirectory() as td:
            path = mon.dump(os.path.join(td, "blackbox.jsonl"), reason="demo")
            events = [ev.to_dict() for ev in mon.recorder.events()]
            print()
            print(render_dashboard(mon.registry.collect(), events,
                                   {"blackbox": True, "trigger": "demo"},
                                   max_events=4))
            with open(path) as fh:
                n_records = sum(1 for _ in fh)
            print(f"\nblackbox written: {os.path.basename(path)} "
                  f"({n_records} records)")
    finally:
        obs.configure(enabled=False, health=False, reset=True, slo=[])


if __name__ == "__main__":
    main()
