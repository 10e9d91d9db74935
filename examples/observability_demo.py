"""Observability end to end: trace a DSE frame down to its subsystem
solves and across a TCP mux hop, then export and render the recording.

Run with::

    python examples/observability_demo.py

What it shows:

1. ``obs.configure(enabled=True)`` flips on the process-wide layer (off by
   default; every instrumentation point is one flag check when disabled).
2. A :class:`~repro.core.session.DseSession` frame becomes one trace tree
   — noise estimation, Step-1 mapping, both DSE steps with every exchange
   round, and the repartition, all as nested spans.
3. A plain DSE run solves each stage as one stacked loop over every
   subsystem; the tree still shows one ``dse.<stage>.subsystem`` span per
   subsystem, its share of the stage apportioned by buses × iterations
   (``apportioned=True``).
4. A :class:`~repro.core.runtime.LiveDseRuntime` run over localhost TCP
   carries the trace context inside the mux frames, so the router hop's
   ``mux.forward`` spans join the sender's trace.
5. The recording is dumped to JSONL and re-rendered: flame summary +
   metrics table here, and ``python -m repro.tools.obsreport`` offline.
"""

import os
import tempfile

import numpy as np

from repro import obs
from repro.core import ArchitecturePrototype, DseSession, LiveDseRuntime
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.grid import run_ac_power_flow
from repro.grid.cases import case14
from repro.measurements import ScadaSystem, full_placement, generate_measurements


def main() -> None:
    net = case14()
    pf = run_ac_power_flow(net)
    dec = decompose(net, 2, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    mset = generate_measurements(net, plac, pf, rng=rng)

    obs.configure(enabled=True, reset=True)
    try:
        # 1. one architecture-session frame -> one trace tree
        arch = ArchitecturePrototype.assemble(net, m_subsystems=2, seed=0)
        scada = ScadaSystem(net, plac, seed=0)
        session = DseSession(arch)
        frame = next(iter(scada.frames(1)))
        rep = session.process_frame(frame.mset, t=frame.t)
        print(f"session frame: {rep.rounds} rounds, "
              f"{rep.bytes_exchanged} B exchanged")

        # 2. the same estimation in-process: each stage is one stacked
        #    solve, its time apportioned over the subsystem spans
        before = len(obs.tracer())
        DistributedStateEstimator(dec, mset).run()
        subs = [
            d for d in obs.tracer().finished()[before:]
            if d["name"].endswith(".subsystem") and d["attrs"].get("apportioned")
        ]
        print(f"in-process run: {len(subs)} apportioned dse.*.subsystem spans "
              f"({dec.m} subsystems x (Step 1 + Step-2 rounds))")

        # 3. live thread-per-site runtime over real TCP: the mux router
        #    hop records mux.forward spans inside the sender's trace
        with LiveDseRuntime(dec, mset, use_tcp=True) as runtime:
            live = runtime.run()
        hops = obs.tracer().spans_named("mux.forward")
        print(f"live TCP run: {len(live.errors)} errors, "
              f"{len(hops)} mux.forward spans at the router hop")

        # 4. export + render
        path = os.path.join(tempfile.gettempdir(), "obs_demo.jsonl")
        n = obs.export_jsonl(path, tracer=obs.tracer(),
                             registry=obs.metrics(),
                             frames=session.reports,
                             meta={"example": "observability_demo"})
        print(f"\nwrote {path} ({n} records); "
              f"render with: python -m repro.tools.obsreport {path}\n")

        print("== flame summary ==")
        print(obs.render_flame(obs.tracer().finished(), max_depth=3))
        print("== metrics ==")
        print(obs.render_metrics_table(obs.metrics().collect()))
    finally:
        obs.configure(enabled=False, reset=True)


if __name__ == "__main__":
    main()
