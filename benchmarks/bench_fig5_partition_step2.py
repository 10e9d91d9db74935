"""E3 — Figure 5: repartitioning before DSE Step 2.

Paper result: after switching on the communication weights, METIS'
repartitioning moves subsystem 4 to Catamount and subsystem 5 to Chinook
(Nwiceb unchanged), giving imbalance 1.079 — slightly above Step 1's 1.035
because the objective now trades balance against edge-cut.  We reproduce
the remap and check the same qualitative behaviour: few migrations, small
imbalance, reduced communication cut.
"""

from repro.cluster import pnnl_testbed
from repro.core import ClusterMapper
from repro.dse import exchange_bus_sets
from repro.partition import edge_cut
from repro.core.weights import step2_graph

PAPER_IMBALANCE_STEP2 = 1.079


def test_fig5_step2_remap(benchmark, dec118):
    topo = pnnl_testbed()
    map1 = ClusterMapper(topo, seed=0).map_step1(dec118, 1.0)
    sets = exchange_bus_sets(dec118)

    # a fresh mapper per call, so that the repartitioner is timed, not the
    # mapper's memo
    mapping, moved = benchmark(
        lambda: ClusterMapper(topo, seed=0).remap_step2(dec118, 1.0, map1, sets)
    )

    migrated = [s + 1 for s in range(9)
                if map1.cluster_of(s) != mapping.cluster_of(s)]
    print("\nFigure 5 (reproduced) — remapping before DSE Step 2")
    for cluster, subs in mapping.as_dict().items():
        print(f"  {cluster:10s}: subsystems {[s + 1 for s in subs]}")
    print(f"  load-imbalance ratio: {mapping.imbalance:.3f} "
          f"(paper: {PAPER_IMBALANCE_STEP2})")
    print(f"  migrated subsystems: {migrated} (paper migrated 2 of 9)")
    print(f"  migrated vertex weight: {moved}")

    # Paper shape: at most a few subsystems move; balance stays near 1.05.
    assert len(migrated) <= 4
    assert mapping.imbalance <= 1.25

    # The comm-aware mapping cuts no more communication weight than the
    # Step-1 mapping evaluated on the Step-2 graph.
    g2 = step2_graph(dec118, 1.0, sets)
    cut_before = edge_cut(g2, map1.assignment)
    cut_after = edge_cut(g2, mapping.assignment)
    print(f"  comm edge-cut: step1 mapping {cut_before} -> step2 mapping "
          f"{cut_after}")
    assert cut_after <= cut_before
