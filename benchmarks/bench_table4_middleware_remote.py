"""E6 — Table IV: direct vs. through-middleware transfer between a
workstation and an HPC cluster.

Paper (over the laboratory LAN):

    size   T3 direct (s)  T4 w/ MeDICi (s)  overhead (s)
    100MB  0.873          1.256             0.383
    200MB  1.744          2.430             0.686
    500MB  4.400          6.133             1.734
    1GB    8.825          11.816            2.991
    2GB    17.755         24.058            6.304

We have no second machine, so this table runs on the calibrated simulated
testbed: the paper's own measured link rate (~115 MB/s payload throughput)
and relay rate (~0.4 GB/s) parameterise the models, and we regenerate the
full table at the paper's actual sizes.  The checks compare our rows
directly against the published numbers.
"""

import pytest

from repro.cluster import MiddlewareCostModel, pnnl_testbed

GB = 1e9
MB = 1e6

PAPER_ROWS = [
    # (bytes, T3, T4)
    (100 * MB, 0.872868, 1.255889),
    (200 * MB, 1.743650, 2.430136),
    (500 * MB, 4.399657, 6.133293),
    (1000 * MB, 8.825293, 11.816114),
    (2000 * MB, 17.754515, 24.058421),
]


def _rows(topo, mw):
    link = topo.link("nwiceb", "chinook")
    out = []
    for nbytes, t3_ref, t4_ref in PAPER_ROWS:
        t3 = mw.direct_time(nbytes, link)
        t4 = mw.relayed_time(nbytes, link)
        out.append((nbytes, t3, t4, t3_ref, t4_ref))
    return out


def test_table4_remote_overhead(benchmark):
    topo = pnnl_testbed()
    mw = MiddlewareCostModel()
    rows = benchmark(_rows, topo, mw)

    print("\nTable IV (reproduced on the simulated testbed) — across the LAN")
    print(f"{'size':>7} | {'T3 sim (s)':>10} | {'T3 paper':>9} | "
          f"{'T4 sim (s)':>10} | {'T4 paper':>9} | {'ovh sim':>8} | {'ovh paper':>9}")
    for nbytes, t3, t4, t3_ref, t4_ref in rows:
        print(f"{nbytes / MB:5.0f}MB | {t3:10.3f} | {t3_ref:9.3f} | "
              f"{t4:10.3f} | {t4_ref:9.3f} | {t4 - t3:8.3f} | "
              f"{t4_ref - t3_ref:9.3f}")

    for nbytes, t3, t4, t3_ref, t4_ref in rows:
        # within 25% of every published cell (the models are calibrated on
        # the 2 GB row; the rest follows from linearity)
        assert t3 == pytest.approx(t3_ref, rel=0.25)
        assert t4 == pytest.approx(t4_ref, rel=0.25)
        assert t4 > t3

    # Paper's headline: relative overhead comparable to the local scenario,
    # relay rate ~0.4 GB/s.
    nbytes, t3, t4, *_ = rows[-1]
    rate = nbytes / (t4 - t3)
    print(f"implied relay rate: {rate / GB:.2f} GB/s (paper: ~0.4)")
    assert rate == pytest.approx(0.4e9, rel=0.2)


def test_table4_fastpath_projection(benchmark):
    """Project Table IV onto the PR-3 fast path.

    The fast path removes the per-transfer dial and handshake from the
    relay hop (persistent pooled links, one mux connection per site) and
    forwards header+payload with scatter-gather writes instead of a
    re-framing copy.  Model that as the same linear relay with a higher
    effective relay rate and a near-zero fixed pipeline cost, and check
    the *shape*: every relayed cell improves, the direct column is
    untouched, and the overhead stays linear in size."""
    topo = pnnl_testbed()
    legacy = MiddlewareCostModel()
    # conservative fast-path calibration: the local measurement taken when
    # the hub landed showed >2x relay-rate improvement, and a long-lived
    # link amortises the per-transfer pipeline setup away
    fast = MiddlewareCostModel(relay_rate=2 * legacy.relay_rate,
                               pipeline_overhead=1e-4)
    rows = benchmark(_rows, topo, legacy)
    link = topo.link("nwiceb", "chinook")

    print("\nTable IV projected onto the fast path")
    print(f"{'size':>7} | {'T4 legacy (s)':>13} | {'T4 fast (s)':>11} | "
          f"{'ovh legacy':>10} | {'ovh fast':>8}")
    for nbytes, t3, t4, *_ in rows:
        t4_fast = fast.relayed_time(nbytes, link)
        ov_legacy = t4 - t3
        ov_fast = t4_fast - t3
        print(f"{nbytes / MB:5.0f}MB | {t4:13.3f} | {t4_fast:11.3f} | "
              f"{ov_legacy:10.3f} | {ov_fast:8.3f}")
        # direct column is untouched; relayed column strictly improves
        assert fast.direct_time(nbytes, link) == t3
        assert t3 < t4_fast < t4
        # overhead shrinks by about the relay-rate ratio
        assert ov_fast == pytest.approx(ov_legacy / 2, rel=0.1)
