"""Middleware round-trip smoke (in-process and localhost TCP).

Run with::

    python examples/middleware_roundtrip.py

Exercises the data plane end to end in a few hundred milliseconds, on both
the in-process and the TCP hub of ``MiddlewareFabric``:

- single sends (``MW_Client_Send`` / ``MW_Client_Recv``) and a
  ``send_many`` burst to two neighbours riding one syscall;
- a packed state-update exchange decoded with ``unpack_state_update``;
- per-pipeline relay statistics, exact the moment the payload is held.

Every payload is verified byte-for-byte; the script exits non-zero on any
mismatch, so ``scripts/verify.sh`` uses it as the middleware smoke test.
"""

import time

import numpy as np

from repro.middleware import (
    MiddlewareFabric,
    pack_state_update,
    unpack_state_update,
)


def smoke_fabric(use_tcp: bool, n: int = 100) -> None:
    """State-update exchange through the fabric's hub."""
    rng = np.random.default_rng(7)
    ids = np.arange(24, dtype=np.int64)
    vm = 1 + 0.01 * rng.standard_normal(24)
    va = 0.1 * rng.standard_normal(24)
    update = bytes(pack_state_update(ids, vm, va))
    label = "tcp" if use_tcp else "inproc"

    pairs = [("a", "b"), ("b", "a"), ("a", "c")]
    with MiddlewareFabric(["a", "b", "c"], pairs=pairs, use_tcp=use_tcp) as fab:
        t0 = time.perf_counter()
        for _ in range(n):
            fab.send("a", "b", update)
        for _ in range(n):
            raw = fab.recv("b", timeout=10)
        dt = time.perf_counter() - t0
        got_ids, got_vm, got_va = unpack_state_update(raw)
        assert np.array_equal(got_ids, ids), "bus ids corrupted in transit"
        assert np.array_equal(got_vm, vm) and np.array_equal(got_va, va), \
            "state values corrupted in transit"
        assert fab.relay_stats()[("a", "b")] == (n, n * len(update))
        print(f"fabric ({label:>6}): {n} state updates "
              f"({len(update)} B) in {dt * 1e3:.1f} ms ({n / dt:.0f} msgs/s)")

        # one site's burst to all its neighbours: one syscall, in order
        fab.send_many("a", [("b", b"to-b-1"), ("c", b"to-c"), ("b", b"to-b-2")])
        assert bytes(fab.recv("b", timeout=10)) == b"to-b-1"
        assert bytes(fab.recv("b", timeout=10)) == b"to-b-2"
        assert bytes(fab.recv("c", timeout=10)) == b"to-c"
        fab.send("b", "a", b"ack")
        assert bytes(fab.recv("a", timeout=10)) == b"ack"
        stats = fab.relay_stats()
        assert stats[("a", "c")] == (1, 4) and stats[("b", "a")] == (1, 3)
        assert fab.clients["a"].bytes_sent == n * len(update) + 16
        print(f"fabric ({label:>6}): 3-frame burst to 2 neighbours + reply, "
              f"relay statistics exact")


def main() -> None:
    smoke_fabric(use_tcp=False)
    smoke_fabric(use_tcp=True)
    print("middleware round-trip: OK")


if __name__ == "__main__":
    main()
