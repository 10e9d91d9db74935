"""Communication cost model used by the simulated executor.

:class:`MiddlewareCostModel` — transfer times with and without the
MeDICi-style relay, reproducing the paper's observation that relay overhead
is linear in data size with a ~0.4 GB/s relay rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import LinkSpec

__all__ = ["MiddlewareCostModel"]


@dataclass(frozen=True)
class MiddlewareCostModel:
    """Direct vs. through-middleware transfer times.

    Direct transfer rides the link.  The relayed transfer adds a
    store-and-forward hop through the middleware at ``relay_rate`` bytes/s
    plus a fixed pipeline cost — matching Tables III/IV where the absolute
    overhead grows linearly with data size and the relay rate is ~0.4 GB/s.
    """

    relay_rate: float = 0.4e9
    pipeline_overhead: float = 2e-3

    def direct_time(self, nbytes: float, link: LinkSpec) -> float:
        """Raw TCP-socket transfer time (the paper's T1/T3 columns)."""
        return link.transfer_time(nbytes)

    def relayed_time(self, nbytes: float, link: LinkSpec) -> float:
        """Through-middleware transfer time (the paper's T2/T4 columns).

        The payload crosses the wire and is additionally copied through the
        middleware relay.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return (
            link.transfer_time(nbytes)
            + self.pipeline_overhead
            + nbytes / self.relay_rate
        )

    def overhead(self, nbytes: float, link: LinkSpec) -> float:
        """Absolute middleware overhead (T2-T1 / T4-T3 columns; Fig. 8)."""
        return self.relayed_time(nbytes, link) - self.direct_time(nbytes, link)

