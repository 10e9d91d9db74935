"""Boundary condensation of DSE Step 2's exchange: the compact wire form.

The reference Step 2 broadcasts each subsystem's whole exchange set
(boundary plus sensitive internal buses) to every neighbour.  A neighbour's
Step-2 solve reads none of it but the pseudo measurements at its external
boundary buses — the far ends of its tie lines.  Under condensation
(``condense=True``) a subsystem sends each neighbour only those buses
(:func:`neighbor_publication_sets`), packed by
:func:`~repro.middleware.message.pack_condensed_update`: bus ids ride the
round-0 frame alone, later rounds are values-only over the receiver's
a-priori ordering.

Only the wire changes.  Every Step-2 round, with either wire form, is the
one exact re-evaluation (:meth:`WlsEstimator.estimate_blocks` with its
``carried`` factors), and every solve reads the same pseudo values from
the same buses, so a condensed frame gives the reference states bit for
bit.
"""

from __future__ import annotations

import numpy as np

from .decomposition import Decomposition

__all__ = ["neighbor_publication_sets"]


def neighbor_publication_sets(dec: Decomposition) -> dict[int, dict[int, np.ndarray]]:
    """Per-neighbour condensed publication sets.

    ``out[s][n]`` holds the sorted global buses of subsystem ``s`` that are
    endpoints of ``s``–``n`` tie lines — exactly the subset of ``s``'s
    boundary that appears in ``n``'s extended network, i.e. everything
    ``n``'s Step-2 solve can consume from ``s``.  Sensitive-internal
    publications only refresh ``s``'s *own* entries in the global state
    (an update-scope concern) and are never read by a neighbour's solve,
    so under condensation they stay off the wire.
    """
    net = dec.net
    out: dict[int, dict[int, np.ndarray]] = {}
    for s in range(dec.m):
        ties = dec.incident_tie_lines(s)
        f, t = net.f[ties], net.t[ties]
        f_ours = dec.part[f] == s
        ours = np.where(f_ours, f, t)
        theirs = np.where(f_ours, t, f)
        out[s] = {
            int(nb): np.unique(ours[dec.part[theirs] == nb])
            for nb in dec.neighbors(s)
        }
    return out
