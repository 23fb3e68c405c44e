"""Immutable sorted-adjacency snapshots of a replayed link stream.

A :class:`Snapshot` is a compact CSR layout (offsets plus one concatenated
neighbor array) whose per-node segments are sorted, so traversals are cheap
vectorized gathers that visit neighbors in ascending order.

Every replay sample is a prefix of one stream known in full before replay
starts. So ``arrival_csr`` builds the final graph's CSR once, tagging each
adjacency entry with the index of the link behind it, and
``finalize_snapshot`` derives the sample after ``p`` links by keeping the
entries whose arrival is below ``p``. Each snapshot costs Theta(final m)
time and Theta(m) memory, so the replay builds one only when it measures
distances, the one group that traverses it, and then one per pair of
checkpoints: ``late_entries`` marks the entries the earlier one lacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Snapshot:
    """Frozen undirected graph in CSR form; node i's neighbors are
    ``neighbors[offsets[i]:offsets[i+1]]``, sorted ascending."""

    offsets: np.ndarray  # int64, length n + 1
    neighbors: np.ndarray  # intp, length 2m: numpy casts other fancy indices on every use
    n: int
    m: int

    def __post_init__(self):
        self.offsets.setflags(write=False)
        self.neighbors.setflags(write=False)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    # What traversals index with, derived once per snapshot on first use.
    @functools.cached_property
    def linked(self) -> slice | np.ndarray:
        """The nodes with at least one neighbor, ascending, as an index: a
        slice of all nodes when every node has one, which numpy copies
        through without a gather."""
        linked = np.flatnonzero(np.diff(self.offsets))
        return slice(0, self.n) if linked.size == self.n else _frozen(linked)

    @functools.cached_property
    def segment_starts(self) -> np.ndarray:
        """Where each of ``linked``'s segments starts. They tile ``neighbors``
        in order, as ``np.ufunc.reduceat`` reads them; an empty segment would
        be read as its next entry."""
        return _frozen(self.offsets[self.linked])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class ArrivalCSR(NamedTuple):
    """The final graph in CSR form plus, per adjacency entry, the index of
    the link behind it in the stream (``arrival``, parallel to
    ``neighbors``)."""

    offsets: np.ndarray  # int64, length final_n + 1
    neighbors: np.ndarray  # int32, length 2m, sorted within each segment
    arrival: np.ndarray  # int32, length 2m


def arrival_csr(u: np.ndarray, v: np.ndarray, final_n: int) -> ArrivalCSR:
    """Tag both directions of link i = (u[i], v[i]) with arrival i and sort
    them by (node, neighbor). Callers guarantee fewer than 2^31 distinct
    links, no loops and endpoints in [0, final_n)."""
    m = len(u)
    src = np.concatenate((u, v)).astype(np.int64, copy=False)
    dst = np.concatenate((v, u)).astype(np.int32, copy=False)
    key = src * final_n
    key += dst
    offsets = np.zeros(final_n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=final_n), out=offsets[1:])
    del src
    order = np.argsort(key)  # the keys are distinct links, so no ties
    del key
    neighbors = dst[order]
    del dst
    np.subtract(order, m, out=order, where=order >= m)  # entry index -> link index
    return ArrivalCSR(offsets, neighbors, order.astype(np.int32))


def finalize_snapshot(csr: ArrivalCSR, position: int, n: int) -> Snapshot:
    """The graph of the first ``position`` links over nodes [0, n).

    Masking keeps each segment sorted, so the result equals a fresh build of
    that prefix. ``n`` must cover every endpoint of the prefix; it may exceed
    them to account for nodes discovered without links.
    """
    keep = csr.arrival < position
    # A segment's new start is the number of kept entries before its old one.
    offsets = np.searchsorted(np.flatnonzero(keep), csr.offsets[: n + 1])
    neighbors = csr.neighbors[keep].astype(np.intp)
    return Snapshot(offsets=offsets, neighbors=neighbors, n=n, m=int(offsets[-1]) // 2)


def late_entries(csr: ArrivalCSR, position: int, since: int) -> np.ndarray:
    """Where the entries of links ``since`` to ``position - 1`` lie in the
    neighbors of ``finalize_snapshot(csr, position, n)``, ascending: what
    the checkpoint after ``since`` links does not hold of that snapshot."""
    return np.flatnonzero(csr.arrival[csr.arrival < position] >= since)

