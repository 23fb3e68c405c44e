"""Connected components and giant-component tracking.

Two routes to the same answer. ``components`` labels a finished snapshot by
breadth-first search, the reference method. ``IncrementalComponents`` is a
union-find fed link by link during replay; since links are only ever added,
merges are the only structural change and every checkpoint gets its component
count and giant size in constant time instead of a fresh traversal. The giant
component is the largest one; ties go to the component containing the
smallest node index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netreplay.graph import Snapshot, frontier_neighbors


@dataclass(frozen=True)
class ComponentSummary:
    """Per-snapshot component structure."""

    component_count: int
    giant_size: int
    giant_fraction: float
    component_id: np.ndarray  # int32 label per node, in order of first node index
    giant_id: int

    def __post_init__(self):
        self.component_id.setflags(write=False)

    def giant_mask(self) -> np.ndarray:
        return self.component_id == self.giant_id


def components(snapshot: Snapshot) -> ComponentSummary:
    """Label components by BFS from each unvisited node in index order."""
    n = snapshot.n
    if n == 0:
        raise ValueError("empty snapshot has no components")
    labels = np.full(n, -1, dtype=np.int32)
    next_label = 0
    scan = 0
    while scan < n:
        if labels[scan] >= 0:
            scan += 1
            continue
        labels[scan] = next_label
        frontier = np.array([scan], dtype=np.int64)
        while frontier.size:
            nbrs, _ = frontier_neighbors(snapshot.offsets, snapshot.neighbors, frontier)
            if nbrs.size == 0:
                break
            fresh = nbrs[labels[nbrs] < 0]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh).astype(np.int64)
            labels[frontier] = next_label
        next_label += 1
        scan += 1
    sizes = np.bincount(labels, minlength=next_label)
    giant_id = int(np.argmax(sizes))  # first max = smallest min-index component
    giant_size = int(sizes[giant_id])
    return ComponentSummary(
        component_count=next_label,
        giant_size=giant_size,
        giant_fraction=giant_size / n,
        component_id=labels,
        giant_id=giant_id,
    )


class IncrementalComponents:
    """Union-find over a growing node range, merged as links arrive.

    Tracks the size of each root's component and, in ``giant_size``, the
    largest of them: a merge can only grow the giant, so one compare per
    merge keeps it current and the giant fraction costs nothing. Which
    component is the giant is settled only when asked, by
    :meth:`giant_mask`. Nodes join as singletons via ``ensure``;
    ``add_link`` extends the range as needed.
    """

    def __init__(self):
        self._parent: list[int] = []
        self._size: list[int] = []
        self._count = 0
        self.giant_size = 0

    @property
    def n(self) -> int:
        return len(self._parent)

    @property
    def component_count(self) -> int:
        return self._count

    def ensure(self, n: int) -> None:
        """Grow the node range to n, adding singleton components. Appends in
        a loop: ``add_link`` grows the range one node at a time, where
        extending by a range costs more."""
        i = len(self._parent)
        while i < n:
            self._parent.append(i)
            self._size.append(1)
            self._count += 1
            i += 1
        if n > 0 and not self.giant_size:
            self.giant_size = 1

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def add_link(self, u: int, v: int) -> None:
        hi = u if u > v else v
        if hi >= len(self._parent):
            self.ensure(hi + 1)
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return
        if self._size[ru] < self._size[rv]:
            ru, rv = rv, ru
        self._parent[rv] = ru
        size = self._size[ru] + self._size[rv]
        self._size[ru] = size
        self._count -= 1
        if size > self.giant_size:
            self.giant_size = size

    def roots(self) -> np.ndarray:
        """Resolved root per node, vectorized by repeated pointer jumping."""
        arr = np.asarray(self._parent, dtype=np.int64)
        while True:
            nxt = arr[arr]
            if np.array_equal(nxt, arr):
                return arr
            arr = nxt

    def giant_mask(self) -> np.ndarray:
        """Members of the giant component. Of several of the largest size,
        the one holding the smallest node index wins, as in
        :func:`components`."""
        if not self._parent:
            raise ValueError("no nodes added")
        roots = self.roots()
        first = int(np.argmax(np.asarray(self._size)[roots] == self.giant_size))
        return roots == roots[first]
