"""Connected components of a growing graph, as one label array.

``label[i]`` is the smallest node of node i's component, so a component's
root labels itself. ``merge_links`` folds a batch of links into the label by
hook-and-compress (Shiloach & Vishkin, J. Algorithms 1982): every link
whose endpoints have different roots hooks the larger root to the smaller,
then pointer jumping flattens the trees, until no link has such endpoints.
Links are only ever added, so a replay merges each checkpoint's new links
into the label of the checkpoint before. The giant component is the largest
one; ties go to the component containing the smallest node index, that is,
the smallest root.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Components(NamedTuple):
    """The components of nodes [0, n) as :func:`components_of` finds them."""

    count: int
    giant_size: int
    giant: int  # the giant's label: its smallest node
    label: np.ndarray  # a view of the first n labels; read before the next merge

    def giant_mask(self) -> np.ndarray:
        return self.label == self.giant


def merge_links(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Merge the links (u[i], v[i]) into ``label`` in place.

    ``label`` must hold each node's root as described above;
    ``np.arange(n)`` is the graph without links. Afterwards it holds them
    for the graph with the batch added. Each round removes at least one
    root, so the loop ends.
    """
    while True:
        ru, rv = label[u], label[v]
        joins = ru != rv
        if not joins.any():
            return
        ru, rv = ru[joins], rv[joins]
        np.minimum.at(label, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label[:] = jumped


def components_of(label: np.ndarray, n: int) -> Components:
    """Components of nodes [0, n), for ``label`` merged with links among
    them only, so that every label of that range stays inside it. The
    first largest size in root order is the giant of the tie rule."""
    label = label[:n]
    sizes = np.bincount(label, minlength=n)
    giant = int(np.argmax(sizes))
    return Components(int(np.count_nonzero(sizes)), int(sizes[giant]), giant, label)
