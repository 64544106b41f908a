"""Independent class partition of an unpinned simply-laced DSL graph.

Usage: python3 perfbench/oracle.py GRAPH.dg

Prints, as JSON, the classes in the order reeder documents (increasing
integer value of the weight-minimal representative), each with its size,
representative bitstring (vertex 0 first) and component-count histogram.
It shares no code with reeder: it reads only ``vertices``/``edge`` lines,
finds the orbits as connected components of the move graph with scipy, and
counts lit components by min-label propagation over the vertices of every
state at once.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def read_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    n, edges = None, []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "vertices" and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"oracle handles only vertices/edge lines: {raw!r}")
    if n is None:
        raise ValueError("missing vertices line")
    return n, edges


def orbits(n: int, edges) -> np.ndarray:
    """Orbit label of every state under the moves s -> s ^ (parity(s & N(i)) << i)."""
    states = np.arange(1 << n, dtype=np.int64)
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    src, dst = [], []
    for i in range(n):
        t = states ^ ((np.bitwise_count(states & nbr[i]) & 1).astype(np.int64) << i)
        moved = t != states
        src.append(states[moved])
        dst.append(t[moved])
    src, dst = np.concatenate(src), np.concatenate(dst)
    graph = coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(1 << n, 1 << n))
    _, labels = connected_components(graph.tocsr(), directed=False)
    return labels


def lit_components(n: int, edges) -> np.ndarray:
    """Number of connected components of the lit subgraph, per state."""
    states = np.arange(1 << n, dtype=np.int64)
    lit = ((states[:, None] >> np.arange(n)) & 1).astype(bool)
    label = np.where(lit, np.arange(n, dtype=np.int8), np.int8(n))
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            both = lit[:, u] & lit[:, v]
            low = np.minimum(label[:, u], label[:, v])
            for w in (u, v):
                upd = both & (low < label[:, w])
                if upd.any():
                    label[upd, w] = low[upd]
                    changed = True
    return (lit & (label == np.arange(n))).sum(axis=1)


def classes(n: int, edges) -> list[dict]:
    states = np.arange(1 << n, dtype=np.int64)
    labels = orbits(n, edges)
    key = (np.bitwise_count(states).astype(np.int64) << n) | states
    best = np.full(labels.max() + 1, np.iinfo(np.int64).max)
    np.minimum.at(best, labels, key)
    reps = best & ((1 << n) - 1)
    comps = lit_components(n, edges)
    out = []
    for lab in np.argsort(reps, kind="stable"):
        members = labels == lab
        hist = np.bincount(comps[members])
        rep = int(reps[lab])
        out.append({
            "size": int(members.sum()),
            "min_representative": "".join(str(rep >> i & 1) for i in range(n)),
            "components": {str(k): int(v) for k, v in enumerate(hist) if v},
        })
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: oracle.py GRAPH.dg")
    with open(sys.argv[1]) as fh:
        n_vertices, edge_list = read_graph(fh.read())
    json.dump(classes(n_vertices, edge_list), sys.stdout)
