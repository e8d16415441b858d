"""Hot enumeration kernels behind the brute-force solvers.

Two interchangeable backends implement the same search contract:

* a numba ``@njit`` mixed-radix counter with incremental bundle values,
* a chunked, vectorized numpy fallback.

The numba path is used when available; set ``GEFALLOC_NO_NUMBA=1`` to force
the numpy path.

Search contract
---------------
``search(utilities, arcs, delta, candidates, mode, limit)`` enumerates every
assignment of each resource to one entry of ``candidates`` (entry ``-1``
means "leave unassigned"), in lexicographic order with resource 0 varying
slowest and candidates tried in array order.  ``delta`` is 0 for the weak
fairness notion, 1 for the strict one.

mode 0  stop at the first fair assignment.
mode 1  scan everything, keep the maximum-welfare fair assignment
        (ties resolved to the lexicographically first).

Returns ``(status, assignment, welfare, nodes)`` with status 0 = found,
1 = exhausted without a fair assignment, 2 = node budget exceeded.  The
assignment array holds the owning agent per resource, ``-1`` if unassigned.
"""

from __future__ import annotations

import os

import numpy as np

try:  # pragma: no cover - exercised implicitly by backend selection
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap


USE_NUMBA = HAS_NUMBA and os.environ.get("GEFALLOC_NO_NUMBA", "") != "1"


def backend() -> str:
    return "njit" if USE_NUMBA else "numpy"


@njit(cache=True)
def _search_njit(util, arc_a, arc_b, delta, cands, mode, limit):
    n = util.shape[0]
    m = util.shape[1]
    k = cands.shape[0]
    digits = np.zeros(m, np.int64)
    # values[x, y] = value of y's current bundle under x's utility row
    values = np.zeros((n, n), np.int64)
    wel = np.int64(0)
    first = cands[0] if k > 0 else np.int64(-1)
    if first >= 0:
        for r in range(m):
            wel += util[first, r]
            for x in range(n):
                values[x, first] += util[x, r]
    best = np.full(m, -1, np.int64)
    best_wel = np.int64(-1)
    nodes = np.int64(0)
    while True:
        nodes += 1
        if nodes > limit:
            return 2, best, best_wel, nodes - 1
        fair = True
        for t in range(arc_a.shape[0]):
            a = arc_a[t]
            b = arc_b[t]
            if values[a, a] < values[a, b] + delta:
                fair = False
                break
        if fair:
            if mode == 0:
                for r in range(m):
                    best[r] = cands[digits[r]]
                return 0, best, wel, nodes
            if wel > best_wel:
                best_wel = wel
                for r in range(m):
                    best[r] = cands[digits[r]]
        # mixed-radix increment, rightmost digit fastest
        i = m - 1
        while i >= 0:
            old = cands[digits[i]]
            if digits[i] + 1 < k:
                digits[i] += 1
            else:
                digits[i] = 0
            new = cands[digits[i]]
            if old >= 0:
                wel -= util[old, i]
                for x in range(n):
                    values[x, old] -= util[x, i]
            if new >= 0:
                wel += util[new, i]
                for x in range(n):
                    values[x, new] += util[x, i]
            if digits[i] != 0:
                break
            i -= 1
        if i < 0:
            break
    if mode == 1 and best_wel >= 0:
        return 0, best, best_wel, nodes
    return 1, best, best_wel, nodes


_CHUNK = 1 << 15


def _search_numpy(util, arc_a, arc_b, delta, cands, mode, limit):
    n, m = util.shape
    k = len(cands)
    padded = np.vstack([util, np.zeros((1, m), dtype=np.int64)])
    cmap = np.where(cands < 0, n, cands)
    powers = np.array([k ** (m - 1 - r) for r in range(m)], dtype=object)
    total = k**m if m > 0 else 1
    cols = np.arange(m)
    nodes = 0
    best = np.full(m, -1, dtype=np.int64)
    best_wel = -1
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        truncated = False
        if nodes + (stop - start) > limit:
            stop = start + (limit - nodes)
            truncated = True
        if stop > start:
            idx = np.arange(start, stop, dtype=np.int64)
            if m > 0:
                digits = ((idx[:, None].astype(object) // powers[None, :]) % k)
                owners = cmap[digits.astype(np.int64)]
            else:
                owners = np.zeros((len(idx), 0), dtype=np.int64)
            cache = {}

            def owner_value(valuer, owner):
                key = (valuer, owner)
                if key not in cache:
                    cache[key] = (owners == owner).astype(np.int64) @ util[valuer]
                return cache[key]

            fair = np.ones(len(idx), dtype=bool)
            for a, b in zip(arc_a, arc_b):
                fair &= owner_value(int(a), int(a)) >= owner_value(int(a), int(b)) + delta
            nodes += stop - start
            if mode == 0:
                hits = np.flatnonzero(fair)
                if hits.size:
                    row = owners[hits[0]]
                    assignment = np.where(row == n, -1, row)
                    wel = int(padded[row, cols].sum()) if m else 0
                    return 0, assignment, wel, nodes - (len(idx) - int(hits[0]) - 1)
            else:
                if fair.any():
                    wels = padded[owners, cols[None, :]].sum(axis=1) if m else \
                        np.zeros(len(idx), dtype=np.int64)
                    wels = np.where(fair, wels, -1)
                    top = int(wels.max())
                    if top > best_wel:
                        best_wel = top
                        row = owners[int(np.argmax(wels))]
                        best = np.where(row == n, -1, row)
        if truncated:
            return 2, best, best_wel, nodes
    if mode == 1 and best_wel >= 0:
        return 0, best, best_wel, nodes
    return 1, best, best_wel, nodes


def _backend_args(utilities, arcs, delta, candidates, mode, limit):
    """Arguments of either backend: contiguous int64 arrays with the arcs
    split into tail and head columns, and int64 scalars."""
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
    return (
        np.ascontiguousarray(utilities, dtype=np.int64),
        np.ascontiguousarray(arcs[:, 0]),
        np.ascontiguousarray(arcs[:, 1]),
        np.int64(delta),
        np.ascontiguousarray(candidates, dtype=np.int64),
        np.int64(mode),
        np.int64(limit),
    )


def search(utilities, arcs, delta, candidates, mode, limit):
    """Dispatch to the selected backend; see the module docstring."""
    args = _backend_args(utilities, arcs, delta, candidates, mode, limit)
    m, cands = args[0].shape[1], args[4]
    if cands.size == 0 and m > 0:
        # no candidate owners but resources to place: nothing to enumerate
        return 1, np.full(m, -1, dtype=np.int64), -1, 0
    fn = _search_njit if USE_NUMBA else _search_numpy
    status, assignment, wel, nodes = fn(*args)
    return int(status), np.asarray(assignment, dtype=np.int64), int(wel), int(nodes)
