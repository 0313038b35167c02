"""A fixed reference computation that measures how fast the host runs now.

The benchmark shares a few cores of a host whose speed drifts by a third
or more over minutes, as neighbouring load comes and goes.  This module's
work never changes: it is not the program's code, so a change to the
program cannot move its time, and only the host can.  Timed in bursts
between solves, it gives the host's speed over the same seconds as the
solves, and ``run.py`` reports solve throughput in units of its time.

Its mix follows the solves': a breadth-first search over Python lists,
dicts and a deque, then small numpy scatter-adds and sorts.
"""

from collections import deque

import numpy as np

_N = 4000
_rng = np.random.default_rng(20190216)
_ADJ = [[int(v) for v in _rng.integers(0, _N, 4)] for _ in range(_N)]
_IDX = _rng.integers(0, 512, 16384)
_VAL = _rng.random(16384)


def work() -> int:
    """One unit of reference work; returns a checksum so none of it is skipped."""
    depth = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        d = depth[u] + 1
        for v in _ADJ[u]:
            if v not in depth:
                depth[v] = d
                queue.append(v)
    acc = np.zeros(512)
    for _ in range(4):
        np.add.at(acc, _IDX, _VAL)
        acc += np.sort(_VAL[: len(acc)])
    return len(depth) + int(np.argsort(acc)[0])
