"""The host-speed references the benchmark scales its times by.

On a shared host the speed of a core drifts by tens of percent within
minutes, and user and system CPU time drift with it. The benchmark
therefore times a fixed reference right beside every measurement and
reports each time as ``measured * nominal / reference``: seconds on a host
on which the reference takes its nominal time. Neither reference uses
anything from the package, so no change to the package can move them.

- ``reference_time`` is a computation whose mix follows the measured
  layers: breadth-first searches in the interpreter, and JSON, base64 and
  numpy decoding in C. It scales repetition and layer times.
- ``start_reference_time`` starts a fresh interpreter that imports what
  the measured modules import, numpy and the standard library, but not
  the package. It scales the package's load time.
"""

from __future__ import annotations

import base64
import collections
import json
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.020
START_REFERENCE_S = 0.200
START_IMPORTS = ("numpy, base64, binascii, collections, dataclasses, json, logging, os, pathlib, tempfile, "
                 "typing, xml.sax.saxutils")


def _inputs() -> tuple[list[int], str]:
    rng = np.random.default_rng(0)
    heads = [-1] + [int(rng.integers(0, i)) for i in range(1, 40)]
    payload = base64.b64encode(rng.standard_normal((40, 2048), dtype=np.float32).tobytes()).decode()
    rows = [[int(v) for v in rng.integers(0, 40, size=40)] for _ in range(40)]
    return heads, json.dumps({"rows": rows, "data": payload})


HEADS, TEXT = _inputs()


def reference_time() -> float:
    """Seconds the fixed computation takes now."""
    start = time.perf_counter()
    adj: list[list[int]] = [[] for _ in HEADS]
    for v, h in enumerate(HEADS):
        if h >= 0:
            adj[v].append(h)
            adj[h].append(v)
    for _ in range(8):
        for src in range(len(adj)):
            dist = {src: 0}
            queue = collections.deque([src])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
    for _ in range(4):
        rec = json.loads(TEXT)
        np.frombuffer(base64.b64decode(rec["data"]), dtype="<f4").reshape(40, 2048).sum()
    return time.perf_counter() - start


def start_reference_time() -> float:
    """Seconds a fresh interpreter takes now to start and import START_IMPORTS."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {START_IMPORTS}"], stdin=subprocess.DEVNULL,
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - start
