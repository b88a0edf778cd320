"""Machine-speed normalisation of measured op times.

The shared 2-vCPU host runs this code up to twice as slowly for stretches of
several seconds (see README.md), so raw wall times of whole runs spread by
20-34%.  Before every op the worker times a small reference job that does
the same kind of work as that workload's ops but is frozen here, independent
of spherelp.  Each op time is then multiplied by the reference's
quiet-machine time over the median of the reference samples around that op.
Reported op times are therefore wall times on the host the quiet times were
measured on, at its quietest.  A change to spherelp moves the op times and
not the reference, so the scaling keeps it.
"""

from __future__ import annotations

import mmap
from math import fsum
from time import perf_counter_ns

import numpy as np
from numpy.polynomial import polynomial as npoly

_X = np.linspace(-0.9, 0.9, 33)
_C = npoly.polyfromroots(np.linspace(-0.95, 0.9, 11))
_GRID = np.linspace(-1.0, 0.99, 4001)
_PTS = np.random.default_rng(0).standard_normal((200, 8))
_PTS /= np.linalg.norm(_PTS, axis=1, keepdims=True)
_W = np.full(200, 1 / 200)


def _scalar() -> None:
    """Interpreter-bound recurrence on small arrays, like the Brent solve of a rule."""
    p, q = np.ones_like(_X), _X.copy()
    acc = 0.0
    for j in range(1, 60):
        p, q = q, ((2 * j + 1) * _X * q - j * p) / (j + 1)
        acc += float(q[j % 33]) + (j * j) % 7


def _poly() -> None:
    """Power-basis roots, products and a dense grid check, like an upper bound."""
    roots = npoly.polyroots(_C)
    q = npoly.polyfromroots(np.sort(roots.real))
    q = npoly.polymul(q, q)
    v = npoly.polyval(_GRID, q) - np.power(2.0 - 2.0 * _GRID, -0.5)
    acc = 0.0
    for i in range(60):
        acc += float(np.max(np.abs(v[i::61])))


def _bulk() -> None:
    """A 200-point distance tensor, a row-wise energy sum and fresh pages, like a code op."""
    np.linalg.norm(_PTS[:, None] - _PTS[None, :], axis=2)
    g = np.clip(_PTS @ _PTS.T, -1.0, 1.0)
    terms = []
    for i in range(_W.size):
        terms.extend(2.0 * _W[i] * _W[i + 1 :] * np.power(2.0 - 2.0 * g[i, i + 1 :], -0.5))
    fsum(terms)
    with mmap.mmap(-1, 4 << 20) as pages:
        view = np.frombuffer(pages, dtype=np.uint8)
        view[::4096] = 1
        del view


WINDOW = 21  # reference samples, centred on an op, whose median sets its scale
# workload -> (reference job, its time in ms on the quiet machine)
REFERENCES = {
    "ulb-sweep": (_scalar, 0.25),
    "uub-scan": (_poly, 0.56),
    "code-energy": (_bulk, 11.7),
}


def reference_ns(workload: str) -> int:
    """Time one run of the workload's reference job."""
    job = REFERENCES[workload][0]
    start = perf_counter_ns()
    job()
    return perf_counter_ns() - start


def scales(workload: str, samples: list[int]) -> np.ndarray:
    """Quiet-machine time over the running median of the reference samples, per op."""
    quiet_ms = REFERENCES[workload][1]
    r = np.asarray(samples, dtype=float) / 1e6
    if r.size <= WINDOW:
        return np.full(r.size, quiet_ms / np.median(r))
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(r, WINDOW // 2, mode="edge"), WINDOW)
    return quiet_ms / np.median(windows, axis=1)
