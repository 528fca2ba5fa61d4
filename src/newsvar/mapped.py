"""Arrays of posterior size in memory maps of their own.

A freed block of the C allocator stays in the process while any later
block sits above it (glibc keeps blocks under 32 MB in its heap), and the
next step's memory then stacks on top of it. An array that grows with the
number of posterior draws and is freed before the chain ends therefore
lives in a map of its own, whose pages leave the process as soon as the
array and its views are gone. Three kinds must: B and Sigma of
``bvar.posterior_sample``, the posterior arrays the CLI reads back for
``irf`` (mapped from their files read-only), and the response window of
``structural.irf_band_summary``. Arrays returned to a library caller for
keeps, like the responses of ``structural.irf_bands``, stay on the heap.

Mapped pages are out of tracemalloc's sight. ``peak_bytes`` reports the
most bytes this module's maps held at once since ``reset_peak``, so a
memory test adds it to tracemalloc's peak: an upper bound on the peak of
both together.
"""

from __future__ import annotations

import math
import mmap
import weakref

import numpy as np

# Where the platform offers it, ``empty`` faults its pages in with the map:
# 5 ms for 26 MB against 14 ms page by page on first touch (2-core x86-64
# VM, Linux 6.18).
_MAP_FLAGS = (
    {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | mmap.MAP_POPULATE}
    if hasattr(mmap, "MAP_POPULATE") else {}
)

# Bytes the maps hold now, their most since ``reset_peak``, and what they
# held at that reset.
_held = _peak = _base = 0


def _hold(pages, size: int) -> None:
    global _held, _peak
    _held += size
    _peak = max(_peak, _held)
    weakref.finalize(pages, _let_go, size)


def _let_go(size: int) -> None:
    global _held
    _held -= size


def empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-contiguous float array in an anonymous map."""
    size = 8 * math.prod(shape)
    pages = mmap.mmap(-1, size, **_MAP_FLAGS)
    _hold(pages, size)
    return np.frombuffer(pages, dtype=float).reshape(shape)


def load(path) -> np.ndarray:
    """The ``.npy`` array at ``path``, mapped from its file read-only."""
    array = np.load(path, mmap_mode="r")
    if isinstance(array.base, mmap.mmap):
        _hold(array.base, array.nbytes)
    return array


def reset_peak() -> None:
    """Start ``peak_bytes`` afresh from the maps held now."""
    global _peak, _base
    _peak = _base = _held


def peak_bytes() -> int:
    """The most bytes held in this module's maps at once since
    ``reset_peak``, beyond those held at that reset."""
    return _peak - _base
