"""Threshold digraphs of coupling matrices and root-node analysis.

The digraph of a coupling matrix at threshold delta has an arc from l to k
(k != l) exactly when the entry in row k, column l is strictly larger than
delta: information flows from l into k's dynamics.  A root node is one from
which every node can be reached along arcs; persistent root nodes of window
integrals are what the contraction certificate feeds on.

root_masks finds the roots of a whole stack of matrices with one batched
boolean closure; one matrix is a stack of one.  scan_windows feeds it
window integrals from metzler_core.integrate_windows in blocks of at most
2**15 matrix entries, which bounds the memory of a scan; the connectivity
scan and the certificate both read their windows from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeThreshold
from .metzler_core import CouplingSchedule, integrate_windows


def root_masks(stack, delta: float = 0.0) -> np.ndarray:
    """Root nodes of the delta-digraph of every matrix in a (w, n, n) stack.

    Row i of the (w, n) boolean result marks the roots of matrix i.  All w
    closures are taken together: reach[l, k] starts as "l == k or arc l -> k"
    and repeated squaring covers paths of length up to 2^i after i rounds.
    Each boolean product is a float32 matrix product thresholded at zero;
    its entries count paths, at most n, so the threshold is exact.
    """
    if delta < 0.0:
        raise NegativeThreshold(f"threshold must be >= 0, got {delta!r}")
    stack = np.asarray(stack)
    n = stack.shape[-1]
    reach = (np.swapaxes(stack > delta, -1, -2)
             | np.eye(n, dtype=bool)).astype(np.float32)
    for _ in range((n - 1).bit_length()):
        reach = (reach @ reach > 0.0).astype(np.float32)
    return reach.all(axis=-1)


# Window integrals are built and closed at most this many matrix entries at
# a time, so a long scan holds one block of windows in memory, not all.
_BLOCK_ENTRIES = 2 ** 15


def scan_windows(schedule: CouplingSchedule, starts, T: float,
                 delta: float | None):
    """Yield (window integral stack, root masks) for consecutive blocks of
    starts, in order.

    Each block holds at most _BLOCK_ENTRIES matrix entries; its (b, n, n)
    integrals come from integrate_windows and its (b, n) masks from
    root_masks.  With delta None no roots are computed and the masks are
    None.
    """
    per_block = max(1, _BLOCK_ENTRIES // schedule.n ** 2)
    for i in range(0, len(starts), per_block):
        stack = integrate_windows(schedule, starts[i:i + per_block], T)
        yield stack, None if delta is None else root_masks(stack, delta)


@dataclass(frozen=True, eq=False)
class WindowConnectivityReport:
    """Sampled scan of window-integral root sets.

    ``window_starts`` holds the w sampled starts and ``roots_per_window``
    the (w, n) boolean root masks of their window integrals; column k - 1
    is node k.  The scan inspects finitely many window starts; it reports
    evidence for the continuum connectivity hypothesis, never a proof of
    it.
    """

    n: int
    delta: float
    T: float
    horizon: tuple
    sample_step: float
    window_starts: np.ndarray
    roots_per_window: np.ndarray
    common_roots: frozenset
    has_common_root: bool
    note: str = ("sampled window starts only; the continuum hypothesis is "
                 "supported, not established")


def window_connectivity_report(
    schedule: CouplingSchedule,
    delta: float,
    T: float,
    sample_step: float | None = None,
) -> WindowConnectivityReport:
    """Scan window starts t in [t0, t1 - T] of the schedule's horizon on a
    grid and intersect the root sets of the delta-digraphs of each window
    integral."""
    if not (delta > 0.0):
        raise NegativeThreshold(
            f"window connectivity scan needs delta > 0, got {delta!r}")
    if not (T > 0.0):
        raise ValueError(f"window length must be positive, got T = {T!r}")
    t0, t1 = schedule.horizon
    if t1 - t0 < T:
        raise ValueError(
            f"horizon [{t0}, {t1}] shorter than one window of length {T}")
    if sample_step is None:
        sample_step = T / 10.0
    last = t1 - T
    count = int(np.floor((last - t0) / sample_step + 1e-9)) + 1
    starts = t0 + sample_step * np.arange(count, dtype=float)
    if last - starts[-1] > 1e-12 * max(1.0, abs(last)):
        starts = np.append(starts, last)

    masks = np.concatenate(
        [block for _, block in scan_windows(schedule, starts, T, delta)])
    common = frozenset((np.flatnonzero(masks.all(axis=0)) + 1).tolist())
    return WindowConnectivityReport(
        n=schedule.n,
        delta=delta,
        T=T,
        horizon=(t0, t1),
        sample_step=float(sample_step),
        window_starts=starts,
        roots_per_window=masks,
        common_roots=common,
        has_common_root=bool(common),
    )
