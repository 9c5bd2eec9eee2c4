"""Eigenvalue route to consensus verdicts for constant coupling.

A fixed Metzler matrix with zero row sums drives every initial state to
consensus exactly when 0 is a simple eigenvalue and the rest of the
spectrum sits strictly in the left half plane.  This module computes the
spectrum with LAPACK (numpy.linalg.eigvals) and classifies it, so the
verdict does not depend on the graph machinery it is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digraph import root_masks
from .errors import AmbiguousSpectrum, NoConvergence
from .metzler_core import coupling_entries

DEFAULT_GAP_TOL = 1e-7


def eigenvalues(A) -> np.ndarray:
    """Full spectrum of a real square matrix, sorted by descending real
    part (descending imaginary part within ties).

    Raises NoConvergence when LAPACK's QR iteration does not converge.
    """
    try:
        eigs = np.linalg.eigvals(coupling_entries(A)).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue computation failed: {exc}") from exc
    order = np.lexsort((-eigs.imag, -eigs.real))
    return eigs[order]


@dataclass(frozen=True)
class SpectrumVerdict:
    """Consensus classification of a constant-coupling spectrum.

    zero_count is the number of eigenvalues within gap_tol of the origin;
    decay_margin is the smallest -Re over the remaining ones.  The verdict
    is consensus_stable exactly when zero_count == 1.
    """

    eigenvalues: tuple
    gap_tol: float
    zero_count: int
    decay_margin: float
    consensus_stable: bool


def consensus_spectrum_verdict(eigs, gap_tol: float = DEFAULT_GAP_TOL) -> SpectrumVerdict:
    """Classify a spectrum as consensus-stable or not.

    Every eigenvalue must either lie within gap_tol of the origin or have
    real part at most -gap_tol; anything in between is too close to call
    at this tolerance and raises AmbiguousSpectrum instead of guessing.
    """
    arr = np.asarray(eigs, dtype=complex)
    near_zero = np.abs(arr) <= gap_tol
    decaying = arr.real <= -gap_tol
    undecided = ~(near_zero | decaying)
    if np.any(undecided):
        worst = arr[undecided][np.argmax(arr[undecided].real)]
        raise AmbiguousSpectrum(
            f"eigenvalue {worst} is neither within {gap_tol} of 0 nor "
            f"decaying faster than {gap_tol}")
    zero_count = int(near_zero.sum())
    rest = arr[~near_zero]
    margin = float(-rest.real.max()) if rest.size else math.inf
    return SpectrumVerdict(
        eigenvalues=tuple(complex(v) for v in arr),
        gap_tol=float(gap_tol),
        zero_count=zero_count,
        decay_margin=margin,
        consensus_stable=bool(zero_count == 1),
    )


@dataclass(frozen=True)
class SpectralGraphReport:
    """Side-by-side verdicts from the spectrum and from rootedness."""

    n: int
    delta: float
    gap_tol: float
    verdict: SpectrumVerdict
    roots: tuple
    graph_stable: bool
    agree: bool


def spectral_graph_equivalence(
    A,
    delta: float = 0.0,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> SpectralGraphReport:
    """Compare the eigenvalue verdict with rootedness of the delta-digraph.

    For constant Metzler coupling with zero row sums the two must agree:
    a root reaching every node is equivalent to a simple zero eigenvalue
    with the rest of the spectrum strictly decaying.
    """
    entries = coupling_entries(A)
    verdict = consensus_spectrum_verdict(eigenvalues(entries), gap_tol=gap_tol)
    roots = np.flatnonzero(root_masks(entries[None], delta)[0]) + 1
    graph_stable = len(roots) > 0
    return SpectralGraphReport(
        n=entries.shape[0],
        delta=float(delta),
        gap_tol=float(gap_tol),
        verdict=verdict,
        roots=tuple(roots.tolist()),
        graph_stable=graph_stable,
        agree=bool(graph_stable == verdict.consensus_stable),
    )
