"""Checks of each scenario's documented outputs, made apart from the program.

They read only the exit code, the tag of each analysis line in
``report.txt`` and the columns of ``trajectory.csv``.  Expected tags come
from the paper's theorems or from this module's own computation:

* audits of ``spread``, ``max_component``, ``min_component`` and
  ``delayed_spread`` PASS: the hull of the state never grows for Metzler
  zero-row-sum coupling, nor, with constant history, for the off-diagonal
  delayed system's sliding-window functional;
* connectivity PASSes when the delta-digraphs of the sampled window
  integrals (starts every T/10 and the last start, as documented) share a
  root; integrals are exact piece sums, or the closed form of the
  sinusoidal drift; roots come from breadth-first search;
* the certificate PASSes when root 1 roots the delta-digraph of every
  aligned window integral, and reports HYPOTHESIS otherwise;
* the spectral analysis PASSes when numpy's eigenvalues and this module's
  rootedness agree, as the theorem says they must; an eigenvalue neither
  within gap_tol of 0 nor decaying faster than gap_tol means ERROR.

Final states are compared with products of ``scipy.linalg.expm``
(piecewise-constant coupling), ``scipy.integrate.solve_ivp`` (sinusoidal
drift) and a method-of-steps reference built from ``solve_ivp`` one
tau-window at a time on the previous window's dense output (delay).  The
tolerance follows from the step h the trajectory's time column shows; see
``tolerance``.  Every row must lie inside the hull of x0, and V_spread
must be each row's max minus min.
"""

from __future__ import annotations

import bisect
import math
import os

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from scenarios import metzler

EXIT_OF = {"PASS": 0, "FAIL": 2, "HYPOTHESIS": 3, "ERROR": 5}
GAP_TOL = 1e-7          # the spectral analysis's documented default
TOL_PER_H4 = 10.0       # final-state tolerance per unit of h^4 * V0
TOL_FLOOR = 1e-9        # relative floor: reference and round-off error
HULL_SLACK = 1e-12      # relative slack on the hull of x0


def roots(adjacency: np.ndarray) -> set:
    """Nodes (1-based) that reach every node; arc l -> k when adj[k, l].

    Breadth-first search from every node at once: row s of ``reach`` holds
    the nodes found from s, and each pass adds one level to every row.
    """
    n = adjacency.shape[0]
    step = adjacency.T.astype(np.int64)
    reach = np.eye(n, dtype=bool)
    while True:
        grown = reach | ((reach.astype(np.int64) @ step) > 0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    return {int(s) + 1 for s in np.flatnonzero(reach.all(axis=1))}


def window_integral(sc, t: float, T: float) -> np.ndarray:
    if sc.segments is not None:
        total = np.zeros_like(sc.segments[0][2])
        for a, b, A in sc.segments:
            lo, hi = max(a, t), min(b, t + T)
            if hi > lo:
                total += A * (hi - lo)
        return total
    off, depth, period = sc.sinusoid
    w = 2.0 * math.pi / period
    scale = T + depth / w * (math.cos(w * t) - math.cos(w * (t + T)))
    return metzler(off * scale)


def _digraph(matrix, delta) -> np.ndarray:
    adj = matrix > delta
    np.fill_diagonal(adj, False)
    return adj


def _sampled_starts(horizon, T):
    step = T / 10.0
    last = horizon - T
    count = int(np.floor(last / step + 1e-9)) + 1
    starts = [i * step for i in range(count)]
    if last - starts[-1] > 1e-12 * max(1.0, abs(last)):
        starts.append(last)
    return starts


def expected_tag(sc, spec) -> str:
    kind = spec["kind"]
    if kind == "audit":
        return "PASS"
    if kind == "connectivity":
        common = None
        for t in _sampled_starts(sc.horizon, spec["window"]):
            r = roots(_digraph(window_integral(sc, t, spec["window"]),
                               spec["delta"]))
            common = r if common is None else common & r
        return "PASS" if common else "FAIL"
    if kind == "certificate":
        n, T = sc.config["nodes"], spec["window"]
        for s in range(n - 1):
            window = window_integral(sc, s * T, T)
            if spec["root"] not in roots(_digraph(window, spec["delta"])):
                return "HYPOTHESIS"
        return "PASS"
    if kind == "spectral":
        matrix = sc.segments[0][2]
        eigs = np.linalg.eigvals(matrix)
        near_zero = np.abs(eigs) <= GAP_TOL
        if np.any(~(near_zero | (eigs.real <= -GAP_TOL))):
            return "ERROR"
        stable = int(near_zero.sum()) == 1
        rooted = bool(roots(_digraph(matrix, spec.get("delta", 0.0))))
        return "PASS" if stable == rooted else "FAIL"
    raise ValueError(f"no expectation for analysis {kind!r}")


def expected(sc) -> tuple:
    """((kind, tag) per analysis, exit code)."""
    tags = tuple((spec["kind"], expected_tag(sc, spec))
                 for spec in sc.config["analyses"])
    return tags, max((EXIT_OF[t] for _, t in tags), default=0)


def report_tags(path: str) -> tuple:
    """(kind, tag) of each analysis line of report.txt, in order."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("[") and "]" in line:
                tag, _, rest = line.partition("]")
                out.append((rest.strip().split(":", 1)[0], tag[1:]))
    return tuple(out)


# --------------------------------------------------------------------------
# Reference final states
# --------------------------------------------------------------------------

def coupling_at(sc, t: float) -> np.ndarray:
    if sc.segments is not None:
        starts = [a for a, _, _ in sc.segments]
        return sc.segments[max(bisect.bisect_right(starts, t) - 1, 0)][2]
    off, depth, period = sc.sinusoid
    return metzler(off * (1.0 + depth * math.sin(2.0 * math.pi * t / period)))


def _breaks(sc, a: float, b: float) -> list:
    """[a, b] cut where the coupling switches."""
    cuts = {a, b}
    if sc.segments is not None:
        cuts.update(s for s, _, _ in sc.segments if a < s < b)
    return sorted(cuts)


def reference_final(sc) -> np.ndarray:
    x = np.array(sc.x0, dtype=float)
    if sc.tau is None and sc.segments is not None:
        for a, b, A in sc.segments:
            x = expm(A * (b - a)) @ x
        return x
    if sc.tau is None:
        sol = solve_ivp(lambda t, y: coupling_at(sc, t) @ y, (0.0, sc.horizon),
                        x, method="DOP853", rtol=1e-12, atol=1e-14)
        return sol.y[:, -1]
    return _method_of_steps(sc)


def _method_of_steps(sc) -> np.ndarray:
    """x'(t) = D(t) x(t) + N(t) x(t - tau), x = x0 before 0, one tau-window
    at a time; each window reads the previous ones' dense output."""
    tau = sc.tau
    x0 = np.array(sc.x0, dtype=float)
    pieces = []          # (start, end, dense output), in time order
    starts = []

    def past(s):
        if s <= 0.0:
            return x0
        i = max(bisect.bisect_right(starts, s) - 1, 0)
        return pieces[i][2](s)

    def rhs(matrix_at):
        def f(t, y):
            A = matrix_at(t)
            d = np.diag(A)
            return d * y + (A - np.diag(d)) @ past(t - tau)
        return f

    x = x0
    w0 = 0.0
    while w0 < sc.horizon - 1e-12:
        w1 = min(w0 + tau, sc.horizon)
        cuts = _breaks(sc, w0, w1)
        for a, b in zip(cuts[:-1], cuts[1:]):
            if sc.segments is not None:
                # Constant on this piece; taken from its midpoint so that
                # the right end does not pick up the next piece's matrix.
                A = coupling_at(sc, 0.5 * (a + b))
                f = rhs(lambda t, A=A: A)
            else:
                f = rhs(lambda t: coupling_at(sc, t))
            sol = solve_ivp(f, (a, b), x, method="DOP853", rtol=1e-12,
                            atol=1e-14, dense_output=True)
            pieces.append((a, b, sol.sol))
            starts.append(a)
            x = sol.y[:, -1]
        w0 = w1
    return x


def tolerance(sc, h: float) -> float:
    """TOL_PER_H4 * h^4 * V0 for RK4 at step h, plus a floor for the
    reference's own error and round-off."""
    v0 = float(sc.x0.max() - sc.x0.min())
    scale = max(1.0, float(np.max(np.abs(sc.x0))))
    return TOL_PER_H4 * h ** 4 * v0 + TOL_FLOOR * scale


def check_outputs(sc, out_dir: str) -> list:
    """Problems found in trajectory.csv; empty when it is right."""
    path = os.path.join(out_dir, "trajectory.csv")
    n = sc.config["nodes"]
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"unreadable trajectory.csv: {exc}"]
    want = ["time"] + [f"x_{k}" for k in range(1, n + 1)] + ["V_spread"]
    if header != want or rows.shape[1] != n + 2:
        return [f"columns {header[:3]}... do not match {want[:3]}..."]
    problems = []
    times, states, spread = rows[:, 0], rows[:, 1:-1], rows[:, -1]
    if times[0] != 0.0 or abs(times[-1] - sc.horizon) > 1e-9 * sc.horizon:
        problems.append(f"time runs {times[0]}..{times[-1]}, not 0..{sc.horizon}")
    scale = max(1.0, float(np.max(np.abs(sc.x0))))
    lo, hi = float(sc.x0.min()), float(sc.x0.max())
    slack = HULL_SLACK * scale
    outside = float(max(lo - states.min(), states.max() - hi, 0.0))
    if outside > slack:
        problems.append(f"a state leaves the hull of x0 by {outside:.3g}")
    width = np.abs(spread - (states.max(axis=1) - states.min(axis=1)))
    if float(width.max()) > 1e-12 * scale:
        problems.append("V_spread is not max - min of the row")
    h = float(np.max(np.diff(times)))
    error = float(np.max(np.abs(states[-1] - reference_final(sc))))
    tol = tolerance(sc, h)
    if not error <= tol:
        problems.append(f"final state off the reference by {error:.3g} "
                        f"(tolerance {tol:.3g} at h={h:.3g})")
    return problems
