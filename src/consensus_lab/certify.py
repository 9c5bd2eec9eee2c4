"""Numerical contraction certificates for time-varying consensus coupling.

The argument being certified runs one window at a time.  Fix a group G of
nodes known to sit inside a bracket [g_min, g_max] at the window start,
with the whole state inside [mu_min, mu_max].  Over a window of length T
the group cannot escape far: integrated coupling from the complement drags
each member toward the global bracket no faster than exp(-a_GH).  In the
other direction, at least one complement node must absorb an average share
of the integrated coupling a_HG into the complement, and that node gets
pulled toward the group bracket by a computable factor beta.

Chaining the argument promotes one trapped node per window.  Starting from
a root node of every window digraph and running n - 1 windows, the final
group is everything and the spread has contracted by rho = 1 - prod(beta).
Rootedness makes each a_HG exceed the digraph threshold, so every beta is
positive and rho < 1: uniform exponential convergence with a rate the
report states explicitly.

All interval arithmetic here is analytic; the trajectory enters only as a
witness that each predicted bracket actually contains the simulated values.
The caller hands that trajectory in: verify_lemma_on_trajectory checks one
window of it and contraction_certificate chains n - 1 windows along it,
both through the same stage function, _window_stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .digraph import scan_windows
from .dynamics import Trajectory, interpolate_state
from .errors import (
    DegenerateSeries,
    HypothesisUnverified,
    InvalidPartition,
    NodeOutOfRange,
    NoTrappedComponent,
    OrderingViolated,
    OutOfHorizon,
)
from .metzler_core import CouplingSchedule, coupling_entries, integrate_schedule

DEFAULT_SLACK_FACTOR = 1e-7

# exp() overflows near 710; beyond this the trap factor underflows to zero
# and the certificate is vacuous anyway.
_EXP_ARG_CAP = 700.0


@dataclass(frozen=True)
class PartitionCoupling:
    """Integrated coupling totals across a group/complement partition.

    a_gh sums the window integrals of entries (k, l) with k in the group
    and l outside: coupling felt by the group from the rest.  a_hg is the
    reverse direction, and a_hh the off-diagonal totals inside the
    complement.  All three are non-negative for Metzler coupling.
    """

    group: tuple
    rest: tuple
    a_gh: float
    a_hg: float
    a_hh: float


def coupling_numbers(window, group) -> PartitionCoupling:
    """Partition the nodes of an integrated window, the n-by-n array that
    integrate_schedule returns, and total the coupling."""
    entries = coupling_entries(window)
    n = entries.shape[0]
    members = sorted(set(int(k) for k in group))
    if not members:
        raise InvalidPartition("group must be non-empty")
    if members[0] < 1 or members[-1] > n:
        raise NodeOutOfRange(f"group {members} outside 1..{n}")
    rest = sorted(set(range(1, n + 1)) - set(members))
    if not rest:
        raise InvalidPartition("group must leave a non-empty complement")
    gi = np.array(members) - 1
    hi = np.array(rest) - 1
    block_hh = entries[hi[:, None], hi]
    return PartitionCoupling(
        group=tuple(members),
        rest=tuple(rest),
        a_gh=float(entries[gi[:, None], hi].sum()),
        a_hg=float(entries[hi[:, None], gi].sum()),
        a_hh=float(block_hh.sum() - np.trace(block_hh)),
    )


def beta_factor(pc: PartitionCoupling) -> float:
    """Trap factor for the complement of the group over one window.

    At least one of the h complement nodes receives integrated coupling
    a_hg / h from the group; internal complement coupling a_hh and the
    group's own drift exp(-a_gh) discount how much of that pull survives.
    Always in [0, 1), and zero only when a_hg is zero.
    """
    if not pc.rest:
        raise InvalidPartition("complement size must be positive, got 0")
    share = pc.a_hg / len(pc.rest)
    growth = math.exp(min(pc.a_hh, _EXP_ARG_CAP))
    return math.exp(-pc.a_gh) * share / (1.0 + growth * share + growth * pc.a_hh)


def lemma_intervals(pc: PartitionCoupling, mu_interval, g_interval):
    """End-of-window brackets for the group and for a trapped complement node.

    mu_interval bounds the whole state over the window, g_interval the group
    at the window start.  The group ends inside the first returned interval;
    at least one complement node ends inside the second.
    """
    mu_min, mu_max = float(mu_interval[0]), float(mu_interval[1])
    g_min, g_max = float(g_interval[0]), float(g_interval[1])
    if not (mu_min <= g_min <= g_max <= mu_max):
        raise OrderingViolated(
            f"need mu_min <= g_min <= g_max <= mu_max, got "
            f"[{mu_min}, {mu_max}] and [{g_min}, {g_max}]")
    shrink = math.exp(-pc.a_gh)
    beta = beta_factor(pc)
    g_out = (mu_min + (g_min - mu_min) * shrink,
             mu_max - (mu_max - g_max) * shrink)
    h_out = (mu_min + (g_min - mu_min) * beta,
             mu_max - (mu_max - g_max) * beta)
    return g_out, h_out


def _inside(value: float, interval, slack: float) -> bool:
    return interval[0] - slack <= value <= interval[1] + slack


def _trap_margin(value: float, interval) -> float:
    return min(value - interval[0], interval[1] - value)


def _window_stage(pc: PartitionCoupling, mu, bracket, x_end, slack: float):
    """The one-window lemma for the partition pc, witnessed at the window
    end.

    mu bounds the whole state and bracket the group at the window start.
    Returns (beta, group bracket, trap bracket, group_within, trapped):
    group_within says whether every group member of x_end lies inside the
    group bracket, and trapped lists (node, margin) for each complement
    node of x_end inside the trap bracket, deepest first.
    """
    g_out, h_out = lemma_intervals(pc, mu, bracket)
    group_within = all(
        _inside(float(x_end[k - 1]), g_out, slack) for k in pc.group)
    trapped = sorted(
        ((node, _trap_margin(float(x_end[node - 1]), h_out))
         for node in pc.rest if _inside(float(x_end[node - 1]), h_out, slack)),
        key=lambda item: (-item[1], item[0]))
    return beta_factor(pc), g_out, h_out, group_within, trapped


@dataclass(frozen=True)
class LemmaReport:
    """One-window bracket check against a simulated trajectory."""

    window: tuple
    coupling: PartitionCoupling
    beta: float
    mu_interval: tuple
    g_start: tuple
    g_interval: tuple
    h_interval: tuple
    group_within: bool
    range_contained: bool
    trapped: tuple
    slack: float
    passed: bool


def verify_lemma_on_trajectory(
    schedule: CouplingSchedule,
    trajectory: Trajectory,
    group,
    t_start: float,
    T: float,
    slack: Optional[float] = None,
) -> LemmaReport:
    """Measure the brackets at a window start and check the predicted ones
    at the window end against the same trajectory.

    ``trapped`` lists the complement nodes that ended inside the trap
    bracket, ordered by depth inside it (deepest first).
    """
    if T <= 0.0:
        raise ValueError(f"window length must be positive, got {T}")
    t_end = t_start + T
    if t_start < trajectory.t_start - 1e-12 or t_end > trajectory.t_end + 1e-12:
        raise OutOfHorizon(
            f"window [{t_start}, {t_end}] outside trajectory "
            f"[{trajectory.t_start}, {trajectory.t_end}]")
    pc = coupling_numbers(integrate_schedule(schedule, t_start, T), group)
    x_start, x_end = interpolate_state(schedule, trajectory, [t_start, t_end])
    mu = (float(x_start.min()), float(x_start.max()))
    members = x_start[np.array(pc.group) - 1]
    g0 = (float(members.min()), float(members.max()))
    if slack is None:
        slack = DEFAULT_SLACK_FACTOR * (1.0 + mu[1] - mu[0])
    beta, g_out, h_out, group_ok, trapped = _window_stage(
        pc, mu, g0, x_end, slack)
    mask = (trajectory.times >= t_start - 1e-12) & (trajectory.times <= t_end + 1e-12)
    inner = trajectory.states[mask]
    range_ok = bool(inner.size == 0 or (
        inner.min() >= mu[0] - slack and inner.max() <= mu[1] + slack))
    return LemmaReport(
        window=(float(t_start), float(t_end)),
        coupling=pc,
        beta=beta,
        mu_interval=mu,
        g_start=g0,
        g_interval=g_out,
        h_interval=h_out,
        group_within=group_ok,
        range_contained=range_ok,
        trapped=tuple(node for node, _ in trapped),
        slack=float(slack),
        passed=bool(group_ok and range_ok and trapped),
    )


@dataclass(frozen=True)
class StageReport:
    """One promotion step of the chained certificate."""

    index: int
    window: tuple
    group_before: tuple
    coupling: PartitionCoupling
    beta: float
    g_interval: tuple
    h_interval: tuple
    bracket_after: tuple
    promoted: int
    trap_margin: float
    group_within: bool


@dataclass(frozen=True)
class CertificateReport:
    """Contraction certificate over n - 1 chained windows.

    rho is the analytic contraction factor 1 - prod(beta) for the spread
    over the certified span; certified_rate converts it to an exponential
    rate.  observed_contraction is the simulated counterpart, which the
    certificate requires to stay at or below rho (up to slack).
    """

    t0: float
    T: float
    delta: float
    root: int
    n: int
    stages: tuple
    v0: float
    rho: float
    certified_rate: float
    final_bracket: tuple
    observed_spread_end: float
    observed_contraction: float
    slack: float
    hypothesis_checked: bool
    passed: bool


def contraction_certificate(
    schedule: CouplingSchedule,
    trajectory: Trajectory,
    t0: float,
    T: float,
    delta: float,
    root: int,
    verify_hypothesis: bool = True,
    slack_factor: float = DEFAULT_SLACK_FACTOR,
) -> CertificateReport:
    """Chain n - 1 window brackets from a root node into a spread
    contraction, and witness every stage on the given trajectory of the
    schedule, which must cover [t0, t0 + (n - 1) T].

    The stage windows are integrated, and their roots found, a block at a
    time (digraph.scan_windows).  Each stage checks (when verify_hypothesis
    is set) that ``root`` is a root of its window's delta-digraph,
    computes the trap factor for the current complement,
    promotes the most deeply trapped node, and verifies that all group
    members ended inside the analytic bracket.

    Raises HypothesisUnverified when a stage window loses rootedness and
    NoTrappedComponent when a trap is vacuous or no node landed in it.
    The returned report never hides a failed bracket: ``passed`` goes
    false instead.
    """
    n = schedule.n
    if not 1 <= root <= n:
        raise NodeOutOfRange(f"root {root} outside 1..{n}")
    if T <= 0.0:
        raise ValueError(f"window length must be positive, got {T}")
    span_end = t0 + (n - 1) * T
    for name, (lo, hi) in (("schedule horizon", schedule.horizon),
                           ("trajectory", (trajectory.t_start, trajectory.t_end))):
        if t0 < lo - 1e-12 or span_end > hi + 1e-12:
            raise OutOfHorizon(
                f"certificate span [{t0}, {span_end}] outside {name} "
                f"[{lo}, {hi}]")

    starts = [t0 + (s - 1) * T for s in range(1, n)]
    # The state at t0, at every stage's end and at span_end, in one read.
    x0, *x_ends, x_final = interpolate_state(
        schedule, trajectory, [t0] + [w_start + T for w_start in starts]
        + [span_end])
    mu = (float(x0.min()), float(x0.max()))
    v0 = mu[1] - mu[0]
    slack = slack_factor * (1.0 + v0)

    group = [root]
    bracket = (float(x0[root - 1]), float(x0[root - 1]))
    stages = []
    beta_product = 1.0
    all_within = True
    windows = (
        (window, masks is None or masks[j, root - 1])
        for stack, masks in scan_windows(
            schedule, starts, T, delta if verify_hypothesis else None)
        for j, window in enumerate(stack))
    for s, w_start, x_end, (window, rooted) in zip(range(1, n), starts,
                                                   x_ends, windows):
        if not rooted:
            raise HypothesisUnverified(
                f"stage {s}: node {root} is not a root of the "
                f"delta-digraph of the window [{w_start}, {w_start + T}] "
                f"integral at threshold {delta}")
        pc = coupling_numbers(window, group)
        beta, g_out, h_out, group_ok, trapped = _window_stage(
            pc, mu, bracket, x_end, slack)
        if beta <= 0.0:
            raise NoTrappedComponent(
                s,
                f"trap factor vanished (integrated coupling into the "
                f"complement was {pc.a_hg}); nothing is pulled toward the "
                f"group over [{w_start}, {w_start + T}]")
        if not trapped:
            raise NoTrappedComponent(
                s,
                f"no complement node ended inside the trap bracket "
                f"[{h_out[0]}, {h_out[1]}] (slack {slack}) at time "
                f"{w_start + T}")
        promoted, margin = trapped[0]
        new_bracket = (min(g_out[0], h_out[0]), max(g_out[1], h_out[1]))
        all_within = all_within and group_ok
        stages.append(StageReport(
            index=s,
            window=(w_start, w_start + T),
            group_before=tuple(group),
            coupling=pc,
            beta=beta,
            g_interval=g_out,
            h_interval=h_out,
            bracket_after=new_bracket,
            promoted=promoted,
            trap_margin=margin,
            group_within=group_ok,
        ))
        group.append(promoted)
        group.sort()
        bracket = new_bracket
        beta_product *= beta

    rho = 1.0 - beta_product
    # log1p keeps the rate positive when prod(beta) underflows 1 - rho,
    # which happens for very weakly coupled stages (rho rounds to 1.0).
    rate = -math.log1p(-beta_product) / ((n - 1) * T) if n > 1 else math.inf
    observed_end = float(x_final.max() - x_final.min())
    observed = observed_end / v0 if v0 > 0.0 else 0.0
    contracted = observed_end <= rho * v0 + slack
    return CertificateReport(
        t0=float(t0),
        T=float(T),
        delta=float(delta),
        root=int(root),
        n=n,
        stages=tuple(stages),
        v0=v0,
        rho=rho,
        certified_rate=rate,
        final_bracket=bracket,
        observed_spread_end=observed_end,
        observed_contraction=observed,
        slack=float(slack),
        hypothesis_checked=bool(verify_hypothesis),
        passed=bool(beta_product > 0.0 and all_within and contracted),
    )


def estimate_decay_rate(times, values) -> float:
    """Least-squares exponential rate from a series of (times, values)
    arrays.

    Fits log(value) against time over the strictly positive values and
    returns the negated slope, so a decaying series gives a positive rate.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0.0
    if np.count_nonzero(keep) < 2:
        raise DegenerateSeries(
            "need at least two positive samples to fit a rate")
    times = times[keep]
    logs = np.log(values[keep])
    if float(times.max() - times.min()) <= 0.0:
        raise DegenerateSeries("samples must span a positive time range")
    tbar = times.mean()
    slope = float(np.dot(times - tbar, logs - logs.mean())
                  / np.dot(times - tbar, times - tbar))
    return -slope
