"""End-to-end acceptance gates for the certification pipeline.

Every test prints one [PASS]/[FAIL] line with the measured quantity and
its bound, visible even under captured output. All random draws are
seeded, so reruns measure identical numbers. The switching-schedule
sweep is shared between the convergence and certificate-validity gates
through a module-scoped fixture.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from consensus_lab import (
    build_schedule,
    constant_schedule,
    delayed_functional_series,
    estimate_decay_rate,
    from_offdiagonal,
    generate_topology,
    monotonicity_from_series,
    simulate_dde,
    simulate_ode,
    spectral_graph_equivalence,
    spread_series,
    verify_lemma_on_trajectory,
    window_connectivity_report,
)

from conftest import witnessed_certificate


def _line(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def pair_coupling(w):
    return from_offdiagonal(np.array([[0.0, w], [w, 0.0]]))


def ring_coupling(n, w, flip=False):
    off = np.zeros((n, n))
    for k in range(n):
        if flip:
            off[(k + 1) % n, k] = w
        else:
            off[k, (k + 1) % n] = w
    return from_offdiagonal(off)


def alternating_schedule(make_a, make_b, t_end, hold=1.0):
    segs = []
    start = 0.0
    idx = 0
    while start < t_end:
        segs.append((start, min(start + hold, t_end),
                     make_a if idx % 2 == 0 else make_b))
        start += hold
        idx += 1
    return build_schedule(segs)


# --------------------------------------------------------------------------
# Criterion 1: the trapping lemma never fails on random schedules
# --------------------------------------------------------------------------

def test_c1_lemma_soundness_sweep(capsys):
    rng = np.random.default_rng(11235)
    cases = 1000
    violations = 0
    t_begin = time.monotonic()
    for _ in range(cases):
        n = int(rng.integers(3, 6))
        segs = []
        start = 0.0
        for _ in range(int(rng.integers(2, 4))):
            length = float(rng.uniform(0.1, 1.0))
            off = rng.uniform(0.1, 2.0, (n, n))
            off[rng.random((n, n)) < 0.35] = 0.0
            np.fill_diagonal(off, 0.0)
            segs.append((start, start + length, from_offdiagonal(off)))
            start += length
        schedule = build_schedule(segs)
        x0 = rng.uniform(-1.0, 1.0, n)
        v0 = float(x0.max() - x0.min())
        size = int(rng.integers(1, n))
        group = sorted(
            rng.choice(np.arange(1, n + 1), size, replace=False).tolist())
        traj = simulate_ode(schedule, x0, 0.0, start)
        report = verify_lemma_on_trajectory(schedule, traj, group, 0.0, start,
                                            slack=1e-7 * v0)
        violations += not report.passed
    elapsed = time.monotonic() - t_begin
    ok = violations == 0 and elapsed < 60.0
    _line(capsys, ok, "C1 trapping-lemma soundness",
          f"{violations} violations in {cases} random schedules at slack "
          f"1e-7*V0, {elapsed:.1f}s (target < 60s)")
    assert violations == 0
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# Criteria 2 and 3 share one sweep of screened switching schedules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCase:
    seed: int
    n: int
    v0: float
    final_ratio: float
    worst_increase: float
    mono_passed: bool
    cert_passed: bool
    cert_rho: float
    cert_observed: float


@pytest.fixture(scope="module")
def switching_sweep():
    delta, T = 0.05, 1.0
    cases = []
    for seed in range(220):
        n = 3 + seed % 3
        horizon = 50.0 * (n - 1) * T
        spec = {"kind": "random_switching", "period": 0.5,
                "link_probability": 0.9, "weight_range": [0.5, 1.5],
                "seed": seed}
        schedule = generate_topology(spec, n, 0.0, horizon, None)
        screen = window_connectivity_report(schedule, delta, T)
        if not screen.has_common_root:
            continue
        rng = np.random.default_rng(10_000 + seed)
        x0 = rng.uniform(-1.0, 1.0, n)
        v0 = float(x0.max() - x0.min())
        traj = simulate_ode(schedule, x0, 0.0, horizon, step=0.04)
        _, spreads = spread_series(traj)
        mono = monotonicity_from_series("spread", spreads, slack=1e-9)
        cert = witnessed_certificate(schedule, x0, 0.0, T, delta,
                                     min(screen.common_roots))
        cases.append(SweepCase(
            seed=seed,
            n=n,
            v0=v0,
            final_ratio=spreads[-1] / v0,
            worst_increase=mono.worst_violation,
            mono_passed=mono.passed,
            cert_passed=cert.passed,
            cert_rho=cert.rho,
            cert_observed=cert.observed_contraction,
        ))
    return cases


def test_c2_switching_convergence(capsys, switching_sweep):
    verified = len(switching_sweep)
    worst_final = max(c.final_ratio for c in switching_sweep)
    worst_increase = max(c.worst_increase for c in switching_sweep)
    mono_failures = sum(not c.mono_passed for c in switching_sweep)
    ok = (verified >= 200 and worst_final <= 1e-6 and mono_failures == 0)
    _line(capsys, ok, "C2 switching-schedule convergence",
          f"{verified} verified schedules (need >= 200), worst final/V0 "
          f"{worst_final:.3g} (<= 1e-6), worst V increase "
          f"{worst_increase:.3g} (slack 1e-9), {mono_failures} "
          f"monotonicity failures")
    assert verified >= 200
    assert worst_final <= 1e-6
    assert mono_failures == 0


def test_c3_certificate_validity(capsys, switching_sweep):
    succeeded = [c for c in switching_sweep if c.cert_passed]
    worst_gap = max(c.cert_observed - c.cert_rho for c in succeeded)
    bound_failures = sum(
        c.cert_observed > c.cert_rho + 1e-7 for c in succeeded)

    lf_spec = {"kind": "alternating_leader_follower", "period": 2.0}
    lf_schedule = generate_topology(lf_spec, 2, 0.0, 2.0, None)
    lf_cert = witnessed_certificate(lf_schedule, [1.0, -1.0], 0.0, 2.0,
                                    delta=0.5, root=1)
    lf_ok = lf_cert.passed and lf_cert.rho < 1.0
    expected_rho = 1.0 - math.exp(-1.0) / 2.0

    ok = (len(succeeded) > 0 and bound_failures == 0 and lf_ok
          and abs(lf_cert.rho - expected_rho) < 1e-12)
    _line(capsys, ok, "C3 certificate validity",
          f"{len(succeeded)} certificates succeeded, {bound_failures} "
          f"exceeded rho + 1e-7 (worst gap {worst_gap:.3g}); alternating "
          f"leader-follower rho={lf_cert.rho:.6f} (< 1, expected "
          f"{expected_rho:.6f})")
    assert len(succeeded) > 0
    assert bound_failures == 0
    assert lf_ok
    assert lf_cert.rho == pytest.approx(expected_rho, abs=1e-12)


# --------------------------------------------------------------------------
# Criterion 4: spectrum verdict agrees with graph rootedness
# --------------------------------------------------------------------------

def _c4_case(rng, n, closed_blocks=False):
    density = float(rng.uniform(0.1, 0.9))
    off = rng.uniform(0.1, 2.0, (n, n))
    off[rng.random((n, n)) > density] = 0.0
    np.fill_diagonal(off, 0.0)
    if closed_blocks:
        # no arc between the two halves: each is closed, so nothing roots both
        k = n // 2
        off[:k, k:] = 0.0
        off[k:, :k] = 0.0
    return spectral_graph_equivalence(from_offdiagonal(off))


def test_c4_spectral_graph_agreement(capsys):
    rng = np.random.default_rng(31415)
    small, large = 200, 60
    reports = [_c4_case(rng, int(rng.integers(2, 9))) for _ in range(small)]
    # Random dense draws at n > 8 are almost always rooted, so every other
    # large case splits into two closed blocks.
    reports += [_c4_case(rng, int(rng.integers(9, 201)), closed_blocks=i % 2 == 1)
                for i in range(large)]
    cases = small + large
    disagreements = sum(not r.agree for r in reports)
    stable = sum(r.graph_stable for r in reports[:small])
    unstable = small - stable
    large_stable = sum(r.graph_stable for r in reports[small:])
    large_unstable = large - large_stable
    ok = (disagreements == 0 and stable > 0 and unstable > 0
          and large_stable > 0 and large_unstable > 0)
    _line(capsys, ok, "C4 spectral-graph agreement",
          f"{cases - disagreements}/{cases} agree; n <= 8: {stable} rooted, "
          f"{unstable} unrooted; 9 <= n <= 200: {large_stable} rooted, "
          f"{large_unstable} unrooted; 0 ambiguous allowed")
    assert disagreements == 0
    assert stable > 0 and unstable > 0
    assert large_stable > 0 and large_unstable > 0


# --------------------------------------------------------------------------
# Criterion 5: balance, NSD symmetric part, doubly stochastic flows
# --------------------------------------------------------------------------

def test_c5_balance_equivalences(capsys):
    rng = np.random.default_rng(27182)
    cases = 200
    mismatches = 0
    worst_stochastic = 0.0
    worst_drift = 0.0
    balanced_seen = 0
    for i in range(cases):
        n = int(rng.integers(2, 7))
        off = rng.uniform(0.1, 2.0, (n, n))
        off[rng.random((n, n)) > 0.7] = 0.0
        np.fill_diagonal(off, 0.0)
        if i % 2 == 0:
            off = (off + off.T) / 2.0
        A = from_offdiagonal(off)
        balanced = bool(np.abs(A.sum(axis=0)).max() <= 1e-10)
        mismatches += balanced != bool(np.linalg.eigvalsh(A + A.T)[-1] <= 1e-10)
        if not balanced:
            continue
        balanced_seen += 1
        for t in (0.1, 1.0, 10.0):
            P = scipy_expm(A * t)
            worst_stochastic = max(
                worst_stochastic,
                float(np.max(np.abs(P.sum(axis=0) - 1.0))),
                float(np.max(np.abs(P.sum(axis=1) - 1.0))))
        x0 = rng.uniform(-2.0, 2.0, n)
        traj = simulate_ode(
            constant_schedule(from_offdiagonal(off), 0.0, 3.0), x0, 0.0, 3.0)
        worst_drift = max(worst_drift,
                          abs(float(traj.states[-1].sum() - x0.sum())))
    ok = (mismatches == 0 and worst_stochastic <= 1e-9
          and worst_drift <= 1e-8 and balanced_seen > 50)
    _line(capsys, ok, "C5 balance equivalences",
          f"{mismatches} balance/NSD mismatches in {cases}; doubly "
          f"stochastic deviation {worst_stochastic:.3g} (<= 1e-9) at "
          f"t in {{0.1, 1, 10}}; sum drift {worst_drift:.3g} (<= 1e-8) "
          f"over {balanced_seen} balanced draws")
    assert mismatches == 0
    assert worst_stochastic <= 1e-9
    assert worst_drift <= 1e-8


# --------------------------------------------------------------------------
# Criterion 6: closed forms and the decay-rate estimator
# --------------------------------------------------------------------------

def test_c6_closed_form_accuracy(capsys):
    sym = pair_coupling(1.0)
    traj = simulate_ode(constant_schedule(sym, 0.0, 1.0), [1.0, -1.0],
                        0.0, 1.0, step=1e-3)
    sym_err = max(abs(traj.states[-1][0] - math.exp(-2.0)),
                  abs(traj.states[-1][1] + math.exp(-2.0)))

    follower = np.array([[-1.0, 1.0], [0.0, 0.0]])
    traj2 = simulate_ode(constant_schedule(follower, 0.0, 1.0), [0.0, 5.0],
                         0.0, 1.0, step=1e-3)
    follower_err = abs(traj2.states[-1][0] - 5.0 * (1.0 - math.exp(-1.0)))

    traj3 = simulate_ode(constant_schedule(sym, 0.0, 6.0), [1.0, -1.0],
                         0.0, 6.0)
    rate_err = abs(estimate_decay_rate(*spread_series(traj3)) - 2.0)

    ok = sym_err <= 1e-8 and follower_err <= 1e-8 and rate_err <= 1e-3
    _line(capsys, ok, "C6 closed-form accuracy",
          f"symmetric pair err {sym_err:.3g}, leader-follower err "
          f"{follower_err:.3g} (both <= 1e-8 at t=1, step 1e-3); decay "
          f"rate err {rate_err:.3g} (<= 1e-3)")
    assert sym_err <= 1e-8
    assert follower_err <= 1e-8
    assert rate_err <= 1e-3


# --------------------------------------------------------------------------
# Criterion 7: delayed coupling stays certified across tau scales
# --------------------------------------------------------------------------

def test_c7_delay_robustness(capsys):
    failures = []
    worst_increase = -math.inf
    worst_final = 0.0
    worst_halfstep = 0.0
    configs = []
    for tau, w, step in ((0.1, 1.0, 0.01), (1.0, 1.0, 0.01),
                         (10.0, 0.3, 0.025)):
        horizon = 100.0 * max(tau, 1.0)
        configs.extend([
            (f"pair-const tau={tau}", tau, step,
             build_schedule([(0.0, horizon, pair_coupling(w))]),
             [1.0, -1.0]),
            (f"pair-switch tau={tau}", tau, step,
             alternating_schedule(pair_coupling(w), pair_coupling(1.5 * w),
                                  horizon),
             [1.0, -1.0]),
            (f"ring-const tau={tau}", tau, step,
             build_schedule([(0.0, horizon, ring_coupling(3, w))]),
             [1.0, 0.0, -1.0]),
            (f"ring-switch tau={tau}", tau, step,
             alternating_schedule(ring_coupling(3, w),
                                  ring_coupling(3, w, flip=True), horizon),
             [1.0, 0.0, -1.0]),
        ])
    for name, tau, step, schedule, x0 in configs:
        horizon = schedule.t_end
        v0 = max(x0) - min(x0)
        traj = simulate_dde(schedule, tau, x0, 0.0, horizon, step=step)
        mono = monotonicity_from_series(
            "delayed_spread", delayed_functional_series(traj, tau)[1],
            slack=1e-9)
        final_ratio = spread_series(traj)[1][-1] / v0
        half = simulate_dde(schedule, tau, x0, 0.0, horizon, step=step / 2.0)
        half_err = float(np.max(np.abs(traj.states[-1] - half.states[-1])))
        worst_increase = max(worst_increase, mono.worst_violation)
        worst_final = max(worst_final, final_ratio)
        worst_halfstep = max(worst_halfstep, half_err)
        if not (mono.passed and final_ratio <= 1e-4 and half_err <= 1e-6):
            failures.append(name)
    ok = not failures
    _line(capsys, ok, "C7 delay robustness",
          f"{len(configs) - len(failures)}/{len(configs)} cases over tau in "
          f"{{0.1, 1, 10}}: worst V_window increase {worst_increase:.3g} "
          f"(slack 1e-9), worst final/V0 {worst_final:.3g} (<= 1e-4), "
          f"worst half-step disagreement {worst_halfstep:.3g} (<= 1e-6)"
          + (f"; failed: {failures}" if failures else ""))
    assert not failures


# --------------------------------------------------------------------------
# Criterion 8: where the delay sits decides stability at tau = 1
# --------------------------------------------------------------------------

def test_c8_delay_placement_contrast(capsys):
    schedule = build_schedule([(0.0, 40.0, pair_coupling(1.0))])
    x0 = [1.0, -1.0]
    v0 = 2.0

    full = simulate_dde(schedule, 1.0, x0, 0.0, 40.0, step=0.005,
                        delay_diagonal=True)
    _, grown = spread_series(full)
    peak_ratio = float(grown.max()) / v0
    final_full = float(grown[-1]) / v0

    part = simulate_dde(schedule, 1.0, x0, 0.0, 40.0, step=0.005)
    final_part = spread_series(part)[1][-1] / v0

    ok = peak_ratio >= 50.0 and final_full >= 10.0 and final_part <= 1e-4
    _line(capsys, ok, "C8 delay-placement contrast",
          f"fully delayed spread peaked at {peak_ratio:.1f}x V0 and ended "
          f"at {final_full:.1f}x (tau=1 > pi/4, growing); coupling-delayed "
          f"ended at {final_part:.3g}x (<= 1e-4)")
    assert peak_ratio >= 50.0
    assert final_full >= 10.0
    assert final_part <= 1e-4


# --------------------------------------------------------------------------
# Criterion 9: integrator holds fourth order across segment breaks
# --------------------------------------------------------------------------

def test_c9_integrator_order(capsys):
    A = ring_coupling(3, 2.0)
    B = ring_coupling(3, 1.3, flip=True)
    schedule = build_schedule([(0.0, 1.0, A), (1.0, 1.6, B)])
    x0 = np.array([1.0, 0.2, -1.0])
    exact = scipy_expm(B * 0.6) @ scipy_expm(A * 1.0) @ x0

    errors = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        traj = simulate_ode(schedule, x0, 0.0, 1.6, step=h)
        errors.append(float(np.max(np.abs(traj.states[-1] - exact))))
    orders = [math.log2(errors[i] / errors[i + 1])
              for i in range(len(errors) - 1)]

    ok = min(orders) >= 3.5
    _line(capsys, ok, "C9 integrator order",
          f"observed orders under step halving: "
          f"{', '.join(f'{o:.2f}' for o in orders)} (each >= 3.5), "
          f"errors {errors[0]:.2g} down to {errors[-1]:.2g}")
    assert min(orders) >= 3.5
