"""Scenario parsing, topology generation, and CLI exit codes.

Exit codes under test: 0 all analyses pass, 2 a verdict failed,
3 a hypothesis could not be verified, 4 config problems, 5 numerical
failures. Frozen topology value: the alternating leader-follower pair
at unit weight integrates to 1.0 on both off-diagonal entries over one
full cycle of length 2.
"""

import ast
import functools
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from consensus_lab import (
    InvalidSpec,
    ParseError,
    StepTooLargeWarning,
    Trajectory,
    ValidationError,
    from_offdiagonal,
    generate_topology,
    integrate_schedule,
    parse_config,
    resolve_initial_state,
    run_scenario,
)
from consensus_lab import csvfmt, errors, lyapunov, scenario_cli
from consensus_lab.scenario_cli import _periods, _write_trajectory_csv, main

from conftest import (brute_switching_weights, brute_trajectory_csv,
                      coupling_at, run_cli)


RING_DEMO = """\
name: ring-demo
nodes: 3
horizon: 6.0
seed: 7
topology:
  kind: ring
  weight: 1.0
initial_state: [1.0, 0.0, -1.0]
analyses:
  - kind: connectivity
    delta: 0.05
    window: 1.0
  - kind: audit
    functionals: [spread, max_component]
  - kind: certificate
    delta: 0.05
    window: 1.0
    root: 1
  - kind: spectral
    delta: 0.05
"""

ISOLATED_NODE = """\
nodes: 3
horizon: 2.0
topology:
  kind: constant
  matrix:
    - [-1.0, 1.0, 0.0]
    - [1.0, -1.0, 0.0]
    - [0.0, 0.0, 0.0]
initial_state: [1.0, 0.0, -1.0]
analyses:
  - kind: connectivity
    delta: 0.1
    window: 1.0
"""

WRONG_ROOT = """\
nodes: 2
horizon: 2.0
topology:
  kind: constant
  matrix:
    - [-1.0, 1.0]
    - [0.0, 0.0]
initial_state: [1.0, 0.0]
analyses:
  - kind: certificate
    delta: 0.1
    window: 1.0
    root: 1
"""

SHORT_DELAY_WINDOW = """\
nodes: 2
horizon: 0.5
delay:
  tau: 5.0
topology:
  kind: line
initial_state: [1.0, -1.0]
analyses:
  - kind: audit
    functionals: [delayed_spread]
"""

AMBIGUOUS_SPECTRUM = """\
nodes: 6
horizon: 1.0
topology:
  kind: ring
initial_state: [1.0, 0.0, -1.0, 0.5, -0.5, 0.25]
analyses:
  - kind: spectral
    gap_tol: 0.6
"""

# Every scenario file of the README, then the valid ones above.
_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
EXAMPLES = {
    **{f"readme-{i}": text for i, text in
       enumerate(re.findall(r"```yaml\n(.*?)```", _README, re.S))},
    "ring-demo": RING_DEMO, "isolated-node": ISOLATED_NODE,
    "wrong-root": WRONG_ROOT, "ambiguous-spectrum": AMBIGUOUS_SPECTRUM,
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def scenario(**changes):
    """YAML text of a two-node line scenario with top-level keys replaced."""
    raw = {"nodes": 2, "horizon": 1.0, "topology": {"kind": "line"},
           "initial_state": [1.0, -1.0]}
    raw.update(changes)
    return yaml.safe_dump(raw)


INF, NAN = math.inf, math.nan
SWITCHING = {"kind": "random_switching", "period": 0.5,
             "link_probability": 0.5, "weight_range": [0.5, 1.5], "seed": 1}

# (top-level keys, field path named by the error)
NON_FINITE = [
    ({"horizon": INF}, "horizon"),
    ({"horizon": 10 ** 400}, "horizon"),
    ({"t0": NAN}, "t0"),
    ({"step": INF}, "step"),
    ({"delay": {"tau": INF}}, "delay.tau"),
    ({"initial_state": [1.0, NAN]}, "initial_state[1]"),
    ({"initial_state": {"distribution": "uniform", "low": -INF, "high": 1.0,
                        "seed": 1}}, "initial_state.low"),
    ({"topology": {"kind": "ring", "weight": NAN}}, "topology(ring).weight"),
    ({"topology": {**SWITCHING, "weight_range": [0.5, INF]}},
     "topology(random_switching).weight_range[1]"),
    ({"topology": {**SWITCHING, "period": INF}},
     "topology(random_switching).period"),
    ({"topology": {"kind": "constant", "matrix": [[-1.0, 1.0], [NAN, 0.0]]}},
     "topology(constant)"),
    ({"topology": {"kind": "constant", "weights": [[0.0, INF], [1.0, 0.0]]}},
     "topology(constant)"),
    ({"topology": {"kind": "constant", "weights": [[0, 10 ** 400], [1, 0]]}},
     "topology(constant)"),
    ({"analyses": [{"kind": "connectivity", "delta": NAN, "window": 0.5}]},
     "analyses[0](connectivity).delta"),
    ({"analyses": [{"kind": "audit", "functionals": ["spread"],
                    "weights": [1.0, NAN]}]}, "analyses[0](audit).weights[1]"),
    ({"analyses": [{"kind": "lemma", "group": [1], "window": 0.5,
                    "slack": INF}]}, "analyses[0](lemma).slack"),
]


class TestParsing:
    def test_minimal_roundtrip(self):
        cfg = parse_config(RING_DEMO)
        assert cfg.name == "ring-demo"
        assert cfg.n == 3 and cfg.horizon == 6.0 and cfg.t0 == 0.0
        assert cfg.seed == 7 and cfg.delay is None
        assert len(cfg.analyses) == 4
        assert cfg.initial_state == (1.0, 0.0, -1.0)

    def test_missing_required_key(self):
        with pytest.raises(ValidationError, match="horizon"):
            parse_config("nodes: 2\ntopology: {kind: ring}\n"
                         "initial_state: [0, 1]\n")

    def test_unknown_top_level_key(self):
        text = RING_DEMO + "extra_knob: 3\n"
        with pytest.raises(ValidationError, match="extra_knob"):
            parse_config(text)

    def test_unknown_keys_of_mixed_types(self):
        with pytest.raises(ValidationError, match=r"unknown keys \[1, 'extra'\]"):
            parse_config(RING_DEMO + "1: 2\nextra: 3\n")

    def test_yaml_syntax_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("nodes: 2\ntopology: [unclosed\n")
        assert err.value.line is not None

    @pytest.mark.parametrize("text", EXAMPLES.values(), ids=EXAMPLES)
    def test_python_loader_gives_the_same_config(self, monkeypatch, text):
        # libyaml's loader where PyYAML has it; without it the pure-Python
        # SafeLoader, which shares its constructor and resolver.
        fast = parse_config(text)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert parse_config(text) == fast

    @pytest.mark.parametrize("text", [
        "nodes: 2\ntopology: [unclosed\n",
        "nodes: [\n",
        "nodes: 2\n  horizon: 1.0\n",
        "nodes: 2\ntopology: {kind: ring\nhorizon: 1.0\n",
        "nodes: 2\nname: 'open\n",
        "nodes: 2\n\thorizon: 1.0\n",
    ])
    def test_python_loader_reports_the_same_line(self, monkeypatch, text):
        with pytest.raises(ParseError) as fast:
            parse_config(text)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        with pytest.raises(ParseError) as slow:
            parse_config(text)
        assert fast.value.line is not None
        assert slow.value.line == fast.value.line

    def test_initial_state_length_checked(self):
        bad = RING_DEMO.replace("[1.0, 0.0, -1.0]", "[1.0, 0.0]")
        with pytest.raises(ValidationError, match="initial_state"):
            parse_config(bad)

    def test_sampled_initial_state_needs_seed(self):
        text = """\
nodes: 2
horizon: 1.0
topology: {kind: ring}
initial_state: {distribution: uniform, low: -1.0, high: 1.0}
"""
        with pytest.raises(ValidationError, match="seed"):
            parse_config(text)
        assert parse_config(text + "seed: 3\n").seed == 3

    def test_random_switching_needs_seed(self):
        text = """\
nodes: 3
horizon: 2.0
topology:
  kind: random_switching
  period: 0.5
  link_probability: 0.8
  weight_range: [0.5, 1.5]
initial_state: [1.0, 0.0, -1.0]
"""
        with pytest.raises(ValidationError, match="seed"):
            parse_config(text)
        assert parse_config(text + "seed: 11\n").topology["kind"] == \
            "random_switching"

    def test_sinusoidal_depth_bounded(self):
        text = """\
nodes: 2
horizon: 1.0
topology:
  kind: sinusoidal
  depth: 1.5
  period: 1.0
  weights: [[0.0, 1.0], [1.0, 0.0]]
initial_state: [1.0, -1.0]
"""
        with pytest.raises(ValidationError, match="depth"):
            parse_config(text)

    def test_potential_audit_needs_constant_coupling(self):
        text = """\
nodes: 2
horizon: 1.0
topology:
  kind: sinusoidal
  depth: 0.5
  period: 1.0
  weights: [[0.0, 1.0], [1.0, 0.0]]
initial_state: [1.0, -1.0]
analyses:
  - kind: audit
    functionals: [potential]
"""
        with pytest.raises(ValidationError, match="potential"):
            parse_config(text)

    def test_delayed_spread_needs_delay_section(self):
        text = """\
nodes: 2
horizon: 1.0
topology: {kind: line}
initial_state: [1.0, -1.0]
analyses:
  - kind: audit
    functionals: [delayed_spread]
"""
        with pytest.raises(ValidationError, match="delay"):
            parse_config(text)

    def test_weighted_functional_name_checked_at_parse_time(self):
        base = """\
nodes: 2
horizon: 1.0
topology: {kind: line}
initial_state: [1.0, -1.0]
analyses:
  - kind: audit
    functionals: ['weighted:%s']
"""
        with pytest.raises(ValidationError, match="weighted"):
            parse_config(base % "entropy")
        cfg = parse_config(base % "square")
        assert cfg.analyses[0]["functionals"] == ["weighted:square"]

    def test_unknown_topology_and_analysis_kinds(self):
        with pytest.raises(ValidationError, match="topology.kind"):
            parse_config("nodes: 2\nhorizon: 1.0\n"
                         "topology: {kind: torus}\ninitial_state: [0, 1]\n")
        with pytest.raises(ValidationError, match="kind"):
            parse_config("nodes: 2\nhorizon: 1.0\n"
                         "topology: {kind: ring}\ninitial_state: [0, 1]\n"
                         "analyses:\n  - kind: vibes\n")

    def test_certificate_root_in_range(self):
        bad = RING_DEMO.replace("root: 1", "root: 5")
        with pytest.raises(ValidationError, match="root"):
            parse_config(bad)

    def test_scalar_sanity(self):
        with pytest.raises(ValidationError, match="nodes"):
            parse_config("nodes: 0\nhorizon: 1.0\n"
                         "topology: {kind: constant, weights: [[0]]}\n"
                         "initial_state: [0]\n")
        with pytest.raises(ValidationError, match="horizon"):
            parse_config(RING_DEMO.replace("horizon: 6.0", "horizon: -1.0"))

    def test_constant_needs_exactly_one_matrix_form(self):
        text = """\
nodes: 2
horizon: 1.0
topology:
  kind: constant
  matrix: [[-1.0, 1.0], [1.0, -1.0]]
  weights: [[0.0, 1.0], [1.0, 0.0]]
initial_state: [1.0, -1.0]
"""
        with pytest.raises(ValidationError):
            parse_config(text)
        with pytest.raises(ValidationError):
            parse_config(text.replace("  matrix: [[-1.0, 1.0], [1.0, -1.0]]\n",
                                      "").replace(
                "  weights: [[0.0, 1.0], [1.0, 0.0]]\n", ""))

    @pytest.mark.parametrize("changes,field", NON_FINITE,
                             ids=[field for _, field in NON_FINITE])
    def test_non_finite_numbers_rejected(self, changes, field):
        with pytest.raises(ValidationError) as err:
            parse_config(scenario(**changes))
        assert str(err.value).startswith(field + ":")
        assert "finite" in str(err.value)

    @pytest.mark.parametrize("entry,message", [
        ({"delta": 0.1}, "analyses[0].kind: None is not one of"),
        (3, "analyses[0]: expected a mapping"),
        ("connectivity", "analyses[0]: expected a mapping"),
    ], ids=["no-kind", "number", "string"])
    def test_malformed_analysis_entries(self, entry, message):
        with pytest.raises(ValidationError) as err:
            parse_config(scenario(analyses=[entry]))
        assert str(err.value).startswith(message)

    def test_audit_weights_checked(self):
        audit = {"kind": "audit", "functionals": ["weighted:square"]}
        for weights, field in (([1.0], "weights"), (["a", "b"], "weights[0]"),
                               ([1.0, -1.0], "weights[1]")):
            with pytest.raises(ValidationError) as err:
                parse_config(scenario(analyses=[{**audit, "weights": weights}]))
            assert str(err.value).startswith(f"analyses[0](audit).{field}:")
        cfg = parse_config(scenario(analyses=[{**audit, "weights": [0.0, 2]}]))
        assert cfg.analyses[0]["weights"] == [0.0, 2]

    def test_weights_matrix_needs_zero_diagonal(self):
        text = scenario(topology={"kind": "constant",
                                  "weights": [[1.0, 1.0], [1.0, 0.0]]})
        with pytest.raises(ValidationError, match=r"weights: .*diagonal"):
            parse_config(text)

    @pytest.mark.parametrize("analysis", [
        {"kind": "certificate", "delta": 0.1, "window": 0.6, "root": 1},
        {"kind": "lemma", "group": [1], "window": 1.5},
        {"kind": "lemma", "group": [1], "window": 0.5, "t_start": 0.75},
        {"kind": "lemma", "group": [1], "window": 0.5, "t_start": -0.25},
        {"kind": "connectivity", "delta": 0.1, "window": 1.5},
    ], ids=["certificate", "lemma-long", "lemma-late", "lemma-early",
            "connectivity"])
    def test_windows_must_fit_the_horizon(self, analysis):
        # Three nodes chain two certificate windows: 2 * 0.6 > 1.
        text = scenario(nodes=3, initial_state=[1.0, 0.0, -1.0],
                        analyses=[analysis])
        with pytest.raises(ValidationError, match=r"\.window: .*horizon"):
            parse_config(text)

    @pytest.mark.parametrize("group", [[1, 2], [2, 1, 2]])
    def test_lemma_group_must_leave_a_node_out(self, group):
        # Nothing outside the group: the lemma has no complement to trap.
        text = scenario(analyses=[{"kind": "lemma", "group": group,
                                   "window": 0.5}])
        with pytest.raises(ValidationError,
                           match=r"\(lemma\)\.group: .*outside the group"):
            parse_config(text)

    def test_windows_that_just_fit_are_accepted(self):
        cfg = parse_config(scenario(nodes=3, initial_state=[1.0, 0.0, -1.0], analyses=[
            {"kind": "certificate", "delta": 0.1, "window": 0.5, "root": 1},
            {"kind": "lemma", "group": [1], "window": 0.5, "t_start": 0.5},
            {"kind": "connectivity", "delta": 0.1, "window": 1.0}]))
        assert len(cfg.analyses) == 3
        delayed = parse_config(scenario(delay={"tau": 1.0}, analyses=[
            {"kind": "audit", "functionals": ["delayed_spread"]}]))
        assert delayed.delay.tau == 1.0


class TestTopologyGeneration:
    def test_ring_entries(self):
        cfg = parse_config(RING_DEMO)
        sch = generate_topology(cfg.topology, cfg.n, 0.0, 6.0, None)
        A = coupling_at(sch, 0.0)
        for k in range(3):
            assert A[k, (k + 1) % 3] == 1.0
            assert A[(k + 1) % 3, k] == 0.0
            assert A[k, k] == -1.0
        assert sch.t_start == 0.0 and sch.t_end == 6.0

    def test_star_hub_selection(self):
        spec = {"kind": "star", "hub": 2, "weight": 0.5}
        sch = generate_topology(spec, 4, 0.0, 1.0, None)
        A = coupling_at(sch, 0.0)
        hub = 1
        for k in range(4):
            if k != hub:
                assert A[k, hub] == 0.5
                assert A[hub, k] == 0.0

    def test_line_direction_flag(self):
        both = coupling_at(
            generate_topology({"kind": "line"}, 3, 0.0, 1.0, None), 0.0)
        assert both[1, 0] == 1.0 and both[0, 1] == 1.0
        directed = coupling_at(
            generate_topology({"kind": "line", "bidirectional": False},
                              3, 0.0, 1.0, None), 0.0)
        assert directed[1, 0] == 1.0 and directed[0, 1] == 0.0

    def test_alternating_cycle_integral_frozen(self):
        spec = {"kind": "alternating_leader_follower", "period": 2.0}
        sch = generate_topology(spec, 2, 0.0, 4.0, None)
        w = integrate_schedule(sch, 0.0, 2.0)
        assert w[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert w[1, 0] == pytest.approx(1.0, abs=1e-12)
        first = coupling_at(sch, 0.0)
        assert first[1, 0] == 1.0 and first[0, 1] == 0.0

    def test_alternating_broadcasts_to_all_followers(self):
        spec = {"kind": "alternating_leader_follower", "period": 1.0,
                "weight": 2.0}
        sch = generate_topology(spec, 4, 0.0, 2.0, None)
        A = coupling_at(sch, 0.0)
        assert all(A[k, 0] == 2.0 for k in range(1, 4))
        B = coupling_at(sch, 0.5)
        assert B[0, 1] == 2.0 and B[2, 1] == 2.0 and B[3, 1] == 2.0

    def test_random_switching_reproducible(self):
        spec = {"kind": "random_switching", "period": 0.5,
                "link_probability": 0.7, "weight_range": [0.5, 1.5],
                "seed": 42}
        a = generate_topology(spec, 4, 0.0, 3.0, None)
        b = generate_topology(spec, 4, 0.0, 3.0, None)
        assert a.couplings.shape == b.couplings.shape == (6, 4, 4)
        np.testing.assert_array_equal(a.couplings, b.couplings)
        other = generate_topology({**spec, "seed": 43}, 4, 0.0, 3.0, None)
        diffs = sum(not np.array_equal(ca, co)
                    for ca, co in zip(a.couplings, other.couplings))
        assert diffs > 0

    def test_random_switching_weights_in_range(self):
        spec = {"kind": "random_switching", "period": 1.0,
                "link_probability": 0.6, "weight_range": [0.5, 1.5],
                "seed": 5}
        sch = generate_topology(spec, 5, 0.0, 10.0, None)
        for coupling in sch.couplings:
            off = coupling.copy()
            np.fill_diagonal(off, 0.0)
            nz = off[off != 0.0]
            assert np.all((nz >= 0.5) & (nz <= 1.5))

    @pytest.mark.parametrize("n", range(1, 31))
    def test_random_switching_draws_one_period_at_a_time(self, n):
        # Every n, links never, half the time and always, and one weight
        # for every link; at n = 7 and 30 more periods than one block of
        # draws holds (83 and 4 at 2**13 doubles a block).
        cases = [(0.0, [0.5, 1.5], 4), (0.5, [0.5, 1.5], 4),
                 (1.0, [0.5, 1.5], 4), (0.5, [0.75, 0.75], 4)]
        cases += {7: [(0.9, [0.5, 1.5], 700)],
                  30: [(0.9, [0.5, 1.5], 40)]}.get(n, [])
        for probability, weights, periods in cases:
            spec = {"kind": "random_switching", "period": 0.5,
                    "link_probability": probability,
                    "weight_range": weights, "seed": 100 + n}
            sch = generate_topology(spec, n, 0.0, 0.5 * periods)
            want = from_offdiagonal(brute_switching_weights(
                n, periods, probability, weights, 100 + n))
            assert sch.couplings.tobytes() == want.tobytes()

    def test_scenario_seed_feeds_topology(self):
        spec = {"kind": "random_switching", "period": 1.0,
                "link_probability": 0.5, "weight_range": [0.5, 1.0]}
        a = generate_topology(spec, 3, 0.0, 2.0, seed=9)
        b = generate_topology(spec, 3, 0.0, 2.0, seed=9)
        np.testing.assert_array_equal(a.couplings, b.couplings)

    def test_piecewise_segments_and_coverage(self):
        spec = {"kind": "piecewise", "pieces": [
            {"until": 1.0, "weights": [[0.0, 1.0], [0.0, 0.0]]},
            {"until": 2.0, "weights": [[0.0, 0.0], [1.0, 0.0]]},
        ]}
        sch = generate_topology(spec, 2, 1.0, 2.0, None)
        assert coupling_at(sch, 1.5)[0, 1] == 1.0
        assert coupling_at(sch, 2.5)[1, 0] == 1.0
        with pytest.raises(InvalidSpec):
            generate_topology(spec, 2, 0.0, 5.0, None)

    def test_sinusoidal_modulation(self):
        spec = {"kind": "sinusoidal", "depth": 0.5, "period": 1.0,
                "weights": [[0.0, 2.0], [2.0, 0.0]]}
        sch = generate_topology(spec, 2, 0.0, 4.0, None)
        at_zero = coupling_at(sch, 0.0)
        assert at_zero[0, 1] == pytest.approx(2.0, abs=1e-12)
        at_crest = coupling_at(sch, 0.25)
        assert at_crest[0, 1] == pytest.approx(3.0, abs=1e-12)
        assert at_crest[0, 0] == pytest.approx(-3.0, abs=1e-12)

    def test_random_switching_without_seed_rejected(self):
        spec = {k: v for k, v in SWITCHING.items() if k != "seed"}
        with pytest.raises(ValidationError, match=r"\.seed: "):
            generate_topology(spec, 3, 0.0, 2.0, None)

    def test_negative_seed_argument_rejected(self):
        spec = {k: v for k, v in SWITCHING.items() if k != "seed"}
        with pytest.raises(ValidationError, match="must be >= 0"):
            generate_topology(spec, 3, 0.0, 2.0, seed=-1)

    @pytest.mark.parametrize("spec", [
        [1, 2],
        {"kind": "torus"},
        {"kind": "ring", "radius": 2},
        {"kind": "ring", "weight": -1.0},
        {"kind": "star", "hub": 4},
        {"kind": "constant"},
        {"kind": "constant", "weights": [[0.0, 1.0], [1.0, 0.0]]},
        {"kind": "constant", "weights": [[0.0, 1.0, 0.0], [1.0, 0.5, 0.0],
                                         [0.0, 1.0, 0.0]]},
        {"kind": "piecewise", "pieces": []},
        {"kind": "piecewise", "pieces": [
            {"until": 2.0, "weights": [[0, 1, 0], [1, 0, 0], [0, 1, 0]]},
            {"until": 1.0, "weights": [[0, 1, 0], [1, 0, 0], [0, 1, 0]]}]},
        {"kind": "alternating_leader_follower", "period": 0.0},
        {**SWITCHING, "link_probability": 1.5},
        {**SWITCHING, "weight_range": [1.5, 0.5]},
        {**SWITCHING, "seed": 1.5},
        {**SWITCHING, "seed": -1},
        {"kind": "sinusoidal", "depth": 1.5, "period": 1.0,
         "weights": [[0, 1, 0], [1, 0, 0], [0, 1, 0]]},
    ])
    def test_generate_topology_rejects_what_parse_config_rejects(self, spec):
        with pytest.raises(ValidationError) as parsed:
            parse_config(scenario(nodes=3, topology=spec, seed=4,
                                  initial_state=[1.0, 0.0, -1.0]))
        with pytest.raises(ValidationError) as generated:
            generate_topology(spec, 3, 0.0, 2.0, seed=4)
        assert str(generated.value) == str(parsed.value)

    @pytest.mark.parametrize("length", [0.5, 0.25, 10.0])
    def test_period_below_the_float_spacing_rejected(self, length):
        # At t = 1e17 floats are 16 apart, so t + length rounds back to t,
        # or, for 10, t + 10 and t + 20 both round to t + 16;
        # alternating_leader_follower steps by half its period.
        with pytest.raises(InvalidSpec, match="does not advance"):
            list(itertools.islice(_periods(1e17, 1e17 + 100.0, length, 0), 3))

    def test_periods_keep_their_length_far_from_zero(self):
        # End k is t0 + k length rounded once: at 1e15 floats are 0.125
        # apart, so pieces of 0.3 take 0.25 or 0.375 and do not drift to
        # 12 pieces of 0.25.
        t0, t1 = 1e15, 1e15 + 3.0
        spans = list(_periods(t0, t1, 0.3, 0))
        assert len(spans) == 10 and spans[-1][1] == t1
        for k, (start, end) in enumerate(spans, 1):
            assert end == t0 + k * 0.3
            assert abs((end - start) - 0.3) <= 0.125

    def test_generate_topology_checks_the_horizon(self):
        for horizon in (0.0, INF, NAN):
            with pytest.raises(ValidationError, match="horizon"):
                generate_topology(SWITCHING, 3, 0.0, horizon)

    def test_resolve_initial_state(self):
        cfg = parse_config(RING_DEMO)
        np.testing.assert_array_equal(resolve_initial_state(cfg),
                                      [1.0, 0.0, -1.0])
        sampled = parse_config("""\
nodes: 4
horizon: 1.0
seed: 12
topology: {kind: ring}
initial_state: {distribution: uniform, low: -2.0, high: 2.0}
""")
        x1 = resolve_initial_state(sampled)
        x2 = resolve_initial_state(sampled)
        np.testing.assert_array_equal(x1, x2)
        assert np.all((x1 >= -2.0) & (x1 <= 2.0))


class TestCommandLine:
    def test_run_passes_and_writes_outputs(self, tmp_path, capsys):
        cfg = write(tmp_path, "demo.yaml", RING_DEMO)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "verdict: PASS (exit 0)" in stdout
        assert "[PASS] connectivity" in stdout
        report = (out / "report.txt").read_text()
        assert "verdict: PASS" in report
        csv_lines = (out / "trajectory.csv").read_text().splitlines()
        assert csv_lines[0] == "time,x_1,x_2,x_3,V_spread"
        first = csv_lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[4]) == pytest.approx(2.0)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "demo.yaml", RING_DEMO)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["run", cfg, "--output-dir", str(a)]) == 0
        assert main(["run", cfg, "--output-dir", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() == \
            (b / "trajectory.csv").read_bytes()

    def test_verdict_failure_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "isolated.yaml", ISOLATED_NODE)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        assert "[FAIL] connectivity" in capsys.readouterr().out

    def test_unverified_hypothesis_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "wrongroot.yaml", WRONG_ROOT)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3
        assert "[HYPOTHESIS] certificate" in capsys.readouterr().out

    def test_undelayed_lemma_runs_end_to_end(self, tmp_path, capsys):
        cfg = write(tmp_path, "lemma.yaml", scenario(
            nodes=3, horizon=2.0, topology={"kind": "ring"},
            initial_state=[1.0, 0.0, -1.0],
            analyses=[{"kind": "lemma", "group": [1], "window": 1.0}]))
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert re.search(r"^\[PASS\] lemma: beta=0\.036\d* trapped=\{3,2\} "
                         r"group_within=True range_contained=True$",
                         report, re.M), report
        assert "verdict: PASS (exit 0)" in capsys.readouterr().out

    def test_violated_audit_exits_2(self, tmp_path, capsys):
        # h M = 1.2: inside the stability disc, but the transfer of this
        # 4-node coupling has negative entries, and the largest component
        # grows on the first step.
        cfg = write(tmp_path, "violated.yaml", scenario(
            nodes=4, horizon=2.0, step=0.4, initial_state=[2.0, 2.0, -2.0, 2.0],
            topology={"kind": "constant", "weights": [
                [0, 0, 3, 0], [2, 0, 0, 0], [0, 3, 0, 0], [0, 3, 0, 0]]},
            analyses=[{"kind": "audit",
                       "functionals": ["spread", "max_component"]}]))
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        report = (out / "report.txt").read_text()
        assert re.search(r"^\[FAIL\] audit: violated by max_component; "
                         r"spread: worst=0; max_component: worst=0\.07\d*$",
                         report, re.M), report
        assert "verdict: FAIL (exit 2)" in capsys.readouterr().out

    def test_certificate_without_a_trap_reports_fail(self, tmp_path, capsys):
        # Node 3 hears nobody: unchecked, stage 2 has nothing pulled toward
        # the group {1, 2}.
        cfg = write(tmp_path, "untrapped.yaml", scenario(
            nodes=3, horizon=4.0, initial_state=[1.0, 0.0, -1.0],
            topology={"kind": "constant",
                      "weights": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]},
            analyses=[{"kind": "certificate", "delta": 0.1, "window": 1.0,
                       "root": 1, "verify_hypothesis": False}]))
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        assert ("[FAIL] certificate: stage 2: no trapped component (trap "
                "factor vanished" in (out / "report.txt").read_text())
        assert "verdict: FAIL (exit 2)" in capsys.readouterr().out

    def test_input_error_after_loading_exits_4(self, tmp_path, capsys):
        # The pieces are checked at load time and built by run: one that
        # stops short of the horizon is an input error of the build.
        cfg = write(tmp_path, "short.yaml", scenario(horizon=3.0, topology={
            "kind": "piecewise",
            "pieces": [{"until": 1.0, "weights": [[0, 1], [1, 0]]}]}))
        parse_config(Path(cfg).read_text())
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == 4
        assert ("config error: pieces cover [0.0, 1.0] but the horizon runs "
                "to 3.0\n") in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize("full", [True, False])
    def test_delayed_run_is_not_judged_by_undelayed_theory(self, tmp_path,
                                                           capsys, full):
        # With full delay the pair's spread grows from 2 to about 274 while
        # the connectivity hypothesis still holds.  The certificate covers
        # neither delayed run; the spectral check of A says nothing about
        # delayed self terms but stands for coupling-only delay.
        cfg = write(tmp_path, "delayed.yaml", scenario(
            horizon=40.0, step=0.005,
            topology={"kind": "constant", "weights": [[0.0, 1.0], [1.0, 0.0]]},
            delay={"tau": 1.0, "full": full},
            analyses=[{"kind": "connectivity", "delta": 0.1, "window": 1.0},
                      {"kind": "certificate", "delta": 0.1, "window": 1.0,
                       "root": 1},
                      {"kind": "spectral"}]))
        assert main(["check", cfg]) == 0
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == 3
        report = (out / "report.txt").read_text()
        final = float(report.split("final spread: ")[1].split()[0])
        assert (final > 100.0) if full else (final < 1e-3)
        assert "[PASS] connectivity" in report
        assert ("[HYPOTHESIS] certificate: the contraction certificate "
                + ("does not cover this run" if full else "covers only undelayed")
                ) in report
        assert ("[HYPOTHESIS] spectral: the spectral cross-check does not "
                "cover this run: the theory covers only delay in the "
                "off-diagonal terms") in report if full else \
            "[PASS] spectral" in report
        assert "verdict: FAIL (exit 3)" in capsys.readouterr().out

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("analysis", [
        {"kind": "lemma", "group": [1], "window": 2.0},
        {"kind": "audit",
         "functionals": ["sum_of_squares", "potential", "spread"]},
    ], ids=["lemma", "audit"])
    def test_undelayed_analyses_of_a_delayed_run_exit_3(self, tmp_path,
                                                        capsys, analysis,
                                                        full):
        # Judged by the undelayed theory, the lemma reported [PASS] here
        # ([FAIL] with full delay), and the audits [FAIL] (exit 2).
        cfg = write(tmp_path, "delayed.yaml", scenario(
            horizon=10.0, step=0.01, delay={"tau": 1.0, "full": full},
            topology={"kind": "constant", "weights": [[0.0, 1.0], [1.0, 0.0]]},
            analyses=[analysis]))
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == 3
        report = (out / "report.txt").read_text()
        if analysis["kind"] == "audit":
            assert ("[HYPOTHESIS] audit: sum_of_squares, potential, spread "
                    "need an undelayed run; this run has tau = 1.0 (audit "
                    "delayed_spread instead)\n") in report
        else:
            assert ("[HYPOTHESIS] lemma: the lemma " + (
                "does not cover this run" if full else
                "covers only undelayed runs")) in report
        assert "verdict: FAIL (exit 3)" in capsys.readouterr().out

    @pytest.mark.parametrize("delay", [None, {"tau": 0.5}])
    def test_overflowing_run_exits_5(self, tmp_path, capsys, delay):
        # h M = 200: the state leaves the float range, and no analysis
        # judges what is left.
        raw = dict(horizon=6.0, step=0.1,
                   topology={"kind": "constant",
                             "weights": [[0.0, 2000.0], [2000.0, 0.0]]},
                   analyses=[{"kind": "audit", "functionals": ["spread"]}])
        if delay:
            raw.update(delay=delay, analyses=[
                {"kind": "audit", "functionals": ["delayed_spread"]}])
        cfg = write(tmp_path, "overflow.yaml", scenario(**raw))
        out = tmp_path / "o"
        with pytest.warns((StepTooLargeWarning, RuntimeWarning)):
            assert main(["run", cfg, "--output-dir", str(out)]) == 5
        stdout = capsys.readouterr().out
        assert "numerical failure: NonFiniteState: state not finite" in stdout
        assert "[PASS]" not in stdout and "[FAIL]" not in stdout
        assert not (out / "report.txt").exists()

    def test_delayed_spread_passes_with_the_edge_off_the_grid(self, tmp_path):
        # At the default step the window edge t - 0.7 falls between nodes;
        # read by cubic Hermite it overshot both of its nodes and the audit
        # failed with worst = 4.2e-8 against a slack of 2.4e-9.
        cfg = write(tmp_path, "offgrid.yaml", scenario(
            nodes=8, horizon=20.0, seed=3, delay={"tau": 0.7},
            topology={"kind": "random_switching", "period": 0.5,
                      "link_probability": 0.9, "weight_range": [0.5, 1.5],
                      "seed": 5},
            initial_state={"distribution": "uniform", "low": -1.0,
                           "high": 1.0},
            analyses=[{"kind": "audit", "functionals": ["delayed_spread"]}]))
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        assert ("[PASS] audit: delayed_spread: worst=0\n"
                in (out / "report.txt").read_text())
        # The premise: at most one edge in ten lands on a node (23 of
        # 3,420 at h = 1/(20 M)), so the linear edge read is what ran.
        times = np.loadtxt(out / "trajectory.csv", delimiter=",",
                           skiprows=1, usecols=0)
        edges = times[times >= times[0] + 0.7] - 0.7
        assert 10 * np.isin(edges, times).sum() <= len(edges)

    def test_unbalanced_audit_exits_3(self, tmp_path, capsys):
        # Node 1 listens to node 2 at weight 3: column 1 of A sums to -3 and
        # column 2 to 3, so neither audit's balance hypothesis holds.  At
        # step 0.01 both sums grew (worst 0.030 and 0.015): [FAIL], exit 2.
        cfg = write(tmp_path, "unbalanced.yaml", scenario(
            nodes=3, horizon=2.0, step=0.01, initial_state=[0.0, 1.0, 0.0],
            topology={"kind": "constant",
                      "weights": [[0, 3, 0], [0, 0, 0], [0, 0, 0]]},
            analyses=[{"kind": "audit",
                       "functionals": ["weighted:abs", "sum_of_squares"]}]))
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == 3
        report = (out / "report.txt").read_text()
        assert "[HYPOTHESIS] audit: p'A(t) residual 3.0 at t = 0.0\n" in report
        assert "verdict: FAIL (exit 3)" in capsys.readouterr().out

    def test_asymmetric_potential_exits_3(self, tmp_path, capsys):
        # It passes check and used to stop run with a config error (exit 4)
        # after writing trajectory.csv but no report.txt.
        cfg = write(tmp_path, "asymmetric.yaml", scenario(
            topology={"kind": "constant", "weights": [[0, 1], [2, 0]]},
            analyses=[{"kind": "audit", "functionals": ["spread", "potential"]}]))
        assert main(["check", cfg]) == 0
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == 3
        report = (out / "report.txt").read_text()
        assert ("[HYPOTHESIS] audit: the potential audit needs symmetric "
                "coupling; A - A' reaches 1.0 at t = 0.0\n") in report
        assert "config error" not in capsys.readouterr().out

    @pytest.mark.parametrize("weights, code", [([1, 2], 0), (None, 3)],
                             ids=["p-balanced", "p-ones"])
    def test_audit_weights_reach_the_balance_check(self, tmp_path, weights,
                                                   code):
        # p = (1, 2) is a left null vector of A; p = 1 is not.
        audit = {"kind": "audit", "functionals": ["weighted:square"]}
        cfg = write(tmp_path, "weighted.yaml", scenario(
            horizon=4.0, initial_state=[3.0, 0.0],
            topology={"kind": "constant", "matrix": [[-2, 2], [1, -1]]},
            analyses=[audit if weights is None else {**audit, "weights": weights}]))
        assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == code

    def test_readme_example_passes(self, tmp_path, capsys):
        # A ring is column balanced, so its centered_sum_of_squares audit runs.
        assert "centered_sum_of_squares" in EXAMPLES["readme-0"]
        cfg = write(tmp_path, "readme.yaml", EXAMPLES["readme-0"])
        assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
        assert ("[PASS] audit: spread: worst=0; centered_sum_of_squares: "
                "worst=0\n") in capsys.readouterr().out

    def test_spread_series_computed_once(self, tmp_path, monkeypatch):
        # One spread series per run: the V_spread column and the spread
        # audit read the trajectory's cached series.
        computed, audited = [], {}
        compute = Trajectory.spread.func
        judge = lyapunov.monotonicity_from_series

        def counted(self):
            computed.append(compute(self))
            return computed[-1]

        def spy(functional, values, **options):
            audited[functional] = values
            return judge(functional, values, **options)
        spread = functools.cached_property(counted)
        spread.__set_name__(Trajectory, "spread")
        monkeypatch.setattr(Trajectory, "spread", spread)
        monkeypatch.setattr(lyapunov, "monotonicity_from_series", spy)
        out = tmp_path / "o"
        assert run_scenario(parse_config(RING_DEMO), str(out)) == 0
        assert len(computed) == 1
        assert audited["spread"] is computed[0]
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [float(row.rsplit(",", 1)[1]) for row in rows] == computed[0].tolist()

    def test_config_error_exits_4(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.yaml", RING_DEMO + "extra_knob: 3\n")
        assert main(["run", cfg]) == 4
        assert "config error" in capsys.readouterr().out
        assert main(["run", str(tmp_path / "missing.yaml")]) == 4

    def test_overflowing_horizon_end_exits_4(self, tmp_path, capsys):
        text = scenario(t0=1e308, horizon=1e308, topology={
            "kind": "constant", "matrix": [[-1.0, 1.0], [1.0, -1.0]]})
        with pytest.raises(ValidationError, match="t0 \\+ horizon = inf"):
            parse_config(text)
        cfg = write(tmp_path, "overflow.yaml", text)
        out = tmp_path / "o"
        assert main(["check", cfg]) == 4
        assert main(["run", cfg, "--output-dir", str(out)]) == 4
        assert "is not finite" in capsys.readouterr().out
        assert not out.exists()

    def test_numerical_failure_exits_5(self, tmp_path, capsys):
        cfg = write(tmp_path, "ambiguous.yaml", AMBIGUOUS_SPECTRUM)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 5
        assert "[ERROR] spectral: AmbiguousSpectrum" in capsys.readouterr().out

    def test_delay_longer_than_horizon_exits_4(self, tmp_path, capsys):
        cfg = write(tmp_path, "shortdelay.yaml", SHORT_DELAY_WINDOW)
        out = tmp_path / "o"
        assert main(["check", cfg]) == 4
        assert main(["run", cfg, "--output-dir", str(out)]) == 4
        assert "delayed_spread needs the delay 5.0" in capsys.readouterr().out
        assert not out.exists()

    def test_check_validates_without_running(self, tmp_path, capsys):
        good = write(tmp_path, "good.yaml", RING_DEMO)
        bad = write(tmp_path, "bad.yaml", "nodes: [\n")
        assert main(["check", good]) == 0
        assert "ok (3 nodes, 4 analyses)" in capsys.readouterr().out
        assert main(["check", good, bad]) == 4
        assert not (tmp_path / "good_out").exists()
        capsys.readouterr()
        negative = write(tmp_path, "negative.yaml", scenario(topology={
            "kind": "constant", "weights": [[0.0, -1.0], [1.0, 0.0]]}))
        assert main(["check", negative]) == 4
        assert "weight (1,2) = -1.0 is negative" in capsys.readouterr().out

    def test_batch_returns_worst_exit(self, tmp_path, capsys):
        good = write(tmp_path, "good.yaml", RING_DEMO)
        failing = write(tmp_path, "isolated.yaml", ISOLATED_NODE)
        root = tmp_path / "batch"
        assert main(["batch", good, failing, "--output-dir", str(root)]) == 2
        assert (root / "good" / "trajectory.csv").exists()
        assert (root / "isolated" / "report.txt").exists()
        out = capsys.readouterr().out
        assert f"{good}: exit 0" in out
        assert f"{failing}: exit 2" in out

    @pytest.mark.parametrize("output_dir", [True, False], ids=["root", "cwd"])
    def test_batch_refuses_files_that_share_a_stem(self, tmp_path, capsys,
                                                   monkeypatch, output_dir):
        # a/x.yaml and b/x.yaml both write <root>/x (or x_out): the second
        # one's outputs replaced the first one's, and both printed exit 0.
        monkeypatch.chdir(tmp_path)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        paths = [write(tmp_path, "a/x.yaml", RING_DEMO),
                 write(tmp_path, "b/x.yaml", ISOLATED_NODE),
                 write(tmp_path, "y.yaml", RING_DEMO)]
        root = ["--output-dir", str(tmp_path / "runs")] if output_dir else []
        assert main(["batch", *paths, *root]) == 4
        out = capsys.readouterr().out
        assert out == (f"config error: {paths[0]}, {paths[1]} would write the "
                       f"same output directories (one per file stem)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "y.yaml"]

    def test_default_output_dir_is_config_stem(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "demo.yaml", RING_DEMO)
        assert main(["run", "demo.yaml"]) == 0
        assert (tmp_path / "demo_out" / "trajectory.csv").exists()

    @pytest.mark.parametrize("changes", [
        {"horizon": INF},
        {"topology": {"kind": "constant", "weights": [[0.0, NAN], [1.0, 0.0]]},
         "analyses": [{"kind": "connectivity", "delta": 0.1, "window": 0.5}]},
        {"topology": {"kind": "constant", "weights": [[1.0, 1.0], [1.0, 0.0]]}},
        {"analyses": [{"kind": "audit", "functionals": ["weighted:square"],
                       "weights": ["a", "b"]}]},
        {"analyses": [{"kind": "audit", "functionals": ["weighted:square"],
                       "weights": [1.0, -1.0]}]},
        {"analyses": [{"kind": "certificate", "delta": 0.1, "window": 0.6,
                       "root": 1}], "nodes": 3, "initial_state": [1, 0, -1]},
        {"analyses": [{"kind": "lemma", "group": [1], "window": 1.5}]},
        {"topology": {"kind": "constant", "weights": [[0, 10 ** 400], [1, 0]]}},
        {"analyses": [{"delta": 0.1}]},
        {"analyses": [3]},
        {"seed": -1, "topology": {k: v for k, v in SWITCHING.items() if k != "seed"}},
        {"topology": {**SWITCHING, "seed": -1}},
        {"initial_state": {"distribution": "uniform", "low": -1.0, "high": 1.0,
                           "seed": -1}},
        {"t0": 1e300, "horizon": 3.0},
        {"horizon": 1e-300, "topology": {
            "kind": "alternating_leader_follower", "period": 1.0}},
        {"nodes": 3, "initial_state": [1, 0, -1], "topology": {
            "kind": "ring", "weight": 1.5e308, "bidirectional": True}},
    ], ids=["inf-horizon", "nan-weight", "weights-diagonal", "audit-weights-text",
            "audit-weights-negative", "certificate-span", "lemma-window",
            "huge-weight", "analysis-without-kind", "analysis-not-a-mapping",
            "negative-seed", "negative-topology-seed", "negative-draw-seed",
            "horizon-lost-at-t0", "no-switching-piece", "row-sum-overflow"])
    def test_malformed_files_exit_4_and_write_nothing(self, tmp_path, capsys,
                                                      changes):
        cfg = write(tmp_path, "bad.yaml", scenario(**changes))
        out = tmp_path / "o"
        assert main(["check", cfg]) == 4
        assert main(["run", cfg, "--output-dir", str(out)]) == 4
        assert "config error" in capsys.readouterr().out
        assert not out.exists()

    def test_python_dash_m(self, tmp_path):
        cfg = write(tmp_path, "demo.yaml", RING_DEMO)
        proc = run_cli("run", cfg, "--output-dir", str(tmp_path / "m"))
        assert proc.returncode == 0, proc.stderr
        assert "verdict: PASS (exit 0)" in proc.stdout
        assert (tmp_path / "m" / "report.txt").exists()

    @pytest.mark.parametrize("changes", [
        {"step": 1.0e-300},
        {"delay": {"tau": 1.0e-300}},
    ], ids=["step", "tau"])
    def test_tiny_step_or_delay_is_refused_at_once(self, tmp_path, changes):
        # Its nodes could never fit in memory: refused before any loop or
        # allocation, in a subprocess so that a hang fails within the timeout.
        cfg = write(tmp_path, "tiny.yaml", scenario(
            topology={"kind": "constant", "weights": [[0.0, 1.0], [1.0, 0.0]]},
            **changes))
        proc = run_cli("run", cfg, "--output-dir", str(tmp_path / "o"))
        assert proc.returncode == 4, proc.stderr
        assert "config error: step" in proc.stdout
        assert "physical memory" in proc.stdout
        assert not (tmp_path / "o" / "report.txt").exists()

    @pytest.mark.parametrize("changes", [
        {"step": 1.0e-300},
        {"delay": {"tau": 1.0e-300}},
        {"horizon": 1.0e8, "topology": SWITCHING},
        {"horizon": 1.0e150, "topology": SWITCHING},
        {"horizon": 1.0e8, "topology": {
            "kind": "alternating_leader_follower", "period": 1.0}},
        {"horizon": 4.0, "analyses": [{"kind": "connectivity", "delta": 0.1,
                                       "window": 1.0, "sample_step": 1.0e-9}]},
        {"horizon": 4.0, "analyses": [{"kind": "connectivity", "delta": 0.1,
                                       "window": 1.0, "sample_step": 1.0e-300}]},
        {"horizon": 4.0, "analyses": [{"kind": "connectivity", "delta": 0.1,
                                       "window": 1.0e-10}]},
    ], ids=["step", "tau", "switching-1e8", "switching-1e150",
            "alternating-1e8", "sample-step-1e-9", "sample-step-1e-300",
            "window-1e-10"])
    def test_check_refuses_what_run_refuses_before_it_allocates(
            self, tmp_path, changes):
        # Inputs whose nodes, switching pieces or connectivity windows could
        # never fit in memory exit 4 from both commands, at once and with no
        # traceback; the address-space cap of run_cli keeps a regression
        # from allocating on the machine.
        cfg = write(tmp_path, "huge.yaml", scenario(**changes))
        for args in (["check", cfg],
                     ["run", cfg, "--output-dir", str(tmp_path / "o")]):
            proc = run_cli(*args, timeout=10.0)
            assert proc.returncode == 4, (args[0], proc.stdout, proc.stderr)
            assert "physical memory holds" in proc.stdout, args[0]
            assert "Traceback" not in proc.stderr, args[0]
        assert not (tmp_path / "o" / "report.txt").exists()

    @pytest.mark.parametrize("t0, delay", [
        (1.0e15, None), (1.0e15, {"tau": 0.5}),
        (1.0e16, None), (1.0e16, {"tau": 0.5}),
    ], ids=["1e15", "1e15-delay", "1e16", "1e16-delay"])
    def test_check_and_run_refuse_steps_that_cannot_advance_time(
            self, tmp_path, t0, delay):
        # At these times a step of the 3-node ring rounds to a few ulps or
        # to none: run ended in a traceback or integrated nothing yet
        # passed, and a tau-window that short cannot advance w + tau past w.
        extra = {"delay": delay} if delay else {}
        cfg = write(tmp_path, "far.yaml", scenario(
            nodes=3, horizon=4.0, t0=t0, topology={"kind": "ring"},
            initial_state=[1.0, 0.0, -1.0], **extra))
        for args in (["check", cfg],
                     ["run", cfg, "--output-dir", str(tmp_path / "o")]):
            proc = run_cli(*args, timeout=10.0)
            assert proc.returncode == 4, (args[0], proc.stdout, proc.stderr)
            assert "shortest piece resolved" in proc.stdout, args[0]
            assert "Traceback" not in proc.stderr, args[0]
        assert not (tmp_path / "o" / "report.txt").exists()

    def test_far_t0_with_a_resolvable_step_still_runs(self, tmp_path):
        cfg = write(tmp_path, "far.yaml", scenario(
            nodes=3, horizon=4.0, t0=1.0e12, topology={"kind": "ring"},
            initial_state=[1.0, 0.0, -1.0], delay={"tau": 0.5}))
        proc = run_cli("run", cfg, "--output-dir", str(tmp_path / "o"),
                       timeout=10.0)
        assert proc.returncode == 0, proc.stderr
        assert "verdict: PASS (exit 0)" in proc.stdout
        assert (tmp_path / "o" / "report.txt").exists()

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "consensus-lab 0.1.0" in capsys.readouterr().out


# The documented exit code of every error class that does not have 5.
EXIT_CODES = {"ParseError": 4, "ValidationError": 4, "InvalidSpec": 4,
              "OutOfHorizon": 4, "HypothesisUnverified": 3,
              "BalanceViolated": 3, "NotSymmetric": 3, "NoTrappedComponent": 2}
ERRORS = sorted((cls for cls in vars(errors).values() if isinstance(cls, type)
                 and issubclass(cls, errors.ConsensusLabError)),
                key=lambda cls: cls.__name__)
# Constructor arguments of the classes that take more than a message.
ERROR_ARGS = {"NegativeOffDiagonal": (1, 2, -1.0), "NonFiniteEntry": (1, 2, INF),
              "RowSumViolation": (1, 0.5), "BalanceViolated": (0.0, 3.0),
              "NoTrappedComponent": (2,), "NonFiniteState": (1.0, "raised"),
              "ValidationError": ("field", "raised")}
# The report tag of each code, and how the line of an error that stops a
# run begins.
ERROR_TAGS = {2: "[FAIL]", 3: "[HYPOTHESIS]", 5: "[ERROR]"}
STOPPED = {2: "verdict failed", 3: "hypothesis unverified", 4: "config error",
           5: "numerical failure"}


def _error(cls):
    """An instance of cls, and how the CLI words it: a numerical error
    (exit 5) after its class name."""
    exc = cls(*ERROR_ARGS.get(cls.__name__, ("raised",)))
    return exc, f"{cls.__name__}: {exc}" if cls.exit_code == 5 else str(exc)


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


class TestErrorExitCodes:
    """Every error class ends `consensus-lab run` with its exit_code,
    wherever it is raised once the file has loaded, and with 4 when it is
    raised in loading."""

    def test_declared_codes(self):
        assert len(ERRORS) > 20 and errors.ConsensusLabError in ERRORS
        assert set(EXIT_CODES) <= {cls.__name__ for cls in ERRORS}
        for cls in ERRORS:
            assert cls.exit_code == EXIT_CODES.get(cls.__name__, 5), cls

    @pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
    def test_from_the_simulator(self, tmp_path, capsys, monkeypatch, cls):
        exc, message = _error(cls)
        monkeypatch.setattr(scenario_cli, "simulate_ode", _raise(exc))
        cfg = write(tmp_path, "demo.yaml", RING_DEMO)
        out = tmp_path / "o"
        assert main(["run", cfg, "--output-dir", str(out)]) == cls.exit_code
        assert capsys.readouterr().out.endswith(
            f"{STOPPED[cls.exit_code]}: {message}\n")
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
    def test_from_an_analysis(self, tmp_path, capsys, monkeypatch, cls):
        exc, message = _error(cls)
        monkeypatch.setattr(lyapunov, "audit_monotonicity", _raise(exc))
        cfg = write(tmp_path, "demo.yaml", RING_DEMO)
        out = tmp_path / "o"
        code = main(["run", cfg, "--output-dir", str(out)])
        assert code == cls.exit_code
        if code == 4:
            # An input error stops the run, as it does in loading.
            assert capsys.readouterr().out.endswith(f"config error: {message}\n")
            assert not (out / "report.txt").exists()
            return
        report = (out / "report.txt").read_text()
        assert f"\n{ERROR_TAGS[code]} audit: {message}\n" in report
        # The other analyses still run and pass.
        assert report.count("[PASS] ") == 3
        assert report.endswith(f"verdict: FAIL (exit {code})\n")

    @pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
    def test_in_loading(self, tmp_path, capsys, monkeypatch, cls):
        exc, _ = _error(cls)
        monkeypatch.setattr(scenario_cli, "parse_config", _raise(exc))
        cfg = write(tmp_path, "demo.yaml", RING_DEMO)
        out = tmp_path / "o"
        assert main(["check", cfg]) == 4
        assert main(["run", cfg, "--output-dir", str(out)]) == 4
        assert capsys.readouterr().out.endswith(f"config error: {exc}\n")
        assert not out.exists()


class TestRunScenarioLibraryEntry:
    def test_delayed_scenario_runs_and_passes(self, tmp_path):
        text = """\
nodes: 2
horizon: 6.0
step: 0.01
delay:
  tau: 0.2
topology:
  kind: constant
  weights: [[0.0, 1.0], [1.0, 0.0]]
initial_state: [1.0, -1.0]
analyses:
  - kind: audit
    functionals: [delayed_spread]
"""
        cfg = parse_config(text)
        assert run_scenario(cfg, str(tmp_path / "d")) == 0
        report = (tmp_path / "d" / "report.txt").read_text()
        assert "delayed_spread" in report and "[PASS] audit" in report

    def test_spectral_uses_time_average_for_switching(self, tmp_path):
        text = """\
nodes: 2
horizon: 4.0
topology:
  kind: alternating_leader_follower
  period: 2.0
initial_state: [1.0, -1.0]
analyses:
  - kind: spectral
    delta: 0.1
"""
        cfg = parse_config(text)
        assert run_scenario(cfg, str(tmp_path / "s")) == 0
        report = (tmp_path / "s" / "report.txt").read_text()
        assert "time-averaged coupling" in report


class TestLibrarySketch:
    def test_commented_results_hold(self):
        sketch = re.search(r"## Library sketch\n+```python\n(.*?)```",
                           _README, re.S).group(1)
        namespace, shown = {}, {}
        for statement in ast.parse(sketch).body:
            code = ast.get_source_segment(sketch, statement)
            if isinstance(statement, ast.Expr):
                shown[code] = eval(code, namespace)
            else:
                exec(code, namespace)
        assert shown['cl.audit_monotonicity(traj, "spread").passed'] is True
        assert shown["cl.estimate_decay_rate(times, spreads)"] == (
            pytest.approx(3.0, rel=1e-4))
        assert shown["report.passed"] is True
        assert shown["cl.spectral_graph_equivalence(A).agree"] is True


class TestTrajectoryCsv:
    """The block writer against the per-value writer, byte for byte."""

    # Signed zero, the smallest subnormal, both sides of the switch to an
    # exponent, the last integers %.17g writes in full and the first it does
    # not, and the non-finite values.
    STRESS = [-0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e17, math.nan, math.inf,
              -math.inf, 0.1, 1.0 / 3.0, -2.5e-300]

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_blocks_match_per_value_writer(self, tmp_path, rng, n):
        block = max(1, csvfmt.BLOCK // (n + 2))
        for rows in (1, block - 1, block, block + 1, 3 * block + 2):
            values = (rng.normal(size=(rows, n + 2))
                      * 10.0 ** rng.integers(-10, 20, (rows, n + 2)))
            flat = values.ravel()
            stressed = rng.random(flat.size) < 0.3
            flat[stressed] = np.resize(self.STRESS, int(stressed.sum()))
            k = min(flat.size, len(self.STRESS))
            flat[:k] = self.STRESS[:k]
            times = np.arange(rows) * 1e-5
            times[0] = -0.0
            states = values[:, 1:-1]
            traj = Trajectory(times=times, states=states)
            blocked, brute = tmp_path / "blocked.csv", tmp_path / "brute.csv"
            _write_trajectory_csv(str(blocked), traj, values[:, -1])
            brute_trajectory_csv(str(brute), traj, values[:, -1])
            assert blocked.read_bytes() == brute.read_bytes()
            assert len(blocked.read_text().splitlines()) == rows + 1

    @pytest.mark.parametrize("n, block", [(1, 1365), (3, 819), (40, 97)])
    def test_one_format_call_per_block(self, tmp_path, monkeypatch, rng, n,
                                       block):
        # Blocks of 2**12 values, whole rows: BLOCK // (n + 2) rows each.
        calls = []
        format_rows = csvfmt.format_rows

        def counted(values):
            calls.append(len(values))
            return format_rows(values)

        monkeypatch.setattr(csvfmt, "format_rows", counted)
        assert max(1, csvfmt.BLOCK // (n + 2)) == block
        for rows in (1, block, block + 1, 2 * block + 5):
            calls.clear()
            states = rng.normal(size=(rows, n))
            traj = Trajectory(times=np.arange(rows) * 0.1, states=states)
            _write_trajectory_csv(str(tmp_path / "t.csv"), traj,
                                  states.max(axis=1) - states.min(axis=1))
            assert len(calls) == -(-rows // block)
            assert calls[:-1] == [block] * (len(calls) - 1)
            assert sum(calls) == rows

    @staticmethod
    def _same_as_brute(tmp_path, times, states, spreads):
        traj = Trajectory(times=times, states=states)
        blocked, brute = tmp_path / "blocked.csv", tmp_path / "brute.csv"
        _write_trajectory_csv(str(blocked), traj, spreads)
        brute_trajectory_csv(str(brute), traj, spreads)
        assert blocked.read_bytes() == brute.read_bytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_converged_block(self, tmp_path, rng, n):
        # A run that has converged: every row within a few ulps of one
        # value, so every spread is below 1e-15 and some are exactly 0.
        rows = 3 * max(1, csvfmt.BLOCK // (n + 2)) + 1
        times = 20.0 + np.arange(rows) * 0.005
        states = np.full((rows, n), 0.3) + (
            rng.integers(-2, 3, (rows, n)) * np.spacing(0.3))
        states[::3] = 0.3
        spreads = states.max(axis=1) - states.min(axis=1)
        assert spreads.max() < 1e-15 and (spreads == 0.0).any()
        self._same_as_brute(tmp_path, times, states, spreads)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_every_row_holds_a_fallback_value(self, tmp_path, rng, n):
        # NaN, the infinities and exact ties are formatted one at a time;
        # one per row, in every column after the time over the rows.
        rows = 2 * max(1, csvfmt.BLOCK // (n + 2)) + 3
        values = rng.normal(size=(rows, n + 2))
        odd = [math.nan, math.inf, -math.inf, (2**53 - 1) / 4, 2.0**-25]
        values[np.arange(rows), 1 + np.arange(rows) % (n + 1)] = np.resize(
            odd, rows)
        self._same_as_brute(tmp_path, np.arange(rows) * 0.1, values[:, 1:-1],
                            values[:, -1])


def _percent(values, cols):
    """The oracle: "%.17g" of each Python float, a line per cols values."""
    rows = np.asarray(values, dtype=float).reshape(-1, cols).tolist()
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in rows).encode()


def _kernel(values, cols, chunk=2**14):
    """csvfmt.format_rows over whole rows of at most chunk values."""
    flat = np.asarray(values, dtype=float)
    step = chunk // cols * cols
    return b"".join(
        csvfmt.format_rows(flat[i:i + step].reshape(-1, cols)).tobytes()
        for i in range(0, len(flat), step))


@pytest.mark.filterwarnings("error")
class TestCsvKernel:
    """csvfmt.format_rows against "%.17g" % x, byte for byte; a leaked
    numpy over/invalid/divide warning fails the test."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(17).integers(
            0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert _kernel(values, 32) == _percent(values, 32)

    def test_next_to_powers_of_ten(self):
        tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
        values = np.concatenate([tens, np.nextafter(tens, np.inf),
                                 np.nextafter(tens, -np.inf)])
        values = np.concatenate([values, -values])
        assert _kernel(values, 1) == _percent(values, 1)

    def test_round_up_across_a_decade(self):
        # Rounded to 17 digits these reach the next power of ten; their
        # exponent comes from the unrounded value, then the carry.
        assert _kernel([9.9999999999999995e-07], 1) == b"9.9999999999999995e-07\n"
        near = np.array([float(f"9.99999999999999995e{k}")
                         for k in range(-320, 308)])
        values = np.concatenate([near, np.nextafter(near, 0.0),
                                 np.nextafter(near, np.inf)])
        assert _kernel(values, 1) == _percent(values, 1)

    @pytest.mark.parametrize("switch", [1e-5, 1e17])
    def test_both_sides_of_the_exponent_switch(self, switch):
        values = [switch]
        for direction in (0.0, np.inf):
            x = switch
            for _ in range(64):
                x = np.nextafter(x, direction)
                values.append(x)
        values += [float(f"{digits}e{e}") for e in (-6, -5, 16, 17)
                   for digits in ("9.99999999999999", "9.9999999999999999")]
        values = np.array(values)
        assert _kernel(values, 1) == _percent(values, 1)

    def test_exact_ties(self):
        # a / 4 with a odd has an 18-digit expansion ending in 5 from
        # a >= 2**52 on: "%.17g" rounds it half to even.
        assert _kernel([(2**53 - 1) / 4], 1) == b"2251799813685247.8\n"
        odd = np.random.default_rng(5).integers(2**51, 2**52, 4096) * 2 + 1
        values = np.concatenate([odd / 4, odd / 8, odd * 2.0**-30,
                                 2.0 ** -np.arange(1, 81)])
        assert _kernel(values, 8) == _percent(values, 8)

    def test_zeros_subnormals_and_non_finite(self):
        subnormals = np.random.default_rng(3).integers(
            1, 2**52, 4096, dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
             2.2250738585072014e-308, 1.7976931348623157e308,
             math.nan, -math.nan, math.inf, -math.inf],
            subnormals, -subnormals])
        assert _kernel(values[:4], 4) == b"0,-0,4.9406564584124654e-324,-4.9406564584124654e-324\n"
        assert _kernel(values, 1) == _percent(values, 1)

    def test_scaled_value_within_the_tie_margin(self):
        # The tie fallback rests on |hi + lo - x 10**(16 - E)| < 2**-46,
        # which the 2**-40 margin covers; checked here in exact rationals.
        from fractions import Fraction
        bits = np.random.default_rng(11).integers(
            1, 0x7FF0000000000000, 3000, dtype=np.uint64)
        x = bits.view(np.float64)
        e = np.array([int(("%.16e" % v).split("e")[1]) for v in x])
        f, k = np.frexp(x)
        hi, lo = csvfmt._scaled(f, k, e - csvfmt._EMIN)
        assert 0.5 - csvfmt._TIE > 2.0**-46
        for xi, ei, h, l in zip(x.tolist(), e.tolist(), hi.tolist(), lo.tolist()):
            exact = Fraction(xi) * Fraction(10) ** (16 - ei)
            assert abs(Fraction(h) + Fraction(l) - exact) < Fraction(1, 2**46)

    def test_decade_edges_need_no_fallback(self):
        # Next to a power of ten the log10 estimate can be one off; the
        # kernel itself must move E, not leave the value to the fallback.
        tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
        near = np.array([float(f"9.99999999999999995e{k}")
                         for k in range(-320, 308)])
        values = np.concatenate([tens, near] + [
            np.nextafter(a, to) for a in (tens, near)
            for to in (0.0, np.inf)])
        # Exact ties (999999999999999.875 is one) fall back by design.
        from decimal import Decimal
        tie = [Decimal(x).normalize().as_tuple().digits[17:] == (5,)
               for x in values.tolist()]
        values = values[~np.array(tie)]
        d, e, fallback = csvfmt._decimal(values)
        assert not fallback.any()
        want = [("%.16e" % x).split("e") for x in values.tolist()]
        assert d.tolist() == [int(m.replace(".", "")) for m, _ in want]
        assert (e + csvfmt._EMIN).tolist() == [int(x) for _, x in want]
