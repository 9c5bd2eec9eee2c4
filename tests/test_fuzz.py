"""Fuzz test of scenario files through the command line.

Each example draws a list of scenario files and runs ``consensus-lab
check`` and ``consensus-lab batch`` on the list once each, in a
subprocess with its address space capped and a timeout (``run_cli``).
Every file must end with an exit code the README documents, no run may
end in a traceback, and ``check`` and ``run`` must agree on which files
are input errors (exit 4).

A file is drawn with a typed value for every key of its topology and
analysis kinds, most of them valid, and then up to two of its entries are
mutated: replaced by an edge value or one of another type, dropped, or
joined by an unknown key.  So most files run, and the rest each probe a
few bad entries.  Each edge value is refused at once or keeps a run
short, wherever it lands: a run that is long yet fits in memory is no
input error, and would only slow the suite.
"""

import copy
import math
import re
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli

EDGES = st.sampled_from([-1.0, 0.0, 1e-300, 1e300, math.inf, math.nan, 3,
                         "x", None, True, [1.0], {"a": 1}])
WEIGHT = st.sampled_from([0.5, 1.0, 2.0])
WINDOW = st.sampled_from([0.5, 1.0])
SEED = st.integers(0, 3)


def couplings(n):
    """{weights: W} with a zero diagonal, or {matrix: A} with zero row
    sums, with entries from 0, 1/2, 1 and 2."""
    rows = st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                             min_size=n, max_size=n), min_size=n, max_size=n)

    def forms(rows):
        w = [[0.0 if k == l else v for l, v in enumerate(row)]
             for k, row in enumerate(rows)]
        a = [[-sum(row) if k == l else v for l, v in enumerate(row)]
             for k, row in enumerate(w)]
        return st.sampled_from([{"weights": w}, {"matrix": a}])
    return rows.flatmap(forms)


def kind(name, required=None, optional=None):
    """A mapping of the given kind, with every required key and some of the
    optional ones."""
    return st.fixed_dictionaries({"kind": st.just(name), **(required or {})},
                                 optional=optional)


def topology(n, horizon):
    arcs = {"weight": WEIGHT, "bidirectional": st.booleans()}

    def piecewise(k):
        return st.lists(couplings(n), min_size=k, max_size=k).map(
            lambda cs: {"kind": "piecewise", "pieces": [
                {"until": horizon * (i + 1) / k, **c} for i, c in enumerate(cs)]})
    return st.one_of(
        couplings(n).map(lambda c: {"kind": "constant", **c}),
        kind("ring", optional=arcs),
        kind("star", optional={**arcs, "hub": st.integers(1, n)}),
        kind("line", optional=arcs),
        st.integers(1, 3).flatmap(piecewise),
        kind("alternating_leader_follower", {"period": WINDOW},
             {"weight": WEIGHT}),
        kind("random_switching",
             {"period": st.sampled_from([0.25, 0.5]),
              "link_probability": st.sampled_from([0.0, 0.5, 1.0]),
              "weight_range": st.sampled_from([[0.5, 1.5], [0.0, 1.0]])},
             {"seed": SEED}),
        st.tuples(kind("sinusoidal", {"depth": st.sampled_from([-1.0, 0.5]),
                                      "period": WINDOW}),
                  couplings(n)).map(lambda t: {**t[0], **t[1]}),
    )


def analysis(n):
    return st.one_of(
        kind("connectivity", {"delta": st.sampled_from([0.05, 0.5]),
                              "window": WINDOW},
             {"sample_step": st.sampled_from([0.1, 0.25])}),
        kind("audit", {"functionals": st.lists(st.sampled_from([
            "spread", "max_component", "min_component", "delayed_spread",
            "sum_of_squares", "centered_sum_of_squares", "weighted:square",
            "weighted:relu", "potential"]), min_size=1, max_size=3)},
             {"weights": st.lists(WEIGHT, min_size=n, max_size=n),
              "slack": st.sampled_from([1e-9, 0.1])}),
        kind("lemma", {"group": st.lists(st.integers(1, n), min_size=1,
                                         max_size=max(1, n - 1), unique=True),
                       "window": WINDOW},
             {"t_start": st.sampled_from([0.0, 1.0]),
              "slack": st.sampled_from([1e-9, 0.1])}),
        kind("certificate", {"delta": st.sampled_from([0.05, 0.5]),
                             "window": WINDOW, "root": st.integers(1, n)},
             {"verify_hypothesis": st.booleans(),
              "slack_factor": st.sampled_from([1e-7, 0.1])}),
        kind("spectral", optional={"delta": st.sampled_from([0.0, 0.05]),
                                   "gap_tol": st.sampled_from([1e-9, 0.6])}),
    )


@st.composite
def valid_scenario(draw):
    n = draw(st.integers(1, 4))
    horizon = draw(st.sampled_from([3.0, 4.0]))
    initial = st.one_of(
        st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=n, max_size=n),
        st.fixed_dictionaries({"distribution": st.just("uniform"),
                               "low": st.just(-1.0), "high": st.just(1.0)}))
    return draw(st.fixed_dictionaries(
        {"nodes": st.just(n), "horizon": st.just(horizon),
         "topology": topology(n, horizon), "initial_state": initial,
         "seed": SEED},
        optional={"t0": st.sampled_from([0.0, -1.5, 1.0e15]),
                  "step": st.sampled_from([0.01, 0.05]),
                  "analyses": st.lists(analysis(n), max_size=3),
                  "delay": st.fixed_dictionaries(
                      {"tau": st.sampled_from([0.1, 0.5, 1.0])},
                      optional={"full": st.booleans()})}))


def _entries(value, path=()):
    """The path of every entry under value, value itself first."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _entries(item, path + (key,))


@st.composite
def scenario(draw):
    """A drawn scenario with up to two of its entries mutated; a copy, since
    sampled_from hands out its own lists."""
    raw = copy.deepcopy(draw(valid_scenario()))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        path = draw(st.sampled_from(list(_entries(raw))[1:]))
        *parent, key = path
        holder = raw
        for step in parent:
            holder = holder[step]
        how = draw(st.sampled_from(["edge", "edge", "drop", "unknown"]))
        if how == "drop" and isinstance(holder, dict):
            del holder[key]
        elif how == "unknown" and isinstance(holder, dict):
            holder["extra_knob"] = draw(EDGES)
        else:
            holder[key] = draw(EDGES)
    return raw


def _codes(pattern, output):
    return dict(re.findall(pattern, output, re.M))


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(st.lists(scenario(), min_size=1, max_size=3))
def test_every_drawn_file_gets_a_documented_exit(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, raw in enumerate(files):
            paths.append(str(Path(tmp) / f"s{i}.yaml"))
            Path(paths[-1]).write_text(yaml.safe_dump(raw), encoding="utf-8")
        check = run_cli("check", *paths)
        batch = run_cli("batch", *paths, "--output-dir", str(Path(tmp) / "o"))
    for proc in (check, batch):
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode in {0, 2, 3, 4, 5}, proc.stderr
    checked = _codes(r"^(\S+\.yaml): (ok|config error)", check.stdout)
    ran = _codes(r"^(\S+\.yaml): exit (\d+)$", batch.stdout)
    assert set(checked) == set(ran) == set(paths)
    for path in paths:
        assert ran[path] in {"0", "2", "3", "4", "5"}, (path, batch.stdout)
        assert (checked[path] == "config error") == (ran[path] == "4"), (
            Path(path).read_text(), check.stdout, batch.stdout)
