"""Scenario benchmark for consensus-lab.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the package is imported from
``src/``).  Writes the workload's scenario files from the seed, starts a
fresh measuring process (measure.py) that loads them and runs them one at
a time through ``scenario_cli.load_config`` and ``run_scenario`` for
``--seconds``, then checks every scenario's outputs apart from the program
(checks.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Outputs go to ``.perfbench_out/``, spans to ``.perfbench_trace/``.
"""

import os

# numpy here links a multi-threaded OpenBLAS; every process of the
# benchmark, the measuring ones included, uses one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import yaml  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import scenarios  # noqa: E402
from trace_layers import metric_names  # noqa: E402

DEFAULT_SEED = 1
SETUP_SAMPLES = 3       # fresh processes whose set-up time is measured
CHILD_TIMEOUT_S = 170.0


def _log(message: str):
    print(message, file=sys.stderr, flush=True)


def _child(src, scen_dir, out_dir, results, seconds=0.0, setup_only=False,
           trace=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--src", src,
           "--scenarios", scen_dir, "--out", out_dir, "--results", results,
           "--seconds", repr(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", trace]
    if os.path.exists(results):
        os.remove(results)
    # run_scenario prints each report to standard output.
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True, check=False)
    if proc.returncode != 0 or not os.path.exists(results):
        raise RuntimeError(f"measuring process exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    with open(results, encoding="utf-8") as fh:
        return json.load(fh)


def _write_scenarios(scens, scen_dir):
    os.makedirs(scen_dir)
    for sc in scens:
        with open(os.path.join(scen_dir, sc.name + ".yaml"), "w",
                  encoding="utf-8") as fh:
            yaml.safe_dump(sc.config, fh, sort_keys=False,
                           default_flow_style=None, width=1 << 20)


def _count_failures(scens, names, records, out_dir):
    """Failed executions, and whether every failure is a kept one."""
    by_name = {sc.name: sc for sc in scens}
    failed = 0
    only_kept = True
    for index, name in enumerate(names):
        sc = by_name[os.path.splitext(name)[0]]
        out = os.path.join(out_dir, sc.name)
        want_tags, want_exit = checks.expected(sc)
        mine = [r for r in records if r[0] == index]
        digest = mine[-1][4]
        try:
            got = checks.report_tags(os.path.join(out, "report.txt"))
        except OSError:
            got = ()
        problems = checks.check_outputs(sc, out)
        # A kept failure is a known fault's tag in place of the expected
        # one, with the exit code that tag implies and correct numbers.
        deviations = {g for w, g in zip(want_tags, got) if w != g}
        kept_exit = max((checks.EXIT_OF.get(t, -1) for _, t in got),
                        default=0)
        for _, _, _, code, d in mine:
            if d == digest and code == want_exit and got == want_tags \
                    and not problems:
                continue
            failed += 1
            kept = (d == digest and code == kept_exit and not problems
                    and len(got) == len(want_tags)
                    and deviations <= set(sc.may_fail))
            only_kept = only_kept and kept
        if mine[-1][3] != want_exit or got != want_tags or problems:
            _log(f"  {sc.name}: exit {mine[-1][3]} (want {want_exit}) "
                 f"tags {[t for _, t in got]} (want {[t for _, t in want_tags]})"
                 + "".join(f"\n    {p}" for p in problems))
    return failed, only_kept


def _end_to_end(setups, result):
    times = [r[2] for r in result["records"]]
    return {
        "scenarios_per_s": (len(times) / result["loop_s"], "1/s"),
        "scenario_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _per_layer(result):
    """Per traced round; load_config figures are for the one set-up."""
    trace = result["trace"]
    flags = result["traced_rounds"]
    rounds = sum(flags)
    metrics = {}
    for name, unit in metric_names():
        fid, _, field = name.rpartition(".")
        per = 1 if fid == "scenario_cli.load_config" else rounds
        if field in ("calls", "self_s"):
            value = trace["functions"].get(fid, {}).get(field, 0.0) / per
        else:
            value = trace["counts"].get(name, 0.0) / rounds
        metrics[name] = (value, unit)
    looped = sum(f["self_s"] for fid, f in trace["functions"].items()
                 if fid != "scenario_cli.load_config")
    traced_s = sum(s for s, t in zip(result["round_s"], flags) if t)
    metrics["trace.coverage_pct"] = (100.0 * looped / traced_s, "%")
    # Overhead per scenario, traced against untraced rounds of the same
    # process, then the median over scenarios.  The first round warms up,
    # so it counts only when no other untraced round ran.
    warm = 1 if flags.count(False) > 1 else 0
    ratios = []
    for index in range(len(result["scenarios"])):
        times = {True: [], False: []}
        for i, r, seconds, _, _ in result["records"]:
            if i == index and r >= warm:
                times[flags[r]].append(seconds)
        ratios.append(statistics.median(times[True])
                      / statistics.median(times[False]))
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    for name in trace["absent"]:
        _log(f"absent from this version of the program: {name}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "consensus_lab", "__init__.py")):
        _log(f"no consensus_lab sources under {src}; run from a source checkout")
        return 2

    # One work directory per workload and mode, emptied by the next run:
    # a dense-spectral run leaves about 40 MB of trajectories.
    work = os.path.join(root, ".perfbench_out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    scen_dir = os.path.join(work, "scenarios")
    out_dir = os.path.join(work, "out")
    results = os.path.join(work, "results.json")
    scens = scenarios.build(args.workload, args.seed)
    _write_scenarios(scens, scen_dir)

    trace_file = None
    setups = []
    if args.trace:
        trace_dir = os.path.join(root, ".perfbench_trace")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(src, scen_dir, out_dir, results,
                                 setup_only=True)["setup_s"])
    result = _child(src, scen_dir, out_dir, results, seconds=args.seconds,
                    trace=trace_file)
    setups.append(result["setup_s"])
    failed, only_kept = _count_failures(scens, result["scenarios"],
                                        result["records"], out_dir)
    _log(f"{args.workload} seed {args.seed}: {len(result['round_s'])} rounds of "
         f"{len(scens)} scenarios in {result['loop_s']:.2f} s; attempted "
         f"{len(result['records'])}, failed {failed}")
    metrics = _per_layer(result) if args.trace else _end_to_end(setups, result)
    print(json.dumps({
        "correct": only_kept,
        "attempted": len(result["records"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
