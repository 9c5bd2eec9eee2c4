"""Measuring process: load the scenario files, then run them in rounds.

Started fresh by run.py for every sample, with BLAS pinned to one thread.
It imports only what the program imports; the checks run elsewhere.

    python3 measure.py --src SRC --scenarios DIR --out DIR --results FILE
                       [--seconds S] [--setup-only] [--trace FILE]

Set-up time runs from the first statement of this process, before
``consensus_lab`` is imported, until every scenario file has passed
``load_config``.  The timed loop then runs whole rounds (each scenario
once, in order) until ``--seconds`` have passed.  For every execution it
records the wall time, the exit code and a digest of ``report.txt``.

With ``--trace`` the rounds alternate untraced and traced, starting
untraced, so that the tracing overhead is measured in the same process.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident size of this process's own memory, in MiB (Linux).

    ``ru_maxrss`` is not used: at exec, Linux carries the spawning
    process's peak into it, so it reads at least the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _exit_code(errors, exc) -> int:
    """The code ``consensus-lab run`` gives when run_scenario raises."""
    config_errors = (errors.ParseError, errors.ValidationError,
                     errors.InvalidSpec, errors.OutOfHorizon,
                     errors.NotSymmetric)
    if isinstance(exc, config_errors):
        return 4
    if isinstance(exc, (errors.HypothesisUnverified, errors.BalanceViolated)):
        return 3
    return 5


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--scenarios", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from consensus_lab import errors, scenario_cli

    tracer = None
    if args.trace:
        from trace_layers import Tracer
        tracer = Tracer()
        tracer.install()
    names = sorted(f for f in os.listdir(args.scenarios) if f.endswith(".yaml"))
    configs = [scenario_cli.load_config(os.path.join(args.scenarios, f))
               for f in names]
    setup_s = time.perf_counter() - _STARTED
    if tracer:
        tracer.uninstall()
    result = {"setup_s": setup_s, "scenarios": names}
    if not args.setup_only:
        result.update(_loop(args, names, configs, scenario_cli, errors, tracer))
        result["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write(args.trace)
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _loop(args, names, configs, scenario_cli, errors, tracer) -> dict:
    outs = [os.path.join(args.out, os.path.splitext(f)[0]) for f in names]
    records = []
    round_s = []
    traced_rounds = []
    clock = time.perf_counter
    loop_start = clock()
    while True:
        traced = tracer is not None and len(round_s) % 2 == 1
        if traced:
            tracer.install()
        round_start = clock()
        for index, (config, out) in enumerate(zip(configs, outs)):
            start = clock()
            try:
                code = scenario_cli.run_scenario(config, out)
            except errors.ConsensusLabError as exc:
                code = _exit_code(errors, exc)
            except Exception:  # recorded as a failed scenario; the run goes on
                traceback.print_exc()
                code = -1
            seconds = clock() - start
            try:
                with open(os.path.join(out, "report.txt"), "rb") as fh:
                    digest = hashlib.sha1(fh.read()).hexdigest()
            except OSError:
                digest = None
            records.append([index, len(round_s), seconds, code, digest])
        if traced:
            tracer.uninstall()
        round_s.append(clock() - round_start)
        traced_rounds.append(traced)
        done = clock() - loop_start >= args.seconds
        if done and (tracer is None or len(round_s) >= 2):
            break
    return {
        "loop_s": clock() - loop_start,
        "round_s": round_s,
        "traced_rounds": traced_rounds,
        "records": records,
    }


if __name__ == "__main__":
    raise SystemExit(main())
