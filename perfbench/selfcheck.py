"""Self-check: deliberately corrupted outputs must count as failed scenarios.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Runs one round of the
switching-certify workload (seed 1), counts its failed scenarios, then
corrupts the outputs of three scenarios that passed: the final state in
one trajectory.csv, one state of another pushed outside the hull of x0,
and one analysis tag in a third report.txt.  Exits 0 when the checks then
count exactly three more failed scenarios, and 1 otherwise.
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS to one thread before numpy loads)
import scenarios  # noqa: E402

WORKLOAD, SEED = "switching-certify", 1


def _rewrite_csv(path, change):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    change(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + [",".join(r) for r in rows]) + "\n")


def _shift_final_state(rows):
    rows[-1][1] = repr(float(rows[-1][1]) + 1e-3)


def _leave_hull(rows):
    rows[len(rows) // 2][1] = "1.5"


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "consensus_lab", "__init__.py")):
        print(f"no consensus_lab sources under {src}", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_out", "selfcheck")
    shutil.rmtree(work, ignore_errors=True)
    scen_dir, out_dir = os.path.join(work, "scenarios"), os.path.join(work, "out")
    scens = scenarios.build(WORKLOAD, SEED)
    run._write_scenarios(scens, scen_dir)
    result = run._child(src, scen_dir, out_dir, os.path.join(work, "results.json"))
    before, _ = run._count_failures(scens, result["scenarios"], result["records"],
                                    out_dir)

    passing = [sc.name for sc in scens if not sc.may_fail][:3]
    csv = [os.path.join(out_dir, name, "trajectory.csv") for name in passing[:2]]
    _rewrite_csv(csv[0], _shift_final_state)
    _rewrite_csv(csv[1], _leave_hull)
    report = os.path.join(out_dir, passing[2], "report.txt")
    with open(report, encoding="utf-8") as fh:
        text = fh.read()
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(text.replace("[PASS] certificate", "[FAIL] certificate", 1))

    after, only_kept = run._count_failures(scens, result["scenarios"],
                                           result["records"], out_dir)
    ok = after - before == 3 and not only_kept
    print(f"failed before corruption {before}, after {after} "
          f"(expected {before + 3}); {'ok' if ok else 'NOT DETECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
