#!/usr/bin/env python3
"""Gate one synthbench workload against the committed baseline.

    python3 bench/gate.py BENCH_quick.json WORKLOAD UNTRACED TRACED

UNTRACED and TRACED are files whose last line is the JSON result line of
`bash synthbench/run.sh --workload WORKLOAD --trace 0` and `--trace 1`.
Both runs must be correct with no failed operation, the speeds must stay
within BOUND of the baseline, and the exact counts must equal it. A gated
metric missing from either side fails, as does a speed baseline <= 0.
Exits 1 naming every failed check.
"""
import json
import sys

BOUND = 0.20

# (run, metric, kind): "max" = at most (1 + BOUND) x the baseline,
# "min" = at least (1 - BOUND) x, "exact" = equal, zeros included.
CHECKS = [
    ("untraced", "wall_s", "max"),
    ("traced", "profile.s", "max"),
    ("traced", "profile.mips", "min"),
    ("traced", "vm.fast_mips", "min"),
    ("traced", "vm.hooked_mips", "min"),
    ("traced", "compiler.compiles", "exact"),
    ("traced", "compiler.clone_static_instrs", "exact"),
    ("traced", "vm.instrs", "exact"),
    ("traced", "cpu.sim_instrs", "exact"),
    ("traced", "store.puts", "exact"),
]


def last_line(path):
    with open(path) as f:
        return json.loads(f.read().strip().splitlines()[-1])


def value(line, name):
    return line.get("metrics", {}).get(name, {}).get("value")


def gate(baseline, workload, fresh):
    failures = []
    for run, line in fresh.items():
        if line.get("correct") is not True or line.get("failed") != 0:
            failures.append(f"{run} run: correct={line.get('correct')} failed={line.get('failed')}")
    for run, name, kind in CHECKS:
        got, want = value(fresh[run], name), value(baseline.get(run, {}).get("result", {}), name)
        if got is None or want is None:
            failures.append(f"{run} {name}: missing from the {'fresh line' if got is None else 'baseline'}")
            continue
        if kind != "exact" and want <= 0:
            failures.append(f"{run} {name}: baseline {want} is not positive")
            continue
        if kind == "exact":
            ok, shown = got == want, "exact"
        else:
            ratio = got / want
            ok = ratio <= 1 + BOUND if kind == "max" else ratio >= 1 - BOUND
            shown = f"{ratio:.2f}x"
        if not ok:
            failures.append(f"{run} {name}: {got} vs baseline {want} ({kind})")
        print(f"gate {workload}: {name:<28} {got:>14.12g} vs {want:>14.12g} ({shown}) {'ok' if ok else 'FAIL'}")
    return failures


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    path, workload, untraced, traced = sys.argv[1:]
    with open(path) as f:
        baseline = json.load(f)["workloads"].get(workload)
    if baseline is None:
        sys.exit(f"gate: {path} has no entry for workload {workload}")
    failures = gate(baseline, workload, {"untraced": last_line(untraced), "traced": last_line(traced)})
    for msg in failures:
        print(f"::error::gate {workload}: {msg}")
    sys.exit(1 if failures else 0)
