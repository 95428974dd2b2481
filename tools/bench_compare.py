#!/usr/bin/env python3
"""Compare a perfbench result against a committed baseline.

    python3 tools/bench_compare.py BENCH_<workload>.json RESULT
    python3 tools/bench_compare.py --record RESULT --workload W --seed N \\
        --seconds S > BENCH_<workload>.json

RESULT is a file holding perfbench's stdout (its last line is the one-line
JSON result) or a baseline file. Run from the repository root; standard
library only.

Each metric's class comes from its unit in BENCHMARK.json (see
perfbench/README.md): wall units are s, ms, ns, 1/s, MB and ratio_wall,
every other unit is exact. Comparing:

  - fails (exit 1) when the result is not "correct", when a metric is
    missing on either side, or when an exact metric differs in any bit;
  - prints every wall metric against the baseline and its BENCHMARK.json
    bound, flagging a change worse than the bound, without failing: wall
    time depends on the machine, and the baseline's machine is not the
    one running the comparison;
  - treats lineage's query_p50_us / query_p99_us like wall metrics, the
    exemption perfbench documents (their virtual latencies depend on
    thread scheduling).

--record wraps a result into a baseline: the result plus the workload, the
run arguments, the commit and the toolchain it was measured with. A commit
ending in "-dirty" means the result was measured on uncommitted changes
over that commit.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALL_UNITS = {"s", "ms", "ns", "1/s", "MB", "ratio_wall"}
# Exact-unit metrics perfbench reports as medians and leaves out of its own
# bit-identity check, per workload (perfbench/README.md, "Two exceptions").
SCHEDULING_DEPENDENT = {"lineage": {"query_p50_us", "query_p99_us"}}


def load_result(path):
    """The perfbench result object in `path` (raw stdout or a baseline)."""
    with open(path) as f:
        text = f.read()
    try:
        whole = json.loads(text)
    except ValueError:
        whole = None
    if isinstance(whole, dict):
        return whole.get("result", whole), whole
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"{path}: empty")
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        raise SystemExit(f"{path}: last line is not a JSON result")


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {}
    for entry in bench["end_to_end"] + bench["per_layer"]:
        specs[entry["name"]] = entry
    return specs


def command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    if out.returncode != 0 or not out.stdout.strip():
        return None
    return out.stdout.strip().splitlines()[0]


def commit_id():
    """HEAD's hash, suffixed "-dirty" when a tracked file other than the
    BENCH_*.json baselines differs from HEAD: such a result was measured on
    the working tree, not on the commit it names."""
    head = command_output(["git", "rev-parse", "HEAD"])
    if head is None:
        return "?"
    try:
        diff = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", ".",
             ":(exclude)BENCH_*.json"], capture_output=True, cwd=ROOT)
    except OSError:
        return head
    return head + "-dirty" if diff.returncode == 1 else head


def toolchain():
    cache = os.path.join(ROOT, ".bench_build", "perfbench", "CMakeCache.txt")
    compiler, build_type = "c++", "?"
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    parts = [command_output([compiler, "--version"]) or compiler,
             command_output(["cmake", "--version"]) or "cmake ?",
             build_type,
             f"{platform.machine()}, {os.cpu_count()} hardware threads"]
    return "; ".join(parts)


def record(args):
    result, _ = load_result(args.record)
    baseline = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "command": (f"python3 perfbench/run.py --workload {args.workload} "
                    f"--seed {args.seed} --seconds {args.seconds:g} --trace 0"),
        "commit": commit_id(),
        "toolchain": toolchain(),
        "result": result,
    }
    json.dump(baseline, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def relative_change(base, cur):
    if base == cur:
        return 0.0
    return (cur - base) / abs(base) if base != 0 else float("inf")


def compare(args):
    base_result, base_doc = load_result(args.baseline)
    cur_result, _ = load_result(args.result)
    workload = (base_doc or {}).get("workload", "")
    specs = metric_specs()
    failures = []
    if cur_result.get("correct") is not True:
        failures.append("result is not correct")
    base_metrics = base_result.get("metrics", {})
    cur_metrics = cur_result.get("metrics", {})
    exempt = SCHEDULING_DEPENDENT.get(workload, set())

    print(f"{'metric':<34} {'class':<6} {'baseline':>14} {'result':>14} "
          f"{'change':>9}  verdict")
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        if name not in base_metrics or name not in cur_metrics:
            side = "baseline" if name not in base_metrics else "result"
            failures.append(f"{name}: missing from the {side}")
            continue
        if name not in specs:
            failures.append(f"{name}: not declared in BENCHMARK.json")
            continue
        spec = specs[name]
        base = base_metrics[name]["value"]
        cur = cur_metrics[name]["value"]
        wall = spec["unit"] in WALL_UNITS or name in exempt
        change = relative_change(base, cur)
        worse = change if spec["better"] == "lower" else -change
        if not wall:
            verdict = "same" if cur == base else "DIFFERS"
            if cur != base:
                failures.append(f"{name}: exact metric {base!r} -> {cur!r}")
        elif "bound" in spec:
            verdict = (f"worse than bound {spec['bound']}"
                       if worse > spec["bound"] else f"within {spec['bound']}")
        else:
            verdict = "reported"
        print(f"{name:<34} {'wall' if wall else 'exact':<6} {base:>14.6g} "
              f"{cur:>14.6g} {change:>+9.2%}  {verdict}")

    if failures:
        print(f"\nFAIL ({len(failures)}):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nOK: every exact metric bit-identical to {args.baseline}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("result", nargs="?")
    parser.add_argument("--record", metavar="RESULT")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3)
    args = parser.parse_args(argv)
    if args.record:
        if not args.workload:
            parser.error("--record needs --workload")
        return record(args)
    if not args.baseline or not args.result:
        parser.error("need BASELINE and RESULT")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
