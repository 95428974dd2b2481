#!/usr/bin/env python3
"""The benchmark's contract with itself.

    python3 perfbench/tests/test_exact_metrics.py <perfbench binary> <BENCHMARK.json> [workload...]

1. BENCHMARK.json names exactly the metrics the binary reports, with the
   same units, and every unit tells the metric's class: wall-clock metrics
   carry a real-time unit, exact metrics never do.
2. Two processes run with the same seed report bit-identical exact
   metrics, untraced and traced, on every workload -- except the ones the
   binary itself marks as varying with thread scheduling.
"""
import json
import subprocess
import sys
import unittest

WALL_UNITS = {"s", "ms", "ns", "1/s", "MB", "ratio_wall"}

BINARY = None
BENCHMARK = None
ALL_WORKLOADS = ["ingest", "lineage", "tenants"]
# Virtual-time metrics that thread scheduling moves (lineage's scatter
# threads interleave latency draws); the binary reports their median.
SCHEDULING_DEPENDENT = {("lineage", "query_p50_us"), ("lineage", "query_p99_us")}
WORKLOADS = list(ALL_WORKLOADS)  # the ones the determinism test runs


def run(workload, seed, trace):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
         "0.001", "--trace", str(trace), "--trace-out", "/dev/null"],
        capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload} seed {seed} trace {trace} failed:\n"
                             + proc.stdout[-3000:])
    return result


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                                text=True, check=True).stdout
        cls.listed = json.loads(listed)
        with open(BENCHMARK) as f:
            cls.benchmark = json.load(f)

    def test_benchmark_json_matches_the_binary(self):
        for key in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in self.benchmark[key]]
            reported = [(m["name"], m["unit"]) for m in self.listed[key]]
            self.assertEqual(declared, reported, key)
        self.assertEqual([w["name"] for w in self.benchmark["workloads"]],
                         ALL_WORKLOADS)

    def test_units_tell_the_class(self):
        for key in ("end_to_end", "per_layer"):
            for m in self.listed[key]:
                wall = m["unit"] in WALL_UNITS
                self.assertEqual(m["class"] == "wall", wall, m["name"])

    def test_same_seed_gives_bit_identical_exact_metrics(self):
        classes = {m["name"]: m["class"]
                   for key in ("end_to_end", "per_layer")
                   for m in self.listed[key]}
        for workload in WORKLOADS:
            for trace in (0, 1):
                first = run(workload, 7, trace)
                second = run(workload, 7, trace)
                self.assertEqual(first["attempted"], second["attempted"])
                for name, metric in first["metrics"].items():
                    if classes[name] != "exact":
                        continue
                    if (workload, name) in SCHEDULING_DEPENDENT:
                        continue
                    # JSON carries 17 significant digits: equal text is
                    # an equal double.
                    self.assertEqual(repr(metric["value"]),
                                     repr(second["metrics"][name]["value"]),
                                     f"{workload} trace {trace}: {name}")


if __name__ == "__main__":
    BINARY, BENCHMARK = sys.argv[1], sys.argv[2]
    if len(sys.argv) > 3:
        WORKLOADS[:] = sys.argv[3:]
    unittest.main(argv=sys.argv[:1])
