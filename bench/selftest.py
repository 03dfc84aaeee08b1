"""Self-test of the benchmark: every workload at a tiny size, twice per mode.

    python3 bench/selftest.py

Runs bench/run.py with --tiny (a small K, few years, 200 replications) for
each workload in BENCHMARK.json, untraced and traced, and checks that every
metric BENCHMARK.json names is reported with its unit, that no run failed
(error_rate = 0), that end-to-end values are positive, and that every count
is equal across the two runs of a mode. The inputs and the outputs must be
byte-identical across all four runs of a workload, so the in-process traced
runs write exactly what the CLI processes write. Exits 1 on the first failed
check.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    print(done.stdout, end="")
    if done.returncode:
        fail(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    digests = [line for line in lines if line.startswith(("inputs sha256", "outputs sha256"))]
    return json.loads(lines[-1]), digests


def fail(message: str) -> None:
    print(f"SELF-TEST FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        digests = set()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            (first, digest1), (second, digest2) = run(workload, trace), run(workload, trace)
            digests.update({tuple(digest1), tuple(digest2)})
            for result in (first, second):
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != expected:
                    fail(f"{workload} trace={trace}: metrics {units} != {expected}")
                if not result["correct"] or result["failed"]:
                    fail(f"{workload} trace={trace}: error_rate "
                         f"{result['failed']}/{result['attempted']}, correct="
                         f"{result['correct']}")
                if not trace and min(m["value"] for m in result["metrics"].values()) <= 0:
                    fail(f"{workload}: an end-to-end metric is not positive")
            for name, unit in expected.items():
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if unit == "count" and a != b:
                    fail(f"{workload}: count {name} differs between runs: {a} != {b}")
        if len(digests) != 1:
            fail(f"{workload}: inputs or outputs differ between runs: {digests}")
    print("self-test passed")


if __name__ == "__main__":
    main()
