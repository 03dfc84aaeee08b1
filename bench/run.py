"""starclust benchmark: seeded paper-shaped inputs, one CLI run at a time.

    python3 bench/run.py --workload paper-year --seed 1 --seconds 25 --trace 0

Each run generates its inputs from --seed (bench/gen_panel.py) before any
timing, then drives the workload's `starclust` command in a closed loop with
one client: the next process starts only after the previous one has exited.
The command runs from this checkout's `src/`, exactly as the installed
`starclust` console script would run it.

--trace 0 times whole CLI processes and reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter importing starclust.cli,
               timed once before each command
  wall_s       median wall time of one command, spawn to exit
  cpu_s        median user + system CPU time of the child (from wait4)
  peak_rss_mb  median peak resident set size of the child, in MiB
The share of failed runs (error_rate) is printed and carried by the result's
`failed` and `attempted` fields. A run fails if it exits non-zero, if an
output is missing or fails its check, or if its outputs differ by one byte
from the first run's.

--trace 1 runs the same command in this process through starclust.cli.main,
alternating traced and untraced runs, and reports per-layer self times and
counts (bench/tracing.py) with the tracing overhead.

Every run prints its metrics with units and sample counts, the SHA-256 of
its inputs and outputs and the environment, writes the same as JSON (and the
spans, when traced) under .perfbench/, and ends with one JSON result line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, replace
from importlib import metadata
from pathlib import Path

import gen_panel
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
KINDS = ("NN", "cA", "cB", "cC", "dA", "dB", "dC")
MIN_SIZE = 2          # the CLI's default smallest non-idiosyncratic cluster
MIN_RUNS = 3          # timed CLI runs per benchmark run, whatever --seconds says
MIN_TRACED = 2        # traced in-process runs, so counts are compared across runs
SPLIT_YEAR = 2000     # last in-sample year of every workload
DEADLINE_S = 170      # the whole benchmark run ends within this
CLI = "import sys; from starclust.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    command: str                      # "evaluate" or "cluster"
    units: int
    granularity: str = "year"
    first_year: int = 1901
    last_year: int = 2022
    clusters: tuple[int, int, int] = (4, 5, 12)   # k for schemes A, B, C
    horizon: int = 22
    reps: int = 10_000


# Why each workload exists is stated in BENCHMARK.json: each one exercises
# one planned optimisation (batched STAR fits, streaming MCS, O(K^2) linkage)
# while another leaves it idle.
WORKLOADS = {
    "paper-year": Workload("evaluate", 168),
    "paper-observation": Workload("evaluate", 168, granularity="observation"),
    "wide-k800": Workload("cluster", 800),
}
# Self-test size: a small K, few years, about 200 replications.
# Slopes over so few years are mostly non-significant, so scheme A keeps k=1.
TINY = {"units": 40, "first_year": 1981, "last_year": 2010,
        "clusters": (1, 3, 4), "horizon": 10, "reps": 200}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def per_layer_unit(name: str) -> str:
    if name in tracing.COUNTS:
        return "count"
    if name.endswith("_mb"):
        return "MiB"
    return {"trace.coverage": "ratio", "cli.output_bytes": "B"}.get(name, "s")


# --- inputs -------------------------------------------------------------------

def prepare(workload: Workload, seed: int, work: Path) -> dict:
    """Write the inputs and the run config; return paths and digests."""
    data = gen_panel.generate(seed, workload.units, workload.first_year,
                              workload.last_year)
    if work.exists():
        shutil.rmtree(work)
    paths = gen_panel.write_inputs(data, work / "inputs")
    k_a, k_b, k_c = workload.clusters
    config = work / "run.yaml"
    config.write_text(
        "data:\n"
        f"  panel: {paths['panel']}\n"
        f"  adjacency: {paths['adjacency']}\n"
        f"  zones: {paths['zones']}\n"
        f"clusters:\n  A: {k_a}\n  B: {k_b}\n  C: {k_c}\n"
        "weights:\n  rescale: true\n"
        f"split_year: {SPLIT_YEAR}\nhorizon: {workload.horizon}\n"
        f"mcs:\n  reps: {workload.reps}\n  block: 2\n  statistic: SQ\n",
        encoding="utf-8")
    return {"ids": data["ids"], "config": config,
            "sha256": {name: sha256(path) for name, path in paths.items()},
            "bytes": sum(path.stat().st_size for path in paths.values())}


def cli_args(workload: Workload, config: Path, out: Path) -> list[str]:
    if workload.command == "evaluate":
        return ["evaluate", "--config", str(config), "--out", str(out),
                "--granularity", workload.granularity]
    return ["cluster", "--config", str(config), "--scheme", "C", "--out", str(out)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


# --- output checks ----------------------------------------------------------------

def check_outputs(workload: Workload, out: Path, ids: list[str]) -> list[str]:
    """Problems found in one run's outputs; empty when they are correct."""
    check = check_evaluate if workload.command == "evaluate" else check_cluster
    try:
        return check(workload, out, ids)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def judge(workload: Workload, inputs: dict, out: Path, code: int,
          reference: dict | None) -> tuple[list[str], dict | None]:
    """Problems with one finished run, and the output digests later runs must match."""
    if code:
        return [f"exit code {code}"], reference
    problems = check_outputs(workload, out, inputs["ids"])
    if problems:
        return problems, reference
    digests = output_digests(out)
    if reference is not None and digests != reference:
        return ["outputs differ from the first run"], reference
    return [], digests


def check_evaluate(workload: Workload, out: Path, ids: list[str]) -> list[str]:
    problems = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    models = report["models"]
    pvals = [report["mcs"]["p_values"][m] for m in models]
    if sorted(models) != sorted(KINDS):
        problems.append(f"models {models} are not the 7 kinds")
    if any(b < a for a, b in zip(pvals, pvals[1:])):
        problems.append(f"MCS p-values decrease: {pvals}")
    if not pvals or pvals[-1] != 1.0 or not all(0 < p <= 1 for p in pvals):
        problems.append(f"MCS p-values out of range or last != 1: {pvals}")
    survivors = report["mcs"]["survivors"]
    alpha = report["mcs"]["alpha"]
    if survivors != [m for m, p in zip(models, pvals) if p >= alpha]:
        problems.append(f"survivors {survivors} do not match p >= {alpha}")
    for key in ("in_sample_fn", "out_of_sample_fn"):
        values = [report[key][m] for m in models]
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append(f"{key} not finite and positive: {values}")
    rows = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    if len(rows) != 1 + len(KINDS):
        problems.append(f"report.csv has {len(rows)} lines")
    plot = (out / "plot_losses.csv").read_text(encoding="utf-8").splitlines()
    if len(plot) != 1 + len(KINDS) * workload.horizon:
        problems.append(f"plot_losses.csv has {len(plot)} lines")
    return problems


def check_cluster(workload: Workload, out: Path, ids: list[str]) -> list[str]:
    problems = []
    k = workload.clusters[2]
    assign = json.loads((out / "assignment_C.json").read_text(encoding="utf-8"))
    labels = assign["labels"]
    groups = [list(labels), assign["idiosyncratic"], assign["null_excluded"]]
    covered = [cid for group in groups for cid in group]
    if sorted(covered) != sorted(ids):
        problems.append("clusters, idiosyncratic and null sets do not partition the units")
    sizes = [list(labels.values()).count(c) for c in range(1, k + 1)]
    if sorted(set(labels.values())) != list(range(1, k + 1)) or min(sizes) < MIN_SIZE:
        problems.append(f"expected {k} main clusters of size >= {MIN_SIZE}, got sizes {sizes}")
    if any(len(assign[key]) == len(ids) for key in ("idiosyncratic", "null_excluded")):
        problems.append("every unit left unclustered")
    dendro = json.loads((out / "dendrogram_C.json").read_text(encoding="utf-8"))
    heights = [m["height"] for m in dendro["merges"]]
    if dendro["leaves"] != sorted(ids) or len(heights) != len(ids) - 1:
        problems.append("dendrogram leaves or merge count wrong")
    if any(b < a for a, b in zip(heights, heights[1:])):
        problems.append("dendrogram heights decrease")
    summary = (out / "summary_C.csv").read_text(encoding="utf-8").splitlines()
    if len(summary) != 1 + k:
        problems.append(f"summary_C.csv has {len(summary)} lines")
    for name in ("plot_cluster_feature_C.csv", "contingency_C.csv"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    return problems


# --- timed CLI runs ---------------------------------------------------------------

class _Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise _Deadline


def spawn(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one child to exit; return its exit code, wall, CPU time and peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with log.open("wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=fh,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024}   # ru_maxrss is in KiB


def measure_cli(workload: Workload, inputs: dict, work: Path, seconds: float,
                deadline: float) -> dict:
    logs = work / "logs"
    logs.mkdir()
    spawn(["-c", "import starclust.cli"], logs / "warm.log", deadline)  # fills __pycache__
    runs, setup, reference, failures = [], [], None, []
    begin, step = time.perf_counter(), 0.0
    while len(runs) < MIN_RUNS or time.perf_counter() - begin + step <= seconds:
        if time.monotonic() > deadline:
            failures.append("deadline reached")
            break
        step_begin = time.perf_counter()
        # One fresh import before each command, so the setup_s samples are
        # spread over the same window as the commands they precede.
        setup.append(spawn(["-c", "import starclust.cli"], logs / "setup.log", deadline))
        if setup[-1]["code"]:
            failures.append(f"import of starclust.cli failed, see {logs / 'setup.log'}")
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        result = spawn(["-c", CLI, *cli_args(workload, inputs["config"], out)],
                       logs / f"run{len(runs)}.log", deadline)
        problems, reference = judge(workload, inputs, out, result["code"], reference)
        result["ok"] = not problems
        failures += [f"run {len(runs)}: {p}" for p in problems]
        runs.append(result)
        step = time.perf_counter() - step_begin

    good = [r for r in runs if r["ok"]] or runs
    samples = {"setup_s": [r["wall_s"] for r in setup if r["code"] == 0]
               or [r["wall_s"] for r in setup]}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[name] = [r[name] for r in good]
    return {"samples": samples, "attempted": len(runs),
            "failed": sum(not r["ok"] for r in runs),
            "failures": failures, "outputs": reference or {}}


# --- traced in-process runs -------------------------------------------------------

def run_in_process(argv: list[str], tracer: tracing.Tracer | None) -> tuple[int, float, str]:
    """One command through starclust.cli.main, optionally traced."""
    import starclust.cli as cli
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracing.hooked(tracer), tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
    except Exception:  # a crash is a failed run, recorded with its traceback
        return 1, time.perf_counter() - start, traceback.format_exc()
    return code, time.perf_counter() - start, sink.getvalue()


def measure_layers(workload: Workload, inputs: dict, work: Path, seconds: float,
                   deadline: float) -> dict:
    sys.path.insert(0, str(SRC))
    out = work / "out"
    argv = cli_args(workload, inputs["config"], out)
    attempted, failed, failures, reference, mcs_call = 0, 0, [], None, None
    traced, untraced, tracers = [], [], []

    def one(tracer):
        nonlocal attempted, failed, reference
        shutil.rmtree(out, ignore_errors=True)
        code, wall, text = run_in_process(argv, tracer)
        attempted += 1
        problems, reference = judge(workload, inputs, out, code, reference)
        if code:
            problems.append(text[-2000:])
        failed += bool(problems)
        failures.extend(f"in-process run {attempted}: {p}" for p in problems)
        return wall

    one(None)  # warm-up: first calls into numpy and scipy, page cache
    begin = time.perf_counter()
    while (len(traced) < MIN_TRACED
           or time.perf_counter() - begin + traced[-1] + untraced[-1] <= seconds):
        if time.monotonic() > deadline:
            failures.append("deadline reached")
            break
        tracer = tracing.Tracer(run=len(tracers))
        traced.append(one(tracer))
        mcs_call, tracer.mcs_call = tracer.mcs_call or mcs_call, None
        tracers.append(tracer)
        untraced.append(one(None))

    per_run = [tracing.layer_metrics(t) for t in tracers]
    for name in tracing.COUNTS:
        if len({m[name] for m in per_run}) > 1:
            failures.append(f"count {name} differs between traced runs: "
                            f"{[m[name] for m in per_run]}")
    samples = {name: [m[name] for m in per_run] for name in per_run[0]}
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(untraced)]
    samples["evaluation.mcs_alloc_peak_mb"] = [tracing.mcs_alloc_peak_mb(mcs_call)]
    samples["panel.input_mb"] = [inputs["bytes"] / 2**20]
    samples["cli.output_bytes"] = [sum((out / n).stat().st_size for n in reference or {})]
    spans = [asdict(s) for t in tracers for s in t.spans]
    (work / "spans.json").write_text(json.dumps(spans, indent=1) + "\n", encoding="utf-8")
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "failures": failures, "outputs": reference or {},
            "unhooked": sorted({u for t in tracers for u in t.unhooked})}


# --- reporting ----------------------------------------------------------------------

def environment() -> dict:
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        # Inherited from the caller's environment, never pinned here; None
        # means unset, so numpy's BLAS picks its own thread count.
        "blas_threads": {name: os.environ.get(name) for name in blas_vars},
        "git_commit": commit,
    }


def summarize(samples: list[float]) -> dict:
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    median = (statistics.median_low if all(isinstance(v, int) for v in samples)
              else statistics.median)(samples)
    return {"median": median, "q1": quartiles[0],
            "q3": quartiles[2], "n": len(samples)}


def main() -> int:
    parser = argparse.ArgumentParser(description="starclust benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: small K, few years, 200 reps")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "starclust" / "cli.py").is_file():
        print(f"error: no starclust sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = replace(workload, **TINY)

    work = WORK / args.workload
    inputs = prepare(workload, args.seed, work)
    measure = measure_layers if args.trace else measure_cli
    result = measure(workload, inputs, work, args.seconds, deadline)

    stats = {name: summarize(values) for name, values in result["samples"].items()}
    unit_of = per_layer_unit if args.trace else END_TO_END_UNITS.get
    print(f"{args.workload} seed={args.seed} trace={args.trace}: starclust "
          f"{workload.command}, {workload.units} units x {workload.first_year}-"
          f"{workload.last_year}, closed loop with 1 client")
    print(f"{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  unit")
    for name, s in stats.items():
        print(f"{name:<34}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
              f"{s['n']:>5}  {unit_of(name)}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':<34}{error_rate:>14.6g}   ({result['failed']} of "
          f"{result['attempted']} runs failed)")
    for failure in result["failures"][:10]:
        print(f"  failure: {failure}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny, "spec": asdict(workload),
              "metrics": stats, "units": {n: unit_of(n) for n in stats},
              "error_rate": error_rate, "failures": result["failures"],
              "inputs_sha256": inputs["sha256"], "outputs_sha256": result["outputs"],
              "environment": environment()}
    if args.trace:
        record["unhooked"] = result["unhooked"]
        record["spans"] = str((work / "spans.json").relative_to(ROOT))
    record_path = work / "record.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("inputs sha256: " + json.dumps(inputs["sha256"]))
    print("outputs sha256: " + hashlib.sha256(
        json.dumps(result["outputs"], sort_keys=True).encode()).hexdigest())
    print("environment: " + json.dumps(record["environment"]))
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": s["median"], "unit": unit_of(name)}
                    for name, s in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
