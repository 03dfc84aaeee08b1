"""Golden outputs of every command on the benchmark's tiny inputs.

The inputs are `bench/gen_panel.generate(7, 40, 1981, 2010)`: 40 units over
1981-2010 with zones and borders. The run config is the benchmark self-test's:
k = 1/3/4, rescaled distances, origin 2000, horizon 10, 200 replications.
`tests/test_golden.py` runs `run_all` on them and compares every file with
`tests/data/golden/`, whose `environment.json` records the numpy version and
machine the files were written on.

After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/_golden.py

and list every file that changed with the change.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from starclust.cli import main
from starclust.weights import KINDS

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "data" / "golden"
ENVIRONMENT = "environment.json"

# Every command but `mcs --losses`, whose losses come from `evaluate`.
COMMANDS = (("trends",),
            *(("cluster", "--scheme", scheme) for scheme in "ABC"),
            *(("weights", "--kind", kind) for kind in KINDS),
            *(("fit", "--kind", kind) for kind in KINDS),
            ("forecast", "--kind", "dC"),
            ("evaluate",))


def tiny_inputs(root: Path) -> Path:
    """Write the tiny panel, zones and borders under `root`; return the run config."""
    spec = importlib.util.spec_from_file_location("bench_gen_panel",
                                                  TESTS.parent / "bench" / "gen_panel.py")
    gen_panel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_panel)
    paths = gen_panel.write_inputs(gen_panel.generate(7, 40, 1981, 2010), root / "inputs")
    config = root / "run.yaml"
    config.write_text(
        f"data:\n  panel: {paths['panel']}\n  adjacency: {paths['adjacency']}\n"
        f"  zones: {paths['zones']}\n"
        "clusters:\n  A: 1\n  B: 3\n  C: 4\nweights:\n  rescale: true\n"
        "split_year: 2000\nhorizon: 10\n"
        "mcs:\n  reps: 200\n  block: 2\n  statistic: SQ\n", encoding="utf-8")
    return config


def run_all(config: Path, plot_losses: Path | None, out: Path) -> None:
    """Run every command on the config's inputs, writing all files under `out`.

    `mcs --losses` tests `plot_losses`, or the `plot_losses.csv` that
    `evaluate` writes here when it is None.
    """
    def run(*argv: str) -> None:
        if main([*argv, "--config", str(config), "--out", str(out)]) != 0:
            raise RuntimeError(f"starclust {' '.join(argv)} failed")

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in COMMANDS:
            run(*argv)
        run("mcs", "--losses", str(plot_losses or out / "plot_losses.csv"))


def environment() -> dict[str, str]:
    """What decides whether the golden floats can match byte for byte."""
    return {"machine": platform.machine(), "numpy": np.__version__}


def regenerate() -> None:
    """Replace the files under `GOLDEN` with this checkout's outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        run_all(tiny_inputs(Path(tmp)), None, out)
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for old in GOLDEN.iterdir():
            old.unlink()
        for new in sorted(out.iterdir()):
            (GOLDEN / new.name).write_bytes(new.read_bytes())
    (GOLDEN / ENVIRONMENT).write_text(json.dumps(environment(), sort_keys=True, indent=2)
                                      + "\n", encoding="utf-8")
    print(f"wrote {len(list(GOLDEN.iterdir()))} files under {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
