"""Digest row of the benchmark outputs, one per seed.

    python3 tools/digests.py 101 102 103

Run it from the root of a checkout.  For each seed it builds the inputs of
the four benchmark workloads the way perfbench/run.py does (same files,
flags and constants), runs every command once as a fresh
`python -m alphatree.cli` process with PYTHONPATH=src in a temporary
directory, and prints one markdown table row: the first 16 hex digits of
the sha256 of each train workload's model and trace, and of score-100k's
`apply` output and `eval` stdout.  Two checkouts whose rows match wrote the
same bytes.  Nothing under perfbench/ is written.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py)

TRAIN = ("cvar-50k", "eoo-50k", "proxy-sp-10k")
HEADER = (
    "| Seed | cvar-50k model / trace | eoo-50k model / trace "
    "| proxy-sp-10k model / trace | score-100k apply / eval |\n"
    "|---|---|---|---|---|"
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cli(argv: list[str], work: str) -> bytes:
    """Run one command in a fresh process; returns its standard output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "alphatree.cli", *argv], cwd=work, env=env,
                          capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"error: {argv[0]} exited {proc.returncode}: "
                 f"{proc.stderr.decode('utf-8', 'replace')[-500:]}")
    return proc.stdout


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def row(seed: int) -> str:
    cells = []
    for workload in TRAIN:
        with tempfile.TemporaryDirectory() as work:
            files = bench.setup(workload, seed, work)
            flags = bench.TRAIN_WORKLOADS[workload][1]
            model, trace = os.path.join(work, "model.json"), os.path.join(work, "trace.csv")
            cli(["train", "--data", files["train"], *flags, "--out", model,
                 "--trace-out", trace], work)
            cells.append(f"`{digest(read(model))}` / `{digest(read(trace))}`")
    with tempfile.TemporaryDirectory() as work:
        files = bench.setup("score-100k", seed, work)
        scored = os.path.join(work, "scored.csv")
        cli(["apply", "--data", files["apply"], "--model", files["model"], "--out", scored], work)
        report = cli(["eval", "--data", files["holdout"], "--model", files["model"]], work)
        cells.append(f"`{digest(read(scored))}` / `{digest(report)}`")
    return f"| {seed} | " + " | ".join(cells) + " |"


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__.split("\n\n")[1].strip())
    seeds = [int(s) for s in argv]
    print(HEADER, flush=True)
    for seed in seeds:
        print(row(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
