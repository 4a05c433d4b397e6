"""Digest row of the benchmark outputs, one per seed.

    python3 tools/digests.py 101 102 103
    python3 tools/digests.py --check 101 102 103

Run it from the root of a checkout.  For each seed it builds the inputs of
the four benchmark workloads the way perfbench/run.py does (same files,
flags and constants), runs every command once as a fresh
`python -m alphatree.cli` process with PYTHONPATH=src in a temporary
directory, and prints one markdown table row: the first 16 hex digits of
the sha256 of each train workload's model and trace, and of score-100k's
`apply` output and `eval` stdout.  Two checkouts whose rows match wrote the
same bytes.  Nothing under perfbench/ is written.

With --check it also compares each row with the same seed's row of the
last digest table in CHANGES.md, and exits 1 naming every cell that
differs (or a seed the table lacks) on standard error.
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
# the name of each digest of a row, in order
CELLS = tuple(f"{w} {part}" for w in TRAIN for part in ("model", "trace")) + ("score-100k apply", "score-100k eval")


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


def row(seed: int) -> list[str]:
    """The seed's digests, in CELLS order."""
    out = []
    for workload in TRAIN:
        with tempfile.TemporaryDirectory() as work:
            files = bench.setup(workload, seed, work)
            flags = bench.TRAIN_WORKLOADS[workload][1]
            model, trace = os.path.join(work, "model.json"), os.path.join(work, "trace.csv")
            cli(["train", "--data", files["train"], *flags, "--out", model,
                 "--trace-out", trace], work)
            out += [digest(read(model)), digest(read(trace))]
    with tempfile.TemporaryDirectory() as work:
        files = bench.setup("score-100k", seed, work)
        scored = os.path.join(work, "scored.csv")
        cli(["apply", "--data", files["apply"], "--model", files["model"], "--out", scored], work)
        report = cli(["eval", "--data", files["holdout"], "--model", files["model"]], work)
        out += [digest(read(scored)), digest(report)]
    return out


def table_line(seed: int, digests: list[str]) -> str:
    pairs = (f"`{a}` / `{b}`" for a, b in zip(digests[::2], digests[1::2]))
    return f"| {seed} | " + " | ".join(pairs) + " |"


def last_table(text: str) -> dict[int, list[str]]:
    """Digests by seed of the last table in text that opens with HEADER."""
    lines = [line.strip() for line in text.splitlines()]
    head = HEADER.split("\n")[0]
    starts = [i for i, line in enumerate(lines) if line == head]
    if not starts:
        sys.exit("error: CHANGES.md holds no digest table")
    table = {}
    for line in lines[starts[-1] + 2:]:
        if not line.startswith("|"):
            break
        seed, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        table[int(seed)] = [d.strip(" `") for cell in cells for d in cell.split("/")]
    return table


def main(argv: list[str]) -> int:
    check = argv[:1] == ["--check"]
    seeds = [int(s) for s in argv[check:]]
    if not seeds:
        sys.exit(__doc__.split("\n\n")[1].strip())
    if check:
        with open(os.path.join(ROOT, "CHANGES.md"), encoding="utf-8") as fh:
            table = last_table(fh.read())
    print(HEADER, flush=True)
    differ = []
    for seed in seeds:
        digests = row(seed)
        print(table_line(seed, digests), flush=True)
        if not check:
            continue
        if seed not in table:
            differ.append(f"seed {seed}: not in the last digest table of CHANGES.md")
            continue
        differ += [f"seed {seed} {name}: {was} in CHANGES.md, {now} now"
                   for name, was, now in zip(CELLS, table[seed], digests) if was != now]
    for line in differ:
        print(line, file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
