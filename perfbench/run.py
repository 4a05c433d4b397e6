"""End-to-end benchmark of the alphatree command line: train, apply, eval.

    python3 perfbench/run.py --workload cvar-50k --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout: the program is src/alphatree.  It makes
the workload's inputs from --seed, then runs whole operations one after the
other for --seconds (a closed loop with one client), and checks every
output against the benchmark's own computation (checks.py).

--trace 0 runs each command as a user does, `python -m alphatree.cli ...`
in a fresh process with PYTHONPATH=src, and reports the end-to-end metrics.
Their times are scaled to a nominal host speed by a probe timed just before
and just after each command (hostspeed.py); runs.jsonl keeps the measured
times too.
--trace 1 calls alphatree.cli.main in this process with the package's
functions wrapped (tracer.py) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Generated inputs live in perfbench/out/ for
the length of the run; spans and raw results stay there afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import hostspeed
import inputs
import tracer as tracing

SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
STARTUP_REPEATS = 3
# the score-100k apply rows and model never depend on --seed, so its apply
# fault fails every run alike
FIXED_SEED = 20220131
MODEL_LEAVES = 128
MODEL_CLIP_B = 2.0

TRAIN_WORKLOADS = {
    # default flags; 4 rounds of up to 32 splits each grow ~130 leaves
    "cvar-50k": (50_000, ["--strategy", "cvar"], "cvar"),
    # every eoo step is one topdown call of one split, so per-call set-up
    # dominates; epsilon 0.001 keeps the gap open, so every seed runs all 16
    "eoo-50k": (50_000, ["--strategy", "eoo", "--epsilon", "0.001", "--iterations", "16"], "eoo"),
    # the proxy group tree dominates; 4 rounds of 4 splits keep induction
    # light, and epsilon 0.001 stays below the parity gap on every seed
    "proxy-sp-10k": (10_000, ["--strategy", "sp", "--init", "proxy", "--epsilon", "0.001",
                              "--iterations", "4"], "sp"),
}
SCORE_ROWS = 100_000
WORKLOADS = tuple(TRAIN_WORKLOADS) + ("score-100k",)

END_TO_END_UNITS = {
    "setup_s": "s", "op_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "holdout_cvar": "nat", "holdout_error": "frac",
}
SECONDS_LAYERS = (
    "startup", "ingest", "apply_io", "model_io", "route", "wrap", "leaf_stats",
    "split_search", "split_scan", "relabel", "induction", "fairness_loop", "group_eval",
    "pushup", "proxy_fit", "proxy_predict", "metrics", "cmd_train", "cmd_apply", "cmd_eval",
    "traced_total",
)
COMMAND_SPANS = ("cmd_train", "cmd_apply", "cmd_eval")
COUNTS = (
    "ingest.rows", "route.calls", "route.rows", "wrap.calls", "wrap.rows",
    "leaf_stats.calls", "leaf_stats.rows", "split_search.calls", "split_search.hits",
    "split_search.rows", "split_scan.calls", "group_eval.calls", "model.leaves", "trace.splits",
)
# figures of the model an operation wrote, the same for every operation of a run
OP_FIGURES = ("holdout_cvar", "holdout_error", "model.leaves", "trace.splits")


class Failure(Exception):
    """An operation's output failed a check."""


class KnownFault(Failure):
    """apply misroutes rows whose categorical values look numeric."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, work: str) -> dict:
    """Write the workload's input files into work; returns their paths."""
    if workload in TRAIN_WORKLOADS:
        n = TRAIN_WORKLOADS[workload][0]
        files = {"train": os.path.join(work, "train.csv"),
                 "holdout": os.path.join(work, "holdout.csv")}
        inputs.write_csv(files["train"], inputs.make_rows([seed, 1], n))
        inputs.write_csv(files["holdout"], inputs.make_rows([seed, 2], n))
    else:
        files = {"model": os.path.join(work, "fixed_model.json"),
                 "apply": os.path.join(work, "apply.csv"),
                 "holdout": os.path.join(work, "holdout.csv")}
        inputs.write_model(files["model"], inputs.make_model([FIXED_SEED, 0], MODEL_LEAVES,
                                                             MODEL_CLIP_B))
        inputs.write_csv(files["apply"], inputs.make_rows([FIXED_SEED, 3], SCORE_ROWS))
        inputs.write_csv(files["holdout"], inputs.make_rows([seed, 2], SCORE_ROWS))
    return files


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------


class Runner:
    """Runs CLI commands in fresh processes (traced=False) or in this one."""

    def __init__(self, root: str, work: str, traced: bool):
        self.work = work
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.rss: list[float] = []
        self.raw_walls: list[float] = []
        self.raw_cpus: list[float] = []
        self.tracer = None

    def begin_op(self, tracer=None) -> None:
        self.walls, self.cpus, self.rss = [], [], []
        self.raw_walls, self.raw_cpus = [], []
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> str:
        """Run one command; returns its standard output."""
        if self.traced:
            return self._in_process(argv)
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        cmd = [sys.executable, "-m", "alphatree.cli"] + argv
        with open(out_path, "wb") as out, open(err_path, "wb") as err, \
                hostspeed.Scaled() as speed:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        self.raw_walls.append(wall)
        self.raw_cpus.append(cpu)
        self.walls.append(speed.scale(wall))
        self.cpus.append(speed.scale(cpu))
        self.rss.append(usage.ru_maxrss / 1024.0)
        with open(out_path, "r", encoding="utf-8") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(err_path, "r", encoding="utf-8") as fh:
                raise Failure(f"{argv[0]} exited {proc.returncode}: {fh.read()[-500:]}")
        return stdout

    def _in_process(self, argv: list[str]) -> str:
        import alphatree.cli

        main = self.tracer.wrap(f"cmd_{argv[0]}", alphatree.cli.main)
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        self.walls.append(time.perf_counter() - start)
        if code != 0:
            raise Failure(f"{argv[0]} returned {code}")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def fresh(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def verdict(seen: dict, output: bytes, check):
    """check(), or the verdict of an earlier identical output.

    Every check is a function of the output bytes and of inputs that stay
    fixed for the run, so identical outputs share one verdict."""
    key = hashlib.sha256(output).hexdigest()
    if key not in seen:
        seen[key] = check()
    return seen[key]


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def train_op(workload: str, files: dict, run: Runner, holdout: checks.Rows, seen: dict) -> dict:
    """One `train`; checks the model and its trace; returns holdout quality."""
    n, flags, strategy = TRAIN_WORKLOADS[workload]
    model_path = os.path.join(run.work, "model.json")
    trace_path = os.path.join(run.work, "trace.csv")
    fresh(model_path, trace_path)
    run(["train", "--data", files["train"], *flags, "--out", model_path,
         "--trace-out", trace_path])
    model_bytes = read_bytes(model_path)

    def check():
        model = json.loads(model_bytes)
        trace = checks.read_trace(trace_path)
        proxy = "--init" in flags
        fails = checks.check_train(model, trace, strategy, None if proxy else len(inputs.GROUPS))
        if proxy:
            if "group" in checks.model_features(model["tree"]):
                fails.append("a proxy-initialised model tests the group column")
            if not checks.split_events(trace):
                fails.append("the sp loop made no split")
        if fails:
            return fails, {}
        cvar, error = checks.holdout_quality(model, holdout)
        return [], {"holdout_cvar": cvar, "holdout_error": error,
                    "model.leaves": len(checks.model_leaves(model["tree"])),
                    "trace.splits": len(checks.split_events(trace)),
                    "sha256": hashlib.sha256(model_bytes).hexdigest()}

    fails, result = verdict(seen, model_bytes + b"\0" + read_bytes(trace_path), check)
    if fails:
        raise Failure("; ".join(fails))
    return result


def numeric_looking(rows: checks.Rows) -> frozenset:
    """Columns whose every value parses as a number."""
    out = set()
    for name in rows.header:
        try:
            rows.numeric(name)
        except ValueError:
            continue
        out.add(name)
    return frozenset(out)


def apply_op(files: dict, run: Runner, model: dict, apply_rows: checks.Rows,
             fault_columns: frozenset, seen: dict) -> None:
    """One `apply`.  A failure that the known parsing fault of apply explains
    (fault_columns never pass a categorical test) raises KnownFault."""
    scored = os.path.join(run.work, "scored.csv")
    fresh(scored)
    run(["apply", "--data", files["apply"], "--model", files["model"], "--out", scored])
    output = read_bytes(scored)

    def check():
        text = output.decode("utf-8")
        fails = checks.check_apply(text, apply_rows, model)
        explained = bool(fails) and not checks.check_apply(text, apply_rows, model,
                                                           unmatched=fault_columns)
        return fails, explained

    fails, explained = verdict(seen, output, check)
    if fails:
        raise (KnownFault if explained else Failure)("; ".join(fails))


def eval_op(files: dict, run: Runner, model: dict, holdout: checks.Rows, seen: dict) -> None:
    stdout = run(["eval", "--data", files["holdout"], "--model", files["model"]])

    def check():
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"eval printed no JSON: {exc}"]
        return checks.check_eval(report, model, holdout)

    fails = verdict(seen, stdout.encode("utf-8"), check)
    if fails:
        raise Failure("; ".join(fails))


def file_sha256(path: str) -> str:
    return hashlib.sha256(read_bytes(path)).hexdigest()


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


def startup_seconds(run: Runner) -> float:
    """Median wall time of a process that only imports alphatree.cli."""
    walls = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import alphatree.cli"], env=run.env, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def layer_metrics(tr: tracing.Tracer) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    selfs = tr.self_seconds()
    totals = tr.total_seconds()
    out = {f"{name}.s": selfs.get(name, 0.0) for name in SECONDS_LAYERS}
    out["apply_io.s"] = selfs.get("cmd_apply", 0.0)
    for cmd in COMMAND_SPANS:
        out[f"{cmd}.s"] = totals.get(cmd, 0.0)
    out["traced_total.s"] = sum(totals.get(cmd, 0.0) for cmd in COMMAND_SPANS)
    tables = {"calls": tr.calls, "rows": tr.rows, "hits": tr.hits}
    for name in COUNTS:
        layer, kind = name.split(".")
        if kind in tables:
            out[name] = tables[kind].get(layer, 0)
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool, root: str,
            out_dir: str) -> dict:
    work = os.path.join(out_dir, f"work-{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _measure(workload, seed, seconds, traced, root, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, traced, root, out_dir, work) -> dict:
    # set-up is repeated and its median reported; one short set-up alone is
    # too noisy to compare across runs
    raw_setups = []
    with hostspeed.Scaled() as speed:
        while not raw_setups or not traced and (len(raw_setups) < SETUP_REPEATS
                                                or sum(raw_setups) < SETUP_MIN_SECONDS):
            start = time.perf_counter()
            files = setup(workload, seed, work)
            raw_setups.append(time.perf_counter() - start)
    setups = [speed.scale(x) for x in raw_setups]
    holdout = checks.read_rows(files["holdout"])
    run = Runner(root, work, traced)
    seen: dict = {}

    if workload == "score-100k":
        model = checks.load_model(files["model"])
        apply_rows = checks.read_rows(files["apply"])
        fault_columns = numeric_looking(apply_rows)
        cvar, error = checks.holdout_quality(model, holdout)
        result = {"holdout_cvar": cvar, "holdout_error": error, "model.leaves": MODEL_LEAVES,
                  "trace.splits": 0, "sha256": file_sha256(files["model"])}
        steps = [("apply", lambda: apply_op(files, run, model, apply_rows, fault_columns, seen)),
                 ("eval", lambda: eval_op(files, run, model, holdout, seen))]
    else:
        result = {}
        steps = [("train", lambda: result.update(train_op(workload, files, run, holdout, seen)))]

    if traced:
        sys.path.insert(0, os.path.join(root, "src"))
        import alphatree.cli  # noqa: F401  (imported before the clock starts)
        startup = startup_seconds(run)

    attempted = failed = 0
    unexpected: list[str] = []
    per_op: list[dict] = []
    with contextlib.ExitStack() as stack:
        spans = stack.enter_context(open(
            os.path.join(out_dir, f"spans-{workload}-seed{seed}.csv"), "w",
            encoding="utf-8")) if traced else None
        deadline = time.perf_counter() + seconds
        while True:
            tr = tracing.Tracer() if traced else None
            run.begin_op(tr)
            for name, step in steps:
                attempted += 1
                try:
                    if tr is not None:
                        tr.install()
                    step()
                except KnownFault as exc:
                    failed += 1
                    log(f"{workload}: {name} failed by the known apply fault: {str(exc)[:200]}")
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    unexpected.append(f"{name}: {type(exc).__name__}: {exc}")
                    log(f"{workload}: {name} FAILED: {type(exc).__name__}: {str(exc)[:500]}")
                finally:
                    if tr is not None:
                        tr.restore()
            op = {"op_s": sum(run.walls), "cpu_s": sum(run.cpus),
                  "peak_rss_mb": max(run.rss, default=0.0),
                  "raw_op_s": sum(run.raw_walls), "raw_cpu_s": sum(run.raw_cpus)}
            op.update((k, result[k]) for k in OP_FIGURES if k in result)
            if tr is not None:
                op.update(layer_metrics(tr))
                tr.write(spans, len(per_op))
            per_op.append(op)
            log(f"{workload}: op {len(per_op)} op_s={op['op_s']:.4g} cpu_s={op['cpu_s']:.4g}"
                f" (measured {op['raw_op_s']:.4g} and {op['raw_cpu_s']:.4g})")
            if time.perf_counter() >= deadline:
                break

    def median(key):
        return float(statistics.median(op.get(key, 0.0) for op in per_op))

    if traced:
        metrics = {f"{name}.s": (median(f"{name}.s"), "s") for name in SECONDS_LAYERS}
        metrics["startup.s"] = (startup, "s")
        # counts are the first operation's; every operation repeats them
        metrics.update({name: (per_op[0].get(name, 0), "count") for name in COUNTS})
    else:
        metrics = {"setup_s": (float(statistics.median(setups)), "s")}
        for name, unit in END_TO_END_UNITS.items():
            if name != "setup_s":
                metrics[name] = (median(name), unit)
    raw = {} if traced else {"setup_s": float(statistics.median(raw_setups)),
                             "op_s": median("raw_op_s"), "cpu_s": median("raw_cpu_s")}
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "measured": raw,
        "model_sha256": result.get("sha256", ""),
        "unexpected": unexpected,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "alphatree", "cli.py")):
        log("error: run from the root of a checkout; src/alphatree/cli.py not found")
        return 2
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root, out_dir)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, time=time.strftime("%Y-%m-%dT%H:%M:%S"))
    with open(os.path.join(out_dir, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
