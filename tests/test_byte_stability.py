"""Train outputs stay byte-identical: a change that moves any result fails here.

Three `train` commands (cvar, eoo, and sp from a proxy group tree) run
through `cli.main` on one seeded 3,000-row file.  The sha256 of each model
file and trace CSV is pinned, and so are those of `apply`'s output file and
`eval`'s stdout for the cvar model on the same file.  A change meant to keep results, such as a
speed-up, must leave every digest as it is; a change meant to move them
updates the digests and says why.
"""

import hashlib

import numpy as np
import pytest

from alphatree.cli import main

N_ROWS = 3000

# first 16 hex digits of sha256 of (model JSON, trace CSV); the runs grow
# 63, 16 and 14 splits (the sp run's proxy tree has 61 leaves)
DIGESTS = {
    "cvar": ("dc4a85bbff725c8a", "1e3402ac35eec381"),
    "eoo": ("4efc42556840c920", "9ea3b65878bdf8a2"),
    "sp-proxy": ("d43f34671e7a7836", "2eecd49953854a54"),
}

FLAGS = {
    "cvar": ["--strategy", "cvar"],
    "eoo": ["--strategy", "eoo", "--epsilon", "0.001", "--iterations", "16"],
    "sp-proxy": ["--strategy", "sp", "--init", "proxy", "--epsilon", "0.001", "--iterations", "4"],
}


def write_rows(path, seed=2020, n=N_ROWS):
    """Three unequal groups, four 2-decimal numeric features, one 5-level categorical."""
    rng = np.random.default_rng(seed)
    g = rng.choice(3, size=n, p=(0.55, 0.3, 0.15))
    x = rng.normal(size=(n, 4))
    x[:, 0] += 1.5 * g
    x = np.round(x, 2)
    cat = rng.integers(0, 5, n)
    logit = x @ np.array([0.9, -0.7, 0.6, 0.3]) + np.linspace(-0.8, 0.8, 5)[cat] + 0.3 * g
    label = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-logit)), 1, 0)
    score = np.round(1.0 / (1.0 + np.exp(-(0.8 * logit + rng.normal(scale=0.6, size=n) - 0.8 * g))), 6)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label,group,score,x0,x1,x2,x3,cat\n")
        for i in range(n):
            fh.write(f"{label[i]},{g[i]},{score[i]:.6f},"
                     + ",".join(f"{v:.2f}" for v in x[i]) + f",{'ABCDE'[cat[i]]}\n")


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("stability") / "train.csv"
    write_rows(path)
    return path


@pytest.mark.parametrize("run", sorted(DIGESTS))
def test_train_outputs_are_byte_identical(run, data, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ALPHATREE_SEED", raising=False)
    model, trace = tmp_path / "model.json", tmp_path / "trace.csv"
    argv = ["train", "--data", str(data), *FLAGS[run], "--out", str(model), "--trace-out", str(trace)]
    assert main(argv) == 0
    capsys.readouterr()
    assert (digest(model), digest(trace)) == DIGESTS[run]


# first 16 hex digits of sha256 of `apply`'s output file and `eval`'s stdout
# for the cvar model of DIGESTS, run on the same file it was trained on
SCORE_DIGESTS = ("827e270f818feb7e", "9ab3df6c30384906")


def test_apply_and_eval_outputs_are_byte_identical(data, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ALPHATREE_SEED", raising=False)
    model, applied = tmp_path / "model.json", tmp_path / "applied.csv"
    assert main(["train", "--data", str(data), *FLAGS["cvar"], "--out", str(model)]) == 0
    assert digest(model) == DIGESTS["cvar"][0]
    assert main(["apply", "--data", str(data), "--model", str(model), "--out", str(applied)]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--model", str(model)]) == 0
    report = capsys.readouterr().out.encode("utf-8")
    assert (digest(applied), hashlib.sha256(report).hexdigest()[:16]) == SCORE_DIGESTS
