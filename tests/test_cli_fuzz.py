"""Fuzz test of the command line: no argument vector ends in a traceback.

Each example starts from a valid argument vector of one subcommand, on a
four-record synthetic set, and replaces one of its flags. Numeric
flags take 0, -1, nan, abc or one more value: a huge one where it is
rejected or costs nothing (--seed, --k, --learning-rate, --clip-norm), a
small valid one elsewhere, so that no draw starts a long run. Path flags
take a missing path, a directory or a regular file, a data flag also a file
of another kind, and --config also JSON of the wrong shape or types.

The exit code must be 0 or 1; 2 only when training diverged, as a huge
learning rate does.
"""

import contextlib
import io
import logging

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from emofuse import cli, data, model, training  # noqa: E402

HUGE_INT = "9" * 30
PATHS = ("@missing", "@dir", "@file")
CONFIGS = {"negative-seed": '{"seed": -1}', "string-epochs": '{"epochs": "1"}',
           "null-rate": '{"learning_rate": null}', "float-batch": '{"batch_size": 2.5}',
           "unknown-key": '{"dropout": 0.5}', "number": "5", "truncated": "{"}


def numbers(extra: str) -> tuple[str, ...]:
    return ("0", "-1", "nan", "abc", extra)


TRAIN_FLAGS = {
    "--learning-rate": numbers("1e308"), "--adam-beta1": numbers("0.5"),
    "--adam-beta2": numbers("0.5"), "--adam-eps": numbers("1e-8"), "--epochs": numbers("1"),
    "--batch-size": numbers("2"), "--seed": numbers(HUGE_INT), "--clip-norm": numbers("1e308"),
    "--fusion-mode": ("uttconcat", "nope"),
    "--config": PATHS + tuple(f"@config:{name}" for name in CONFIGS),
}
DATA_FLAGS = {"--manifest": PATHS + ("@embeddings",), "--embeddings": PATHS + ("@manifest",)}

# subcommand -> (a valid argument vector, the values each flag may take instead)
COMMANDS = {
    "synth": ({"--out-dir": "@new", "--n-per-class": "1", "--seed": "0"},
              {"--out-dir": PATHS, "--n-per-class": numbers("1"), "--seed": numbers(HUGE_INT)}),
    "extract": ({"--manifest": "@manifest", "--out-dir": "@new"},
                {"--manifest": DATA_FLAGS["--manifest"], "--out-dir": PATHS}),
    "train": ({"--manifest": "@manifest", "--embeddings": "@embeddings", "--out": "@new",
               "--epochs": "1"},
              {**DATA_FLAGS, "--out": PATHS, **TRAIN_FLAGS}),
    "eval": ({"--checkpoint": "@checkpoint", "--manifest": "@manifest",
              "--embeddings": "@embeddings", "--out": "@new"},
             {**DATA_FLAGS, "--checkpoint": PATHS + ("@manifest",), "--out": PATHS}),
    "cv": ({"--manifest": "@manifest", "--embeddings": "@embeddings",
            "--modes": "uttconcat,tempalign", "--k": "2", "--epochs": "1"},
           {**DATA_FLAGS, "--modes": (",", "nope"), "--k": numbers(HUGE_INT), "--out": PATHS,
            **TRAIN_FLAGS}),
    "gradcheck": ({"--seeds": "1"}, {"--seeds": numbers("1")}),
}
EXAMPLES = 100  # more than any subcommand has cases, so each is run


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Symbolic path -> real path, and the directory for fresh ones."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    ds = data.synth_dataset(root / "data", n_per_class=1, seed=0)
    table = data.load_embeddings(ds.embeddings_path)
    checkpoint, _ = training.train_fold(ds.records, training.TrainConfig(epochs=1), table)
    paths = {"@manifest": ds.manifest_path, "@embeddings": ds.embeddings_path,
             "@checkpoint": root / "model.emc", "@dir": root / "dir", "@file": root / "plain.txt"}
    model.save_checkpoint(checkpoint, paths["@checkpoint"])
    paths["@dir"].mkdir()
    paths["@file"].write_text("plain text\n")
    for name, text in CONFIGS.items():
        paths[f"@config:{name}"] = root / f"{name}.json"
        paths[f"@config:{name}"].write_text(text)
    (root / "out").mkdir()
    return paths, root


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


def run_cli(argv: list[str]) -> tuple[int, str, list[logging.LogRecord]]:
    """Exit code, stderr and the package's log records of one in-process run."""
    handler, err = _Records(), io.StringIO()
    logging.getLogger("emofuse").addHandler(handler)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
    finally:
        logging.getLogger("emofuse").removeHandler(handler)
    return code, err.getvalue(), handler.records


@pytest.mark.parametrize("command", COMMANDS)
def test_no_argument_vector_ends_in_a_traceback(command, workspace):
    paths, root = workspace
    valid, choices = COMMANDS[command]
    fresh = iter(range(10**6))

    def real(value: str) -> str:
        if value == "@new":
            return str(root / "out" / str(next(fresh)))
        if value == "@missing":
            return str(root / "absent" / str(next(fresh)) / "x")
        return str(paths.get(value, value))

    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        flag = data.draw(st.sampled_from(sorted(choices)))
        args = {**valid, flag: data.draw(st.sampled_from(choices[flag]))}
        argv = [command] + [part for flag, value in args.items() for part in (flag, real(value))]
        code, err, records = run_cli(argv)
        messages = [r.getMessage() for r in records]
        assert "Traceback" not in err and not any(r.exc_info for r in records), (argv, messages)
        diverged = any(m.startswith("training failed:") for m in messages)
        assert code in (0, 1) or (code == 2 and diverged), (argv, code, messages)

    check()
