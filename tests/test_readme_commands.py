"""Every command in the README's "Command line" block runs and, as the
README promises, writes identical bytes when rerun with identical
arguments. Commands run in-process with --out pointed at a temporary file."""

from pathlib import Path
import shlex

import pytest

from sandpiles.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("sandpiles ")]


def test_readme_block_lists_every_subcommand():
    assert sorted(argv[0] for argv in readme_commands()) == sorted(
        ["enumerate", "simulate", "invariance", "couple", "limit-rational", "fourier", "ergodic"])


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_reruns_byte_identical(tmp_path, argv):
    if "--out" in argv:
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2:]
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] and outputs[0] == outputs[1]
