"""Every command in the README's "Command line" block runs and, as the
README promises, writes identical bytes when rerun with identical
arguments. Commands run in-process with --out pointed at a temporary file.
The README's settings table states what cli.COMMANDS declares."""

import inspect
from pathlib import Path
import shlex

import pytest

from sandpiles import cli
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


def readme_settings():
    """{(key, command): (default, minimum)} from the README's settings table."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `--"):
            setting, commands, default, least = (c.strip() for c in line.strip("|").split("|"))
            key = setting.strip("`")[2:].replace("-", "_")
            for command in commands.split(", "):
                assert (key, command) not in rows
                rows[key, command] = (default, least)
    return rows


def documented(value):
    return "required" if value is cli.REQUIRED else "—" if value is None else str(value)


def test_readme_settings_table_matches_commands():
    declared = {}
    for command, (_, _, spec) in cli.COMMANDS.items():
        for key, (reader, default) in spec.items():
            least = reader and inspect.signature(reader).parameters.get("least")
            declared[key, command] = (documented(default), documented(least and least.default))
    assert readme_settings() == declared
