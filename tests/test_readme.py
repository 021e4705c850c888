"""The README's examples run: the Library block as a doctest, and each
complete CLI example as `python -m rootno.cli`."""

import doctest
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rootno

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE_ROOT = str(Path(rootno.__file__).resolve().parents[1])


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 5
    assert result.failed == 0


def _cli_examples():
    """(argv, printed lines) for each indented README block that runs one
    `$ rootno` command and shows all of its output, with no `...` line."""
    blocks, block = [], []
    for line in README.read_text().splitlines() + [""]:
        if line.startswith("    "):
            block.append(line[4:])
            continue
        if block and block[0].startswith("$ rootno "):
            commands = [ln for ln in block if ln.startswith("$ ")]
            if len(commands) == 1 and "..." not in (ln.strip() for ln in block):
                blocks.append((shlex.split(block[0][2:])[1:], block[1:]))
        block = []
    return blocks


CLI_EXAMPLES = _cli_examples()


def test_readme_cli_examples_are_found():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == [
        "root-number", "root-number", "check", "scan"]


@pytest.mark.parametrize("argv, lines", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(argv, lines):
    env = dict(os.environ)
    env.pop("ROOTNO_CLASSICAL_DATA", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-m", "rootno.cli", *argv],
                       capture_output=True, text=True, env=env)
    assert r.returncode in (0, 1), r.stderr
    # the CSV's summary goes to stderr, which README prints first
    if "--csv" in argv:
        assert (r.stderr + r.stdout).splitlines() == lines
    else:
        assert r.stderr == ""
        assert r.stdout.splitlines() == lines
