"""The README's CLI examples against the CLI.

Each fenced block of README.md that starts with `$ spindles ...` is run as
`python -m spindles.cli ...` with one BLAS thread, and every shown output
line without `...` must be a line of the command's stdout (trailing
blanks aside: profile pads its last column, the README does not). The
guard keeps the README from drifting away from what the commands print.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCK = re.compile(r"^```\n(\$ spindles .*?)^```$", re.MULTILINE | re.DOTALL)


def readme_examples() -> list:
    """(argv, shown output lines) of each `$ spindles` block of README.md."""
    examples = []
    for block in BLOCK.findall((ROOT / "README.md").read_text()):
        command, *shown = block.splitlines()
        argv = shlex.split(command.removeprefix("$ spindles "))
        examples.append((argv, [line for line in shown if "..." not in line]))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == ["table", "analyze", "profile", "verify"]


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example_matches_the_cli(argv, shown):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spindles.cli", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = {line.rstrip() for line in proc.stdout.splitlines()}
    assert [line for line in shown if line not in printed] == []
