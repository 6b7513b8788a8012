"""The README's command-line and library examples run as shown."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from kphoton import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)
EXAMPLES = [body.splitlines() for lang, body in BLOCKS if body.startswith("$ kphoton ")]


def test_one_example_per_subcommand():
    assert sorted(lines[0].split()[2] for lines in EXAMPLES) == [
        "coeffs", "exponents", "gf", "jc-exact", "ode", "sweep", "verdict"]


@pytest.mark.parametrize("lines", EXAMPLES, ids=lambda lines: lines[0].split()[2])
def test_command_example(lines):
    # the lines shown open the real output; any after a "..." close it
    head, tail = lines[1:], []
    if "..." in head:
        i = head.index("...")
        head, tail = head[:i], head[i + 1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(shlex.split(lines[0])[2:]) == 0
    got = out.getvalue().splitlines()
    assert got[:len(head)] == head
    assert got[len(got) - len(tail):] == tail


def test_library_example():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "NotSelfAdjoint\n"      # what its comment shows
