"""The rendering examples in docs/grammar.md are what the objects render."""

import re
from fractions import Fraction
from pathlib import Path

from kphoton.asymptotics import solve_levels, substitute_ansatz
from kphoton.weyl import ParamPoly, build_reduced_operator

GRAMMAR = Path(__file__).resolve().parents[1] / "docs" / "grammar.md"


def _fenced_blocks() -> list[list[str]]:
    text = GRAMMAR.read_text()
    return [[line.strip() for line in body.strip("\n").splitlines()]
            for body in re.findall(r"^ *```\n(.*?)^ *```$", text, re.M | re.S)]


def _renderings() -> list[list[str]]:
    w, d, E = ParamPoly.omega(), ParamPoly.delta(), ParamPoly.energy()
    param = E * E - d * d + w.scale(Fraction(-1, 2)) + ParamPoly.rational(7)
    op = build_reduced_operator(3)
    levels = substitute_ansatz(op, 3)
    c1 = solve_levels(levels, 3)[0].c[1]
    # the two rho roots of the first k = 4 gamma root
    k4 = solve_levels(substitute_ansatz(build_reduced_operator(4), 4), 4)[:2]
    return [
        [param.text()],
        [op.text()],
        [levels[1].text(), c1.text()],
        [br.rho.text() for br in k4],
    ]


def test_every_rendering_example_is_pinned():
    blocks = _fenced_blocks()
    # the last fenced block is the grammar summary, not a rendering
    assert len(blocks) == len(_renderings()) + 1
    assert blocks[-1][0].startswith("rational")


def test_doc_renderings_are_byte_identical():
    blocks = _fenced_blocks()
    # the operator example is folded over two lines in the document
    blocks[1] = [" ".join(blocks[1])]
    assert blocks[:-1] == _renderings()
