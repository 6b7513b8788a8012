"""The rendering examples in docs/grammar.md are what the objects render,
and random values render as the document's rules say."""

import re
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kphoton.asymptotics import QuadraticRoot, RingElem, solve_levels, substitute_ansatz
from kphoton.weyl import ParamPoly, build_reduced_operator
from oracles import grammar_text

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
        [levels[1].coeff.text(), c1.text()],
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


# magnitudes 1 and 1/n are the ones the rules treat apart
_COEFF = st.one_of(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-1, 7)]),
                   st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 12)))
_PARAM = st.dictionaries(st.tuples(*[st.integers(-3, 3)] * 3), _COEFF, max_size=5).map(ParamPoly)
_RING_KEY = st.tuples(st.integers(0, 11), st.integers(0, 3), st.integers(0, 3),
                      st.lists(st.integers(0, 5), max_size=2).map(lambda c: tuple(sorted(c))))


@settings(max_examples=300, deadline=None)
@given(_PARAM)
def test_param_poly_renders_by_the_rules(p):
    assert p.text() == grammar_text(p)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_RING_KEY, _PARAM, max_size=6), st.sampled_from([None, 3, 4, 5, 7]))
def test_ring_elem_renders_by_the_rules(terms, modulus):
    # modulus None is a free element, whose g-powers may pass k
    x = RingElem(terms, modulus)
    assert x.text() == grammar_text(x)


@settings(max_examples=150, deadline=None)
@given(_PARAM, _PARAM, _PARAM)
def test_quadratic_root_renders_by_the_rules(rational, surd, disc):
    root = QuadraticRoot(rational, surd, disc)
    assert root.text() == grammar_text(root)
