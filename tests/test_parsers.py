"""Properties of the three text parsers: each reads back what its writer
wrote, and on any other text raises only its own parse error."""

import pytest
from hypothesis import given, settings, strategies as st

from fsrkit import circuit as C
from fsrkit import fsr as F

FIXED = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def registers(draw):
    stage = draw(st.integers(1, 7))
    table = draw(st.binary(min_size=1 << stage, max_size=1 << stage))
    return F.Fsr(stage, table=bytes(b & 1 for b in table))


@st.composite
def circuits(draw):
    r = draw(st.integers(1, 4))
    nodes = [(C.IN, i) for i in range(r)]
    for k in range(r, r + draw(st.integers(0, 12))):
        op = draw(st.sampled_from([C.AND, C.OR, C.NOT]))
        a = draw(st.integers(0, k - 1))
        nodes.append((op, a) if op == C.NOT
                     else (op, a, draw(st.integers(0, k - 1))))
    return C.Circuit(r, nodes, (draw(st.integers(0, len(nodes) - 1)),))


@st.composite
def cycle_structures(draw):
    words = draw(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=12),
                          min_size=1, max_size=8))
    return F.CycleStructure(F.Cycle(w) for w in words)


@FIXED
@given(registers())
def test_register_text_round_trip(f):
    assert F.parse_fsr(F.write_fsr(f)) == f


@FIXED
@given(circuits())
def test_circuit_text_round_trip(c):
    back = C.parse_circuit(C.write_circuit(c))
    assert back.nodes == c.nodes
    assert back.outputs == c.outputs


@FIXED
@given(cycle_structures())
def test_cycle_listing_text_round_trip(cs):
    assert F.CycleStructure.parse_listing(cs.format_listing()) == cs


# Fuzzed text: keywords and fragments of all three formats, numbers, and
# characters that trip naive parsers (NUL, a non-ASCII digit, '#').  No
# token holds '/', so a circuit path stays inside the empty base directory.
TOKENS = ["STAGE", "FEEDBACK", "TABLE", "CIRCUIT", "INPUT", "AND", "OR",
          "NOT", "SINK", "v0", "v1", "v2", "v-1", "v", "0", "1", "2", "3",
          "01", "0110", "011", "-1", "+1", "x", ".", "..", "\x00",
          "١", "#", "0" * 40]
SEPARATORS = [" ", "\n", "\t", "\r\n", ""]


@st.composite
def fuzzed_text(draw):
    parts = draw(st.lists(st.one_of(
        st.sampled_from(TOKENS),
        st.text(alphabet=st.characters(exclude_characters="/"), max_size=4)),
        max_size=30))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(parts),
                         max_size=len(parts)))
    return "".join(p + s for p, s in zip(parts, seps))


VALID = ["STAGE 2\nFEEDBACK TABLE 0110\n",
         "STAGE 2\nFEEDBACK CIRCUIT\nv0 INPUT 0\nv1 INPUT 1\n"
         "v2 AND v0 v1\nv3 NOT v2\nSINK v3\n",
         "1 0\n1 1\n3 001\n3 011\n"]


@st.composite
def damaged_text(draw):
    """A valid text with one line replaced by fuzz, or fuzz inserted."""
    lines = draw(st.sampled_from(VALID)).splitlines()
    i = draw(st.integers(0, len(lines)))
    lines[i:i + draw(st.integers(0, 1))] = [draw(fuzzed_text())]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("empty"))


@FIXED
@given(st.one_of(fuzzed_text(), damaged_text()))
def test_parsers_raise_only_their_own_errors(empty_dir, text):
    for parse in (lambda t: F.parse_fsr(t, base_dir=empty_dir),
                  C.parse_circuit, F.CycleStructure.parse_listing):
        try:
            parse(text)
        except (F.FsrParseError, C.CircuitParseError):
            pass


def test_unreadable_circuit_paths_are_parse_errors(empty_dir):
    for path in ("a\x00b", ".", "missing.ckt"):
        with pytest.raises(F.FsrParseError, match="line 2: cannot read"):
            F.parse_fsr(f"STAGE 1\nFEEDBACK CIRCUIT {path}\n", base_dir=empty_dir)
