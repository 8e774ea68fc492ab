"""Malformed input to the small text parsers raises each parser's own error.

The riverbed mask, hydrograph, class selection and scenario parsers are fed
drawn lines built from the tokens their formats use, and arbitrary text.  An
input either parses or raises the parser's error, naming the line where the
error belongs to one; never an IndexError, KeyError or TypeError.
"""

import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from swflood.boundary import read_riverbed_mask
from swflood.features import FeatureParseError, read_class_selection
from swflood.simulation import ConfigError, Scenario, load_scenario, read_hydrograph

NUMBERS = ["0", "1", "-2", "3.5", "1e3", "+4", "1_0", "١", "nan", "inf", "-inf",
           "99999999999999999999"]
JUNK = ["x", "#", "# note", "1,2", "=", "==", ";", "1;2", "\t", "0x1", ""]


def lines_of(tokens, max_tokens=4):
    """Text of up to 8 lines, each up to ``max_tokens`` drawn tokens."""
    line = st.lists(st.sampled_from(tokens), max_size=max_tokens).map(" ".join)
    return st.tuples(st.lists(line, max_size=8), st.sampled_from(["\n", "\r\n"])).map(
        lambda parts: parts[1].join(parts[0]))


ANY_TEXT = st.text(max_size=60)


def assert_names_a_line(exc, text, prefix="line "):
    """The message starts with ``prefix``, a line number of ``text`` and ': '."""
    match = re.match(re.escape(prefix) + r"(\d+): ", str(exc))
    assert match, str(exc)
    assert 1 <= int(match.group(1)) <= max(1, len(text.splitlines()))


@settings(max_examples=300, deadline=None)
@given(st.one_of(lines_of(NUMBERS + JUNK), ANY_TEXT))
def test_riverbed_mask_rejects_malformed_lines_with_its_error(text):
    try:
        cells = read_riverbed_mask(text)
    except ValueError as exc:
        assert type(exc) is ValueError
        assert_names_a_line(exc, text)
    else:
        assert all(isinstance(r, int) and isinstance(c, int) for r, c in cells)


HYDROGRAPH_SERIES_ERRORS = {
    "hydrograph needs at least one (t, Q) knot",
    "hydrograph times must be strictly increasing",
    "hydrograph discharge must be nonnegative",
}


@settings(max_examples=300, deadline=None)
@given(st.one_of(lines_of(NUMBERS + JUNK), ANY_TEXT))
def test_hydrograph_rejects_malformed_lines_with_its_error(text):
    try:
        hg = read_hydrograph(io.StringIO(text))
    except ValueError as exc:
        assert type(exc) is ValueError
        if str(exc) not in HYDROGRAPH_SERIES_ERRORS:
            assert_names_a_line(exc, text, prefix="hydrograph line ")
    else:
        assert hg.times.size >= 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(lines_of(NUMBERS + JUNK, max_tokens=2), ANY_TEXT))
def test_class_selection_rejects_malformed_lines_with_its_error(text):
    try:
        ids = read_class_selection(text)
    except FeatureParseError as exc:
        assert_names_a_line(exc, text)
    else:
        assert all(isinstance(i, int) for i in ids)


SCENARIO_KEYS = ["dsm", "output_dir", "total_duration", "snapshot_interval",
                 "spinup_duration", "spinup_q", "initial_h", "g", "manning_n", "cfl",
                 "h_dry", "dt_min", "dt_max", "nodata_walls", "riverbed_mask",
                 "hydrograph", "boundary.north", "boundary.west", "boundary.east",
                 "colour", ""]
SCENARIO_VALUES = NUMBERS + ["wall", "free_outflow", "discharge", "open", "true", "off",
                             "maybe", "a.asc", "out", "", "x = 1", "# c"]


@st.composite
def scenario_texts(draw):
    lines = ["dsm = a.asc", "output_dir = out", "total_duration = 10"]
    lines = [line for line in lines if draw(st.integers(0, 5))]
    for _ in range(draw(st.integers(0, 6))):
        sep = draw(st.sampled_from([" = ", "=", " ", " == ", " : "]))
        lines.append(draw(st.sampled_from(SCENARIO_KEYS)) + sep
                     + draw(st.sampled_from(SCENARIO_VALUES)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(scenario_texts(), st.text(st.characters(max_codepoint=126), max_size=60)))
def test_scenario_rejects_malformed_configs_with_its_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        scenario = load_scenario(path)
    except ConfigError as exc:
        # Errors of one line name it; errors of the whole file do not.
        if str(exc).startswith(f"{path}: "):
            assert_names_a_line(exc, text, prefix=f"{path}: line ")
    else:
        assert isinstance(scenario, Scenario)
