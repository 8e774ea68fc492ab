"""Tests for classified-feature parsing, class selection and line closing."""

import io
import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swflood import features
from swflood.features import (
    ClassifiedFeature,
    FeatureKind,
    FeatureParseError,
    close_lines,
    parse_features,
    read_class_selection,
    select_classes,
)


def line(class_id, *xyz):
    return ClassifiedFeature(class_id, FeatureKind.LINE, np.array(xyz, dtype=float))


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


def test_parse_mixed_kinds():
    text = """
# survey extract
7;POINT;1.5 2.5 10
3;LINE;0 0 1,4 0 2
9;polygon;0 0 5,1 0 5,1 1 5,0 0 5
"""
    feats = parse_features(text)
    assert [f.class_id for f in feats] == [7, 3, 9]
    assert [f.kind for f in feats] == [
        FeatureKind.POINT, FeatureKind.LINE, FeatureKind.POLYGON,
    ]
    np.testing.assert_array_equal(feats[0].vertices, [[1.5, 2.5, 10.0]])
    np.testing.assert_array_equal(feats[1].vertices, [[0, 0, 1], [4, 0, 2]])


def test_parse_reports_line_numbers():
    text = "1;POINT;0 0 0\n\n2;BLOB;0 0 0\n"
    with pytest.raises(FeatureParseError, match="line 3: unknown kind 'BLOB'"):
        parse_features(text)


@pytest.mark.parametrize(
    "record, fragment",
    [
        ("1;POINT", "expected 'class;KIND;vertices'"),
        ("x;POINT;0 0 0", "bad class id"),
        ("1;POINT;0 0", "must be 'x y z'"),
        ("1;POINT;0 0 q", "non-numeric coordinate"),
        ("1;POINT;0 0 inf", "non-finite"),
        ("1;POINT;0 0 0,1 1 1", "exactly 1 vertex"),
        ("1;LINE;0 0 0", "at least 2"),
        ("1;POLYGON;0 0 0,1 1 1", "at least 3"),
        ("1;POLYGON;0 0 0,1 0 0,1 1 0,2 2 0", "closed"),
    ],
)
def test_parse_rejects_malformed_records(record, fragment):
    with pytest.raises(FeatureParseError, match=fragment):
        parse_features(record + "\n")


def test_read_class_selection():
    ids = read_class_selection("3\n# comment\n17  # inline\n3\n")
    assert ids == {3, 17}
    with pytest.raises(FeatureParseError, match="line 2"):
        read_class_selection("1\nbuilding\n")


# --------------------------------------------------------------------------
# Selection and closing
# --------------------------------------------------------------------------


def test_select_classes_filters_and_preserves_order():
    feats = [line(5, (0, 0, 0), (1, 0, 0)),
             line(2, (0, 0, 0), (1, 0, 0)),
             line(5, (2, 2, 0), (3, 2, 0))]
    kept = select_classes(feats, {5})
    assert [f.class_id for f in kept] == [5, 5]
    np.testing.assert_array_equal(kept[1].vertices[0], [2, 2, 0])
    assert select_classes(feats, set()) == []


def test_close_lines_snaps_nearly_closed_ring():
    # Endpoint gap 0.05 in xy; tolerance 0.1 closes it onto the first vertex.
    f = line(1, (0, 0, 4), (10, 0, 4), (10, 10, 4), (0.03, 0.04, 4))
    (out,) = close_lines([f], tolerance=0.1)
    assert out.kind is FeatureKind.POLYGON
    np.testing.assert_array_equal(out.vertices[-1], out.vertices[0])
    assert len(out.vertices) == 4
    # The input feature is untouched.
    assert f.kind is FeatureKind.LINE


def test_close_lines_leaves_open_lines_alone():
    f = line(1, (0, 0, 0), (10, 0, 0), (10, 10, 0))  # gap ~14.1
    assert close_lines([f], tolerance=0.1) == [f]


def test_close_lines_gap_exactly_at_tolerance_closes():
    f = line(1, (0, 0, 0), (5, 0, 0), (5, 5, 0), (0.1, 0, 0))
    (out,) = close_lines([f], tolerance=0.1)
    assert out.kind is FeatureKind.POLYGON


def test_close_lines_ignores_z_gap():
    # Same xy endpoints but different z still closes; z snaps to the first.
    f = line(1, (0, 0, 0), (5, 0, 1), (5, 5, 2), (0, 0, 9))
    (out,) = close_lines([f], tolerance=0.0)
    assert out.kind is FeatureKind.POLYGON
    assert out.vertices[-1, 2] == 0.0


def test_close_lines_needs_three_vertices():
    # A two-vertex loop cannot become a polygon.
    f = line(1, (0, 0, 0), (0.01, 0, 0))
    assert close_lines([f], tolerance=1.0) == [f]


def test_close_lines_rejects_negative_tolerance():
    with pytest.raises(ValueError, match="non-negative"):
        close_lines([], tolerance=-0.5)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_close_lines_rejects_a_tolerance_that_is_not_finite(tolerance):
    f = line(1, (0, 0, 0), (1, 0, 0), (1, 1, 0), (0.01, 0, 0))
    with pytest.raises(ValueError, match="finite and non-negative"):
        close_lines([f], tolerance=tolerance)


def test_close_lines_passes_points_and_polygons_through():
    p = ClassifiedFeature(1, FeatureKind.POINT, np.array([[1, 2, 3.0]]))
    assert close_lines([p], tolerance=10.0) == [p]


# --------------------------------------------------------------------------
# Bulk parsing against the per-coordinate parser
# --------------------------------------------------------------------------


def ref_parse_features(source):
    """The parser that converted every coordinate with its own float()."""
    if isinstance(source, str):
        source = io.StringIO(source)

    features = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(";")
        if len(parts) != 3:
            raise FeatureParseError(
                f"line {lineno}: expected 'class;KIND;vertices', got {len(parts)} fields"
            )
        cls_tok, kind_tok, verts_tok = (p.strip() for p in parts)
        try:
            class_id = int(cls_tok)
        except ValueError:
            raise FeatureParseError(f"line {lineno}: bad class id {cls_tok!r}") from None
        try:
            kind = FeatureKind(kind_tok.upper())
        except ValueError:
            raise FeatureParseError(f"line {lineno}: unknown kind {kind_tok!r}") from None

        vertices = []
        for vi, vtok in enumerate(verts_tok.split(",")):
            comps = vtok.split()
            if len(comps) != 3:
                raise FeatureParseError(
                    f"line {lineno}: vertex {vi} must be 'x y z', got {vtok.strip()!r}"
                )
            try:
                xyz = tuple(float(c) for c in comps)
            except ValueError:
                raise FeatureParseError(
                    f"line {lineno}: non-numeric coordinate in vertex {vi}: {vtok.strip()!r}"
                ) from None
            if not all(math.isfinite(c) for c in xyz):
                raise FeatureParseError(f"line {lineno}: non-finite coordinate in vertex {vi}")
            vertices.append(xyz)

        try:
            features.append(ClassifiedFeature(class_id, kind, np.array(vertices)))
        except ValueError as exc:
            raise FeatureParseError(f"line {lineno}: {exc}") from None
    return features


# Spellings float() accepts, some of which numpy's text parser refuses.
ODD_COORDS = [".5", "+.5", "5.", "-0", "-0.0", "+0", "1E-5", "5e-324", "1e-310", "1e300",
              "-1e300", "1.7976931348623157e308", "1_000", "١٢", "١.٥"]
BAD_COORDS = ["q", "NaN(1)", "nan()", "#", "0x10", "1e", "--1", "1,5", "\x00"]
NON_FINITE = ["inf", "-inf", "nan", "-nan", "Infinity", "1e400"]
COMP_SEPARATORS = [" ", "  ", "\t", "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
RECORD_MANGLES = ["fields", "class", "kind", "comps2", "comps4", "empty", "grouping",
                  "bad_coord", "non_finite", "count", "open_ring", "cr"]


@st.composite
def coord_tokens(draw):
    choice = draw(st.integers(0, 9))
    if choice == 9:
        return draw(st.sampled_from(ODD_COORDS))
    tok = format(draw(st.floats(-1e306, 1e306)),
                 f".{draw(st.integers(1, 17))}g")
    if choice == 8 and not tok.startswith("-"):
        tok = "+" + tok
    return tok


def pad(draw, text):
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def feature_records(draw):
    """One record line without its ending, well formed or mangled once."""
    kind = draw(st.sampled_from(["POINT", "LINE", "POLYGON"]))
    n = {"POINT": 1, "LINE": draw(st.integers(2, 4)), "POLYGON": draw(st.integers(3, 5))}[kind]
    vertices = [[draw(coord_tokens()) for _ in range(3)] for _ in range(n)]
    if kind == "POLYGON":
        # A closed ring: the last vertex repeats the first, maybe spelled otherwise.
        vertices[-1] = [repr(float(c)) if draw(st.booleans()) else c for c in vertices[0]]
    class_tok = str(draw(st.integers(-5, 99)))
    kind_tok = draw(st.sampled_from([kind, kind.lower(), kind.title()]))
    fields_extra = 0
    mangle = draw(st.sampled_from(RECORD_MANGLES)) if draw(st.integers(0, 3)) == 3 else None
    v = draw(st.integers(0, len(vertices) - 1))
    if mangle == "fields":
        fields_extra = draw(st.sampled_from([-1, 1]))
    elif mangle == "class":
        class_tok = draw(st.sampled_from(["x", "1.5", "", "1_0", "١٢", "+7", " 007"]))
    elif mangle == "kind":
        kind_tok = draw(st.sampled_from(["BLOB", "", "POINTS"]))
    elif mangle == "comps2":
        vertices[v].pop()
    elif mangle == "comps4":
        vertices[v].append(draw(coord_tokens()))
    elif mangle == "empty":
        vertices.insert(v, [])
    elif mangle == "grouping" and len(vertices) > 1:
        # "1 2,3 4 5 6": right component count in all, wrong in each vertex.
        vertices[v + 1 if v + 1 < len(vertices) else v - 1].insert(0, vertices[v].pop())
    elif mangle == "bad_coord":
        vertices[v][draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_COORDS))
    elif mangle == "non_finite":
        vertices[v][draw(st.integers(0, 2))] = draw(st.sampled_from(NON_FINITE))
    elif mangle == "count":
        if draw(st.booleans()) and len(vertices) > 1:
            vertices.pop(v)
        else:
            vertices.insert(v, list(vertices[v]))
    elif mangle == "open_ring":
        vertices[-1] = [draw(coord_tokens()) for _ in range(3)]
    vertex_text = [pad(draw, draw(st.sampled_from(COMP_SEPARATORS)).join(c)) for c in vertices]
    if mangle == "cr":
        vertex_text[v] = vertex_text[v].replace(" ", "\r", 1)
    fields = [pad(draw, class_tok), pad(draw, kind_tok), ",".join(vertex_text)]
    if fields_extra < 0:
        fields.pop()
    elif fields_extra > 0:
        fields.append("x")
    return ";".join(fields)


@st.composite
def feature_texts(draw):
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for record in draw(st.lists(feature_records(), max_size=6)):
        while draw(st.integers(0, 4)) == 4:
            lines.append(draw(st.sampled_from(["", "   ", "# a comment", " #1;POINT;0 0 0"])))
        lines.append(record)
    text = ending.join(lines)
    return text + ending if draw(st.booleans()) else text


def parse_outcome(parse, text, as_stream):
    """Class ids, kinds and vertex bytes, or the exception's type and message.

    A warning counts as an exception.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feats = parse(io.StringIO(text) if as_stream else text)
    except Exception as exc:
        return type(exc), str(exc)
    return [(f.class_id, f.kind, f.vertices.dtype, f.vertices.shape, f.vertices.tobytes())
            for f in feats]


@settings(max_examples=600, deadline=None)
@given(feature_texts(), st.sampled_from([1, 2, 3, 256]), st.booleans())
@example("1;LINE;1 2,3 4 5 6\n", 256, False)
@example("1;POINT;0 0 q\n\n2;BLOB;0 0 0\n", 256, True)
@example("1;POINT;0 0 0\n2;LINE;0 0 0,1 1 inf\n3;POINT;0 0 0\nx;POINT;0 0 0\n", 2, False)
@example("1;POINT;0 0 0,1 1 1\n2;POINT\n", 256, False)
@example("1;LINE;0 0 0,,1 1 1\n", 256, False)
@example("1;POINT;\n", 256, True)
@example("1;LINE; , \n", 256, True)
@example("1;LINE;0 0 0\n", 256, False)
@example("1;LINE;1_000 2 3,4 5 ١٢\n2;POINT;1 2\r3\n", 256, True)
def test_bulk_parse_matches_the_per_coordinate_parser(text, lines, as_stream):
    # Small blocks put records, comments and errors on every side of a block edge.
    with patch.object(features, "_BLOCK_LINES", lines):
        got = parse_outcome(parse_features, text, as_stream)
    assert got == parse_outcome(ref_parse_features, text, as_stream)


def test_parse_reports_a_bad_coordinate_before_a_later_bad_class_id():
    text = "1;POINT;0 0 0\n\n2;LINE;0 0 0,1 q 1\n\nx;POINT;0 0 0\n"
    with pytest.raises(FeatureParseError, match="line 3: non-numeric coordinate in vertex 1"):
        parse_features(text)


def test_parse_rejects_a_regrouped_vertex_list():
    with pytest.raises(FeatureParseError, match="line 1: vertex 0 must be 'x y z', got '1 2'"):
        parse_features("1;LINE;1 2,3 4 5 6\n")
