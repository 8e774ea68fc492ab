"""Tests for classified-feature parsing, the feature table, class selection
and line closing."""

import io
import math
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swflood import features
from swflood.features import (
    FeatureKind,
    FeatureParseError,
    FeatureTable,
    close_lines,
    parse_features,
    read_class_selection,
    select_classes,
)
from scenes import Feature, feature_table, features_of


def line(class_id, *xyz):
    return Feature(class_id, FeatureKind.LINE, np.array(xyz, dtype=float))


def columns(table):
    """The four columns of a table as plain values, dtypes included."""
    return (table.class_ids.dtype, table.class_ids.tolist(), table.kinds.dtype,
            table.kinds.tolist(), table.offsets.dtype, table.offsets.tolist(),
            table.vertices.dtype, table.vertices.shape, table.vertices.tobytes())


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
    table = parse_features(text)
    assert len(table) == 3
    assert table.class_ids.dtype == np.int64 and table.class_ids.tolist() == [7, 3, 9]
    assert table.kinds.tolist() == [FeatureKind.POINT, FeatureKind.LINE, FeatureKind.POLYGON]
    assert table.offsets.dtype == np.int64 and table.offsets.tolist() == [0, 1, 3, 7]
    np.testing.assert_array_equal(table.vertices[0:3], [[1.5, 2.5, 10.0], [0, 0, 1], [4, 0, 2]])
    assert table.vertices.shape == (7, 3) and table.vertices.dtype == np.float64


def test_parse_of_nothing_is_an_empty_table():
    for text in ("", "# only a comment\n\n"):
        table = parse_features(text)
        assert len(table) == 0
        assert table.offsets.tolist() == [0] and table.vertices.shape == (0, 3)


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


@pytest.mark.parametrize("token", ["9223372036854775808", "-9223372036854775809",
                                   "99999999999999999999"])
def test_parse_rejects_a_class_id_outside_int64(token):
    text = f"1;POINT;0 0 0\n{token};POINT;0 0 0\n"
    with pytest.raises(FeatureParseError,
                       match=f"^line 2: class id '{token}' is outside int64$"):
        parse_features(text)
    edge = "-9223372036854775808" if token.startswith("-") else "9223372036854775807"
    assert parse_features(f"{edge};POINT;0 0 0\n").class_ids.tolist() == [int(edge)]


def test_read_class_selection():
    ids = read_class_selection("3\n# comment\n17  # inline\n3\n")
    assert ids == {3, 17}
    with pytest.raises(FeatureParseError, match="line 2"):
        read_class_selection("1\nbuilding\n")


SEEDED_KINDS = ["POINT", "LINE", "POLYGON", "RING"]


def seeded_feature_text(rng, count):
    """``count`` records in the kind mix of the DSM benchmark: points, walls of
    2-4 vertices, and footprints of 5 vertices, closed or nearly closed."""
    lines = []
    for kind in rng.choice(SEEDED_KINDS, size=count, p=[0.35, 0.35, 0.25, 0.05]):
        n = {"POINT": 1, "LINE": int(rng.integers(2, 5))}.get(kind, 5)
        xyz = np.round(rng.uniform(0.0, 1000.0, size=(n, 3)), 3)
        if kind == "POLYGON":
            xyz[-1] = xyz[0]
        elif kind == "RING":
            xyz[-1] = xyz[0] + 0.03
        coords = ",".join(f"{x:.3f} {y:.3f} {z:.2f}" for x, y, z in xyz)
        lines.append(f"{rng.integers(1, 40)};{'LINE' if kind == 'RING' else kind};{coords}")
    return "\n".join(lines) + "\n"


def test_a_parsed_feature_set_holds_at_most_100_bytes_per_feature():
    # Four columns: 8 B of class id, 1 B of kind, 8 B of offset and 24 B per
    # vertex.  One frozen object per feature held about 305 B.
    text = seeded_feature_text(np.random.default_rng(131), 5000)
    tracemalloc.start()
    try:
        table = parse_features(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 5000
    assert held <= 100 * len(table), held / len(table)


# --------------------------------------------------------------------------
# The table and its one rule
# --------------------------------------------------------------------------


P, L, G = FeatureKind.POINT, FeatureKind.LINE, FeatureKind.POLYGON
SQUARE = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 0, 1)]


@pytest.mark.parametrize("bad, message", [
    ((7, P, [(0, math.nan, 0)]), "feature 1 (class 7) has a non-finite vertex"),
    ((7, G, [(0, 0, math.inf), (1, 0, 1), (2, 2, 0)]),
     "feature 1 (class 7) has a non-finite vertex"),
    ((7, P, [(0, 0, 0), (1, 1, 1)]), "feature 1 (class 7): POINT needs exactly 1 vertex, got 2"),
    ((7, L, [(0, 0, 0)]), "feature 1 (class 7): LINE needs at least 2 vertices, got 1"),
    ((7, G, [(0, 0, 0), (0, 0, 0)]),
     "feature 1 (class 7): POLYGON needs at least 3 vertices, got 2"),
    ((7, G, SQUARE[:3] + [(0, 0, 2)]),
     "feature 1 (class 7): POLYGON must be closed (first vertex == last)"),
])
def test_a_table_built_by_hand_keeps_the_rule(bad, message):
    # The rule the parser checks a block at a time; the first bad feature is named.
    with pytest.raises(ValueError) as info:
        feature_table((1, P, [(0, 0, 0)]), bad, bad, (2, L, [(0, 0, 0), (1, 1, 1)]))
    assert str(info.value) == message


def test_a_polygon_ring_closes_on_a_signed_zero():
    table = feature_table((1, G, [(0.0, -0.0, 1), (1, 0, 1), (1, 1, 1), (-0.0, 0.0, 1)]))
    assert table.kinds.tolist() == [G]


@pytest.mark.parametrize("columns_, fragment", [
    (([1], [P], [0, 2], [(0, 0, 0)]), "offsets must rise from 0"),
    (([1], [P], [1, 1], [(0, 0, 0)]), "offsets must rise from 0"),
    (([1, 2], [P, P], [0, 2, 1], [(0, 0, 0), (1, 1, 1)]), "offsets must rise from 0"),
    (([1], [5], [0, 1], [(0, 0, 0)]), "kind codes must be those of FeatureKind"),
    (([1], [P], [0, 1], [(0, 0)]), r"vertices must be \(V, 3\)"),
    (([1, 2], [P], [0, 1], [(0, 0, 0)]), "need F class ids, F kinds and F \\+ 1 offsets"),
])
def test_a_table_of_inconsistent_columns_is_refused(columns_, fragment):
    with pytest.raises(ValueError, match=fragment):
        FeatureTable(*columns_)


def test_indexing_a_table_picks_features_with_their_vertices():
    table = feature_table((1, P, [(0, 0, 0)]), (2, L, [(1, 1, 1), (2, 2, 2)]),
                          (3, G, SQUARE), (4, P, [(9, 9, 9)]))
    part = table[1:3]
    assert len(part) == 2 and part.class_ids.tolist() == [2, 3]
    assert part.offsets.tolist() == [0, 2, 6]
    picked = table[np.array([3, 1])]
    assert picked.class_ids.tolist() == [4, 2] and picked.offsets.tolist() == [0, 1, 3]
    np.testing.assert_array_equal(picked.vertices, [(9, 9, 9), (1, 1, 1), (2, 2, 2)])
    assert columns(table[table.class_ids > 2]) == columns(table[2:])
    assert len(table[3:1]) == 0 and table[3:1].offsets.tolist() == [0]
    assert columns(table[::-2]) == columns(table[np.array([3, 1])])


@pytest.mark.parametrize("index", [0, -1, np.int64(2), np.array([[0, 1]])])
def test_a_table_refuses_an_index_that_picks_no_list_of_features(index):
    table = feature_table((1, P, [(0, 0, 0)]), (2, P, [(1, 1, 1)]), (3, P, [(2, 2, 2)]))
    with pytest.raises(TypeError, match="index a FeatureTable with a slice"):
        table[index]


# --------------------------------------------------------------------------
# Selection and closing
# --------------------------------------------------------------------------


def test_select_classes_filters_and_preserves_order():
    feats = feature_table(line(5, (0, 0, 0), (1, 0, 0)),
                          line(2, (0, 0, 0), (1, 0, 0)),
                          line(5, (2, 2, 0), (3, 2, 0)))
    kept = select_classes(feats, {5})
    assert kept.class_ids.tolist() == [5, 5]
    np.testing.assert_array_equal(features_of(kept)[1].vertices[0], [2, 2, 0])
    assert len(select_classes(feats, set())) == 0
    # An id that int64 cannot hold matches nothing.
    assert select_classes(feats, {2, 2**70}).class_ids.tolist() == [2]


def test_close_lines_snaps_nearly_closed_ring():
    # Endpoint gap 0.05 in xy; tolerance 0.1 closes it onto the first vertex.
    f = feature_table(line(1, (0, 0, 4), (10, 0, 4), (10, 10, 4), (0.03, 0.04, 4)))
    before = columns(f)
    (out,) = features_of(close_lines(f, tolerance=0.1))
    assert out.kind is FeatureKind.POLYGON
    np.testing.assert_array_equal(out.vertices[-1], out.vertices[0])
    assert len(out.vertices) == 4
    # The input table is untouched.
    assert columns(f) == before


def test_close_lines_leaves_open_lines_alone():
    f = feature_table(line(1, (0, 0, 0), (10, 0, 0), (10, 10, 0)))  # gap ~14.1
    assert columns(close_lines(f, tolerance=0.1)) == columns(f)


def test_close_lines_gap_exactly_at_tolerance_closes():
    f = feature_table(line(1, (0, 0, 0), (5, 0, 0), (5, 5, 0), (0.1, 0, 0)))
    (out,) = features_of(close_lines(f, tolerance=0.1))
    assert out.kind is FeatureKind.POLYGON


def test_close_lines_ignores_z_gap():
    # Same xy endpoints but different z still closes; z snaps to the first.
    f = feature_table(line(1, (0, 0, 0), (5, 0, 1), (5, 5, 2), (0, 0, 9)))
    (out,) = features_of(close_lines(f, tolerance=0.0))
    assert out.kind is FeatureKind.POLYGON
    assert out.vertices[-1, 2] == 0.0


def test_close_lines_needs_three_vertices():
    # A two-vertex loop cannot become a polygon.
    f = feature_table(line(1, (0, 0, 0), (0.01, 0, 0)))
    assert columns(close_lines(f, tolerance=1.0)) == columns(f)


def test_close_lines_rejects_negative_tolerance():
    with pytest.raises(ValueError, match="non-negative"):
        close_lines(feature_table(), tolerance=-0.5)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_close_lines_rejects_a_tolerance_that_is_not_finite(tolerance):
    f = feature_table(line(1, (0, 0, 0), (1, 0, 0), (1, 1, 0), (0.01, 0, 0)))
    with pytest.raises(ValueError, match="finite and non-negative"):
        close_lines(f, tolerance=tolerance)


def test_close_lines_passes_points_and_polygons_through():
    p = feature_table((1, FeatureKind.POINT, [[1, 2, 3.0]]),
                      (1, FeatureKind.POLYGON, [(0, 0, 0), (9, 0, 0), (0, 0.01, 0), (0, 0, 0)]))
    assert columns(close_lines(p, tolerance=10.0)) == columns(p)


def nudged(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else 0.0)
    return value


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
             min_size=1, max_size=6),
    st.integers(0, 5), st.integers(-2, 2),
)
@example([(0.1, 0.0)], 0, 0)
@example([(3e-320, 4e-320), (0.0, 0.0)], 0, 0)
@example([(3e-320, 4e-320), (0.0, 0.0)], 1, 0)
@example([(1e300, 1e300), (-1e300, 1e300)], 0, -1)
@example([(5e-324, 0.0)], 0, -1)
def test_close_lines_decides_every_gap_as_math_hypot_does(ends, pick, steps):
    # The tolerance sits within two ulps of one line's own gap, where the sum
    # of squares and math.hypot may round to different sides.
    dx, dy = ends[pick % len(ends)]
    tolerance = nudged(math.hypot(dx, dy), steps)
    if not math.isfinite(tolerance):
        return
    table = feature_table(*(line(1, (0, 0, 0), (1, 1, 1), (x, y, 2)) for x, y in ends))
    closed = close_lines(table, tolerance).kinds == FeatureKind.POLYGON
    assert closed.tolist() == [math.hypot(x, y) <= tolerance for x, y in ends]


# --------------------------------------------------------------------------
# The block parser against a one-record-at-a-time parser
# --------------------------------------------------------------------------


def ref_parse_features(source):
    """Every check of a record, each coordinate converted with its own
    float(), before the next record is read."""
    if isinstance(source, str):
        source = io.StringIO(source)

    records = []
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
        if not -2**63 <= class_id < 2**63:
            raise FeatureParseError(f"line {lineno}: class id {cls_tok!r} is outside int64")
        kind = kind_tok.upper()
        if kind not in ("POINT", "LINE", "POLYGON"):
            raise FeatureParseError(f"line {lineno}: unknown kind {kind_tok!r}")

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

        n = len(vertices)
        if kind == "POINT" and n != 1:
            raise FeatureParseError(f"line {lineno}: POINT needs exactly 1 vertex, got {n}")
        if kind == "LINE" and n < 2:
            raise FeatureParseError(f"line {lineno}: LINE needs at least 2 vertices, got {n}")
        if kind == "POLYGON" and n < 3:
            raise FeatureParseError(f"line {lineno}: POLYGON needs at least 3 vertices, got {n}")
        if kind == "POLYGON" and vertices[0] != vertices[-1]:
            raise FeatureParseError(
                f"line {lineno}: POLYGON must be closed (first vertex == last)")
        records.append((class_id, FeatureKind[kind], vertices))
    return feature_table(*records)


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


# Whitespace that str.strip() strips and a text stream does not break a line at.
PADS = ["", "", " ", "\t", "\xa0", "\x85", "\u2028", "\x1c"]


def pad(draw, text):
    return draw(st.sampled_from(PADS)) + text + draw(st.sampled_from(PADS))


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
    # Half the records spell the kind in plain capitals, without padding.
    plain = draw(st.booleans())
    kind_tok = kind if plain else draw(st.sampled_from([kind, kind.lower(), kind.title()]))
    fields_extra = 0
    mangle = draw(st.sampled_from(RECORD_MANGLES)) if draw(st.integers(0, 3)) == 3 else None
    v = draw(st.integers(0, len(vertices) - 1))
    if mangle == "fields":
        fields_extra = draw(st.sampled_from([-1, 1]))
    elif mangle == "class":
        class_tok = draw(st.sampled_from(["x", "1.5", "", "1_0", "١٢", "+7", " 007",
                                          "9223372036854775807", "-9223372036854775808",
                                          "9223372036854775808", "-9223372036854775809",
                                          "99999999999999999999"]))
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
    fields = [pad(draw, class_tok), kind_tok if plain else pad(draw, kind_tok),
              ",".join(vertex_text)]
    if fields_extra < 0:
        fields.pop()
    elif fields_extra > 0:
        fields.append("x")
    return ";".join(fields)


@st.composite
def feature_texts(draw):
    """Records among blank and comment lines, each line ended by LF or CRLF,
    the last maybe by nothing."""
    lines = []
    for record in draw(st.lists(feature_records(), max_size=8)):
        while draw(st.integers(0, 4)) == 4:
            lines.append(draw(st.sampled_from(["", "   ", "# a comment", " #1;POINT;0 0 0"])))
        lines.append(record)
    endings = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in lines]
    if lines and draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + ending for line, ending in zip(lines, endings))


def parse_outcome(parse, text, as_stream):
    """The table's columns, or the exception's type and message.

    A warning counts as an exception.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feats = parse(io.StringIO(text) if as_stream else text)
    except Exception as exc:
        return type(exc), str(exc)
    return columns(feats)


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
@example("1;POINT;0 0 0\r\n2;LINE;0 0 0,1 1 1\r\n3;POLYGON;0 0 0,1 0 0,0 1 0,0 0 0", 2, False)
@example("1;POINT;0 0 0\n-9223372036854775809;POINT;0 0 0\n", 256, False)
@example("1;POINT;0 0 0\n2;POINT;1 1 1\n3;LINE;0 0 0,0 0 1\n4;POINT;0 0 0,1 1 1\n", 2, False)
@example("1;POINT;0 0 0;2\nPOINT;0 0 0\n", 256, False)
@example("0\x1c;POINT;0 0 0\n", 1, False)
def test_bulk_parse_matches_the_per_coordinate_parser(text, lines, as_stream):
    # The reference reads one record at a time.  Small blocks put records,
    # comments and errors on every side of a block edge.
    with patch.object(features, "_BLOCK_LINES", lines):
        got = parse_outcome(parse_features, text, as_stream)
    assert got == parse_outcome(ref_parse_features, text, as_stream)


@pytest.mark.parametrize("lines", [2, 256])
def test_every_valid_spelling_is_split_at_once(lines):
    # Blank, comment, CRLF, padded and lower- or title-case lines never reach
    # the line-by-line scan, which only names a malformed line.
    text = ("# walls and a roof\r\n\n 10 ; line ; 0.5 0.5 2 , 3.5 0.5 2\r\n"
            "\xa020\xa0;\xa0Polygon\xa0;\xa00 0 5,1 0 5,1 1 5,0 0 5\xa0\n"
            "   \n# 1;POINT;0 0 0\n30;point;1 2 3\r\n40;POINT;4 5 6")

    def scan(*args):
        raise AssertionError("a block of valid records was scanned line by line")

    with patch.object(features, "_BLOCK_LINES", lines), patch.object(features, "_malformed", scan):
        got = parse_features(text)
    assert columns(got) == columns(ref_parse_features(text))


def test_parse_reports_a_bad_coordinate_before_a_later_bad_class_id():
    text = "1;POINT;0 0 0\n\n2;LINE;0 0 0,1 q 1\n\nx;POINT;0 0 0\n"
    with pytest.raises(FeatureParseError, match="line 3: non-numeric coordinate in vertex 1"):
        parse_features(text)


def test_parse_rejects_a_regrouped_vertex_list():
    with pytest.raises(FeatureParseError, match="line 1: vertex 0 must be 'x y z', got '1 2'"):
        parse_features("1;LINE;1 2,3 4 5 6\n")
