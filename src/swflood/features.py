"""Classified 3D vector features: parsing, class selection and line closing.

Feature files hold one feature per line::

    class_id;KIND;x1 y1 z1,x2 y2 z2,...

where KIND is POINT, LINE or POLYGON in any letter case, and each field may
be padded with whitespace.  Polygon rings must be explicitly
closed (first vertex equal to last); turning nearly-closed lines into
polygons is a separate step (:func:`close_lines`).  Coordinates are the
tokens Python's ``float()`` accepts; numpy's text parser converts them a
block of lines at a time.

Features are held as one :class:`FeatureTable`: four arrays, not one object
per feature.  One vectorized rule says what a valid feature is (finite
coordinates, the vertex count of its kind, a closed polygon ring).  It runs
on each block of a parsed file and on every table built by hand; the tables
that selection, closing and slicing derive from a valid table keep it.
"""

from __future__ import annotations

import enum
import io
import itertools
import math

import numpy as np

from .raster import bulk_floats, data_lines


class FeatureKind(enum.IntEnum):
    """The kind codes of ``FeatureTable.kinds``."""

    POINT = 0
    LINE = 1
    POLYGON = 2


_KINDS = {kind.name: kind.value for kind in FeatureKind}
# Fewest vertices of each kind, by code; a POINT has exactly one.
_MIN_VERTICES = np.array([1, 2, 3])
_INT64 = np.iinfo(np.int64)

# Lines per block of parse_features, which makes one numpy conversion and
# one check of the rule per block.  On 20k features, blocks of 1024 lines
# parsed about 10% faster than blocks of 256, at the same peak memory;
# blocks of 4096 were no faster and raised the peak.
_BLOCK_LINES = 1024

# The codes of _violation's reasons, from the last in the rule's order.
_OPEN_RING, _VERTEX_COUNT, _NON_FINITE = 3, 2, 1


class FeatureParseError(ValueError):
    """Malformed feature file input."""


class FeatureTable:
    """Classified 3D vector features as columns.

    Feature i has the class id ``class_ids[i]`` (int64), the kind
    ``FeatureKind(kinds[i])`` (int8 codes) and the vertices
    ``vertices[offsets[i]:offsets[i + 1]]``, rows of x, y, z in one (V, 3)
    float64 array; ``offsets`` (int64) rises from 0 to V.  Every coordinate
    is finite, a POINT has one vertex, a LINE at least two and a POLYGON at
    least three with its first equal to its last.  The constructor checks
    that rule and raises ValueError naming the first feature that breaks it.

    ``len()`` counts the features.  Indexing with a slice, an index array or
    a boolean mask gives a table of copies of the features it picks.
    """

    __slots__ = ("class_ids", "kinds", "offsets", "vertices")

    def __init__(self, class_ids, kinds, offsets, vertices):
        class_ids = np.asarray(class_ids, dtype=np.int64)
        kinds = np.asarray(kinds)
        offsets = np.asarray(offsets, dtype=np.int64)
        vertices = np.asarray(vertices, dtype=np.float64)
        n = len(class_ids)
        if class_ids.shape != (n,) or kinds.shape != (n,) or offsets.shape != (n + 1,):
            raise ValueError(
                f"need F class ids, F kinds and F + 1 offsets, got {class_ids.shape}, "
                f"{kinds.shape} and {offsets.shape}"
            )
        if not np.isin(kinds, list(FeatureKind)).all():
            raise ValueError(f"kind codes must be those of FeatureKind, got {np.unique(kinds)}")
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {vertices.shape}")
        if offsets[0] != 0 or offsets[-1] != len(vertices) or (np.diff(offsets) < 0).any():
            raise ValueError(f"offsets must rise from 0 to the {len(vertices)} vertices")
        kinds = kinds.astype(np.int8)
        found = _violation(kinds, offsets, vertices)
        if found is not None:
            i, code = found
            if code == _NON_FINITE:
                raise ValueError(f"feature {i} (class {class_ids[i]}) has a non-finite vertex")
            raise ValueError(f"feature {i} (class {class_ids[i]}): "
                             f"{_reason(code, kinds[i], offsets[i + 1] - offsets[i])}")
        self.class_ids, self.kinds, self.offsets, self.vertices = (
            class_ids, kinds, offsets, vertices)

    def __len__(self) -> int:
        return len(self.class_ids)

    def __getitem__(self, index) -> FeatureTable:
        # A slice costs the features it picks, not the whole table, so
        # build_dsm's batches add up to one pass over the features.
        if isinstance(index, slice):
            picked = np.arange(*index.indices(len(self)))
        else:
            picked = np.arange(len(self))[index]
        if picked.ndim != 1:
            raise TypeError("index a FeatureTable with a slice, an index array or a mask")
        starts = self.offsets[picked]
        counts = self.offsets[picked + 1] - starts
        offsets = _offsets(counts)
        rows = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts)
        return _table(self.class_ids[picked], self.kinds[picked], offsets, self.vertices[rows])


def _table(class_ids, kinds, offsets, vertices) -> FeatureTable:
    """A FeatureTable of arrays already known to keep the rule, left unchecked."""
    table = FeatureTable.__new__(FeatureTable)
    table.class_ids, table.kinds, table.offsets, table.vertices = (
        class_ids, kinds, offsets, vertices)
    return table


def _offsets(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _violation(kinds, offsets, vertices) -> tuple[int, int] | None:
    """(index, reason code) of the first feature that breaks the rule, or None.

    The rule, in the order a feature's reason is chosen: every coordinate is
    finite; a POINT has exactly one vertex, a LINE at least two, a POLYGON at
    least three; a POLYGON's first vertex equals its last.
    """
    counts = np.diff(offsets)
    # Each code overwrites the ones after it in the rule's order.
    reason = np.zeros(len(kinds), dtype=np.int8)
    ring = np.flatnonzero((kinds == FeatureKind.POLYGON) & (counts >= 3))
    reason[ring[(vertices[offsets[ring]] != vertices[offsets[ring + 1] - 1]).any(axis=1)]] = (
        _OPEN_RING)
    reason[np.where(kinds == FeatureKind.POINT, counts != 1,
                    counts < _MIN_VERTICES[kinds])] = _VERTEX_COUNT
    if not np.isfinite(vertices).all():
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        reason[np.searchsorted(offsets, bad, side="right") - 1] = _NON_FINITE
    flagged = np.flatnonzero(reason)
    if not len(flagged):
        return None
    return int(flagged[0]), int(reason[flagged[0]])


def _reason(code: int, kind: int, n: int) -> str:
    """The message of a feature of ``kind`` and ``n`` vertices that _violation flags with ``code``.

    Only count and closure codes reach it: the constructor words a non-finite
    vertex itself, and the parser refuses one before the rule runs.
    """
    kind = FeatureKind(int(kind))
    if code == _OPEN_RING:
        return "POLYGON must be closed (first vertex == last)"
    if kind is FeatureKind.POINT:
        return f"POINT needs exactly 1 vertex, got {n}"
    return f"{kind.name} needs at least {_MIN_VERTICES[kind]} vertices, got {n}"


def parse_features(source) -> FeatureTable:
    """Parse a feature file from a string or open text stream.

    Blank lines and ``#`` comments are skipped.  Errors report the 1-based
    line number of the offending record; the first error in file order wins.
    Each block of _BLOCK_LINES lines is split by one ``str.split``, converted
    by one numpy call and checked by the rule as a whole.  Only a block with
    a malformed line is scanned line by line, to name that line.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    # An empty block first gives each column its dtype, even for an empty file.
    blocks = [(np.empty(0, np.int64), np.empty(0, np.int8), np.empty(0, np.int64),
               np.empty((0, 3)))]
    first = 1
    while lines := list(itertools.islice(source, _BLOCK_LINES)):
        blocks.append(_parse_block(lines, first))
        first += len(lines)
    class_ids, kinds, counts, vertices = map(np.concatenate, zip(*blocks))
    return _table(class_ids, kinds, _offsets(counts), vertices)


def _parse_block(lines: list[str], first: int):
    """(class ids, kind codes, vertex counts, vertices) of the records of
    ``lines``, whose first is line ``first``; raises the first error."""
    lines = list(map(str.strip, lines))
    linenos = range(first, first + len(lines))
    records, error = _records(lines), None
    if records is None:
        # A blank or comment line is no record, so only a block that has one
        # (or a malformed line) drops them.
        kept = [i for i, line in enumerate(lines) if line and line[0] != "#"]
        lines, linenos = [lines[i] for i in kept], [linenos[i] for i in kept]
        records = _records(lines)
    if records is None:
        bad, error = _malformed(lines, linenos)
        records, linenos = _records(lines[:bad]), linenos[:bad]
    class_ids, kinds, vtoks, counts = records
    offsets = _offsets(counts)
    vertices = bulk_floats(vtoks, len(vtoks), 3)
    if vertices is None:
        # float() each record's vertices; a conversion error ends the block
        # there, after the records before it have passed the rule.
        flat = []
        for i, lineno in enumerate(linenos):
            try:
                _vertices(lineno, vtoks[offsets[i] : offsets[i + 1]], flat)
            except FeatureParseError as exc:
                kinds, offsets, error = kinds[:i], offsets[: i + 1], exc
                break
        vertices = np.array(flat, dtype=np.float64).reshape(-1, 3)
    found = _violation(kinds, offsets, vertices)
    if found is not None:
        i, code = found
        raise FeatureParseError(
            f"line {linenos[i]}: {_reason(code, kinds[i], offsets[i + 1] - offsets[i])}")
    if error is not None:
        raise error
    return class_ids, kinds, counts, vertices


def _records(lines: list[str]):
    """(class ids, kind codes, vertex tokens, vertex counts) of the stripped
    ``lines``, split by one ``str.split``, or None if one is not a record.

    A record has exactly two ``;``, a class id that ``int()`` reads and int64
    holds, and a kind in any letter case; its fields may be padded.
    """
    n = len(lines)
    if not n:
        return np.empty(0, np.int64), np.empty(0, np.int8), [], np.empty(0, np.int64)
    if list(map(str.count, lines, itertools.repeat(";", n))) != [2] * n:
        return None
    fields = ";".join(lines).split(";")
    try:
        # int() refuses U+001C-U+001F, which str.strip() removes, as _malformed does.
        class_ids = list(map(int, map(str.strip, fields[0::3])))
    except ValueError:
        return None
    # Checked here: numpy before 2.0 wraps an int outside int64, with a warning.
    if min(class_ids) < _INT64.min or max(class_ids) > _INT64.max:
        return None
    kinds = list(map(_KINDS.get, map(str.upper, map(str.strip, fields[1::3]))))
    if None in kinds:
        return None
    verts = fields[2::3]
    counts = np.array(list(map(str.count, verts, itertools.repeat(",", n))), dtype=np.int64)
    return (np.array(class_ids, dtype=np.int64), np.array(kinds, dtype=np.int8),
            ",".join(verts).split(","), counts + 1)


def _malformed(lines: list[str], linenos) -> tuple[int, FeatureParseError]:
    """(index, error) of the first line of ``lines`` with a malformed field
    count, class id or kind; there is one, since _records refused them."""
    for i, (lineno, line) in enumerate(zip(linenos, lines)):
        parts = line.split(";")
        if len(parts) != 3:
            return i, FeatureParseError(
                f"line {lineno}: expected 'class;KIND;vertices', got {len(parts)} fields"
            )
        cls_tok, kind_tok = parts[0].strip(), parts[1].strip()
        try:
            class_id = int(cls_tok)
        except ValueError:
            return i, FeatureParseError(f"line {lineno}: bad class id {cls_tok!r}")
        if not _INT64.min <= class_id <= _INT64.max:
            return i, FeatureParseError(f"line {lineno}: class id {cls_tok!r} is outside int64")
        if kind_tok.upper() not in _KINDS:
            return i, FeatureParseError(f"line {lineno}: unknown kind {kind_tok!r}")


def _vertices(lineno: int, vtoks: list[str], flat: list[float]) -> None:
    """Append one record's coordinates to ``flat`` with ``float()``, naming the first bad vertex."""
    for vi, vtok in enumerate(vtoks):
        comps = vtok.split()
        if len(comps) != 3:
            raise FeatureParseError(
                f"line {lineno}: vertex {vi} must be 'x y z', got {vtok.strip()!r}"
            )
        try:
            xyz = [float(c) for c in comps]
        except ValueError:
            raise FeatureParseError(
                f"line {lineno}: non-numeric coordinate in vertex {vi}: {vtok.strip()!r}"
            ) from None
        if not all(map(math.isfinite, xyz)):
            raise FeatureParseError(f"line {lineno}: non-finite coordinate in vertex {vi}")
        flat.extend(xyz)


def read_class_selection(source) -> set[int]:
    """Read a class-selection file: one integer class id per line, # comments."""
    ids = set()
    for lineno, line in data_lines(source):
        try:
            ids.add(int(line))
        except ValueError:
            raise FeatureParseError(f"line {lineno}: bad class id {line!r}") from None
    return ids


def select_classes(features: FeatureTable, class_ids) -> FeatureTable:
    """The features whose class id is in ``class_ids``, in their order.

    An id that int64 cannot hold matches no feature.
    """
    wanted = [c for c in class_ids if _INT64.min <= c <= _INT64.max]
    return features[np.isin(features.class_ids, np.array(wanted, dtype=np.int64))]


def close_lines(features: FeatureTable, tolerance: float) -> FeatureTable:
    """Convert LINE features with nearly coincident endpoints into POLYGONs.

    A LINE with at least three vertices whose endpoint xy-distance
    ``math.hypot(dx, dy)`` is within ``tolerance`` becomes a POLYGON with the
    last vertex snapped onto the first.  Other features pass through
    unchanged; order is preserved, and ``features`` is not changed.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    start, stop = features.offsets[:-1], features.offsets[1:] - 1
    lines = np.flatnonzero((features.kinds == FeatureKind.LINE) & (stop - start >= 2))
    with np.errstate(over="ignore"):  # an overflow gives the inf Python's float gives
        gap = features.vertices[stop[lines], :2] - features.vertices[start[lines], :2]
    hypot = np.fromiter(map(math.hypot, gap[:, 0].tolist(), gap[:, 1].tolist()),
                        np.float64, len(lines))
    lines = lines[hypot <= tolerance]
    if not len(lines):
        return features
    kinds = features.kinds.copy()
    kinds[lines] = FeatureKind.POLYGON
    vertices = features.vertices.copy()
    vertices[stop[lines]] = vertices[start[lines]]
    return _table(features.class_ids, kinds, features.offsets, vertices)

