"""Classified 3D vector features: parsing, class selection and line closing.

Feature files hold one feature per line::

    class_id;KIND;x1 y1 z1,x2 y2 z2,...

where KIND is POINT, LINE or POLYGON.  Polygon rings must be explicitly
closed (first vertex equal to last); turning nearly-closed lines into
polygons is a separate step (:func:`close_lines`).  Coordinates are the
tokens Python's ``float()`` accepts; numpy's text parser converts them a
block of lines at a time.
"""

from __future__ import annotations

import enum
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .raster import bulk_floats, data_lines


class FeatureKind(enum.Enum):
    POINT = "POINT"
    LINE = "LINE"
    POLYGON = "POLYGON"


_KINDS = {kind.value: kind for kind in FeatureKind}

# Lines per block of parse_features, which makes one numpy conversion per
# block.  Blocks this small keep the parse's peak memory at that of the
# features it returns; larger ones were no faster.
_BLOCK_LINES = 256


class FeatureParseError(ValueError):
    """Malformed feature file input."""


@dataclass(frozen=True)
class ClassifiedFeature:
    """One vector feature with a thematic class id and 3D vertices.

    ``vertices`` is an (n, 3) float array of x, y, z.  POINT has one vertex,
    LINE at least two, POLYGON at least three with first == last.
    """

    class_id: int
    kind: FeatureKind
    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {verts.shape}")
        object.__setattr__(self, "vertices", verts)
        n = len(verts)
        if self.kind is FeatureKind.POINT and n != 1:
            raise ValueError(f"POINT needs exactly 1 vertex, got {n}")
        if self.kind is FeatureKind.LINE and n < 2:
            raise ValueError(f"LINE needs at least 2 vertices, got {n}")
        if self.kind is FeatureKind.POLYGON:
            if n < 3:
                raise ValueError(f"POLYGON needs at least 3 vertices, got {n}")
            if not np.array_equal(verts[0], verts[-1]):
                raise ValueError("POLYGON must be closed (first vertex == last)")


def parse_features(source) -> list[ClassifiedFeature]:
    """Parse a feature file from a string or open text stream.

    Blank lines and ``#`` comments are skipped.  Errors report the 1-based
    line number of the offending record; the first error in file order wins.
    The vertices of each block of lines are converted by one numpy call into
    a (V, 3) array whose slices become the features' vertices, or record by
    record with ``float()`` when numpy refuses the block.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    features = []
    numbered = enumerate(source, start=1)
    while block := list(itertools.islice(numbered, _BLOCK_LINES)):
        _parse_block(block, features)
    return features


def _parse_block(block: list[tuple[int, str]], features: list[ClassifiedFeature]) -> None:
    """Append the features of a block of numbered lines to ``features``."""
    records = []
    error = None
    for lineno, raw in block:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(";")
        if len(parts) != 3:
            error = FeatureParseError(
                f"line {lineno}: expected 'class;KIND;vertices', got {len(parts)} fields"
            )
            break
        cls_tok, kind_tok, verts_tok = map(str.strip, parts)
        try:
            class_id = int(cls_tok)
        except ValueError:
            error = FeatureParseError(f"line {lineno}: bad class id {cls_tok!r}")
            break
        kind = _KINDS.get(kind_tok.upper())
        if kind is None:
            error = FeatureParseError(f"line {lineno}: unknown kind {kind_tok!r}")
            break
        records.append((lineno, class_id, kind, verts_tok.split(",")))

    # A structural error raises only after the records before it have
    # passed their numeric and vertex-count checks.
    strings = [vtok for record in records for vtok in record[3]]
    coords = bulk_floats(strings, len(strings), 3)
    start = 0
    for lineno, class_id, kind, vtoks in records:
        if coords is None:
            vertices = _vertices(lineno, vtoks)
        else:
            vertices = coords[start : start + len(vtoks)]
            start += len(vtoks)
        try:
            features.append(ClassifiedFeature(class_id, kind, vertices))
        except ValueError as exc:
            raise FeatureParseError(f"line {lineno}: {exc}") from None
    if error is not None:
        raise error


def _vertices(lineno: int, vtoks: list[str]) -> np.ndarray:
    """One record's vertices converted with ``float()``, naming the first bad one."""
    vertices = []
    for vi, vtok in enumerate(vtoks):
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
    return np.array(vertices)


def read_class_selection(source) -> set[int]:
    """Read a class-selection file: one integer class id per line, # comments."""
    ids = set()
    for lineno, line in data_lines(source):
        try:
            ids.add(int(line))
        except ValueError:
            raise FeatureParseError(f"line {lineno}: bad class id {line!r}") from None
    return ids


def select_classes(
    features: list[ClassifiedFeature], class_ids: set[int]
) -> list[ClassifiedFeature]:
    """Keep features whose class id is in ``class_ids``, preserving order."""
    return [f for f in features if f.class_id in class_ids]


def close_lines(
    features: list[ClassifiedFeature], tolerance: float
) -> list[ClassifiedFeature]:
    """Convert LINE features with nearly coincident endpoints into POLYGONs.

    A LINE with at least three vertices whose endpoint xy-distance is within
    ``tolerance`` becomes a POLYGON with the last vertex snapped onto the
    first.  Other features pass through unchanged; order is preserved.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    out = []
    for f in features:
        if f.kind is FeatureKind.LINE and len(f.vertices) >= 3:
            gap = math.hypot(
                f.vertices[-1, 0] - f.vertices[0, 0],
                f.vertices[-1, 1] - f.vertices[0, 1],
            )
            if gap <= tolerance:
                verts = f.vertices.copy()
                verts[-1] = verts[0]
                out.append(ClassifiedFeature(f.class_id, FeatureKind.POLYGON, verts))
                continue
        out.append(f)
    return out
