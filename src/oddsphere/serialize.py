"""JSON documents for complexes, families, points, verdicts, and reports.

Rationals travel as lowest-terms "p/q" strings so round trips are
bit-exact; all vertex arrays are sorted ascending and 1-based.  `dumps`
is byte-stable: same document in, same bytes out.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .catalog import CatalogReport
from .complexes import NonFaceFamily, SimplicialComplex, _clip
from .oracle import PointConfiguration
from .recognizer import Certificate, NotSphere, OutOfScope, Sphere, Verdict


class DocumentError(ValueError):
    """The JSON document is malformed or violates a type invariant."""


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def fraction_to_str(x: Fraction) -> str:
    if type(x) is not int and type(x) is not Fraction:
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def fraction_from_str(s) -> Fraction:
    """A rational from a "p/q", integer or decimal string, or a JSON integer.

    Exponents are refused: "1e1000000" is nine characters whose value has a
    million digits, so accepting them would make the work unbounded in the
    size of the document.
    """
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise DocumentError(f"bad rational {_clip(repr(s))}: exponents are not accepted")
    try:
        if isinstance(s, str) or (isinstance(s, int) and not isinstance(s, bool)):
            return Fraction(s)
    except ZeroDivisionError as exc:
        raise DocumentError(f"bad rational {_clip(repr(s))}: zero denominator") from exc
    except ValueError as exc:
        raise DocumentError(f"bad rational {_clip(repr(s))}: {_clip(str(exc))}") from exc
    raise DocumentError(f"rationals must be 'p/q' strings, got {_clip(repr(s))}")


def _require(doc, key, kind, what):
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} document must be a JSON object")
    if key not in doc:
        raise DocumentError(f"{what} document is missing {key!r}")
    value = doc[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise DocumentError(f"{what}.{key} must be an integer")
    if kind is list and not isinstance(value, list):
        raise DocumentError(f"{what}.{key} must be an array")
    return value


def _rows(value, what) -> list:
    # The constructors check the labels, each once.
    if not all(isinstance(row, list) for row in value):
        raise DocumentError(f"{what} must be arrays of integers")
    return value


def complex_to_doc(c: SimplicialComplex) -> dict:
    return {"m": c.m, "facets": [list(f) for f in c.facets]}


def complex_from_doc(doc) -> SimplicialComplex:
    m = _require(doc, "m", int, "complex")
    facets = _rows(_require(doc, "facets", list, "complex"), "complex.facets")
    try:
        return SimplicialComplex(m, facets)
    except ValueError as exc:
        raise DocumentError(f"invalid complex: {exc}") from exc


def family_to_doc(f: NonFaceFamily) -> dict:
    return {"m": f.m, "nonfaces": [list(a) for a in f.members]}


def family_from_doc(doc) -> NonFaceFamily:
    m = _require(doc, "m", int, "non-face")
    members = _rows(_require(doc, "nonfaces", list, "non-face"), "nonfaces")
    try:
        return NonFaceFamily(m, members)
    except ValueError as exc:
        raise DocumentError(f"invalid non-face family: {exc}") from exc


def points_to_doc(pc: PointConfiguration) -> dict:
    """The points as rows of "p/q" strings, each entry a/L of a point's row (a, L) in lowest terms.

    The rows are `PointConfiguration._rows`; the strings are those
    `fraction_to_str` prints for the points, and no `Fraction` is built.
    """
    points = []
    for *coords, scale in pc._rows:
        gcds = [math.gcd(a, scale) for a in coords]
        points.append([f"{a // g}/{scale // g}" for a, g in zip(coords, gcds)])
    return {"dim": pc.dim, "points": points}


def points_from_doc(doc) -> PointConfiguration:
    dim = _require(doc, "dim", int, "points")
    rows = _require(doc, "points", list, "points")
    points = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"each point must be an array of {dim} rationals")
        points.append(tuple(fraction_from_str(x) for x in row))
    try:
        return PointConfiguration(tuple(points))
    except ValueError as exc:
        raise DocumentError(f"invalid point configuration: {exc}") from exc


def certificate_to_doc(cert: Certificate) -> dict:
    kind = ("simplex_boundary", "two_partition", "max_odd_cycle")[min(cert.n, 3) - 1]
    doc = {"kind": kind, "ordering": [list(a) for a in cert.ordering]}
    if cert.n >= 3:
        doc["blocks"] = [list(b) for b in cert.blocks]
    return doc


def verdict_to_doc(v: Verdict) -> dict:
    if isinstance(v, Sphere):
        return {"verdict": "sphere", "d": v.d, "certificate": certificate_to_doc(v.certificate)}
    if isinstance(v, NotSphere):
        return {"verdict": "not_sphere", "reason": v.reason.value}
    if isinstance(v, OutOfScope):
        reason = f"complex has m={v.m} vertices and dimension d={v.d}; m - d >= 5"
        return {"verdict": "out_of_scope", "d": v.d, "reason": reason}
    raise TypeError(f"unknown verdict {v!r}")


def betti_to_doc(profile: tuple[int, ...]) -> dict:
    return {"reduced_betti": list(profile)}


def catalog_to_doc(report: CatalogReport) -> dict:
    return {
        "m": report.m,
        "classes": [
            {
                "bracelet": list(cls.bracelet),
                "f_vector": list(cls.f_vector),
                "nonfaces": [list(a) for a in cls.family.members],
                "blocks": [list(b) for b in cls.certificate.blocks],
            }
            for cls in report.classes
        ],
    }
