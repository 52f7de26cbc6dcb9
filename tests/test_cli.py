"""JSON documents and the command-line front end."""

import argparse
import contextlib
import errno
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddsphere import cli, complexes, oracle, serialize
from oddsphere.catalog import CatalogVerificationError, catalog, enumerate_bracelets, instantiate
from oddsphere.complexes import NonFaceFamily, complex_from_nonfaces, minimal_nonfaces
from oddsphere.oracle import PointConfiguration
from oddsphere.recognizer import Certificate, InternalInconsistency, recognize
from tests_shared import nonface_families, one_and_two_blocks, random_points, simplicial_complexes

PENTAGON_DOC = {"m": 5, "nonfaces": [[1, 4], [2, 5], [1, 3], [2, 4], [3, 5]]}
SIX_CYCLE_DOC = {"m": 6, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]}


def run_cli(args, stdin_doc=None):
    proc = subprocess.run(
        [sys.executable, "-m", "oddsphere.cli", *args],
        input=json.dumps(stdin_doc) if stdin_doc is not None else None,
        capture_output=True,
        text=True,
    )
    return proc


# -- document round trips -----------------------------------------------------

def test_complex_doc_roundtrip():
    c = complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))))
    doc = serialize.complex_to_doc(c)
    assert serialize.complex_from_doc(json.loads(json.dumps(doc))) == c


def test_family_doc_roundtrip():
    f = NonFaceFamily(5, ((1, 4), (2, 5), (1, 3), (2, 4), (3, 5)))
    doc = serialize.family_to_doc(f)
    assert serialize.family_from_doc(json.loads(json.dumps(doc))) == f


def test_points_doc_roundtrip_is_bit_exact():
    pc = PointConfiguration(((Fraction(1, 3), Fraction(-7, 2)), (Fraction(0), Fraction(22, 7))))
    doc = serialize.points_to_doc(pc)
    assert doc["points"][0] == ["1/3", "-7/2"]
    assert serialize.points_from_doc(json.loads(json.dumps(doc))) == pc


def through_json(doc):
    return json.loads(serialize.dumps(doc))


@settings(deadline=None, max_examples=60)
@given(simplicial_complexes(max_m=9))
def test_property_complex_doc_round_trips(c):
    doc = serialize.complex_to_doc(c)
    back = serialize.complex_from_doc(through_json(doc))
    assert back == c and serialize.complex_to_doc(back) == doc


@settings(deadline=None, max_examples=60)
@given(nonface_families(max_m=9))
def test_property_family_doc_round_trips(f):
    doc = serialize.family_to_doc(f)
    back = serialize.family_from_doc(through_json(doc))
    assert back == f and serialize.family_to_doc(back) == doc


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.fractions(max_denominator=10**12) | st.integers(-(10**40), 10**40), min_size=d, max_size=d),
    min_size=1, max_size=8,
)))
def test_property_points_doc_round_trips_bit_exactly(rows):
    pc = PointConfiguration(tuple(map(tuple, rows)))
    doc = serialize.points_to_doc(pc)
    back = serialize.points_from_doc(through_json(doc))
    assert back == pc and serialize.dumps(serialize.points_to_doc(back)) == serialize.dumps(doc)


def test_fraction_strings_lowest_terms():
    assert serialize.fraction_to_str(Fraction(4, 8)) == "1/2"
    assert serialize.fraction_from_str("6/4") == Fraction(3, 2)
    with pytest.raises(serialize.DocumentError):
        serialize.fraction_from_str("1/0")
    with pytest.raises(serialize.DocumentError):
        serialize.fraction_from_str(1.5)
    assert serialize.fraction_from_str("-7") == Fraction(-7)
    assert serialize.fraction_from_str("0.125") == Fraction(1, 8)
    assert serialize.fraction_from_str(12) == Fraction(12)
    for text in ("1e1000000", "1E5", "2.5e-3", "-3/4e2"):
        with pytest.raises(serialize.DocumentError, match="exponent"):
            serialize.fraction_from_str(text)


def test_hull_refuses_an_exponent_before_any_work(monkeypatch, capsys):
    doc = {"dim": 1, "points": [["0"], ["1e1000000"]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["hull"]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad rational '1e1000000': exponents are not accepted\n"


def test_document_errors():
    with pytest.raises(serialize.DocumentError):
        serialize.complex_from_doc({"facets": [[1, 2]]})  # missing m
    with pytest.raises(serialize.DocumentError):
        serialize.family_from_doc({"m": 4, "nonfaces": [[1], [2, 3]]})  # singleton
    with pytest.raises(serialize.DocumentError):
        serialize.points_from_doc({"dim": 2, "points": [["1/2"]]})  # short row


def test_dumps_is_stable():
    doc = serialize.verdict_to_doc(recognize(complex_from_nonfaces(
        NonFaceFamily(5, ((1, 4), (2, 5), (1, 3), (2, 4), (3, 5))))))
    assert serialize.dumps(doc) == serialize.dumps(json.loads(serialize.dumps(doc)))


# -- CLI ------------------------------------------------------------------------

def test_check_pentagon_exits_zero():
    proc = run_cli(["check"], PENTAGON_DOC)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "sphere" and doc["d"] == 1
    assert doc["certificate"]["blocks"] == [[1], [2], [3], [4], [5]]


def test_check_out_of_scope_exits_two():
    proc = run_cli(["check"], SIX_CYCLE_DOC)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["verdict"] == "out_of_scope"


def test_check_not_sphere_exits_one():
    doc = {"m": 5, "facets": [[1, 2], [2, 3], [1, 3], [4], [5]]}
    proc = run_cli(["check"], doc)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "not_sphere"


def test_check_singleton_nonface_exits_64():
    proc = run_cli(["check"], {"m": 5, "nonfaces": [[1], [2, 3]]})
    assert proc.returncode == 64
    assert "error" in proc.stderr


def test_check_malformed_json_exits_64():
    proc = subprocess.run(
        [sys.executable, "-m", "oddsphere.cli", "check"],
        input="{not json",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 64


@pytest.mark.parametrize("data, message", [
    (b"\xff", "error: malformed JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid ...\n"),
    (b"\xef\xbb\xbf" + json.dumps(PENTAGON_DOC).encode(),
     "error: malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"),
], ids=["byte-ff", "utf8-bom"])
def test_a_document_that_is_not_plain_utf8_is_refused_alike_by_every_route(data, message, tmp_path):
    # -i FILE, then stdin under the default stdin encoding (an empty
    # PYTHONIOENCODING counts as unset) and two others: every route reads
    # bytes and decodes them as UTF-8.  The message is one line of at most 200 characters.
    assert message.count("\n") == 1 and len(message) <= 201
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    routes = [(["-i", str(path)], None, "")] + [([], data, encoding) for encoding in ("", "utf-8:strict", "latin-1")]
    for args, stdin, encoding in routes:
        proc = subprocess.run(
            [sys.executable, "-m", "oddsphere.cli", "check", *args],
            input=stdin, capture_output=True, env={**os.environ, "PYTHONIOENCODING": encoding},
        )
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (64, b"", message), (args, encoding)


def test_check_reports_no_cyclic_ordering():
    # the disjointness graph has a Hamiltonian cycle but is not a single 5-cycle
    doc = {"m": 7, "nonfaces": [[1, 6], [2, 3], [2, 7], [3, 4], [5, 6, 7]]}
    proc = run_cli(["check"], doc)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"reason": "no_cyclic_ordering", "verdict": "not_sphere"}


def test_nonfaces_octahedron():
    c = complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))))
    proc = run_cli(["nonfaces"], serialize.complex_to_doc(c))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nonfaces"] == [[1, 2], [3, 4], [5, 6]]


def test_complex_command_matches_api():
    proc = run_cli(["complex"], PENTAGON_DOC)
    assert proc.returncode == 0
    expected = serialize.complex_to_doc(
        complex_from_nonfaces(serialize.family_from_doc(PENTAGON_DOC))
    )
    assert json.loads(proc.stdout) == expected


def test_realize_with_verify():
    proc = run_cli(["realize", "--verify"], {"m": 6, "nonfaces": [[1, 2], [3, 4], [5, 6]]})
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["dim"] == 3 and len(doc["points"]) == 6
    assert "matches" in proc.stderr


def test_realize_rejects_even_family():
    # the pentagon less one member: four members, so no sphere shape fits
    proc = run_cli(["realize"], {"m": 5, "nonfaces": [[1, 4], [2, 5], [1, 3], [2, 4]]})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: no sphere with m <= d+4 has these minimal non-faces: non_odd_family_size\n"


def test_realize_verify_proves_every_one_and_two_block_sphere(monkeypatch, capsys):
    for m, blocks in one_and_two_blocks(12):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"m": m, "nonfaces": blocks})))
        assert cli.main(["realize", "--verify"]) == 0, blocks
        out, err = capsys.readouterr()
        assert err == "verification: hull boundary matches the complex\n"
        assert serialize.points_from_doc(json.loads(out)).dim == m - len(blocks)


def test_hull_command():
    doc = {
        "dim": 2,
        "points": [["0/1", "0/1"], ["4/1", "0/1"], ["0/1", "4/1"], ["1/1", "1/1"]],
    }
    proc = run_cli(["hull"], doc)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["facets"] == [[1, 2], [1, 3], [2, 3]]


def test_homology_command():
    c = complex_from_nonfaces(NonFaceFamily(6, ((1, 2), (3, 4), (5, 6))))
    proc = run_cli(["homology"], serialize.complex_to_doc(c))
    assert json.loads(proc.stdout) == {"reduced_betti": [0, 0, 0, 1]}


def test_catalog_command():
    proc = run_cli(["catalog", "--m", "6"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["m"] == 6 and len(doc["classes"]) == 2
    assert doc == serialize.catalog_to_doc(catalog(6))


def test_verify_pentagon_all_stages():
    proc = run_cli(["verify", "--verbose"], PENTAGON_DOC)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True
    assert doc["stages"]["recognizer"] is True
    assert doc["stages"]["hull_matches_complex"] is True
    assert doc["stages"]["gale_readback"] is True
    assert "cyclic ordering" in proc.stderr


def test_verify_non_sphere_fails():
    doc = {"m": 5, "facets": [[1, 2], [2, 3], [1, 3], [4], [5]]}
    proc = run_cli(["verify"], doc)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["ok"] is False


ALL_STAGES_PASS_STDOUT = (
    '{"ok": true, "stages": {"gale_readback": true, "homology_profile": true, '
    '"hull_matches_complex": true, "realization": true, "recognizer": true}}\n'
)


@pytest.mark.parametrize("doc, blocks", [
    ({"m": 5, "nonfaces": [[1, 2, 3], [4, 5]]}, "blocks: {1,2,3} | {4,5}\n"),
    ({"m": 4, "nonfaces": [[1, 2, 3, 4]]}, "blocks: {1,2,3,4}\n"),
], ids=["two-partition", "simplex-boundary"])
def test_verify_runs_every_stage_on_one_and_two_blocks(doc, blocks, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["verify", "--verbose"]) == 0
    assert capsys.readouterr() == (ALL_STAGES_PASS_STDOUT, blocks)


@pytest.mark.parametrize("doc, verdict, blocks", [
    ({"m": 5, "nonfaces": [[1, 2, 3], [4, 5]]},
     '{"certificate": {"kind": "two_partition", "ordering": [[1, 2, 3], [4, 5]]}, "d": 2, "verdict": "sphere"}\n',
     "blocks: {1,2,3} | {4,5}\n"),
    ({"m": 4, "nonfaces": [[1, 2, 3, 4]]},
     '{"certificate": {"kind": "simplex_boundary", "ordering": [[1, 2, 3, 4]]}, "d": 2, "verdict": "sphere"}\n',
     "blocks: {1,2,3,4}\n"),
    ({"m": 5, "nonfaces": [[4, 5], [1, 2, 3]]},
     '{"certificate": {"kind": "two_partition", "ordering": [[1, 2, 3], [4, 5]]}, "d": 2, "verdict": "sphere"}\n',
     "blocks: {1,2,3} | {4,5}\n"),
], ids=["two-partition", "simplex-boundary", "two-partition-unsorted-rows"])
def test_check_verbose_prints_the_blocks_of_every_sphere(doc, verdict, blocks, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["check", "--verbose"]) == 0
    assert capsys.readouterr() == (verdict, blocks)


def test_a_wrong_hull_fails_verify_and_the_catalog_at_that_stage(monkeypatch, capsys):
    def simplex_boundary(points):
        return complex_from_nonfaces(NonFaceFamily(points.n, (tuple(range(1, points.n + 1)),)))

    # the function `oddsphere.catalog` shadows the module of that name
    monkeypatch.setattr(importlib.import_module("oddsphere.catalog"), "boundary_complex", simplex_boundary)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(PENTAGON_DOC)))
    assert cli.main(["verify"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert [name for name, passed in doc["stages"].items() if passed is not True] == ["hull_matches_complex"]
    with pytest.raises(CatalogVerificationError, match=r"failed hull_matches_complex$"):
        catalog(6)


def test_realize_verify_reports_a_hull_that_differs(monkeypatch, capsys):
    def simplex_boundary(points):
        return complex_from_nonfaces(NonFaceFamily(points.n, (tuple(range(1, points.n + 1)),)))

    monkeypatch.setattr(cli, "boundary_complex", simplex_boundary)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(PENTAGON_DOC)))
    assert cli.main(["realize", "--verify"]) == 1
    out, err = capsys.readouterr()
    assert err == "verification: hull boundary differs from the complex\n"
    assert len(serialize.points_from_doc(json.loads(out)).points) == 5  # the points are still printed


def test_cli_outputs_are_deterministic(tmp_path):
    outputs = set()
    for _ in range(2):
        proc = run_cli(["check"], PENTAGON_DOC)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_file_input_and_output(tmp_path):
    inp = tmp_path / "pentagon.json"
    out = tmp_path / "verdict.json"
    inp.write_text(json.dumps(PENTAGON_DOC))
    proc = run_cli(["check", "-i", str(inp), "-o", str(out)])
    assert proc.returncode == 0
    assert json.loads(out.read_text())["verdict"] == "sphere"


@pytest.mark.parametrize("stage, argv, error", [
    ("recognize", ["check"], InternalInconsistency),
    ("run_catalog", ["catalog", "--m", "6"], CatalogVerificationError),
])
def test_internal_errors_exit_70(stage, argv, error, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise error("stage contradicted itself")

    monkeypatch.setattr(cli, stage, broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(PENTAGON_DOC)))
    assert cli.main(argv) == cli.EX_SOFTWARE == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: stage contradicted itself\n"


@pytest.mark.parametrize("module, name, replacement, argv, message", [
    # the pentagon read as a two-block certificate, whose dimension is not the complex's
    ("oddsphere.recognizer", "_read_family", lambda f: Certificate(5, [[1, 2], [3, 4, 5]]), ["verify"],
     "a certificate of 2 blocks on 5 vertices, but dim 1"),
    ("oddsphere.gale", "_verified_classes", lambda cert, vectors: False, ["realize"],
     "integer directions for k = 2 fail the zero sum or the diagram check"),
    # members rebuilt from the blocks read off a family must be the family's
    ("oddsphere.recognizer", "_members", lambda blocks: list(blocks), ["check"],
     "the blocks read off 5 non-faces on 5 vertices rebuild other members"),
], ids=["certificate-dimension", "gale-directions", "family-audit"])
def test_contradictions_inside_the_library_exit_70(module, name, replacement, argv, message, monkeypatch, capsys):
    monkeypatch.setattr(importlib.import_module(module), name, replacement)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(PENTAGON_DOC)))
    assert cli.main(argv) == cli.EX_SOFTWARE
    assert capsys.readouterr() == ("", f"internal error: {message}\n")


@pytest.mark.parametrize("command", ["check", "realize"])
def test_verbose_certificate_follows_redirected_stderr(command, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(PENTAGON_DOC)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--verbose"]) == 0
    lines = err.getvalue().splitlines()
    assert any(line.startswith("cyclic ordering: ") for line in lines)
    assert any(line.startswith("blocks: ") for line in lines)


# `--verbose` belongs to `check`, `realize` and `verify` only
VERBOSE_ELSEWHERE = [["nonfaces"], ["complex"], ["hull"], ["homology"], ["catalog", "--m", "5"]]


# the choice list of the top-level usage line, which must name every command
# whichever parser `main` built for the call
EVERY_COMMAND = "{check,nonfaces,complex,realize,hull,homology,catalog,verify}"
UNRECOGNIZED = "oddsphere: error: unrecognized arguments: "


@pytest.mark.parametrize(
    "argv, error",
    [(["catalog", "--m", "x"], "oddsphere catalog: error: argument --m: invalid int value: 'x'"),
     (["check", "--bogus"], UNRECOGNIZED + "--bogus"),
     ([], "oddsphere: error: the following arguments are required: command"),
     *(([*a, "--verbose"], UNRECOGNIZED + "--verbose") for a in VERBOSE_ELSEWHERE),
     (["bogus"], "oddsphere: error: argument command: invalid choice: 'bogus'"),
     # a leading "--" reaches the command choice on Python 3.11 but newer
     # argparse releases may drop it; either way this is a top-level error
     (["--", "check", "--bogus"], "oddsphere: error: "),
     (["check", "--output=z", "extra"], UNRECOGNIZED + "extra")],
    ids=["bad-int", "flag", "none", *(f"{a[0]}-verbose" for a in VERBOSE_ELSEWHERE),
         "unknown-command", "double-dash", "extra-positional"],
)
def test_usage_errors_exit_64(argv, error, capsys):
    assert cli.main(argv) == cli.EX_INPUT
    _, err = capsys.readouterr()
    assert err.startswith("usage: oddsphere") and "Traceback" not in err
    usage, found, _ = err.partition("\n" + error)
    assert found
    if error.startswith("oddsphere: "):
        assert EVERY_COMMAND in usage


RP2_FACETS = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6], [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6],
              [3, 5, 6]]

# One call each of `python -m oddsphere.cli`: argv, stdin document, exit code, stdout, stderr.
CLI_CALLS = {
    # four points, three of them on a supporting line: no simplicial hull
    "collinear-hull": (["hull"], {"dim": 2, "points": [["0", "0"], ["1", "0"], ["2", "0"], ["1", "1"]]}, 64, "",
                       "error: supporting hyperplane (0, 1, 0) contains points (1, 2, 3)\n"),
    "bool-label-check": (["check"], {"m": 4, "facets": [[1, True]]}, 64, "",
                         "error: invalid complex: vertex labels must be integers >= 1, got True\n"),
    # the pentagon under another labelling, through realization and the Gale readback
    "relabelled-pentagon-verify": (
        ["verify"], {"m": 5, "nonfaces": [[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]}, 0, ALL_STAGES_PASS_STDOUT, ""),
    # the 4-cycle, a two-set partition: a quadrilateral whose diagonals are the non-faces
    "four-cycle-realize": (
        ["realize", "--verify"], {"m": 4, "nonfaces": [[1, 2], [3, 4]]}, 0,
        '{"dim": 2, "points": [["-1/1", "1/1"], ["1/1", "0/1"], ["0/1", "1/1"], ["0/1", "0/1"]]}\n',
        "verification: hull boundary matches the complex\n"),
    # the 6-vertex RP^2: pure with m = d+4, so the facet route runs, finds no
    # sphere and leaves the reason to the dualization
    "rp2-check": (["check"], {"m": 6, "facets": RP2_FACETS},
                  1, '{"reason": "non_odd_family_size", "verdict": "not_sphere"}\n', ""),
    # `realize` refuses what `check` does not call a sphere, naming the verdict's reason
    "rp2-realize": (["realize"], {"m": 6, "facets": RP2_FACETS}, 1, "",
                    "error: no sphere with m <= d+4 has these minimal non-faces: non_odd_family_size\n"),
    "four-pairs-realize": (["realize"], {"m": 8, "nonfaces": [[1, 2], [3, 4], [5, 6], [7, 8]]}, 1, "",
                           "error: no sphere with m <= d+4 has these minimal non-faces: "
                           "complex has m=8 vertices and dimension d=3; m - d >= 5\n"),
}


@pytest.mark.parametrize("argv, doc, code, out, err", CLI_CALLS.values(), ids=CLI_CALLS)
def test_cli_calls(argv, doc, code, out, err):
    proc = run_cli(argv, doc)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_hull_of_a_realized_bracelet_is_its_complex_byte_for_byte():
    doc = serialize.family_to_doc(instantiate((5,) * 5)[0])
    points = run_cli(["realize"], doc)
    assert points.returncode == 0
    hull = run_cli(["hull"], json.loads(points.stdout))
    assert (hull.returncode, hull.stdout) == (0, run_cli(["complex"], doc).stdout)


def test_realize_reads_a_complex_document_as_its_non_face_document():
    # the same stdout, stderr and exit code from either document of every bracelet sphere with m <= 10
    for m in range(5, 11):
        for bracelet in enumerate_bracelets(m):
            fam = instantiate(bracelet)[0]
            runs = []
            for doc in (serialize.family_to_doc(fam), serialize.complex_to_doc(complex_from_nonfaces(fam))):
                digest = hashlib.sha256()
                record(digest, ["realize", "--verify", "--verbose"], json.dumps(doc))
                runs.append(digest.hexdigest())
            assert runs[0] == runs[1], bracelet


def dualization_refused(*args, **kwargs):
    raise AssertionError("a sphere's document was dualized")


@pytest.mark.parametrize("argv", [["check", "--verbose"], ["realize", "--verbose"], ["realize", "--verify"]])
def test_spheres_are_recognized_without_dualization(argv, monkeypatch, capsys):
    # A sphere's family gives its certificate and its dimension, so neither
    # direction of Berge's dualization runs (`realize --verify` dualizes only
    # to compare the hull with a non-face document's complex).
    bracelets = [b for m in range(5, 10) for b in enumerate_bracelets(m)] + [(7,) * 9]
    docs = [serialize.family_to_doc(instantiate(b)[0]) for b in bracelets]
    docs += [{"m": m, "nonfaces": blocks} for m, blocks in one_and_two_blocks(8)]
    if "--verify" in argv:
        docs = [serialize.complex_to_doc(complex_from_nonfaces(serialize.family_from_doc(d))) for d in docs]
    for module, name in (("recognizer", "_quotient_transversals"), ("recognizer", "minimal_nonfaces"),
                         ("complexes", "minimal_nonfaces"), ("complexes", "_minimal_transversals")):
        monkeypatch.setattr(importlib.import_module(f"oddsphere.{module}"), name, dualization_refused)
    for doc in docs:
        rc, _, err, _ = run_main_timed(argv, doc, monkeypatch, capsys)
        assert rc == 0, (doc, err)


def test_help_exits_zero(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help text at hyphens on a narrow terminal
    assert cli.main(["check", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: oddsphere check")
    assert cli.main(["--help"]) == 0
    words = " ".join(capsys.readouterr().out.split())
    for name, (help_text, _) in cli.COMMANDS.items():
        assert f"{name} {help_text}" in words


def test_entry_point_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oddsphere", "catalog", "--m", "5"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["m"] == 5


# argument lists for `parse_args`: top-level cases, each command's help,
# abbreviations, unknown flags, extra positionals, missing and repeated
# values and "--"
PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["chec"], ["--"], ["--", "check"], ["--bogus"], ["-h", "check"],
    ["check", "--bogus"], ["catalog", "--m", "5", "extra"], ["check", "--output=z", "extra"], ["catalog", "--m=5"],
    ["catalog", "--m", "x"], ["catalog"], ["check", "--inp", "a"], ["check", "-ix"], ["check", "--ver"],
    ["realize", "--ver"], ["realize", "--verb", "--verif"], ["check", "--", "x"], ["check", "-h", "--bogus"],
    *([name, "--help"] for name in cli.COMMANDS), *([name, "--verbose"] for name in cli.COMMANDS),
    ["check", "-i", "a", "-o", "b", "--verbose"], ["realize", "--verify", "--verbose", "-i=x"],
    ["catalog", "--m", "7", "-o", "-"], ["verify", "--verb"], ["check", "-i"], ["check", "--input"],
    ["hull", "-iabc"], ["check", "--"], ["check", "--", "--bogus"], ["catalog", "--m", "5", "--m", "6"],
    ["check", "x"], ["check", "-"], ["realize", "-v"], ["check", "--bogus", "-h"],
    # values at the edge of what `parse_args` reads without argparse
    ["catalog", "--m", " 5"], ["catalog", "--m", "-5"], ["catalog", "--m", "1_0"],
    ["check", "-i", ""], ["check", "-i", "-x"], ["check", "-i", "--verbose"], ["check", "-o", "-5"],
    ["check", "-i", "a b"], ["check", "-i", "-a b"], ["realize", "--verify", "--verify"],
    ["catalog", "--m", "5", "--m", "x"],
]


def parse_outcome(parse, argv):
    """Exit code (None on success), stdout, stderr and namespace, the handler by name, of `parse(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    code, ns = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    if ns is not None:
        ns["handler"] = ns["handler"].__name__
    return code, out.getvalue(), err.getvalue(), ns


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "none")
def test_the_parser_built_for_argv_parses_as_the_full_parser(argv, monkeypatch):
    # argparse wraps usage and help to the terminal width that COLUMNS sets
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert parse_outcome(cli.parse_args, argv) == parse_outcome(cli.build_parser().parse_args, argv), columns


# commands, every declared flag, abbreviated, joined and special tokens, and
# values at the edge of what `parse_args` reads without argparse
PARSER_VALUES = ["-", "", "-5", " 5", "5", "x", "a b"]
PARSER_TOKENS = list(dict.fromkeys([
    *cli.COMMANDS, *(flag for options in cli.OPTIONS.values() for flags, _, _ in options for flag in flags),
    "--inp", "--ver", "-h", "--", "--m=5", "-ix", *PARSER_VALUES,
]))


@st.composite
def parser_token_lists(draw):
    """Short lists of PARSER_TOKENS shaped like a call: a command, then its options, each with a value if it takes one.

    Any token may be drawn from all of PARSER_TOKENS instead, so most lists
    just miss a call spelled out in full.
    """
    tokens = st.sampled_from(PARSER_TOKENS)
    argv = [draw(st.sampled_from(list(cli.COMMANDS)) | tokens)]
    options = cli.OPTIONS.get(argv[0], cli.OPTIONS["realize"] + cli.OPTIONS["catalog"])
    for flags, kind, _ in draw(st.lists(st.sampled_from(options), max_size=4)):
        argv.append(draw(st.sampled_from(flags) | tokens))
        if kind is not bool:
            argv.append(draw(st.sampled_from(PARSER_VALUES) | tokens))
    return argv


@settings(deadline=None, max_examples=400)
@given(parser_token_lists())
def test_property_parse_args_parses_as_the_full_parser(argv):
    with unittest.mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert parse_outcome(cli.parse_args, argv) == parse_outcome(cli.build_parser().parse_args, argv)


WELL_FORMED_CALLS = {
    "check": ([], PENTAGON_DOC),
    "nonfaces": ([], SIX_CYCLE_DOC),
    "complex": ([], PENTAGON_DOC),
    "realize": (["--verify"], PENTAGON_DOC),
    "hull": ([], {"dim": 1, "points": [["0"], ["1"]]}),
    "homology": ([], SIX_CYCLE_DOC),
    "catalog": (["--m", "5"], None),
    "verify": ([], PENTAGON_DOC),
}


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_a_well_formed_call_builds_no_parser(name, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    options, doc = WELL_FORMED_CALLS[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.main([name, *options]) == 0, capsys.readouterr().err
    assert built == []


def test_a_well_formed_call_never_imports_argparse():
    script = (
        "import io, json, sys\n"
        "from oddsphere import cli\n"
        f"sys.stdin = io.StringIO({json.dumps(PENTAGON_DOC)!r})\n"
        "sys.stdout = io.StringIO()\n"
        "assert cli.main(['check']) == 0\n"
        "assert 'argparse' not in sys.modules, 'argparse imported'\n"
        "sys.stdout = sys.__stdout__\n"
        "sys.exit(cli.main(['check', '--help']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "COLUMNS": "200"})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: oddsphere check")
    assert "print certificates to stderr" in proc.stdout


DEEP_DOCUMENTS = {
    "top-level": "[" * 100000 + "]" * 100000,
    "in-nonfaces": '{"m": 5, "nonfaces": ' + "[" * 5000 + "]" * 5000 + "}",
}


@pytest.mark.parametrize("text", DEEP_DOCUMENTS.values(), ids=DEEP_DOCUMENTS)
@pytest.mark.parametrize("command", ["check", "nonfaces", "complex", "realize", "hull", "homology", "verify"])
def test_deeply_nested_documents_exit_64(command, text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main([command]) == cli.EX_INPUT
    _, err = capsys.readouterr()
    assert err.startswith("error:") and "Traceback" not in err


DEEP = "[" * 900 + "]" * 900  # nested below the JSON parser's limit
LONG_VALUE_DOCUMENTS = {
    "deep-array-in-nonfaces": ("check", '{"m": 5, "nonfaces": ' + DEEP + "}"),
    # past Python's limit on the digits of an int parsed from a string
    "long-integer": ("check", '{"m": ' + "1" * 5000 + ', "nonfaces": []}'),
    "face-over-m": ("check", json.dumps({"m": 5, "nonfaces": [list(range(1, 3000))]})),
    "repeated-vertex": ("check", json.dumps({"m": 5, "facets": [[1] * 3000]})),
    "deep-array-in-points": ("hull", '{"dim": 1, "points": [' + DEEP + "]}"),
    "long-string-in-points": ("hull", json.dumps({"dim": 1, "points": [["x" * 5000]]})),
    "long-exponent": ("hull", json.dumps({"dim": 1, "points": [["1e" + "0" * 5000]]})),
    "long-zero-denominator": ("hull", json.dumps({"dim": 1, "points": [["1" * 3000 + "/0"]]})),
    # 60 points on a supporting line and one off it: the hyperplane is printed as plain rationals
    "sixty-collinear-points": ("hull", json.dumps({"dim": 2, "points": [[i, 0] for i in range(60)] + [[0, 1]]})),
}


@pytest.mark.parametrize("command, text", LONG_VALUE_DOCUMENTS.values(), ids=LONG_VALUE_DOCUMENTS)
def test_refusals_echo_a_shortened_value(command, text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main([command]) == cli.EX_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    # one line of at most 200 characters, and its newline
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) <= 201, err[:300]
    assert "..." in err and "Fraction(" not in err


def test_an_unreadable_input_path_is_echoed_shortened(tmp_path, capsys):
    path = tmp_path.joinpath(*["x" * 100] * 3)  # a missing file whose path is far past 200 characters
    assert cli.main(["check", "-i", str(path)]) == cli.EX_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    # one line of at most 200 characters, with the path clipped
    assert err.startswith("error: cannot read ") and err.count("\n") == 1 and len(err) <= 201, err[:300]
    assert err.endswith("...: No such file or directory\n")


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_output_exits_73(target, tmp_path, capsys):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
    assert cli.main(["catalog", "--m", "5", "-o", str(path)]) == cli.EX_CANTCREAT == 73
    out, err = capsys.readouterr()
    assert out == ""
    # one line of at most 200 characters, with the path clipped
    assert err.startswith("error: cannot write ") and err.count("\n") == 1 and len(err) <= 201
    assert "Traceback" not in err


class FailingStdout:
    """A stdout whose `write` or `flush` raises OSError(errno), as a closed pipe or a full device does."""

    def __init__(self, errno, method):
        self.errno, self.method = errno, method

    def write(self, text):
        if self.method == "write":
            raise OSError(self.errno, os.strerror(self.errno))
        return len(text)

    def flush(self):
        if self.method == "flush":
            raise OSError(self.errno, os.strerror(self.errno))


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("code", [errno.EPIPE, errno.ENOSPC], ids=errno.errorcode.get)
def test_a_failed_write_to_stdout_exits_73(code, method, monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", FailingStdout(code, method))
        assert cli.main(["catalog", "--m", "5"]) == cli.EX_CANTCREAT
    assert capsys.readouterr().err == f"error: cannot write -: {os.strerror(code)}\n"


# calls that write to stderr: a verification line, an `error:` line and a certificate
STDERR_CALLS = {
    "realize-verify": (["realize", "--verify"], json.dumps(PENTAGON_DOC), 0),
    "malformed-check": (["check"], "{bad", cli.EX_INPUT),
    "check-verbose": (["check", "--verbose"], json.dumps(PENTAGON_DOC), 0),
}
# a stderr whose write or flush fails as a closed pipe or a full device does, and a closed one
FAILING_STDERRS = {
    **{f"{method}-{errno.errorcode[code]}": (code, method)
       for code in (errno.EPIPE, errno.ENOSPC) for method in ("write", "flush")},
    "closed": None,
}


@pytest.mark.parametrize("failure", FAILING_STDERRS.values(), ids=FAILING_STDERRS)
@pytest.mark.parametrize("argv, text, code", STDERR_CALLS.values(), ids=STDERR_CALLS)
def test_a_failed_write_to_stderr_keeps_the_exit_code_and_stdout(argv, text, code, failure, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", None if failure is None else FailingStdout(*failure))
        assert cli.main(argv) == code
    assert capsys.readouterr().out == out


def cli_env(buffered):
    """The environment of a `python -m oddsphere.cli` child: standard streams buffered as by default, or unbuffered."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


BUFFERING = {"buffered": True, "unbuffered": False}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", BUFFERING.values(), ids=BUFFERING)
@pytest.mark.parametrize("argv, text, code", STDERR_CALLS.values(), ids=STDERR_CALLS)
def test_stderr_on_a_full_device_or_closed_keeps_the_exit_code(argv, text, code, buffered):
    # a line left in stderr's buffer would fail again in the interpreter's own flush at exit, exiting 120
    command = [sys.executable, "-m", "oddsphere.cli", *argv]
    closed = ["sh", "-c", 'exec "$@" 2>&-', "sh", *command]
    runs = []
    with open("/dev/full", "w") as full:
        for args, stderr in ((command, subprocess.PIPE), (command, full), (closed, None)):
            proc = subprocess.run(args, input=text, stdout=subprocess.PIPE, stderr=stderr, text=True,
                                  env=cli_env(buffered))
            runs.append((proc.returncode, proc.stdout))
    assert runs[0][0] == code and runs[1] == runs[0] and runs[2] == runs[0]


def test_a_closed_stdout_exits_73(monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", None)  # what the interpreter sets when it starts without descriptor 1
        assert cli.main(["catalog", "--m", "5"]) == cli.EX_CANTCREAT
    assert capsys.readouterr().err == f"error: cannot write -: {os.strerror(errno.EBADF)}\n"


def test_a_closed_stdin_exits_64(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", None)  # what the interpreter sets when it starts without descriptor 0
    assert cli.main(["check"]) == cli.EX_INPUT
    assert capsys.readouterr() == ("", f"error: cannot read -: {os.strerror(errno.EBADF)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device_exits_73_without_a_traceback():
    # the interpreter's own flush of stdout at exit must not fail a second time
    for buffered in BUFFERING.values():
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "oddsphere.cli", "catalog", "--m", "5"],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(buffered))
        assert (proc.returncode, proc.stderr) == (73, f"error: cannot write -: {os.strerror(errno.ENOSPC)}\n"), buffered


# -- golden output -------------------------------------------------------------

# sha256 of `cli_transcript()` as printed before the work limits moved from
# the CLI into `complexes`; its `catalog`, `realize`, `hull` and `verify` runs
# were pinned before the exact-arithmetic helpers let `Fraction` and `int`
# values pass through unconverted.  Any change to a byte of stdout or stderr,
# or to an exit code, changes it.
CLI_OUTPUT_DIGEST = "eed5964ae1ba1d7f2eea3d8c01a09d7e2748622bd1d69b04f4ee94e6b53b9d02"


def record(digest, argv, stdin_text=""):
    """Run `cli.main(argv)` in process on `stdin_text`, add argv, stdout, stderr and exit code to `digest`, return stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    digest.update(json.dumps([argv, out.getvalue(), err.getvalue(), rc]).encode())
    return out.getvalue()


def cli_transcript() -> str:
    """Digest of stdout, stderr and exit code of in-process `cli.main` runs.

    The runs are `catalog --m 4..10` and, for every bracelet with m <= 9,
    `realize --verify --verbose` on its non-face document, `hull` on the
    printed points, `verify --verbose`, `check --verbose` and `complex` on
    the same document, and `check`, `nonfaces` and `homology` on the
    complex document `complex` printed.
    """
    digest = hashlib.sha256()
    for m in range(4, 11):
        record(digest, ["catalog", "--m", str(m)])
    for m in range(5, 10):
        for bracelet in enumerate_bracelets(m):
            doc = json.dumps(serialize.family_to_doc(instantiate(bracelet)[0]))
            points = record(digest, ["realize", "--verify", "--verbose"], doc)
            record(digest, ["hull"], points)
            record(digest, ["verify", "--verbose"], doc)
            record(digest, ["check", "--verbose"], doc)
            facets = record(digest, ["complex"], doc)
            for argv in (["check"], ["nonfaces"], ["homology"]):
                record(digest, argv, facets)
    return digest.hexdigest()


def test_cli_output_digest():
    assert cli_transcript() == CLI_OUTPUT_DIGEST


# sha256 of `low_shapes_transcript(["check"])`, pinned before `realize` and
# `verify` proved the one- and two-block spheres with a polytope, which left
# `check` unchanged.
LOW_SHAPES_CHECK_DIGEST = "ad74eac2f1b8732eaaa91bc0c5d077248874425f8505d9eab7577d52b2a6646e"
# sha256 of `low_shapes_transcript(["verify", "realize"])`, re-pinned when
# those spheres began to realize (`realize` exits 0 on their non-face
# documents, `verify` reports every stage true, and a family that fits no
# shape names its `NotSphereReason`), and again when `realize` began to
# read complex documents: on each it prints what it prints on the sphere's
# non-face document, where it had refused them with exit 64.
LOW_SHAPES_REALIZE_DIGEST = "31a0191d719c608989b39ae093f41a8be1a000c74bb6d6bdc2924c2d76003d67"

# One non-face document per negative verdict: the full simplex, one member
# short of [m], two members that are no partition, an even family, three
# pairwise-meeting members, and three disjoint pairs that miss vertex 7.
REASON_DOCS = (
    {"m": 3, "nonfaces": []},
    {"m": 4, "nonfaces": [[1, 2, 3]]},
    {"m": 5, "nonfaces": [[1, 2], [3, 4]]},
    {"m": 6, "nonfaces": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]},
    {"m": 5, "nonfaces": [[1, 2], [2, 3], [1, 3]]},
    {"m": 7, "nonfaces": [[1, 2], [3, 4], [5, 6]]},
)


def low_shapes_transcript(commands) -> str:
    """Digest of each of `commands`, with `--verbose`, on the spheres with one or two blocks.

    Those are the simplex boundary on [m] and the two-set partitions of [m]
    into blocks of size >= 2, for m <= 8, up to relabelling.  Each goes in as
    its non-face document and as its complex document (the complements of
    one vertex from each block), then both again with every label v moved
    to the v-th of 1, 3, 5, ..., 2, 4, 6, ... and the rows in reverse order.
    The documents of REASON_DOCS follow.
    """
    digest = hashlib.sha256()
    docs = []
    for m, blocks in one_and_two_blocks(8):
        facets = [[v for v in range(1, m + 1) if v not in pick] for pick in itertools.product(*blocks)]
        image = [*range(1, m + 1, 2), *range(2, m + 1, 2)]
        for key, rows in (("nonfaces", blocks), ("facets", facets)):
            docs.append({"m": m, key: rows})
            docs.append({"m": m, key: [[image[v - 1] for v in row] for row in reversed(rows)]})
    for doc in docs + list(REASON_DOCS):
        for command in commands:
            record(digest, [command, "--verbose"], json.dumps(doc))
    return digest.hexdigest()


def test_check_output_digest_of_one_and_two_blocks_and_every_reason():
    assert low_shapes_transcript(["check"]) == LOW_SHAPES_CHECK_DIGEST


def test_cli_output_digest_of_one_and_two_blocks_and_every_reason():
    assert low_shapes_transcript(["verify", "realize"]) == LOW_SHAPES_REALIZE_DIGEST


# -- adversarial inputs: each must finish inside a wall-time bound ------------

def run_main_timed(argv, doc, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    start = time.perf_counter()
    rc = cli.main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    return rc, out, err, elapsed


@pytest.mark.parametrize("bracelet, d", [((4, 4, 4, 4, 4, 4, 6), 26), ((3,) * 7, 17)])
def test_check_large_bracelet_sphere_is_fast(bracelet, d, monkeypatch, capsys):
    fam, _ = instantiate(bracelet)
    rc, out, _, elapsed = run_main_timed(["check"], serialize.family_to_doc(fam), monkeypatch, capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "sphere" and doc["d"] == d
    assert elapsed < 2.0


def test_check_sixty_three_vertex_complex_document_is_fast(monkeypatch, capsys):
    fam, _ = instantiate((7,) * 9)
    doc = serialize.complex_to_doc(complex_from_nonfaces(fam))
    rc, out, _, elapsed = run_main_timed(["check"], doc, monkeypatch, capsys)
    assert rc == 0
    result = json.loads(out)
    assert result["verdict"] == "sphere" and result["d"] == 59
    assert elapsed < 2.0


def test_realize_verify_forty_four_vertex_bracelet_is_fast(monkeypatch, capsys):
    fam, _ = instantiate((4,) * 11)
    doc = serialize.family_to_doc(fam)
    rc, _, err, elapsed = run_main_timed(["realize", "--verify"], doc, monkeypatch, capsys)
    assert rc == 0
    assert "verification: hull boundary matches the complex" in err.splitlines()
    assert elapsed < 2.0


def test_hull_of_a_realized_forty_four_vertex_bracelet_is_fast(monkeypatch, capsys):
    fam, cert = instantiate((4,) * 11)
    rc, points_doc, _, _ = run_main_timed(["realize"], serialize.family_to_doc(fam), monkeypatch, capsys)
    assert rc == 0
    rc, out, _, elapsed = run_main_timed(["hull"], json.loads(points_doc), monkeypatch, capsys)
    assert rc == 0
    assert elapsed < 2.0
    # compare non-faces: expanding the family into facets is the slow direction
    assert minimal_nonfaces(serialize.complex_from_doc(json.loads(out))) == fam


def test_hull_past_its_work_limit_exits_64_at_once(monkeypatch, capsys):
    # 18 points in Q^9, a document of about 1 KB: C(18, 9) = 48,620 subsets at codimension 8
    doc = serialize.points_to_doc(random_points(random.Random(18), 18, 9, span=3))
    rc, out, err, elapsed = run_main_timed(["hull"], doc, monkeypatch, capsys)
    assert (rc, out) == (cli.EX_INPUT, "")
    assert err == (
        "error: too many hyperplanes to test: scanning the 9-subsets of 18 points in Q^9 takes "
        f"4375800 units of work, past the limit of {complexes.MAX_HULL_WORK}\n"
    )
    assert elapsed < 0.5


def test_hull_of_a_cyclic_polytope_within_the_work_limit_is_answered(monkeypatch, capsys):
    # 14 points on the moment curve in Q^9, codimension 4: its facets obey Gale's evenness condition
    n, d = 14, 9
    doc = {"dim": d, "points": [[str(t ** k) for k in range(1, d + 1)] for t in range(n)]}
    rc, out, _, elapsed = run_main_timed(["hull"], doc, monkeypatch, capsys)
    assert rc == 0 and elapsed < 2.0

    def gale_evenness(facet):
        gaps = [v for v in range(1, n + 1) if v not in facet]
        return all(sum(i < v < j for v in facet) % 2 == 0 for i, j in itertools.combinations(gaps, 2))

    facets = [list(f) for f in itertools.combinations(range(1, n + 1), d) if gale_evenness(f)]
    assert json.loads(out) == {"m": n, "facets": facets}


@pytest.mark.parametrize("argv, doc", [
    (["realize", "--verify"], serialize.family_to_doc(instantiate((1, 2, 1, 1, 2))[0])),
    (["catalog", "--m", "7"], None),
], ids=["realize-verify", "catalog"])
def test_the_realization_round_trip_builds_no_fraction(argv, doc, monkeypatch):
    # the points are integer rows from the Gale vectors to the hull and the printed document
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    with unittest.mock.patch.object(Fraction, "__new__", side_effect=AssertionError("a Fraction was built")):
        assert cli.main(argv) == 0


def test_realize_eleven_disjoint_pairs_is_fast(monkeypatch, capsys):
    doc = {"m": 22, "nonfaces": [[2 * i + 1, 2 * i + 2] for i in range(11)]}
    rc, out, _, elapsed = run_main_timed(["realize", "--verify"], doc, monkeypatch, capsys)
    assert rc == 1
    assert out == ""
    assert elapsed < 2.0


def cone_over_odd_cycle_nonfaces(k):
    """Non-faces of the cone, with apex k+1, over the (1,)*k bracelet sphere: k members, m = k+1."""
    fam, _ = instantiate((1,) * k)
    return NonFaceFamily(k + 1, fam.members)


@pytest.mark.parametrize("command, as_complex", [("verify", False), ("verify", True)])
def test_face_enumeration_is_refused_up_front(command, as_complex, monkeypatch, capsys):
    # The apex is in no non-face, so the nerve is the full simplex on 19
    # vertices; `verify` enumerates before it recognizes, so it refuses.
    fam = cone_over_odd_cycle_nonfaces(19)  # m = 20: 285 facets of size 17
    doc = serialize.complex_to_doc(complex_from_nonfaces(fam)) if as_complex else serialize.family_to_doc(fam)
    rc, out, err, elapsed = run_main_timed([command], doc, monkeypatch, capsys)
    assert rc == cli.EX_INPUT == 64
    assert out == ""
    assert err == (
        "error: too many faces to enumerate: the sum over facets of 2^|F| is 37355520 "
        "(limit 4194304), and the nerve of the minimal non-faces, or the dualization "
        "that finds them, outgrows the limit of 131072 nerve faces\n"
    )
    assert elapsed < 2.0


@pytest.mark.parametrize("k", [17, 19])
def test_homology_answers_cones_at_once(k, monkeypatch, capsys):
    # The apex is in every facet, so the complex is a cone and acyclic; over
    # (1,)*19 both enumerations are past their limits, over (1,)*17 the
    # nerve walk took over a second.
    doc = serialize.complex_to_doc(complex_from_nonfaces(cone_over_odd_cycle_nonfaces(k)))
    rc, out, err, elapsed = run_main_timed(["homology"], doc, monkeypatch, capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"reduced_betti": [0] * (k - 1)}
    assert elapsed < 0.5


def triple_complement_facets(m, k):
    """The facets [m] - {3i-2, 3i-1, 3i}, i = 1..k, whose minimal non-faces pick one vertex per triple."""
    return [[v for v in range(1, m + 1) if (v + 2) // 3 != i] for i in range(1, k + 1)]


@pytest.mark.parametrize("command", ["homology", "check"])
def test_disjoint_triple_complements_are_refused(command, monkeypatch, capsys):
    # No vertex is in every facet, so this is no cone; its 3^21 minimal
    # non-faces are past the nerve and dualization limits, and its 21 facets
    # of size 60 past the face limit.  The facet route of `recognize` finds
    # no blocks (the only complement through a vertex is its own triple, so
    # the sets read off overlap), so `check` dualizes and refuses as well.
    doc = {"m": 63, "facets": triple_complement_facets(63, 21)}
    rc, out, err, elapsed = run_main_timed([command], doc, monkeypatch, capsys)
    assert rc == cli.EX_INPUT
    assert out == ""
    if command == "homology":
        assert err == (
            "error: too many faces to enumerate: the sum over facets of 2^|F| is 24211351596743786496 "
            "(limit 4194304), and the nerve of the minimal non-faces, or the dualization "
            "that finds them, outgrows the limit of 131072 nerve faces\n"
        )
    else:
        assert err == (
            "error: too many minimal non-faces: the dualization that finds them outgrows the limit of 131072 sets\n"
        )
    assert elapsed < 2.0


def pair_complement_facets(m, k):
    """The facets [m] - {2i-1, 2i}, i = 1..k, whose minimal non-faces pick one vertex per pair."""
    return [[v for v in range(1, m + 1) if (v + 1) // 2 != i] for i in range(1, k + 1)]


@pytest.mark.parametrize("command", ["verify", "homology"])
@pytest.mark.parametrize(
    "doc",
    [
        # 2^32 minimal non-faces: the dualization's antichain outgrows the nerve limit
        {"m": 64, "facets": pair_complement_facets(64, 32)},
        # 2^17 partial transversals, at the nerve limit, then a facet missing
        # {1, 35} that Berge's step would test against 2^16 of them each
        {"m": 35, "facets": pair_complement_facets(35, 17) + [list(range(2, 35))]},
    ],
    ids=["32-pairs", "17-pairs-and-a-step"],
)
def test_exponential_dualization_is_refused_up_front(command, doc, monkeypatch, capsys):
    rc, out, err, elapsed = run_main_timed([command], doc, monkeypatch, capsys)
    assert rc == cli.EX_INPUT
    assert out == ""
    assert err.startswith("error: too many faces to enumerate: the sum over facets of 2^|F| is ")
    assert elapsed < 2.0


def disjoint_pairs_doc(pairs):
    """Non-faces {2i-1, 2i}: the complex has 2^pairs facets, one vertex per pair left out."""
    return {"m": 2 * pairs, "nonfaces": [[2 * i - 1, 2 * i] for i in range(1, pairs + 1)]}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["check"], disjoint_pairs_doc(20)),
        (["check"], disjoint_pairs_doc(32)),
        (["verify"], disjoint_pairs_doc(20)),
        (["complex"], disjoint_pairs_doc(20)),
        (["realize"], disjoint_pairs_doc(20)),
        (["check"], {"m": 64, "facets": pair_complement_facets(64, 32)}),
        (["check"], {"m": 37, "facets": pair_complement_facets(37, 18) + [list(range(2, 37))]}),
        (["nonfaces"], {"m": 64, "facets": pair_complement_facets(64, 32)}),
    ],
    ids=[
        "20-pairs-check",
        "32-pairs-check",
        "20-pairs-verify",
        "20-pairs-complex",
        "20-pairs-realize",
        "32-pairs-complex-check",
        "18-pairs-and-a-step-check",
        "32-pairs-complex-nonfaces",
    ],
)
def test_uncapped_dualization_is_refused(argv, doc, monkeypatch, capsys):
    rc, out, err, elapsed = run_main_timed(argv, doc, monkeypatch, capsys)
    assert rc == cli.EX_INPUT
    assert out == ""
    assert err.startswith("error: too many ")
    assert err.endswith(f"the dualization that finds them outgrows the limit of {complexes.MAX_NERVE_FACES} sets\n")
    assert elapsed < 2.0


def test_seventeen_pairs_and_a_step_are_dualized_on_their_quotient(monkeypatch, capsys):
    # The complements are 17 pairs {2i-1, 2i} and {1, 35}, in which 2 and 35
    # have equal links, so the dualization runs on the 17 pairs alone: 2^17
    # minimal non-faces, at the cap, an even family.  On all 18 complements
    # Berge's minimality tests ran out of work at the last one.
    doc = {"m": 35, "facets": pair_complement_facets(35, 17) + [list(range(2, 35))]}
    rc, out, err, elapsed = run_main_timed(["check"], doc, monkeypatch, capsys)
    assert (rc, err) == (1, "")
    assert json.loads(out) == {"reason": "non_odd_family_size", "verdict": "not_sphere"}
    assert elapsed < 2.0


def relabeled_nonface_doc(bracelet, seed):
    """The non-face document of a bracelet sphere, its labels permuted by `random.Random(seed)`."""
    fam, _ = instantiate(bracelet)
    perm = list(range(1, fam.m + 1))
    random.Random(seed).shuffle(perm)
    return {"m": fam.m, "nonfaces": [[perm[v - 1] for v in a] for a in fam.members]}


# The largest spheres in scope, with m = 63 and 64 and nearly one vertex per
# slot, under relabelings whose dualizations are among the costliest
# sampled: up to 89 units of work per set of the cap from non-faces to
# facets, and 37 from facets to non-faces (see complexes.WORK_PER_SET).
# The (7,)*9 and (3,)*21 spheres have blocks of twins, which both
# dualizations collapse.
@pytest.mark.parametrize(
    "bracelet, seed",
    [((1,) * 63, 8), ((2,) + (1,) * 62, 9), ((2,) + (1,) * 62, 11), ((7,) * 9, 1), ((3,) * 21, 1)],
    ids=["63-8", "64-9", "64-11", "63-7x9", "63-3x21"],
)
def test_largest_spheres_in_scope_are_answered(bracelet, seed, monkeypatch, capsys):
    nonface_doc = relabeled_nonface_doc(bracelet, seed)
    m = nonface_doc["m"]
    rc, out, err, _ = run_main_timed(["complex"], nonface_doc, monkeypatch, capsys)
    assert (rc, err) == (0, "")
    complex_doc = json.loads(out)
    for doc in (nonface_doc, complex_doc):
        rc, out, err, _ = run_main_timed(["check"], doc, monkeypatch, capsys)
        assert (rc, err) == (0, "")
        assert json.loads(out)["d"] == m - 4
    rc, out, err, _ = run_main_timed(["nonfaces"], complex_doc, monkeypatch, capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out) == serialize.family_to_doc(NonFaceFamily(m, nonface_doc["nonfaces"]))


def test_homology_walks_the_faces_when_the_nerve_is_over_its_limit(monkeypatch, capsys):
    # The join of the 8-pair cross-polytope and 5 points: 8 + 10 minimal
    # non-faces, and only the sets holding all 8 pairs cover [21], so the
    # nerve has more than 2^18 - 2^10 faces, over the nerve limit, while the
    # 1280 facets of size 9 bound 655,360 subsets, under the face limit.
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(8)]
    fam = NonFaceFamily(21, (*pairs, *itertools.combinations(range(17, 22), 2)))
    doc = serialize.complex_to_doc(complex_from_nonfaces(fam))
    rc, out, _, _ = run_main_timed(["homology"], doc, monkeypatch, capsys)
    assert rc == 0
    # the join of a 7-sphere and 5 points: reduced b_8 = 4
    assert json.loads(out) == {"reduced_betti": [0] * 9 + [4]}


def test_nerve_limit_admits_the_full_simplex_on_seventeen_vertices():
    fam = cone_over_odd_cycle_nonfaces(17)  # nerve: 2^17 faces, face bound 6684672 above 2^22
    chains = complexes.enumerate_chains(complex_from_nonfaces(fam))
    assert chains.nerve_tally is not None
    assert sum(map(len, chains.groups)) == 1 << 17
    assert not any(oracle._reduced_betti(chains.groups))  # the full simplex is acyclic


@pytest.mark.parametrize("as_complex", [False, True])
def test_verify_answers_what_face_enumeration_refused(as_complex, monkeypatch, capsys):
    fam, _ = instantiate((3,) * 7)  # m = 21: face bound 99,090,432, nerve of 57 faces
    doc = serialize.complex_to_doc(complex_from_nonfaces(fam)) if as_complex else serialize.family_to_doc(fam)
    rc, out, _, elapsed = run_main_timed(["verify"], doc, monkeypatch, capsys)
    assert rc == 0
    assert json.loads(out)["ok"] is True
    assert elapsed < 2.0


def test_verify_sixty_three_vertex_bracelet_is_fast(monkeypatch, capsys):
    fam, _ = instantiate((7,) * 9)
    rc, out, _, elapsed = run_main_timed(["verify"], serialize.family_to_doc(fam), monkeypatch, capsys)
    assert rc == 0
    assert json.loads(out) == {
        "ok": True,
        "stages": {
            "gale_readback": True,
            "homology_profile": True,
            "hull_matches_complex": True,
            "realization": True,
            "recognizer": True,
        },
    }
    assert elapsed < 2.0


def test_homology_of_the_sixty_three_vertex_complex_document(monkeypatch, capsys):
    fam, _ = instantiate((7,) * 9)
    doc = serialize.complex_to_doc(complex_from_nonfaces(fam))
    rc, out, _, elapsed = run_main_timed(["homology"], doc, monkeypatch, capsys)
    assert rc == 0
    assert json.loads(out) == {"reduced_betti": [0] * 60 + [1]}  # the 59-sphere profile
    assert elapsed < 2.0


@pytest.mark.parametrize("n, code", [(25, 0), (27, cli.EX_INPUT)])
def test_verify_answers_odd_cycles_up_to_twenty_five_vertices(n, code, monkeypatch, capsys):
    # The nerve of a maximum odd cycle's family depends only on n, and the
    # facets' sum of 2^|F| is 2^(n-3) for each of n(n^2-1)/24 facets: 1.4e10
    # at n = 27, so both limits are passed and `verify` refuses it up front.
    fam, _ = instantiate((1,) * n)
    rc, out, err, elapsed = run_main_timed(["verify"], serialize.family_to_doc(fam), monkeypatch, capsys)
    assert rc == code
    if code:
        assert out == "" and err.startswith("error: too many faces to enumerate: the sum over facets of 2^|F| is ")
    else:
        assert json.loads(out)["ok"] is True
    assert elapsed < 3.0


def test_verify_below_the_face_limit(monkeypatch, capsys):
    fam, _ = instantiate((3,) * 5)  # m = 15: 135 facets of size 12, 552,960 subsets
    rc, out, _, _ = run_main_timed(["verify"], serialize.family_to_doc(fam), monkeypatch, capsys)
    assert rc == 0
    assert json.loads(out)["ok"] is True


# -- fuzzed documents: every subcommand answers or refuses, and never raises ----

LABELS = st.integers(-3, 9) | st.sampled_from([True, False, 10**30, -(10**30), 1.5, None, "1", [1, 2]])
ROWS = st.lists(st.lists(LABELS, max_size=5) | LABELS, max_size=6)
RATIONALS = st.integers(-4, 4) | st.sampled_from(["1/2", "-3/4", "1e9", "1/0", "x", "0.5", True, None, 0.5, [1]])
SCALARS = st.sampled_from([None, True, False, 0, -1, 1, 4, 65, 10**30, -(10**30), 2.5, "4", "", [], {}])


def _clean_document(m, sets, as_facets):
    """A valid complex or non-face document on [m] made from the sets."""
    if as_facets:
        rows = [a for a in sets if not any(a < b for b in sets)]
        rows += [{v} for v in range(1, m + 1) if not any(v in a for a in rows)]
        return {"m": m, "facets": [sorted(a) for a in rows]}
    rows = [a for a in sets if len(a) >= 2 and not any(b < a for b in sets if len(b) >= 2)]
    return {"m": m, "nonfaces": [sorted(a) for a in rows]}


CLEAN_DOCUMENTS = st.integers(2, 7).flatmap(lambda m: st.builds(
    _clean_document, st.just(m), st.lists(st.frozensets(st.integers(1, m), min_size=1), max_size=7), st.booleans()
)) | st.integers(1, 3).flatmap(lambda d: st.fixed_dictionaries({
    "dim": st.just(d),
    "points": st.lists(st.lists(st.integers(-3, 3) | st.just("1/2"), min_size=d, max_size=d), max_size=7),
}))
DOCUMENTS = CLEAN_DOCUMENTS | st.fixed_dictionaries(
    {},
    optional={
        "m": st.integers(-2, 9) | SCALARS,
        "facets": ROWS | SCALARS,
        "nonfaces": ROWS | SCALARS,
        "dim": st.integers(-1, 4) | SCALARS,
        "points": st.lists(st.lists(RATIONALS, max_size=4) | RATIONALS, max_size=6) | SCALARS,
        "extra": SCALARS,
    },
) | SCALARS | st.lists(SCALARS, max_size=3)
COMMANDS = [["check"], ["nonfaces"], ["complex"], ["realize"], ["realize", "--verify"], ["hull"], ["homology"],
            ["verify"]]


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=DOCUMENTS, catalog_m=st.integers(-3, 7) | st.sampled_from([15, 10**30, -(10**30), "x", "2.5"]))
def test_fuzzed_documents_are_answered_or_refused(doc, catalog_m, monkeypatch, capsys):
    runs = [(argv, doc) for argv in COMMANDS]
    runs += [(["catalog", "--m", str(catalog_m)], None), (["check", "--bogus"], doc)]
    for argv, stdin_doc in runs:
        rc, _, err, _ = run_main_timed(argv, stdin_doc, monkeypatch, capsys)
        assert rc in (0, 1, 2, 64), (argv, stdin_doc, rc, err)
        assert "Traceback" not in err
