"""JSON documents and the command-line front end."""

import contextlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from oddsphere import cli, serialize
from oddsphere.catalog import CatalogVerificationError, catalog, instantiate
from oddsphere.complexes import NonFaceFamily, complex_from_nonfaces, minimal_nonfaces
from oddsphere.oracle import PointConfiguration
from oddsphere.recognizer import InternalInconsistency, recognize

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
    proc = run_cli(["realize"], {"m": 4, "nonfaces": [[1, 2], [3, 4]]})
    assert proc.returncode == 1
    assert "maximum odd cycle" in proc.stderr


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


@pytest.mark.parametrize("command", ["check", "realize"])
def test_verbose_certificate_follows_redirected_stderr(command, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(PENTAGON_DOC)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--verbose"]) == 0
    lines = err.getvalue().splitlines()
    assert any(line.startswith("cyclic ordering: ") for line in lines)
    assert any(line.startswith("blocks: ") for line in lines)


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


def test_realize_eleven_disjoint_pairs_is_fast(monkeypatch, capsys):
    doc = {"m": 22, "nonfaces": [[2 * i + 1, 2 * i + 2] for i in range(11)]}
    rc, out, _, elapsed = run_main_timed(["realize", "--verify"], doc, monkeypatch, capsys)
    assert rc == 1
    assert out == ""
    assert elapsed < 2.0
