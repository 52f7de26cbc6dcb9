"""Command-line front end: JSON in, JSON out, one subcommand per workflow.

Every subcommand takes `--output/-o` and all but `catalog` `--input/-i`;
`check`, `realize` and `verify` take `--verbose` and read a complex or a
non-face document as given (`_read_input`), `realize` takes `--verify` and
`catalog` `--m` (`OPTIONS`). `main` reads a call spelled out in full, a
command and then only its flags as declared, each value separate and not
starting with "-" unless it is "-", without argparse. Every other call (help,
an abbreviated or joined flag such as `--verb`, `--m=5` or `-ix`, `--`, a
value starting with "-", an `--m` that is not an integer, an unknown token)
goes to the argparse parser of every command, which prints help, usage and
errors. Nothing is kept between calls.

Exit codes: `check` maps its verdict to 0 (sphere), 1 (not a sphere), or
2 (out of scope); `realize` exits 1 on every input `check` does not call a
sphere, naming the verdict document's `reason`; a usage error, malformed input
(a document that is not UTF-8 gets a `malformed JSON:` line), an invariant
violation or input past a work limit of `complexes` is 64 for every
subcommand, and so is an input that cannot be read, closed stdin included,
with an `error: cannot read` line; an internal inconsistency (a bug, not bad
input) is 70 with an `internal error:` message; an output that cannot be
written, an `--output` path or stdout (closed, a broken pipe, a full device),
is 73 with an `error: cannot write` line; other operational failures exit 1.
A line that cannot be written to stderr is dropped and changes no exit code.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from types import SimpleNamespace

from . import serialize
from .catalog import MAX_M, CatalogVerificationError, catalog as run_catalog, cross_check
from .complexes import NonFaceFamily, _clip, complex_from_nonfaces, enumerate_chains, minimal_nonfaces
from .gale import realize_gale_vectors, reconstruct_points
from .oracle import betti_mod2, boundary_complex, hull_facets
from .recognizer import InternalInconsistency, NotSphere, Sphere, recognize

EX_INPUT = 64
EX_SOFTWARE = 70
EX_CANTCREAT = 73


class _CannotWrite(Exception):
    pass


def _std(stream):
    """`stream`, or EBADF for None: what `sys.stdin` or `sys.stdout` is when its descriptor was closed at start-up."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _read_doc(path: str):
    """The JSON document at `path` ('-': stdin, as text if it has no `buffer`), its bytes decoded as strict UTF-8."""
    try:
        if path == "-":
            data = getattr(_std(sys.stdin), "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except OSError as exc:
        raise serialize.DocumentError(f"cannot read {_clip(path)}: {_clip(exc.strerror or str(exc))}") from exc
    except json.JSONDecodeError as exc:
        raise serialize.DocumentError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise serialize.DocumentError("malformed JSON: nested too deeply") from exc
    except ValueError as exc:  # bytes that are not UTF-8, an integer longer than sys.get_int_max_str_digits()
        raise serialize.DocumentError(f"malformed JSON: {_clip(str(exc))}") from exc


def _write_doc(doc, path: str) -> None:
    text = serialize.dumps(doc)
    try:
        if path == "-":
            _write_stdout(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise _CannotWrite(f"cannot write {_clip(path)}: {_clip(exc.strerror or str(exc))}") from exc


def _write_stdout(text: str) -> None:
    out = _std(sys.stdout)
    try:
        out.write(text)
        out.flush()
    except OSError:
        _drain_to_devnull(out)
        raise


def _drain_to_devnull(stream) -> None:
    """Point the descriptor under `stream`, if it has one, at os.devnull.

    What a stream that failed a write still buffers would fail again when the
    interpreter flushes it at exit, printing "Exception ignored" and exiting
    120; on os.devnull that flush succeeds and the call keeps its exit code.
    """
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, as for an in-memory stream
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _note(line: str) -> None:
    """Write `line` to stderr, or drop it when stderr is closed or its write or flush fails.

    `sys.stderr` is looked up per call so that redirect_stderr applies; a
    line that cannot be written changes no exit code. After a failure the
    stream is drained as stdout is, since the line it still buffers would fail
    again in the interpreter's flush at exit.
    """
    err = sys.stderr
    if err is None:  # the interpreter started without descriptor 2
        return
    try:
        err.write(line + "\n")
        err.flush()
    except OSError:
        _drain_to_devnull(err)


def _read_input(path: str):
    """The complex or the non-face family that the document at `path` holds, as given."""
    doc = _read_doc(path)
    if isinstance(doc, dict) and "facets" in doc:
        return serialize.complex_from_doc(doc)
    if isinstance(doc, dict) and "nonfaces" in doc:
        return serialize.family_from_doc(doc)
    raise serialize.DocumentError("expected a document with 'facets' or 'nonfaces'")


def _as_complex(given):
    """The complex `given`, or the one whose minimal non-faces it is (Berge's dualization)."""
    return complex_from_nonfaces(given) if isinstance(given, NonFaceFamily) else given


def _print_certificate(cert) -> None:
    if cert.n >= 3:
        cyc = " - ".join("{" + ",".join(map(str, a)) + "}" for a in cert.ordering)
        _note(f"cyclic ordering: {cyc}")
    _note("blocks: " + " | ".join("{" + ",".join(map(str, b)) + "}" for b in cert.blocks))


def _cmd_check(args) -> int:
    verdict = recognize(_read_input(args.input))
    _write_doc(serialize.verdict_to_doc(verdict), args.output)
    if isinstance(verdict, Sphere):
        if args.verbose:
            _print_certificate(verdict.certificate)
        return 0
    if isinstance(verdict, NotSphere):
        return 1
    return 2


def _cmd_nonfaces(args) -> int:
    comp = serialize.complex_from_doc(_read_doc(args.input))
    _write_doc(serialize.family_to_doc(minimal_nonfaces(comp)), args.output)
    return 0


def _cmd_complex(args) -> int:
    fam = serialize.family_from_doc(_read_doc(args.input))
    _write_doc(serialize.complex_to_doc(complex_from_nonfaces(fam)), args.output)
    return 0


def _cmd_realize(args) -> int:
    given = _read_input(args.input)
    verdict = recognize(given)
    if not isinstance(verdict, Sphere):
        reason = serialize.verdict_to_doc(verdict)["reason"]
        _note(f"error: no sphere with m <= d+4 has these minimal non-faces: {reason}")
        return 1
    if args.verbose:
        _print_certificate(verdict.certificate)
    g = realize_gale_vectors(verdict.certificate)
    points = reconstruct_points(g)
    _write_doc(serialize.points_to_doc(points), args.output)
    if args.verify:
        if boundary_complex(points) != _as_complex(given):
            _note("verification: hull boundary differs from the complex")
            return 1
        _note("verification: hull boundary matches the complex")
    return 0


def _cmd_hull(args) -> int:
    pc = serialize.points_from_doc(_read_doc(args.input))
    facets = hull_facets(pc)
    _write_doc({"m": pc.n, "facets": [list(f) for f in facets]}, args.output)
    return 0


def _cmd_homology(args) -> int:
    comp = serialize.complex_from_doc(_read_doc(args.input))
    _write_doc(serialize.betti_to_doc(betti_mod2(comp)), args.output)
    return 0


def _cmd_catalog(args) -> int:
    report = run_catalog(args.m)
    _write_doc(serialize.catalog_to_doc(report), args.output)
    return 0


def _cmd_verify(args) -> int:
    comp = _as_complex(_read_input(args.input))
    verdict, stages = cross_check(comp, enumerate_chains(comp))
    if args.verbose and isinstance(verdict, Sphere):
        _print_certificate(verdict.certificate)
    ok = all(stages.values())
    _write_doc({"ok": ok, "stages": stages}, args.output)
    return 0 if ok else 1


COMMANDS = {
    "check": ("decide sphereness of a complex or non-face family", _cmd_check),
    "nonfaces": ("minimal non-faces of a complex", _cmd_nonfaces),
    "complex": ("facets of the complex determined by non-faces", _cmd_complex),
    "realize": ("exact polytope realization of a sphere", _cmd_realize),
    "hull": ("facets of the convex hull of rational points", _cmd_hull),
    "homology": ("reduced GF(2) Betti numbers of a complex", _cmd_homology),
    "catalog": ("all spheres on m vertices of dimension m-4", _cmd_catalog),
    "verify": ("full recognizer/realization/oracle cross-check", _cmd_verify),
}


# Each command's options as (flags, kind, help), in the order of their help
# lines; the dest is the long flag without its dashes. A `str` option takes a
# path, "-" by default, a `bool` one is a switch, False by default, and the
# `int` one is a required integer.
_INPUT = (("--input", "-i"), str, "input JSON path, '-' for stdin")
_OUTPUT = (("--output", "-o"), str, "output JSON path, '-' for stdout")
_VERBOSE = (("--verbose",), bool, "print certificates to stderr")
OPTIONS = {
    "check": (_INPUT, _OUTPUT, _VERBOSE),
    "nonfaces": (_INPUT, _OUTPUT),
    "complex": (_INPUT, _OUTPUT),
    "realize": (_INPUT, _OUTPUT, _VERBOSE, (("--verify",), bool, "also compare the hull with the complex")),
    "hull": (_INPUT, _OUTPUT),
    "homology": (_INPUT, _OUTPUT),
    "catalog": (_OUTPUT, (("--m",), int, f"vertex count (4..{MAX_M})")),
    "verify": (_INPUT, _OUTPUT, _VERBOSE),
}


def _add_options(parser, name: str) -> None:
    """The options of the command `name`, and its name and handler as defaults."""
    parser.set_defaults(command=name, handler=COMMANDS[name][1])
    for flags, kind, help_text in OPTIONS[name]:
        if kind is bool:
            parser.add_argument(*flags, action="store_true", help=help_text)
        elif kind is int:
            parser.add_argument(*flags, type=int, required=True, help=help_text)
        else:
            parser.add_argument(*flags, default="-", help=help_text)


def build_parser():
    """The argparse parser of every command, one subparser each: the reference for `parse_args`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="oddsphere",
        description="Recognize, realize, and catalog simplicial spheres on few vertices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return parser


def _read_argv(argv: list):
    """The namespace of a call spelled out in full, or None when it is not one.

    A call is spelled out in full when `argv[0]` is a command and every later
    token is one of that command's flags as declared, each flag that takes a
    value followed by a value that is "-" or does not start with "-", every
    `--m` value an `int` and `--m` present.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    name = argv[0]
    values, kinds = {}, {}
    for flags, kind, _ in OPTIONS[name]:
        dest = flags[0][2:]
        values[dest] = False if kind is bool else "-" if kind is str else None
        kinds.update(dict.fromkeys(flags, (dest, kind)))
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in kinds:
            return None
        dest, kind = kinds[token]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or (value.startswith("-") and value != "-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[dest] = value
    if None in values.values():  # the required `--m` is missing
        return None
    return SimpleNamespace(command=name, handler=COMMANDS[name][1], **values)


def parse_args(argv: list):
    """The namespace of `argv`, as `build_parser().parse_args(argv)` gives it.

    A call spelled out in full (`_read_argv`) is read without argparse, into
    a namespace with the attributes argparse would give. Every other call,
    such as `-h`, an abbreviated flag (`--verb`), `--m=5`, `-ix`, `--`, a
    value that starts with "-", an `--m` that is not an integer or an
    unknown token, is parsed by `build_parser()`, which prints its help,
    usage and errors.
    """
    args = _read_argv(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EX_INPUT if exc.code else 0
    try:
        return args.handler(args)
    except ValueError as exc:
        _note(f"error: {exc}")
        return EX_INPUT
    except _CannotWrite as exc:
        _note(f"error: {exc}")
        return EX_CANTCREAT
    except (InternalInconsistency, CatalogVerificationError) as exc:
        _note(f"internal error: {exc}")
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
