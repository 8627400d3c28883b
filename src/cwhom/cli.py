"""Command-line interface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 semantic failure (invalid input object, failed check, undefined
degree), 2 malformed, unreadable or non-UTF-8 document, 3 usage error
(an unwritable -o/--output path too).  When the reader of stdout goes
away first (``cwhom check | head -1``), every command stops quietly with
exit code 1: no traceback and no message.  ``main`` may be called
repeatedly in one process: it builds the parser of each command it runs
once, and binds that command's handler then.  It builds the full parser,
with every command, only for an argv that names no command or that leaves
arguments over, whose usage and errors are the full parser's.  It also
keeps the last valid document a call loaded (``_load``), so a later call
that reads the same text to load it the same way parses, builds and
validates nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from .abgroups import FgAbGroup, GroupSyntaxError, parse_group
from .chainmaps import ChainMap, degree, mapping_cone, require_valid_map
from .complexes import (
    ZOO_NAMES,
    _ZOO_MAX,
    euler_characteristic,
    quotient_by_skeleton,
    require_valid,
    suspension,
    wedge,
    zoo,
)
from .documents import (SchemaError, _parse, complex_from_doc, complex_to_doc, dumps, loads_complex,
                        loads_map, map_from_doc)
from .homology import chain_group
from .verify import (
    SUITES,
    check_les_exactness,
    check_skeletal_reformulation,
    check_suspension,
    run_battery,
)

__all__ = ["main"]

USAGE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        print(f"cannot read {path}: {e.strerror}", file=sys.stderr)
    except UnicodeDecodeError as e:
        print(f"cannot read {path}: not UTF-8 text (byte {e.start})", file=sys.stderr)
    raise SystemExit(2)


# The last valid document a call loaded, as (text, loader, value): a later
# call in the same process that reads the same text, to load it the same
# way, gets that value back and parses, builds and validates nothing.
# Values are immutable, so sharing one is safe; a document that is
# malformed or invalid does not replace the slot.
_kept = (None, None, None)


def _load(path: str, loader):
    """loader(text of path), or the kept value when the text and the loader
    are those of the last document loaded."""
    global _kept
    text = _read(path)
    kept_text, kept_loader, value = _kept
    if loader is not kept_loader or text != kept_text:
        value = loader(text)
        if not value._violations:
            _kept = (text, loader, value)
    return value


def _map_text(text: str) -> ChainMap:
    return loads_map(text, validate=False)


def _document_text(text: str):
    """The chain map (a document with "maps") or the complex a document
    holds, unvalidated, from one parse of its text."""
    raw = _parse(text)
    if isinstance(raw, dict) and "maps" in raw:
        return map_from_doc(raw)
    return complex_from_doc(raw)


def _coeff(text: str) -> FgAbGroup:
    try:
        return parse_group(text)
    except GroupSyntaxError as e:
        raise argparse.ArgumentTypeError(str(e))


def _emit(doc: dict, args):
    text = dumps(doc)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            args.usage_error(f"argument -o/--output: cannot write {args.output}: {e.strerror}")


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    if not sep or b < a:
        raise argparse.ArgumentTypeError(f"expected a..b with a <= b, got {text!r}")
    if b - a > _ZOO_MAX:  # the zoo's ceiling: a mistyped bound cannot run for hours
        raise argparse.ArgumentTypeError(f"expected a..b spanning at most {_ZOO_MAX + 1} dimensions, got {text!r}")
    return range(a, b + 1)


def _cmd_validate(args) -> int:
    obj = _load(args.file, _document_text)
    if obj._violations:
        for v in obj._violations:
            print(v, file=sys.stderr)
        return 1
    print("valid chain map" if isinstance(obj, ChainMap) else "valid complex")
    return 0


def _cmd_homology(args) -> int:
    x = _load(args.file, loads_complex)
    variant = "cohomology" if args.cohomology else "homology"
    sym = "H^" if args.cohomology else "H_"
    dims = [args.dim] if args.dim is not None else list(range(x.dim + 1))
    # the whole table is rendered before any of it is printed, so a
    # failure prints no partial table
    lines = [f"{sym}{n} = {chain_group(x, n, args.coeff, variant, args.reduced).group}" for n in dims]
    print("\n".join(lines))
    return 0


def _cmd_euler(args) -> int:
    print(euler_characteristic(_load(args.file, loads_complex)))
    return 0


def _cmd_susp(args) -> int:
    _emit(complex_to_doc(suspension(_load(args.file, loads_complex))), args)
    return 0


def _cmd_wedge(args) -> int:
    xs = [_load(p, loads_complex) for p in args.files]
    _emit(complex_to_doc(wedge(xs)), args)
    return 0


def _cmd_quotient(args) -> int:
    x = _load(args.file, loads_complex)
    _emit(complex_to_doc(quotient_by_skeleton(x, args.below)), args)
    return 0


def _cmd_cone(args) -> int:
    _emit(complex_to_doc(mapping_cone(_load(args.file, _map_text)).cone), args)
    return 0


def _cmd_zoo(args) -> int:
    _emit(complex_to_doc(zoo(args.name, *args.params)), args)
    return 0


def _cmd_degree(args) -> int:
    print(degree(_load(args.file, _map_text)))
    return 0


# the suites that run on a document of each kind; the others need the corpus
_DOCUMENT_SUITES = {"chain map": ("les",), "complex": ("suspension", "reformulation")}


def _cmd_check(args) -> int:
    suites = set(args.suite) if args.suite else {"all"}
    if args.file is None:
        for name in ("coeff", "range"):
            if getattr(args, name) is not None:
                args.usage_error(f"argument --{name}: applies only to a FILE check, not to the corpus battery")
        reports = run_battery(suites=suites)
    else:
        obj = _load(args.file, _document_text)
        kind = "chain map" if isinstance(obj, ChainMap) else "complex"
        for name in args.suite or ():
            if name != "all" and name not in _DOCUMENT_SUITES[kind]:
                args.usage_error(f"argument --suite: {name!r} does not apply to a {kind} document")
        if args.range is not None and not suites & {"all", "suspension", "les"}:
            args.usage_error("argument --range: only the suspension and les suites read a range")
        run_all = "all" in suites
        reports = []
        g = FgAbGroup.free(1) if args.coeff is None else args.coeff
        if isinstance(obj, ChainMap):
            # a map with other violations is refused for those alone
            f = require_valid_map(require_valid_map(obj), pointed=True)
            if run_all or "les" in suites:
                reports.append(check_les_exactness(f, g, args.range))
        else:
            x = require_valid(obj)
            if run_all or "suspension" in suites:
                reports.append(check_suspension(x, g, args.range))
            if run_all or "reformulation" in suites:
                reports.append(check_skeletal_reformulation(x, g))
    failed = 0
    for rep in reports:
        print(rep.render())
        failed += not rep.passed
    if failed:
        print(f"{failed} of {len(reports)} checks failed", file=sys.stderr)
        return 1
    return 0


def _file(sp):
    sp.add_argument("file", help="JSON document, or - for stdin")


def _output(sp):
    sp.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    sp.set_defaults(usage_error=sp.error)


def _file_output(sp):
    _file(sp)
    _output(sp)


def _homology_args(sp):
    _file(sp)
    sp.add_argument("--coeff", type=_coeff, default=FgAbGroup.free(1),
                    help="coefficient group, e.g. 'Z', 'Z/2', 'Z + Z/4' (default Z)")
    sp.add_argument("--cohomology", action="store_true", help="cohomology instead of homology")
    sp.add_argument("--reduced", action="store_true")
    sp.add_argument("--dim", type=int, default=None, help="single dimension only")


def _wedge_args(sp):
    sp.add_argument("files", nargs="+")
    _output(sp)


def _quotient_args(sp):
    _file(sp)
    sp.add_argument("--below", type=int, required=True,
                    help="collapse the skeleton of this dimension")
    _output(sp)


def _zoo_args(sp):
    sp.add_argument("name", choices=ZOO_NAMES)
    sp.add_argument("params", type=int, nargs="*")
    _output(sp)


def _check_args(sp):
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--coeff", type=_coeff, default=None, help="coefficient group of a FILE check (default Z)")
    sp.add_argument("--range", type=_parse_range, default=None,
                    help="dimension range a..b for suspension/les checks")
    sp.add_argument("--suite", action="append", choices=SUITES + ("all",),
                    help="restrict to a suite (repeatable; default all)")
    sp.set_defaults(usage_error=sp.error)


# every command, in the order the full parser lists them: its help line,
# its handler and the function that adds its arguments
_COMMANDS = {
    "validate": ("validate a complex or chain map document", _cmd_validate, _file),
    "homology": ("(co)homology groups", _cmd_homology, _homology_args),
    "euler": ("Euler characteristic", _cmd_euler, _file),
    "susp": ("reduced suspension", _cmd_susp, _file_output),
    "wedge": ("one-point union of complexes", _cmd_wedge, _wedge_args),
    "quotient": ("collapse a skeleton to the basepoint", _cmd_quotient, _quotient_args),
    "cone": ("mapping cone of a chain map document", _cmd_cone, _file_output),
    "zoo": ("standard complexes: " + ", ".join(ZOO_NAMES), _cmd_zoo, _zoo_args),
    "degree": ("degree of a sphere self-map document", _cmd_degree, _file),
    "check": ("axiom checks (no file: full corpus battery)", _cmd_check, _check_args),
}


def _command(sp: _Parser, name: str) -> _Parser:
    _, handler, add_arguments = _COMMANDS[name]
    add_arguments(sp)
    sp.set_defaults(func=handler)
    return sp


# each parser is built once per process and reused by every main call, so
# its handlers (func=_cmd_*), types and usage_error are bound here;
# parse_args makes a fresh namespace on each call, and no default is
# mutable.  Keys are a command name or nothing (the full parser), so the
# cache holds at most one parser per command and the full one
@lru_cache(maxsize=len(_COMMANDS) + 1)
def build_parser(command: str | None = None) -> _Parser:
    """The parser of one command, named as in the full parser's usage; or,
    with no command, the full parser: all commands, as subparsers."""
    if command is not None:
        return _command(_Parser(prog=f"cwhom {command}"), command)
    p = _Parser(prog="cwhom", description="finite CW complexes, exact (co)homology, axiom checks")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        _command(sub.add_parser(name, help=text), name)
    return p


def _namespace(argv: list):
    """argv's namespace, read by the parser of the command argv[0] names.
    The full parser reads an argv that names no command, and again the
    whole of one that its command's parser leaves arguments of: then the
    usage and the error are the full parser's, as they would be from it
    alone."""
    if argv and argv[0] in _COMMANDS:
        args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            return _run(_namespace(argv))
        finally:
            # a write the pipe refuses must fail here, not at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: send what is still buffered to /dev/null, so the
        # interpreter's final flush has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _run(args) -> int:
    try:
        return args.func(args)
    except SchemaError as e:
        print(str(e), file=sys.stderr)
        return 2
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 1
    except MemoryError:
        # a dense block of two counts within the document bound can still be too large
        print("out of memory: the input's dense matrices do not fit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
