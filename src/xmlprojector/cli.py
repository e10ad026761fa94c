"""Command-line front end: infer, prune, validate, gen, check.

Exit codes: 0 success, 1 validation or soundness-check failure, 2 usage
and format errors.  Documents read from files or `-` (stdin) and write to
files or `-` (stdout); stats and diagnostics go to stderr so piped XML
stays clean.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from typing import IO

from .doc import XmlSyntaxError, parse_xml, serialize
from .dtd import DtdError, parse_dtd
from .grammar import (
    GrammarFormatError,
    Invalid,
    grammar_to_text,
    is_streamable,
    validate_tree,
)
from .inference import (
    Projector,
    infer_projector,
    parse_projector_text,
    projector_to_text,
)
from .oracle import GenConfig, OracleError, check_soundness, generate_document
from .pruner import (
    InvalidDocumentError,
    PruneStats,
    UnresolvableTagError,
    prune_file,
    prune_tree,
)
from .xpath import QueryEll, QuerySyntaxError, approximate_to_ell, parse_query


class InputFileError(ValueError):
    """A DTD, projector or query file that is not UTF-8 text."""


_USAGE_ERRORS = (
    DtdError, GrammarFormatError, QuerySyntaxError, XmlSyntaxError, OracleError, InputFileError
)
_DATA_ERRORS = (InvalidDocumentError, UnresolvableTagError)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # building all five subcommand parsers costs about half a millisecond
    # more than building one, so only the invoked one is built; help and
    # errors that list the subcommands get them all
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        # documents are walked with explicit stacks, a content-model group
        # is one node and parse_query bounds query nesting, so two things
        # still recurse per nesting level: document generation (`gen`,
        # `check`) and content-model parentheses
        print(f"error: input nested too deeply ({exc})", file=sys.stderr)
        return 2


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with `command` only.

    A parser built for one subcommand prints the same usage line as the
    full one, so its own errors read the same."""
    parser = argparse.ArgumentParser(
        prog="xmlprojector",
        description="Prune XML documents down to what a set of XPath queries can observe.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command is None or name == command:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _add_dtd(p, required=True):
    p.add_argument("--dtd", required=required, help="DTD file defining the schema")
    p.add_argument("--root", help="root element (default: first declared)")


def _add_queries(p):
    p.add_argument(
        "--query",
        action="append",
        default=[],
        metavar="XPATH",
        help="query; repeatable, results are unioned",
    )
    p.add_argument("--queries", help="batch file, one XPath per line, # comments")


def _infer_arguments(infer):
    _add_dtd(infer)
    _add_queries(infer)
    infer.add_argument(
        "--emit-grammar",
        action="store_true",
        help="emit the imported grammar instead of a projector (queries ignored)",
    )
    infer.add_argument("-o", "--output", default="-", help="projector file (default stdout)")
    infer.set_defaults(func=_cmd_infer)


def _prune_arguments(prune):
    _add_dtd(prune, required=False)
    _add_queries(prune)
    prune.add_argument("--projector", help="projector file from `infer`")
    prune.add_argument("-i", "--input", default="-", help="document (default stdin)")
    prune.add_argument("-o", "--output", default="-", help="pruned document (default stdout)")
    prune.add_argument("--policy", choices=("strict", "drop"), default="strict",
                       help="what to do with tags the grammar cannot resolve; streaming "
                       "prune does not validate, so strict checks tags only, not content models")
    prune.add_argument("--stats", action="store_true", help="print a stats line to stderr")
    prune.set_defaults(func=_cmd_prune)


def _validate_arguments(validate):
    _add_dtd(validate)
    validate.add_argument("-i", "--input", default="-", help="document (default stdin)")
    validate.set_defaults(func=_cmd_validate)


def _gen_arguments(gen):
    _add_dtd(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-depth", type=int, default=12)
    gen.add_argument("--max-star-repeat", type=int, default=3)
    gen.add_argument("-o", "--output", default="-")
    gen.set_defaults(func=_cmd_gen)


def _check_arguments(check):
    _add_dtd(check)
    _add_queries(check)
    check.add_argument("--n", type=int, default=100, help="number of documents")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--max-depth", type=int, default=12)
    check.add_argument("--dump-dir", default=".", help="where to write counterexamples")
    check.set_defaults(func=_cmd_check)


# ---------------------------------------------------------------------------
# Shared plumbing


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputFileError(f"{path}: not UTF-8 text ({exc})") from None


def _query_texts(args) -> list[str]:
    """`--query` values, then the lines of the `--queries` batch file; a
    usage error if there are none.  Every subcommand that takes queries
    loads them here."""
    texts = list(args.query)
    if args.queries:
        for line in _read_text(args.queries).splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                texts.append(line)
    if not texts:
        raise QuerySyntaxError("no queries given (use --query or --queries)")
    return texts


def _load_queries(args) -> list[QueryEll]:
    return [approximate_to_ell(parse_query(t)) for t in _query_texts(args)]


def _load_projector(args) -> Projector:
    if args.projector:
        if args.dtd or args.query or args.queries:
            raise GrammarFormatError("--projector excludes --dtd/--query/--queries")
        return parse_projector_text(_read_text(args.projector))
    if not args.dtd:
        raise GrammarFormatError("need either --projector or --dtd with queries")
    grammar = parse_dtd(_read_text(args.dtd), root=args.root)
    return infer_projector(_load_queries(args), grammar)


def _at_least(value: int, flag: str, low: int) -> int:
    """A numeric flag's value, or a usage error that names the flag."""
    if value < low:
        raise OracleError(f"{flag} must be >= {low}")
    return value


def _open_in(path: str) -> IO[bytes]:
    return sys.stdin.buffer if path == "-" else open(path, "rb")


def _open_out(path: str) -> IO[str]:
    if path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8")


def _close(fh, path: str) -> None:
    if path != "-":
        fh.close()


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_infer(args) -> int:
    grammar = parse_dtd(_read_text(args.dtd), root=args.root)
    if args.emit_grammar:
        text = grammar_to_text(grammar)
    else:
        projector = infer_projector(_load_queries(args), grammar)
        text = projector_to_text(projector)
    # opened only now, so that a usage error leaves an existing file as it was
    out = _open_out(args.output)
    try:
        out.write(text)
    finally:
        _close(out, args.output)
    if not args.emit_grammar:
        kept, total = projector.mask.bit_count(), len(grammar.rules)
        print(f"kept {kept} of {total} rules ({total - kept} dropped)", file=sys.stderr)
    return 0


def _cmd_prune(args) -> int:
    projector = _load_projector(args)
    stats = PruneStats() if args.stats else None
    with ExitStack() as files:
        src = _open_in(args.input)
        files.callback(_close, src, args.input)
        out = _open_out(args.output)
        files.callback(_close, out, args.output)
        if is_streamable(projector.grammar):
            prune_file(src, projector, out.write, policy=args.policy, stats=stats)
        else:
            print("grammar is not streamable; pruning in memory", file=sys.stderr)
            doc = parse_xml(src)
            out.write(serialize(prune_tree(doc, projector, stats=stats)))
        if stats is not None:
            print(stats.line(), file=sys.stderr)
        return 0


def _cmd_validate(args) -> int:
    grammar = parse_dtd(_read_text(args.dtd), root=args.root)
    src = _open_in(args.input)
    try:
        doc = parse_xml(src)
    finally:
        _close(src, args.input)
    result = validate_tree(doc, grammar)
    if isinstance(result, Invalid):
        print(f"invalid at {result.path}: {result.reason}")
        return 1
    print(f"valid ({len(result)} nodes typed)")
    return 0


def _cmd_gen(args) -> int:
    grammar = parse_dtd(_read_text(args.dtd), root=args.root)
    cfg = GenConfig(
        seed=args.seed,
        max_depth=_at_least(args.max_depth, "--max-depth", 1),
        max_star_repeat=_at_least(args.max_star_repeat, "--max-star-repeat", 0),
    )
    doc = generate_document(grammar, cfg)
    out = _open_out(args.output)
    try:
        out.write(serialize(doc))
        out.write("\n")
    finally:
        _close(out, args.output)
    return 0


def _cmd_check(args) -> int:
    grammar = parse_dtd(_read_text(args.dtd), root=args.root)
    cfg = GenConfig(seed=args.seed, max_depth=_at_least(args.max_depth, "--max-depth", 1))
    report = check_soundness(grammar, _query_texts(args), _at_least(args.n, "--n", 1), cfg)
    doc_paths: dict[int, str] = {}
    for i, failure in enumerate(report.failures):
        path = os.path.join(args.dump_dir, f"counterexample_{failure.seed}.xml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(failure.document)
        doc_paths[i] = path
    for line in report.lines(doc_paths):
        print(line)
    return 0 if report.passed else 1


# subcommand -> (help line, function that adds its arguments)
_COMMANDS = {
    "infer": ("infer a projector from DTD and queries", _infer_arguments),
    "prune": ("prune a document with a projector or infer one first", _prune_arguments),
    "validate": ("check a document against the DTD", _validate_arguments),
    "gen": ("generate a random valid document", _gen_arguments),
    "check": ("verify pruning soundness on generated documents", _check_arguments),
}


if __name__ == "__main__":
    sys.exit(main())
