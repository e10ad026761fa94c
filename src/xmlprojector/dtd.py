"""DTD import: element declarations become a local regular tree grammar.

Every declared element gets one name (capitalized tag, suffixed on
collision) and one rule.  `(#PCDATA)` turns into `T*` with a per-element
text name so that text under one tag can be pruned independently of text
under another; mixed content interleaves that text name with the declared
element names; EMPTY becomes Epsilon and ANY a star over every declared
name plus a fresh text name.  ATTLIST declarations contribute attribute
metadata only.
"""

from __future__ import annotations

import xml.parsers.expat
from xml.parsers.expat import model as _xm

from .grammar import (
    EPSILON,
    Atom,
    ContentRegex,
    Grammar,
    Opt,
    Plus,
    Rule,
    Star,
    alt,
    seq,
)


class DtdError(ValueError):
    """Malformed or unsupported DTD input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


_QUANT_WRAP = {
    _xm.XML_CQUANT_NONE: lambda r: r,
    _xm.XML_CQUANT_OPT: Opt,
    _xm.XML_CQUANT_REP: Star,
    _xm.XML_CQUANT_PLUS: Plus,
}


def _collect_declarations(text: str) -> tuple[list[tuple[str, tuple]], dict[str, tuple[str, ...]]]:
    """Run expat over the DTD text wrapped as an internal subset."""
    if text.startswith("﻿"):
        text = text[1:]
    if text.lstrip().startswith("<?xml"):
        # external subsets may carry a text declaration; it cannot appear
        # inside an internal subset, so strip it before wrapping
        head, sep, rest = text.partition("?>")
        if not sep:
            raise DtdError("unterminated text declaration")
        text = rest
    wrapped = "<!DOCTYPE __dtd__ [\n" + text + "\n]>\n<__dtd__/>"

    decls: list[tuple[str, tuple]] = []
    attlists: dict[str, list[str]] = {}
    parser = xml.parsers.expat.ParserCreate()
    parser.ElementDeclHandler = lambda name, model: decls.append((name, model))

    def attlist(elname, attname, att_type, default, required):
        names = attlists.setdefault(elname, [])
        if attname not in names:
            names.append(attname)

    parser.AttlistDeclHandler = attlist
    try:
        parser.Parse(wrapped.encode("utf-8"), True)
    except xml.parsers.expat.ExpatError as exc:
        raise DtdError(
            xml.parsers.expat.errors.messages[exc.code], exc.lineno - 1, exc.offset + 1
        ) from None
    return decls, {k: tuple(v) for k, v in attlists.items()}


def _referenced_tags(model: tuple) -> set[str]:
    mtype, _, name, children = model
    refs: set[str] = set()
    if mtype == _xm.XML_CTYPE_NAME:
        refs.add(name)
    for child in children:
        refs |= _referenced_tags(child)
    return refs


def parse_dtd(text: str | bytes, root: str | None = None) -> Grammar:
    """Import DTD element declarations as a grammar.

    The first declared element supplies the start name unless ``root``
    names another declared element.  Rejects duplicate declarations and
    references to undeclared elements.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    decls, attlists = _collect_declarations(text)
    if not decls:
        raise DtdError("no element declarations found")

    seen: dict[str, tuple] = {}
    order: list[str] = []
    duplicates: list[str] = []
    for tag, model in decls:
        if tag in seen:
            duplicates.append(tag)
        else:
            seen[tag] = model
            order.append(tag)
    if duplicates:
        raise DtdError("duplicate element declarations: " + ", ".join(sorted(set(duplicates))))

    undeclared = sorted(
        {ref for model in seen.values() for ref in _referenced_tags(model) if ref not in seen}
    )
    if undeclared:
        raise DtdError("undeclared elements referenced: " + ", ".join(undeclared))

    used_names: set[str] = set()

    def fresh(base: str) -> str:
        name = base
        n = 1
        while name in used_names:
            n += 1
            name = f"{base}_{n}"
        used_names.add(name)
        return name

    name_of = {tag: fresh(tag[0].upper() + tag[1:]) for tag in order}

    rules: list[Rule] = []

    def convert(model: tuple) -> ContentRegex:
        mtype, quant, name, children = model
        wrap = _QUANT_WRAP[quant]
        if mtype == _xm.XML_CTYPE_NAME:
            return wrap(Atom(name_of[name]))
        if mtype == _xm.XML_CTYPE_SEQ:
            return wrap(seq(*(convert(c) for c in children)))
        if mtype == _xm.XML_CTYPE_CHOICE:
            return wrap(alt(*(convert(c) for c in children)))
        raise DtdError("unexpected content particle in declaration")

    for tag in order:
        mtype, quant, _, children = seen[tag]
        if mtype == _xm.XML_CTYPE_EMPTY:
            content: ContentRegex = EPSILON
        elif mtype == _xm.XML_CTYPE_ANY:
            text_name = fresh("T" + name_of[tag])
            rules.append(Rule.text(text_name))
            content = Star(alt(Atom(text_name), *(Atom(name_of[t]) for t in order)))
        elif mtype == _xm.XML_CTYPE_MIXED:
            text_name = fresh("T" + name_of[tag])
            rules.append(Rule.text(text_name))
            content = Star(alt(Atom(text_name), *(convert(c) for c in children)))
        else:
            content = convert(seen[tag])
        rules.append(Rule.element(name_of[tag], tag, content))

    if root is not None:
        if root not in name_of:
            raise DtdError(f"requested root element {root!r} is not declared")
        start = name_of[root]
    else:
        start = name_of[order[0]]
    return Grammar((start,), rules, attlists)
