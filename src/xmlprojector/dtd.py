"""DTD import: element declarations become a local regular tree grammar.

Every declared element gets one name (capitalized tag, suffixed on
collision) and one rule.  `(#PCDATA)` turns into `T*` with a per-element
text name so that text under one tag can be pruned independently of text
under another; mixed content interleaves that text name with the declared
element names; EMPTY becomes Epsilon and ANY a star over every declared
name plus a fresh text name.  ATTLIST declarations contribute attribute
metadata only.  An element named `_` is rejected: `_` is how grammars
write the wildcard label, which matches every tag.

Each children or mixed content model is read in one loop over an explicit
stack of expat's model tuples (``_content_regex``), so parenthesis depth is
unbounded.  The loop builds the regex bottom-up through ``seq`` and
``alt``, uses one shared ``Atom`` per declared name, and collects the tags
the model mentions as it goes; the rule takes their names from there
instead of walking its finished regex, and tags nobody declared fail the
import once every declaration is read.

The import runs with the cyclic collector paused (``doc.collector_paused``),
as the tree builders do: the labels, regexes and rules it makes hold no
reference cycle, so the collections their allocation would start walk them
and free nothing.
"""

from __future__ import annotations

import xml.parsers.expat
from xml.parsers.expat import model as _xm

from .doc import collector_paused
from .grammar import (
    EPSILON,
    Atom,
    ContentRegex,
    Grammar,
    Label,
    Opt,
    Plus,
    Rule,
    Star,
    alt,
    seq,
)


# expat's content-model constants, bound once for the loop that reads every particle
_EMPTY, _ANY, _MIXED = _xm.XML_CTYPE_EMPTY, _xm.XML_CTYPE_ANY, _xm.XML_CTYPE_MIXED
_NAME, _SEQ, _CHOICE = _xm.XML_CTYPE_NAME, _xm.XML_CTYPE_SEQ, _xm.XML_CTYPE_CHOICE
_ONCE, _OPT, _REP = _xm.XML_CQUANT_NONE, _xm.XML_CQUANT_OPT, _xm.XML_CQUANT_REP


class DtdError(ValueError):
    """Malformed or unsupported DTD input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


def _collect_declarations(text: str) -> tuple[list[tuple[str, tuple]], dict[str, tuple[str, ...]]]:
    """Run expat over the DTD text wrapped as an internal subset."""
    if text.startswith("﻿"):
        text = text[1:]
    if text.lstrip().startswith("<?xml"):
        # external subsets may carry a text declaration; it cannot appear
        # inside an internal subset, so blank it, and any space before it,
        # before wrapping: whitespace is legal there, and expat then counts
        # lines and columns over the text as given
        head, sep, rest = text.partition("?>")
        if not sep:
            raise DtdError("unterminated text declaration")
        text = "\n".join([" " * len(line) for line in (head + sep).split("\n")]) + rest
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


def parse_dtd(text: str | bytes, root: str | None = None) -> Grammar:
    """Import DTD element declarations as a grammar.

    The first declared element supplies the start name unless ``root``
    names another declared element.  Rejects duplicate declarations, an
    element named ``_`` and references to undeclared elements.

    Runs with the cyclic collector paused (``collector_paused``): the
    grammar holds no reference cycle, so the collections its allocations
    would start find nothing to free.
    """
    with collector_paused():
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        decls, attlists = _collect_declarations(text)
        if not decls:
            raise DtdError("no element declarations found")

        seen: dict[str, tuple] = {}
        duplicates: list[str] = []
        for tag, model in decls:
            if tag in seen:
                duplicates.append(tag)
            else:
                seen[tag] = model
        if duplicates:
            raise DtdError("duplicate element declarations: " + ", ".join(sorted(set(duplicates))))
        if "_" in seen:
            raise DtdError(
                "element '_' cannot be imported: grammars write the wildcard label, "
                "which matches every tag, as `_`"
            )

        used_names: set[str] = set()

        def fresh(base: str) -> str:
            name = base
            n = 1
            while name in used_names:
                n += 1
                name = f"{base}_{n}"
            used_names.add(name)
            return name

        name_of = {tag: fresh(tag[0].upper() + tag[1:]) for tag in seen}
        atoms = {tag: Atom(name) for tag, name in name_of.items()}  # shared by every rule
        undeclared: set[str] = set()
        rules: list[Rule] = []
        for tag, model in seen.items():
            mtype, quant, _, children = model
            name = name_of[tag]
            if mtype == _EMPTY:
                rules.append(Rule._with_names(name, Label(tag), EPSILON, ()))
                continue
            if mtype == _ANY:
                text_name = fresh("T" + name)
                rules.append(Rule.text(text_name))
                content = Star(alt(Atom(text_name), *atoms.values()))
                rules.append(Rule._with_names(name, Label(tag), content,
                                              (text_name, *name_of.values())))
                continue
            tags: set[str] = set()
            if mtype == _MIXED:
                text_name = fresh("T" + name)
                rules.append(Rule.text(text_name))
                names = [text_name]
                parts = [Atom(text_name)]
                content = Star(_content_regex(_CHOICE, _ONCE, children, parts, atoms, tags))
            elif mtype == _SEQ or mtype == _CHOICE:
                names = []
                content = _content_regex(mtype, quant, children, [], atoms, tags)
            else:
                raise DtdError("unexpected content particle in declaration")
            if not tags <= name_of.keys():
                undeclared.update(t for t in tags if t not in name_of)
            elif not undeclared:  # once a tag is undeclared, the loop only looks for more
                names.extend([name_of[t] for t in tags])
                rules.append(Rule._with_names(name, Label(tag), content, tuple(names)))
        if undeclared:
            raise DtdError("undeclared elements referenced: " + ", ".join(sorted(undeclared)))

        if root is not None:
            if root not in name_of:
                raise DtdError(f"requested root element {root!r} is not declared")
            start = name_of[root]
        else:
            start = name_of[next(iter(seen))]
        return Grammar((start,), rules, attlists)


def _content_regex(kind: int, quant: int, children: tuple, parts: list[ContentRegex],
                   atoms: dict[str, Atom], tags: set[str]) -> ContentRegex:
    """The regex of a group of ``kind`` (sequence or choice) and quantifier
    ``quant`` over expat's model tuples ``children``, after ``parts``,
    built bottom-up through ``seq`` and ``alt``; the tags its names
    mention are added to ``tags``.

    One loop over an explicit stack of the open groups, so parenthesis
    depth is unbounded: a frame holds an enclosing group's kind,
    quantifier, iterator over its children and finished parts.  A name is
    its tag's atom in ``atoms``, or Epsilon for an undeclared tag, on
    which the import fails."""
    frames: list[tuple] = []
    it = iter(children)
    while True:
        for ctype, cquant, tag, grandchildren in it:
            if ctype == _NAME:
                tags.add(tag)
                leaf = atoms.get(tag, EPSILON)
                parts.append(leaf if cquant == _ONCE else _quantified(leaf, cquant))
            elif ctype == _SEQ or ctype == _CHOICE:
                frames.append((kind, quant, it, parts))
                kind, quant, it, parts = ctype, cquant, iter(grandchildren), []
                break
            else:
                raise DtdError("unexpected content particle in declaration")
        else:
            group = seq(*parts) if kind == _SEQ else alt(*parts)
            if quant != _ONCE:
                group = _quantified(group, quant)
            if not frames:
                return group
            kind, quant, it, parts = frames.pop()
            parts.append(group)


def _quantified(regex: ContentRegex, quant: int) -> ContentRegex:
    """The regex under a particle's quantifier: ``?``, ``*`` or ``+``."""
    if quant == _OPT:
        return Opt(regex)
    return Star(regex) if quant == _REP else Plus(regex)
