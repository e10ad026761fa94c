"""Regular tree grammars over XML documents.

A grammar is a set of start names plus production rules.  A rule gives a
name either an element shape ``Name -> label [ regex over names ]`` or the
text shape ``Name -> String``.  The wildcard label ``_`` matches every
element tag, which is what lets a single grammar describe untyped
documents.

This module owns everything that depends only on the grammar itself:
content-model automata (Glushkov construction, determinized), document
validation producing a rule-per-node witness (one top-down pass on
streamable grammars, the general two-pass algorithm otherwise), the
top-down-determinism check that decides whether one-pass streaming is
possible, rule reachability, and the line-oriented text format used by
grammar and projector files.

Labels, content regexes and rules are immutable ``__slots__`` values on
the package's one value base (``doc._Frozen``, which the query values of
``xpath`` share), as cheap to build as the DTD import that makes
thousands of them needs: a label hashes once, and a regex's ``==`` and
``hash`` are loops, so parenthesis depth is unbounded.  A
``Rule`` holds the names its content mentions, and one read from text
holds its regex text unparsed until its content is first read, so
loading a projector builds no content regex.  ``Grammar`` owns the rule
index, built once at construction: the rules in sort order, found by
sorting on names and printing regex text only for rules that share a
name, and each name's rules (``sorted_rules``, ``rules_of``).  Every other
question about the grammar's structure is answered on key masks (ints,
bit i for the i-th sorted rule, one bit more for the document node):
one-step and reachability masks down and up (``child_mask``,
``parent_mask``, ``below``, ``above``, each the union over a mask's keys),
with each key's closure computed once and the parent rows built only when
an upward step first asks, and the node-test masks (``tag_mask``,
``element_mask``, ``text_mask``); ``mask_bits`` and ``rules_in`` take
masks apart.
Inference reads them, and so do validation, the streamability check and
the walk table, which resolve a child tag under a rule as one AND of its
child mask and the tag's mask.  None of them walks content regexes or
scans the rule set per step.

The walk table (``WalkTable``) is the one compiled form the top-down
walks on streamable grammars share.  It is built per call for one kept
mask, with one entry per element rule and one for the document node, each
made, and each exact child tag linked, the first time a walk meets it;
an entry's step plan (``plan``: its automaton rows and text name,
compiled once per rule on the grammar) is filled the first time
``walk_tree`` opens an element of its rule.  Two walks read it: the
streaming pruner's handlers, and ``walk_tree``, the one validating
top-down walk, which holds one frame per open element, copies the nodes
a projector keeps for the in-memory pruner and, with nothing kept, types
each node for ``validate_tree``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, count
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

from .doc import (
    CommentNode,
    Document,
    Element,
    NamePattern,
    Node,
    PINode,
    TextNode,
    _Frozen,
    collector_paused,
    node_path,
)

# rule names and element tags: XML names
_NAME_RE = NamePattern(lambda start, chars: f"[:{start}][:{chars}]*\\Z")
# ``rules_in`` decodes a mask in C when more than one in _DENSE of the rules'
# bits is set, where that beat the bit-by-bit loop on grammars of 30 to 600
# rules; _DIGITS turns its binary digits into the selectors of ``compress``.
_DENSE = 16
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class GrammarError(ValueError):
    """Malformed grammar: dangling names, empty start set, bad labels."""


class GrammarFormatError(ValueError):
    """Unparseable grammar/projector text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Labels and content regexes


class Label(_Frozen):
    """Element tag or the wildcard ``_`` (tag None) matching every tag."""

    __slots__ = ("tag", "_hash")
    _fields = ("tag",)

    def __init__(self, tag: str | None = None):
        if tag is not None and not _NAME_RE.match(tag):
            raise GrammarError(f"illegal element tag {tag!r}")
        self._fill(tag)

    def _fill(self, tag: str | None) -> None:
        _set_tag(self, tag)
        _set_label_hash(self, hash((tag,)))  # every rule hashes its label

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.tag == other.tag

    def __hash__(self):
        return self._hash

    @property
    def is_wildcard(self) -> bool:
        return self.tag is None

    def matches(self, tag: str) -> bool:
        return self.tag is None or self.tag == tag

    def __str__(self):
        return "_" if self.tag is None else self.tag


_set_tag, _set_label_hash = Label.tag.__set__, Label._hash.__set__
WILDCARD_LABEL = Label(None)


class ContentRegex(_Frozen):
    """A content model: a regex over rule names.

    Two regexes are equal when they are of one class and their fields are
    equal, as frozen dataclasses are.  ``==``, ``hash``, ``repr`` and
    pickling read the value's post-order shape (``_shape``) or its nodes
    (``_postorder``), one loop each, so parenthesis depth is unbounded.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or _shape(self) == _shape(other)

    def __hash__(self):
        return hash(_shape(self))

    def __repr__(self):
        # the dataclass-style text, each node's built after its parts'
        texts: list[str] = []
        for r in _postorder(self):
            kind = type(r)
            if kind is Atom:
                text = f"Atom(name={r.name!r})"
            elif kind is Seq or kind is Alt:
                n = len(r.parts)
                parts = ", ".join(texts[len(texts) - n:]) + ("," if n == 1 else "")
                del texts[len(texts) - n:]
                text = f"{kind.__qualname__}(parts=({parts}))"
            elif kind is Star or kind is Plus or kind is Opt:
                text = f"{kind.__qualname__}(inner={texts.pop()})"
            else:
                text = f"{kind.__qualname__}()"
            texts.append(text)
        return texts[0]

    def __reduce__(self):
        return (_from_shape, (_shape(self),))


class Empty(ContentRegex):
    """Matches no word at all (the empty language)."""

    __slots__ = ()


class Epsilon(ContentRegex):
    """Matches only the empty word."""

    __slots__ = ()


class Atom(ContentRegex):
    __slots__ = ("name",)
    _fields = __slots__

    def __init__(self, name: str):
        _set_atom_name(self, name)


class _Group(ContentRegex):
    __slots__ = ("parts",)
    _fields = __slots__

    def __init__(self, parts: tuple[ContentRegex, ...]):
        _set_parts(self, parts)


class Seq(_Group):
    """Concatenation of two or more parts; build it with ``seq``, which keeps
    the last part from being a ``Seq`` so that equal sequences are equal."""

    __slots__ = ()


class Alt(_Group):
    """Union of two or more parts; build it with ``alt``, which keeps the
    last part from being an ``Alt`` so that equal unions are equal."""

    __slots__ = ()


class _Unary(ContentRegex):
    __slots__ = ("inner",)
    _fields = __slots__

    def __init__(self, inner: ContentRegex):
        _set_inner(self, inner)


class Star(_Unary):
    __slots__ = ()


class Plus(_Unary):
    __slots__ = ()


class Opt(_Unary):
    __slots__ = ()


_set_atom_name = Atom.name.__set__
_set_parts, _set_inner = _Group.parts.__set__, _Unary.inner.__set__

EMPTY = Empty()
EPSILON = Epsilon()


def seq(*parts: ContentRegex) -> ContentRegex:
    """Sequence of the parts: () gives Epsilon, one part itself.  A trailing
    ``Seq`` part is spliced in, so ``a (b c)`` and ``a b c`` are one value,
    while a ``Seq`` anywhere else stays a group: ``(a b) c``."""
    return _group(Seq, parts, EPSILON)


def alt(*parts: ContentRegex) -> ContentRegex:
    """Union of the parts: () gives Empty, one part itself.  A trailing
    ``Alt`` part is spliced in as ``seq`` splices a trailing ``Seq``."""
    return _group(Alt, parts, EMPTY)


def _group(kind: type, parts: tuple[ContentRegex, ...], identity: ContentRegex) -> ContentRegex:
    if len(parts) < 2:
        return parts[0] if parts else identity
    if isinstance(parts[-1], kind):
        parts = parts[:-1] + parts[-1].parts
    return kind(parts)


def names_in(regex: ContentRegex) -> frozenset[str]:
    """The names the regex mentions."""
    return frozenset([r.name for r in _postorder(regex) if type(r) is Atom])


def _postorder(regex: ContentRegex) -> list[ContentRegex]:
    """The regex's nodes, each after its parts, parts left to right.  A
    loop over an explicit stack, so parenthesis depth is unbounded."""
    nodes = []
    work = [regex]
    while work:
        r = work.pop()
        nodes.append(r)  # reversed below: right parts come out first
        kind = type(r)
        if kind is Seq or kind is Alt:
            work.extend(r.parts)
        elif kind is Star or kind is Plus or kind is Opt:
            work.append(r.inner)
    nodes.reverse()
    return nodes


def _shape(regex: ContentRegex) -> tuple:
    """The regex as a flat tuple: each node in post-order as its class,
    followed by its name for an ``Atom`` or its number of parts for a
    group.  Equal regexes, and only they, have equal shapes."""
    shape: list = []
    for r in _postorder(regex):
        kind = type(r)
        shape.append(kind)
        if kind is Atom:
            shape.append(r.name)
        elif kind is Seq or kind is Alt:
            shape.append(len(r.parts))
    return tuple(shape)


def _from_shape(shape: tuple) -> ContentRegex:
    """The regex whose ``_shape`` is ``shape``, built in one loop."""
    built: list[ContentRegex] = []
    fields = iter(shape)
    for kind in fields:
        if kind is Atom:
            built.append(Atom(next(fields)))
        elif kind is Seq or kind is Alt:
            k = len(built) - next(fields)
            parts = tuple(built[k:])
            del built[k:]
            built.append(kind(parts))
        elif kind is Star or kind is Plus or kind is Opt:
            built.append(kind(built.pop()))
        else:
            built.append(kind())
    return built[0]


# ---------------------------------------------------------------------------
# Rules and grammars


def _check_rule_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise GrammarError(f"illegal rule name {name!r}")


class Rule(_Frozen):
    """One production: ``name -> label [ content ]`` or ``name -> String``.

    A rule holds its name, its label (None for a text rule), the names its
    content mentions (``_names``, empty for a text rule) and either its
    content or, for an element rule read from text (``from_text``), its
    regex text.  The text is parsed into ``content`` on the first read of
    ``content``: when its automaton is compiled, it is printed, pickled or
    compared with a rule of its name and label, or it breaks a sort tie.
    Loading checked the text, so that parse cannot fail.  Such a rule
    equals, hashes, pickles and sorts like the rule built with the parsed
    content.  Concurrent first reads each parse and store an equal value,
    so a shared rule is safe to read from any thread.  Setting or deleting
    an attribute raises ``FrozenInstanceError``, an ``AttributeError``.
    """

    __slots__ = ("name", "label", "_names", "_content", "_regex", "_hash")

    def __init__(self, name: str, label: Label | None, content: ContentRegex | None):
        if (label is None) != (content is None):
            raise GrammarError("rule must have both label and content, or neither")
        _check_rule_name(name)
        self._fill(name, label, () if content is None else tuple(names_in(content)), content, None)

    @classmethod
    def from_text(cls, name: str, label: Label, regex: str, names: tuple[str, ...]) -> "Rule":
        """The element rule whose content is ``regex``, a text
        ``parse_regex_text`` accepts that mentions ``names``."""
        _check_rule_name(name)
        rule = cls.__new__(cls)
        rule._fill(name, label, names, None, regex)
        return rule

    @classmethod
    def _with_names(cls, name: str, label: Label, content: ContentRegex,
                    names: tuple[str, ...]) -> "Rule":
        """``Rule(name, label, content)`` for a caller that knows the
        ``names`` the content mentions, as the DTD import does: the
        content is not walked for them."""
        _check_rule_name(name)
        rule = cls.__new__(cls)
        rule._fill(name, label, names, content, None)
        return rule

    def _fill(self, name: str, label: Label | None, names: tuple[str, ...],
              content: ContentRegex | None, regex: str | None) -> None:
        _set_name(self, name)
        _set_label(self, label)
        _set_names(self, names)
        _set_content(self, content)
        _set_regex(self, regex)
        # rules live in sets.  Equal rules share a name and a label, so the
        # hash need not read the content, whose tree may be deeper than the
        # recursion limit; DTD imports give each name one rule.
        _set_hash(self, hash((name, label)))

    @property
    def content(self) -> ContentRegex | None:
        content = self._content
        if content is None and self._regex is not None:
            content = parse_regex_text(self._regex)
            _set_content(self, content)
        return content

    def __eq__(self, other):
        if not isinstance(other, Rule):
            return NotImplemented
        return (self.name, self.label, self.content) == (other.name, other.label, other.content)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: string hashes, and so `_hash`, differ per process
        return (Rule, (self.name, self.label, self.content))

    @classmethod
    def element(cls, name: str, label: str | Label | None, content: ContentRegex) -> "Rule":
        if label is None:
            label = WILDCARD_LABEL
        elif isinstance(label, str):
            label = WILDCARD_LABEL if label == "_" else Label(label)
        return cls(name, label, content)

    @classmethod
    def text(cls, name: str) -> "Rule":
        return cls(name, None, None)

    @property
    def is_text(self) -> bool:
        return self.label is None

    def sort_key(self):
        if self.is_text:
            return (self.name, 0, "", "")
        return (self.name, 1, str(self.label), regex_to_text(self.content))

    def __repr__(self):
        return f"Rule({rule_to_text(self)!r})"


# The slots' own setters, which ``Rule.__setattr__`` does not reach; they
# write faster than ``object.__setattr__``, which looks the slot up by name.
_set_name, _set_label, _set_names, _set_content, _set_regex, _set_hash = (
    getattr(Rule, slot).__set__ for slot in Rule.__slots__
)


# What a text-neutral element rule's children step, for one-pass walks:
# (DFA rows, start state, accepting states, text rule, text name); see
# ``Grammar.plan``.  Which rule each child tag resolves to is the walk
# table's business, not the plan's.
StepPlan = tuple


_rule_name = attrgetter("name")


def _in_sort_order(rules: Iterable[Rule]) -> tuple[Rule, ...]:
    """``tuple(sorted(rules, key=Rule.sort_key))``, building a key only for
    rules that share a name.  Every key starts with the name, so sorting on
    the name and then each run of equal names on the whole key gives the
    same order, ties on the whole key included: both sorts are stable.  A
    DTD import gives each name one rule, so it builds no key."""
    ordered = sorted(rules, key=_rule_name)
    names = list(map(_rule_name, ordered))
    if len(set(names)) < len(names):
        i = 0
        while i < len(names):
            j = bisect_right(names, names[i], i)
            if j - i > 1:
                ordered[i:j] = sorted(ordered[i:j], key=Rule.sort_key)
            i = j
    return tuple(ordered)


class Grammar:
    """Immutable start-name set plus rule set, with derived lookup tables.

    Attribute metadata (``attributes``: tag -> declared attribute names) is
    carried along for information only; it never takes part in equality and
    never drives validation or pruning.
    """

    __slots__ = (
        "start",
        "rules",
        "attributes",
        "_sorted",
        "_by_name",
        "_text_children",
        "_automata",
        "_index",
        "_down",
        "_up",
        "_below",
        "_above",
        "_tag_masks",
        "_kind_masks",
        "_streamable",
        "_plans",
    )

    def __init__(
        self,
        start: Iterable[str],
        rules: Iterable[Rule],
        attributes: dict[str, tuple[str, ...]] | None = None,
    ):
        self.start: frozenset[str] = frozenset(start)
        self.rules: frozenset[Rule] = frozenset(rules)
        self.attributes: dict[str, tuple[str, ...]] = dict(attributes or {})
        if not self.start:
            raise GrammarError("grammar needs at least one start name")
        self._sorted: tuple[Rule, ...] = _in_sort_order(self.rules)
        by_name: dict[str, list[Rule]] = {}
        for rule in self._sorted:
            by_name.setdefault(rule.name, []).append(rule)
        self._by_name: dict[str, tuple[Rule, ...]] = {n: tuple(rs) for n, rs in by_name.items()}
        missing = self.start.union(*[rule._names for rule in self._sorted]) - self._by_name.keys()
        if missing:
            raise GrammarError("names without rules: " + ", ".join(sorted(missing)))
        self._text_children: dict[Rule, tuple[Rule, ...]] = {}
        self._automata: dict[Rule, ContentAutomaton] = {}
        # reachability masks, filled on first use by ``_index_masks``
        self._index: dict[Rule | None, int] | None = None
        self._down: list[int] = []
        self._up: list[int] = []
        self._below: list[int | None] = []
        self._above: list[int | None] = []
        self._tag_masks: dict[str, int] = {}
        self._kind_masks: tuple[int, int, int] = (0, 0, 0)  # wildcard, element, text
        self._streamable: bool | None = None
        self._plans: dict[Rule, StepPlan | None] = {}

    def __eq__(self, other):
        return (
            isinstance(other, Grammar) and self.start == other.start and self.rules == other.rules
        )

    def __hash__(self):
        return hash((self.start, self.rules))

    def __repr__(self):
        return f"Grammar(start={sorted(self.start)}, rules={len(self.rules)})"

    def __reduce__(self):
        # rebuild from what defines the grammar, under every protocol; the
        # lazy tables and caches are left behind and refilled on use
        return (Grammar, (self.start, self.sorted_rules(), self.attributes))

    def rules_of(self, name: str) -> tuple[Rule, ...]:
        """The name's rules, in ``sorted_rules()`` order."""
        return self._by_name.get(name, ())

    def start_rules(self) -> tuple[Rule, ...]:
        out: list[Rule] = []
        for name in sorted(self.start):
            out.extend(self.rules_of(name))
        return tuple(out)

    def sorted_rules(self) -> tuple[Rule, ...]:
        return self._sorted

    def child_names(self, rule: Rule) -> tuple[str, ...]:
        """Names the rule's content mentions; none for text rules."""
        return rule._names

    def text_children(self, rule: Rule) -> tuple[Rule, ...]:
        """The text rules one child step below the rule, in sort order:
        one per name in its content that can generate text.  Cached per
        rule."""
        found = self._text_children.get(rule)
        if found is None:
            found = tuple(self.rules_in(self.child_mask(self.bit(rule)) & self.text_mask()))
            self._text_children[rule] = found
        return found

    def automaton(self, rule: Rule) -> "ContentAutomaton":
        """Cached content-model automaton for an element rule."""
        auto = self._automata.get(rule)
        if auto is None:
            if rule.is_text:
                raise GrammarError("text rules have no content model")
            auto = compile_content_model(rule.content)
            self._automata[rule] = auto
        return auto

    def text_neutral(self, rule: Rule) -> bool:
        """True iff an element rule's text is never a choice: it has no text
        child, or one text name whose step the automaton ``absorbs``, so
        whitespace consumed as that name leaves every continuation open
        that skipping it would.  DTD rules always are: their text name
        occurs only as ``(#PCDATA | ...)*``."""
        return self.plan(rule) is not None

    def plan(self, rule: Rule) -> StepPlan | None:
        """What the children of a node the element rule generates step, for
        ``walk_tree``'s validating walk, which unpacks it into the frame
        of each element of the rule it opens: the automaton's rows
        (``state -> {name: next state}``), start state and accepting
        states, and the one text rule and its name (None if there is
        none).  None when the rule is not text-neutral, where one pass
        cannot decide whitespace.  Cached per rule."""
        try:
            return self._plans[rule]
        except KeyError:
            pass
        plan = None
        text = self.text_children(rule)
        if len(text) <= 1:
            auto = self.automaton(rule)
            text_rule = text[0] if text else None
            if text_rule is None or auto.absorbs(text_rule.name):
                plan = (auto._rows, auto.start_state, auto._accepting, text_rule,
                        text_rule.name if text_rule else None)
        self._plans[rule] = plan
        return plan

    # Key masks: bit i of a mask stands for the i-th rule of sorted_rules()
    # and bit len(sorted_rules()), ``bit(None)``, for the document node.
    # Reachability is cached per key as one mask each way, so inference runs
    # no fixpoint per step and intersects node tests with one AND.

    def _index_masks(self) -> dict[Rule | None, int]:
        """Fill the key index, the child rows and the node-test masks, once,
        and return the index.  The document node's one child step reaches
        the start rules; it has no parent."""
        rules = self._sorted
        n = len(rules)
        index: dict[Rule | None, int] = {rule: i for i, rule in enumerate(rules)}
        index[None] = n
        of_name: dict[str, int] = {}
        tags: dict[str, int] = {}
        wild = text = 0
        for i, rule in enumerate(rules):
            bit = 1 << i
            of_name[rule.name] = of_name.get(rule.name, 0) | bit
            if rule.is_text:
                text |= bit
            elif rule.label.is_wildcard:
                wild |= bit
            else:
                tags[rule.label.tag] = tags.get(rule.label.tag, 0) | bit
        down = [0] * (n + 1)
        for i, rule in enumerate(rules):
            for name in rule._names:
                down[i] |= of_name[name]
        for name in self.start:
            down[n] |= of_name[name]
        self._down = down
        self._below, self._above = [None] * (n + 1), [None] * (n + 1)
        self._tag_masks = {tag: mask | wild for tag, mask in tags.items()}
        self._kind_masks = (wild, ((1 << n) - 1) ^ text, text)
        self._index = index
        return index

    def _parent_rows(self) -> list[int]:
        """The transpose of the child rows, the document node's included,
        built on first use: only the parent and ancestor steps read it, so
        loading a projector and pruning never build it.  The start rules'
        rows hold the document node; its own row is empty, as it is
        nobody's child."""
        if not self._up:
            if self._index is None:
                self._index_masks()
            up = [0] * len(self._down)
            for i, row in enumerate(self._down):
                bit = 1 << i
                for child in mask_bits(row):
                    up[child.bit_length() - 1] |= bit
            self._up = up
        return self._up

    def bit(self, key: Rule | None) -> int:
        """The mask holding just the key (None: the document node)."""
        return 1 << (self._index or self._index_masks())[key]

    def mask_of(self, rules: Iterable[Rule]) -> int:
        """The mask holding the rules; KeyError for a rule outside the
        grammar."""
        index, mask = self._index or self._index_masks(), 0
        for rule in rules:
            mask |= 1 << index[rule]
        return mask

    def rules_in(self, mask: int) -> list[Rule]:
        """The rules a mask holds, in sort order; the document node's bit
        is left out.  A dense mask is decoded in C from its binary digits,
        lowest first; a sparse one bit by bit."""
        rules = self._sorted
        mask &= (1 << len(rules)) - 1
        if mask.bit_count() * _DENSE > len(rules):
            return list(compress(rules, bin(mask)[:1:-1].encode().translate(_DIGITS)))
        return [rules[bit.bit_length() - 1] for bit in mask_bits(mask)]

    # The four steps below take any mask of keys and return the union of
    # its keys' steps.  Only the downward steps never return the document
    # node's bit; the upward ones return it above the start rules.

    def child_mask(self, mask: int) -> int:
        """The keys one child step below some key in the mask."""
        if self._index is None:
            self._index_masks()
        rows, out = self._down, 0
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
        return out

    def parent_mask(self, mask: int) -> int:
        """The keys one parent step above some key in the mask, whether
        the start names reach them or not: the document node's bit is
        here iff the mask holds a start rule."""
        rows, out = self._up or self._parent_rows(), 0
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
        return out

    def below(self, mask: int) -> int:
        """The keys one or more child steps below some key in the mask,
        whether the start names reach them or not; ``below(bit(None))`` is
        every rule they reach.  Each key's closure is cached."""
        if self._index is None:
            self._index_masks()
        return _closures_union(self._down, self._below, mask)

    def above(self, mask: int) -> int:
        """The keys one or more parent steps above some key in the mask,
        whether the start names reach them or not: the document node's
        bit is here iff the mask meets ``below(bit(None))``.  Each key's
        closure is cached."""
        return _closures_union(self._parent_rows(), self._above, mask)

    def tag_mask(self, tag: str) -> int:
        """The element rules whose label matches the tag: the rules
        labelled with it and every wildcard rule."""
        if self._index is None:
            self._index_masks()
        return self._tag_masks.get(tag, self._kind_masks[0])

    def element_mask(self) -> int:
        """Every element rule, the wildcard rules among them."""
        if self._index is None:
            self._index_masks()
        return self._kind_masks[1]

    def text_mask(self) -> int:
        """Every text rule."""
        if self._index is None:
            self._index_masks()
        return self._kind_masks[2]


def any_grammar() -> Grammar:
    """The single-name grammar accepting every well-formed document."""
    return Grammar(
        start=("X",),
        rules=(Rule.text("X"), Rule.element("X", WILDCARD_LABEL, Star(Atom("X")))),
    )


# ---------------------------------------------------------------------------
# Content-model automata (Glushkov construction, then subset determinization)


class ContentAutomaton:
    """DFA over rule names accepting exactly one content model's language."""

    __slots__ = ("start_state", "_accepting", "_rows")

    def __init__(self, start_state: int, accepting: frozenset[int], rows: list[dict[str, int]]):
        self.start_state = start_state
        self._accepting = accepting
        self._rows = rows  # state -> {name: next state}

    def step(self, state: int, name: str) -> int | None:
        return self._rows[state].get(name)

    def is_accepting(self, state: int) -> bool:
        return state in self._accepting

    def accepts(self, word: Iterable[str]) -> bool:
        state: int | None = self.start_state
        for name in word:
            state = self.step(state, name)
            if state is None:
                return False
        return self.is_accepting(state)

    def absorbs(self, name: str) -> bool:
        """True iff every state steps on ``name`` to a state with the same
        moves (``name`` included), accepting wherever the first accepts.
        Linear in the transition table."""
        rows, accepting = self._rows, self._accepting
        for q, row in enumerate(rows):
            nxt = row.get(name)
            if nxt is None or rows[nxt] != row or (q in accepting and nxt not in accepting):
                return False
        return True


def compile_content_model(regex: ContentRegex) -> ContentAutomaton:
    positions: list[str] = []  # position index -> name

    def walk(r: ContentRegex) -> tuple[bool, frozenset[int], frozenset[int]]:
        # returns (nullable, first positions, last positions); fills `follow`
        if isinstance(r, Empty):
            return False, frozenset(), frozenset()
        if isinstance(r, Epsilon):
            return True, frozenset(), frozenset()
        if isinstance(r, Atom):
            positions.append(r.name)
            p = frozenset((len(positions) - 1,))
            follow.setdefault(len(positions) - 1, set())
            return False, p, p
        if isinstance(r, Seq):
            # `last`: the positions that can end the parts walked so far
            nullable, first, last = True, frozenset(), frozenset()
            for part in r.parts:
                n, f, l = walk(part)
                for p in last:
                    follow[p].update(f)
                first = first | f if nullable else first
                nullable, last = nullable and n, l | last if n else l
            return nullable, first, last
        if isinstance(r, Alt):
            ns, fs, ls = zip(*map(walk, r.parts))
            return any(ns), frozenset().union(*fs), frozenset().union(*ls)
        if isinstance(r, (Star, Plus)):
            n, f, l = walk(r.inner)
            for p in l:
                follow[p].update(f)
            return n or isinstance(r, Star), f, l
        if isinstance(r, Opt):
            n, f, l = walk(r.inner)
            return True, f, l
        raise TypeError(f"not a content regex: {r!r}")

    follow: dict[int, set[int]] = {}
    nullable, first, last = walk(regex)

    # Subset construction.  DTD content models are 1-unambiguous so this is
    # near-linear; hand-built grammars may genuinely need it.
    start_set = frozenset((-1,))
    state_ids: dict[frozenset[int], int] = {start_set: 0}
    rows: list[dict[str, int]] = [{}]
    accepting: set[int] = set()
    if nullable:
        accepting.add(0)
    work = [start_set]
    while work:
        current = work.pop()
        cid = state_ids[current]
        moves: dict[str, set[int]] = {}
        for q in current:
            targets = first if q == -1 else follow[q]
            for p in targets:
                moves.setdefault(positions[p], set()).add(p)
        for name, target in sorted((n, frozenset(t)) for n, t in moves.items()):
            tid = state_ids.get(target)
            if tid is None:
                tid = state_ids[target] = len(state_ids)
                rows.append({})
                work.append(target)
                if target & last:
                    accepting.add(tid)
            rows[cid][name] = tid
    return ContentAutomaton(0, frozenset(accepting), rows)


# ---------------------------------------------------------------------------
# The walk table: top-down walks over a streamable grammar


class WalkEntry:
    """One element rule's row of a ``WalkTable``, or the document node's
    (rule and name None).  ``bit``: the key's one-bit mask.  ``kept``: the
    rule's bit is in the kept mask, or for the document node, the kept
    mask is not empty.  ``text_kept``: the entry is kept and so is the
    rule's text child's bit.  ``leaf``: the rule's content has no element
    child, wildcards included, so no child tag resolves under it; False
    for the document node.
    ``by_tag``: the entries of the child tags met so far, exact tags only.
    ``plan``: the rule's step plan (``Grammar.plan``), filled on the
    entry's first open, when ``walk_tree`` first opens an element of the
    rule; None before, and on a rule that is not text-neutral."""

    __slots__ = ("name", "bit", "kept", "text_kept", "leaf", "by_tag", "rule", "plan")

    def __init__(self, name: str | None, rule: Rule | None, bit: int, kept: bool,
                 text_kept: bool, leaf: bool):
        self.name = name
        self.bit = bit
        self.kept = kept
        self.text_kept = text_kept
        self.leaf = leaf
        self.by_tag: dict[str, WalkEntry] = {}
        self.rule = rule
        self.plan: StepPlan | None = None


class WalkTable:
    """The entries the top-down walks over a streamable grammar read, for
    one kept mask (a ``Projector.mask``, in the grammar's key layout): the
    streaming pruner's handlers and ``walk_tree``.
    ``root`` is the document node's entry.  Only streamable grammars
    (``is_streamable``) may be walked: there a child tag resolves to at
    most one rule.

    A walk looks a child up as ``entry.by_tag.get(tag) or
    table.child(entry, tag)``: a linked tag is one dict hit, and the first
    meeting resolves the tag on the key masks, makes the child's entry
    and links the tag.  A wildcard child is never linked per tag, so the
    table holds at most one entry per element rule and one link per exact
    tag in the grammar, however many distinct tags a document has.
    Nothing is built for rules a document never reaches, and no
    automaton is compiled but for the entries whose elements
    ``walk_tree`` opens.
    """

    __slots__ = ("grammar", "kept", "root", "_entries")

    def __init__(self, g: Grammar, kept: int = 0):
        self.grammar = g
        self.kept = kept
        self.root = WalkEntry(None, None, g.bit(None), kept != 0, False, False)
        self._entries: dict[int, WalkEntry] = {}  # by the rule's bit

    def child(self, parent: WalkEntry, tag: str) -> WalkEntry | None:
        """The entry of the element rule a child tagged ``tag`` resolves
        to under ``parent``, linking an exact tag into ``parent.by_tag``.
        None if the tag resolves to no rule."""
        g = self.grammar
        # child_mask(parent.bit) & tag_mask(tag), with the masks read in
        # place (the constructor filled them): this runs once per tag a
        # parent meets, and once per wildcard child.
        rows, wild = g._down, g._kind_masks[0]
        found = rows[parent.bit.bit_length() - 1] & g._tag_masks.get(tag, wild)
        if not found:
            return None
        entry = self._entries.get(found)
        if entry is None:
            i = found.bit_length() - 1  # the one bit
            rule, kept, row = g._sorted[i], self.kept, rows[i]
            text = row & g._kind_masks[2]  # at most one text rule
            entry = WalkEntry(rule.name, rule, found, bool(found & kept),
                              bool(found & kept and text & kept), not row & g._kind_masks[1])
            self._entries[found] = entry
        if not found & wild:
            parent.by_tag[tag] = entry
        return entry


def walk_tree(
    doc: Document, table: WalkTable, typed: Interpretation | None = None
) -> Document | None:
    """The one validating top-down walk, over a ``WalkTable`` on a
    streamable grammar: each child's entry from its parent's, one
    automaton step per child, an accepting state after the last; text
    steps the parent's single text name, whitespace the automaton cannot
    step is skipped and other text rejects.  It holds one frame per open
    element (an explicit stack, so nesting depth is unbounded) and reaches
    the nodes in pre-order, each child stepped as the walk comes to it.

    Copies the nodes the table keeps as it reaches them (kept elements,
    the text of rules whose text is kept, comments and PIs under kept
    elements) and returns the copy, each clone taking the next pre-order
    id as it is made, and no map back to the input (origin maps come
    from ``pruner.prune_tree_with_origin`` alone).
    With ``typed``, which needs a table that keeps nothing, it also
    records in ``typed``, in pre-order, the rule of each element and of
    each text node the automaton steps.  None where the walk gives up: a
    document without a root, a rejection, or a rule that is not
    text-neutral (its step plan, filled on the entry's first open, is
    None).  The cyclic collector is paused while the copy grows."""
    root = doc.root
    top = table.child(table.root, root.tag) if root is not None else None
    if top is None:
        return None
    plan_of, child_of = table.grammar.plan, table.child
    pruned = Document()
    nid = 0
    # The open element's frame, in locals: its children's iterator, its
    # entry, its clone (None in a dropped subtree, which is validated but
    # not copied), its automaton state and its plan's fields.  Opening a
    # child element pushes them and loads the child's.  The document
    # node is the bottom frame: its children are the root and, where the
    # table keeps anything, the comments and PIs beside it, and its plan
    # steps the root once.
    entry, clone = table.root, pruned
    it = iter([c for c in doc.children
               if c is root or entry.kept and type(c) in (CommentNode, PINode)])
    rows, state, accepting, text_rule, text_name = ({top.name: 0},), 0, (0,), None, None
    by_tag, copy_text = entry.by_tag, False
    frames: list[tuple] = []
    with collector_paused():
        while True:
            for child in it:
                kind = type(child)
                if kind is Element:
                    child_entry = by_tag.get(child.tag) or child_of(entry, child.tag)
                    if child_entry is None:
                        return None
                    state = rows[state].get(child_entry.name)
                    if state is None:
                        return None
                    frames.append((it, entry, clone, state, rows, accepting, text_rule, text_name,
                                   by_tag, copy_text))
                    entry = child_entry
                    if typed is not None:
                        typed[child.nid] = entry.rule
                    if clone is not None:
                        if entry.kept:
                            nid += 1
                            element = Element(child.tag, child.attributes)
                            element.nid = nid
                            clone.children.append(element)
                            clone = element
                        else:
                            clone = None
                    plan = entry.plan
                    if plan is None:
                        plan = entry.plan = plan_of(entry.rule)
                        if plan is None:
                            return None
                    rows, state, accepting, text_rule, text_name = plan
                    by_tag, copy_text = entry.by_tag, clone is not None and entry.text_kept
                    it = iter(child.children)
                    break
                if kind is TextNode:
                    after = rows[state].get(text_name)
                    if after is not None:
                        state = after
                        if copy_text:
                            nid += 1
                            text = TextNode(child.content)
                            text.nid = nid
                            clone.children.append(text)
                        elif typed is not None:
                            typed[child.nid] = text_rule
                    elif child.content.strip():
                        return None
                elif clone is not None:
                    if kind is CommentNode:
                        copy: Node = CommentNode(child.content)
                    else:
                        copy = PINode(child.target, child.data)
                    nid += 1
                    copy.nid = nid
                    clone.children.append(copy)
            else:
                # the open element's children are done
                if state not in accepting:
                    return None
                if not frames:
                    return pruned
                (it, entry, clone, state, rows, accepting, text_rule, text_name,
                 by_tag, copy_text) = frames.pop()


# ---------------------------------------------------------------------------
# Validation


Interpretation = dict[int, Rule]  # node id -> generating rule


@dataclass(frozen=True)
class Invalid:
    """Regular validation outcome: the document is not in the language."""

    path: str
    reason: str

    def __bool__(self):
        return False


def _is_ignorable(node: Node) -> bool:
    return isinstance(node, TextNode) and not node.content.strip()


def _content_children(elem: Element) -> list[Node]:
    return [c for c in elem.children if isinstance(c, (Element, TextNode))]


def validate_tree(doc: Document, g: Grammar) -> Interpretation | Invalid:
    """Match a document against a grammar.

    Returns a rule assignment for every generated node, or Invalid naming
    the first node (pre-order) that cannot be explained.  Whitespace-only
    text is skippable and then stays unassigned.

    On a streamable grammar every child tag resolves to at most one rule
    under its parent (on the key masks, through a ``WalkTable``), so
    ``walk_tree`` decides the document in one pass down the tree, holding
    one automaton state per element, and types each node as it goes,
    copying nothing.  Whitespace is consumed as the parent's text name
    when the automaton can step it, which is exact on text-neutral rules
    (``Grammar.text_neutral``): the state it leads to has the same moves
    and accepts wherever the skipping state does, so consuming never
    closes a path that skipping keeps open, and the general algorithm's
    witness makes the same choice.  Where the walk gives up, on a rule
    that is not text-neutral or on any rejection, the general algorithm
    decides, and it alone writes the Invalid diagnostics.
    """
    if is_streamable(g):
        typed: Interpretation = {}
        if walk_tree(doc, WalkTable(g), typed) is not None:
            return typed
    return _validate_general(doc, g)


def _validate_general(doc: Document, g: Grammar) -> Interpretation | Invalid:
    """``validate_tree`` on any grammar, the regular-tree-grammar way.

    Ambiguity is resolved deterministically: lowest-sorting rule, then,
    over each element's children from the last, the lowest automaton
    state and first name; but where the previous sibling is
    whitespace-only text, states that consume it through one of the
    parent's text names come first.  So whitespace stays unassigned only
    where no text name can take it, as in element-only content, where the
    streaming pruner drops it too.

    No recursion, so nesting depth is unbounded: one loop goes up the
    document (reversed pre-order) collecting the rules each element fits
    and the first inexplicable node, and one goes down from the root with
    a stack, picking each node's rule from its parent's forward trace.
    """
    root = doc.root
    if root is None:
        return Invalid("/", "document has no root element")

    order = [n for n in doc.iter_nodes() if isinstance(n, (Element, TextNode))]  # pre-order
    has_text = bool(g.text_mask())
    possible: dict[int, tuple[Rule, ...]] = {}  # element id -> rules its subtree fits
    names_of: dict[tuple[Rule, ...], tuple[str, ...]] = {}  # names in a tuple of rules

    def candidates(child: Node, rule: Rule) -> tuple[Rule, ...]:
        found = possible[child.nid] if isinstance(child, Element) else g.text_children(rule)
        if found not in names_of:
            names_of[found] = tuple(dict.fromkeys(r.name for r in found))
        return found

    def consumed(children: list[Node], i: int, trace: list[set[int]], rule: Rule) -> set[int]:
        # States after whitespace children[i - 1] that consumed it through
        # a text name; where a choice remains, the witness prefers them.
        step = g.automaton(rule).step
        names = names_of[candidates(children[i - 1], rule)]
        return {step(q, n) for q in trace[i - 1] for n in names}

    def forward(children: list[Node], rule: Rule) -> list[set[int]] | None:
        # Reachable DFA state sets over the children, one per gap.
        auto = g.automaton(rule)
        step = auto.step
        states = {auto.start_state}
        trace = [states]
        for child in children:
            nxt = {step(q, name) for q in states for name in names_of[candidates(child, rule)]}
            nxt.discard(None)
            if _is_ignorable(child):
                nxt |= states
            if not nxt:
                return None
            states = nxt
            trace.append(states)
        return trace if any(auto.is_accepting(q) for q in states) else None

    first_bad: Node | None = None  # first node, in pre-order, that nothing explains
    for node in reversed(order):
        if isinstance(node, TextNode):
            if not has_text and not _is_ignorable(node):
                first_bad = node
            continue
        children = _content_children(node)
        rules = g.rules_in(g.tag_mask(node.tag))  # in sort order
        found = possible[node.nid] = tuple(r for r in rules if forward(children, r) is not None)
        if not found and all(
            (possible[c.nid] if isinstance(c, Element) else has_text) or _is_ignorable(c)
            for c in children
        ):
            first_bad = node

    start_rules = [r for r in possible[root.nid] if r.name in g.start]
    if not start_rules:
        if isinstance(first_bad, TextNode):
            return Invalid(node_path(doc, first_bad), "text not generated by any text rule")
        if first_bad is not None:
            return Invalid(node_path(doc, first_bad), "no rule matches this element")
        return Invalid(node_path(doc, root), "root has no start-name rule")

    interpretation: Interpretation = {}
    down: list[tuple[Node, Rule]] = [(root, start_rules[0])]
    while down:
        node, rule = down.pop()
        interpretation[node.nid] = rule
        if rule.is_text:
            continue
        auto = g.automaton(rule)
        children = _content_children(node)
        trace = forward(children, rule)
        assert trace is not None
        ends = [q for q in trace[-1] if auto.is_accepting(q)]
        if len(ends) > 1 and _is_ignorable(children[-1]):
            took = consumed(children, len(children), trace, rule)
            ends = [q for q in ends if q in took] or ends
        state = min(ends)
        for i in range(len(children) - 1, -1, -1):  # last child first: pushed in stack order
            child = children[i]
            rules = candidates(child, rule)
            moves = [(q, n) for q in trace[i] for n in names_of[rules] if auto.step(q, n) == state]
            if moves:
                if len(moves) > 1 and i and _is_ignorable(children[i - 1]):
                    took = consumed(children, i, trace, rule)
                    moves = [m for m in moves if m[0] in took] or moves
                state, name = min(moves)  # lowest state, then first name
                down.append((child, next(r for r in rules if r.name == name)))
            else:
                assert _is_ignorable(child) and state in trace[i], (
                    "forward trace guarantees a backward path"
                )
    return interpretation


# ---------------------------------------------------------------------------
# Structural queries


def is_streamable(g: Grammar) -> bool:
    """True iff name assignment is top-down deterministic.

    Every tag seen while reading must resolve to at most one element rule,
    both under each element rule's content and at the root against the
    start names, and a rule's content may mention at most one
    text-capable name.  Checked on the key masks: for the document node
    and each element rule, the element rules one child step below it hold
    a wildcard rule only alone, and otherwise no two of them share a tag
    or a name; for each element rule, the text rules below it number at
    most one.  Every rule is checked, whether or not the start names reach
    it.  DTD imports always satisfy this; hand-built regular grammars may
    not.  The verdict is cached on the grammar.

    A set of element rules that resolves one way does in every part, so
    where all of them do, as in every DTD import, no child mask is taken
    apart: only the text rules below each rule are counted.
    """
    if g._streamable is None:
        elements, text = g.element_mask(), g.text_mask()
        every = _resolves_one_way(g, elements)

        def one_way(below: int) -> bool:  # a text rule's child mask is empty
            texts = below & text
            return texts & (texts - 1) == 0 and (every or _resolves_one_way(g, below & elements))

        # each key's child mask, the document node's last: ``element_mask``
        # filled them
        rows = g._down
        at_root = every or _resolves_one_way(g, rows[-1] & elements)
        g._streamable = at_root and all(map(one_way, rows[:-1]))
    return g._streamable


def _resolves_one_way(g: Grammar, mask: int) -> bool:
    """True iff no tag matches two of the element rules in the mask: a
    wildcard rule stands alone, and no two rules share a tag or a name."""
    if mask & (mask - 1) == 0:
        return True
    rules = g.rules_in(mask)
    tags = {rule.label.tag for rule in rules}  # a wildcard's tag is None
    return None not in tags and len(tags) == len({rule.name for rule in rules}) == len(rules)


def mask_bits(mask: int) -> Iterator[int]:
    """The one-bit masks a mask is made of, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit


def _mask_closure(steps: list[int], done: list[int | None], seeds: int) -> int:
    """Least fixpoint over masks: the seeds and everything one or more
    ``steps`` from them.  A bit whose closure ``done`` already holds is
    not expanded again."""
    seen = frontier = seeds
    while frontier:
        nxt = 0
        for bit in mask_bits(frontier):
            i = bit.bit_length() - 1
            closed = done[i]
            if closed is None:
                nxt |= steps[i]
            else:
                seen |= closed
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def _closures_union(rows: list[int], done: list[int | None], mask: int) -> int:
    """The union of the closures (one or more ``rows`` steps) of the mask's
    bits, each computed once into ``done``."""
    out = 0
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        closed = done[i]
        if closed is None:
            closed = done[i] = _mask_closure(rows, done, rows[i])
        out |= closed
        mask ^= low
    return out


def reachable_rules(g: Grammar, from_rules: Iterable[Rule]) -> frozenset[Rule]:
    """Seed rules plus rules of names mentioned in the content of any
    reachable element rule."""
    mask = g.mask_of(from_rules)
    return frozenset(g.rules_in(mask | g.below(mask)))


# ---------------------------------------------------------------------------
# Text format
#
#   start: Doc
#   attlist: a id class
#   Doc -> doc [ A* ]
#   TB -> String
#
# Regex syntax: names, juxtaposition for sequence, `|` for alternation,
# postfix `* + ?`, parentheses, `#eps` / `#empty` for the trivial
# languages.  An element rule with empty brackets means Epsilon.

_TOKEN_RE = re.compile(r"[()|*+?]|[^\s()|*+?\[\]]+")


def regex_to_text(regex: ContentRegex) -> str:
    """The regex in the text syntax, parenthesised only where precedence
    needs it (alternation binds loosest, then sequence, then the postfix
    operators).  One loop over an explicit stack, so parenthesis depth is
    unbounded: the stack holds the pieces still to print, last first,
    each a literal text or a regex with the precedence of its place."""
    out: list[str] = []
    work: list = [(regex, 0)]
    while work:
        item = work.pop()
        if type(item) is str:
            out.append(item)
            continue
        r, prec = item
        kind = type(r)
        if kind is Atom:
            out.append(r.name)
        elif kind is Seq or kind is Alt:
            # an alternation's parts print at precedence 1, a sequence's at
            # 2, and a group in a place of that precedence or more needs ()
            inner, sep = (1, " | ") if kind is Alt else (2, " ")
            if prec >= inner:
                work.append(")")
            for part in reversed(r.parts):
                work.append((part, inner))
                work.append(sep)
            if r.parts:
                work.pop()  # the separator before the first part
            if prec >= inner:
                work.append("(")
        elif kind is Epsilon:
            out.append("#eps")
        elif kind is Empty:
            out.append("#empty")
        else:
            work.append(_SUFFIXES[kind])
            work.append((r.inner, 2))
    return "".join(out)


_SUFFIXES = {Star: "*", Plus: "+", Opt: "?"}


# The tokens that are not names: a constant stands for its value, a
# postfix operator for its node class, and `(`, `)` and `|` for themselves.
_OPERATORS = {"#eps": EPSILON, "#empty": EMPTY, "*": Star, "+": Plus, "?": Opt,
              "(": "(", ")": ")", "|": "|"}


def parse_regex_text(text: str) -> ContentRegex:
    """Parse ``regex_to_text``'s syntax; empty text means Epsilon.  One loop
    over the tokens, so parenthesis depth is unbounded: each open group
    holds its alternatives so far and the parts of its current sequence,
    and ``seq``/``alt`` build each group as it closes.  Raises
    ``GrammarFormatError`` at the first token that cannot continue the
    regex."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        return EPSILON
    groups: list[tuple[list[ContentRegex], list[ContentRegex]]] = []  # enclosing, innermost last
    alts: list[ContentRegex] = []  # the open group's finished alternatives
    parts: list[ContentRegex] = []  # the open group's current sequence
    for i, tok in enumerate(tokens):
        op = _OPERATORS.get(tok)
        if op is None:
            parts.append(Atom(tok))
        elif isinstance(op, ContentRegex):  # #eps, #empty
            parts.append(op)
        elif op == "(":
            groups.append((alts, parts))
            alts, parts = [], []
        elif not parts:
            raise GrammarFormatError(f"unexpected {tok!r} in content regex")
        elif op == "|":
            alts.append(seq(*parts))
            parts = []
        elif op == ")":
            if not groups:
                raise GrammarFormatError(f"trailing tokens in content regex: {tokens[i:]}")
            group = alt(*alts, seq(*parts))
            alts, parts = groups.pop()
            parts.append(group)
        else:
            parts[-1] = op(parts[-1])
    if not parts:
        raise GrammarFormatError("unexpected end of content regex")
    if groups:
        raise GrammarFormatError("missing ')' in content regex")
    return alt(*alts, seq(*parts))


def rule_to_text(rule: Rule) -> str:
    if rule.is_text:
        return f"{rule.name} -> String"
    if isinstance(rule.content, Epsilon):
        return f"{rule.name} -> {rule.label} [ ]"
    return f"{rule.name} -> {rule.label} [ {regex_to_text(rule.content)} ]"


# Where ``parse_regex_text`` finds no part for an operator to apply to or
# for the text to end on, in regex texts each set between newlines: after
# `(` or `|`, an operator other than `(`, or the text's end; and at the
# text's start, such an operator.  Whitespace, which the tokenizer skips,
# may come between.  Each pattern starts with a literal, which ``re`` finds
# fast: one pattern with an alternation took four times as long.
_NO_PART_RES = (
    re.compile(r"\([^\S\n]*[|)*+?\n]"),
    re.compile(r"\|[^\S\n]*[|)*+?\n]"),
    re.compile(r"\n[^\S\n]*[|)*+?]"),
)
# The UTF-8 bytes that are not `(`, `)` or a newline, and the depth each
# of those three adds.  A lone surrogate, which only a str built in Python
# holds, encodes under "surrogatepass" to three bytes of 0x80 or more.
_NOT_PARENS = bytes(sorted(set(range(256)) - set(b"()\n")))
_DEPTH_STEP = {ord("("): 1, ord(")"): -1, ord("\n"): 0}
_NEWLINE = ord("\n")
_CONSTANTS = frozenset(["#eps", "#empty"])
_OPERATORS_AS_SPACES = str.maketrans("()|*+?", "      ")
_AS_SPACES = str.maketrans("[]\n", "   ")  # what the tokenizer skips besides whitespace


def _regex_lines_parse(texts: str) -> bool:
    """True iff ``parse_regex_text`` accepts each line of ``texts``, which
    hold no `[` or `]`.  It checks where parts are missing and whether
    each line's parentheses balance for all lines at once, in time linear
    in their length, and builds no regex: the parentheses balance iff the
    running depth over the lines is never negative and is 0 at every
    newline."""
    texts = f"\n{texts}\n"
    if any(p.search(texts) for p in _NO_PART_RES):
        return False
    if "(" not in texts and ")" not in texts:
        return True
    parens = texts.encode("utf-8", "surrogatepass").translate(None, _NOT_PARENS)
    depths = list(accumulate(map(_DEPTH_STEP.__getitem__, parens)))
    return min(depths) >= 0 and not any(compress(depths, map(_NEWLINE.__eq__, parens)))


def _names_by_line(texts: str) -> list[tuple[str, ...]]:
    """The names each line of ``texts``, a regex text that
    ``parse_regex_text`` accepts, mentions, each once."""
    lines = texts.translate(_OPERATORS_AS_SPACES).split("\n")
    return [tuple(set(line.split()) - _CONSTANTS) for line in lines]


def _regex_names(text: str) -> tuple[str, ...] | None:
    """The names a regex text mentions, or None where ``parse_regex_text``
    rejects the text."""
    text = text.translate(_AS_SPACES)
    return _names_by_line(text)[0] if _regex_lines_parse(text) else None


# A rule's name and arrow; its body is the rest of the text without the
# trailing whitespace, and holds no newline.  That is what
# ``\s*(\S+)\s*->\s*(.*?)\s*\Z`` matches, but its lazy body took four
# times as long.
_RULE_RE = re.compile(r"\s*(\S+)\s*->\s*")
_BODY_RE = re.compile(r"(\S+)\s*\[(.*)\]\s*\Z", re.S)


def parse_rule_text(text: str, line: int | None = None) -> Rule:
    """Read one rule.  An element rule's regex text is checked, and the
    names in it read, in one cheap pass; the text is parsed on the first
    read of the rule's ``content`` (see ``Rule``).  A text the check
    rejects is parsed at once, which raises ``parse_regex_text``'s error;
    so does a bad label, then a bad name, each as a ``GrammarFormatError``
    on the line."""
    m = _RULE_RE.match(text)
    body = text[m.end() :].rstrip() if m else None
    if body is None or "\n" in body:
        raise GrammarFormatError(f"not a rule: {text!r}", line)
    name = m.group(1)
    bm = None if body == "String" else _BODY_RE.match(body)
    if bm is None and body != "String":
        raise GrammarFormatError(f"rule body must be `String` or `label [ regex ]`: {text!r}", line)
    try:
        if bm is None:
            return Rule.text(name)
        tag, regex = bm.group(1), bm.group(2).strip()
        names = _regex_names(regex)
        if names is None:  # the parser raises its own error for the text
            return Rule.element(name, tag, parse_regex_text(regex))
        return Rule.from_text(name, WILDCARD_LABEL if tag == "_" else Label(tag), regex, names)
    except (GrammarError, GrammarFormatError) as exc:
        raise GrammarFormatError(str(exc), line) from None


def _header_lines(g: Grammar) -> list[str]:
    lines = ["start: " + " ".join(sorted(g.start))]
    for tag in sorted(g.attributes):
        if g.attributes[tag]:
            lines.append(f"attlist: {tag} " + " ".join(g.attributes[tag]))
    return lines


def grammar_to_text(g: Grammar) -> str:
    lines = _header_lines(g)
    lines.extend(rule_to_text(r) for r in g.sorted_rules())
    return "\n".join(lines) + "\n"


# One line of a grammar or projector file, its line break included.  The
# breaks are those of ``str.splitlines``, and _GAP is the whitespace within
# a line.  The groups a line fills tell its kind: none for a blank or
# comment line; the header from `start:` or `attlist:` on; or for a rule
# line, its mark and its text (the line stripped, mark and all).  When the
# text is a rule as ``parse_rule_text`` reads it, with spaces or tabs
# between its parts, its name and label names and no `[` or `]` in its
# regex text, its name, label (none for `String`) and regex text fill
# three more.  ``findall`` thus gives one row per line, and an empty row
# at the end of the text.  U+1680, the one whitespace character in the
# name classes, ends a name here as it does in ``parse_rule_text``.
_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_GAP = rf"[^\S{_BREAKS}]"


def _line_source(start: str, chars: str) -> str:
    start, chars = (c.replace("\u037f-\u1fff", "\u037f-\u167f\u1681-\u1fff")
                    for c in (start, chars))
    name = f"[:{start}][:{chars}]*"
    rule = rf"({name})[ \t]+->[ \t]+(?:String|({name})[ \t]*\[([^{_BREAKS}\[\]]*)\])"
    return (
        rf"{_GAP}*(?:(?:#[^{_BREAKS}]*|(start:[^{_BREAKS}]*)|(attlist:[^{_BREAKS}]*))?"
        rf"|(?:([+-]){_GAP}+(?=\S))?({rule}|\S(?:[^{_BREAKS}]*\S)?))"
        rf"{_GAP}*(?:\r\n|[{_BREAKS}]|\Z)"
    )


_LINE_RE = NamePattern(_line_source)
_mark_of_row, _regex_of_row = itemgetter(2), itemgetter(6)


def _read_rule_file(text: str, marked: bool) -> tuple[Grammar, list[Rule], str]:
    """Read a grammar file or, ``marked``, a projector file, whose rule
    lines need a `+` or `-` mark.  Returns the grammar, its rules in line
    order and, for a projector file, their marks, one character a rule.

    One ``findall`` of ``_LINE_RE`` splits the text into lines and takes
    each well-formed rule line apart, which checks its name and label.
    One ``_regex_lines_parse`` checks the regex texts of all those lines,
    and their rules are built with no check run again.  A rule line the
    pattern does not take apart is read by ``parse_rule_text``, and so is
    one whose regex text the check rejects, which raises its error.
    Errors come in this order: an `attlist:` with no tag, a missing
    `start:`, the rule lines' errors in line order (a line's own error
    before its missing mark), then the grammar's."""
    start: list[str] = []
    attrs: dict[str, tuple[str, ...]] = {}
    rules: list[Rule | None] = []  # None: a line for ``parse_rule_text``
    odd = False
    rows = _LINE_RE.of(text).findall(text)
    regexes = "\n".join(map(_regex_of_row, rows))  # line i: row i's regex text
    for lineno, row, names in zip(count(1), rows, _names_by_line(regexes)):
        head, attlist, _, rule_text, name, tag, regex = row
        if name:
            rule = Rule.__new__(Rule)
            if tag == "_":
                rule._fill(name, WILDCARD_LABEL, names, None, regex.strip())
            elif tag:
                label = Label.__new__(Label)
                label._fill(tag)
                rule._fill(name, label, names, None, regex.strip())
            else:
                rule._fill(name, None, (), None, None)
            rules.append(rule)
        elif rule_text:
            rules.append(None)
            odd = True
        elif head:
            start.extend(head[len("start:") :].split())
        elif attlist:
            parts = attlist[len("attlist:") :].split()
            if not parts:
                raise GrammarFormatError("attlist needs a tag", lineno)
            attrs[parts[0]] = tuple(parts[1:])
    if not start:
        raise GrammarFormatError("missing `start:` header")
    marks = "".join(map(_mark_of_row, rows))
    parsed = _regex_lines_parse(regexes)
    if not parsed or odd or marked and len(marks) < len(rules):
        taken, rules = iter(rules), []
        for lineno, (_, _, mark, rule_text, _, _, regex) in enumerate(rows, 1):
            if rule_text:
                rule = next(taken)
                if rule is None or not parsed and not _regex_lines_parse(regex):
                    rule = parse_rule_text(rule_text, lineno)
                if marked and not mark:
                    raise GrammarFormatError("projector rule lines need a +/- mark", lineno)
                rules.append(rule)
    try:
        return Grammar(start, rules, attrs), rules, marks
    except GrammarError as exc:
        raise GrammarFormatError(str(exc)) from None


def parse_grammar_text(text: str) -> Grammar:
    """Read a grammar file, ``grammar_to_text``'s format, in one pass (see
    ``_read_rule_file``).  A rule line's `+` or `-` mark is ignored."""
    return _read_rule_file(text, False)[0]
