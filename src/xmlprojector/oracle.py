"""Ground truth: a reference evaluator, document synthesis, soundness runs.

Everything here favors obviousness over speed.  ``eval_full``, the one
evaluator, answers the parsed XPath subset (all axes, positional
predicates, a small function set, XPath 1.0's conversions between
strings, numbers and booleans) and exists purely as a test oracle;
fragment queries go through it as their text (``xpath.ell_to_text``).
It reads an ``_Index`` of the document, built in one pre-order pass, from
which every axis is a lookup or a slice.  ``generate_document`` draws
random members of a grammar's language; ``enumerate_documents`` lists
them lazily and exhaustively within bounds.  ``check_soundness`` ties the
pipeline together: prune with an inferred projector, then demand that
every query answers identically on the original and the pruned document.
``minimality_check`` searches enumerated documents for a kept rule that
no query needs.  Both index each document and each pruned copy once
(``PrunedPair``) and evaluate every query against those indexes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal
from functools import cache
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator, Sequence

from .doc import Document, Element, TextNode, serialize, string_value, subtree_text
from .grammar import (
    Alt,
    Atom,
    ContentRegex,
    Empty,
    Epsilon,
    Grammar,
    Opt,
    Plus,
    Rule,
    Seq,
    Star,
    is_streamable,
    mask_bits,
)
from .inference import Projector, infer_projector
from .pruner import (
    InvalidDocumentError,
    UnresolvableTagError,
    prune_file,
    prune_tree,
    prune_tree_with_origin,
    require_interpretation,
)
from .xpath import (
    BinaryOp,
    Expr,
    FullQuery,
    FullStep,
    FunctionCall,
    NodeAny,
    NodeTest,
    NumberLiteral,
    PathExpr,
    QueryEll,
    StringLiteral,
    TextTest,
    Wildcard,
    approximate_to_ell,
    ell_to_text,
    parse_query,
)

_TreeNode = Document | Element | TextNode


class OracleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# XPath evaluator (test oracle only)


def _content(node: Document | Element) -> list[_TreeNode]:
    return [c for c in node.children if isinstance(c, (Element, TextNode))]


class _Index:
    """One pre-order pass over a document's content nodes (the document
    node, elements and text; comments and PIs are no XPath nodes here).

    ``order`` lists them in document order.  Per node: ``pos``, its place
    in ``order``; ``end``, the place past its subtree; ``parent``; ``kids``,
    its content children; ``rank``, its place among its parent's.  So a
    subtree is ``order[pos:end]`` and what follows it ``order[end:]``
    (Grust's pre/post plane).  ``by_nid`` finds a node by its id.
    """

    __slots__ = ("doc", "order", "pos", "end", "parent", "kids", "rank", "by_nid")

    def __init__(self, doc: Document):
        order: list[_TreeNode] = [doc]
        pos: dict[_TreeNode, int] = {doc: 0}
        end: dict[_TreeNode, int] = {}
        parent: dict[_TreeNode, _TreeNode] = {}
        kids_of: dict[_TreeNode, list[_TreeNode]] = {doc: _content(doc)}
        rank_of: dict[_TreeNode, int] = {}
        # one frame per open node: the node and its children still to visit
        frames = [(doc, enumerate(kids_of[doc]))]
        while frames:
            node, kids = frames[-1]
            for rank, kid in kids:
                pos[kid] = len(order)
                order.append(kid)
                parent[kid] = node
                rank_of[kid] = rank
                if isinstance(kid, TextNode):
                    kids_of[kid] = []
                    end[kid] = len(order)
                else:
                    kids_of[kid] = _content(kid)
                    frames.append((kid, enumerate(kids_of[kid])))
                    break  # visit the child's subtree first
            else:
                end[node] = len(order)
                frames.pop()
        self.doc, self.order, self.pos, self.end = doc, order, pos, end
        self.parent, self.kids, self.rank = parent, kids_of, rank_of
        self.by_nid = {node.nid: node for node in order}

    def ancestors(self, node: _TreeNode) -> list[_TreeNode]:
        out: list[_TreeNode] = []
        cur = self.parent.get(node)
        while cur is not None:
            out.append(cur)
            cur = self.parent.get(cur)
        return out


@dataclass(frozen=True)
class AttrNode:
    owner: Element
    name: str
    value: str

    @property
    def rid(self) -> tuple:
        return ("attr", self.owner.nid, self.name)


ResultId = int | tuple


def eval_full(q: FullQuery, d: Document) -> set[ResultId]:
    """Evaluate a parsed query from the document node: the union of its
    branches' results, as node ids and ``AttrNode.rid`` tuples."""
    return _eval(q, _Index(d))


def _eval(q: FullQuery, idx: _Index) -> set[ResultId]:
    """``eval_full`` on the indexed document."""
    out: set[ResultId] = set()
    for path in q.branches:
        for node in _full_path(path.steps, [idx.doc], idx):
            out.add(node.rid if isinstance(node, AttrNode) else node.nid)
    return out


def _doc_order(nodes: Iterable[_TreeNode | AttrNode], idx: _Index) -> list[_TreeNode | AttrNode]:
    pos = idx.pos

    def key(n):
        if isinstance(n, AttrNode):
            return (pos[n.owner], 1, n.name)
        return (pos[n], 0, "")

    return sorted(set(nodes), key=key)


def _full_axis(node: _TreeNode | AttrNode, axis: str, idx: _Index) -> list:
    """Candidates in axis order (reverse axes run backwards)."""
    if isinstance(node, AttrNode):
        if axis == "self":
            return [node]
        if axis in ("parent", "ancestor", "ancestor-or-self"):
            chain = [node.owner] + idx.ancestors(node.owner)
            if axis == "parent":
                return chain[:1]
            return ([node] if axis == "ancestor-or-self" else []) + chain
        return []
    if axis == "self":
        return [node]
    if axis == "child":
        return idx.kids[node]
    if axis == "descendant":
        return idx.order[idx.pos[node] + 1 : idx.end[node]]
    if axis == "descendant-or-self":
        return idx.order[idx.pos[node] : idx.end[node]]
    if axis == "parent":
        return [idx.parent[node]] if node in idx.parent else []
    if axis == "ancestor":
        return idx.ancestors(node)
    if axis == "ancestor-or-self":
        return [node] + idx.ancestors(node)
    if axis == "attribute":
        if isinstance(node, Element):
            return [AttrNode(node, n, v) for n, v in node.attributes]
        return []
    if axis == "following-sibling" or axis == "preceding-sibling":
        parent = idx.parent.get(node)
        if parent is None:
            return []
        siblings, rank = idx.kids[parent], idx.rank[node]
        if axis == "following-sibling":
            return siblings[rank + 1 :]
        return siblings[:rank][::-1]
    if axis == "following":
        return idx.order[idx.end[node] :]
    if axis == "preceding":
        ancestors = set(idx.ancestors(node))
        return [m for m in reversed(idx.order[: idx.pos[node]]) if m not in ancestors]
    raise OracleError(f"unsupported axis in oracle: {axis}")


def _node_test(test: NodeTest) -> Callable[[_TreeNode | AttrNode], bool]:
    """The test as a predicate on candidates: ``*`` and a name match
    elements and attributes, by tag or name."""
    if isinstance(test, NodeAny):
        return lambda n: True
    if isinstance(test, TextTest):
        return lambda n: isinstance(n, TextNode)
    if isinstance(test, Wildcard):
        return lambda n: isinstance(n, (Element, AttrNode))
    tag = test.tag

    def named(n) -> bool:
        if isinstance(n, Element):
            return n.tag == tag
        return isinstance(n, AttrNode) and n.name == tag

    return named


def _full_path(steps: tuple[FullStep, ...], start: list, idx: _Index) -> list:
    current = _doc_order(start, idx)
    for step in steps:
        gathered: list = []
        match = _node_test(step.test)
        for node in current:
            candidates = list(filter(match, _full_axis(node, step.axis, idx)))
            for pred in step.predicates:
                size = len(candidates)
                candidates = [
                    c
                    for i, c in enumerate(candidates)
                    if _pred_value(pred, c, i + 1, size, idx)
                ]
            gathered.extend(candidates)
        current = _doc_order(gathered, idx)
    return current


def _pred_value(expr: Expr, node, position: int, size: int, idx: _Index) -> bool:
    value = _expr_value(expr, node, position, size, idx)
    if isinstance(value, float):
        return value == position  # numeric predicate selects by position
    return _to_bool(value)


def _expr_value(expr: Expr, node, position: int, size: int, idx: _Index):
    if isinstance(expr, PathExpr):
        start = [idx.doc] if expr.absolute else [node]
        return _full_path(expr.steps, start, idx)
    if isinstance(expr, StringLiteral):
        return expr.value
    if isinstance(expr, NumberLiteral):
        return expr.value
    if isinstance(expr, BinaryOp):
        if expr.op in ("or", "and"):
            lv = _to_bool(_expr_value(expr.left, node, position, size, idx))
            if expr.op == "or":
                return lv or _to_bool(_expr_value(expr.right, node, position, size, idx))
            return lv and _to_bool(_expr_value(expr.right, node, position, size, idx))
        lv = _expr_value(expr.left, node, position, size, idx)
        rv = _expr_value(expr.right, node, position, size, idx)
        return _compare(expr.op, lv, rv)
    if isinstance(expr, FunctionCall):
        return _call(expr, node, position, size, idx)
    raise OracleError(f"unsupported expression in oracle: {expr!r}")


def _call(expr: FunctionCall, node, position: int, size: int, idx: _Index):
    args = [_expr_value(a, node, position, size, idx) for a in expr.args]
    name = expr.name
    if name == "position" and not args:
        return float(position)
    if name == "last" and not args:
        return float(size)
    if name == "true":
        return True
    if name == "false":
        return False
    if name == "not" and len(args) == 1:
        return not _to_bool(args[0])
    if name == "count" and len(args) == 1 and isinstance(args[0], list):
        return float(len(args[0]))
    if name == "contains" and len(args) == 2:
        return _to_string(args[1]) in _to_string(args[0])
    if name == "starts-with" and len(args) == 2:
        return _to_string(args[0]).startswith(_to_string(args[1]))
    if name == "string":
        return _to_string(args[0]) if args else _node_string(node)
    if name == "string-length" and len(args) <= 1:
        return float(len(_to_string(args[0]) if args else _node_string(node)))
    if name == "number" and len(args) <= 1:
        return _to_number(args[0]) if args else _to_number(_node_string(node))
    if name == "normalize-space" and len(args) <= 1:
        text = _to_string(args[0]) if args else _node_string(node)
        return " ".join(text.split())
    raise OracleError(f"unsupported function in oracle: {name}()")


def _node_string(node) -> str:
    if isinstance(node, AttrNode):
        return node.value
    return string_value(node)


def _to_string(value) -> str:
    """XPath 1.0's string() of a value (section 4.2): a finite number in
    decimal with no exponent, an integer without a point, and otherwise
    the fewest digits that tell it from every other double."""
    if isinstance(value, list):
        return _node_string(value[0]) if value else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF or value == -_INF:
            return "Infinity" if value > 0 else "-Infinity"
        if value.is_integer():
            return str(int(value))  # -0 prints as 0
        return format(Decimal(repr(value)), "f")
    return value


# XPath 1.0's numeric strings (section 4.4): XML whitespace, an optional
# minus and a Number, ``Digits ('.' Digits?)? | '.' Digits``.
_NUMBER_RE = re.compile(r"[ \t\r\n]*-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[ \t\r\n]*")


def _to_number(value) -> float:
    """XPath 1.0's number() of a value: NaN for a string that is not a
    numeric string, the nearest double (maybe infinite) otherwise."""
    if isinstance(value, list):
        return _to_number(_to_string(value))
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    return float(value) if _NUMBER_RE.fullmatch(value) else _NAN


def _to_bool(value) -> bool:
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0 and value == value
    return bool(value)


def _compare(op: str, lv, rv) -> bool:
    def pairs():
        lefts = lv if isinstance(lv, list) else [lv]
        rights = rv if isinstance(rv, list) else [rv]
        for l in lefts:
            for r in rights:
                yield l, r

    if op in ("=", "!="):
        for l, r in pairs():
            if isinstance(lv, list) and isinstance(rv, list):
                equal = _node_string(l) == _node_string(r)
            elif isinstance(l, bool) or isinstance(r, bool):
                equal = _to_bool_scalar(l) == _to_bool_scalar(r)
            elif isinstance(l, float) or isinstance(r, float):
                equal = _scalar_number(l) == _scalar_number(r)
            else:
                equal = _scalar_string(l) == _scalar_string(r)
            if (op == "=") == equal:
                return True
        return False
    for l, r in pairs():
        ln, rn = _scalar_number(l), _scalar_number(r)
        if op == "<" and ln < rn:
            return True
        if op == "<=" and ln <= rn:
            return True
        if op == ">" and ln > rn:
            return True
        if op == ">=" and ln >= rn:
            return True
    return False


def _scalar_number(v) -> float:
    if isinstance(v, (Document, Element, TextNode, AttrNode)):
        return _to_number(_node_string(v))
    return _to_number(v)


def _scalar_string(v) -> str:
    if isinstance(v, (Document, Element, TextNode, AttrNode)):
        return _node_string(v)
    return _to_string(v)


def _to_bool_scalar(v) -> bool:
    if isinstance(v, (Document, Element, TextNode, AttrNode)):
        return True
    return _to_bool(v)


# ---------------------------------------------------------------------------
# Document synthesis


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_star_repeat: int = 3
    max_depth: int = 12

    def __post_init__(self):
        if self.max_star_repeat < 0:
            raise OracleError("max_star_repeat must be >= 0")
        if self.max_depth < 1:
            raise OracleError("max_depth must be >= 1")


_INF = float("inf")
_NAN = float("nan")
_TEXT_ALPHABET = ("x", "y", "some text")  # text and attribute values
_WILDCARD_TAGS = ("a", "b", "c")
_ATTRIBUTE_PROBABILITY = 0.5  # chance per declared attribute


def _min_depths(g: Grammar) -> dict[str, float]:
    """Depth of the shallowest tree each name can generate.  A worklist of
    rules to re-cost: every rule once, then the rules that mention a name
    whose cost fell.  Costs only fall, through whole numbers of levels, so
    the loop ends, and on a chain of names each cost falls once."""
    rules = g.sorted_rules()
    cost: dict[str, float] = {rule.name: _INF for rule in rules}
    work = list(rules)
    while work:
        rule = work.pop()
        depth = _rule_depth(rule, cost)
        if depth < cost[rule.name]:
            cost[rule.name] = depth
            # the rules whose content mentions the rule's name
            work.extend(g.rules_in(g.parent_mask(g.bit(rule))))
    return cost


def _rule_depth(rule: Rule, cost: dict[str, float]) -> float:
    return 1.0 if rule.is_text else 1.0 + _mm(rule.content, cost)


def generate_document(g: Grammar, cfg: GenConfig = GenConfig()) -> Document:
    """Sample one document from the grammar's language, deterministically
    per (grammar, config).  Raises OracleError if no start name can finish
    within the depth budget."""
    return _generate(g, cfg, _min_depths(g))


def _generate(g: Grammar, cfg: GenConfig, cost: dict[str, float]) -> Document:
    """``generate_document`` given the grammar's ``_min_depths``."""
    rng = random.Random(cfg.seed)

    blocked = [n for n in sorted(g.start) if cost[n] > cfg.max_depth]
    if len(blocked) == len(g.start):
        raise OracleError(
            "no finite derivation within depth "
            f"{cfg.max_depth}; blocking names: {', '.join(blocked)}"
        )

    def gen_word(regex: ContentRegex, budget: float) -> list[str]:
        if isinstance(regex, Epsilon):
            return []
        if isinstance(regex, Atom):
            return [regex.name]
        if isinstance(regex, Seq):
            return [name for part in regex.parts for name in gen_word(part, budget)]
        if isinstance(regex, Alt):
            # one two-way choice per part: this part, or (None) one of the parts after it
            mms = [_mm(part, cost) for part in regex.parts]
            rest = list(accumulate(reversed(mms), min))[::-1]  # rest[i] = min(mms[i:])
            for part, mm, later in zip(regex.parts, mms, rest[1:]):
                sides = [side for side, m in ((part, mm), (None, later)) if m <= budget]
                if rng.choice(sides) is not None:
                    return gen_word(part, budget)
            return gen_word(regex.parts[-1], budget)
        if isinstance(regex, Opt):
            if _mm(regex.inner, cost) <= budget and rng.random() < 0.5:
                return gen_word(regex.inner, budget)
            return []
        if isinstance(regex, (Star, Plus)):
            low = 1 if isinstance(regex, Plus) else 0
            if _mm(regex.inner, cost) > budget:
                reps = low  # Plus with an unaffordable body cannot occur on a chosen rule
            else:
                reps = rng.randint(low, max(low, cfg.max_star_repeat))
            out: list[str] = []
            for _ in range(reps):
                out.extend(gen_word(regex.inner, budget))
            return out
        raise OracleError("cannot generate from the empty language")

    rooted = [
        n
        for n in sorted(g.start)
        if any(not r.is_text and _rule_depth(r, cost) <= cfg.max_depth for r in g.rules_of(n))
    ]
    if not rooted:
        raise OracleError(
            f"no start name has an element derivation within depth {cfg.max_depth}"
        )
    doc = Document()
    # Names still to generate, each with its depth budget and the node to
    # append it to.  They pop in document order, so the draws come in the
    # order of a depth-first generator: a node's rule, then its text or
    # tag, attributes and word, then each child's subtree in turn.
    work: list[tuple[str, float, Element | Document]] = [
        (rng.choice(rooted), float(cfg.max_depth), doc)
    ]
    while work:
        name, budget, parent = work.pop()
        affordable = [
            r
            for r in g.rules_of(name)
            if _rule_depth(r, cost) <= budget and not (parent is doc and r.is_text)
        ]
        # rules_of lists a name's rules in sorted_rules() order, so the
        # draw does not depend on set iteration order
        rule = rng.choice(affordable)
        if rule.is_text:
            node: Element | TextNode = TextNode(rng.choice(_TEXT_ALPHABET))
        else:
            tag = rule.label.tag or rng.choice(_WILDCARD_TAGS)
            attrs = tuple(
                (attr, rng.choice(_TEXT_ALPHABET))
                for attr in g.attributes.get(tag, ())
                if rng.random() < _ATTRIBUTE_PROBABILITY
            )
            node = Element(tag, attrs)
            word = gen_word(rule.content, budget - 1)
            work.extend((child, budget - 1, node) for child in reversed(word))
        parent.children.append(node)
    return doc.renumber()


def _mm(regex: ContentRegex, cost: dict[str, float]) -> float:
    if isinstance(regex, Empty):
        return _INF
    if isinstance(regex, Epsilon):
        return 0.0
    if isinstance(regex, Atom):
        return cost[regex.name]
    if isinstance(regex, Seq):
        return max(_mm(part, cost) for part in regex.parts)
    if isinstance(regex, Alt):
        return min(_mm(part, cost) for part in regex.parts)
    if isinstance(regex, (Star, Opt)):
        return 0.0
    return _mm(regex.inner, cost)


_ENUMERATED_TEXT = "t"  # the one text string enumerated documents hold


def enumerate_documents(
    g: Grammar, *, max_star_repeat: int = 2, max_depth: int = 8
) -> Iterator[Document]:
    """Bounded-exhaustive enumeration: every document whose star repetitions
    stay within `max_star_repeat` and whose depth stays within `max_depth`,
    with a single representative text string.  Lazy: subtrees are made
    anew where they recur, so memory follows the bounds, not the count."""
    cost = _min_depths(g)

    def trees(name: str, depth: int) -> Iterator[tuple]:
        for rule in g.rules_of(name):
            if rule.is_text:
                yield ("t", _ENUMERATED_TEXT)
            elif 1 + _mm(rule.content, cost) <= depth:
                for word in words(rule.content, depth - 1):
                    for children in forests(word, depth - 1):
                        yield ("e", rule.label.tag or "n", children)

    def forests(word: tuple[str, ...], depth: int) -> Iterator[tuple]:
        """``itertools.product`` of the names' trees, in its order, with
        one tree generator per name, restarted when a name before it moves."""
        if not word:
            yield ()
        picked: list[tuple] = []  # a tree for each name before the last generator's
        generators = [trees(name, depth) for name in word[:1]]
        while generators:
            tree = next(generators[-1], None)
            if tree is None:
                generators.pop()
                del picked[-1:]
            elif len(generators) < len(word):
                picked.append(tree)
                generators.append(trees(word[len(generators)], depth))
            else:
                yield (*picked, tree)

    @cache
    def words(regex: ContentRegex, depth: int) -> list[tuple[str, ...]]:
        if isinstance(regex, Empty):
            return []
        if isinstance(regex, Epsilon):
            return [()]
        if isinstance(regex, Atom):
            return [(regex.name,)] if cost[regex.name] <= depth else []
        if isinstance(regex, Seq):
            found: list[tuple[str, ...]] = [()]
            for part in regex.parts:
                tails = words(part, depth)
                found = [a + b for a in found for b in tails]
            return found
        if isinstance(regex, Alt):
            return list(dict.fromkeys(w for part in regex.parts for w in words(part, depth)))
        if isinstance(regex, Opt):
            return list(dict.fromkeys([()] + words(regex.inner, depth)))
        base = words(regex.inner, depth)
        low = 1 if isinstance(regex, Plus) else 0
        out: list[tuple[str, ...]] = [] if low else [()]
        layer: list[tuple[str, ...]] = [()]
        for _ in range(max_star_repeat if not isinstance(regex, Plus) else max(1, max_star_repeat)):
            layer = [w + b for w in layer for b in base]
            out.extend(layer)
        return list(dict.fromkeys(out))

    def build(template: tuple) -> Document:
        doc = Document()
        work: list[tuple[tuple, Element | Document]] = [(template, doc)]
        while work:  # templates pop in document order
            template, parent = work.pop()
            if template[0] == "t":
                node: Element | TextNode = TextNode(template[1])
            else:
                node = Element(template[1])
                work.extend((child, node) for child in reversed(template[2]))
            parent.children.append(node)
        return doc.renumber()

    for name in sorted(g.start):
        for template in trees(name, max_depth):
            if template[0] == "t":
                continue  # documents need an element root
            yield build(template)


# ---------------------------------------------------------------------------
# Soundness checking


class PrunedPair:
    """A document and its pruned copy, each indexed once (``original``,
    ``pruned``) for every query, with the id maps that comparing query
    results across them reads.  The original may be given as its index,
    so that the pruned copies of one document share one."""

    __slots__ = ("origin", "old_to_new", "original", "pruned")

    def __init__(self, original: Document | _Index, pruned: Document, origin: dict[int, int]):
        self.origin = origin
        self.old_to_new = {old: new for new, old in origin.items()}
        self.original = original if isinstance(original, _Index) else _Index(original)
        self.pruned = _Index(pruned)

    def results_match(self, expected: Iterable[ResultId], got: Iterable[ResultId]) -> bool:
        """Compare query results across pruning.

        `got` ids live in the pruned document and are mapped back through
        `origin`.  Result identity must agree, and element/text results
        must additionally keep their whole subtree byte-for-byte."""
        origin = self.origin
        mapped: set[ResultId] = set()
        for rid in got:
            if isinstance(rid, tuple):
                mapped.add((rid[0], origin[rid[1]], rid[2]))
            else:
                mapped.add(origin[rid])
        expected_set = set(expected)
        if mapped != expected_set:
            return False
        for rid in expected_set:
            if isinstance(rid, tuple):
                continue  # attribute results have no subtree
            new_id = self.old_to_new.get(rid)
            if new_id is None:
                return False
            if subtree_text(self.original.by_nid[rid]) != subtree_text(self.pruned.by_nid[new_id]):
                return False
        return True


@dataclass
class SoundnessFailure:
    seed: int
    query: str
    document: str
    detail: str


@dataclass
class SoundnessReport:
    n: int
    passed: bool
    failures: list[SoundnessFailure] = field(default_factory=list)
    bytes_in: int = 0
    bytes_out: int = 0

    def lines(self, doc_paths: dict[int, str] | None = None) -> list[str]:
        if self.passed:
            return [f"PASS n={self.n}"]
        out = []
        for i, failure in enumerate(self.failures):
            where = (doc_paths or {}).get(i, "-")
            out.append(f"FAIL seed={failure.seed} query={failure.query} doc={where}")
        return out


def _stream_mismatch(source: str, expected: str, pi: Projector) -> str | None:
    """Why ``prune_file`` does not turn ``source`` into ``expected``, or None."""
    out: list[str] = []
    try:
        prune_file(source, pi, out.append)
    except UnresolvableTagError as exc:
        return f"prune_file failed: {exc}"
    if "".join(out) != expected:
        return "prune_file output differs from prune_tree output"
    return None


def _tree_mismatch(
    doc: Document, pi: Projector, witness: Document, witness_text: str
) -> str | None:
    """Why ``prune_tree`` does not give ``witness``, the copy by witness
    (serialized as ``witness_text``), or None."""
    try:
        pruned = prune_tree(doc, pi)
    except InvalidDocumentError as exc:
        return f"prune_tree failed: {exc}"
    if serialize(pruned) != witness_text:
        return "prune_tree output differs from the copy by witness"
    if [n.nid for n in pruned.iter_nodes()] != [n.nid for n in witness.iter_nodes()]:
        return "prune_tree node ids differ from the copy by witness"
    return None


def check_soundness(
    g: Grammar,
    queries: Sequence[str | FullQuery],
    n: int,
    cfg: GenConfig = GenConfig(),
    *,
    projector: Projector | None = None,
    stop_on_first_failure: bool = False,
) -> SoundnessReport:
    """Generate n documents and verify that pruning preserves every query.

    Queries are answered on the copy by the general validator's witness
    (``prune_tree_with_origin``).  On streamable grammars each document
    is also pruned by ``prune_file``, the path the CLI runs, whose output
    must equal the serialized witness copy byte for byte, and by
    ``prune_tree``, whose one-pass copy must equal the witness copy in
    serialization and node ids; a mismatch is a failure
    with query ``(prune_file)`` or ``(prune_tree)``.
    The projector defaults to the one inferred for the whole batch; pass
    one explicitly for fault-injection runs.  Raises OracleError unless
    n >= 1.
    """
    if n < 1:
        raise OracleError("n must be >= 1")
    parsed: list[FullQuery] = [q if isinstance(q, FullQuery) else parse_query(q) for q in queries]
    texts = [q if isinstance(q, str) else "<ast>" for q in queries]
    ells = [approximate_to_ell(q) for q in parsed]
    pi = projector if projector is not None else infer_projector(ells, g)

    streamable = is_streamable(pi.grammar)
    cost = _min_depths(g)
    report = SoundnessReport(n=n, passed=True)
    for i in range(n):
        doc = _generate(g, replace(cfg, seed=cfg.seed + i), cost)
        interp = require_interpretation(doc, g)
        pruned, origin = prune_tree_with_origin(doc, pi, interp)
        source, in_memory = serialize(doc), serialize(pruned)
        report.bytes_in += len(source.encode("utf-8"))
        report.bytes_out += len(in_memory.encode("utf-8"))
        mismatches = (
            (("(prune_file)", _stream_mismatch(source, in_memory, pi)),
             ("(prune_tree)", _tree_mismatch(doc, pi, pruned, in_memory)))
            if streamable else ()
        )
        for pruner_name, detail in mismatches:
            if detail is not None:
                report.passed = False
                report.failures.append(SoundnessFailure(cfg.seed + i, pruner_name, source, detail))
                if stop_on_first_failure:
                    return report
        pair = PrunedPair(doc, pruned, origin)
        for text, query in zip(texts, parsed):
            expected = _eval(query, pair.original)
            got = _eval(query, pair.pruned)
            try:
                ok = pair.results_match(expected, got)
            except KeyError:
                ok = False  # result node survived with no origin: impossible mapping
            if not ok:
                report.passed = False
                report.failures.append(
                    SoundnessFailure(
                        seed=cfg.seed + i,
                        query=text,
                        document=source,
                        detail=f"expected {sorted(map(str, expected))}",
                    )
                )
                if stop_on_first_failure:
                    return report
    return report


# ---------------------------------------------------------------------------
# Minimality probing


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of a brute-force search for a droppable kept rule.

    status 'minimal': every kept rule has a generated counterexample
    document proving the queries need it.  status 'witness': `witness` can
    be dropped without changing any query result on any document tried
    (and the document supply was exhausted, so the claim is tight for the
    bounded corpus).  status 'budget_exhausted': some rule never showed a
    counterexample but the corpus was cut off by the budget.
    """

    status: str
    witness: Rule | None
    docs_tested: int


def minimality_check(p: Projector, qs: Sequence[QueryEll], budget: int) -> MinimalityReport:
    """Drop each kept rule in turn, in sort order, and look for a document
    among the first ``budget`` that ``enumerate_documents`` lists, with its
    default bounds, on which some query's answer changes; the first rule
    without one is the witness."""
    g = p.grammar
    docs = list(islice(enumerate_documents(g), budget + 1))
    complete = len(docs) <= budget
    del docs[budget:]
    if not p.mask:
        return MinimalityReport("minimal", None, len(docs))

    parsed = [parse_query(ell_to_text(q)) for q in qs]
    baselines = []
    for doc in docs:
        index = _Index(doc)
        expected = [_eval(q, index) for q in parsed]
        baselines.append((doc, index, require_interpretation(doc, g), expected))

    for bit in mask_bits(p.mask):
        candidate = Projector(g, p.mask & ~bit)
        for doc, index, interp, expected in baselines:
            pruned, origin = prune_tree_with_origin(doc, candidate, interp)
            pair = PrunedPair(index, pruned, origin)
            if not all(pair.results_match(want, _eval(q, pair.pruned))
                       for q, want in zip(parsed, expected)):
                break  # the rule is needed
        else:
            unused = g.sorted_rules()[bit.bit_length() - 1]
            status = "witness" if complete else "budget_exhausted"
            return MinimalityReport(status, unused, len(docs))
    return MinimalityReport("minimal", None, len(docs))
