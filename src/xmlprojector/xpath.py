"""XPath parsing, the restricted up/down fragment, and sound approximation.

Two query representations live here.  ``FullQuery`` is the parsed XPath
1.0 abstract syntax (all axes, comparisons, function calls), produced by
``parse_query``.  ``QueryEll`` is the analyzable fragment: a union of
absolute step paths using only upward/downward axes, with predicates built
from and/or over existential path tests.  ``approximate_to_ell`` maps the
former onto the latter so that every piece of data the original query can
touch is also touched by the approximation; the rewrites may widen a query
but never narrow it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Axes and node tests (shared between the full AST and the fragment)


class Axis(enum.Enum):
    SELF = "self"
    CHILD = "child"
    DESCENDANT = "descendant"
    DESCENDANT_OR_SELF = "descendant-or-self"
    PARENT = "parent"
    ANCESTOR = "ancestor"
    ANCESTOR_OR_SELF = "ancestor-or-self"


ELL_AXES = {axis.value: axis for axis in Axis}

FULL_AXES = set(ELL_AXES) | {
    "following-sibling",
    "preceding-sibling",
    "following",
    "preceding",
    "attribute",
    "namespace",
}


class NodeTest:
    __slots__ = ()


@dataclass(frozen=True)
class TagTest(NodeTest):
    tag: str

    def text(self) -> str:
        return self.tag


@dataclass(frozen=True)
class Wildcard(NodeTest):
    def text(self) -> str:
        return "*"


@dataclass(frozen=True)
class TextTest(NodeTest):
    def text(self) -> str:
        return "text()"


@dataclass(frozen=True)
class NodeAny(NodeTest):
    def text(self) -> str:
        return "node()"


WILDCARD = Wildcard()
TEXT_TEST = TextTest()
NODE_ANY = NodeAny()


# ---------------------------------------------------------------------------
# Full XPath abstract syntax


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class FullStep:
    axis: str
    test: NodeTest
    predicates: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class PathExpr(Expr):
    absolute: bool
    steps: tuple[FullStep, ...]


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # 'or' 'and' '=' '!=' '<' '<=' '>' '>='
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class StringLiteral(Expr):
    value: str


@dataclass(frozen=True)
class NumberLiteral(Expr):
    value: float


@dataclass(frozen=True)
class FullQuery:
    branches: tuple[PathExpr, ...]

    def __post_init__(self):
        if not self.branches:
            raise QuerySyntaxError("query has no paths")


# ---------------------------------------------------------------------------
# The restricted fragment


class Predicate:
    __slots__ = ()


@dataclass(frozen=True)
class PathExists(Predicate):
    """Existential test: the relative path selects at least one node."""

    path: tuple["StepEll", ...]


@dataclass(frozen=True)
class PredAnd(Predicate):
    left: Predicate
    right: Predicate


@dataclass(frozen=True)
class PredOr(Predicate):
    left: Predicate
    right: Predicate


@dataclass(frozen=True)
class StepEll:
    axis: Axis
    test: NodeTest
    pred: Predicate | None = None


@dataclass(frozen=True)
class QueryEll:
    """Union of absolute step paths, each evaluated from the document node."""

    branches: tuple[tuple[StepEll, ...], ...]

    def __post_init__(self):
        if not self.branches:
            raise QuerySyntaxError("query has no branches")


SELF_STEP = StepEll(Axis.SELF, NODE_ANY)
SUBTREE_STEP = StepEll(Axis.DESCENDANT_OR_SELF, NODE_ANY)


def pred_and(parts: list[Predicate]) -> Predicate | None:
    if not parts:
        return None
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = PredAnd(part, out)
    return out


# ---------------------------------------------------------------------------
# Concrete-syntax parser

_TOKEN_RE = re.compile(
    r"""
    \s*(
        \d+\.\d+ | \.\d+ | \d+              # numbers
      | '[^']*' | "[^"]*"                   # string literals
      | // | /
      | \.\. | \.
      | :: | @ | \| | \( | \) | \[ | \]
      | != | <= | >= | = | < | >
      | , | \* | \+ | -
      | [A-Za-z_][\w.\-]*(?::[A-Za-z_][\w.\-]*)?   # names, maybe prefixed
    )""",
    re.X,
)

_NODE_TYPE_TESTS = {"text", "node", "comment", "processing-instruction"}

# How deep ``parse_query`` lets predicates, parentheses and function-call
# arguments nest.  Parsing, approximation, inference and the oracle recurse
# a few frames per level; this bound keeps them all within Python's
# default recursion limit.
MAX_QUERY_NESTING = 100


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or not m.group(1):
                if text[pos:].strip():
                    raise QuerySyntaxError(f"cannot tokenize {text[pos:].strip()[:10]!r}", pos)
                break
            self.items.append((m.group(1), m.start(1)))
            pos = m.end()
        self.index = 0
        self.depth = 0  # open `[` and `(` around the current token

    def peek(self, ahead: int = 0) -> str | None:
        i = self.index + ahead
        return self.items[i][0] if i < len(self.items) else None

    def pos(self) -> int:
        if self.index < len(self.items):
            return self.items[self.index][1]
        return len(self.text)

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("unexpected end of query", len(self.text))
        self.index += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise QuerySyntaxError(f"expected {tok!r}, got {got!r}", self.pos())

    def open(self) -> None:
        """Take an opening `[` or `(`: one nesting level deeper."""
        if self.depth == MAX_QUERY_NESTING:
            raise QuerySyntaxError(
                f"predicates and parentheses nest deeper than {MAX_QUERY_NESTING} levels",
                self.pos(),
            )
        self.take()
        self.depth += 1

    def close(self, tok: str) -> None:
        """Take the closing `]` or `)` of the innermost level."""
        self.expect(tok)
        self.depth -= 1


_IDENT_RE = re.compile(r"[A-Za-z_][\w.\-]*(?::[A-Za-z_][\w.\-]*)?\Z")


def _is_ident(tok: str | None) -> bool:
    return tok is not None and bool(_IDENT_RE.match(tok))


def parse_query(text: str) -> FullQuery:
    """Parse one XPath expression, optionally a top-level union of paths.

    Abbreviations are expanded during parsing: ``//`` becomes a
    descendant-or-self::node() step, ``.``/``..`` become self/parent steps
    and ``@a`` an attribute step.  Constructs outside the supported XPath
    subset (namespace axis, comment()/processing-instruction() tests,
    variables, arithmetic) are rejected by name.  Predicates, parentheses
    and function-call arguments may nest at most ``MAX_QUERY_NESTING``
    (100) levels deep; a deeper query raises ``QuerySyntaxError`` at the
    opening bracket one level too deep.  Paths may have any length.
    """
    tokens = _Tokens(text)
    branches = [_parse_path(tokens, top_level=True)]
    while tokens.peek() == "|":
        tokens.take()
        branches.append(_parse_path(tokens, top_level=True))
    if tokens.peek() is not None:
        raise QuerySyntaxError(f"trailing input {tokens.peek()!r}", tokens.pos())
    return FullQuery(tuple(branches))


def _parse_path(tokens: _Tokens, top_level: bool = False) -> PathExpr:
    steps: list[FullStep] = []
    absolute = False
    tok = tokens.peek()
    if tok == "/":
        absolute = True
        tokens.take()
        if not _starts_step(tokens.peek()):
            return PathExpr(True, ())
    elif tok == "//":
        absolute = True
        tokens.take()
        steps.append(FullStep("descendant-or-self", NODE_ANY))
    steps.append(_parse_step(tokens))
    while tokens.peek() in ("/", "//"):
        if tokens.take() == "//":
            steps.append(FullStep("descendant-or-self", NODE_ANY))
        steps.append(_parse_step(tokens))
    return PathExpr(absolute, tuple(steps))


def _starts_step(tok: str | None) -> bool:
    return tok in (".", "..", "@", "*") or _is_ident(tok)


def _parse_step(tokens: _Tokens) -> FullStep:
    tok = tokens.peek()
    if tok == ".":
        tokens.take()
        return FullStep("self", NODE_ANY, _parse_predicates(tokens))
    if tok == "..":
        tokens.take()
        return FullStep("parent", NODE_ANY, _parse_predicates(tokens))
    axis = "child"
    if tok == "@":
        tokens.take()
        axis = "attribute"
    elif _is_ident(tok) and tokens.peek(1) == "::":
        axis = tokens.take()
        tokens.take()
        if axis not in FULL_AXES:
            raise QuerySyntaxError(f"unknown axis {axis!r}", tokens.pos())
        if axis == "namespace":
            raise QuerySyntaxError("unsupported: namespace axis", tokens.pos())
    test = _parse_node_test(tokens)
    return FullStep(axis, test, _parse_predicates(tokens))


def _parse_node_test(tokens: _Tokens) -> NodeTest:
    tok = tokens.take()
    if tok == "*":
        return WILDCARD
    if not _is_ident(tok):
        raise QuerySyntaxError(f"expected a node test, got {tok!r}", tokens.pos())
    if tok in _NODE_TYPE_TESTS and tokens.peek() == "(":
        tokens.take()
        tokens.expect(")")
        if tok == "text":
            return TEXT_TEST
        if tok == "node":
            return NODE_ANY
        raise QuerySyntaxError(f"unsupported: {tok}() node test", tokens.pos())
    return TagTest(tok)


def _parse_predicates(tokens: _Tokens) -> tuple[Expr, ...]:
    preds: list[Expr] = []
    while tokens.peek() == "[":
        tokens.open()
        preds.append(_parse_or(tokens))
        tokens.close("]")
    return tuple(preds)


def _parse_or(tokens: _Tokens) -> Expr:
    out = _parse_and(tokens)
    while tokens.peek() == "or":
        tokens.take()
        out = BinaryOp("or", out, _parse_and(tokens))
    return out


def _parse_and(tokens: _Tokens) -> Expr:
    out = _parse_comparison(tokens)
    while tokens.peek() == "and":
        tokens.take()
        out = BinaryOp("and", out, _parse_comparison(tokens))
    return out


def _parse_comparison(tokens: _Tokens) -> Expr:
    out = _parse_value(tokens)
    while tokens.peek() in ("=", "!=", "<", "<=", ">", ">="):
        op = tokens.take()
        out = BinaryOp(op, out, _parse_value(tokens))
    return out


def _parse_value(tokens: _Tokens) -> Expr:
    tok = tokens.peek()
    if tok is None:
        raise QuerySyntaxError("unexpected end of predicate", tokens.pos())
    if tok.startswith(("'", '"')):
        tokens.take()
        return StringLiteral(tok[1:-1])
    if tok[0].isdigit() or (tok.startswith(".") and len(tok) > 1 and tok[1].isdigit()):
        tokens.take()
        return NumberLiteral(float(tok))
    if tok == "(":
        tokens.open()
        inner = _parse_or(tokens)
        tokens.close(")")
        return inner
    if tok in ("+", "-", ","):
        raise QuerySyntaxError(f"unsupported: arithmetic operator {tok!r}", tokens.pos())
    if (
        _is_ident(tok)
        and tokens.peek(1) == "("
        and tok not in _NODE_TYPE_TESTS
        and ":" not in tok
    ):
        name = tokens.take()
        tokens.open()
        args: list[Expr] = []
        if tokens.peek() != ")":
            args.append(_parse_or(tokens))
            while tokens.peek() == ",":
                tokens.take()
                args.append(_parse_or(tokens))
        tokens.close(")")
        return FunctionCall(name, tuple(args))
    if tok in ("/", "//", ".", "..", "@", "*") or _is_ident(tok):
        return _parse_path(tokens)
    raise QuerySyntaxError(f"unsupported token {tok!r} in predicate", tokens.pos())


# ---------------------------------------------------------------------------
# Approximation into the fragment
#
# Rewrites, in the order they are tried:
#   axes already in the fragment pass through;
#   following-sibling/preceding-sibling::t  ->  parent::node()/child::t
#   following/preceding::t  ->  ancestor-or-self::node()/parent::node()
#                               /child::node()/descendant-or-self::t
#   attribute steps are dropped (attributes always survive on kept nodes);
#   positional and otherwise data-free predicates become self::node();
#   value-reading predicates keep the subtrees their paths can reach;
#   absolute paths inside predicates become extra top-level branches;
#   anything beyond that keeps the candidate's whole subtree.

_VALUELESS_FUNCTIONS = {"position", "last", "true", "false"}
# functions whose truth requires their node-set argument to be non-empty,
# so the argument path may keep filtering the context
_EXISTENCE_IMPLYING = {"contains", "starts-with"}


def approximate_to_ell(q: FullQuery) -> QueryEll:
    """Rewrite a full query into the fragment, widening where needed.

    The result navigates to every node the input can navigate to, and its
    inferred projector retains every subtree whose content the input may
    read (function arguments, comparison operands).  Queries already in
    the fragment come back unchanged.
    """
    branches: list[tuple[StepEll, ...]] = []
    pending: list[PathExpr] = list(q.branches)
    while pending:
        path = pending.pop(0)
        branches.append(_approx_steps(path.steps, pending))
    deduped = tuple(dict.fromkeys(branches))
    return QueryEll(deduped)


def _approx_steps(steps: tuple[FullStep, ...], sink: list[PathExpr]) -> tuple[StepEll, ...]:
    out: list[StepEll] = []
    for i, step in enumerate(steps):
        pred = _approx_predicates(step.predicates, sink)
        if step.axis in ELL_AXES:
            out.append(StepEll(ELL_AXES[step.axis], step.test, pred))
        elif step.axis in ("following-sibling", "preceding-sibling"):
            out.append(StepEll(Axis.PARENT, NODE_ANY))
            out.append(StepEll(Axis.CHILD, step.test, pred))
        elif step.axis in ("following", "preceding"):
            out.append(StepEll(Axis.ANCESTOR_OR_SELF, NODE_ANY))
            out.append(StepEll(Axis.PARENT, NODE_ANY))
            out.append(StepEll(Axis.CHILD, NODE_ANY))
            out.append(StepEll(Axis.DESCENDANT_OR_SELF, step.test, pred))
        elif step.axis == "attribute":
            # the owning element is the result; its attributes ride along
            if i + 1 < len(steps):
                out.append(SUBTREE_STEP)
                break
        else:  # pragma: no cover - parse rejects the rest
            raise QuerySyntaxError(f"cannot approximate axis {step.axis!r}")
    return tuple(out)


def _approx_predicates(preds: tuple[Expr, ...], sink: list[PathExpr]) -> Predicate | None:
    return pred_and([_approx_predicate(p, sink) for p in preds])


def _approx_predicate(expr: Expr, sink: list[PathExpr]) -> Predicate:
    if isinstance(expr, PathExpr):
        if expr.absolute:
            sink.append(expr)
            return PathExists((SUBTREE_STEP,))
        return PathExists(_approx_steps(expr.steps, sink) or (SELF_STEP,))
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            return PredAnd(_approx_predicate(expr.left, sink), _approx_predicate(expr.right, sink))
        if expr.op == "or":
            return PredOr(_approx_predicate(expr.left, sink), _approx_predicate(expr.right, sink))
        # comparison: truth needs each node-set operand non-empty, and the
        # compared values live in the operands' subtrees
        parts = [
            contrib
            for side in (expr.left, expr.right)
            if (contrib := _value_contrib(side, sink)) is not None
        ]
        return pred_and(parts) or PathExists((SELF_STEP,))
    if isinstance(expr, FunctionCall):
        return _approx_function(expr, sink)
    if isinstance(expr, (NumberLiteral, StringLiteral)):
        # bare numeric predicate is positional; bare string is constant
        return PathExists((SELF_STEP,))
    raise QuerySyntaxError(f"cannot approximate predicate {expr!r}")


def _approx_function(expr: FunctionCall, sink: list[PathExpr]) -> Predicate:
    if expr.name == "not" and len(expr.args) == 1:
        # truth says nothing about the inner paths' existence: never filter,
        # but keep whatever data the inner test would need
        return PredOr(PathExists((SELF_STEP,)), _approx_predicate(expr.args[0], sink))
    if expr.name in _VALUELESS_FUNCTIONS:
        return PathExists((SELF_STEP,))
    if expr.name in _EXISTENCE_IMPLYING and not any(
        isinstance(a, StringLiteral) and a.value == "" for a in expr.args
    ):
        parts = [
            contrib
            for arg in expr.args
            if (contrib := _value_contrib(arg, sink)) is not None
        ]
        if parts:
            return pred_and(parts)
    # unknown function: keep the candidate's whole subtree, plus anything
    # its path arguments can reach elsewhere in the tree (never filtering)
    carriers: list[Predicate] = []
    for path in _embedded_paths(expr, sink):
        carriers.append(PredOr(PathExists((SELF_STEP,)), PathExists(path)))
    return pred_and([PathExists((SUBTREE_STEP,))] + carriers)


def _value_contrib(expr: Expr, sink: list[PathExpr]) -> Predicate | None:
    """Contribution of one comparison operand / function argument."""
    if isinstance(expr, PathExpr):
        if expr.absolute:
            sink.append(expr)
            return PathExists((SUBTREE_STEP,))
        steps = _approx_steps(expr.steps, sink) or (SELF_STEP,)
        return PathExists(_with_subtree(steps))
    if isinstance(expr, FunctionCall):
        carriers: list[Predicate] = [
            PredOr(PathExists((SELF_STEP,)), PathExists(path))
            for path in _embedded_paths(expr, sink)
        ]
        return pred_and(carriers)
    if isinstance(expr, (StringLiteral, NumberLiteral)):
        return None
    if isinstance(expr, BinaryOp):
        return PredOr(PathExists((SELF_STEP,)), _approx_predicate(expr, sink))
    return PathExists((SUBTREE_STEP,))


def _embedded_paths(expr: Expr, sink: list[PathExpr]) -> list[tuple[StepEll, ...]]:
    """Relative paths syntactically inside an opaque expression, widened to
    keep their full result subtrees; absolute ones go to the sink."""
    found: list[tuple[StepEll, ...]] = []

    def scan(e: Expr) -> None:
        if isinstance(e, PathExpr):
            if e.absolute:
                sink.append(e)
            else:
                found.append(_with_subtree(_approx_steps(e.steps, sink)))
        elif isinstance(e, BinaryOp):
            scan(e.left)
            scan(e.right)
        elif isinstance(e, FunctionCall):
            for arg in e.args:
                scan(arg)

    scan(expr)
    return found


def _with_subtree(steps: tuple[StepEll, ...]) -> tuple[StepEll, ...]:
    if steps and steps[-1] == SUBTREE_STEP:
        return steps
    return steps + (SUBTREE_STEP,)


# ---------------------------------------------------------------------------
# Canonical text for fragment queries


def ell_to_text(q: QueryEll) -> str:
    return " | ".join(_branch_text(branch) for branch in q.branches)


def _branch_text(branch: tuple[StepEll, ...]) -> str:
    if not branch:
        return "/"
    return "/" + "/".join(_step_text(s) for s in branch)


def _rel_text(path: tuple[StepEll, ...]) -> str:
    if not path:
        return "."
    return "/".join(_step_text(s) for s in path)


def _step_text(step: StepEll) -> str:
    text = f"{step.axis.value}::{step.test.text()}"
    if step.pred is not None:
        text += f"[{_pred_text(step.pred)}]"
    return text


def _pred_text(pred: Predicate) -> str:
    if isinstance(pred, PathExists):
        return _rel_text(pred.path)
    op = "and" if isinstance(pred, PredAnd) else "or"
    return f"({_pred_text(pred.left)} {op} {_pred_text(pred.right)})"
