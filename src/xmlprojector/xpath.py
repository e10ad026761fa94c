"""XPath parsing, the restricted up/down fragment, and sound approximation.

Two query representations live here.  ``FullQuery`` is the parsed XPath
1.0 abstract syntax (all axes, comparisons, function calls), produced by
``parse_query``.  ``QueryEll`` is the analyzable fragment: a union of
absolute step paths using only upward/downward axes, with predicates built
from and/or over existential path tests.  ``approximate_to_ell`` maps the
former onto the latter so that every piece of data the original query can
touch is also touched by the approximation; the rewrites may widen a query
but never narrow it.

The node tests and the values of both representations are immutable
``__slots__`` values on the package's one value base (``doc._Frozen``,
which the grammar's values share), each with a hand-written constructor
that writes its slots through their own setters, so the module generates
no code at import.  Equality, hashing, pickling and ``repr`` text are
those of the frozen dataclasses they replaced.
"""

from __future__ import annotations

import enum
import re

from .doc import NamePattern, _Frozen


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


class NodeTest(_Frozen):
    __slots__ = ()


class TagTest(NodeTest):
    __slots__ = ("tag",)
    _fields = __slots__

    def __init__(self, tag: str):
        _set_tag(self, tag)

    def text(self) -> str:
        return self.tag


class Wildcard(NodeTest):
    __slots__ = ()

    def text(self) -> str:
        return "*"


class TextTest(NodeTest):
    __slots__ = ()

    def text(self) -> str:
        return "text()"


class NodeAny(NodeTest):
    __slots__ = ()

    def text(self) -> str:
        return "node()"


# The slots' own setters, which ``_Frozen.__setattr__`` does not reach.
_set_tag = TagTest.tag.__set__

WILDCARD = Wildcard()
TEXT_TEST = TextTest()
NODE_ANY = NodeAny()


# ---------------------------------------------------------------------------
# Full XPath abstract syntax


class Expr(_Frozen):
    __slots__ = ()


class FullStep(_Frozen):
    __slots__ = ("axis", "test", "predicates")
    _fields = __slots__

    def __init__(self, axis: str, test: NodeTest, predicates: tuple[Expr, ...] = ()):
        _set_full_axis(self, axis)
        _set_full_test(self, test)
        _set_predicates(self, predicates)


class PathExpr(Expr):
    __slots__ = ("absolute", "steps")
    _fields = __slots__

    def __init__(self, absolute: bool, steps: tuple[FullStep, ...]):
        _set_absolute(self, absolute)
        _set_steps(self, steps)


class BinaryOp(Expr):
    __slots__ = ("op", "left", "right")  # op: 'or' 'and' '=' '!=' '<' '<=' '>' '>='
    _fields = __slots__

    def __init__(self, op: str, left: Expr, right: Expr):
        _set_op(self, op)
        _set_op_left(self, left)
        _set_op_right(self, right)


class FunctionCall(Expr):
    __slots__ = ("name", "args")
    _fields = __slots__

    def __init__(self, name: str, args: tuple[Expr, ...]):
        _set_function(self, name)
        _set_args(self, args)


class _Literal(Expr):
    __slots__ = ("value",)
    _fields = __slots__

    def __init__(self, value: str | float):
        _set_value(self, value)


class StringLiteral(_Literal):
    __slots__ = ()


class NumberLiteral(_Literal):
    __slots__ = ()


class FullQuery(_Frozen):
    __slots__ = ("branches",)
    _fields = __slots__

    def __init__(self, branches: tuple[PathExpr, ...]):
        if not branches:
            raise QuerySyntaxError("query has no paths")
        _set_full_branches(self, branches)


_set_full_axis, _set_full_test, _set_predicates = (
    getattr(FullStep, slot).__set__ for slot in FullStep.__slots__
)
_set_absolute, _set_steps = (getattr(PathExpr, slot).__set__ for slot in PathExpr.__slots__)
_set_op, _set_op_left, _set_op_right = (
    getattr(BinaryOp, slot).__set__ for slot in BinaryOp.__slots__
)
_set_function, _set_args = (getattr(FunctionCall, slot).__set__ for slot in FunctionCall.__slots__)
_set_value = _Literal.value.__set__
_set_full_branches = FullQuery.branches.__set__


# ---------------------------------------------------------------------------
# The restricted fragment


class Predicate(_Frozen):
    __slots__ = ()


class PathExists(Predicate):
    """Existential test: the relative path selects at least one node."""

    __slots__ = ("path",)
    _fields = __slots__

    def __init__(self, path: tuple[StepEll, ...]):
        _set_path(self, path)


class _Junction(Predicate):
    __slots__ = ("left", "right")
    _fields = __slots__

    def __init__(self, left: Predicate, right: Predicate):
        _set_left(self, left)
        _set_right(self, right)


class PredAnd(_Junction):
    __slots__ = ()


class PredOr(_Junction):
    __slots__ = ()


class StepEll(_Frozen):
    __slots__ = ("axis", "test", "pred")
    _fields = __slots__

    def __init__(self, axis: Axis, test: NodeTest, pred: Predicate | None = None):
        _set_axis(self, axis)
        _set_test(self, test)
        _set_pred(self, pred)


class QueryEll(_Frozen):
    """Union of absolute step paths, each evaluated from the document node."""

    __slots__ = ("branches",)
    _fields = __slots__

    def __init__(self, branches: tuple[tuple[StepEll, ...], ...]):
        if not branches:
            raise QuerySyntaxError("query has no branches")
        _set_branches(self, branches)


_set_path = PathExists.path.__set__
_set_left, _set_right = _Junction.left.__set__, _Junction.right.__set__
_set_axis, _set_test, _set_pred = (getattr(StepEll, slot).__set__ for slot in StepEll.__slots__)
_set_branches = QueryEll.branches.__set__

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


def _token_pattern(start: str, chars: str) -> str:
    """One token per match: a name (group 1), any other token (group 2),
    or a character no token starts with, which matches neither group."""
    ncname = f"[{start}][{chars}]*"
    return rf"""
    \s*(?:
        ({ncname}(?::{ncname})?)                    # names, maybe prefixed
      | ( // | / | :: | [\[\]()@|,*+\-=]
        | '[^']*' | "[^"]*"                         # string literals
        | \d+\.\d+ | \.\d+ | \d+                    # numbers
        | \.\. | \.
        | != | <= | >= | < | >
        )
      | \S
    )"""


_TOKEN_RE = NamePattern(_token_pattern, re.X)

_NODE_TYPE_TESTS = {"text", "node", "comment", "processing-instruction"}
_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
_STEP_STARTS = {".", "..", "@", "*"}
_ANY_DESCENDANT = FullStep("descendant-or-self", NODE_ANY)  # what `//` stands for

# How deep ``parse_query`` lets predicates, parentheses and function-call
# arguments nest.  Parsing, approximation, inference and the oracle recurse
# a few frames per level; this bound keeps them all within Python's
# default recursion limit.
MAX_QUERY_NESTING = 100


class _Tokens:
    """The tokens of one query, read by index ``i``.

    ``toks[k]`` is the k-th token's text and ``names[k]`` the same text if
    the token is a name, else "".  Both end in two sentinels (None and ""),
    so the parser looks at the current and the next token without bounds
    checks.  Start offsets are only needed for error messages, so they are
    found again when one is raised.
    """

    __slots__ = ("text", "toks", "names", "i", "depth")

    def __init__(self, text: str):
        pairs = _TOKEN_RE.of(text).findall(text)
        toks = [name or other for name, other in pairs]
        if "" in toks:
            # the bad character ends the match, after any whitespace
            m = next(m for m in _TOKEN_RE.of(text).finditer(text) if m.lastindex is None)
            at = m.end() - 1
            raise QuerySyntaxError(f"cannot tokenize {text[at:].strip()[:10]!r}", at)
        self.text = text
        self.toks: list[str | None] = toks + [None, None]
        self.names = [name for name, _ in pairs] + ["", ""]
        self.i = 0
        self.depth = 0  # open `[` and `(` around the current token

    def error(self, message: str, k: int) -> QuerySyntaxError:
        """A syntax error at the start of token k, or at the end of the text."""
        if self.toks[k] is None:
            return QuerySyntaxError(message, len(self.text))
        m = list(_TOKEN_RE.of(self.text).finditer(self.text))[k]
        return QuerySyntaxError(message, m.start(m.lastindex))

    def expect(self, tok: str) -> None:
        got = self.toks[self.i]
        if got is None:
            raise self.error("unexpected end of query", self.i)
        if got != tok:
            raise self.error(f"expected {tok!r}, got {got!r}", self.i)
        self.i += 1

    def open(self) -> None:
        """Take an opening `[` or `(`: one nesting level deeper."""
        if self.depth == MAX_QUERY_NESTING:
            raise self.error(
                f"predicates and parentheses nest deeper than {MAX_QUERY_NESTING} levels", self.i
            )
        self.i += 1
        self.depth += 1

    def close(self, tok: str) -> None:
        """Take the closing `]` or `)` of the innermost level."""
        if self.toks[self.i] == "|":
            raise self.error(
                "unsupported: union '|' inside a predicate, parentheses or arguments; "
                "unite whole paths at the top level", self.i
            )
        self.expect(tok)
        self.depth -= 1


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
    t = _Tokens(text)
    branches = [_parse_path(t)]
    while t.toks[t.i] == "|":
        t.i += 1
        branches.append(_parse_path(t))
    if t.toks[t.i] is not None:
        raise t.error(f"trailing input {t.toks[t.i]!r}", t.i)
    return FullQuery(tuple(branches))


def _parse_path(t: _Tokens) -> PathExpr:
    toks, names, i = t.toks, t.names, t.i
    steps: list[FullStep] = []
    absolute = toks[i] in ("/", "//")
    if toks[i] == "/":
        i += 1
        if not (names[i] or toks[i] in _STEP_STARTS):
            t.i = i
            return PathExpr(True, ())
    elif toks[i] == "//":
        i += 1
        steps.append(_ANY_DESCENDANT)
    while True:
        tok, after = toks[i], toks[i + 1]
        if (names[i] or tok == "*") and after != "::" and after != "(" and after != "[":
            # a plain child step, the common case
            steps.append(FullStep("child", WILDCARD if tok == "*" else TagTest(tok)))
            i += 1
        else:
            t.i = i
            steps.append(_parse_step(t))
            i = t.i
        if toks[i] == "/":
            i += 1
        elif toks[i] == "//":
            i += 1
            steps.append(_ANY_DESCENDANT)
        else:
            t.i = i
            return PathExpr(absolute, tuple(steps))


def _parse_step(t: _Tokens) -> FullStep:
    tok = t.toks[t.i]
    if tok == ".":
        t.i += 1
        return FullStep("self", NODE_ANY, _parse_predicates(t))
    if tok == "..":
        t.i += 1
        return FullStep("parent", NODE_ANY, _parse_predicates(t))
    axis = "child"
    if tok == "@":
        t.i += 1
        axis = "attribute"
    elif t.names[t.i] and t.toks[t.i + 1] == "::":
        axis = tok
        if axis not in FULL_AXES:
            raise t.error(f"unknown axis {axis!r}", t.i)
        if axis == "namespace":
            raise t.error("unsupported: namespace axis", t.i)
        t.i += 2
    test = _parse_node_test(t)
    return FullStep(axis, test, _parse_predicates(t))


def _parse_node_test(t: _Tokens) -> NodeTest:
    i = t.i
    tok = t.toks[i]
    if tok is None:
        raise t.error("unexpected end of query", i)
    t.i = i + 1
    if tok == "*":
        return WILDCARD
    if not t.names[i]:
        raise t.error(f"expected a node test, got {tok!r}", i)
    if tok in _NODE_TYPE_TESTS and t.toks[t.i] == "(":
        t.i += 1
        t.expect(")")
        if tok == "text":
            return TEXT_TEST
        if tok == "node":
            return NODE_ANY
        raise t.error(f"unsupported: {tok}() node test", i)
    return TagTest(tok)


def _parse_predicates(t: _Tokens) -> tuple[Expr, ...]:
    preds: list[Expr] = []
    while t.toks[t.i] == "[":
        t.open()
        preds.append(_parse_or(t))
        t.close("]")
    return tuple(preds)


def _parse_or(t: _Tokens) -> Expr:
    out = _parse_and(t)
    while t.toks[t.i] == "or":
        t.i += 1
        out = BinaryOp("or", out, _parse_and(t))
    return out


def _parse_and(t: _Tokens) -> Expr:
    out = _parse_comparison(t)
    while t.toks[t.i] == "and":
        t.i += 1
        out = BinaryOp("and", out, _parse_comparison(t))
    return out


def _parse_comparison(t: _Tokens) -> Expr:
    out = _parse_value(t)
    while (op := t.toks[t.i]) in _COMPARISONS:
        t.i += 1
        out = BinaryOp(op, out, _parse_value(t))
    return out


def _parse_value(t: _Tokens) -> Expr:
    i = t.i
    tok = t.toks[i]
    if t.names[i]:
        if t.toks[i + 1] != "(" or tok in _NODE_TYPE_TESTS or ":" in tok:
            return _parse_path(t)
        t.i = i + 1
        t.open()
        args: list[Expr] = []
        if t.toks[t.i] != ")":
            args.append(_parse_or(t))
            while t.toks[t.i] == ",":
                t.i += 1
                args.append(_parse_or(t))
        t.close(")")
        return FunctionCall(tok, tuple(args))
    if tok is None:
        raise t.error("unexpected end of predicate", i)
    if tok[0] in "'\"":
        t.i = i + 1
        return StringLiteral(tok[1:-1])
    if tok[0].isdigit() or (tok[0] == "." and len(tok) > 1 and tok[1].isdigit()):
        t.i = i + 1
        return NumberLiteral(float(tok))
    if tok == "(":
        t.open()
        inner = _parse_or(t)
        t.close(")")
        return inner
    if tok in ("+", "-", ","):
        raise t.error(f"unsupported: arithmetic operator {tok!r}", i)
    if tok in _STEP_STARTS or tok == "/" or tok == "//":
        return _parse_path(t)
    raise t.error(f"unsupported token {tok!r} in predicate", i)


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
    paths = list(q.branches)
    # approximating a path appends the absolute paths inside its predicates
    # to `paths`; the loop reaches them in turn as further branches
    branches = [_approx_steps(path.steps, paths) for path in paths]
    if len(branches) > 1:
        branches = list(dict.fromkeys(branches))
    return QueryEll(tuple(branches))


def _approx_steps(steps: tuple[FullStep, ...], sink: list[PathExpr]) -> tuple[StepEll, ...]:
    out: list[StepEll] = []
    for i, step in enumerate(steps):
        axis = ELL_AXES.get(step.axis)
        if axis is not None and not step.predicates:
            out.append(StepEll(axis, step.test))
            continue
        pred = _approx_predicates(step.predicates, sink)
        if axis is not None:
            out.append(StepEll(axis, step.test, pred))
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
