"""Schema-driven XML document projection.

Given a DTD (imported as a regular tree grammar) and XPath queries, infer
a *projector* — the subset of grammar rules the queries can observe — and
prune documents in one streaming pass, guaranteed not to change any query
answer.

Typical use::

    from xmlprojector import parse_dtd, parse_query, approximate_to_ell
    from xmlprojector import infer_projector, prune_file

    grammar = parse_dtd(open("schema.dtd").read())
    query = approximate_to_ell(parse_query("/site/people/person/name"))
    projector = infer_projector([query], grammar)
    with open("doc.xml", "rb") as src, open("pruned.xml", "w") as out:
        prune_file(src, projector, out.write)
"""

__version__ = "0.1.0"

from .doc import (
    Document,
    Element,
    TextNode,
    XmlSyntaxError,
    parse_xml,
    serialize,
)
from .dtd import DtdError, parse_dtd
from .grammar import (
    Alt,
    Atom,
    ContentAutomaton,
    ContentRegex,
    Empty,
    Epsilon,
    Grammar,
    GrammarError,
    GrammarFormatError,
    Interpretation,
    Invalid,
    Label,
    Opt,
    Plus,
    Rule,
    Seq,
    Star,
    any_grammar,
    compile_content_model,
    grammar_to_text,
    is_streamable,
    parse_grammar_text,
    reachable_rules,
    validate_tree,
)
from .inference import (
    Projector,
    empty_projector,
    identity_projector,
    infer_projector,
    infer_types,
    parse_projector_text,
    projector_to_text,
    step_transition,
)
from .pruner import (
    InvalidDocumentError,
    NotStreamableError,
    PruneStats,
    UnresolvableTagError,
    prune_file,
    prune_tree,
)
from .xpath import (
    Axis,
    FullQuery,
    NodeAny,
    PathExists,
    PredAnd,
    PredOr,
    QueryEll,
    QuerySyntaxError,
    StepEll,
    TagTest,
    TextTest,
    Wildcard,
    approximate_to_ell,
    ell_to_text,
    parse_query,
)

# The oracle (document generation, the reference XPath evaluator and the
# soundness checks) is imported on first use of one of its names, so that
# `prune` and `infer` do not load it.
_ORACLE_EXPORTS = frozenset({
    "GenConfig",
    "MinimalityReport",
    "OracleError",
    "SoundnessReport",
    "check_soundness",
    "enumerate_documents",
    "eval_full",
    "generate_document",
    "minimality_check",
})


def __getattr__(name: str):
    if name in _ORACLE_EXPORTS:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
