"""Walk through the core pipeline on a small schema.

A DTD becomes a regular tree grammar; an XPath query becomes a projector
(a subset of the grammar's rules); the projector prunes a document in one
streaming pass without changing the query's answer.
"""

from xmlprojector import (
    PruneStats,
    approximate_to_ell,
    ell_to_text,
    grammar_to_text,
    infer_projector,
    parse_dtd,
    parse_query,
    parse_xml,
    projector_to_text,
    prune_file,
    prune_tree,
    serialize,
)

DTD = """
<!ELEMENT doc (a*)>
<!ELEMENT a (b, c?)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
"""

DOCUMENT = "<doc><a><b>x</b><c>y</c></a><a><b>z</b></a></doc>"

grammar = parse_dtd(DTD)
print("The DTD imports as this grammar:\n")
print(grammar_to_text(grammar))

query = approximate_to_ell(parse_query("/doc/a/b"))
print("Query /doc/a/b in canonical form:", ell_to_text(query))

projector = infer_projector([query], grammar)
print("\nInferred projector (+ kept, - dropped):\n")
print(projector_to_text(projector))

stats = PruneStats()
chunks: list[str] = []
prune_file(DOCUMENT, projector, chunks.append, stats=stats)
pruned = "".join(chunks)
print("Original:", DOCUMENT)
print("Pruned:  ", pruned)
print("Stats:   ", stats.line())

# The in-memory pruner exists for grammars where tags alone cannot decide
# which rule applies; on DTD-derived grammars both produce identical bytes.
assert serialize(prune_tree(parse_xml(DOCUMENT), projector)) == pruned
print("\nStreaming and in-memory pruning agree byte for byte.")
