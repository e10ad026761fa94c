"""A fixed probe of how fast this machine runs Python right now.

On a shared host the interpreter runs up to a third slower for seconds to
minutes at a time.  CPU time slows down with wall time (the process is not
descheduled; the cores it runs on are slower), and so does the fastest of
several repetitions, so neither hides it.  The probe does a fixed amount
of the kinds of work the program does: dictionary and string work in the
interpreter, expat callbacks into Python, and building and walking a tree
of small objects.  Its speed moves with the program's (correlation 0.7 to
0.9 over 8-second windows).  run.py divides each timed sample by the
probe's slowdown within a second of it; across runs with different seeds
that cut the spread of the timed metrics from 0.1 to 0.5 of their median
to under 0.1.  The probe is the benchmark's own code, so a change to the
program does not move it; each timed probe follows an untimed one, so it
does not pay for the caches the last operation left cold.
"""

from __future__ import annotations

import random
import xml.parsers.expat

import corpus

# Median seconds of one probe on the reference machine (README.md).
REFERENCE_S = 0.0020

_DOCUMENT = corpus.xmark_doc(random.Random("calibration"), 20_000).encode("utf-8")


class _Node:
    __slots__ = ("tag", "children")

    def __init__(self, tag: str):
        self.tag = tag
        self.children: list[_Node] = []


def probe() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    counts: dict[int, int] = {}
    length = 0
    for i in range(2_000):
        key = i % 512
        counts[key] = counts.get(key, 0) + i
        length += len(str(key))

    stack = [_Node("root")]
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True

    def start(tag, _attrs):
        node = _Node(tag)
        stack[-1].children.append(node)
        stack.append(node)

    def end(_tag):
        stack.pop()

    def text(data):
        counts[len(data) % 512] = counts.get(len(data) % 512, 0) + 1

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    parser.Parse(_DOCUMENT, True)

    todo, tags = [stack[0]], 0
    while todo:
        node = todo.pop()
        tags += len(node.tag)
        todo.extend(node.children)
    return length + tags + len(counts)
