"""Benchmark of xmlprojector: streaming pruning, static inference and
in-memory pruning.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the program from ./src,
builds its inputs from the seed under ./.perfbench_out, and prints one JSON
line with the end-to-end metrics (``--trace 0``) or the per-layer metrics
of a traced run (``--trace 1``).  It exits 1 when a correctness gate fails
and 2 when the program cannot be found.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
import xml.parsers.expat
from dataclasses import dataclass, field

import calibrate
import corpus
import gates
from spans import TimedWriter, Tracer

perf_counter = time.perf_counter

WORKLOADS = ("deep-select", "xmark-batch", "wide-dtd-infer", "tree-prune")
OPS = ("stream", "tree", "infer")
KINDS = ("setup",) + OPS
# Shares of --seconds: set-up, the workload's primary operation and the
# calibration probe; the other two operations split the rest.
SETUP_SHARE = 0.05
PRIMARY_SHARE = 0.6
CALIBRATION_SHARE = 0.1
CALIBRATION_WINDOW_S = 1.0  # probes this close to a sample set its slowdown
# Whole cycles over the inputs a kind completes at least, so that every
# input has a median of several repetitions.
MIN_CYCLES = {"setup": 11, "stream": 3, "tree": 3, "infer": 3, "calibration": 200}
INFER_QUERIES_PER_SCHEMA = 20  # 100 queries on wide-dtd-infer: ten beyond p90
GATE_DOC_BYTES = 40_000  # oracle checks run on documents up to this size
STATS_RE = re.compile(
    r"elements_in=(\d+) elements_out=(\d+) text_bytes_in=(\d+) text_bytes_out=(\d+)"
)
KEPT_RE = re.compile(r"kept (\d+) of (\d+) rules \((\d+) dropped\)")


def load_program(root: str) -> types.SimpleNamespace:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xmlprojector", "cli.py")):
        print(f"perfbench: no src/xmlprojector under {root}; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    from xmlprojector import cli, doc, dtd, grammar, inference, oracle, pruner, xpath

    return types.SimpleNamespace(cli=cli, doc=doc, dtd=dtd, grammar=grammar,
                                 inference=inference, oracle=oracle, pruner=pruner, xpath=xpath)


# ---------------------------------------------------------------------------
# Inputs


@dataclass
class Case:
    """One DTD with the queries its projector covers."""

    dtd: str
    queries: list[str]
    dtd_path: str = ""
    projector_path: str = ""
    grammar: object = None
    projector: object = None
    kept: int = 0
    dropped: int = 0


@dataclass
class Doc:
    case: Case
    path: str
    data: bytes


@dataclass
class Workload:
    primary: str
    setup: str  # "cli-infer", "parse-dtd" or "parse-dtd+infer"
    cases: list[Case]
    stream_docs: list[Doc]
    tree_docs: list[Doc]
    infer_items: list[tuple[Case, str]]
    soundness_pairs: list[tuple[Case, str]] = field(default_factory=list)
    invalid_doc: bytes | None = None


def build_workload(name: str, seed: int, scale: float, workdir: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    docs: list[Doc] = []

    def add_doc(case: Case, text: str) -> Doc:
        path = os.path.join(workdir, f"doc{len(docs)}.xml")
        data = text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        docs.append(Doc(case, path, data))
        return docs[-1]

    def sizes(smallest, largest, count):
        return corpus.size_schedule(max(200, int(smallest * scale)), max(400, int(largest * scale)), count)

    if name in ("deep-select", "xmark-batch"):
        deep = name == "deep-select"
        case = Case(corpus.DEEP_DTD if deep else corpus.XMARK_DTD,
                    list(corpus.DEEP_QUERIES if deep else corpus.XMARK_QUERIES))
        make = corpus.deep_doc if deep else corpus.xmark_doc
        stream = [add_doc(case, make(rng, size)) for size in sizes(16_000, 1_600_000, 8)]
        # the two smallest documents also go through the in-memory path
        return Workload("stream", "cli-infer", [case], stream, stream[:2],
                        [(case, q) for q in case.queries])
    if name == "tree-prune":
        case = Case(corpus.XMARK_DTD, list(corpus.XMARK_QUERIES))
        tree = [add_doc(case, corpus.xmark_doc(rng, size)) for size in sizes(100_000, 250_000, 3)]
        valid = tree[0].data.decode("utf-8")
        # an item without its required quantity: a negative control
        invalid = re.sub(r"<quantity>[^<]*</quantity>", "", valid, count=1).encode("utf-8")
        return Workload("tree", "parse-dtd+infer", [case], tree, tree,
                        [(case, q) for q in case.queries], invalid_doc=invalid)
    if name == "wide-dtd-infer":
        # The schemas, the queries behind each schema's projector and the
        # inferred queries are the same for every seed; the seed draws the
        # documents and the queries checked for soundness.  Query costs on
        # one schema span three orders of magnitude, so a query set drawn
        # per seed moved p90 by a third between seeds: it measured the draw,
        # not the program.
        fixed, fixed_queries = random.Random(name), random.Random(f"{name}:queries")
        cases, items, pairs = [], [], []
        for _ in range(5):
            schema = corpus.WideSchema(fixed, int(200 * max(scale, 0.2)))
            case = Case(schema.dtd(), schema.queries(fixed, 3))
            cases.append(case)
            add_doc(case, schema.document(rng, int(6_000 * max(scale, 0.2))))
            add_doc(case, schema.document(rng, int(150_000 * max(scale, 0.02))))
            items.extend((case, q) for q in schema.queries(fixed_queries, INFER_QUERIES_PER_SCHEMA))
            pairs.append((case, rng.choice(schema.queries(rng, len(corpus.QUERY_PLAN)))))
        # Validating documents of these grammars is slow, and its speed did
        # not follow the calibration probe: over ten seeds tree_mb_s spread
        # by a quarter of its median.  The workload is about inference, so
        # its in-memory operation runs two small XMark-style documents,
        # which also stream, as on the stream workloads.
        xmark = Case(corpus.XMARK_DTD, list(corpus.XMARK_QUERIES))
        cases.append(xmark)
        tree = [add_doc(xmark, corpus.xmark_doc(rng, size)) for size in sizes(16_000, 29_000, 2)]
        return Workload("infer", "parse-dtd", cases, list(docs), tree, items, pairs)
    raise SystemExit(f"perfbench: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Operations


class Runner:
    """Runs the operations of one workload and keeps what the gates need."""

    def __init__(self, P, wl: Workload, workdir: str):
        self.P = P
        self.wl = wl
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "out.xml")
        # successful and failed repetitions of each operation, by kind and index
        self.ok = {kind: [0] * self.size(kind) for kind in KINDS}
        self.bad = {kind: [0] * self.size(kind) for kind in KINDS}
        self.errors: list[str] = []
        self.stream_out: dict[int, str] = {}
        self.stream_stats: dict[int, dict[str, int]] = {}
        self.stream_digests: dict[int, set[str]] = {i: set() for i in range(len(wl.stream_docs))}
        self.tree_out: dict[int, str] = {}
        self.tree_digests: dict[int, set[str]] = {i: set() for i in range(len(wl.tree_docs))}
        self.kept_digests: dict[int, set[str]] = {i: set() for i in range(len(wl.infer_items))}

    @property
    def attempted(self) -> int:
        return sum(map(sum, self.ok.values())) + self.failed

    @property
    def failed(self) -> int:
        return sum(map(sum, self.bad.values()))

    def ok_frac(self) -> float:
        """Share of successful operations in the kind that fails most, so
        that thousands of cheap operations cannot hide a failing kind."""
        shares = [sum(self.ok[k]) / (sum(self.ok[k]) + sum(self.bad[k]))
                  for k in KINDS if sum(self.ok[k]) + sum(self.bad[k])]
        return min(shares, default=0.0)

    # -- files and objects the operations need, prepared once, untimed

    def prepare(self) -> None:
        """Write DTD files and projector files; build grammars and projectors."""
        for i, case in enumerate(self.wl.cases):
            case.dtd_path = os.path.join(self.workdir, f"schema{i}.dtd")
            case.projector_path = os.path.join(self.workdir, f"schema{i}.projector")
            with open(case.dtd_path, "w", encoding="utf-8") as fh:
                fh.write(case.dtd)
            self._cli_infer(case)
            case.grammar = self.P.dtd.parse_dtd(case.dtd)
            with open(case.projector_path, encoding="utf-8") as fh:
                case.projector = self.P.inference.parse_projector_text(fh.read())

    def _cli_infer(self, case: Case) -> None:
        argv = ["infer", "--dtd", case.dtd_path, "-o", case.projector_path]
        for q in case.queries:
            argv += ["--query", q]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.P.cli.main(argv)
        found = KEPT_RE.search(err.getvalue())
        if code != 0 or not found:
            raise RuntimeError(f"infer exited {code}: {err.getvalue().strip()}")
        case.kept, case.dropped = int(found.group(1)), int(found.group(3))

    def size(self, kind: str) -> int:
        """Operations in one cycle of a kind."""
        wl = self.wl
        return {"setup": 1, "stream": len(wl.stream_docs), "tree": len(wl.tree_docs),
                "infer": len(wl.infer_items)}[kind]

    def op(self, kind: str, i: int, tracer: Tracer | None = None):
        """Run operation i of a kind; its sample, or None if it failed.

        Samples: setup and infer give seconds, tree gives (seconds, bytes
        in), stream gives (seconds, bytes in, bytes out).
        """
        try:
            if kind == "setup":
                sample = self._setup()
            elif kind == "stream":
                sample = self._stream_one(i, tracer)
            elif kind == "tree":
                sample = self._tree_one(i)
            else:
                sample = self._infer_one(i)
        except (Exception, SystemExit) as exc:  # counted, never fatal
            self.bad[kind][i] += 1
            if len(self.errors) < 5:
                self.errors.append(f"{self.label(kind, i)}: {type(exc).__name__}: {exc}")
            return None
        self.ok[kind][i] += 1
        return sample

    def label(self, kind: str, i: int) -> str:
        if kind == "setup":
            return "set-up"
        if kind == "infer":
            return f"inference of {self.wl.infer_items[i][1]!r}"
        return f"{kind} doc{i}"

    def _setup(self) -> float:
        """What a user pays before the first operation."""
        t0 = perf_counter()
        for case in self.wl.cases:
            if self.wl.setup == "cli-infer":
                self._cli_infer(case)
                continue
            grammar = self.P.dtd.parse_dtd(case.dtd)
            if self.wl.setup == "parse-dtd+infer":
                ells = [self.P.xpath.approximate_to_ell(self.P.xpath.parse_query(q))
                        for q in case.queries]
                case.projector = self.P.inference.infer_projector(ells, grammar)
            case.grammar = grammar
        return perf_counter() - t0

    def _stream_one(self, i: int, tracer: Tracer | None) -> tuple[float, int, int]:
        """The CLI prune command, in process, writing to a benchmark-owned stream."""
        d = self.wl.stream_docs[i]
        argv = ["prune", "--projector", d.case.projector_path, "-i", d.path, "-o", "-", "--stats"]
        err = io.StringIO()
        out = open(self.out_path, "w", encoding="utf-8")
        sink = TimedWriter(out, tracer) if tracer else out
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                code = self.P.cli.main(argv)
        finally:
            out.close()
        seconds = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"prune exited {code}: {err.getvalue().strip()}")
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        self.stream_digests[i].add(hashlib.sha1(data).hexdigest())
        if i not in self.stream_out:
            found = STATS_RE.search(err.getvalue())
            if not found:
                raise RuntimeError("prune printed no --stats line")
            keys = ("elements_in", "elements_out", "text_bytes_in", "text_bytes_out")
            self.stream_stats[i] = dict(zip(keys, map(int, found.groups())))
            self.stream_out[i] = data.decode("utf-8")
        return seconds, len(d.data), len(data)

    def _tree_one(self, i: int) -> tuple[float, int]:
        """In memory: parse_xml -> prune_tree (validates first) -> serialize."""
        P, d = self.P, self.wl.tree_docs[i]
        t0 = perf_counter()
        text = P.doc.serialize(P.pruner.prune_tree(P.doc.parse_xml(d.data), d.case.projector))
        seconds = perf_counter() - t0
        self.tree_digests[i].add(hashlib.sha1(text.encode("utf-8")).hexdigest())
        self.tree_out.setdefault(i, text)
        return seconds, len(d.data)

    def _infer_one(self, i: int) -> float:
        """Static inference of one query against the held grammar."""
        P = self.P
        case, q = self.wl.infer_items[i]
        t0 = perf_counter()
        projector = P.inference.infer_projector(
            [P.xpath.approximate_to_ell(P.xpath.parse_query(q))], case.grammar
        )
        seconds = perf_counter() - t0
        kept = "\n".join(sorted(map(repr, projector.kept)))
        self.kept_digests[i].add(hashlib.sha1(kept.encode("utf-8")).hexdigest())
        return seconds

    # -- correctness

    def check(self, seed: int) -> list[str]:
        P, wl, failures = self.P, self.wl, []
        # An operation that failed leaves no output for the gates below to
        # check, and no sample in the metrics: that is a failure by itself.
        for kind in KINDS:
            for i, (ok, bad) in enumerate(zip(self.ok[kind], self.bad[kind])):
                failures += gates.all_succeeded(self.label(kind, i), ok, bad)
        for i, d in enumerate(wl.stream_docs):
            label = f"stream doc{i}"
            failures += gates.same_digest(label, self.stream_digests[i])
            if i in self.stream_out:
                failures += gates.stats_match(label, self.stream_stats[i], self.stream_out[i])
        by_path = {d.path: i for i, d in enumerate(wl.stream_docs)}
        for j, d in enumerate(wl.tree_docs):
            label = f"tree doc{j}"
            failures += gates.same_digest(label, self.tree_digests[j])
            i = by_path.get(d.path)
            if i in self.stream_out and j in self.tree_out:
                failures += gates.same_output(label, self.stream_out[i], self.tree_out[j])
                if len(d.data) <= GATE_DOC_BYTES:
                    failures += gates.answers_preserved(
                        P, label, d.case.queries, d.data.decode("utf-8"), self.stream_out[i])
        for i, (_, q) in enumerate(wl.infer_items):
            failures += gates.same_digest(f"kept rules of {q!r}", self.kept_digests[i])
        for n, (case, q) in enumerate(wl.soundness_pairs):
            cfg = P.oracle.GenConfig(seed=seed * 100 + n, max_depth=8, max_star_repeat=2)
            report = P.oracle.check_soundness(case.grammar, [q], 3, cfg)
            if not report.passed:
                failures.append(f"soundness of {q!r}: " + "; ".join(report.lines()))
        if wl.invalid_doc is not None:
            projector = wl.cases[0].projector
            try:
                P.pruner.prune_tree(P.doc.parse_xml(wl.invalid_doc), projector)
                failures.append("negative control: prune_tree accepted an invalid document")
            except P.pruner.InvalidDocumentError:
                pass
        return failures


# ---------------------------------------------------------------------------
# Measurement


def measure(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, tracing off.

    Operations of all kinds interleave, each kind taking its share of the
    time, so that every metric samples the whole run.  A kind stops after
    the deadline once it has completed its minimum number of whole cycles
    over its inputs.

    The calibration probe (calibrate.py) takes a share of the time too.
    Each sample is divided by the machine's slowdown at the time: the
    median of the probes within CALIBRATION_WINDOW_S of the sample, over
    the probe's reference time.  Times then read as on the reference
    machine at its usual speed.  Each input is timed by the median of its
    scaled repetitions.
    """
    wl = runner.wl
    rest = 1 - SETUP_SHARE - PRIMARY_SHARE - CALIBRATION_SHARE
    shares = {kind: rest / 2 for kind in OPS}
    shares.update({"setup": SETUP_SHARE, wl.primary: PRIMARY_SHARE,
                   "calibration": CALIBRATION_SHARE})
    used = dict.fromkeys(shares, 0.0)
    # per input, its successful samples as (start, seconds, *rest)
    samples = {kind: [[] for _ in range(runner.size(kind))] for kind in KINDS}
    probe_start: list[float] = []
    probe_seconds: list[float] = []
    cycles = dict.fromkeys(shares, 0)  # whole cycles completed
    position = dict.fromkeys(shares, 0)  # next input of the open cycle

    deadline = perf_counter() + seconds
    while True:
        late = perf_counter() >= deadline
        pending = [kind for kind in shares if not (late and cycles[kind] >= MIN_CYCLES[kind])]
        if not pending:
            break
        kind = min(pending, key=lambda k: used[k] / shares[k])
        i = position[kind]
        t0 = perf_counter()
        if kind == "calibration":
            calibrate.probe()  # untimed: the timed probe then finds its data cached
            t1 = perf_counter()
            calibrate.probe()
            probe_start.append(t1)
            probe_seconds.append(perf_counter() - t1)
        else:
            sample = runner.op(kind, i)
            if sample is not None:
                samples[kind][i].append((t0,) + (sample if isinstance(sample, tuple) else (sample,)))
        used[kind] += perf_counter() - t0
        if kind in ("stream", "tree"):
            # free the last document's cyclic garbage now, so that the peak
            # RSS is that of one operation and not of when the collector ran
            gc.collect()
        position[kind] = 0 if kind == "calibration" else (i + 1) % runner.size(kind)
        cycles[kind] += position[kind] == 0

    def slowdown(start: float, seconds: float) -> float:
        lo = bisect.bisect_left(probe_start, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(probe_start, start + seconds + CALIBRATION_WINDOW_S)
        return statistics.median(probe_seconds[lo:hi] or probe_seconds) / calibrate.REFERENCE_S

    print(f"perfbench: median probe {statistics.median(probe_seconds) * 1e3:.4f} ms, "
          f"reference {calibrate.REFERENCE_S * 1e3:.4f} ms", file=sys.stderr)

    def typical(kind):
        """Per input that succeeded: the median of its scaled seconds,
        followed by the rest of its first sample (bytes in, bytes out)."""
        return [(statistics.median(r[1] / slowdown(r[0], r[1]) for r in reps),) + reps[0][2:]
                for reps in samples[kind] if reps]

    setup, stream, tree = typical("setup"), typical("stream"), typical("tree")
    infer_ms = [s[0] * 1000 for s in typical("infer")]
    return {
        "setup_s": (setup[0][0] if setup else 0.0, "s"),
        "stream_mb_s": (sum(s[1] for s in stream) / sum(s[0] for s in stream) / 1e6 if stream else 0.0, "MB/s"),
        "out_ratio": (sum(s[2] for s in stream) / sum(s[1] for s in stream) if stream else 0.0, "ratio"),
        "infer_ms_p50": (quantile(infer_ms, 0.5) if infer_ms else 0.0, "ms"),
        "infer_ms_p90": (quantile(infer_ms, 0.9) if infer_ms else 0.0, "ms"),
        "tree_mb_s": (sum(s[1] for s in tree) / sum(s[0] for s in tree) / 1e6 if tree else 0.0, "MB/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (runner.ok_frac(), "ratio"),
    }


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a beta density centred on rank q.  Interpolating
    between the two nearest order statistics let one query's noise move
    p50 by a tenth when neighbouring query costs had a gap between them;
    the weighted mean spreads it over the neighbours (half the spread on
    simulated query sets).  Defined for one value."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 64  # midpoint rule within each order statistic's share of [0, 1]
    weights = [
        sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
            for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def expat_passes(docs: list[Doc]) -> tuple[float, float]:
    """Seconds for raw expat over the documents: no handlers, then no-op
    Python handlers configured as the program configures its parser."""

    def noop(*_):
        pass

    t0 = perf_counter()
    for d in docs:
        xml.parsers.expat.ParserCreate().Parse(d.data, True)
    floor = perf_counter() - t0
    t0 = perf_counter()
    for d in docs:
        parser = xml.parsers.expat.ParserCreate()
        parser.buffer_text = True
        parser.ordered_attributes = True
        parser.StartElementHandler = parser.EndElementHandler = noop
        parser.CharacterDataHandler = parser.CommentHandler = noop
        parser.ProcessingInstructionHandler = noop
        parser.Parse(d.data, True)
    return floor, perf_counter() - t0


def install(tracer: Tracer, P) -> None:
    """Wrap each layer's public functions as their callers see them."""
    cli = P.cli
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "iter_events", "doc.iter_events", generator=True)
    tracer.wrap(cli, "prune_stream", "pruner.prune_stream", generator=True)
    tracer.wrap(cli, "serialize_event", "doc.serialize_event")
    tracer.wrap(cli, "parse_projector_text", "inference.parse_projector_text")
    for module in (cli, P.pruner):
        tracer.wrap(module, "is_streamable", "grammar.is_streamable")
    for module in (cli, P.dtd):
        tracer.wrap(module, "parse_dtd", "dtd.parse_dtd", count=lambda g: len(g.rules))
    for module in (cli, P.inference):
        tracer.wrap(module, "infer_projector", "inference.infer_projector")
    for module in (cli, P.xpath):
        tracer.wrap(module, "parse_query", "xpath.parse_query")
        tracer.wrap(module, "approximate_to_ell", "xpath.approximate_to_ell")
    tracer.wrap(P.doc, "parse_xml", "doc.parse_xml")
    tracer.wrap(P.doc, "serialize", "doc.serialize")
    tracer.wrap(P.pruner, "prune_tree", "pruner.prune_tree")
    tracer.wrap(P.pruner, "validate_tree", "grammar.validate_tree",
                count=lambda r: len(r) if isinstance(r, dict) else 0)


def measure_traced(runner: Runner, seconds: float) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics: rounds of (setup, one pass of each operation)
    alternate untraced and traced until the time is used."""
    P, wl = runner.P, runner.wl
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    stream_plain: list[float] = []
    floors: list[tuple[float, float]] = []

    def one_round(t: Tracer | None) -> float:
        t0 = perf_counter()
        stream_seconds = 0.0
        for kind in KINDS:
            for i in range(runner.size(kind)):
                sample = runner.op(kind, i, t)
                if kind == "stream" and sample is not None:
                    stream_seconds += sample[0]
        if t is None:
            stream_plain.append(stream_seconds)
        return perf_counter() - t0

    deadline = perf_counter() + seconds
    while not traced or perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(one_round(None))
        floors.append(expat_passes(wl.stream_docs))
        install(tracer, P)
        try:
            traced.append(one_round(tracer))
        finally:
            tracer.restore()

    rounds = len(traced)
    layers = tracer.summary()

    def total(layer, key="total_s"):
        return layers.get(layer, {}).get(key, 0) / rounds

    floor = statistics.median(f for f, _ in floors)

    def stat(key):
        return sum(s[key] for s in runner.stream_stats.values())

    metrics = {
        "doc.expat_floor_s": (floor, "s"),
        "doc.expat_noop_s": (statistics.median(n for _, n in floors), "s"),
        "doc.iter_events_s": (total("doc.iter_events"), "s"),
        "doc.events": (total("doc.iter_events", "calls"), "count"),
        "stream.floor_ratio": (statistics.median(stream_plain) / floor if floor else 0.0, "ratio"),
        "doc.serialize_event_s": (total("doc.serialize_event"), "s"),
        "doc.serialize_event_calls": (total("doc.serialize_event", "calls"), "count"),
        "doc.parse_xml_s": (total("doc.parse_xml"), "s"),
        "doc.serialize_s": (total("doc.serialize"), "s"),
        "pruner.prune_stream_self_s": (total("pruner.prune_stream", "self_s"), "s"),
        "pruner.elements_in": (stat("elements_in"), "count"),
        "pruner.elements_out": (stat("elements_out"), "count"),
        "pruner.text_bytes_in": (stat("text_bytes_in"), "bytes"),
        "pruner.text_bytes_out": (stat("text_bytes_out"), "bytes"),
        "pruner.prune_tree_self_s": (total("pruner.prune_tree", "self_s"), "s"),
        "grammar.validate_tree_s": (total("grammar.validate_tree"), "s"),
        "grammar.validate_tree_nodes": (total("grammar.validate_tree", "count"), "count"),
        "grammar.is_streamable_s": (total("grammar.is_streamable"), "s"),
        "inference.infer_projector_s": (total("inference.infer_projector"), "s"),
        "inference.kept_rules": (sum(c.kept for c in wl.cases), "count"),
        "inference.dropped_rules": (sum(c.dropped for c in wl.cases), "count"),
        "inference.parse_projector_text_s": (total("inference.parse_projector_text"), "s"),
        "xpath.parse_query_s": (total("xpath.parse_query"), "s"),
        "xpath.approximate_to_ell_s": (total("xpath.approximate_to_ell"), "s"),
        "dtd.parse_dtd_s": (total("dtd.parse_dtd"), "s"),
        "dtd.rules": (total("dtd.parse_dtd", "count"), "count"),
        "cli.main_self_s": (total("cli.main", "self_s"), "s"),
        "cli.write_s": (total("cli.write"), "s"),
        "cli.write_bytes": (total("cli.write", "count"), "bytes"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(plain) - 1, "ratio"),
    }
    detail = {"rounds": rounds, "absent": tracer.absent, "spans": len(tracer.span_start),
              "layers": layers}
    return metrics, detail


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        scale: float = 1.0) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and gate failures.
    ``scale`` shrinks the inputs for the self-check."""
    P = load_program(root)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        wl = build_workload(workload, seed, scale, workdir)
        runner = Runner(P, wl, workdir)
        runner.prepare()
        if trace:
            metrics, detail = measure_traced(runner, seconds)
            if detail["absent"]:
                print("perfbench: absent layers: " + ", ".join(detail["absent"]), file=sys.stderr)
            with open(os.path.join(out_dir, f"trace-{workload}-{seed}.json"), "w") as fh:
                json.dump(detail, fh, indent=1, sort_keys=True)
        else:
            metrics = measure(runner, seconds)
        failures = runner.check(seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in runner.errors:
        print(f"perfbench: failed operation: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, failures = run(args.workload, args.seed, args.seconds, bool(args.trace), os.getcwd())
    for message in failures:
        print(f"perfbench: gate failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
