import gc
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from xmlprojector.cli import main

from xmlprojector import (
    GrammarError,
    GrammarFormatError,
    parse_grammar_text,
    parse_projector_text,
    parse_xml,
    projector_to_text,
    prune_tree,
    serialize,
)
from xmlprojector.doc import subtree_text

from xmlprojector.xpath import MAX_QUERY_NESTING

from conftest import D0_XML, G0_DTD, RECURSIVE_DTD


@pytest.fixture()
def g0_dtd(tmp_path):
    path = tmp_path / "g0.dtd"
    path.write_text(G0_DTD)
    return str(path)


@pytest.fixture()
def d0_xml(tmp_path):
    path = tmp_path / "d0.xml"
    path.write_text(D0_XML)
    return str(path)


def run(argv, stdin: str | None = None):
    old_in = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    try:
        return main(argv)
    finally:
        sys.stdin = old_in


def test_infer_writes_projector_file(g0_dtd, tmp_path, capsys):
    out = tmp_path / "p.proj"
    assert run(["infer", "--dtd", g0_dtd, "--query", "/doc/a/b", "-o", str(out)]) == 0
    text = out.read_text()
    for line in (
        "start: Doc",
        "+ A -> a [ B C? ]",
        "+ B -> b [ TB* ]",
        "+ Doc -> doc [ A* ]",
        "+ TB -> String",
        "- C -> c [ TC* ]",
        "- TC -> String",
    ):
        assert line in text
    assert "kept 4 of 6" in capsys.readouterr().err


def test_prune_one_shot(g0_dtd, d0_xml, tmp_path, capsys):
    out = tmp_path / "out.xml"
    code = run(["prune", "--dtd", g0_dtd, "--query", "/doc/a/b", "-i", d0_xml, "-o", str(out)])
    assert code == 0
    assert out.read_text() == "<doc><a><b>x</b></a></doc>"


def test_prune_from_stdin_to_stdout(g0_dtd, capsys):
    assert run(["prune", "--dtd", g0_dtd, "--query", "/doc/a/b"], stdin=D0_XML) == 0
    assert capsys.readouterr().out == "<doc><a><b>x</b></a></doc>"


def test_prune_with_projector_file_equals_one_shot(g0_dtd, d0_xml, tmp_path):
    proj = tmp_path / "p.proj"
    one_shot = tmp_path / "a.xml"
    two_step = tmp_path / "b.xml"
    assert run(["infer", "--dtd", g0_dtd, "--query", "/doc/a/b", "-o", str(proj)]) == 0
    assert run(["prune", "--dtd", g0_dtd, "--query", "/doc/a/b", "-i", d0_xml, "-o", str(one_shot)]) == 0
    assert run(["prune", "--projector", str(proj), "-i", d0_xml, "-o", str(two_step)]) == 0
    assert one_shot.read_bytes() == two_step.read_bytes()


def test_prune_stats_line(g0_dtd, d0_xml, capsys):
    assert run(["prune", "--dtd", g0_dtd, "--query", "/doc/a/b", "-i", d0_xml, "--stats"]) == 0
    err = capsys.readouterr().err
    assert "elements_in=4" in err and "max_depth=3" in err


def test_prune_without_stats_is_silent(tmp_path, capsys):
    dtd = tmp_path / "r.dtd"
    dtd.write_text(RECURSIVE_DTD)
    doc = tmp_path / "d.xml"
    doc.write_text(
        "<doc><section><title>kept</title><para>dropped text</para>"
        "<section><title>t2</title><para>more</para></section></section></doc>"
    )
    argv = ["prune", "--dtd", str(dtd), "--query", "//title", "-i", str(doc)]
    assert run(argv + ["--stats"]) == 0
    with_stats = capsys.readouterr()
    assert "text_bytes_in=22 text_bytes_out=6" in with_stats.err
    assert run(argv) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert plain.out == with_stats.out == (
        "<doc><section><title>kept</title><section><title>t2</title></section></section></doc>"
    )


def test_prune_query_batch_file(g0_dtd, d0_xml, tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("# comment line\n/doc/a/b\n\n//c\n")
    assert run(["prune", "--dtd", g0_dtd, "--queries", str(batch), "-i", d0_xml]) == 0
    assert capsys.readouterr().out == D0_XML


def test_prune_strict_policy_exit_code(g0_dtd, capsys):
    code = run(["prune", "--dtd", g0_dtd, "--query", "/doc/a/b"], stdin="<doc><zz/></doc>")
    assert code == 1
    assert "zz" in capsys.readouterr().err


def test_prune_drop_policy(g0_dtd, capsys):
    code = run(
        ["prune", "--dtd", g0_dtd, "--query", "/doc/a/b", "--policy", "drop"],
        stdin="<doc><zz/><a><b>x</b></a></doc>",
    )
    assert code == 0
    assert capsys.readouterr().out == "<doc><a><b>x</b></a></doc>"


def test_validate_valid_and_invalid(g0_dtd, d0_xml, tmp_path, capsys):
    assert run(["validate", "--dtd", g0_dtd, "-i", d0_xml]) == 0
    assert "valid" in capsys.readouterr().out
    bad = tmp_path / "bad.xml"
    bad.write_text("<doc><a><c>y</c></a></doc>")
    assert run(["validate", "--dtd", g0_dtd, "-i", str(bad)]) == 1
    assert "/doc/a" in capsys.readouterr().out


def test_gen_is_deterministic_and_valid(g0_dtd, tmp_path):
    a, b = tmp_path / "a.xml", tmp_path / "b.xml"
    assert run(["gen", "--dtd", g0_dtd, "--seed", "9", "-o", str(a)]) == 0
    assert run(["gen", "--dtd", g0_dtd, "--seed", "9", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(["validate", "--dtd", g0_dtd, "-i", str(a)]) == 0


def test_check_passes(g0_dtd, tmp_path, capsys):
    code = run(
        ["check", "--dtd", g0_dtd, "--query", "/doc/a/b", "--query", "//c",
         "--n", "25", "--dump-dir", str(tmp_path)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "PASS n=25"


def test_check_query_on_non_finite_numbers(tmp_path, capsys):
    # generated text is never numeric, so string(number(b)) is 'NaN'
    dtd = tmp_path / "nan.dtd"
    dtd.write_text("<!ELEMENT doc (a*)><!ELEMENT a (b)><!ELEMENT b (#PCDATA)>")
    query = "/doc/a[string(number(b)) = 'NaN']"
    assert run(["check", "--dtd", str(dtd), "--query", query, "--n", "10"]) == 0
    assert capsys.readouterr().out.strip() == "PASS n=10"


def test_emit_grammar_round_trips(g0_dtd, capsys):
    assert run(["infer", "--dtd", g0_dtd, "--emit-grammar"]) == 0
    from xmlprojector import parse_dtd, parse_grammar_text

    assert parse_grammar_text(capsys.readouterr().out) == parse_dtd(G0_DTD)


def test_usage_errors_exit_2(g0_dtd, tmp_path, capsys):
    bad_dtd = tmp_path / "bad.dtd"
    bad_dtd.write_text("<!ELEMENT a (undeclared)>")
    assert run(["infer", "--dtd", str(bad_dtd), "--query", "/a"]) == 2
    assert run(["infer", "--dtd", g0_dtd, "--query", "/doc["]) == 2
    assert run(["infer", "--dtd", g0_dtd]) == 2
    assert run(["prune", "--projector", str(tmp_path / "missing.proj")]) == 2


def test_prune_projector_sources_are_usage_errors(g0_dtd, d0_xml, tmp_path, capsys):
    # a projector file excludes a DTD or queries, and prune needs one of them
    proj = tmp_path / "p.proj"
    assert run(["infer", "--dtd", g0_dtd, "--query", "//b", "-o", str(proj)]) == 0
    capsys.readouterr()
    for extra in (["--dtd", g0_dtd], ["--query", "//a"]):
        assert run(["prune", "--projector", str(proj), *extra, "-i", d0_xml]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --projector excludes --dtd/--query/--queries\n"
    assert run(["prune", "-i", d0_xml]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need either --projector or --dtd with queries\n"


def test_element_named_like_the_wildcard_is_a_usage_error(tmp_path, capsys):
    dtd = tmp_path / "wild.dtd"
    dtd.write_text("<!ELEMENT r (_, b)>\n<!ELEMENT _ EMPTY>\n<!ELEMENT b EMPTY>\n")
    assert run(["infer", "--dtd", str(dtd), "--query", "/r/b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: element '_' cannot be imported: grammars write the wildcard label, "
        "which matches every tag, as `_`\n"
    )


def test_grammar_errors_are_usage_errors(g0_dtd, monkeypatch, capsys):
    def bad_import(*args, **kwargs):
        raise GrammarError("illegal element tag '1r'")

    monkeypatch.setattr("xmlprojector.cli.parse_dtd", bad_import)
    assert run(["infer", "--dtd", g0_dtd, "--query", "/doc"]) == 2
    assert capsys.readouterr().err == "error: illegal element tag '1r'\n"


_NON_ASCII_DTD = """\
<!ELEMENT été (titre, (ça | note)*)>
<!ELEMENT titre (#PCDATA)>
<!ELEMENT ça (#PCDATA | note)*>
<!ELEMENT note (#PCDATA)>
"""
_NON_ASCII_XML = "<été><titre>Août</titre><ça>œuf <note>à</note></ça><note>non</note></été>"


def test_non_ascii_names_infer_prune_and_validate(tmp_path, capsys):
    dtd, doc = tmp_path / "u.dtd", tmp_path / "u.xml"
    dtd.write_text(_NON_ASCII_DTD, encoding="utf-8")
    doc.write_bytes(_NON_ASCII_XML.encode("utf-8"))
    proj, out = tmp_path / "p.proj", tmp_path / "out.xml"
    query = ["--dtd", str(dtd), "--query", "//ça/text()"]
    assert run(["infer", *query, "-o", str(proj)]) == 0
    assert capsys.readouterr().err == "kept 3 of 7 rules (4 dropped)\n"
    assert proj.read_text(encoding="utf-8") == (
        "start: Été\n"
        "- Note -> note [ TNote* ]\n"
        "- TNote -> String\n"
        "- TTitre -> String\n"
        "- Titre -> titre [ TTitre* ]\n"
        "+ TÇa -> String\n"
        "+ Ça -> ça [ (TÇa | Note)* ]\n"
        "+ Été -> été [ Titre (Ça | Note)* ]\n"
    )
    # both pruners give the same bytes, from the DTD and from the file
    expected = "<été><ça>œuf </ça></été>".encode("utf-8")
    projector = parse_projector_text(proj.read_text(encoding="utf-8"))
    assert serialize(prune_tree(parse_xml(doc.read_bytes()), projector)).encode("utf-8") == expected
    for source in (query, ["--projector", str(proj)]):
        assert run(["prune", *source, "-i", str(doc), "-o", str(out), "--stats"]) == 0
        assert out.read_bytes() == expected
        assert capsys.readouterr().err == (
            "elements_in=5 elements_out=2 text_bytes_in=15 text_bytes_out=5 max_depth=3\n"
        )
    assert run(["validate", "--dtd", str(dtd), "-i", str(doc)]) == 0
    assert capsys.readouterr().out == "valid (9 nodes typed)\n"


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli_process(argv, encoding: str, cwd) -> bytes:
    """The CLI's stdout bytes from a fresh interpreter whose stdout encodes
    ``encoding``; the process must exit 0 or 1 without a traceback."""
    env = dict(os.environ, PYTHONPATH=_SRC, PYTHONIOENCODING=encoding)
    done = subprocess.run([sys.executable, "-m", "xmlprojector.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode in (0, 1) and b"Traceback" not in done.stderr, done.stderr[-2000:]
    return done.stdout


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdout_is_utf8_whatever_the_locale(encoding, tmp_path, capsys):
    dtd, doc, bad = (str(tmp_path / name) for name in ("u.dtd", "u.xml", "bad.xml"))
    Path(dtd).write_text(_NON_ASCII_DTD, encoding="utf-8")
    Path(doc).write_bytes(_NON_ASCII_XML.encode("utf-8"))
    Path(bad).write_bytes("<été><ça>œuf</ça></été>".encode("utf-8"))
    query = ["--dtd", dtd, "--query", "//ça/text()"]
    to_file = {
        "infer": ["infer", *query],
        "grammar": ["infer", "--dtd", dtd, "--emit-grammar"],
        "prune": ["prune", *query, "-i", doc],
        "gen": ["gen", "--dtd", dtd, "--seed", "3"],
    }
    for name, argv in to_file.items():
        out = tmp_path / f"{name}.out"
        _cli_process([*argv, "-o", str(out)], "utf-8", tmp_path)
        assert not out.read_bytes().isascii(), name
        assert _cli_process(argv, encoding, tmp_path) == out.read_bytes(), name
    # a projector written to stdout loads again
    proj = tmp_path / "u.proj"
    proj.write_bytes(_cli_process(to_file["infer"], encoding, tmp_path))
    assert _cli_process(["prune", "--projector", str(proj), "-i", doc], encoding, tmp_path) == (
        "<été><ça>œuf </ça></été>".encode("utf-8")
    )
    # the validate and check lines, as the same commands print them in process
    for argv in (["validate", "--dtd", dtd, "-i", bad],
                 ["validate", "--dtd", dtd, "-i", doc],
                 ["check", *query, "--n", "3", "--dump-dir", str(tmp_path)]):
        run(argv)
        expected = capsys.readouterr().out.encode("utf-8")
        assert _cli_process(argv, encoding, tmp_path) == expected, argv
        if argv[-1] == bad:
            assert expected.startswith("invalid at /été".encode("utf-8"))


def test_stdout_is_left_as_it_was(tmp_path, monkeypatch):
    # a latin-1 stdout gets UTF-8 bytes, after what it held, and stays open
    # and latin-1 for its next writes
    dtd, doc = tmp_path / "u.dtd", tmp_path / "u.xml"
    dtd.write_text(_NON_ASCII_DTD, encoding="utf-8")
    doc.write_bytes(_NON_ASCII_XML.encode("utf-8"))
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="latin-1")
    monkeypatch.setattr(sys, "stdout", stdout)
    stdout.write("é|")
    assert main(["prune", "--dtd", str(dtd), "--query", "//ça/text()", "-i", str(doc)]) == 0
    assert main(["validate", "--dtd", str(dtd), "-i", str(doc)]) == 0
    assert sys.stdout is stdout and not stdout.closed and stdout.encoding == "latin-1"
    stdout.write("|é")
    stdout.flush()
    assert raw.getvalue() == (
        "é|".encode("latin-1") + "<été><ça>œuf </ça></été>valid (9 nodes typed)\n".encode("utf-8")
        + "|é".encode("latin-1")
    )


def test_cli_import_leaves_the_oracle_unloaded():
    # `prune` and `infer` do not pay for the oracle; the package still
    # exports its names, loaded on first use
    code = (
        "import sys, xmlprojector.cli\n"
        "print(sorted(m for m in ('xmlprojector.oracle', 'decimal') if m in sys.modules))\n"
        "from xmlprojector import OracleError, check_soundness\n"
        "print(OracleError.__module__, check_soundness.__module__)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\nxmlprojector.oracle xmlprojector.oracle\n"


def test_ascii_inputs_compile_no_full_name_class(g0_dtd, d0_xml, tmp_path):
    # importing the command line and pruning ASCII input leave the full
    # Unicode name classes uncompiled; the first non-ASCII name compiles them
    code = (
        "import io, sys, contextlib\n"
        "from xmlprojector import cli, grammar, xpath\n"
        "patterns = (grammar._NAME_RE, xpath._TOKEN_RE)\n"
        "print([p.full for p in patterns])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['infer', '--dtd', sys.argv[1], '--query', '//b', '-o', sys.argv[3]]) == 0\n"
        "    assert cli.main(['prune', '--projector', sys.argv[3], '-i', sys.argv[2]]) == 0\n"
        "print([p.full for p in patterns])\n"
        "grammar.Label('\u00e9t\u00e9'), xpath.parse_query('//\u00e9t\u00e9')\n"
        "print([p.full is not None for p in patterns])\n"
    )
    argv = [sys.executable, "-c", code, g0_dtd, d0_xml, str(tmp_path / "p.proj")]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[None, None]\n[None, None]\n[True, True]\n"


def test_ascii_files_compile_no_full_line_pattern(g0_dtd, d0_xml, tmp_path):
    # the file reader's line pattern holds the name classes too: inferring
    # and loading an ASCII projector leave its full form uncompiled, and the
    # first non-ASCII projector compiles it
    code = (
        "import io, sys, contextlib\n"
        "from xmlprojector import cli, grammar, inference\n"
        "print(grammar._LINE_RE.full)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['infer', '--dtd', sys.argv[1], '--query', '//b', '-o', sys.argv[3]]) == 0\n"
        "    assert cli.main(['prune', '--projector', sys.argv[3], '-i', sys.argv[2]]) == 0\n"
        "print(grammar._LINE_RE.full)\n"
        "inference.parse_projector_text('start: Été\\n+ Été -> été [ ]\\n')\n"
        "print(grammar._LINE_RE.full is not None)\n"
    )
    argv = [sys.executable, "-c", code, g0_dtd, d0_xml, str(tmp_path / "p.proj")]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "None\nNone\nTrue\n"


def test_undecodable_input_files_are_usage_errors(g0_dtd, d0_xml, tmp_path, capsys):
    # a DTD, projector or query file that is not UTF-8: exit 2, one error
    # line naming the file
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"start: A\n+ A -> a [ ]\n\xff\n")
    for argv in (
        ["prune", "--projector", str(bad), "-i", d0_xml],
        ["infer", "--dtd", str(bad), "--query", "/doc"],
        ["prune", "--dtd", g0_dtd, "--queries", str(bad), "-i", d0_xml],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: not UTF-8 text ("), captured.err
        assert captured.err.count("\n") == 1


def test_prune_closes_its_input_when_the_output_cannot_be_opened(g0_dtd, d0_xml, tmp_path, capsys):
    out = tmp_path / "missing" / "out.xml"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["prune", "--dtd", g0_dtd, "--query", "/doc/a/b", "-i", d0_xml, "-o", str(out)])
        gc.collect()
    assert code == 2 and "No such file or directory" in capsys.readouterr().err
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_bad_rule_names_in_projector_files_are_usage_errors(d0_xml, tmp_path, capsys):
    # a text rule's bad name is a format error on its line, as an element
    # rule's is
    proj = tmp_path / "p.proj"
    for line in ("+ 1A -> String", "+ 1A -> a [ ]"):
        proj.write_text(f"start: A\n+ A -> a [ ]\n{line}\n")
        assert run(["prune", "--projector", str(proj), "-i", d0_xml]) == 2
        assert capsys.readouterr().err == "error: line 3: illegal rule name '1A'\n"


def test_no_queries_is_one_usage_error(g0_dtd, d0_xml, tmp_path, capsys):
    # every subcommand that takes queries loads them on one path, an empty
    # batch file included; a failed `infer` leaves its output file alone
    empty = tmp_path / "empty.queries"
    empty.write_text("# nothing here\n\n")
    proj = tmp_path / "p.proj"
    proj.write_text("kept\n")
    for argv in (
        ["infer", "--dtd", g0_dtd],
        ["infer", "--dtd", g0_dtd, "-o", str(proj)],
        ["prune", "--dtd", g0_dtd, "-i", d0_xml],
        ["check", "--dtd", g0_dtd, "--n", "1", "--dump-dir", str(tmp_path)],
        ["check", "--dtd", g0_dtd, "--queries", str(empty), "--dump-dir", str(tmp_path)],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no queries given (use --query or --queries)\n", argv
    assert run(["infer", "--dtd", g0_dtd, "--query", "/doc[", "-o", str(proj)]) == 2
    assert proj.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--max-depth", "0"],
        ["gen", "--max-star-repeat", "-2"],
        ["check", "--query", "/doc", "--max-depth", "0"],
        ["check", "--query", "/doc", "--n", "-1"],
    ],
)
def test_bad_numbers_are_usage_errors(argv, g0_dtd, capsys):
    flag = argv[-2]  # each case ends with the bad flag and its value
    code = run(argv + ["--dtd", g0_dtd])
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), captured.err
    assert f"error: {flag} must be >= " in captured.err, captured.err
    assert "Traceback" not in captured.err


def test_malformed_xml_exits_2(g0_dtd, tmp_path, capsys):
    # the in-memory paths: validate, and prune with a non-streamable projector
    proj = tmp_path / "fa.proj"
    proj.write_text("start: F\n+ F -> f [ (A | B)* ]\n+ A -> a [ ]\n- B -> a [ C ]\n- C -> c [ ]\n")
    for xml, where in [("<doc>\n<a>x</a>", "line 2, column 9"), ("<doc>\n  <a></b></doc>", "line 2, column 8")]:
        path = tmp_path / "bad.xml"
        path.write_text(xml)
        assert run(["validate", "--dtd", g0_dtd, "-i", str(path)]) == 2
        assert where in capsys.readouterr().err
        assert run(["prune", "--projector", str(proj), "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert "grammar is not streamable" in err and where in err


def _nested_sections(levels: int) -> str:
    return "<doc>" + "<section><title>t</title>" * levels + "</section>" * levels + "</doc>"


@pytest.fixture()
def recursive_dtd(tmp_path):
    path = tmp_path / "recursive.dtd"
    path.write_text(RECURSIVE_DTD)
    return str(path)


def test_deep_nesting_serializes_and_streams(recursive_dtd, tmp_path, capsys):
    levels = 10_000
    xml = _nested_sections(levels)
    doc = parse_xml(xml)
    assert serialize(doc) == xml
    assert sum(1 for _ in doc.iter_nodes()) == 3 * levels + 2
    assert subtree_text(doc.root.children[0]) == xml[len("<doc>") : -len("</doc>")]
    path = tmp_path / "deep.xml"
    path.write_text(xml)
    code = run(["prune", "--dtd", recursive_dtd, "--query", "//title", "-i", str(path), "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert f"max_depth={levels + 2}" in captured.err
    assert captured.out == xml


def test_prune_with_deep_chain_dtd(tmp_path, capsys):
    # element types referencing each other 1 000 deep; the document is tiny
    levels = 1_000
    dtd = tmp_path / "chain.dtd"
    dtd.write_text(
        "".join(f"<!ELEMENT e{i} (e{i + 1}?)>\n" for i in range(levels))
        + f"<!ELEMENT e{levels} EMPTY>\n"
    )
    xml = "<e0><e1><e2></e2></e1></e0>"
    assert run(["prune", "--dtd", str(dtd), "--query", "/e0"], stdin=xml) == 0
    captured = capsys.readouterr()
    assert captured.out == xml
    assert captured.err == ""


def test_gen_with_deep_chain_dtd(tmp_path, capsys):
    # each element's one child is the next, 2 000 deep: generation walks an
    # explicit stack, so only the depth budget bounds the document
    levels = 2_000
    dtd = tmp_path / "chain.dtd"
    dtd.write_text(
        "".join(f"<!ELEMENT c{i} (c{i + 1})>\n" for i in range(levels))
        + f"<!ELEMENT c{levels} (#PCDATA)>\n"
    )
    assert run(["gen", "--dtd", str(dtd), "--max-depth", "5000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    tags = "".join(f"<c{i}>" for i in range(levels + 1))
    assert captured.out.startswith(tags)
    assert captured.out.endswith("</c0>\n")


# Two rules for `section` under S make the grammar not streamable.
_NESTED_PROJECTOR = """\
start: Doc
+ Doc -> doc [ S* ]
+ S -> section [ T (P | S | R)* ]
+ R -> section [ T ]
+ T -> title [ TT ]
+ TT -> String
- P -> para [ TP ]
- TP -> String
"""


def test_validate_and_prune_deep_nesting_in_memory(recursive_dtd, tmp_path, capsys):
    levels = 10_000
    xml = _nested_sections(levels)
    path = tmp_path / "deep.xml"
    path.write_text(xml)
    assert run(["validate", "--dtd", recursive_dtd, "-i", str(path)]) == 0
    assert capsys.readouterr().out == f"valid ({3 * levels + 1} nodes typed)\n"
    proj = tmp_path / "nested.proj"
    proj.write_text(_NESTED_PROJECTOR)
    assert run(["prune", "--projector", str(proj), "-i", str(path), "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == xml
    assert "grammar is not streamable" in captured.err
    assert f"elements_in={2 * levels + 1} elements_out={2 * levels + 1}" in captured.err
    assert f"max_depth={levels + 2}" in captured.err


def test_prune_stats_on_non_streamable_grammar(tmp_path, capsys):
    proj = tmp_path / "fa.proj"
    proj.write_text(
        "start: F\n+ F -> f [ (A | B)* ]\n+ A -> a [ T ]\n+ T -> String\n"
        "- B -> a [ C ]\n- C -> c [ ]\n"
    )
    code = run(["prune", "--projector", str(proj), "--stats"], stdin="<f><a>t</a><a><c/></a></f>")
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "<f><a>t</a></f>"
    assert captured.err.splitlines()[-1] == (
        "elements_in=4 elements_out=2 text_bytes_in=1 text_bytes_out=1 max_depth=3"
    )


def test_deeply_nested_query_reports_error_not_traceback(g0_dtd, capsys):
    # parse_query stops at the first bracket past its nesting bound
    for levels in (MAX_QUERY_NESTING + 1, 1_500):
        query = "/doc" + "[a" * levels + "]" * levels
        assert run(["infer", "--dtd", g0_dtd, "--query", query]) == 2
        err = capsys.readouterr().err
        offset = len("/doc") + 2 * MAX_QUERY_NESTING
        assert err == (
            "error: predicates and parentheses nest deeper than "
            f"{MAX_QUERY_NESTING} levels (at offset {offset})\n"
        )


def test_query_at_the_nesting_bound_infers_and_checks(recursive_dtd, capsys):
    query = "//section" + "[section" * MAX_QUERY_NESTING + "]" * MAX_QUERY_NESTING
    assert run(["infer", "--dtd", recursive_dtd, "--query", query]) == 0
    assert capsys.readouterr().err == "kept 6 of 6 rules (0 dropped)\n"
    assert run(["check", "--dtd", recursive_dtd, "--query", query, "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "PASS n=5"


def test_check_deep_documents(recursive_dtd, capsys):
    # documents up to 10 000 levels deep are generated, pruned and compared
    code = run(
        ["check", "--dtd", recursive_dtd, "--query", "//para", "--n", "20", "--max-depth", "10000"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "PASS n=20"


def test_projector_with_deeply_nested_rule_prunes(tmp_path, capsys):
    # ((…((n0 n1) n2)…) n3000) loads: parsing is a loop and a rule hashes
    # its name and label, not its content tree
    names = [f"n{i}" for i in range(3_001)]
    group = "(" * 3_000 + f"{names[0]} {names[1]})" + "".join(f" {n})" for n in names[2:])
    proj = tmp_path / "deep-rule.proj"
    proj.write_text(
        f"start: R\n+ R -> r [ {group} ]\n" + "".join(f"+ {n} -> {n} [ ]\n" for n in names)
    )
    xml = "<r>" + "".join(f"<{n}></{n}>" for n in names) + "</r>"
    assert run(["prune", "--projector", str(proj)], stdin=xml) == 0
    captured = capsys.readouterr()
    assert captured.out == xml and captured.err == ""


def test_deeply_nested_group_infers_and_prunes(tmp_path, capsys):
    # (a, (a, … (a, b)*…)*)*: the import, inference, projector printing
    # and the streaming pruner run no recursion per group
    depth = 3_000
    group = "(a, " * depth + "b" + ")*" * depth
    dtd = tmp_path / "deep-group.dtd"
    dtd.write_text(f"<!ELEMENT r {group}>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b EMPTY>\n")
    query = ["--dtd", str(dtd), "--query", "//a"]
    assert run(["infer", *query]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "start: R\n"
        "+ A -> a [ TA* ]\n"
        "- B -> b [ ]\n"
        "+ R -> r [ " + "(A " * depth + "B" + ")*" * depth + " ]\n"
        "+ TA -> String\n"
    )
    assert captured.err == "kept 3 of 4 rules (1 dropped)\n"
    doc = tmp_path / "deep-group.xml"
    doc.write_text("<r><a>x</a><a>y</a><b/></r>")
    assert run(["prune", *query, "-i", str(doc)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "<r><a>x</a><a>y</a></r>" and captured.err == ""


def test_wide_content_models(tmp_path, capsys):
    # one content-model group is one node, however many items it holds
    n = 5_000
    dtd = tmp_path / "wide.dtd"
    dtd.write_text(
        f"<!ELEMENT r ({','.join(f'e{i}' for i in range(n))})>\n"
        + "".join(f"<!ELEMENT e{i} EMPTY>\n" for i in range(n))
    )
    doc = tmp_path / "wide.xml"
    doc.write_text("<r>" + "".join(f"<e{i}></e{i}>" for i in range(n)) + "</r>")
    query = ["--dtd", str(dtd), "--query", f"/r/e{n - 1}"]
    assert run(["infer", *query]) == 0
    assert f"+ E{n - 1} -> e{n - 1} [ ]" in capsys.readouterr().out
    assert run(["prune", *query, "-i", str(doc), "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"<r><e{n - 1}></e{n - 1}></r>"
    assert f"elements_in={n + 1} elements_out=2" in captured.err
    assert run(["validate", "--dtd", str(dtd), "-i", str(doc)]) == 0
    assert capsys.readouterr().out == f"valid ({n + 1} nodes typed)\n"
    assert run(["check", *query, "--n", "3", "--dump-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "PASS n=3" and "Traceback" not in captured.err

    # ANY over 2 000 declared elements: a 2 001-part union
    n = 2_000
    dtd.write_text("<!ELEMENT r ANY>\n" + "".join(f"<!ELEMENT e{i} EMPTY>\n" for i in range(n)))
    query = ["--dtd", str(dtd), "--query", f"//e{n - 1}"]
    assert run(["infer", *query]) == 0
    assert f"+ E{n - 1} -> e{n - 1} [ ]" in capsys.readouterr().out
    xml = f"<r>t<e0></e0><r><e{n - 1}></e{n - 1}></r></r>"
    assert run(["prune", *query], stdin=xml) == 0
    captured = capsys.readouterr()
    assert captured.out == f"<r><r><e{n - 1}></e{n - 1}></r></r>"
    assert "Traceback" not in captured.err


# The projector `infer --query //section/title` writes for RECURSIVE_DTD,
# by hand: rules out of sort order, spaced freely, one group redundant.
_HAND_WRITTEN_PROJECTOR = """\
# written by hand
start:   Doc
+ Title->title[TTitle*]
-   TPara ->String
+ Section->section[ Title(Para|Section)* ]
+ TTitle->   String
- Para  ->  para [ (TPara)* ]
+ Doc->doc[Section *]
"""


def test_hand_written_projector_prunes_as_the_inferred_one(recursive_dtd, tmp_path, capsys):
    canonical, hand = tmp_path / "canonical.proj", tmp_path / "hand.proj"
    assert run(["infer", "--dtd", recursive_dtd, "--query", "//section/title", "-o", str(canonical)]) == 0
    hand.write_text(_HAND_WRITTEN_PROJECTOR)
    doc = tmp_path / "doc.xml"
    doc.write_text(
        "<doc><section><title>a</title><para>p</para>"
        "<section><title>b</title><para>q</para></section></section></doc>"
    )
    capsys.readouterr()
    outputs = []
    for proj in (canonical, hand):
        assert run(["prune", "--projector", str(proj), "-i", str(doc), "--stats"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out == outputs[1].out
    assert outputs[0].out == "<doc><section><title>a</title><section><title>b</title></section></section></doc>"
    assert outputs[0].err == outputs[1].err and outputs[0].err.startswith("elements_in=")
    first, second = (parse_projector_text(p.read_text()) for p in (canonical, hand))
    assert first == second
    assert first.grammar.sorted_rules() == second.grammar.sorted_rules()
    assert projector_to_text(second) == canonical.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["prune", "-h"],
        ["infer", "-h"],
        ["check", "-h"],
        ["bogus"],
        ["infer"],
        ["prune", "--policy", "x"],
        ["gen", "--seed", "q"],
        [],
        ["prune", "--bogus"],
    ],
)
def test_one_subcommand_parser_reads_as_the_full_parser(argv, capsys, monkeypatch):
    # main builds only the parser of the subcommand that argv[0] names, and
    # every parser when argv[0] names none; help, errors and exit codes are
    # those of the parser with all subcommands
    from xmlprojector import cli

    def outcome(call):
        with pytest.raises(SystemExit) as info:
            call(list(argv))
        out = capsys.readouterr()
        return info.value.code, out.out, out.err

    full = outcome(lambda args: cli._build_parser().parse_args(args))
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or build(command))
    assert outcome(cli.main) == full
    assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None]


# ---------------------------------------------------------------------------
# Input files with a byte-order mark, and input errors


_AB_DTD = "<!ELEMENT doc (a | b)*>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>\n"
_AB_XML = "<doc><a>x</a><b>z</b><a>y</a></doc>"


@pytest.fixture()
def ab_files(tmp_path):
    (tmp_path / "t.dtd").write_text(_AB_DTD)
    (tmp_path / "t.xml").write_text(_AB_XML)
    return str(tmp_path / "t.dtd"), str(tmp_path / "t.xml")


def test_bom_prefixed_query_file_reads_as_its_text(ab_files, tmp_path, capsys):
    # U+FEFF is a name character: read into the query, it would turn `//a`
    # into a relative path that selects nothing
    dtd, doc = ab_files
    queries = tmp_path / "bom.q"
    queries.write_bytes(b"\xef\xbb\xbf//a\n")
    assert run(["infer", "--dtd", dtd, "--query", "//a"]) == 0
    plain = capsys.readouterr()
    assert run(["infer", "--dtd", dtd, "--queries", str(queries)]) == 0
    assert capsys.readouterr() == plain
    assert plain.err == "kept 3 of 5 rules (2 dropped)\n"
    assert run(["prune", "--dtd", dtd, "--queries", str(queries), "-i", doc]) == 0
    assert capsys.readouterr().out == "<doc><a>x</a><a>y</a></doc>"


def test_bom_prefixed_projector_file_prunes_as_the_plain_one(ab_files, tmp_path, capsys):
    dtd, doc = ab_files
    proj = tmp_path / "t.proj"
    assert run(["infer", "--dtd", dtd, "--query", "//a", "-o", str(proj)]) == 0
    bom = tmp_path / "bom.proj"
    bom.write_bytes(b"\xef\xbb\xbf" + proj.read_bytes())
    capsys.readouterr()
    for path in (proj, bom):
        assert run(["prune", "--projector", str(path), "-i", doc]) == 0
        assert capsys.readouterr().out == "<doc><a>x</a><a>y</a></doc>", path


@pytest.mark.parametrize("text, error", [
    ("start: Doc\n+ Doc -> doc [ A* ]\n", "names without rules: A"),
    ("start: Doc\nattlist:\n+ Doc -> doc [ ]\n", "line 2: attlist needs a tag"),
    ("+ Doc -> doc [ ]\n", "missing `start:` header"),
])
def test_malformed_projector_files_are_usage_errors(text, error, d0_xml, tmp_path, capsys):
    proj = tmp_path / "p.proj"
    proj.write_text(text)
    assert run(["prune", "--projector", str(proj), "-i", d0_xml]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    with pytest.raises(GrammarFormatError) as exc:  # a grammar file reads the same lines
        parse_grammar_text(text.replace("+ ", ""))
    assert str(exc.value) == error


def test_check_reports_and_dumps_a_failure(ab_files, tmp_path, monkeypatch, capsys):
    # an unsound projector, the empty one, fails the check on the first
    # document with an `a`, which is dumped where the FAIL line says
    from xmlprojector import empty_projector, oracle

    monkeypatch.setattr(oracle, "infer_projector", lambda queries, g: empty_projector(g))
    dtd, _ = ab_files
    dump = tmp_path / "D"
    dump.mkdir()
    assert run(["check", "--dtd", dtd, "--query", "//a", "--n", "3", "--dump-dir", str(dump)]) == 1
    out = capsys.readouterr().out
    assert out == f"FAIL seed=1 query=//a doc={dump / 'counterexample_1.xml'}\n"
    assert "<a>" in (dump / "counterexample_1.xml").read_text()
    assert [p.name for p in dump.iterdir()] == ["counterexample_1.xml"]
