"""End-to-end runs of the command-line interface."""

import errno
import io
import itertools
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltamin import (
    EdgeColouring,
    classify_delta_edges,
    emit_edge_list,
    emit_graph6,
    make_named,
    parity_signature,
    parse_graph6,
    random_subcubic,
    solve_exact,
)
from deltamin import Graph, checks, cli, exact, generators, graphs, structure
from deltamin.cli import main
from deltamin.errors import BatchError

PETERSEN_G6 = emit_graph6(make_named("petersen"))
GOLDEN = Path(__file__).parent / "golden"


def run_main(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# solve


def test_solve_petersen_json(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "in.g6", PETERSEN_G6 + "\n")
    code, out, _ = run_main(["solve", path], capsys=capsys)
    assert code == 0
    (rec,) = [json.loads(ln) for ln in out.splitlines()]
    assert rec["index"] == 0
    assert rec["n"] == 10 and rec["m"] == 15
    assert rec["s"] == 2
    assert rec["method"] == "Exact"
    assert rec["colours"].count("d") == 2


def json_record(index, g, result):
    """A solve record as json writes it, keys sorted."""
    rec = {
        "index": index,
        "n": g.vertex_count,
        "m": g.edge_count,
        "s": result.s_value,
        "method": result.method.value,
        "colours": list(result.witness.codes),
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("method", list(exact.Method), ids=lambda m: m.value)
def test_solve_line_is_the_json_record(method):
    rng = random.Random(method.value)
    big = random_subcubic(1000, 4)
    cases = [
        (0, Graph(0, []), 0),  # "colours":[]
        (3, Graph(5, []), 0),
        (0, make_named("k4"), 0),
        (1234567, big, 98765),  # multi-digit index, n, m and s
    ]
    for index, g, s in cases:
        codes = "".join(rng.choice("abgd") for _ in range(g.edge_count))
        result = exact.SolveResult(s, EdgeColouring(g, codes), method)
        assert cli._solve_line(index, g, result) == json_record(index, g, result)


def test_solve_empty_input(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "in.g6", "")
    code, out, _ = run_main(["solve", path], capsys=capsys)
    assert code == 0
    assert out == ""


def test_solve_corrupt_line_among_valid(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "in.g6", "C~\nC" + chr(127) + "\n" + PETERSEN_G6 + "\n")
    code, out, _ = run_main(["solve", path], capsys=capsys)
    assert code == 1
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert len(recs) == 3
    assert recs[0]["s"] == 0
    assert "error" in recs[1] and recs[1]["offset"] == 1
    assert recs[2]["s"] == 2


NOT_UTF8 = b"C~\n\xff\xfe\n" + PETERSEN_G6.encode("ascii") + b"\n"


def check_bad_middle_line(code, out):
    assert code == 1
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert recs[1] == {"error": "non-ASCII byte in graph6 data (byte offset 0)", "index": 1, "offset": 0}
    assert [recs[0]["s"], recs[2]["s"]] == [0, 2]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_solve_keeps_the_batch_around_a_non_utf8_line(tmp_path, capsys, monkeypatch, jobs):
    # at --jobs 2 the line's surrogate escapes cross the pipe to a worker
    path = tmp_path / "in.g6"
    path.write_bytes(NOT_UTF8)
    check_bad_middle_line(*run_main(["solve", str(path), "--jobs", jobs], capsys=capsys)[:2])
    # standard input is decoded the same way, whatever the locale's encoding
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    check_bad_middle_line(*run_main(["solve", "-", "--jobs", jobs], capsys=capsys)[:2])


def reference_lines(data: bytes) -> list[str]:
    """Frozen copy of the whole-input reader the streaming one replaced: the
    non-blank lines of the text, split by str.splitlines."""
    return [ln for ln in data.decode("utf-8", "surrogateescape").splitlines() if ln.strip()]


# a text file is read in pieces of 8 KiB, so these put "\r" and "\n", or the
# bytes of one character, on both sides of a piece's end
_READER_CASES = {
    "crlf": b"C~\r\nC~\r\n",
    "lone-cr": b"C~\rC~\r\rC~\r",
    **{f"u{ord(c):04x}": f"C~{c}C~{c}{c} {c}C~{c}".encode() for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"},
    "whitespace-only-lines": b"C~\n \t\n\n\x0c \r\n\x85\nC~\n",
    "no-final-newline": b"C~\nC~",
    "not-utf8": b"C~\n\xff\x85C~\xc2\nC~\n",
    **{f"crlf-at-{k}": b"A" * k + b"\r\nC~\r\n" for k in (8190, 8191, 8192)},
    **{f"utf8-at-{k}": b"A" * k + "\u2028C~\n".encode() for k in (8190, 8191, 8192)},
    "1mb-line": b"C~\n" + b"?" * (1 << 20) + b"\r\nC~\n",
}


@pytest.mark.parametrize("data", _READER_CASES.values(), ids=_READER_CASES.keys())
def test_reader_splits_as_the_whole_input_reader_did(tmp_path, monkeypatch, data):
    expected = reference_lines(data)
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    lines = cli._Lines(str(path))
    assert (len(lines), list(lines)) == (len(expected), expected)
    # standard input is decoded as UTF-8 whatever its own encoding says
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))
    lines = cli._Lines("-")
    assert (len(lines), list(lines)) == (len(expected), expected)


@pytest.mark.parametrize("data", _READER_CASES.values(), ids=_READER_CASES.keys())
def test_pool_round_trips_every_line_the_reader_yields(tmp_path, capsys, caplog, data):
    # each case has at least two lines, so --jobs 2 forks two workers; the
    # lines reach them, surrogate escapes and separators included, and
    # 1mb-line is longer than a pipe buffer
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    count = len(reference_lines(data))
    assert cli._chunks(count, 2)[1] == 2
    runs = []
    for jobs in ("1", "2"):
        caplog.clear()
        code, out, _ = run_main(["solve", str(path), "--jobs", jobs], capsys=capsys)
        runs.append((code, out, [r.getMessage() for r in caplog.records]))
    assert runs[1] == runs[0]
    assert runs[0][1].count("\n") == count


@st.composite
def _graph6_lines(draw):
    """The graph6 line of a graph on at most 10 vertices with maximum degree
    three, its drawn pairs kept while they stay simple and subcubic."""
    n = draw(st.integers(0, 10))
    degree = [0] * n
    edges = set()
    vertex = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=20))
    if draw(st.booleans()):
        # then every pair in order that still fits: an odd n then often has
        # more edges than three matchings hold, so s >= 1
        pairs += itertools.combinations(range(n), 2)
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        if u != v and key not in edges and degree[u] < 3 and degree[v] < 3:
            edges.add(key)
            degree[u] += 1
            degree[v] += 1
    return emit_graph6(Graph(n, sorted(edges))).encode()


@st.composite
def _mutated_lines(draw):
    """A graph6 line with up to three bytes replaced, inserted or deleted."""
    line = bytearray(draw(_graph6_lines()))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(line)))
        line[at:at + draw(st.integers(0, 1))] = draw(st.binary(max_size=2))
    return bytes(line)


# the separators str.splitlines splits at, in UTF-8, and none at all
_SEPARATORS = [c.encode() for c in ["\n", "\r\n", *"\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]] + [b""]
_NOT_UTF8 = [b"\xff", b"\xfe\xff", b"\x80", b"\xc2", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]

_drawn_inputs = st.lists(
    st.tuples(
        st.one_of(_graph6_lines(), _mutated_lines(), st.sampled_from(_NOT_UTF8), st.binary(max_size=8)),
        st.sampled_from(_SEPARATORS),
    ),
    max_size=12,
).map(lambda pieces: b"".join(line + sep for line, sep in pieces))


def brute_force_s(g):
    """The fewest delta edges of a proper 4-edge-colouring, by a plain
    depth-first search that gives each edge in turn every colour free at
    both its ends (code 3 is delta), cut off once a branch has as many
    delta edges as the best colouring found."""
    used = [set() for _ in range(g.vertex_count)]
    best = g.edge_count + 1

    def colour(i, deltas):
        nonlocal best
        if deltas >= best:
            return
        if i == g.edge_count:
            best = deltas
            return
        u, v = g.edges[i]
        for c in set(range(4)) - used[u] - used[v]:
            used[u].add(c)
            used[v].add(c)
            colour(i + 1, deltas + (c == 3))
            used[u].discard(c)
            used[v].discard(c)

    colour(0, 0)
    return best


def _run_cli(*argv):
    """(exit status, stdout, stderr) of the command in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "deltamin", *argv], capture_output=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _run_at_any_jobs(*argv):
    """(exit status, records, stderr) of the command, which must write the
    same bytes and exit alike at --jobs 1 and --jobs 2."""
    serial, forked = (_run_cli(*argv, "--jobs", jobs) for jobs in ("1", "2"))
    assert forked == serial
    status, out, err = serial
    assert b"Traceback" not in err
    return status, [json.loads(ln) for ln in out.splitlines()], err


def _passes(rec):
    return "error" not in rec and all(c["pass"] for c in rec.get("verification", rec)["clauses"])


def check_one_record_per_line_at_any_jobs(tmp_path_factory, data):
    # solve, analyze, and verify of solve's witnesses: one record per line,
    # the same bytes at --jobs 1 and 2, and s as the brute force finds it
    tmp = tmp_path_factory.mktemp("drawn")
    (tmp / "in.g6").write_bytes(data)
    lines = reference_lines(data)
    status, solved, _ = _run_at_any_jobs("solve", str(tmp / "in.g6"))
    assert [r["index"] for r in solved] == list(range(len(lines)))
    assert status == (1 if any("error" in r for r in solved) else 0)
    for line, rec in zip(lines, solved):
        if "error" not in rec and rec["n"] <= 8:
            assert rec["s"] == brute_force_s(parse_graph6(line)), line
    # a line solve refused gets a colouring line all the same, so that the
    # lines stay aligned; verify refuses its graph first
    (tmp / "colours.jsonl").write_text("".join(json.dumps({"colours": r.get("colours", [])}) + "\n" for r in solved))
    for argv in (["analyze"], ["verify", "--colouring", str(tmp / "colours.jsonl")]):
        status, recs, _ = _run_at_any_jobs(*argv, str(tmp / "in.g6"))
        assert [r["index"] for r in recs] == list(range(len(lines)))
        assert [_passes(r) for r in recs] == ["error" not in r for r in solved]
        assert status == (0 if all(map(_passes, recs)) else 1)


# each example runs solve, analyze and verify twice each in a fresh
# interpreter, about 0.6 s
@given(data=_drawn_inputs)
@settings(max_examples=30, deadline=None)
def test_drawn_input_gives_one_record_per_line_at_any_jobs(tmp_path_factory, data):
    check_one_record_per_line_at_any_jobs(tmp_path_factory, data)


@pytest.mark.slow
@given(data=_drawn_inputs)
@settings(max_examples=500, deadline=None)
def test_drawn_input_gives_one_record_per_line_at_any_jobs_at_length(tmp_path_factory, data):
    check_one_record_per_line_at_any_jobs(tmp_path_factory, data)


# a vertex label or count past the cap on what an edge list may hold (a
# count under the cap but large would build the graph)
_huge_labels = st.integers(graphs.EDGE_LIST_MAX_VERTICES + 1, 10**12)


@st.composite
def _edge_lists(draw):
    """An edge-list file: lines of two small labels, perhaps a line of drawn
    text and a line with a label past the cap, each at a drawn place, after
    a header "n m" that counts the lines, or none."""
    small = st.integers(0, 12)
    lines = [f"{a} {b}" for a, b in draw(st.lists(st.tuples(small, small), max_size=8))]
    for extra in (st.text(max_size=8), st.tuples(_huge_labels, small).map(lambda ab: f"{ab[0]} {ab[1]}")):
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(extra))
    if draw(st.booleans()):
        lines.insert(0, f"{draw(st.one_of(small, _huge_labels))} {len(lines)}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def check_an_edge_list_gives_one_record(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("drawn") / "in.txt"
    path.write_bytes(text.encode())
    status, out, err = _run_cli("solve", str(path), "--format", "edgelist")
    assert b"Traceback" not in err
    (rec,) = [json.loads(ln) for ln in out.splitlines()]
    assert rec["index"] == 0
    assert status == (1 if "error" in rec else 0)
    if "error" not in rec and rec["n"] <= 8:
        assert rec["s"] == brute_force_s(graphs.parse_edge_list(text))


# each example runs solve once in a fresh interpreter, about 0.1 s
@given(text=_edge_lists())
@settings(max_examples=30, deadline=None)
def test_drawn_edge_list_gives_one_record(tmp_path_factory, text):
    check_an_edge_list_gives_one_record(tmp_path_factory, text)


@pytest.mark.slow
@given(text=_edge_lists())
@settings(max_examples=500, deadline=None)
def test_drawn_edge_list_gives_one_record_at_length(tmp_path_factory, text):
    check_an_edge_list_gives_one_record(tmp_path_factory, text)


def _open_descriptors():
    return sorted(os.listdir("/proc/self/fd"))


def _lines_of(kind, tmp_path, monkeypatch, data):
    """A _Lines over data, read from a regular file, standard input or a FIFO."""
    path = tmp_path / "in.g6"
    if kind == "file":
        path.write_bytes(data)
        return cli._Lines(str(path))
    if kind == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        return cli._Lines("-")
    os.mkfifo(path)
    feeder = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    feeder.start()
    lines = cli._Lines(str(path))
    feeder.join(10)
    assert not feeder.is_alive()
    return lines


# a reader a walk leaves open is a descriptor left in this process, and a
# ResourceWarning (an error under -W error::ResourceWarning) when collected
@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("kind", ["file", "stdin", "fifo"])
def test_each_walk_opens_and_closes_its_own_reader(tmp_path, monkeypatch, kind):
    data = b"C~\r\n\nC~\rC~\n"
    before = _open_descriptors()
    lines = _lines_of(kind, tmp_path, monkeypatch, data)
    assert list(lines) == list(lines) == reference_lines(data)
    assert _open_descriptors() == before
    walk = iter(lines)
    assert next(walk) == "C~"
    del walk  # abandoned after one line
    assert _open_descriptors() == before


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("count", [2, 4], ids=["shrinks", "grows"])
def test_a_walk_that_finds_a_changed_file_closes_it(tmp_path, count):
    path = tmp_path / "in.g6"
    path.write_text("C~\n" * 3)
    before = _open_descriptors()
    lines = cli._Lines(str(path))
    path.write_text("C~\n" * count)
    with pytest.raises(BatchError, match="changed while it was read"):
        list(lines)
    assert _open_descriptors() == before


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_fifo_input_gives_the_output_of_a_file(tmp_path, command, jobs):
    # a FIFO cannot be read twice, so it is read whole; verify reads both
    # its inputs from FIFOs, one after the other
    name = "verify" if command == "verify" else "solve"
    files = [GOLDEN / f"{name}_batch.g6"] + ([GOLDEN / "verify_batch_colouring.jsonl"] if command == "verify" else [])
    fifos = [tmp_path / f"in{i}" for i in range(len(files))]
    for fifo in fifos:
        os.mkfifo(fifo)

    def argv(paths):
        colouring = ["--colouring", str(paths[1])] if command == "verify" else []
        return [sys.executable, "-m", "deltamin", command, str(paths[0]), "--jobs", jobs, *colouring]

    regular = subprocess.run(argv(files), capture_output=True, timeout=60)
    proc = subprocess.Popen(argv(fifos), stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def feed():
        for fifo, src in zip(fifos, files):
            with open(fifo, "wb") as fh:
                fh.write(src.read_bytes())

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    out, err = proc.communicate(timeout=60)
    feeder.join(10)
    assert (proc.returncode, out, err) == (regular.returncode, regular.stdout, regular.stderr)
    assert regular.stdout.count(b"\n") == len(files[0].read_text().splitlines())


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("count", [4, 12], ids=["shrinks", "grows"])
@pytest.mark.parametrize("changed", [0, 1], ids=["graphs", "colourings"])
def test_input_that_changes_while_read_exits_2(tmp_path, capsys, monkeypatch, changed, count, jobs):
    # one file is counted, then rewritten before its lines are read
    lines = ["C~", witness_line("C~")]
    paths = [write(tmp_path, f"in{i}", (line + "\n") * 8) for i, line in enumerate(lines)]
    counted = cli._Lines.__init__

    def count_then_rewrite(self, path):
        counted(self, path)
        if path == paths[changed]:
            Path(path).write_text((lines[changed] + "\n") * count)

    monkeypatch.setattr(cli._Lines, "__init__", count_then_rewrite)
    code, _, err = run_main(["verify", paths[0], "--colouring", paths[1], "--jobs", jobs], capsys=capsys)
    assert code == 2
    assert err == f"deltamin verify: {paths[changed]} changed while it was read (8 lines when counted)\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("changed", [0, 1], ids=["graphs", "colourings"])
def test_input_that_cannot_be_reopened_exits_2(tmp_path, capsys, monkeypatch, changed, jobs):
    # one file is counted, then deleted before its walk opens it again
    lines = ["C~", witness_line("C~")]
    paths = [write(tmp_path, f"in{i}", (line + "\n") * 8) for i, line in enumerate(lines)]
    counted = cli._Lines.__init__

    def count_then_unlink(self, path):
        counted(self, path)
        if path == paths[changed]:
            os.unlink(path)

    monkeypatch.setattr(cli._Lines, "__init__", count_then_unlink)
    code, out, err = run_main(["verify", paths[0], "--colouring", paths[1], "--jobs", jobs], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"deltamin verify: cannot read {paths[changed]}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["solve", "{missing}"],
    ["analyze", "{missing}"],
    ["verify", "{missing}", "--colouring", "{present}"],
    ["verify", "{present}", "--colouring", "{missing}"],
    ["solve", "{tmp}"],
], ids=["solve", "analyze", "verify-input", "verify-colouring", "directory"])
def test_unreadable_file_exits_2_with_one_line(tmp_path, capsys, argv):
    paths = {"missing": str(tmp_path / "missing.g6"), "present": write(tmp_path, "in.g6", "C~\n"), "tmp": str(tmp_path)}
    argv = [a.format(**paths) for a in argv]
    code, out, err = run_main(argv, capsys=capsys)
    unreadable = next(a for a in argv if a in (paths["missing"], paths["tmp"]))
    assert (code, out) == (2, "")
    assert err.startswith(f"deltamin {argv[0]}: cannot read {unreadable}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_both_inputs_on_stdin_exits_2(capsys, monkeypatch):
    # one stream cannot hold both, so this is refused before either is read
    code, out, err = run_main(
        ["verify", "-", "--colouring", "-"], stdin_text="C~\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert (code, out) == (2, "")
    assert err == "deltamin verify: graphs and colourings cannot both be read from standard input\n"


def test_solve_reads_stdin(capsys, monkeypatch):
    code, out, _ = run_main(
        ["solve", "-"], stdin_text="C~\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["s"] == 0


def test_solve_edge_list_input(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "in.edges", emit_edge_list(make_named("petersen")))
    code, out, _ = run_main(["solve", path, "--format", "edgelist"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["s"] == 2


def test_solve_long_cycle_after_petersen(tmp_path, capsys, monkeypatch):
    # a 3000-edge search must not hit the recursion limit and lose the batch
    text = PETERSEN_G6 + "\n" + emit_graph6(make_named("cycle", 3000)) + "\n"
    path = write(tmp_path, "in.g6", text)
    code, out, _ = run_main(["solve", path, "--exact-limit", "5000"], capsys=capsys)
    assert code == 0
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert [(r["index"], r["n"], r["s"], r["method"]) for r in recs] == [
        (0, 10, 2, "Exact"),
        (1, 3000, 0, "Exact"),
    ]


def test_solve_csv(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "in.g6", "C~\nC" + chr(127) + "\n" + PETERSEN_G6 + "\n")
    code, out, _ = run_main(["solve", path, "--out", "csv"], capsys=capsys)
    assert code == 1  # the bad line still fails the run
    lines = out.splitlines()
    assert lines[0] == "name,n,m,s,method"
    assert lines[1] == "g0,4,6,0,Exact"
    assert lines[2] == "g2,10,15,2,Exact"


def test_solve_dot_round_trip(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "in.g6", PETERSEN_G6 + "\n")
    code, out, _ = run_main(["solve", path, "--out", "dot"], capsys=capsys)
    assert code == 0
    edges = set()
    delta_edges = set()
    for m in re.finditer(r"(\d+) -- (\d+)( \[([^]]*)\])?;", out):
        u, v = int(m.group(1)), int(m.group(2))
        edges.add((min(u, v), max(u, v)))
        if m.group(4) and "bold" in m.group(4):
            delta_edges.add((min(u, v), max(u, v)))
    assert edges == set(make_named("petersen").edges)
    assert len(delta_edges) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_solve_dot_matches_golden(capsys, jobs):
    # exact and heuristic graphs around a corrupt line; with --jobs 2 the
    # edges come back from the workers instead of a second parse
    path = str(GOLDEN / "solve_dot.g6")
    code, out, _ = run_main(["solve", path, "--out", "dot", "--jobs", jobs], capsys=capsys)
    assert code == 1  # the corrupt line
    assert out.encode("ascii") == (GOLDEN / "solve_dot.dot").read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
@pytest.mark.parametrize("fmt, golden", [("json", "solve_batch.jsonl"), ("csv", "solve_batch.csv")])
def test_solve_batch_matches_golden(capsys, fmt, golden, jobs):
    # the 19 cubic graphs on 10 vertices, 40 seeded random subcubic graphs
    # on 4-30 vertices (exact and heuristic), a corrupt line and Petersen;
    # --jobs 3 splits the 61 graphs into uneven chunks
    path = str(GOLDEN / "solve_batch.g6")
    code, out, _ = run_main(["solve", path, "--out", fmt, "--jobs", jobs], capsys=capsys)
    assert code == 1  # the corrupt line
    assert out.encode("ascii") == (GOLDEN / golden).read_bytes()


def _failing_on_petersen(real_solve, exc):
    def solve(g):
        if g.vertex_count == 10:
            raise exc
        return real_solve(g)

    return solve


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "exc", [RuntimeError("boom"), RecursionError("too deep"), MemoryError()], ids=lambda e: type(e).__name__
)
def test_solve_isolates_a_failing_graph(tmp_path, capsys, caplog, monkeypatch, exc, jobs):
    # workers fork, so they inherit the patched search; the failure becomes
    # that graph's record and the graphs around it, in its chunk too (3 per
    # chunk with --jobs 1, 2 with --jobs 2), still come out in order
    monkeypatch.setattr(exact, "solve_exact", _failing_on_petersen(exact.solve_exact, exc))
    lines = ["C~"] * 4 + [PETERSEN_G6, emit_graph6(make_named("k33"))] + ["C~"] * 3
    path = write(tmp_path, "in.g6", "".join(ln + "\n" for ln in lines))
    code, out, _ = run_main(["solve", path, "--jobs", jobs], capsys=capsys)
    assert code == 1
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert [r["index"] for r in recs] == list(range(9))
    assert recs[4] == {"index": 4, "error": f"{type(exc).__name__}: {exc}", "offset": None}
    assert [r["s"] for r in recs if "s" in r] == [0] * 8
    assert f"graph 4: {type(exc).__name__}" in caplog.text


def test_solve_does_not_catch_keyboard_interrupt(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(exact, "solve_exact", _failing_on_petersen(exact.solve_exact, KeyboardInterrupt()))
    path = write(tmp_path, "in.g6", "C~\n" + PETERSEN_G6 + "\n")
    with pytest.raises(KeyboardInterrupt):
        main(["solve", path])
    capsys.readouterr()


def test_solve_isolates_a_failing_parse(tmp_path, capsys, caplog, monkeypatch):
    # an exception from the parse that is no DeltaMinError fails its graph
    # alone, as one from the solve does
    real_parse = cli.parse_graph6

    def parse(text):
        if text == PETERSEN_G6:
            raise ValueError("odd bytes")
        return real_parse(text)

    monkeypatch.setattr(cli, "parse_graph6", parse)
    path = write(tmp_path, "in.g6", "C~\n" + PETERSEN_G6 + "\nC~\n")
    code, out, _ = run_main(["solve", path], capsys=capsys)
    assert code == 1
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert recs[1] == {"index": 1, "error": "ValueError: odd bytes", "offset": None}
    assert [(r["index"], r["s"]) for r in recs if "s" in r] == [(0, 0), (2, 0)]
    assert "graph 1: ValueError" in caplog.text
    assert "Traceback" in caplog.text


@pytest.mark.parametrize("text, line, n", [
    ("3000000000 0\n", 1, 3000000000),
    ("0 4000000000\n", 1, 4000000001),
    ("20000000 0\n", 1, 20000000),
    ("0 1\n# far\n\n5 2000000\n", 4, 2000001),
], ids=["header", "label", "header-20M", "later-line"])
def test_solve_refuses_an_edge_list_over_the_vertex_bound(tmp_path, capsys, text, line, n):
    # refused before the graph is built, as the error record of the graph
    path = write(tmp_path, "in.edges", text)
    code, out, _ = run_main(["solve", path, "--format", "edgelist"], capsys=capsys)
    assert code == 1
    message = f"line {line}: {n} vertices, more than the 2000000 an edge list may hold"
    assert json.loads(out) == {"index": 0, "error": message, "offset": None}


def _modules_loaded_by(*argvs):
    """The modules a fresh interpreter loads, beyond those it starts with,
    to import the CLI and run main on each argv."""
    script = (
        "import sys\n"
        "start = set(sys.modules)\n"
        "from deltamin.cli import main\n"
        + "".join(f"main({argv!r})\n" for argv in argvs)
        + "print(' '.join(sorted(set(sys.modules) - start)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_solve_builds_no_pool_without_work(tmp_path):
    # empty input and --jobs 1 never compile the workers module; solve within
    # the exact limit loads the exact search but not the heuristic, the
    # Kempe toolkit, the generators, the structure layer or the checks
    empty = write(tmp_path, "empty.g6", "")
    one = write(tmp_path, "one.g6", "C~\n")
    loaded = _modules_loaded_by(["solve", empty, "--jobs", "2"], ["solve", one, "--jobs", "1"])
    assert "deltamin.exact" in loaded
    # solve records are written without json
    assert not loaded & {
        "deltamin.workers", "concurrent.futures", "deltamin.solver", "deltamin.colouring", "deltamin.generators",
        "deltamin.structure", "deltamin.checks", "json",
    }


def test_solve_loads_the_heuristic_above_the_exact_limit(tmp_path):
    path = write(tmp_path, "in.g6", PETERSEN_G6 + "\n")
    assert "deltamin.solver" not in _modules_loaded_by(["solve", path])
    assert "deltamin.solver" in _modules_loaded_by(["solve", path, "--exact-limit", "8"])


def test_analyze_on_the_heuristic_path_loads_no_checks(tmp_path):
    # the oracles live with the checks, so the heuristic does not load them
    path = write(tmp_path, "in.g6", PETERSEN_G6 + "\n")
    loaded = _modules_loaded_by(["analyze", path, "--exact-limit", "8"])
    assert "deltamin.solver" in loaded
    assert not loaded & {"deltamin.checks", "deltamin.generators"}


@pytest.mark.parametrize("argv", [["--named", "k4"], ["--cubic", "6"], ["--random", "8"]], ids=lambda a: a[0])
def test_generate_loads_only_the_graph_codecs(argv):
    loaded = _modules_loaded_by(["generate", *argv])
    assert "deltamin.graphs" in loaded
    # --cubic builds no named or random graph
    assert ("deltamin.generators" in loaded) == (argv[0] != "--cubic")
    assert not loaded & {
        "deltamin.colours", "deltamin.colouring", "deltamin.exact", "deltamin.solver", "deltamin.structure",
        "deltamin.checks", "deltamin.workers", "logging", "json", "dataclasses",
    }


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_analyze_and_verify_load_the_structure_layer(tmp_path, command):
    grf = write(tmp_path, "in.g6", "C~\n")
    col = write(tmp_path, "colours.jsonl", witness_line("C~") + "\n")
    argv = [command, grf] + (["--colouring", col] if command == "verify" else [])
    loaded = _modules_loaded_by(argv)
    assert "deltamin.structure" in loaded
    assert "json" in loaded


@pytest.mark.parametrize("command", ["solve", "analyze", "verify"])
def test_solving_commands_load_no_dataclasses(tmp_path, command):
    # the records are named tuples: dataclasses would bring inspect (with
    # ast, dis and tokenize) into every start; two graphs and --jobs 2 fork
    # two workers without the standard library's process pools, and their
    # pipes carry marshal frames, not pickles
    grf = write(tmp_path, "in.g6", "C~\n" + PETERSEN_G6 + "\n")
    col = write(tmp_path, "colours.jsonl", witness_line("C~") + "\n" + witness_line(PETERSEN_G6) + "\n")
    argv = [command, grf, "--jobs", "2"] + (["--colouring", col] if command == "verify" else [])
    loaded = _modules_loaded_by(argv)
    assert "deltamin.workers" in loaded
    assert not loaded & {
        "concurrent.futures", "multiprocessing", "dataclasses", "inspect", "pickle", "_pickle", "_compat_pickle",
    }


# an os.fork that records the package modules loaded at its first call and
# then forks
_RECORDING_FORK = """
import os
at_fork = []
real_fork = os.fork

def recording_fork():
    if not at_fork:
        at_fork.append(sorted(m for m in sys.modules if m.startswith("deltamin.")))
    return real_fork()

os.fork = recording_fork
"""


@pytest.mark.parametrize("command, needed", [
    ("solve", {"deltamin.exact"}),
    ("analyze", {"deltamin.exact", "deltamin.structure"}),
    ("verify", {"deltamin.colouring", "deltamin.structure"}),
])
def test_solving_modules_load_before_the_pool_forks(command, needed):
    # a module first imported in a worker is imported again by every worker
    argv = [command, str(GOLDEN / f"{'verify' if command == 'verify' else 'solve'}_batch.g6"), "--jobs", "2"]
    if command == "verify":
        argv += ["--colouring", str(GOLDEN / "verify_batch_colouring.jsonl")]
    script = (
        "import sys\n"
        + _RECORDING_FORK
        + "from deltamin.cli import main\n"
        f"main({argv!r})\n"
        "assert len(at_fork) == 1\n"
        "print(' '.join(at_fork[0]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert needed <= set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("graphs, jobs, workers", [(2, 64, 2), (9, 2, 2), (9, 1, 0), (1, 2, 0)])
def test_pool_starts_at_most_one_worker_per_chunk(tmp_path, capsys, monkeypatch, graphs, jobs, workers):
    # one fork per worker, and one worker per chunk at most: 2 graphs at
    # --jobs 64 come in chunks of 1, 9 at --jobs 2 in chunks of 2; a batch
    # for one worker runs in this process and forks none
    from deltamin import workers as workers_module

    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    plans = []
    real_fork_map = workers_module.fork_map

    def recording_fork_map(run, chunks, workers):
        chunks = list(chunks)
        plans.append(([len(c) for c in chunks], workers))
        return real_fork_map(run, chunks, workers)

    lines = (GOLDEN / "solve_batch.g6").read_text().splitlines()
    path = write(tmp_path, "in.g6", "".join(ln + "\n" for ln in lines[-graphs:]))
    _, serial, _ = run_main(["solve", path], capsys=capsys)
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(workers_module, "fork_map", recording_fork_map)
    _, pooled, _ = run_main(["solve", path, "--jobs", str(jobs)], capsys=capsys)
    assert len(forks) == workers
    size = -(-graphs // (4 * jobs))
    assert plans == ([([size] * (graphs // size) + [graphs % size] * (graphs % size > 0), workers)] if workers else [])
    assert pooled == serial


def test_batch_runs_in_process_where_fork_is_missing():
    # the same bytes as --jobs 1, and the workers module is never compiled
    path = str(GOLDEN / "solve_batch.g6")
    serial = subprocess.run(
        [sys.executable, "-m", "deltamin", "solve", path, "--jobs", "1"], capture_output=True, text=True, timeout=60,
    )
    script = (
        "import os, sys\n"
        "del os.fork\n"
        "from deltamin.cli import main\n"
        f"status = main({['solve', path, '--jobs', '2']!r})\n"
        "sys.stdout.flush()\n"
        "assert 'deltamin.workers' not in sys.modules\n"
        "sys.exit(status)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (serial.returncode, serial.stdout, serial.stderr)


# a file left open when the interpreter ends prints a ResourceWarning
_STRICT_PYTHON = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning"]


def _group_gone(pgid, limit_s=5.0):
    """Whether process group pgid empties within limit_s seconds."""
    end = time.monotonic() + limit_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > end:
            return False
        time.sleep(0.05)


# runs solve with exact.solve_exact patched to end its process on Petersen
_DYING_WORKER = """
import os, sys
from deltamin import exact
from deltamin.cli import main_entry

real = exact.solve_exact

def solve(g):
    if g.vertex_count == 10:
        os._exit(3)
    return real(g)

exact.solve_exact = solve
sys.argv = ["deltamin"] + sys.argv[1:]
main_entry()
"""


# runs solve with the output of graph 4 replaced by a value that marshal
# cannot encode
_UNMARSHALLABLE_RESULT = """
import sys
from deltamin import cli
from deltamin.cli import main_entry

real = cli._graph_output

def output(args, index, payload, colouring):
    return object() if index == 4 else real(args, index, payload, colouring)

cli._graph_output = output
sys.argv = ["deltamin"] + sys.argv[1:]
main_entry()
"""


# runs solve with os.fork failing as it does when processes run out, on its
# second call
_FAILING_FORK = """
import errno, os, sys
from deltamin.cli import main_entry

real, calls = os.fork, []

def fork():
    calls.append(None)
    if len(calls) == 2:
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    return real()

os.fork = fork
sys.argv = ["deltamin"] + sys.argv[1:]
main_entry()
"""


# runs solve with os.pipe failing as it does when descriptors run out, on
# its third call: the first pipe of the second worker
_FAILING_PIPE = """
import errno, os, sys
from deltamin.cli import main_entry

real, calls = os.pipe, []

def pipe():
    calls.append(None)
    if len(calls) == 3:
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
    return real()

os.pipe = pipe
sys.argv = ["deltamin"] + sys.argv[1:]
main_entry()
"""


# runs the command holding 1,100 more descriptors open, so the workers'
# pipes get numbers past select's limit of 1,024
_MANY_DESCRIPTORS = """
import os, resource, sys
from deltamin.cli import main_entry

soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, 2048), hard))
held = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
sys.argv = ["deltamin"] + sys.argv[1:]
main_entry()
"""


def _run_in_own_group(script, *argv):
    """(exit status, stdout, stderr) of script run with argv in a new process
    group, once that group has emptied."""
    proc = subprocess.Popen(
        [*_STRICT_PYTHON, "-c", script, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert _group_gone(proc.pid)
    return proc.returncode, out, err


def test_a_dying_worker_stops_the_batch_and_leaves_no_process(tmp_path):
    # 9 graphs at --jobs 2 go in chunks of 2; the worker that takes Petersen
    # (graph 4) dies with chunk 2, so chunks 0 and 1 still come out
    lines = ["C~"] * 4 + [PETERSEN_G6, emit_graph6(make_named("k33"))] + ["C~"] * 3
    path = write(tmp_path, "in.g6", "".join(ln + "\n" for ln in lines))
    status, out, err = _run_in_own_group(_DYING_WORKER, "solve", path, "--jobs", "2")
    assert status == 2
    assert err == "deltamin solve: the worker for graphs 4-5 exited with status 3 before returning them\n"
    assert [json.loads(ln)["index"] for ln in out.splitlines()] == [0, 1, 2, 3]


def test_an_unmarshallable_result_stops_the_batch_and_leaves_no_process(tmp_path):
    # the worker holding graphs 4-5 cannot send their results: it names
    # the cause and exits with status 1, so chunks 0 and 1 still come out
    path = write(tmp_path, "in.g6", "C~\n" * 9)
    status, out, err = _run_in_own_group(_UNMARSHALLABLE_RESULT, "solve", path, "--jobs", "2")
    assert status == 2
    assert err == (
        "deltamin worker: ValueError: unmarshallable object\n"
        "deltamin solve: the worker for graphs 4-5 exited with status 1 before returning them\n"
    )
    assert [json.loads(ln)["index"] for ln in out.splitlines()] == [0, 1, 2, 3]


def test_a_failed_fork_stops_the_batch_and_leaves_no_process(tmp_path):
    # the first worker is forked and then reaped; no graph is written
    path = write(tmp_path, "in.g6", "C~\n" * 9)
    assert _run_in_own_group(_FAILING_FORK, "solve", path, "--jobs", "2") == (
        2, "", f"deltamin solve: cannot fork worker 2: {os.strerror(errno.EAGAIN)}\n",
    )


def test_a_failed_pipe_stops_the_batch_and_leaves_no_process(tmp_path):
    path = write(tmp_path, "in.g6", "C~\n" * 9)
    assert _run_in_own_group(_FAILING_PIPE, "solve", path, "--jobs", "2") == (
        2, "", f"deltamin solve: cannot fork worker 2: {os.strerror(errno.EMFILE)}\n",
    )


def test_workers_wait_on_descriptors_past_the_select_limit(tmp_path, capsys):
    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    if hard != resource.RLIM_INFINITY and hard < 2048:
        pytest.skip(f"descriptor hard limit {hard} is under 2048")
    path = write(tmp_path, "in.g6", "".join(ln + "\n" for ln in ["C~", PETERSEN_G6] * 5))
    _, serial, _ = run_main(["solve", path], capsys=capsys)
    assert _run_in_own_group(_MANY_DESCRIPTORS, "solve", path, "--jobs", "2") == (0, serial, "")


def test_workers_run_ahead_by_at_most_the_window(tmp_path, capsys, monkeypatch):
    # 40 graphs at --jobs 2 go in 8 chunks of 5; while the worker on chunk 0
    # sleeps in Petersen, the other runs ahead until 2 * 2 chunks are out
    # and not yet yielded, and no further
    from deltamin import workers as workers_module

    path = write(tmp_path, "in.g6", PETERSEN_G6 + "\n" + "C~\n" * 39)
    real_solve = exact.solve_exact

    def slow_on_petersen(g):
        if g.vertex_count == 10:
            time.sleep(1.0)
        return real_solve(g)

    out_at_draw = []
    real_fork_map = workers_module.fork_map

    def watched_fork_map(run, chunks, workers):
        yielded = 0

        def drawn():
            for drawn_so_far, chunk in enumerate(chunks, 1):
                out_at_draw.append(drawn_so_far - yielded)
                yield chunk

        for result in real_fork_map(run, drawn(), workers):
            yielded += 1
            yield result

    _, serial, _ = run_main(["solve", path], capsys=capsys)
    monkeypatch.setattr(exact, "solve_exact", slow_on_petersen)
    monkeypatch.setattr(workers_module, "fork_map", watched_fork_map)
    _, pooled, _ = run_main(["solve", path, "--jobs", "2"], capsys=capsys)
    assert pooled == serial
    assert len(out_at_draw) == 8
    assert max(out_at_draw) == 4


# starts a command and prints its exit status and peak resident set in KiB;
# a child's peak counts its parent's resident set at exec, so the command is
# started from this small process, not from the test run
_PEAK_RSS = """
import os, subprocess, sys
pid = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL).pid
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_memory_does_not_grow_with_the_input(tmp_path, jobs):
    # 40 and 400 lines of 75 KB (a perfect matching on 950 vertices); when
    # the whole input was held, the 400-line run peaked 51 MB higher
    line = emit_graph6(Graph(950, [(2 * i, 2 * i + 1) for i in range(475)]))
    peaks = []
    for count in (40, 400):
        path = write(tmp_path, f"in{count}.g6", (line + "\n") * count)
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "deltamin", "solve", path, "--jobs", jobs],
            capture_output=True, text=True, timeout=120,
        )
        status, peak_kib = map(int, proc.stdout.split())
        assert status == 0, proc.stderr
        peaks.append(peak_kib)
    assert abs(peaks[1] - peaks[0]) < 3 * 1024, peaks


def test_solve_heuristic_above_exact_limit(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "in.g6", PETERSEN_G6 + "\n")
    code, out, _ = run_main(["solve", path, "--exact-limit", "8"], capsys=capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] in ("TwoFactorUpperBound", "HeuristicUpperBound")
    assert rec["s"] >= 2


def test_solve_jobs_match_serial(tmp_path, capsys, monkeypatch):
    lines = "".join(
        emit_graph6(g) + "\n" for g in [make_named("k4"), make_named("k33"), make_named("petersen")]
    )
    path = write(tmp_path, "in.g6", lines)
    _, serial, _ = run_main(["solve", path], capsys=capsys)
    _, parallel, _ = run_main(["solve", path, "--jobs", "2"], capsys=capsys)
    assert serial == parallel


def test_solve_byte_stable(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "in.g6", PETERSEN_G6 + "\nC~\n")
    _, first, _ = run_main(["solve", path, "--seed", "5"], capsys=capsys)
    _, second, _ = run_main(["solve", path, "--seed", "5"], capsys=capsys)
    assert first == second


# ---------------------------------------------------------------------------
# verify


def witness_line(g6: str) -> str:
    # colour files are positional over the parsed graph's edge order, so the
    # witness must come from the same parse the verifier will do
    return solve_exact(parse_graph6(g6)).witness.to_json()


def test_verify_solved_witnesses(tmp_path, capsys, monkeypatch):
    grf = write(tmp_path, "in.g6", "C~\n" + PETERSEN_G6 + "\n")
    col = write(
        tmp_path,
        "colours.jsonl",
        witness_line("C~") + "\n" + witness_line(PETERSEN_G6) + "\n",
    )
    code, out, _ = run_main(["verify", grf, "--colouring", col], capsys=capsys)
    assert code == 0
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert len(recs) == 2
    assert all(cl["pass"] for rec in recs for cl in rec["clauses"])
    assert recs[1]["s"] == 2


def test_verify_corrupted_colouring_fails(tmp_path, capsys, monkeypatch):
    w = solve_exact(parse_graph6(PETERSEN_G6)).witness
    codes = list(w.codes)
    delta_at = codes.index("d")
    codes[delta_at] = "a"  # breaks properness at some vertex
    grf = write(tmp_path, "in.g6", PETERSEN_G6 + "\n")
    col = write(tmp_path, "colours.jsonl", json.dumps({"colours": codes}) + "\n")
    code, out, _ = run_main(["verify", grf, "--colouring", col], capsys=capsys)
    assert code == 1
    rec = json.loads(out)
    assert "error" in rec  # improper colourings are rejected outright


def test_verify_wrong_length_line(tmp_path, capsys, monkeypatch):
    grf = write(tmp_path, "in.g6", PETERSEN_G6 + "\n")
    col = write(tmp_path, "colours.jsonl", json.dumps({"colours": ["a", "b"]}) + "\n")
    code, out, _ = run_main(["verify", grf, "--colouring", col], capsys=capsys)
    assert code == 1
    assert "error" in json.loads(out)


def test_verify_missing_line(tmp_path, capsys, monkeypatch):
    grf = write(tmp_path, "in.g6", "C~\n" + PETERSEN_G6 + "\n")
    col = write(tmp_path, "colours.jsonl", witness_line("C~") + "\n")
    code, out, _ = run_main(["verify", grf, "--colouring", col], capsys=capsys)
    assert code == 1
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert "error" in recs[1]


def test_verify_clause_failure_has_witness(tmp_path, capsys, monkeypatch):
    # proper colouring of C4 with a delta edge: classification holds but the
    # associated cycle is even, which the verifier must flag with a witness
    g6 = emit_graph6(make_named("cycle", 4))
    by_edge = {(0, 1): "a", (1, 2): "b", (2, 3): "a", (0, 3): "d"}
    codes = [by_edge[e] for e in parse_graph6(g6).edges]
    grf = write(tmp_path, "in.g6", g6 + "\n")
    col = write(tmp_path, "colours.jsonl", json.dumps({"colours": codes}) + "\n")
    code, out, _ = run_main(["verify", grf, "--colouring", col], capsys=capsys)
    assert code == 1
    rec = json.loads(out)
    failing = {cl["id"]: cl for cl in rec["clauses"] if not cl["pass"]}
    assert "cycle_oddness" in failing
    assert failing["cycle_oddness"]["witness"] is not None
    passing = [cl for cl in rec["clauses"] if cl["pass"]]
    assert all(cl["witness"] is None for cl in passing)


def test_verify_refuses_more_colourings_than_graphs(tmp_path, capsys):
    # a surplus line means the colourings belong to other input, so no
    # record is trusted: exit 2 before any output
    grf = write(tmp_path, "in.g6", PETERSEN_G6 + "\n")
    col = write(tmp_path, "colours.jsonl", (witness_line(PETERSEN_G6) + "\n\n") * 2)
    code, out, err = run_main(["verify", grf, "--colouring", col], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"deltamin verify: {col} holds 2 colourings for 1 graphs\n"


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_verify_batch_matches_golden(capsys, jobs):
    # witnesses, a failing clause, malformed and improper colourings, a
    # truncated graph6 line and two graphs without a colouring line
    argv = [
        "verify", str(GOLDEN / "verify_batch.g6"),
        "--colouring", str(GOLDEN / "verify_batch_colouring.jsonl"), "--jobs", jobs,
    ]
    code, out, _ = run_main(argv, capsys=capsys)
    assert code == 1
    assert out.encode("ascii") == (GOLDEN / "verify_batch.jsonl").read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_isolates_a_failing_graph(tmp_path, capsys, monkeypatch, jobs):
    real_verify = structure.verify_theorem1

    def verify(colouring):
        if colouring.graph.vertex_count == 4:
            raise RuntimeError("boom")
        return real_verify(colouring)

    monkeypatch.setattr(structure, "verify_theorem1", verify)
    grf = write(tmp_path, "in.g6", "C~\n" + PETERSEN_G6 + "\n")
    col = write(
        tmp_path,
        "colours.jsonl",
        witness_line("C~") + "\n" + witness_line(PETERSEN_G6) + "\n",
    )
    code, out, _ = run_main(["verify", grf, "--colouring", col, "--jobs", jobs], capsys=capsys)
    assert code == 1
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert recs[0] == {"index": 0, "error": "RuntimeError: boom"}
    assert recs[1]["index"] == 1 and recs[1]["s"] == 2
    assert all(cl["pass"] for cl in recs[1]["clauses"])


# ---------------------------------------------------------------------------
# analyze


def test_analyze_petersen(tmp_path, capsys, monkeypatch):
    grf = write(tmp_path, "in.g6", PETERSEN_G6 + "\n")
    code, out, _ = run_main(["analyze", grf], capsys=capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["s"] == 2
    assert all(cl["pass"] for cl in rec["verification"]["clauses"])
    assert rec["parity"]["parity_ok"] is True
    assert sum(rec["parity"]["counts"]) == 2


def test_analyze_class_one_graph_has_null_parity(tmp_path, capsys, monkeypatch):
    grf = write(tmp_path, "in.g6", "C~\n")
    code, out, _ = run_main(["analyze", grf], capsys=capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["s"] == 0
    assert rec["parity"] is None


def test_analyze_heuristic_matches_golden(capsys):
    # flower snarks J9-J13 (2-factor start) and random subcubic graphs on
    # 300-600 vertices (greedy start): witnesses and verify reports of the
    # heuristic path, byte for byte; upper-bound witnesses fail clauses
    path = str(GOLDEN / "analyze_heuristic.g6")
    code, out, _ = run_main(["analyze", path, "--exact-limit", "14"], capsys=capsys)
    assert code == 1
    assert out.encode("ascii") == (GOLDEN / "analyze_heuristic.jsonl").read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
@pytest.mark.parametrize("corpus, golden", [
    ("analyze_heuristic.g6", "analyze_heuristic.jsonl"),
    ("solve_batch.g6", "analyze_batch.jsonl"),
])
def test_analyze_matches_golden_for_any_jobs(capsys, corpus, golden, jobs):
    # analyze shares the chunked pipeline: its records, the error record of
    # the corrupt line (no offset key) included, do not depend on --jobs
    path = str(GOLDEN / corpus)
    code, out, _ = run_main(["analyze", path, "--exact-limit", "14", "--jobs", jobs], capsys=capsys)
    assert code == 1
    assert out.encode("ascii") == (GOLDEN / golden).read_bytes()


def test_analyze_parity_matches_the_reference_signature(capsys):
    # analyze reads parity off its verification report; on every exact
    # witness with s >= 1 it agrees with classify_delta_edges + parity_signature
    checked = 0
    for name in ("cubic_10.g6", "cubic_12.g6"):
        lines = (GOLDEN / name).read_text().split()
        _, out, _ = run_main(["analyze", str(GOLDEN / name)], capsys=capsys)
        for g6, rec in zip(lines, map(json.loads, out.splitlines()), strict=True):
            if rec["s"] == 0:
                assert rec["parity"] is None
                continue
            w = EdgeColouring(parse_graph6(g6), "".join(rec["colours"]))
            sig = parity_signature(classify_delta_edges(w))
            assert rec["parity"] == {"counts": list(sig.counts), "parity_ok": sig.parity_ok}
            checked += 1
    assert checked == 7


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_analyze_isolates_a_failing_graph(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr(exact, "solve_exact", _failing_on_petersen(exact.solve_exact, RuntimeError("boom")))
    lines = ["C~"] * 4 + [PETERSEN_G6] + ["C~"] * 4
    path = write(tmp_path, "in.g6", "".join(ln + "\n" for ln in lines))
    code, out, _ = run_main(["analyze", path, "--jobs", jobs], capsys=capsys)
    assert code == 1
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert recs[4] == {"index": 4, "error": "RuntimeError: boom"}
    assert [r["s"] for r in recs if "s" in r] == [0] * 8


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_edge_list_input_gives_the_graph6_record(tmp_path, capsys, command):
    # an edge-list file holds one graph, whose colouring is line 0 of the
    # colouring file (blank lines do not count); its record is the one its
    # graph6 line gives
    col = write(tmp_path, "colours.jsonl", "\n" + witness_line(PETERSEN_G6) + "\n")
    runs = []
    for fmt, text in (("graph6", PETERSEN_G6 + "\n"), ("edgelist", emit_edge_list(parse_graph6(PETERSEN_G6)))):
        argv = [command, write(tmp_path, fmt, text), "--format", fmt]
        runs.append(run_main(argv + (["--colouring", col] if command == "verify" else []), capsys=capsys))
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0 and json.loads(out)["s"] == 2


def test_analyze_bad_line_errors(tmp_path, capsys, monkeypatch):
    grf = write(tmp_path, "in.g6", "C\n")
    code, out, _ = run_main(["analyze", grf], capsys=capsys)
    assert code == 1
    assert "error" in json.loads(out)


# ---------------------------------------------------------------------------
# generate


def test_generate_named(capsys, monkeypatch):
    code, out, _ = run_main(["generate", "--named", "petersen"], capsys=capsys)
    assert code == 0
    assert parse_graph6(out.strip()) == make_named("petersen")


def test_generate_named_sized(capsys, monkeypatch):
    code, out, _ = run_main(["generate", "--named", "cycle", "--size", "5"], capsys=capsys)
    assert code == 0
    assert parse_graph6(out.strip()) == make_named("cycle", 5)


def test_generate_cubic(capsys, monkeypatch):
    code, out, _ = run_main(["generate", "--cubic", "6"], capsys=capsys)
    assert code == 0
    graphs = [parse_graph6(ln) for ln in out.splitlines()]
    assert len(graphs) == 2
    assert all(g.is_cubic() for g in graphs)


def test_generate_cubic_10_matches_golden(capsys):
    # the 19 connected cubic graphs on 10 vertices, in enumeration order
    code, out, _ = run_main(["generate", "--cubic", "10"], capsys=capsys)
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / "cubic_10.g6").read_bytes()


@pytest.mark.slow
def test_generate_cubic_12_matches_golden(capsys):
    code, out, _ = run_main(["generate", "--cubic", "12"], capsys=capsys)
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / "cubic_12.g6").read_bytes()


@pytest.mark.slow
def test_generate_cubic_14_matches_golden(capsys):
    # the 509 connected cubic graphs on 14 vertices, in enumeration order
    code, out, _ = run_main(["generate", "--cubic", "14"], capsys=capsys)
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / "cubic_14.g6").read_bytes()


def test_generate_random_deterministic(capsys, monkeypatch):
    args = ["generate", "--random", "9", "--count", "3", "--seed", "11"]
    _, first, _ = run_main(args, capsys=capsys)
    _, second, _ = run_main(args, capsys=capsys)
    assert first == second
    graphs = [parse_graph6(ln) for ln in first.splitlines()]
    assert len(graphs) == 3
    assert all(g.vertex_count == 9 for g in graphs)


def test_generate_holds_one_block_of_a_long_line(tmp_path):
    # a 33 MB line (20,000 vertices); when the line was built whole, three
    # copies of it were held and the process peaked at 125 MB, where it now
    # peaks at about 32 MB (CPython 3.11, Linux x86-64)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "deltamin", "generate", "--random", "20000"],
        capture_output=True, text=True, timeout=120,
    )
    status, peak_kib = map(int, proc.stdout.split())
    assert status == 0, proc.stderr
    assert peak_kib < 64 * 1024, peak_kib


def test_generate_errors_cleanly(capsys, monkeypatch):
    code, _, err = run_main(["generate", "--named", "nosuch"], capsys=capsys)
    assert code == 2
    assert "nosuch" in err
    code, _, err = run_main(["generate", "--cubic", "7"], capsys=capsys)
    assert code == 2
    assert "odd" in err
    code, out, err = run_main(["generate", "--random", "5", "--count", "-3"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "deltamin generate: --count must be non-negative\n"
    code, out, err = run_main(["generate", "--random", "0", "--count", "0"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "deltamin generate: need at least one vertex\n"


@pytest.mark.parametrize("argv, flag, kind", [
    (["--cubic", "4", "--size", "4"], "size", "named"),
    (["--random", "3", "--size", "4"], "size", "named"),
    (["--named", "petersen", "--count", "3"], "count", "random"),
    (["--cubic", "4", "--count", "3"], "count", "random"),
    (["--named", "petersen", "--seed", "0"], "seed", "random"),
    (["--cubic", "4", "--seed", "1"], "seed", "random"),
], ids=["size-cubic", "size-random", "count-named", "count-cubic", "seed-named", "seed-cubic"])
def test_generate_refuses_a_flag_its_graphs_do_not_use(capsys, argv, flag, kind):
    code, out, err = run_main(["generate", *argv], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"deltamin generate: --{flag} applies only to --{kind}\n"


@pytest.mark.parametrize("argv, n", [
    (["--named", "cycle", "--size", "258048"], 258048),
    (["--named", "flower", "--size", "64513"], 258052),
    (["--random", "258048", "--count", "1"], 258048),
], ids=["cycle", "flower", "random"])
def test_generate_refuses_what_graph6_cannot_encode(capsys, monkeypatch, argv, n):
    # refused before the graph is built: one past the largest graph6 size
    monkeypatch.setattr(generators, "make_named", None)
    monkeypatch.setattr(generators, "random_subcubic", None)
    code, out, err = run_main(["generate", *argv], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"deltamin generate: graph6 encodes at most 258047 vertices, not {n}\n"


# ---------------------------------------------------------------------------
# suite


@pytest.mark.parametrize("args, golden", [
    ([], "suite_seed0.txt"),
    (["--seed", "1"], "suite_seed1.txt"),
    # four suites need exact solving up to n=10 and are skipped
    (["--exact-limit", "4"], "suite_exact_limit4.txt"),
], ids=["seed0", "seed1", "exact_limit4"])
def test_suite_matches_golden(capsys, args, golden):
    code, out, _ = run_main(["suite", *args], capsys=capsys)
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / golden).read_bytes()


def test_suite_reports_a_failing_check(capsys, monkeypatch):
    # a check that disagrees fails its own line only, with the first failure
    monkeypatch.setattr(checks, "resistance_exact", lambda g: -1)
    code, out, _ = run_main(["suite"], capsys=capsys)
    assert code == 1
    want = (GOLDEN / "suite_seed0.txt").read_text().splitlines()
    got = out.splitlines()
    assert got[4] == "suite resistance-equivalence: FAIL (cubic n=4 graph 0: resistance -1 != s 0; 126 more)"
    assert got[:4] + got[5:] == want[:4] + want[5:]


def test_suite_verdicts_independent_of_seed(capsys, monkeypatch):
    _, a, _ = run_main(["suite", "--exact-limit", "4", "--seed", "1"], capsys=capsys)
    _, b, _ = run_main(["suite", "--exact-limit", "4", "--seed", "2"], capsys=capsys)
    strip = lambda text: [ln.split("(")[0] for ln in text.splitlines()[1:]]
    assert strip(a) == strip(b)


# ---------------------------------------------------------------------------
# configuration and wiring


@pytest.mark.parametrize("argv, message", [
    (["solve", "-", "--exact-limit", "3"], "--exact-limit must be at least 4"),
    (["analyze", "-", "--exact-limit", "3"], "--exact-limit must be at least 4"),
    (["suite", "--exact-limit", "3"], "--exact-limit must be at least 4"),
    (["solve", "-", "--jobs", "0"], "--jobs must be at least 1"),
    (["analyze", "-", "--jobs", "0"], "--jobs must be at least 1"),
    (["verify", "-", "--colouring", "colours.jsonl", "--jobs", "0"], "--jobs must be at least 1"),
], ids=["solve-exact-limit", "analyze-exact-limit", "suite-exact-limit", "solve-jobs", "analyze-jobs", "verify-jobs"])
def test_out_of_range_options_exit_with_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: deltamin ")
    assert err.endswith(f"\ndeltamin: error: {message}\n")


def test_bad_flags_exit_with_usage(capsys, monkeypatch):
    # suite runs no batch of graphs, so it has no --jobs
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--exact-limit", "3"]])
def test_verify_takes_no_solving_options(capsys, flag):
    # verify solves nothing, so it has no --seed or --exact-limit
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-", "--colouring", "colours.jsonl", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# deltamin's --help and each subcommand's, and the usage error of a batch
# command given no input
HELP_ARGVS = [["--help"], *([cmd, "--help"] for cmd in ("solve", "verify", "analyze", "generate", "suite")), ["solve"]]


def test_parser_surface_matches_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    parts = []
    for argv in HELP_ARGVS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        parts.append(f"$ deltamin {' '.join(argv)}\n{out}{err}exit {exc.value.code}\n")
    assert "".join(parts).encode("utf-8") == (GOLDEN / "cli_help.txt").read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "deltamin", "generate", "--named", "k4"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "C~"


@pytest.mark.parametrize("argv", [
    ["solve", "{many}", "--jobs", "1"],
    ["solve", "{many}", "--jobs", "2"],
    ["generate", "--random", "12", "--count", "20000"],
], ids=["solve-jobs1", "solve-jobs2", "generate"])
def test_closed_output_pipe_stops_quietly(tmp_path, argv):
    # the reader takes one line and goes away while the command still has far
    # more output than a pipe holds; no worker outlives the command
    many = write(tmp_path, "many.g6", "".join(emit_graph6(random_subcubic(12, seed)) + "\n" for seed in range(3000)))
    proc = subprocess.Popen(
        [*_STRICT_PYTHON, "-m", "deltamin", *(a.format(many=many) for a in argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert _group_gone(proc.pid)
    assert proc.returncode == 1
    assert err == ""


def test_generate_streams_to_a_closed_pipe():
    # each graph is written as it is made, so a reader that leaves after one
    # line ends the run long before 20000 graphs are built
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltamin", "generate", "--random", "12", "--count", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert parse_graph6(proc.stdout.readline().strip()).vertex_count == 12
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 1
    assert "Traceback" not in err, err
    # about 0.2 s; building every graph first took 2.8 s
    assert (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime) < 1.0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_error_log_line_is_unchanged(tmp_path, monkeypatch, jobs):
    # logging is configured at the first line logged, in the format that was
    # configured at start-up before
    monkeypatch.delenv("DELTAMIN_LOG", raising=False)
    path = write(tmp_path, "in.g6", "C~\nC\nC~\n")
    proc = subprocess.run(
        [sys.executable, "-m", "deltamin", "solve", path, "--jobs", jobs],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == "ERROR deltamin: graph 1: truncated graph6 data: expected 2 bytes, got 1 (byte offset 1)\n"


def test_log_env_var_sets_the_level(monkeypatch):
    monkeypatch.setenv("DELTAMIN_LOG", "DEBUG")
    script = (
        "import logging\n"
        "from deltamin.cli import main\n"
        "main(['generate', '--named', 'k4'])\n"
        "print(logging.getLogger().level == logging.DEBUG)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["C~", "True"]


def test_log_env_var_tolerated(monkeypatch, capsys):
    monkeypatch.setenv("DELTAMIN_LOG", "not-a-level")
    code, out, _ = run_main(["generate", "--named", "k4"], capsys=capsys)
    assert code == 0
