import contextlib
import gc
import io
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdfa import cli, formats
from fdfa.cli import main
from fdfa.formats import serialize_dfa

from conftest import count_calls, dfas, sigma_upto, trie_on_kernel

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "fdfa", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def fix(name):
    return str(FIXTURES / f"{name}.dfa")


def test_check_ok():
    r = run_cli("check", fix("onezstar"))
    assert r.returncode == 0
    assert r.stdout == "ok\nstates 3\nalphabet 01\nstart 0\naccepting 1\n"


def test_check_rejects_malformed_file(tmp_path):
    bad = tmp_path / "bad.dfa"
    bad.write_text("dfa v1\nalphabet 01\nstates 1\nstart 0\naccept -\n0 0 0\n")
    r = run_cli("check", str(bad))
    assert r.returncode == 2
    assert "incomplete transition table" in r.stderr
    r = run_cli("check", str(bad), "--complete")
    assert r.returncode == 0


def test_check_missing_file():
    r = run_cli("check", "no-such-file.dfa")
    assert r.returncode == 2
    assert "cannot read" in r.stderr


def test_minimize_writes_canonical_machine(tmp_path):
    out = tmp_path / "m.dfa"
    r = run_cli("minimize", fix("onezstar"), "-o", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    text = out.read_text()
    assert "states 3" in text
    again = run_cli("minimize", str(out))
    assert again.stdout == text  # stdout default, already canonical


def test_fminimize_sigplus_trace(tmp_path):
    out = tmp_path / "out.dfa"
    r = run_cli("fminimize", fix("sigplus"), "-o", str(out), "--trace")
    assert r.returncode == 0
    assert r.stdout == "merge p=0 into q=1 class=0 bound=1x1\n"
    assert out.read_text() == (FIXTURES / "all.dfa").read_text()


def test_fminimize_output_is_a_fixpoint(tmp_path):
    first = tmp_path / "first.dfa"
    second = tmp_path / "second.dfa"
    run_cli("fminimize", fix("sigplus"), "-o", str(first))
    assert run_cli("check", str(first)).returncode == 0
    run_cli("fminimize", str(first), "-o", str(second))
    assert first.read_text() == second.read_text()


def test_parts_lines():
    r = run_cli("parts", fix("onezstar"))
    assert r.returncode == 0
    assert r.stdout == "finite: 0\ninfinite: 1 2\n"
    r = run_cli("parts", fix("zstar"))
    assert r.stdout == "finite:\ninfinite: 0 1\n"


def test_classes_lines():
    r = run_cli("classes", fix("onezstar"))
    assert r.stdout == "class 0: 0\nclass 1: 1\nclass 2: 2\n"
    r = run_cli("classes", fix("sigplus"))
    assert r.stdout == "class 0: 0 1\n"


def test_diff_finite():
    r = run_cli("diff", fix("sigplus"), fix("all"))
    assert r.returncode == 0
    assert r.stdout == "finite 1\n@\n"


def test_diff_of_equal_languages_prints_only_the_count():
    r = run_cli("diff", fix("zstar"), fix("zstar"))
    assert (r.returncode, r.stdout) == (0, "finite 0\n")


def test_diff_infinite():
    r = run_cli("diff", fix("odd"), fix("even"))
    assert r.returncode == 1
    lines = r.stdout.splitlines()
    assert lines[0] == "infinite"
    assert lines[1].startswith("witness ")


def test_findiff_verdicts():
    r = run_cli("findiff", fix("odd"), fix("even"))
    assert (r.returncode, r.stdout) == (1, "not-finitely-different\n")
    r = run_cli("findiff", fix("sigplus"), fix("all"))
    assert (r.returncode, r.stdout) == (0, "finitely-different\n")


def test_iso_infinite_part():
    r = run_cli("iso", fix("zstar"), fix("onezstar"), "--part", "infinite")
    assert r.returncode == 0
    assert r.stdout == "0 -> 1\n1 -> 2\n"


def test_iso_not_isomorphic():
    r = run_cli("iso", fix("zstar"), fix("all"), "--part", "infinite")
    assert r.returncode == 1
    assert r.stdout == "NOT-ISOMORPHIC\n"


def test_iso_hypothesis_failure_is_usage_error():
    r = run_cli("iso", fix("sigplus"), fix("all"), "--part", "finite")
    assert r.returncode == 2
    assert "not f-minimal" in r.stderr


FIXTURE_NAMES = ("all", "empty", "even", "odd", "onezstar", "sigplus", "zstar")

# `fdfa iso` on every ordered pair of fixtures, as (exit code, stdout, stderr).
# A pair not listed here prints NOT-ISOMORPHIC under --part infinite, and
# fails with "automata are not finitely different" under --part finite.
ISO_OUTPUTS = {
    ("infinite", "all", "all"): (0, "0 -> 0\n", ""),
    ("infinite", "all", "sigplus"): (0, "0 -> 1\n", ""),
    ("infinite", "empty", "empty"): (0, "0 -> 0\n", ""),
    ("infinite", "even", "even"): (0, "0 -> 0\n1 -> 1\n", ""),
    ("infinite", "even", "odd"): (0, "0 -> 1\n1 -> 0\n", ""),
    ("infinite", "odd", "even"): (0, "0 -> 1\n1 -> 0\n", ""),
    ("infinite", "odd", "odd"): (0, "0 -> 0\n1 -> 1\n", ""),
    ("infinite", "onezstar", "onezstar"): (0, "1 -> 1\n2 -> 2\n", ""),
    ("infinite", "onezstar", "zstar"): (0, "1 -> 0\n2 -> 1\n", ""),
    ("infinite", "sigplus", "all"): (0, "1 -> 0\n", ""),
    ("infinite", "sigplus", "sigplus"): (0, "1 -> 1\n", ""),
    ("infinite", "zstar", "onezstar"): (0, "0 -> 1\n1 -> 2\n", ""),
    ("infinite", "zstar", "zstar"): (0, "0 -> 0\n1 -> 1\n", ""),
    ("finite", "all", "all"): (0, "", ""),
    ("finite", "empty", "empty"): (0, "", ""),
    ("finite", "even", "even"): (0, "", ""),
    ("finite", "odd", "odd"): (0, "", ""),
    ("finite", "onezstar", "onezstar"): (0, "0 -> 0\n", ""),
    ("finite", "zstar", "zstar"): (0, "", ""),
    **{("finite", "sigplus", name): (2, "", "fdfa: error: left automaton is not f-minimal\n")
       for name in FIXTURE_NAMES},
    **{("finite", name, "sigplus"): (2, "", "fdfa: error: right automaton is not f-minimal\n")
       for name in FIXTURE_NAMES if name != "sigplus"},
}


@pytest.mark.parametrize("part", ["infinite", "finite"])
@pytest.mark.parametrize("left", FIXTURE_NAMES)
@pytest.mark.parametrize("right", FIXTURE_NAMES)
def test_iso_output_on_every_pair_of_fixtures(part, left, right, capsys):
    default = ((1, "NOT-ISOMORPHIC\n", "") if part == "infinite"
               else (2, "", "fdfa: error: automata are not finitely different\n"))
    code, out, err, _ = run_main(["iso", "--part", part, fix(left), fix(right)], capsys)
    assert (code, out, err) == ISO_OUTPUTS.get((part, left, right), default)


def test_construct_round_trip(tmp_path):
    words = tmp_path / "w.txt"
    words.write_text("@\n0\n11\n")
    left = tmp_path / "l.dfa"
    right = tmp_path / "r.dfa"
    r = run_cli(
        "construct", "--words", str(words), "--alphabet", "01",
        "-o1", str(left), "-o2", str(right),
    )
    assert r.returncode == 0
    d = run_cli("diff", str(left), str(right))
    assert d.stdout == "finite 3\n@\n0\n11\n"


def test_construct_minimize_flag(tmp_path):
    words = tmp_path / "w.txt"
    words.write_text("0\n")
    left = tmp_path / "l.dfa"
    right = tmp_path / "r.dfa"
    r = run_cli(
        "construct", "--words", str(words), "--alphabet", "01",
        "-o1", str(left), "-o2", str(right), "--minimize",
    )
    assert r.returncode == 0
    d = run_cli("diff", str(left), str(right))
    assert d.stdout == "finite 1\n0\n"


def test_random_is_reproducible():
    a = run_cli("random", "--states", "3", "--alphabet", "01", "--seed", "7")
    b = run_cli("random", "--states", "3", "--alphabet", "01", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.startswith("dfa v1\n")
    c = run_cli("random", "--states", "3", "--alphabet", "01", "--seed", "8")
    assert c.stdout != a.stdout


def test_random_output_passes_check(tmp_path):
    out = tmp_path / "r.dfa"
    run_cli("random", "--states", "4", "--alphabet", "ab", "--seed", "3", "-o", str(out))
    assert run_cli("check", str(out)).returncode == 0


@pytest.mark.parametrize("alphabet, message", [
    ("", "alphabet is empty"), ("00", "duplicate alphabet symbol '0'")])
def test_random_rejects_a_bad_alphabet_in_one_line(alphabet, message):
    r = run_cli("random", "--states", "2", "--alphabet", alphabet, "--seed", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"fdfa: error: {message}\n"


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS as Linux enforces it")
@pytest.mark.parametrize("command", ["construct", "random"])
def test_running_out_of_memory_is_a_usage_error(command, tmp_path):
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    if command == "construct":
        # the pair's table grows as 2^(longest word + 1)
        words = tmp_path / "words.txt"
        words.write_text("0" * 24 + "\n")
        args = ["construct", "--words", str(words), "--alphabet", "01",
                "-o1", str(tmp_path / "a.dfa"), "-o2", str(tmp_path / "b.dfa")]
    else:
        args = ["random", "--states", "100000000", "--alphabet", "01", "--seed", "1"]
    r = subprocess.run([sys.executable, "-m", "fdfa", *args], capture_output=True,
                       text=True, preexec_fn=limit_address_space)
    assert r.returncode == 2
    assert r.stderr == "fdfa: error: out of memory\n"


def test_oracle_diff_is_an_unknown_command():
    r = run_cli("oracle-diff", fix("odd"), fix("even"), "--bound", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "invalid choice: 'oracle-diff'" in r.stderr


def test_unknown_subcommand_is_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_trim_warning_goes_to_stderr(tmp_path):
    f = tmp_path / "u.dfa"
    f.write_text(
        "dfa v1\nalphabet 01\nstates 2\nstart 0\naccept 0\n"
        "0 0 0\n0 1 0\n1 0 1\n1 1 1\n"
    )
    r = run_cli("parts", str(f))
    assert r.returncode == 0
    assert "trimmed 1 unreachable state" in r.stderr
    assert r.stdout == "finite:\ninfinite: 0\n"


@pytest.mark.parametrize(
    "args",
    [
        ("check", fix("onezstar")),
        ("minimize", fix("onezstar")),
        ("fminimize", fix("sigplus"), "--trace"),
        ("parts", fix("onezstar")),
        ("classes", fix("sigplus")),
        ("diff", fix("sigplus"), fix("all")),
        ("findiff", fix("odd"), fix("even")),
        ("iso", fix("zstar"), fix("onezstar"), "--part", "infinite"),
        ("random", "--states", "5", "--alphabet", "01", "--seed", "123"),
    ],
)
def test_stdout_is_byte_stable_across_runs(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


def test_findiff_gives_a_verdict_without_listing_words(tmp_path):
    chain = tmp_path / "chain.dfa"
    chain.write_text(serialize_dfa(sigma_upto(30)))
    r = run_cli("findiff", str(chain), fix("empty"))
    assert (r.returncode, r.stdout) == (0, "finitely-different\n")


def test_fminimize_trace_counts_exponential_bounds(tmp_path):
    chain = tmp_path / "chain.dfa"
    chain.write_text(serialize_dfa(sigma_upto(40)))
    r = run_cli("fminimize", str(chain), "--trace")
    assert r.returncode == 0
    first = r.stdout.splitlines()[0]
    assert first == f"merge p=40 into q=41 class=0 bound={2 ** 40}x1"


def test_main_leaks_no_option_into_the_next_call(tmp_path, capsys):
    assert main(["fminimize", fix("sigplus"), "--trace"]) == 0
    assert capsys.readouterr().out.startswith("merge p=0 into q=1 ")
    assert main(["fminimize", fix("sigplus")]) == 0
    assert "merge" not in capsys.readouterr().out

    short = tmp_path / "short.dfa"
    short.write_text("dfa v1\nalphabet 01\nstates 1\nstart 0\naccept -\n0 0 0\n")
    assert main(["check", str(short), "--complete"]) == 0
    assert capsys.readouterr().out.startswith("ok\n")
    assert main(["check", str(short)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "incomplete transition table" in captured.err


PARSE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate", "a"],
    ["--", "findiff", "a", "b"],
    ["findiff", "Z"],
    ["findiff", "Z", "O"],
    ["findiff", "Z", "O", "extra"],
    ["findiff", "-h"],
    ["findiff", "--", "Z", "O"],
    ["iso", "Z", "O", "--part", "oracle"],
    ["iso", "Z", "O", "--part=infinite", "extra"],
    ["iso", "Z", "O", "--pa", "infinite"],
    ["iso", "Z", "O"],
    ["check", "--comp", "Z", "-o"],
    ["check", "Z", "-o", "out.dfa", "--complete"],
    ["minimize", "-oout", "a", "b"],
    ["random", "--states", "x"],
    ["random", "--states", "3", "--alphabet", "01", "--seed", "1", "--sed", "2"],
    ["construct", "-h"],
    ["fminimize", "Z", "--trace", "--bogus"],
    ["fminimize", "--trace", "O"],
    ["parts", "O", "-x", "y"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_a_command_is_parsed_as_the_two_level_parse_did(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [{"Z": fix("zstar"), "O": fix("onezstar")}.get(a, a) for a in argv]
    top_level = []
    parse_known_args = cli._PARSER.parse_known_args

    def counted(*args, **kwargs):
        top_level.append(args)
        return parse_known_args(*args, **kwargs)

    def run():
        """Exit code, stdout, stderr and the bytes of each file written."""
        for name in ("out.dfa", "out"):
            Path(name).unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        files = [Path(name).read_bytes() for name in ("out.dfa", "out") if Path(name).exists()]
        return code, captured.out, captured.err, files

    monkeypatch.setattr(cli._PARSER, "parse_known_args", counted)
    got = run()
    assert len(top_level) == (0 if argv and argv[0] in cli._COMMANDS else 1)
    # with no command known by name, every argv goes through the top-level parser
    monkeypatch.setattr(cli, "_COMMANDS", {})
    assert got == run()


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "m.dfa"
    assert main(["minimize", fix("zstar"), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"fdfa: error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["findiff", "BAD", fix("zstar")],
    ["findiff", fix("zstar"), "BAD"],
    ["construct", "--words", "BAD", "--alphabet", "01", "-o1", "a.dfa", "-o2", "b.dfa"],
])
def test_undecodable_input_names_its_file(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("BAD").write_bytes(b"\xff\xfe")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "fdfa: error: BAD: 'utf-8' codec can't decode byte 0xff"
                                       " in position 0: invalid start byte\n")


@pytest.mark.parametrize("text, error", [
    ("a b\n", "line 1: expected one word per line, got 'a b'"),
    ("# words\n0\n@0\n", "line 3: '@' may only appear alone: '@0'"),
])
def test_word_list_errors_name_the_file_and_the_line(tmp_path, monkeypatch, capsys, text, error):
    monkeypatch.chdir(tmp_path)
    Path("W").write_text(text)
    assert main(["construct", "--words", "W", "--alphabet", "01", "-o1", "a.dfa", "-o2", "b.dfa"]) == 2
    assert capsys.readouterr() == ("", f"fdfa: error: W: {error}\n")


def test_findiff_builds_no_lasso(monkeypatch, capsys):
    import fdfa.language

    calls = []
    original = fdfa.language.shortest_cycle_word

    def counted(d, q):
        calls.append(q)
        return original(d, q)

    monkeypatch.setattr(fdfa.language, "shortest_cycle_word", counted)
    assert main(["findiff", fix("odd"), fix("even")]) == 1
    assert capsys.readouterr().out == "not-finitely-different\n"
    assert calls == []


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_small = st.integers(-1, 4).map(str)
_symbol = st.sampled_from(["0", "1", "a", "@", "01", "x"])
# lines that are each close to a valid ``dfa v1`` line, in any order
_near_valid_line = st.one_of(
    st.just("dfa v1"),
    st.sampled_from(["dfa v2", "dfa", "# comment", "", "   "]),
    st.builds("alphabet {}".format, st.sampled_from(["01", "ab", "0", "00", "1@", ""])),
    st.builds("states {}".format, st.one_of(_small, st.sampled_from(["1000000", "x", "1 2"]))),
    st.builds("start {}".format, _small),
    st.builds("accept {}".format, st.one_of(st.just("-"), _small,
                                           st.builds("{} {}".format, _small, _small))),
    st.builds("{} {} {}".format, _small, _symbol, _small),
    st.text(max_size=12),
)


@st.composite
def _edited_machine(draw):
    """A valid machine's text with up to three lines dropped, inserted or replaced."""
    lines = serialize_dfa(draw(dfas(max_states=4))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "insert", "replace"]))
        if edit == "drop":
            del lines[i]
        else:
            lines[i:i + (edit == "replace")] = [draw(_near_valid_line)]
    return "\n".join(lines)


_fuzz_input = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.lists(_near_valid_line, max_size=14).map("\n".join).map(str.encode),
    _edited_machine().map(str.encode),
)


@settings(max_examples=300, deadline=None)
@given(_fuzz_input)
def test_any_input_ends_in_a_verdict_or_a_usage_error(fuzz_dir, data):
    path = fuzz_dir / "input.dfa"
    path.write_bytes(data)
    for argv in (["check", str(path)], ["check", "--complete", str(path)],
                 ["classes", str(path)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, data, err.getvalue())
        if code == 2:
            assert err.getvalue().splitlines()[-1].startswith("fdfa: error: "), err.getvalue()


def test_word_outside_the_alphabet_names_the_file_and_the_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("W").write_text("0\nc\n")
    assert main(["construct", "--words", "W", "--alphabet", "01", "-o1", "a.dfa", "-o2", "b.dfa"]) == 2
    assert capsys.readouterr() == ("", "fdfa: error: W: line 2: word 'c' uses symbol 'c' outside alphabet '01'\n")
    assert not Path("a.dfa").exists()


def run_main(argv, capsys, outputs=()):
    """Exit code, stdout, stderr and the bytes of each output file of one call."""
    for name in outputs:
        Path(name).unlink(missing_ok=True)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, [Path(name).read_bytes() for name in outputs]


def test_line_ends_are_read_as_text_mode_reads_them(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lf = (FIXTURES / "onezstar.dfa").read_bytes()
    lines = lf.split(b"\n")[:-1]
    copies = {
        "crlf.dfa": lf.replace(b"\n", b"\r\n"),
        "cr.dfa": lf.replace(b"\n", b"\r"),
        "mixed.dfa": b"".join(line + (b"\r\n", b"\r", b"\n")[i % 3] for i, line in enumerate(lines)),
    }
    Path("lf.dfa").write_bytes(lf)
    for name, data in copies.items():
        Path(name).write_bytes(data)
    header_reads = count_calls(monkeypatch, formats._logical_lines)
    line_reads = count_calls(monkeypatch, formats._read_lines)
    for command in (["check", "{}", "-o", "out.dfa"], ["findiff", "{}", "lf.dfa"], ["findiff", "lf.dfa", "{}"]):
        outputs = ["out.dfa"] if "-o" in command else []
        want = run_main([a.format("lf.dfa") for a in command], capsys, outputs)
        assert want[0] == 0
        for name in copies:
            assert run_main([a.format(name) for a in command], capsys, outputs) == want, (command, name)
    assert Path("out.dfa").read_bytes() == lf
    # the line ends become \n before parsing, so every copy is read as canonical text
    assert header_reads == line_reads == []

    words = ["construct", "--words", "{}", "--alphabet", "01", "-o1", "l.dfa", "-o2", "r.dfa"]
    Path("w.txt").write_bytes(b"@\n0\n# note\n11\n")
    Path("w-crlf.txt").write_bytes(b"@\r\n0\r\n# note\r\n11\r\n")
    want = run_main([a.format("w.txt") for a in words], capsys, ["l.dfa", "r.dfa"])
    assert want[0] == 0
    assert run_main([a.format("w-crlf.txt") for a in words], capsys, ["l.dfa", "r.dfa"]) == want


def test_read_errors_are_the_ones_text_mode_gave(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("adir").mkdir()
    Path("bad.dfa").write_bytes((FIXTURES / "onezstar.dfa").read_bytes()[:40] + b"\xff\n")
    for path, error in (
        ("missing.dfa", "cannot read missing.dfa: No such file or directory"),
        ("adir", "cannot read adir: Is a directory"),
        ("bad.dfa", "bad.dfa: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte"),
    ):
        for argv in (["check", path], ["findiff", fix("zstar"), path],
                     ["construct", "--words", path, "--alphabet", "01", "-o1", "l.dfa", "-o2", "r.dfa"]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"fdfa: error: {error}\n"), argv


@pytest.fixture
def collector():
    """Sets the cyclic collector back to its state before the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _raise(exc):
    def raising(*args):
        raise exc
    return raising


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_pauses_the_collector_and_restores_it(enabled, collector, monkeypatch, capsys):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    during = []

    def parts(d):
        during.append(gc.isenabled())
        return compute_parts(d)

    compute_parts = cli.compute_parts
    monkeypatch.setattr(cli, "compute_parts", parts)
    for argv, code in (
        (["parts", fix("onezstar")], 0),
        (["findiff", fix("zstar"), fix("onezstar")], 1),
        (["check", "no-such-file.dfa"], 2),
        (["frobnicate"], 2),  # a usage error, which argparse ends with SystemExit
        ([], 2),
    ):
        assert main(argv) == code, argv
        assert gc.isenabled() is enabled, argv
    assert during == [False]
    monkeypatch.setattr(cli, "random_dfa", _raise(MemoryError))
    assert main(["random", "--states", "2", "--alphabet", "01", "--seed", "1"]) == 2
    assert gc.isenabled() is enabled
    assert capsys.readouterr().err.endswith("\nfdfa: error: out of memory\n")
    # an exception main does not handle still restores the collector
    monkeypatch.setattr(cli, "random_dfa", _raise(KeyError("bug")))
    with pytest.raises(KeyError):
        main(["random", "--states", "2", "--alphabet", "01", "--seed", "1"])
    assert gc.isenabled() is enabled


def test_a_command_leaves_no_reference_cycle(tmp_path, monkeypatch, collector, capsys):
    monkeypatch.chdir(tmp_path)
    Path("sigma40.dfa").write_text(serialize_dfa(sigma_upto(40)))
    Path("trie.dfa").write_text(serialize_dfa(trie_on_kernel(40, 10, 5, 1)))
    Path("w.txt").write_text("@\n0\n11\n")
    names = [str(p) for p in sorted(FIXTURES.glob("*.dfa"))]
    argvs = []
    for f in names:
        argvs += [["check", f, "-o", "out.dfa"], ["minimize", f], ["fminimize", f],
                  ["fminimize", "--trace", f], ["parts", f], ["classes", f]]
        for g in names:
            argvs += [["diff", f, g], ["findiff", f, g],
                      ["iso", "--part", "infinite", f, g], ["iso", "--part", "finite", f, g]]
    argvs += [
        # merges whose records share one replay of the machines
        ["fminimize", "--trace", "sigma40.dfa"],
        ["fminimize", "--trace", "trie.dfa"],
        ["construct", "--words", "w.txt", "--alphabet", "01", "-o1", "l.dfa", "-o2", "r.dfa"],
        ["random", "--states", "24", "--alphabet", "01", "--seed", "7"],
    ]
    gc.collect()
    gc.disable()
    for argv in argvs:
        main(argv)
        capsys.readouterr()
        # with the collector off, only a reference cycle leaves objects to collect
        assert gc.collect() == 0, argv
