import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaycast import capacity, count_words, table_report
from relaycast.cli import run
from helpers import chain_text, deep_encoder_text, fig1_text


def test_capacity_text_output(capsys):
    assert run(["capacity", "--q", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0.694242"


def test_capacity_raw_is_full_precision(capsys):
    assert run(["capacity", "--q", "1", "--format", "raw"]) == 0
    assert float(capsys.readouterr().out) == capacity(1)


def test_count_output(capsys):
    assert run(["count", "--q", "1", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "13"


def test_enumerate_output(capsys):
    assert run(["enumerate", "--q", "1", "--n", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 N", "N 0", "N N"]


def test_domain_error_exit_code(capsys):
    assert run(["capacity", "--q", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert run(["count", "--q", "1", "--n", "-5"]) == 1  # well-formed flag


def test_unknown_command_exit_code(capsys):
    assert run(["frobnicate"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_malformed_flags_exit_code(capsys):
    assert run(["capacity", "--q", "one"]) == 3
    assert run(["capacity"]) == 3
    assert run(["capacity", "--bogus"]) == 3


@pytest.mark.parametrize("value", ["\u0663", "\uff11", "1_0", "+1", " 2 "])
def test_integer_flags_take_only_ascii_digits(value, capsys):
    # int() reads all five, and no file format accepts any of them
    assert run(["count", "--q", value, "--n", "5"]) == 3
    assert run(["count", "--q", "1", "--n", value]) == 3
    assert capsys.readouterr().out == ""


def test_missing_file_exit_code(capsys):
    assert run(["simulate", "--tree", "no/such/file.txt",
                "--stream", "0 N"]) == 4


def test_unicode_digits_end_in_error_lines(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("0 -\n\u00b9 0\n")
    stream = tmp_path / "stream.txt"
    stream.write_text("\u0663 N")
    chain = tmp_path / "chain.txt"
    chain.write_text(chain_text(1))
    long_id = tmp_path / "long_id.txt"  # beyond int()'s digit limit
    long_id.write_text("0 -\n" + "1" * 5000 + " 0\n")
    for argv, code in [(["--tree", str(tree), "--stream", "0 N"], 1),
                       (["--tree", str(long_id), "--stream", "0 N"], 1),
                       (["--tree", str(chain), "--stream", str(stream)], 1),
                       (["--tree", str(chain), "--stream", "\u0663 N"], 4)]:
        assert run(["simulate"] + argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1


def test_long_inline_values_are_not_file_names(tmp_path, capsys):
    # longer than the 255-byte limit on one file name component
    tree = tmp_path / "chain.txt"
    tree.write_text(chain_text(1))
    assert run(["simulate", "--tree", str(tree), "--stream", "0 N " * 100]) == 0
    assert "node 1 depth 1: ok" in capsys.readouterr().out
    assert run(["end-to-end", "--q", "1", "--p", "2", "--n", "3",
                "--tree", str(tree), "--bits", "01" * 200]) == 0
    assert "all recovered: yes" in capsys.readouterr().out


def test_help_documents_exit_codes(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for fragment in ("exit codes", "unknown command", "file not found"):
        assert fragment in out
    assert run([]) == 2


COMMANDS = ["capacity", "count", "enumerate", "build-encoder", "encode",
            "decode", "simulate", "end-to-end", "table"]


def test_help_names_every_command_and_flag(capsys):
    """Each command's entry in --help lists the flags its -h shows."""
    assert run(["--help"]) == 0
    listed = capsys.readouterr().out
    assert "--format" in listed
    entries = {}
    for line in listed.split("commands:\n")[1].split("\n\n")[0].splitlines():
        if line.startswith("   "):  # continuation of the entry above
            entries[command] += line
        else:
            command = line.split()[0]
            entries[command] = line
    assert list(entries) == COMMANDS
    for command in COMMANDS:
        assert run([command, "-h"]) == 0
        shown = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert shown - {"--help", "--format"} == \
            set(re.findall(r"--[\w-]+", entries[command])), command


def test_encoder_cli_roundtrip(tmp_path, capsys):
    enc_path = tmp_path / "enc.txt"
    assert run(["build-encoder", "--q", "1", "--p", "2", "--n", "3",
                "--out", str(enc_path)]) == 0
    report = capsys.readouterr().out
    assert "efficiency: 0.960280" in report
    assert enc_path.read_text().startswith("ENC 1 2 3")

    assert run(["encode", "--encoder", str(enc_path), "--bits", "110100",
                "--format", "raw"]) == 0
    header_line, stream_line = capsys.readouterr().out.splitlines()
    assert header_line == "6 0"

    assert run(["decode", "--encoder", str(enc_path),
                "--stream", stream_line, "--length", "6"]) == 0
    assert capsys.readouterr().out.strip() == "110100"


def test_decode_rejects_non_ascii_encoder_field(tmp_path, capsys):
    enc_path = tmp_path / "enc.txt"
    assert run(["build-encoder", "--q", "1", "--p", "2", "--n", "3",
                "--out", str(enc_path)]) == 0
    assert run(["encode", "--encoder", str(enc_path), "--bits", "110100",
                "--format", "raw"]) == 0
    stream_line = capsys.readouterr().out.splitlines()[1]
    header, body = enc_path.read_text().split("\n", 1)
    assert header.endswith(" 0")
    enc_path.write_text(header[:-1] + "\uff10\n" + body)  # fullwidth zero
    assert run(["decode", "--encoder", str(enc_path),
                "--stream", stream_line, "--length", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_decode_with_a_deep_certificate(tmp_path, capsys):
    # a 2,000-step pair chain, deeper than Python's recursion limit
    enc_path = tmp_path / "deep.enc"
    enc_path.write_text(deep_encoder_text(2000))
    assert run(["decode", "--encoder", str(enc_path), "--stream", "",
                "--length", "0"]) == 0
    assert capsys.readouterr() == ("\n", "")


def test_build_encoder_infeasible_exit(capsys):
    assert run(["build-encoder", "--q", "1", "--p", "1", "--n", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_cli(tmp_path, capsys):
    tree = tmp_path / "chain.txt"
    tree.write_text(chain_text(2))
    assert run(["simulate", "--tree", str(tree), "--stream", "0 N 0 N N"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("0 | 0:0")
    assert "violations: 0" in out
    assert "node 2 depth 2: ok" in out


def test_end_to_end_cli(tmp_path, capsys):
    tree = tmp_path / "fig1.txt"
    tree.write_text(fig1_text())
    assert run(["end-to-end", "--q", "1", "--p", "2", "--n", "3",
                "--tree", str(tree), "--random", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "all recovered: yes" in out
    assert "rate: 0.666667" in out
    assert "baseline: 0.500000" in out


def test_end_to_end_rejects_a_negative_random_length(tmp_path, capsys):
    tree = tmp_path / "fig1.txt"
    tree.write_text(fig1_text())
    assert run(["end-to-end", "--q", "1", "--p", "2", "--n", "3",
                "--tree", str(tree), "--random", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: random must be a nonnegative integer, got -5\n"


def test_table_cli_text(capsys):
    assert run(["table", "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert "89.82" in out
    assert "0.7729" in out


def test_table_cli_raw_regenerates_published_rows(capsys):
    published = [(89.82, 64.70), (94.79, 68.27), (97.80, 70.43),
                 (99.44, 71.62), (100.00, 72.02)]
    assert run(["table", "--q", "1", "--format", "raw"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for line, (cc, sf) in zip(lines, published):
        _, _, got_cc, got_sf = line.split()
        assert float(got_cc) == pytest.approx(cc, abs=0.05)
        assert float(got_sf) == pytest.approx(sf, abs=0.05)


def test_table_unsupported_q(capsys):
    assert run(["table", "--q", "2"]) == 1


def test_table_report_values():
    rows = table_report(1)
    assert [row.depth for row in rows] == ["2", "3", "5", "11", "inf"]
    assert [row.reference_rate for row in rows] == \
        [0.7729, 0.7324, 0.7099, 0.6981, 0.6942]
    # spot checks against the published percentages
    assert rows[0].constrained_pct == pytest.approx(89.82, abs=0.05)
    assert rows[0].forwarding_pct == pytest.approx(64.70, abs=0.05)
    assert rows[3].forwarding_pct == pytest.approx(71.62, abs=0.05)
    assert rows[4].constrained_pct == pytest.approx(100.0, abs=0.05)


def test_cli_output_matches_library_exactly(capsys):
    # thin-wrapper check: CLI bytes == formatted library values
    assert run(["count", "--q", "3", "--n", "40"]) == 0
    assert capsys.readouterr().out == f"{count_words(3, 40)}\n"
    assert run(["capacity", "--q", "6"]) == 0
    assert capsys.readouterr().out == f"{capacity(6):.6f}\n"


# (command, the flag that gets a file of arbitrary bytes or an arbitrary
# inline value, the other flags); "{tree}", "{enc}" and "{bits}" name
# valid files
FILE_FLAGS = [
    ("simulate", "--tree", ["--stream", "0 N"]),
    ("simulate", "--stream", ["--tree", "{tree}"]),
    ("encode", "--encoder", ["--bits", "0110"]),
    ("encode", "--bits", ["--encoder", "{enc}"]),
    ("decode", "--encoder", ["--stream", "N N N", "--length", "2"]),
    ("decode", "--stream", ["--encoder", "{enc}", "--length", "2"]),
    ("end-to-end", "--tree", ["--q", "1", "--p", "2", "--n", "3",
                              "--bits", "{bits}"]),
    ("end-to-end", "--bits", ["--q", "1", "--p", "2", "--n", "3",
                              "--tree", "{tree}"]),
]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    files = {"tree": root / "tree.txt", "enc": root / "enc.txt",
             "bits": root / "bits.txt", "input": root / "input"}
    files["tree"].write_text(chain_text(2))
    files["bits"].write_text("0110\n")
    assert run(["build-encoder", "--q", "1", "--p", "2", "--n", "3",
                "--out", str(files["enc"])]) == 0
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("command,flag,rest", FILE_FLAGS)
@settings(max_examples=80, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), st.text(max_size=64)))
@example(data=b"\xff0 -\n")
@example(data=b"ENC 1 20000 1 1 0\n")
@example(data="a\nb")  # used to print the name over two lines
def test_arbitrary_file_bytes_end_in_an_exit_code(cli_files, command, flag,
                                                  rest, data):
    """Bytes go to a file named by ``flag``; text is passed inline."""
    if isinstance(data, bytes):
        with open(cli_files["input"], "wb") as handle:
            handle.write(data)
        data = cli_files["input"]
    argv = [command, flag, data]
    argv += [arg.format(**cli_files) for arg in rest]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in range(5)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
