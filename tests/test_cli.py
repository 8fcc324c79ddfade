import contextlib
import decimal
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaycast import (StreamFormatError, build_encoder, capacity,
                       count_words, encode, parse_encoder, serialize_encoder,
                       table_report)
import relaycast.cli as cli_module
import relaycast.encoder as encoder_module
import relaycast.encoder_file as encoder_file_module
import relaycast.simulator as simulator_module
from relaycast.cli import _build_parser, _read_value, run
from relaycast.symbols import is_bits
from helpers import (chain_text, deep_encoder_text, fig1_text, outcome,
                     random_bits)


def test_capacity_text_output(capsys):
    assert run(["capacity", "--q", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0.694242"


def test_capacity_raw_is_full_precision(capsys):
    assert run(["capacity", "--q", "1", "--format", "raw"]) == 0
    assert float(capsys.readouterr().out) == capacity(1)


def test_count_output(capsys):
    assert run(["count", "--q", "1", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "13"


def test_count_prints_every_digit(capsys):
    # 5,225 digits, past the interpreter's default int string limit of 4,300
    limit = sys.get_int_max_str_digits()
    assert run(["count", "--q", "1", "--n", "25000"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(out.strip()) > 4300
    assert decimal.Decimal(out) == count_words(1, 25000)
    assert sys.get_int_max_str_digits() == limit


def test_count_output_is_unchanged(capsys):
    # SHA-256 of what `count --q 1 --n 20000` printed before the size
    # budget was checked
    assert run(["count", "--q", "1", "--n", "20000"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "eb73945f615d56337ad0c762aaead57e691ba7bd92a60795e8350612b1e860aa"


@pytest.mark.parametrize("n", ["9" * 20, "9" * 640, "190000"])
def test_count_past_the_size_budget_is_one_error_line(capsys, n):
    start = time.perf_counter()
    assert run(["count", "--q", "1", "--n", n]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err == (f"error: the count of length-{n} words for q=1 would "
                   f"pass the budget of 131072 bits\n")


@pytest.mark.parametrize("n, cap", [("100000", None), ("9" * 640, None),
                                    ("24", "10000000"), ("15", "1000000")])
def test_enumerate_past_the_cap_is_one_error_line(capsys, n, cap):
    start = time.perf_counter()
    flags = ["--cap", cap] if cap else []
    assert run(["enumerate", "--q", "2", "--n", n, *flags]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: (q+1)**n exceeds enumeration cap {cap or 10**7} "
        f"for q=2, n={n}\n")


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


def test_repeated_codec_commands_reuse_one_machine(tmp_path, capsys,
                                                   monkeypatch):
    """In one process, a second decode of one encoder file finds its
    machine's decode table warm: every chunk is a lookup, none a step."""
    enc_path, stream_path = tmp_path / "enc.txt", tmp_path / "stream.txt"
    enc_path.write_text(serialize_encoder(build_encoder(1, 2, 3)))
    bits = random_bits(random.Random(9), 4000)
    assert run(["encode", "--encoder", str(enc_path), "--bits", bits,
                "--format", "raw"]) == 0
    stream_path.write_text(capsys.readouterr().out.splitlines()[1])
    steps = []
    advance = encoder_module._SubsetTable.advance

    def counting(table, *args):
        steps.append(args[-1])
        return advance(table, *args)

    monkeypatch.setattr(encoder_module._SubsetTable, "advance", counting)

    def decode_steps():
        steps.clear()
        assert run(["decode", "--encoder", str(enc_path), "--stream",
                    str(stream_path), "--length", "4000"]) == 0
        assert capsys.readouterr() == (bits + "\n", "")
        return len(steps)

    encoder_file_module._parse.cache_clear()  # the first decode starts cold
    assert decode_steps() > 0
    assert decode_steps() == 0


def test_cached_parsers_keep_nothing_between_runs(tmp_path, capsys):
    """Each command's parser is built once per process; a call after a
    malformed flag, another format or ``-h`` parses as a first call."""
    assert _build_parser("decode")[0] is _build_parser("decode")[0]
    enc_path = tmp_path / "enc.txt"
    enc_path.write_text(serialize_encoder(build_encoder(1, 2, 3)))
    assert run(["encode", "--encoder", str(enc_path), "--bits", "110100",
                "--format", "raw"]) == 0
    header, stream = capsys.readouterr().out.splitlines()
    assert header == "6 0"
    assert run(["encode", "--encoder", str(enc_path), "--bits", "110100"]) == 0
    assert capsys.readouterr().out == f"length: 6\npad: 0\nstream: {stream}\n"
    assert run(["decode", "--encoder", str(enc_path), "--stream", stream,
                "--length", "six"]) == 3
    assert run(["decode", "-h"]) == 0
    capsys.readouterr()
    assert run(["decode", "--encoder", str(enc_path), "--stream", stream,
                "--length", "6"]) == 0
    assert capsys.readouterr() == ("110100\n", "")


@pytest.mark.parametrize("stream,length,error", [
    ("N 0 N x N 0 N 0 N 0 N N", 6, "bad stream token 'x'"),
    ("N 0 N N N 1 N 0 N 0 N N", 6, "data symbol 1 out of range for q=1"),
    ("N 0 N N N 0 N 0 N 0 N N", 7, "stream has 4 blocks, frame implies 5"),
    ("0 0 N N N 0 N 0 N 0 N N", 6, "block 0 (0 0 N) matches no transition"),
    # the token first, though decoding tokens checks the frame first
    ("N 0 N x N 0 N 0 N 0 N N", 9, "bad stream token 'x'"),
    ("N 0 N 0x 1 N 0 N 0 N N N", 3, "bad stream token '0x'"),
])
def test_decode_errors_come_in_stream_order(tmp_path, capsys, stream, length,
                                            error):
    enc_path, stream_path = tmp_path / "enc.txt", tmp_path / "stream.txt"
    enc_path.write_text(serialize_encoder(build_encoder(1, 2, 3)))
    stream_path.write_text(stream + "\n")
    assert run(["decode", "--encoder", str(enc_path), "--stream",
                str(stream_path), "--length", str(length)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@settings(max_examples=300, deadline=None)
@given(text=st.text("012 \n\u0661\uff10\u00e9", max_size=12))
def test_bit_checks_accept_only_ascii_zeros_and_ones(enc_q1, text):
    accepted = not text.strip("01")
    assert is_bits(text) == accepted
    error = (StreamFormatError, "bit strings may contain only 0 and 1")
    assert (outcome(encode, enc_q1, text) == error) != accepted
    # an inline --bits value that is not bits is taken for a file name
    if accepted:
        assert _read_value(text, "bits") == text
    else:
        with pytest.raises(FileNotFoundError):
            _read_value(text, "bits")


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


def test_decode_rejects_duplicate_transition(tmp_path, capsys):
    enc_path = tmp_path / "enc.txt"
    enc_path.write_text("ENC 1 1 1 1 0\n0 0 0 0\n0 0 N 0\n")
    assert run(["decode", "--encoder", str(enc_path), "--stream", "",
                "--length", "0"]) == 1
    assert capsys.readouterr() == \
        ("", "error: duplicate transition for state 0 tag 0\n")


def test_build_encoder_to_stdout(capsys):
    assert run(["build-encoder", "--q", "6", "--p", "3", "--n", "2"]) == 0
    text = capsys.readouterr().out
    machine = build_encoder(6, 3, 2)
    assert text == serialize_encoder(machine)
    assert parse_encoder(text) == machine


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


@pytest.mark.parametrize("p, n", [(30, 30), (20, 40)])
def test_build_encoder_rejects_before_building_paths(monkeypatch, capsys, p, n):
    """Infeasible (1,30,30) and over-budget (1,20,40): one error line."""
    def refuse(*args):
        raise AssertionError("synthesis built the power-graph paths")

    monkeypatch.setattr("relaycast.encoder.power_graph", refuse)
    assert run(["build-encoder", "--q", "1", "--p", str(p), "--n", str(n)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_640_digit_fields_end_in_one_line(capsys):
    """Every rate gets a verdict, and every q a capacity, up to the
    longest integer a flag takes."""
    digits = "9" * 640
    for p, n in [("1", digits), (digits, "5"), (digits, digits)]:
        assert run(["build-encoder", "--q", "1", "--p", p, "--n", n]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert run(["capacity", "--q", digits]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out == "1063.016990\n"  # 320 log2(10)


def _python_m_relaycast(*args, timeout=60):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "relaycast", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("length, code", [(str(2 ** 26 + 1), 1),
                                          ("9" * 640, 1), ("9" * 5001, 3)],
                         ids=["2**26+1", "640 digits", "5001 digits"])
def test_end_to_end_refuses_a_random_length_past_the_slot_budget(
        tmp_path, length, code):
    """A random message longer than the simulator's 2**26-slot budget is
    refused before any bit is drawn, with one error line: 1e9 bits ended
    in a MemoryError traceback. A flag of more than 640 digits is
    malformed (exit 3), as for every integer flag."""
    tree = tmp_path / "chain.txt"
    tree.write_text(chain_text(1))
    done = _python_m_relaycast("end-to-end", "--q", "1", "--p", "2", "--n",
                               "3", "--tree", str(tree), "--random", length,
                               timeout=20)
    assert done.returncode == code and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")
    if code == 1:
        assert done.stderr == (f"error: random={length} passes the limit of "
                               f"{2 ** 26} message bits\n")


def test_end_to_end_refuses_a_random_message_whose_stream_passes_the_budget(
        tmp_path, capsys, monkeypatch):
    """At rate 2/3 a message within the CLI's bound on ``--random`` can
    still encode past the slot budget: with the budget patched to 3,000
    slots, 2,900 bits are refused with one error line before any bit is
    drawn, and 1,996 bits, the longest that fit, still run."""
    tree = tmp_path / "fig1.txt"
    tree.write_text(fig1_text())
    monkeypatch.setattr(simulator_module, "_SLOT_BUDGET", 3000)
    calls, drawn = [], []
    monkeypatch.setattr(simulator_module, "encode",
                        lambda *args: calls.append(args) or encode(*args))

    class Drawing(random.Random):
        def getrandbits(self, k):
            drawn.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(cli_module, "random", SimpleNamespace(Random=Drawing))
    args = ["end-to-end", "--q", "1", "--p", "2", "--n", "3",
            "--tree", str(tree), "--random"]
    assert run(args + ["2900"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not calls and not drawn
    assert err == ("error: 4353 stream slots and extra_slots=3 pass the "
                   "simulation budget of 3000 slots\n")
    assert run(args + ["1996"]) == 0
    assert capsys.readouterr().out.endswith("all recovered: yes\n")
    assert len(calls) == 1 and drawn == [1996]


def test_python_m_relaycast_runs_the_cli():
    done = _python_m_relaycast("capacity", "--q", "1")
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.694242\n", "")
    done = _python_m_relaycast("build-encoder", "--q", "1", "--p", "30",
                               "--n", "30")
    assert done.returncode == 1 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")


def test_simulate_cli(tmp_path, capsys):
    tree = tmp_path / "chain.txt"
    tree.write_text(chain_text(2))
    assert run(["simulate", "--tree", str(tree), "--stream", "0 N 0 N N"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("0 | 0:0")
    assert "violations: 0" in out
    assert "node 2 depth 2: ok" in out


@pytest.mark.parametrize("extra_slots", ["1000000000000", "1" * 30])
def test_simulate_refuses_a_horizon_past_the_slot_budget(tmp_path, capsys,
                                                         extra_slots):
    """One error line and exit 1, before any row is built: these ended in
    a MemoryError and an OverflowError traceback."""
    tree = tmp_path / "chain.txt"
    tree.write_text(chain_text(1))
    assert run(["simulate", "--tree", str(tree), "--stream", "0 N",
                "--extra-slots", extra_slots]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: 2 stream slots and extra_slots={extra_slots} pass "
                   f"the simulation budget of {2 ** 26} slots\n")


def test_end_to_end_cli(tmp_path, capsys):
    tree = tmp_path / "fig1.txt"
    tree.write_text(fig1_text())
    assert run(["end-to-end", "--q", "1", "--p", "2", "--n", "3",
                "--tree", str(tree), "--random", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "all recovered: yes" in out
    assert "rate: 0.666667" in out
    assert "baseline: 0.500000" in out


@pytest.mark.parametrize("length, seed", [(200, 7), (4099, 3), (0, 7)])
def test_end_to_end_draws_random_bits_in_one_call(tmp_path, capsys,
                                                  monkeypatch, length, seed):
    """``--random N`` draws the message as N bits of one ``getrandbits``,
    zero-filled on the left; N = 0 is the empty message."""
    messages = []
    end_to_end = simulator_module.end_to_end

    def recording(q, p, n, topo, bits):
        messages.append(bits)
        return end_to_end(q, p, n, topo, bits)

    monkeypatch.setattr(simulator_module, "end_to_end", recording)
    tree = tmp_path / "fig1.txt"
    tree.write_text(fig1_text())
    assert run(["end-to-end", "--q", "1", "--p", "2", "--n", "3", "--tree",
                str(tree), "--random", str(length), "--seed", str(seed)]) == 0
    expected = (format(random.Random(seed).getrandbits(length), f"0{length}b")
                if length else "")
    assert messages == [expected] and len(expected) == length
    assert f"message bits: {length}\n" in capsys.readouterr().out


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
