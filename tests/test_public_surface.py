"""The names ``relaycast`` exports, and the README tour that uses them."""

import ast
import dataclasses
import inspect
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import relaycast
from relaycast.encoder import ApproxEigenvector

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "AmbiguousEncoderError", "DeliveryReport", "ERASED", "Encoder",
    "EncoderBuildError", "EncoderFormatError", "EncoderReport",
    "EndToEndReport", "EnumerationCapError", "FrameHeader", "FramingError",
    "InfeasibleRateError", "InvalidMatrixError", "InvalidParameterError",
    "N", "NodeDelivery", "NodeRecovery", "RelaycastError", "SimTrace",
    "StateSplitError", "StreamFormatError", "TopologyError", "TreeTopology",
    "UnknownCodewordError", "UnsupportedParameterError", "baseline_rate",
    "build_encoder", "capacity", "characteristic_roots", "count_words",
    "decode", "encode", "encoder_report", "end_to_end", "enumerate_words",
    "format_stream", "is_admissible", "parse_encoder", "parse_stream",
    "parse_tree", "run", "serialize_encoder", "simulate", "spectral_radius",
    "table_report", "verify_delivery",
]


def test_exports_are_pinned_and_resolve():
    assert sorted(relaycast.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(relaycast, name) is not None


def _valid_arguments():
    """Exported function -> a valid value for each required argument."""
    machine = relaycast.build_encoder(1, 2, 3)
    stream, header = relaycast.encode(machine, "110100")
    topo = relaycast.parse_tree("0 -\n1 0\n")
    return {
        "baseline_rate": (1,), "build_encoder": (1, 2, 3), "capacity": (1,),
        "characteristic_roots": (1,), "count_words": (1, 5),
        "decode": (machine, stream, header), "encode": (machine, "110100"),
        "encoder_report": (machine,), "end_to_end": (1, 2, 3, topo, "1101"),
        "enumerate_words": (1, 3), "format_stream": (stream,),
        "is_admissible": (stream,),
        "parse_encoder": (relaycast.serialize_encoder(machine),),
        "parse_stream": ("0 N N",), "parse_tree": ("0 -\n1 0\n",),
        "run": (["capacity", "--q", "1"],), "serialize_encoder": (machine,),
        "simulate": (topo, stream), "spectral_radius": ([[1, 1], [1, 0]],),
        "table_report": (1,),
        "verify_delivery": (relaycast.simulate(topo, stream), topo, stream),
    }


# 10**5000 is past the interpreter's int-to-str limit of 4,300 digits,
# so an error message that prints it as it is fails
JUNK = [7, 10**400, 10**5000, -10**5000, None, "x", b"x", 1.5, [1, 0],
        [[1], [0]], object()]
JUNK_SECONDS = 2.0


class _Overtime(BaseException):
    """Raised by the timer; a ``BaseException``, so that no ``except
    Exception`` in the library can swallow it."""


def _overtime(signum, frame):
    raise _Overtime


def test_junk_arguments_end_in_a_result_or_a_relaycast_error():
    """Every exported function, with one required argument replaced by a
    junk value and valid values for the others, returns or raises a
    ``RelaycastError`` within ``JUNK_SECONDS``. Every export that is not
    a class or a constant must have valid arguments listed here."""
    valid = _valid_arguments()
    functions = sorted(name for name in relaycast.__all__
                       if inspect.isfunction(getattr(relaycast, name)))
    assert functions == sorted(valid)
    wrong = []
    previous = signal.signal(signal.SIGALRM, _overtime)
    try:
        for name in functions:
            function, arguments = getattr(relaycast, name), valid[name]
            required = [parameter for parameter in
                        inspect.signature(function).parameters.values()
                        if parameter.default is inspect.Parameter.empty]
            assert len(required) == len(arguments), name
            for at in range(len(arguments)):
                for junk in JUNK:
                    call = [*arguments[:at], junk, *arguments[at + 1:]]
                    signal.setitimer(signal.ITIMER_REAL, JUNK_SECONDS)
                    try:
                        function(*call)
                    except relaycast.RelaycastError:
                        pass
                    except _Overtime:
                        wrong.append(f"{name}: {required[at].name}={junk!r:.40}"
                                     f" ran past {JUNK_SECONDS} s")
                    except Exception as exc:
                        wrong.append(f"{name}: {required[at].name}={junk!r:.40}"
                                     f" raised {type(exc).__name__}: {exc}")
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert wrong == []


HUGE = 10**5000


@pytest.mark.parametrize("call", [
    lambda: relaycast.build_encoder(1, HUGE, 2),
    lambda: relaycast.build_encoder(1, 1, HUGE),
    lambda: relaycast.build_encoder(HUGE, 1, 1),
    lambda: relaycast.count_words(1, HUGE),
    lambda: relaycast.enumerate_words(1, HUGE),
    lambda: relaycast.enumerate_words(HUGE, 2),
    lambda: relaycast.enumerate_words(1, 3, -HUGE),
    lambda: relaycast.capacity(-HUGE),
    lambda: relaycast.table_report(HUGE),
    lambda: relaycast.simulate(relaycast.parse_tree("0 -\n"),
                               ()).transmit_stream(-HUGE),
])
def test_huge_ints_are_named_by_their_size(call):
    """An int past the interpreter's 4,300-digit str limit is named in a
    message by its sign and approximate length, not printed."""
    with pytest.raises(relaycast.RelaycastError,
                       match="integer of about 5001 digits"):
        call()


@pytest.mark.parametrize("digits", [640, 4300, 4301, 5001])
def test_ints_are_printed_while_they_convert(digits):
    """An int is printed as ``repr`` prints it, up to the interpreter's
    int-to-str limit (4,300 digits by default), and named by its size
    past it."""
    value = -10 ** (digits - 1)
    try:
        spelled = repr(value)
    except ValueError:
        spelled = f"a negative integer of about {digits} digits"
    with pytest.raises(relaycast.InvalidParameterError) as info:
        relaycast.capacity(value)
    assert str(info.value) == f"q must be a positive integer, got {spelled}"


# Run in a fresh interpreter, since the suite itself has loaded the CLI.
LAZY_CLI = """
import sys
import relaycast
assert "relaycast.cli" not in sys.modules, "cli"
assert "argparse" not in sys.modules, "argparse"
cli = relaycast.cli
assert sys.modules["relaycast.cli"] is cli
assert relaycast.run is cli.run and relaycast.table_report is cli.table_report
assert "relaycast.simulator" not in sys.modules, "simulator"
namespace = {}
exec("from relaycast import *", namespace)
assert namespace["run"] is cli.run
assert namespace["table_report"] is cli.table_report
assert sorted(set(relaycast.__all__) - set(namespace)) == []
assert all(namespace[name] is getattr(relaycast, name)
           for name in relaycast.__all__)
try:
    relaycast.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
"""


def _fresh(script, *argv):
    """Run ``script`` in a fresh interpreter on this checkout's package;
    it must exit 0 with nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_import_leaves_the_command_line_unloaded():
    """``import relaycast`` loads neither ``relaycast.cli`` nor argparse;
    ``run``, ``table_report``, ``cli`` and ``import *`` load it on
    first use, and ``import *`` binds every name of ``__all__``."""
    _fresh(LAZY_CLI)


# The codec commands run in process, as codec_cli runs them, and the
# simulator stays unloaded.
CODEC_SKIPS_SIMULATOR = """
import contextlib, io, os, sys
import relaycast
assert "relaycast.simulator" not in sys.modules, "import"
os.chdir(sys.argv[1])

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert relaycast.run(argv) == 0, argv
    return out.getvalue()

run("build-encoder", "--q", "1", "--p", "2", "--n", "3", "--out", "enc")
head, stream = run("encode", "--encoder", "enc", "--bits", "110100",
                   "--format", "raw").splitlines()
assert head == "6 0"
assert run("decode", "--encoder", "enc", "--stream", stream,
           "--length", "6") == "110100\\n"
assert run("capacity", "--q", "1") == "0.694242\\n"
assert run("count", "--q", "1", "--n", "5") == "13\\n"
assert run("enumerate", "--q", "1", "--n", "2") == "0 N\\nN 0\\nN N\\n"
assert "relaycast.simulator" not in sys.modules, "codec commands"
assert "relaycast.delivery" not in sys.modules, "codec commands"
"""


def test_codec_commands_leave_the_simulator_unloaded(tmp_path):
    _fresh(CODEC_SKIPS_SIMULATOR, str(tmp_path))


def _names_of(home):
    """``home`` and the exported names that submodule defines."""
    return [home] + [name for name in PUBLIC if getattr(relaycast, name)
                     .__module__ == f"relaycast.{home}"]


SIMULATOR_NAMES = _names_of("simulator")
# the names of the two modules split out of the simulator and the encoder
SPLIT_NAMES = [(home, name) for home in ("delivery", "encoder_file")
               for name in _names_of(home)]

# The first use of one name of a lazy submodule (argv: the submodule,
# the name, then all its names) loads that submodule, and every one of
# its names is then the submodule's own object.
LAZY_MODULE = """
import sys
import relaycast
home, name, names = sys.argv[1], sys.argv[2], sys.argv[3:]
assert "relaycast." + home not in sys.modules, "import"
getattr(relaycast, name)
module = sys.modules["relaycast." + home]
for other in names:
    own = module if other == home else getattr(module, other)
    assert getattr(relaycast, other) is own, other
"""


@pytest.mark.parametrize("name", SIMULATOR_NAMES)
def test_simulator_names_load_the_simulator(name):
    _fresh(LAZY_MODULE, "simulator", name, *SIMULATOR_NAMES)


def test_split_modules_export_what_they_define():
    assert SPLIT_NAMES == [
        ("delivery", "delivery"), ("delivery", "DeliveryReport"),
        ("delivery", "NodeDelivery"), ("delivery", "verify_delivery"),
        ("encoder_file", "encoder_file"), ("encoder_file", "EncoderReport"),
        ("encoder_file", "encoder_report"), ("encoder_file", "parse_encoder"),
        ("encoder_file", "serialize_encoder")]


@pytest.mark.parametrize("home, name", SPLIT_NAMES,
                         ids=[name for _, name in SPLIT_NAMES])
def test_split_names_load_their_module(home, name):
    _fresh(LAZY_MODULE, home, name,
           *[other for where, other in SPLIT_NAMES if where == home])


# A library broadcast, and the CLI's end-to-end command after it, never
# check delivery; neither reads or writes an encoder file but the CLI,
# which imports the text form with the codec commands' names.
BROADCAST_SKIPS_CHECKS = """
import contextlib, io, os, sys
import relaycast
os.chdir(sys.argv[1])
topo = relaycast.parse_tree("0 -\\n1 0\\n2 1\\n")
machine = relaycast.build_encoder(1, 2, 3)
stream, _ = relaycast.encode(machine, "110100")
assert relaycast.simulate(topo, stream).num_slots == len(stream) + 2
assert relaycast.end_to_end(1, 2, 3, topo, "110100").all_recovered
assert "relaycast.simulator" in sys.modules
loaded = {"relaycast.delivery", "relaycast.encoder_file"} & set(sys.modules)
assert not loaded, loaded
with open("tree.txt", "w") as f:
    f.write("0 -\\n1 0\\n")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert relaycast.run(["end-to-end", "--q", "1", "--p", "2", "--n", "3",
                          "--tree", "tree.txt", "--random", "12"]) == 0
assert out.getvalue().endswith("all recovered: yes\\n")
assert "relaycast.encoder_file" in sys.modules
assert "relaycast.delivery" not in sys.modules, "end-to-end"
"""


def test_broadcasts_leave_delivery_checks_and_encoder_files_unloaded(tmp_path):
    _fresh(BROADCAST_SKIPS_CHECKS, str(tmp_path))


def test_public_records_stay_frozen_dataclasses():
    """Every exported class but the errors, and ``ApproxEigenvector``, is
    a frozen dataclass, whichever module defines it; the moved reports
    keep ``replace`` and refuse assignment."""
    records = [getattr(relaycast, name) for name in PUBLIC
               if isinstance(getattr(relaycast, name), type)
               and not issubclass(getattr(relaycast, name), Exception)]
    assert len(records) == 9
    for record in records + [ApproxEigenvector]:
        assert dataclasses.is_dataclass(record), record
        assert record.__dataclass_params__.frozen, record
    machine = relaycast.build_encoder(1, 2, 3)
    topo = relaycast.parse_tree("0 -\n1 0\n")
    stream, _ = relaycast.encode(machine, "110100")
    for report, name, value in [
            (relaycast.encoder_report(machine), "num_states", 9),
            (relaycast.verify_delivery(relaycast.simulate(topo, stream), topo,
                                       stream), "violations", 2)]:
        assert getattr(dataclasses.replace(report, **{name: value}),
                       name) == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, value)


def _quick_tour():
    text = README.read_text(encoding="utf-8")
    after = text.split("## Library quick tour", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def _documented_value(comment):
    """The literal a ``# value`` comment gives, or None for prose."""
    for candidate in (comment, comment.split()[0]):
        try:
            return (ast.literal_eval(candidate),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_readme_quick_tour_runs_as_documented():
    namespace = {}
    checked = 0
    for line in _quick_tour().splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if isinstance(ast.parse(code).body[0], ast.Expr):
            value = eval(code, namespace)
            documented = _documented_value(comment.strip()) if comment else None
            if documented is not None:
                assert value == documented[0], line
                checked += 1
        else:
            exec(code, namespace)
    assert checked >= 5
