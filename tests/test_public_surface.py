"""The names ``relaycast`` exports, and the README tour that uses them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import relaycast

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "AmbiguousEncoderError", "ApproxEigenvector", "ConstraintGraph",
    "DeliveryReport", "ERASED", "Encoder", "EncoderBuildError",
    "EncoderFormatError", "EncoderReport", "EndToEndReport",
    "EnumerationCapError", "FrameHeader", "FramingError",
    "InfeasibleRateError", "InsufficientDegreeError", "InvalidMatrixError",
    "InvalidParameterError", "N", "NodeDelivery", "NodeRecovery",
    "NonUniformLabelError", "RelaycastError", "SimTrace", "StateSplitError",
    "StreamFormatError", "TopologyError", "TreeTopology",
    "UnknownCodewordError", "UnsupportedParameterError", "baseline_rate",
    "build_encoder", "capacity", "characteristic_roots", "count_words",
    "decode", "encode", "encoder_report", "end_to_end", "enumerate_words",
    "find_approximate_eigenvector", "format_stream", "is_admissible",
    "make_constraint", "parse_encoder", "parse_stream", "parse_tree",
    "power_graph", "prune_to_encoder", "run", "serialize_encoder",
    "simulate", "spectral_radius", "split_states", "table_report",
    "verify_delivery",
]


def test_exports_are_pinned_and_resolve():
    assert sorted(relaycast.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(relaycast, name) is not None


# Run in a fresh interpreter, since the suite itself has loaded the CLI.
LAZY_CLI = """
import sys
import relaycast
assert "relaycast.cli" not in sys.modules, "cli"
assert "argparse" not in sys.modules, "argparse"
cli = relaycast.cli
assert sys.modules["relaycast.cli"] is cli
assert relaycast.run is cli.run and relaycast.table_report is cli.table_report
namespace = {}
exec("from relaycast import *", namespace)
assert namespace["run"] is cli.run
assert namespace["table_report"] is cli.table_report
assert sorted(set(relaycast.__all__) - set(namespace)) == []
try:
    relaycast.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
"""


def test_import_leaves_the_command_line_unloaded():
    """``import relaycast`` loads neither ``relaycast.cli`` nor argparse;
    ``run``, ``table_report``, ``cli`` and ``import *`` load it on
    first use."""
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    done = subprocess.run([sys.executable, "-c", LAZY_CLI], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


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
