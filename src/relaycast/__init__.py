"""Constrained coding and symbol forwarding for half-duplex relay trees.

A relay that may transmit or listen in a slot, never both, loses its
parent's symbol whenever both are transmitting. If the source only emits
streams with no two consecutive data symbols, plain one-slot-delay
symbol forwarding broadcasts error-free to every node of the tree, at up
to ``capacity(q) = log2((1 + sqrt(4q+1)) / 2)`` bits per symbol. This
package computes those capacities, counts and enumerates the admissible
streams, synthesizes finite-state encoders that approach the capacity,
and verifies the whole story with a slot-synchronous tree simulator.

The command line (``relaycast.cli``, with ``run`` and ``table_report``),
the tree simulator (``relaycast.simulator``), its delivery checks
(``relaycast.delivery``) and the encoder text form and report
(``relaycast.encoder_file``), each with its exports, load on first use.
Importing the package loads none of them nor argparse, the codec
commands and the rate table never load the simulator, and ``end_to_end``
loads neither the delivery checks nor the encoder text form.
"""

import importlib

from .constraint import (baseline_rate, capacity, characteristic_roots,
                         count_words, enumerate_words, spectral_radius)
from .encoder import Encoder, FrameHeader, build_encoder, decode, encode
from .errors import (AmbiguousEncoderError, EncoderBuildError,
                     EncoderFormatError, EnumerationCapError, FramingError,
                     InfeasibleRateError, InvalidMatrixError,
                     InvalidParameterError, RelaycastError, StateSplitError,
                     StreamFormatError, TopologyError, UnknownCodewordError,
                     UnsupportedParameterError)
from .symbols import ERASED, N, format_stream, is_admissible, parse_stream

__version__ = "0.1.0"

__all__ = [
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


# name -> the submodule that defines it and loads on its first use; a
# submodule's own name maps to itself
_LAZY = {
    "cli": "cli", "run": "cli", "table_report": "cli",
    **dict.fromkeys((
        "simulator", "EndToEndReport", "NodeRecovery", "SimTrace",
        "TreeTopology", "end_to_end", "parse_tree", "simulate"), "simulator"),
    **dict.fromkeys((
        "delivery", "DeliveryReport", "NodeDelivery", "verify_delivery"),
        "delivery"),
    **dict.fromkeys((
        "encoder_file", "EncoderReport", "encoder_report", "parse_encoder",
        "serialize_encoder"), "encoder_file"),
}


def __getattr__(name):
    """Load the submodule that ``_LAZY`` names for ``name``, and keep
    every name that ``_LAZY`` maps to it as a module global from then on."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import cli``: that statement looks the
    # name up on this module first and would come back here
    home = _LAZY[name]
    module = importlib.import_module("." + home, __name__)
    globals().update({key: module if key == home else getattr(module, key)
                      for key, where in _LAZY.items() if where == home})
    return globals()[name]
