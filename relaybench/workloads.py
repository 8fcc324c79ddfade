"""Workloads: seeded inputs, the set-up a user pays once, and the timed jobs.

Every workload is a closed loop with one client: the next job starts
only after the previous one has returned and been checked. Node count,
depth and message length are fixed per workload, so every layer count
repeats exactly across seeds; only tree parents and message bits come
from the seed.

Nothing here imports ``relaycast`` at module level. Set-up imports it
afresh (its cost is part of ``setup_s``) and every later call goes
through the module object set-up returned.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Optional, Tuple

# The 13-node, depth-3 broadcast tree with mixed fan-out of the paper's
# figure 1 (the same tree the acceptance suite uses).
FIG1_TREE = (
    "# root\n"
    "0 -\n"
    "1 0\n2 0\n3 0\n"
    "4 1\n5 1\n6 2\n7 3\n8 3\n"
    "9 4\n10 4\n11 6\n12 7\n"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"end_to_end"`` (one ``relaycast.end_to_end(q, p, n,
    ...)`` call per job) or ``"codec_cli"`` (an in-process CLI encode to
    a file and a decode back, with the encoder file ``build-encoder``
    wrote at set-up). ``widths`` are the level widths below the root of
    a layered tree whose parents come from the seed; ``None`` selects
    the fixed figure-1 tree. Codec jobs use no tree.
    """

    kind: str
    q: int
    p: int
    n: int
    message_bits: int
    widths: Optional[Tuple[int, ...]] = None


# Why each exists is recorded in BENCHMARK.json; in short, wide_tree is
# dominated by per-node simulation and many short decodes, codec_cli by
# long-stream decoding and CLI parsing, high_rate_code by synthesis.
WORKLOADS = {
    "wide_tree": Workload("end_to_end", q=6, p=3, n=2, message_bits=256,
                          widths=tuple(4 << i for i in range(8))),
    "codec_cli": Workload("codec_cli", q=1, p=2, n=3, message_bits=65536),
    "high_rate_code": Workload("end_to_end", q=1, p=11, n=16,
                               message_bits=1100),
}


def random_bits(rng, length: int) -> str:
    return format(rng.getrandbits(length), f"0{length}b") if length else ""


def layered_tree(widths, rng) -> str:
    """Topology text: root 0, then one level per width, each node's
    parent drawn from the level above."""
    lines = ["0 -"]
    previous, next_id = [0], 1
    for width in widths:
        level = list(range(next_id, next_id + width))
        lines.extend(f"{v} {rng.choice(previous)}" for v in level)
        previous, next_id = level, next_id + width
    return "\n".join(lines) + "\n"


def tree_text(spec: Workload, rng) -> Optional[str]:
    if spec.kind == "codec_cli":
        return None
    return FIG1_TREE if spec.widths is None else layered_tree(spec.widths, rng)


def fresh_import() -> ModuleType:
    """Import ``relaycast`` as a new process would, dropping any loaded copy."""
    for name in [m for m in sys.modules
                 if m == "relaycast" or m.startswith("relaycast.")]:
        del sys.modules[name]
    return importlib.import_module("relaycast")


def cli(rc: ModuleType, argv) -> Tuple[int, str]:
    """``relaycast.run(argv)`` in process; returns exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rc.run(argv)
    return code, out.getvalue()


@dataclass
class Session:
    """What set-up leaves for the jobs."""

    rc: ModuleType
    spec: Workload
    topo: object
    workdir: Path

    @property
    def encoder_file(self) -> Path:
        return self.workdir / "code.enc"


def prepare(session: Session, text: Optional[str]) -> None:
    """Parse the workload tree and build the first encoder.

    For ``codec_cli`` the encoder is built by ``relaycast build-encoder
    --out``, the file every codec job reads.
    """
    rc, spec = session.rc, session.spec
    if spec.kind == "codec_cli":
        code, _ = cli(rc, ["build-encoder", "--q", str(spec.q),
                           "--p", str(spec.p), "--n", str(spec.n),
                           "--out", str(session.encoder_file)])
        if code != 0:
            raise RuntimeError(f"build-encoder exited with {code}")
        return
    session.topo = rc.parse_tree(text)
    rc.build_encoder(spec.q, spec.p, spec.n)


def end_to_end_job(session: Session, bits: str) -> Tuple[bool, int]:
    """One broadcast; returns (output correct, message bits x decoding nodes)."""
    spec = session.spec
    report = session.rc.end_to_end(spec.q, spec.p, spec.n, session.topo, bits)
    ok = report.all_recovered and report.message_bits == len(bits)
    return ok, len(bits) * len(report.nodes)


def codec_job(session: Session, bits: str) -> Tuple[bool, int]:
    """CLI encode to a file and decode back; returns (output correct, bits)."""
    rc, workdir = session.rc, session.workdir
    encoder = str(session.encoder_file)
    bits_file, stream_file = workdir / "message.bits", workdir / "message.stream"
    bits_file.write_text(bits)
    code, out = cli(rc, ["encode", "--encoder", encoder,
                         "--bits", str(bits_file), "--format", "raw"])
    lines = out.split("\n")
    pad = (-len(bits)) % session.spec.p
    if code != 0 or len(lines) < 2 or lines[0] != f"{len(bits)} {pad}":
        return False, len(bits)
    stream_file.write_text(lines[1])
    code, out = cli(rc, ["decode", "--encoder", encoder,
                         "--stream", str(stream_file),
                         "--length", str(len(bits))])
    return code == 0 and out == bits + "\n", len(bits)


JOBS = {"end_to_end": end_to_end_job, "codec_cli": codec_job}
