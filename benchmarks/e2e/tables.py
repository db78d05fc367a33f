"""Split a runner ``--out`` file into tables and digest what a run made.

The runner appends each experiment's table to ``--out`` as a fenced
block (three backticks, the table text, three backticks, blank line).
Each table is digested on its own, so a mismatch names the experiment.
A JSONL trace is digested after dropping every ``wall_s`` field: those
are host timings, the only part of the stream that differs between two
runs of the same code and seed.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import List, Tuple

_FENCE = "```"
_BLOCK = re.compile(r"```\n(.*?)\n```\n\n", re.DOTALL)
_HEADER = re.compile(r"== (\S+): ")
_WALL_S = re.compile(rb',"wall_s":[^,}]*')


def split_tables(text: str) -> List[str]:
    """The tables of an ``--out`` file, in order.

    Raises ``ValueError`` when the file holds anything besides fenced
    tables, so a truncated or interleaved file cannot pass as fewer
    tables.
    """
    tables = _BLOCK.findall(text)
    if "".join(f"{_FENCE}\n{t}\n{_FENCE}\n\n" for t in tables) != text:
        raise ValueError("--out file is not a sequence of fenced tables")
    return tables


def table_id(table: str) -> str:
    """The experiment id in a table's ``== fig15: ... ==`` header."""
    match = _HEADER.match(table)
    if match is None:
        raise ValueError(f"table has no header: {table[:60]!r}")
    return match.group(1)


def strip_wall_s(jsonl: bytes) -> bytes:
    """Remove every ``"wall_s":<number>`` field from compact JSONL.

    The runner's sink writes compact JSON whose records open with the
    ``v`` and ``kind`` fields, so a ``wall_s`` field is always preceded
    by a comma and its number holds neither a comma nor a brace.
    """
    return _WALL_S.sub(b"", jsonl)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digest(path: Path) -> Tuple[str, int]:
    """(sha256 of the JSONL file without ``wall_s``, its size in bytes).

    Read a line at a time: a trace can be larger than the program that
    wrote it, and the reader should stay small.
    """
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        for line in handle:
            size += len(line)
            digest.update(strip_wall_s(line))
    return digest.hexdigest(), size
