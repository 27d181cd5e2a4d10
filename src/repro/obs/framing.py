"""Framed JSONL: the one line format of trace and timeline files.

Every line is a JSON object with a ``kind``. ``<name>.header`` comes
first and carries an integer ``schema`` no newer than the reader
supports; ``<name>.trailer`` comes last and is folded into the header
under ``"trailer"``. What the body lines between them mean belongs to
the format module (:mod:`repro.obs.tracer`, :mod:`repro.obs.timeline`).
A file that breaks the frame raises that format's subclass of
:class:`FormatError` naming the file and line — never a ``KeyError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, TextIO


class FormatError(ValueError):
    """A record file (framed JSONL or one JSON document) is unreadable."""


def open_text(path: str, error: type[FormatError]) -> TextIO:
    """``open(path)``, or ``error`` naming the file when it cannot be read."""
    try:
        return open(path)
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from exc


def parse_object(text: str, error: type[FormatError], where: str, what: str) -> dict:
    """``text`` as a JSON object, or ``error`` saying why it is not one."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: not valid JSON ({exc.msg}); is this a {what}?") from exc
    if not isinstance(record, dict):
        raise error(f"{where}: expected a JSON object, got {type(record).__name__}")
    return record


@dataclass(frozen=True)
class Frame:
    """One framed format: its name, newest schema and error type."""

    name: str
    schema: int
    error: type[FormatError]
    #: the schema of a file with no header line; None = header required
    headerless_schema: int | None = None

    def line(self, part: str, **fields) -> str:
        """The ``<name>.<part>`` framing line (``header`` or ``trailer``)."""
        record = {"kind": f"{self.name}.{part}", "schema": self.schema, **fields}
        return json.dumps(record, sort_keys=True) + "\n"

    def read(self, path: str, body: Callable[[dict, str], None]) -> dict:
        """Check ``path``'s frame and return its header; each body line
        goes, as a fresh dict ``body`` may keep or change, to
        ``body(record, "path:lineno")`` in file order."""
        name, error = self.name, self.error
        header_kind, trailer_kind = f"{name}.header", f"{name}.trailer"
        header = trailer = None
        first = True
        with open_text(path, error) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path}:{lineno}"
                record = parse_object(line, error, where, f"{name} file")
                kind = record.get("kind")
                if kind is None:
                    raise error(
                        f"{where}: line has no 'kind' field; not a repro {name} "
                        "file (or written by an incompatible version)"
                    )
                if trailer is not None:
                    raise error(f"{where}: {kind} line after the {trailer_kind}")
                if kind == header_kind:
                    schema = record.get("schema")
                    if not first:
                        raise error(f"{where}: {header_kind} is not the first line")
                    if not isinstance(schema, int):
                        raise error(f"{where}: {name} header missing integer 'schema' field")
                    if schema > self.schema:
                        raise error(
                            f"{where}: {name} schema {schema} is newer than this "
                            f"reader (supports <= {self.schema}); upgrade to read it"
                        )
                    header = record
                elif header is None and (kind == trailer_kind or self.headerless_schema is None):
                    raise error(f"{where}: {kind} before header — not a framed {name} file")
                elif kind == trailer_kind:
                    trailer = record
                else:
                    body(record, where)
                first = False
        if header is None:
            if self.headerless_schema is None:
                raise error(f"{path}: no {header_kind} line found")
            header = {"schema": self.headerless_schema}
        return header if trailer is None else dict(header, trailer=trailer)
