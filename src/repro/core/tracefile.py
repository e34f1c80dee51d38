"""The trace file: a recorded :class:`~repro.core.events.Trace` on disk.

:meth:`Trace.save <repro.core.events.Trace.save>` writes, and
:meth:`Trace.load <repro.core.events.Trace.load>` reads, one format:

======  ============================================================
offset  content
======  ============================================================
0       the magic string ``b"repro-trace\\n"`` (12 bytes)
12      the format version (:data:`VERSION`), 4 bytes little-endian
16      the header's length in bytes, 8 bytes little-endian
24      the header: one ASCII JSON object (below)
…       the raw bytes of the ``access``, ``runs`` and ``structure``
        columns (:data:`COLUMNS`), in that order, each as long as
        the header says
======  ============================================================

The header's fields:

* ``byteorder``: ``"little"`` or ``"big"``, that of the columns;
* ``columns``: ``[name, typecode, length]`` per column, in file order.
  ``access`` holds the packed rows, ``runs`` the flat ``(kind, count)``
  pairs, and ``structure`` the structure tuples laid end to end (each
  tuple's opcode fixes its width, :data:`~repro.core.events.OP_WIDTHS`);
* ``task_keys`` and ``locs``: the task ids and location keys.  A tuple is
  written as an array, and every array reads back as a tuple (keys are
  hashable, so no key holds a list); a numpy integer index is written as
  an int.  A key holding anything but tuples, ``str``, ``int``, finite
  ``float``, ``bool`` and ``None`` makes :func:`write_columns` raise
  ``TypeError`` naming it;
* ``access_sites``: ``null``, or one call-site label (or ``null``) per
  access row.

The tasks' future flags are not stored: each create tuple carries its
child's.  Loading runs no code.  :func:`read_columns` checks the magic,
the version, the header and every size it names against the bytes
present before it reads a column, and reads each column with one
``frombytes`` (no Python work per access row).  Any fault, a pickle and a
cut file included, raises :class:`~repro.core.events.TraceFormatError`
with its byte offset and the reason.  So do run segments that do not
cover the columns exactly, since a loaded trace's builder resumes them.
Any other fault inside well-sized columns is left to the checks the
kernel and the decoder make on any columns.
"""

from __future__ import annotations

import json
import operator
import sys
from array import array
from contextlib import nullcontext
from itertools import chain

from repro.core.events import (
    OP_TASK_CREATE,
    OP_WIDTHS,
    RUN_ACCESS,
    RUN_STRUCTURE,
    EncodedTrace,
    TraceFormatError,
)

__all__ = ["MAGIC", "VERSION", "COLUMNS", "write_columns", "read_columns"]

MAGIC = b"repro-trace\n"
VERSION = 1
#: The bytes before the header: magic, version, header length.
PREAMBLE = len(MAGIC) + 4 + 8
#: The array columns in file order, each with the typecode it is written in.
COLUMNS = (("access", "Q"), ("runs", "q"), ("structure", "q"))
_HEADER_KEYS = ("byteorder", "columns", "task_keys", "locs", "access_sites")
_SITES = {str, type(None)}


def _fault(offset: int, reason: str) -> TraceFormatError:
    err = TraceFormatError(offset, reason)
    err.args = (f"byte {offset}: {reason}",)
    return err


def _dumps(value) -> str:
    # ``json`` writes a tuple as an array; ``operator.index`` turns a
    # numpy integer into an int and refuses any other type.
    return json.dumps(value, default=operator.index, allow_nan=False,
                      separators=(",", ":"))


def write_columns(enc: EncodedTrace, file) -> None:
    """Write whole columns ``enc`` to ``file`` (a path or a binary file
    object) as a trace file."""
    columns = (enc.access, enc.runs,
               array("q", chain.from_iterable(enc.structure)))
    try:
        header = _dumps({
            "byteorder": sys.byteorder,
            "columns": [[name, col.typecode, len(col)]
                        for (name, _), col in zip(COLUMNS, columns)],
            "task_keys": enc.task_keys,
            "locs": enc.locs,
            "access_sites": enc.access_sites,
        }).encode("ascii")
    except (TypeError, ValueError):
        for what, keys in (("task", enc.task_keys), ("location", enc.locs)):
            for key in keys:
                try:
                    _dumps(key)
                except (TypeError, ValueError):
                    raise TypeError(
                        f"{what} key {key!r} cannot be saved: a trace file "
                        "holds tuples, str, int, finite float, bool and "
                        "None") from None
        raise
    with (nullcontext(file) if hasattr(file, "write")
          else open(file, "wb")) as fh:
        for part in (MAGIC, VERSION.to_bytes(4, "little"),
                     len(header).to_bytes(8, "little"), header, *columns):
            fh.write(part)


def _tuple(array: list) -> tuple:
    return tuple([_tuple(v) if type(v) is list else v for v in array])


def _keys(header: dict, name: str):
    """The header's task ids or location keys, each array read as a
    tuple, and the key -> position map."""
    values = header[name]
    if type(values) is not list:
        raise _fault(PREAMBLE, f"header {name!r} is {values!r}, not a list")
    keys = [_tuple(v) if type(v) is list else v for v in values]
    try:
        index = dict(zip(keys, range(len(keys))))
    except TypeError:  # a JSON object: no key is one
        raise _fault(PREAMBLE, f"header {name!r} holds an object") from None
    if len(index) != len(keys):
        raise _fault(PREAMBLE, f"header {name!r} repeats a key")
    return keys, index


def _need(data, end: int, what: str) -> None:
    if len(data) < end:
        raise _fault(len(data), f"the file ends at byte {len(data)}, "
                                f"inside {what}, which ends at byte {end}")


def read_columns(file) -> EncodedTrace:
    """The columns of the trace file ``file`` (a path or a binary file
    object); raises :class:`TraceFormatError` on any fault (see above)."""
    with (nullcontext(file) if hasattr(file, "read")
          else open(file, "rb")) as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        if MAGIC.startswith(data):
            _need(data, len(MAGIC), "the magic string")
        if data[:1] == b"\x80":
            raise _fault(0, "a pickle, not a trace file (pickled traces "
                            "are not loaded)")
        raise _fault(0, f"not a trace file: it starts "
                        f"{data[:len(MAGIC)]!r}, not {MAGIC!r}")
    _need(data, PREAMBLE, "the preamble")
    version = int.from_bytes(data[len(MAGIC):len(MAGIC) + 4], "little")
    if version != VERSION:
        raise _fault(len(MAGIC), f"format version {version}; this reader "
                                 f"reads version {VERSION}")
    end = PREAMBLE + int.from_bytes(data[PREAMBLE - 8:PREAMBLE], "little")
    _need(data, end, "the header")
    try:
        header = json.loads(data[PREAMBLE:end].decode("ascii"))
    except UnicodeDecodeError as exc:
        raise _fault(PREAMBLE + exc.start,
                     "a non-ASCII byte in the header") from None
    except (ValueError, RecursionError) as exc:  # also an overlong int
        raise _fault(PREAMBLE + getattr(exc, "pos", 0), f"the header is "
                     f"not JSON: {getattr(exc, 'msg', exc)}") from None
    if type(header) is not dict or sorted(header) != sorted(_HEADER_KEYS):
        raise _fault(PREAMBLE, f"the header's fields are not "
                               f"{', '.join(_HEADER_KEYS)}")
    byteorder = header["byteorder"]
    if byteorder not in ("little", "big"):
        raise _fault(PREAMBLE, f"byte order {byteorder!r}")

    # Every column's span, checked against the bytes present.
    specs = header["columns"]
    if type(specs) is not list or len(specs) != len(COLUMNS):
        raise _fault(PREAMBLE, f"header 'columns' is {specs!r}")
    spans = []
    start = end
    for spec, (name, code) in zip(specs, COLUMNS):
        if (type(spec) is not list or len(spec) != 3
                or spec[:2] != [name, code] or type(spec[2]) is not int
                or spec[2] < 0):
            raise _fault(PREAMBLE, f"column entry {spec!r}; expected "
                                   f"[{name!r}, {code!r}, <length>]")
        stop = start + spec[2] * array(code).itemsize
        _need(data, stop, f"the {name} column")
        spans.append((code, start, stop))
        start = stop
    if start != len(data):
        raise _fault(start, f"{len(data) - start} bytes after the last "
                            f"column")
    task_keys, _ = _keys(header, "task_keys")
    locs, loc_index = _keys(header, "locs")
    if not task_keys or task_keys[0] != 0:
        raise _fault(PREAMBLE, "the main task's id is not 0")
    access_rows = specs[0][2]
    sites = header["access_sites"]
    if sites is not None and (type(sites) is not list
                              or len(sites) != access_rows
                              or not _SITES.issuperset(map(type, sites))):
        raise _fault(PREAMBLE, f"header 'access_sites' is not null or "
                               f"{access_rows} labels")

    view = memoryview(data)
    access, runs, flat = (array(code) for code, _, _ in spans)
    for col, (_, start, stop) in zip((access, runs, flat), spans):
        col.frombytes(view[start:stop])
        if byteorder != sys.byteorder:
            col.byteswap()

    # Structure tuples back from their flat items, one per opcode width.
    structure = []
    is_future = bytearray(1)
    k = 0
    while k < len(flat):
        width = OP_WIDTHS.get(flat[k], 0)
        if not width or k + width > len(flat):
            raise _fault(spans[2][1] + flat.itemsize * k,
                         f"structure item {k}: opcode {flat[k]} with "
                         f"{len(flat) - k} items left")
        t = tuple(flat[k:k + width])
        if t[0] == OP_TASK_CREATE:
            is_future.append(1 if t[2] else 0)
        structure.append(t)
        k += width
    if len(is_future) != len(task_keys):
        raise _fault(PREAMBLE, f"{len(task_keys)} task ids for "
                               f"{len(is_future)} tasks")
    # A loaded trace's builder resumes the columns, so the runs must
    # segment them whole: it would close a gap with a run of its own.
    covered = [0, 0]
    for kind, count in zip(runs[::2], runs[1::2]):
        if kind not in (RUN_ACCESS, RUN_STRUCTURE) or count < 1:
            covered = None
            break
        covered[kind] += count
    if len(runs) % 2 or covered != [len(access), len(structure)]:
        raise _fault(spans[1][1], f"the runs do not segment {len(access)} "
                                  f"access rows and {len(structure)} "
                                  f"structure tuples")

    enc = EncodedTrace()
    enc.access, enc.runs, enc.structure = access, runs, structure
    enc.task_keys, enc.is_future, enc.access_sites = (
        task_keys, is_future, sites)
    enc.locs, enc.loc_index = locs, loc_index
    return enc
