"""The snapshot store: mmap-persistent CSR planes on disk.

One on-disk format for "a CSR snapshot", spoken by every layer that used to
have its own: :meth:`CSRSignedGraph.save` / :meth:`~CSRSignedGraph.load`
persist and map snapshots directly, the dataset loaders cache their
parse-once results as store files, and the CLI's ``snapshot`` command
saves, loads and inspects them.

The layout is a fixed-size header, then 8-byte-aligned planes so every
mapped view is a properly aligned ndarray::

    offset 0    magic    b"RPROSNAP"                       8 bytes
           8    header   6 little-endian int64 words       48 bytes
                         version, node-table kind,
                         num_nodes, num_entries,
                         generation, node-table nbytes
          56    indptr   int64[num_nodes + 1]              8-aligned
           .    indices  int32[num_entries]                8-aligned
           .    signs    int8[num_entries]                 8-aligned
           .    node table                                 8-aligned

:func:`load_snapshot` and :func:`snapshot_info` read the base layout alone
and ignore any bytes past the node table, so files from earlier releases
that appended a trailing section there load unchanged.

The node table is the one part of a snapshot that cannot be mapped: node ids
are arbitrary hashable Python objects, so they are pickled.  Graphs whose
nodes are exactly ``0..n-1`` (most synthetic graphs) use the ``range`` kind instead — zero bytes on disk, rebuilt as
``list(range(n))`` on load — so the common case pays no pickling at all.

Writes are crash-safe: the planes go to a ``.tmp`` sibling first and
``os.replace`` promotes it atomically, so a reader never maps a half-written
file.  A write that fails or is interrupted by an exception unlinks its temp
file before the exception leaves :func:`write_atomically`; a process killed
outright (``SIGKILL``, ``os._exit``) can leave one behind, which no in-process
sweep could reach either.

Loading with ``mmap=True`` returns :class:`numpy.memmap` views — cold start
is the cost of mapping, not of parsing, and concurrent readers of the same
file share one page-cache copy.  ``mmap=False`` reads the planes into
ordinary arrays (use it when the file is about to be deleted or rewritten).
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import struct
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.signed.csr import CSRSignedGraph

#: First 8 bytes of every store file.
MAGIC = b"RPROSNAP"

#: Bump when the header or plane layout changes incompatibly.  Versions 1
#: and 2 share the base layout, so both are read (see
#: :data:`_COMPAT_VERSIONS`).
VERSION = 2

#: Versions this library reads.  Version-1 files are byte-identical to
#: version-2 files apart from the version word.
_COMPAT_VERSIONS = (1, 2)

#: Node-table kinds: dense int nodes need no table at all.
NODE_TABLE_RANGE = 0
NODE_TABLE_PICKLE = 1

#: ``magic + struct`` of the fixed header (6 little-endian int64 words).
_HEADER = struct.Struct("<8s6q")

#: ``(plane, dtype, itemsize)`` in file order; itemsizes are spelled out so
#: the layout (and :func:`snapshot_info`) computes without importing numpy.
_PLANE_DTYPES = (("indptr", "<i8", 8), ("indices", "<i4", 4), ("signs", "|i1", 1))


def _align(offset: int) -> int:
    return (offset + 7) & ~7


def _plane_layout(
    num_nodes: int, num_entries: int, node_table_nbytes: int
) -> Tuple[Dict[str, Tuple[str, int, int]], int]:
    """``{plane: (dtype, count, byte offset)}`` plus the total file size.

    Deterministic in the header fields alone, so writer and reader recompute
    it independently — the file carries no offset table.
    """
    counts = {
        "indptr": num_nodes + 1,
        "indices": num_entries,
        "signs": num_entries,
    }
    layout: Dict[str, Tuple[str, int, int]] = {}
    offset = _align(_HEADER.size)
    for name, dtype, itemsize in _PLANE_DTYPES:
        layout[name] = (dtype, counts[name], offset)
        offset = _align(offset + itemsize * counts[name])
    layout["node_table"] = ("|u1", node_table_nbytes, offset)
    return layout, offset + node_table_nbytes


# ------------------------------------------------------------------ temp files

_TEMP_COUNTER = itertools.count()


def _temp_path(path: str) -> str:
    """A unique ``.tmp`` sibling of ``path`` (same directory, same filesystem,
    so the final ``os.replace`` is atomic)."""
    return f"{path}.{os.getpid()}.{next(_TEMP_COUNTER)}.tmp"


# ------------------------------------------------------------------ write side


def _node_table_bytes(nodes: List) -> Tuple[int, bytes]:
    """``(kind, payload)`` for the node table — empty for dense int nodes."""
    num_nodes = len(nodes)
    if all(
        type(node) is int and node == position for position, node in enumerate(nodes)
    ):
        return NODE_TABLE_RANGE, b""
    return NODE_TABLE_PICKLE, pickle.dumps(nodes, protocol=pickle.HIGHEST_PROTOCOL)


def save_snapshot(csr: "CSRSignedGraph", path: str) -> str:
    """Persist ``csr`` to ``path`` in the store format; returns ``path``.

    Atomic: the bytes land in a temp sibling that ``os.replace`` promotes, so
    a concurrent (or later) :func:`load_snapshot` of ``path`` sees either the
    old complete file or the new complete file, never a torn write.
    """
    import numpy as np

    indptr = np.ascontiguousarray(csr.indptr, dtype="<i8")
    indices = np.ascontiguousarray(csr.indices, dtype="<i4")
    signs = np.ascontiguousarray(csr.signs, dtype="|i1")
    num_nodes = csr.number_of_nodes()
    num_entries = int(indices.size)
    if indptr.size != num_nodes + 1:
        raise ValueError(
            f"corrupt snapshot: indptr has {indptr.size} entries for "
            f"{num_nodes} nodes"
        )
    kind, table = _node_table_bytes(csr._nodes)
    layout, total = _plane_layout(num_nodes, num_entries, len(table))
    header = _HEADER.pack(
        MAGIC, VERSION, kind, num_nodes, num_entries, csr.generation, len(table)
    )

    def write(handle) -> None:
        handle.write(header)
        for name, array in (
            ("indptr", indptr),
            ("indices", indices),
            ("signs", signs),
        ):
            _dtype, _count, offset = layout[name]
            handle.write(b"\0" * (offset - handle.tell()))
            handle.write(array.tobytes())
        _dtype, _count, offset = layout["node_table"]
        handle.write(b"\0" * (offset - handle.tell()))
        handle.write(table)
        assert handle.tell() == total

    return write_atomically(path, write)


def write_atomically(path: str, write: Callable[[io.BufferedWriter], None]) -> str:
    """Have ``write(handle)`` fill a temp sibling, then promote it to ``path``.

    The temp file is unlinked if anything fails before ``os.replace``, so
    ``path`` only ever appears complete.  Returns ``path``.
    """
    temp = _temp_path(path)
    try:
        with open(temp, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    return path


# ------------------------------------------------------------------- read side


def _read_header(handle: io.BufferedReader, path: str) -> Tuple[int, ...]:
    raw = handle.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path!r} is not a snapshot store file (truncated header)")
    magic, version, kind, num_nodes, num_entries, generation, table_nbytes = (
        _HEADER.unpack(raw)
    )
    if magic != MAGIC:
        raise ValueError(f"{path!r} is not a snapshot store file (bad magic)")
    if version not in _COMPAT_VERSIONS:
        raise ValueError(
            f"{path!r} is store format version {version}; this library reads "
            f"versions {_COMPAT_VERSIONS}"
        )
    if kind not in (NODE_TABLE_RANGE, NODE_TABLE_PICKLE):
        raise ValueError(f"{path!r} has unknown node-table kind {kind}")
    if num_nodes < 0 or num_entries < 0 or table_nbytes < 0:
        raise ValueError(f"{path!r} has a corrupt header (negative plane size)")
    return version, kind, num_nodes, num_entries, generation, table_nbytes


def load_snapshot(path: str, mmap: bool = True) -> "CSRSignedGraph":
    """Load a store file back into a :class:`CSRSignedGraph`.

    With ``mmap=True`` (the default) the three planes are read-only
    :class:`numpy.memmap` views — the graph is usable after one page-cache
    map, and identical bytes on disk yield identical arrays.  With
    ``mmap=False`` the planes are copied into ordinary arrays and the file
    can be deleted afterwards.  Either way the result is bit-identical to the
    snapshot that was saved: same dtypes, same values, same node order, same
    ``generation``.
    """
    import numpy as np

    from repro.signed.csr import CSRSignedGraph

    with open(path, "rb") as handle:
        _version, kind, num_nodes, num_entries, generation, table_nbytes = (
            _read_header(handle, path)
        )
        layout, total = _plane_layout(num_nodes, num_entries, table_nbytes)
        if os.fstat(handle.fileno()).st_size < total:
            raise ValueError(f"{path!r} is truncated (expected {total} bytes)")
        planes = {}
        for name, _dtype, _itemsize in _PLANE_DTYPES:
            dtype, count, offset = layout[name]
            if mmap:
                planes[name] = np.memmap(
                    handle, dtype=dtype, mode="r", offset=offset, shape=(count,)
                )
            else:
                handle.seek(offset)
                planes[name] = np.fromfile(handle, dtype=dtype, count=count)
        if kind == NODE_TABLE_PICKLE:
            _dtype, count, offset = layout["node_table"]
            handle.seek(offset)
            nodes = pickle.loads(handle.read(count))
            index: Optional[Dict] = None
        else:
            nodes = list(range(num_nodes))
            index = {node: node for node in nodes}
    return CSRSignedGraph(
        planes["indptr"],
        planes["indices"],
        planes["signs"],
        nodes,
        index=index,
        generation=generation,
    )


def snapshot_info(path: str) -> Dict[str, object]:
    """The header and layout of a store file, without loading any plane.

    Powers ``repro-teams snapshot info`` (and its ``--json`` form); raises
    the same :class:`ValueError` diagnostics as :func:`load_snapshot` on
    non-store or truncated files.  The layout computes from the header
    alone.  ``file_nbytes`` exceeds ``expected_nbytes`` when
    trailing bytes follow the node table (they are ignored on load).
    """
    with open(path, "rb") as handle:
        version, kind, num_nodes, num_entries, generation, table_nbytes = (
            _read_header(handle, path)
        )
        size = os.fstat(handle.fileno()).st_size
    layout, total = _plane_layout(num_nodes, num_entries, table_nbytes)
    return {
        "path": path,
        "version": version,
        "num_nodes": num_nodes,
        "num_edges": num_entries // 2,
        "num_entries": num_entries,
        "generation": generation,
        "node_table_kind": "range" if kind == NODE_TABLE_RANGE else "pickle",
        "node_table_nbytes": table_nbytes,
        "file_nbytes": size,
        "expected_nbytes": total,
        "planes": {
            name: {"dtype": dtype, "count": count, "offset": offset}
            for name, (dtype, count, offset) in layout.items()
        },
    }
