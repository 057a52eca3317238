"""Vectorised CSR-first edge-list ingestion.

:func:`repro.signed.io.parse_edge_list` builds a Python dict graph one line at
a time — at a million nodes that is gigabytes of dict overhead and minutes of
interpreter looping before the first CSR kernel can run.  This module parses
the same files straight into :class:`~repro.signed.csr.CSRSignedGraph` planes:
the file is read in 4 MB blocks (``CHUNK_BYTES``), split and converted with
``np.frombuffer``/``np.fromstring``, and deduplication, undirected
symmetrisation and largest-component restriction all happen on numpy arrays.

Bit-identity with the dict parser is a hard contract, relied on by the loader
cache and the Zipf skill model (both key off node order):

* node order is first-appearance order in the accepted edge stream,
* each CSR row lists neighbours in edge first-appearance order, with the two
  directions of one undirected edge adjacent in time (``u→v`` then ``v→u``),
* duplicate pairs follow the ``keep_first`` / ``negative_wins`` / ``error``
  policies of :func:`~repro.signed.io.parse_edge_list` exactly.

Files whose node labels are not plain integers (string or quoted ids, bare
``+``/``-`` sign tokens, trailing extra columns) take a second, token-mode
scan: whitespace-delimited byte tokens are mapped to dense ids with an
incremental ``np.unique`` vocabulary and fed through the same dedupe/plane
assembly, so they stay vectorised end to end.  Anything neither scanner can
prove it parses identically to the dict parser — short lines, invalid sign
tokens, non-ASCII bytes, labels whose ``int()`` coercion is ambiguous
(``01`` vs ``1``) — makes :func:`parse_edge_list_csr` return ``None`` so the
caller can fall back to the dict parser (which also produces the proper
line-numbered errors).  The fallback is about fidelity, not robustness:
well-formed edge lists never take it.

Assembly sorts each grouping once.  :func:`_group_keys` packs
``key << b | position`` into one int64 and runs a plain ``np.sort``: group
starts are where the key bits change and each group's first position is in
its low bits.  :func:`dedupe_undirected` uses it twice — on the interleaved
endpoint labels (dense ids are broadcast back over each group with
``np.repeat``) and on the undirected edge keys (signs reconciled with
``np.minimum``/``np.maximum.reduceat``, kept edges read off a mark of each
group's first position) — and :func:`build_csr_planes` once, on
``source << b | position``, for the stable row order.  Only keys whose range
needs more than ``63 - b`` bits fall back to ``np.argsort``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import DatasetError
from repro.signed.csr import CSRSignedGraph
from repro.signed.graph import Node

PathLike = Union[str, Path]

#: Text block size for the chunked reader (the last partial line of each block
#: is carried into the next one, so lines never straddle a parse call).  The
#: scanner's per-chunk masks and index arrays cost ~10x the chunk size, so the
#: block is kept small to bound peak RSS; throughput is flat from ~1MB up.
CHUNK_BYTES = 4 * 1024 * 1024

_POLICIES = ("keep_first", "negative_wins", "error")

# Byte-level classification tables (applied after ``,``/tab/CR → space).
_SPACE_TRANS = bytes.maketrans(b",\t\r", b"   ")
_SPACE, _NEWLINE, _HASH, _PERCENT = 32, 10, 35, 37
_PLUS, _MINUS, _ZERO = 43, 45, 48

_ALLOWED = np.zeros(256, dtype=bool)
_ALLOWED[48:58] = True  # digits
_ALLOWED[[_SPACE, _NEWLINE, _PLUS, _MINUS]] = True

_DIGIT = np.zeros(256, dtype=bool)
_DIGIT[48:58] = True

_TOKEN_BREAK = np.zeros(256, dtype=bool)
_TOKEN_BREAK[[_SPACE, _NEWLINE]] = True

#: int64 holds 18 fully-general decimal digits; longer runs could overflow
#: silently inside ``np.fromstring``, so they force the dict fallback.
_MAX_DIGIT_RUN = 18


class _VectorParseUnsupported(Exception):
    """Internal signal: this input needs the reference dict parser."""


# --------------------------------------------------------------------- scanner


def _data_line_spans(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spans of the data lines (non-empty, non-comment) of one block.

    ``arr`` is the space-translated byte view of a newline-terminated block.
    Returns ``(arr, starts, ends)`` where comment lines have been blanked to
    spaces (in a copy, when any exist) so downstream scans can ignore them,
    and ``starts``/``ends`` bound exactly the lines that carry data.
    """
    size = arr.size
    newline_pos = np.flatnonzero(arr == _NEWLINE)
    starts = np.concatenate(([0], newline_pos + 1))
    ends = np.append(newline_pos, size)
    del newline_pos
    real = starts < ends  # drops empty lines and a trailing-newline phantom
    starts, ends = starts[real], ends[real]
    del real
    if starts.size == 0:
        return arr, starts, ends

    content = (arr != _SPACE) & (arr != _NEWLINE)
    # Per-line non-space counts via reduceat — no per-byte index array.
    has_content = np.add.reduceat(content, starts) > 0
    comment = np.zeros(starts.size, dtype=bool)
    marker_pos = np.flatnonzero((arr == _HASH) | (arr == _PERCENT))
    if marker_pos.size:
        # Only lines holding a marker byte can be comments: such a line is
        # one when nothing but spaces precedes its first marker.
        line = np.searchsorted(starts, marker_pos, side="right") - 1
        head = np.ones(line.size, dtype=bool)
        np.not_equal(line[1:], line[:-1], out=head[1:])
        line, marker_pos = line[head], marker_pos[head]
        line_start = starts[line]
        # reduceat over (line start, first marker) pairs: the even slots count
        # the content before each marker (a marker at the line start reads
        # its own byte, hence the explicit equality).
        bounds = np.empty(2 * line.size, dtype=np.int64)
        bounds[0::2] = line_start
        bounds[1::2] = marker_pos
        led = np.add.reduceat(content, bounds)[0::2]
        comment[line] = (marker_pos == line_start) | (led == 0)
        del line, head, line_start, bounds, led
        if comment.any():
            # Blank comment lines in a copy so the numeric scan skips them:
            # index arrays cover the comment bytes only, never the chunk.
            arr = arr.copy()
            comment_starts, comment_ends = starts[comment], ends[comment]
            lengths = comment_ends - comment_starts
            offsets = np.cumsum(lengths) - lengths
            arr[
                np.repeat(comment_starts - offsets, lengths)
                + np.arange(int(lengths.sum()))
            ] = _SPACE
            del comment_starts, comment_ends, lengths, offsets
    del marker_pos
    keep = has_content & ~comment
    del content, has_content, comment
    return arr, starts[keep], ends[keep]


def _scan_chunk(chunk: bytes) -> Tuple[np.ndarray, int]:
    """Parse one newline-terminated block into numbers.

    Returns ``(values, data_lines)`` where ``values`` is a flat int64 array of
    every number on the block's data lines and ``data_lines`` counts the
    non-empty, non-comment lines.  Raises :class:`_VectorParseUnsupported`
    whenever byte patterns show the block might parse differently under the
    reference parser.
    """
    arr = np.frombuffer(chunk.translate(_SPACE_TRANS), dtype=np.uint8)
    arr, starts, ends = _data_line_spans(arr)
    size = arr.size
    data_lines = starts.size
    del starts, ends
    if data_lines == 0:
        return np.empty(0, dtype=np.int64), 0

    if not _ALLOWED[arr].all():
        raise _VectorParseUnsupported("non-numeric bytes")
    # Sign characters are only unambiguous at token starts ("1-2" would split
    # into two numbers where the dict parser sees one string token).
    sign_pos = np.flatnonzero((arr == _PLUS) | (arr == _MINUS))
    if sign_pos.size:
        prev = arr[sign_pos - 1]
        bad = (sign_pos > 0) & ~_TOKEN_BREAK[prev]
        if bad.any():
            raise _VectorParseUnsupported("sign character inside a token")
        # A bare "+" or "-" is a valid sign token to the dict parser, but
        # np.fromstring reads it as 0: leave such lines to token mode.
        after = sign_pos + 1
        bare = after >= size
        bare[~bare] = _TOKEN_BREAK[arr[after[~bare]]]
        if bare.any():
            raise _VectorParseUnsupported("bare sign token")
        del prev, bad, after, bare
    del sign_pos
    # Leading zeros: int("01") == 1 for a *node* but "01" is an invalid *sign*
    # token to the dict parser, so any 0-led multi-digit token falls back.
    zero_pos = np.flatnonzero(arr == _ZERO)
    if zero_pos.size:
        at_start = np.ones(zero_pos.size, dtype=bool)
        prior = zero_pos > 0
        prev = arr[zero_pos[prior] - 1]
        at_start[prior] = _TOKEN_BREAK[prev] | (prev == _PLUS) | (prev == _MINUS)
        followed = np.zeros(zero_pos.size, dtype=bool)
        inner = zero_pos < size - 1
        followed[inner] = _DIGIT[arr[zero_pos[inner] + 1]]
        if (at_start & followed).any():
            raise _VectorParseUnsupported("leading zero in a token")
        del at_start, prior, prev, followed, inner
    del zero_pos
    # Digit runs longer than int64 can hold: a windowed AND by doubling —
    # ``run[i]`` is True when ``width`` consecutive bytes from ``i`` are all
    # digits — keeps every temporary the size of one boolean mask.
    run = _DIGIT[arr]
    width = 1
    while width <= _MAX_DIGIT_RUN:
        step = min(width, _MAX_DIGIT_RUN + 1 - width)
        if run.size <= step:
            run = run[:0]
            break
        run = run[: run.size - step] & run[step:]
        width += step
    if run.size and run.any():
        raise _VectorParseUnsupported("integer token too long")
    del run

    values = np.fromstring(arr.tobytes(), dtype=np.int64, sep=" ")
    if values.size != 3 * data_lines:
        raise _VectorParseUnsupported("line/token count mismatch")
    return values, data_lines


# ---------------------------------------------------------------- token scanner


#: Token-mode cap on label length: the fixed-width ``S``-dtype extraction
#: allocates ``3 * lines * width`` bytes per chunk, so pathological labels
#: force the dict fallback instead of a quadratic blow-up.
_MAX_TOKEN_BYTES = 64

#: Bijective decimal spellings — ``int(token)`` round-trips to exactly this
#: string, so canonicalising them can never merge two distinct byte tokens.
_CANONICAL_INT = re.compile(rb"0|-?[1-9][0-9]*")

#: The wider set ``int()`` might accept (signs, leading zeros, ``1_0``-style
#: underscore groups).  Non-canonical members parse to ints under the dict
#: parser but not bijectively, so they force the fallback.
_INT_LIKE = re.compile(rb"[+-]?[0-9_]*[0-9][0-9_]*")


def _scan_chunk_tokens(chunk: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tokenise one newline-terminated block into ``(u, v, sign)`` columns.

    The generalisation of :func:`_scan_chunk` for files whose node labels are
    not plain integers: every data line is split into whitespace-delimited
    byte tokens (after the same ``,``/tab/CR translation), the first two
    become ``S``-dtype label columns and the third the ±1 sign column.  Lines
    keep the dict parser's semantics exactly — at least three tokens, extra
    tokens ignored.  Raises :class:`_VectorParseUnsupported` for anything the
    dict parser would reject (short lines, bad sign tokens) or that byte-level
    tokens cannot represent faithfully (control bytes, non-ASCII).
    """
    arr = np.frombuffer(chunk.translate(_SPACE_TRANS), dtype=np.uint8)
    empty = np.empty(0, dtype="S1")
    if arr.size == 0:
        return empty, empty, np.empty(0, dtype=np.int64)
    # The dict parser reads text and splits on *any* whitespace; remaining
    # control bytes (vertical tab, form feed, NUL...) or non-ASCII bytes would
    # tokenise differently here, so they are not claimed.
    if (((arr < _SPACE) & (arr != _NEWLINE)) | (arr >= 128)).any():
        raise _VectorParseUnsupported("control or non-ascii byte")
    arr, starts, ends = _data_line_spans(arr)
    num_lines = starts.size
    if num_lines == 0:
        return empty, empty, np.empty(0, dtype=np.int64)

    content = (arr != _SPACE) & (arr != _NEWLINE)
    boundary = np.empty_like(content)
    boundary[0] = content[0]
    np.greater(content[1:], content[:-1], out=boundary[1:])
    token_start = np.flatnonzero(boundary)
    boundary[-1] = content[-1]
    np.greater(content[:-1], content[1:], out=boundary[:-1])
    token_end = np.flatnonzero(boundary) + 1
    del content, boundary
    lengths = token_end - token_start
    if lengths.size and int(lengths.max()) > _MAX_TOKEN_BYTES:
        raise _VectorParseUnsupported("token too long")

    # Comments are blanked and blank lines carry no tokens, so every token
    # falls inside a data-line span.
    line_of = np.searchsorted(starts, token_start, side="right") - 1
    token_counts = np.bincount(line_of, minlength=num_lines)
    del line_of
    if (token_counts < 3).any():
        raise _VectorParseUnsupported("short line")
    line_first = np.zeros(num_lines, dtype=np.int64)
    np.cumsum(token_counts[:-1], out=line_first[1:])
    del token_counts
    # Column-major selection: all sources, then targets, then signs — the
    # dict parser's parts[0] / parts[1] / parts[2] with extras ignored.
    select = np.concatenate([line_first, line_first + 1, line_first + 2])
    del line_first
    sel_start = token_start[select]
    sel_len = lengths[select]
    del token_start, token_end, lengths, select
    width = int(sel_len.max())
    span = np.arange(width, dtype=np.int64)
    valid = span[None, :] < sel_len[:, None]
    matrix = np.zeros((sel_start.size, width), dtype=np.uint8)
    matrix[valid] = arr[(sel_start[:, None] + span[None, :])[valid]]
    tokens = matrix.view(f"S{width}").ravel()
    del matrix, valid, span, sel_start, sel_len

    u_tokens = tokens[:num_lines]
    v_tokens = tokens[num_lines : 2 * num_lines]
    sign_tokens = tokens[2 * num_lines :]
    positive = (sign_tokens == b"1") | (sign_tokens == b"+1") | (sign_tokens == b"+")
    negative = (sign_tokens == b"-1") | (sign_tokens == b"-")
    if not (positive | negative).all():
        raise _VectorParseUnsupported("invalid sign token")
    signs = np.where(positive, 1, -1).astype(np.int64)
    return u_tokens.copy(), v_tokens.copy(), signs


class _TokenVocabulary:
    """Incremental byte-token → dense-id assignment across chunks.

    Ids are stable (a token keeps the id of its first appearance in *some*
    chunk) while lookups run on a sorted array — chunk token columns map to
    ids with one ``np.unique`` + two ``searchsorted`` calls, no Python dict.
    The id order is arbitrary; first-appearance *node* order is recovered
    downstream by :func:`dedupe_undirected` exactly as for integer inputs.
    """

    def __init__(self) -> None:
        self._sorted = np.empty(0, dtype="S1")
        self._sorted_ids = np.empty(0, dtype=np.int64)
        self.tokens: List[bytes] = []  # indexed by id

    def assign(self, column: np.ndarray) -> np.ndarray:
        """Map one ``S``-dtype token column to int64 ids, growing the vocab."""
        width = max(self._sorted.dtype.itemsize, column.dtype.itemsize, 1)
        kind = f"S{width}"
        vocab = self._sorted.astype(kind, copy=False)
        column = column.astype(kind, copy=False)
        distinct = np.unique(column)
        if vocab.size:
            at = np.minimum(np.searchsorted(vocab, distinct), vocab.size - 1)
            fresh = distinct[vocab[at] != distinct]
        else:
            fresh = distinct
        if fresh.size:
            fresh_ids = len(self.tokens) + np.arange(fresh.size, dtype=np.int64)
            self.tokens.extend(fresh.tolist())
            merged = np.concatenate([vocab, fresh])
            merged_ids = np.concatenate([self._sorted_ids, fresh_ids])
            order = np.argsort(merged)
            self._sorted = merged[order]
            self._sorted_ids = merged_ids[order]
            vocab = self._sorted
        return self._sorted_ids[np.searchsorted(vocab, column)]

    def node_labels(self) -> List[Node]:
        """Python node objects per id, with the dict parser's int coercion.

        Canonical decimal spellings become ints (``int(token)`` is a bijection
        on them, so no two ids can collapse onto one label); other int-like
        spellings (``01``, ``+5``, ``1_0``) *would* coerce under the dict
        parser but not bijectively — they raise and force the fallback.
        """
        labels: List[Node] = []
        for token in self.tokens:
            if _CANONICAL_INT.fullmatch(token):
                labels.append(int(token))
            elif _INT_LIKE.fullmatch(token):
                raise _VectorParseUnsupported("non-canonical integer label")
            else:
                labels.append(token.decode("ascii"))
        return labels


def read_edge_arrays(
    path: PathLike, chunk_bytes: int = CHUNK_BYTES
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Read ``u v sign`` columns of an edge-list file as int64 arrays.

    Returns ``None`` when the file uses syntax the vectorised scanner cannot
    prove equivalent to :func:`~repro.signed.io.parse_edge_list` (the caller
    should re-parse with the dict parser, which also raises the precise,
    line-numbered errors for genuinely malformed input).  Raises
    :class:`DatasetError` when the file is missing.
    """
    file_path = Path(path)
    if not file_path.exists():
        raise DatasetError(f"edge-list file not found: {file_path}")
    # Accumulated per column (not as one flat values array) so the final
    # concatenation never holds more than one column's worth of copies.
    pieces: Tuple[List[np.ndarray], ...] = ([], [], [])
    try:
        with file_path.open("rb") as handle:
            tail = b""
            while True:
                block = handle.read(chunk_bytes)
                if not block:
                    if tail:
                        _split_columns(_scan_chunk(tail)[0], pieces)
                    break
                data = tail + block
                cut = data.rfind(b"\n")
                if cut < 0:
                    tail = data
                    continue
                _split_columns(_scan_chunk(data[: cut + 1])[0], pieces)
                tail = data[cut + 1 :]
    except _VectorParseUnsupported:
        return None
    columns = []
    for column_pieces in pieces:
        if column_pieces:
            columns.append(np.concatenate(column_pieces))
            column_pieces.clear()
        else:
            columns.append(np.empty(0, dtype=np.int64))
    return columns[0], columns[1], columns[2]


def read_edge_tokens(
    path: PathLike, chunk_bytes: int = CHUNK_BYTES
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, List[Node]]]:
    """Read an edge-list file with arbitrary (string) node labels.

    The token-mode companion of :func:`read_edge_arrays`: node tokens are
    assigned dense int64 ids via a bytes-token ``np.unique`` pass, so the
    returned ``(u, v, sign, labels)`` plugs straight into
    :func:`csr_from_edge_arrays` with ``node_labels=labels``.  Returns
    ``None`` when only the dict parser can reproduce the reference result —
    genuinely malformed lines (short lines, invalid sign tokens, for which it
    raises the proper line-numbered errors) or labels whose ``int()`` coercion
    is not bijective (``01`` vs ``1``).
    """
    file_path = Path(path)
    if not file_path.exists():
        raise DatasetError(f"edge-list file not found: {file_path}")
    vocabulary = _TokenVocabulary()
    pieces: Tuple[List[np.ndarray], ...] = ([], [], [])

    def _consume(chunk: bytes) -> None:
        u_tokens, v_tokens, signs = _scan_chunk_tokens(chunk)
        if signs.size == 0:
            return
        pieces[0].append(vocabulary.assign(u_tokens))
        pieces[1].append(vocabulary.assign(v_tokens))
        pieces[2].append(signs)

    try:
        with file_path.open("rb") as handle:
            tail = b""
            while True:
                block = handle.read(chunk_bytes)
                if not block:
                    if tail:
                        _consume(tail)
                    break
                data = tail + block
                cut = data.rfind(b"\n")
                if cut < 0:
                    tail = data
                    continue
                _consume(data[: cut + 1])
                tail = data[cut + 1 :]
        labels = vocabulary.node_labels()
    except _VectorParseUnsupported:
        return None
    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate(pieces[0]) if pieces[0] else empty,
        np.concatenate(pieces[1]) if pieces[1] else empty.copy(),
        np.concatenate(pieces[2]) if pieces[2] else empty.copy(),
        labels,
    )


def _split_columns(values: np.ndarray, pieces: Tuple[List[np.ndarray], ...]) -> None:
    """Append one chunk's flat ``u v s`` values to the per-column piece lists."""
    if values.size == 0:
        return
    triples = values.reshape(-1, 3)
    for column, column_pieces in enumerate(pieces):
        column_pieces.append(np.ascontiguousarray(triples[:, column]))


# -------------------------------------------------------------- graph assembly


def _group_keys(
    keys: np.ndarray, stable: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal integer keys with a single sort.

    Returns ``(order, starts, first)``: ``order`` lists the positions of
    ``keys`` grouped by ascending key, group ``g`` occupies
    ``order[starts[g]:starts[g + 1]]``, and ``first[g]`` is the smallest
    position in group ``g`` (``np.unique(keys, return_index=True)[1]``).

    When the key range and a position fit in 63 bits together, each key is
    packed as ``(key - min) << b | position`` and one plain ``np.sort`` does
    all the work: positions ascend within each group, so ``order`` is
    ``np.argsort(keys, kind="stable")``.  Wider inputs fall back to
    ``np.argsort`` + ``np.minimum.reduceat``; their within-group order is
    arbitrary unless ``stable`` asks for the (slower) stable sort.
    """
    size = keys.size
    if size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    low = int(keys.min())
    shift = (size - 1).bit_length()
    packs = (int(keys.max()) - low).bit_length() + shift <= 63
    if packs:
        packed = keys.astype(np.int64)
        packed -= low
        packed <<= shift
        packed |= np.arange(size, dtype=np.int64)
        packed.sort()
        order = packed & ((1 << shift) - 1)
        packed >>= shift
        sorted_keys = packed
    else:
        order = np.argsort(keys, kind="stable" if stable else None)
        sorted_keys = keys[order]
    boundary = np.empty(size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    del sorted_keys
    starts = np.flatnonzero(boundary)
    if packs or stable:
        return order, starts, order[starts]
    return order, starts, np.minimum.reduceat(order, starts)


def dedupe_undirected(
    u: np.ndarray,
    v: np.ndarray,
    s: np.ndarray,
    directed_to_undirected: str = "keep_first",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Drop self-loops and reconcile duplicate/reciprocal pairs.

    Mirrors the dict parser's streaming semantics on dense inputs: edges come
    back in first-appearance order, oriented as first seen, and conflicting
    signs follow ``directed_to_undirected``.  Returns ``(nodes, eu, ev, es)``
    where ``nodes`` lists the distinct endpoint values in first-appearance
    order and ``eu``/``ev`` are dense indices into it.

    Raises :class:`_VectorParseUnsupported` for conflicts under the ``error``
    policy — the caller re-parses with the dict parser to get the reference
    line-numbered :class:`DatasetError`.
    """
    keep = u != v
    if not keep.all():
        u, v, s = u[keep], v[keep], s[keep]
    if u.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    if np.abs(s).min() != 1 or np.abs(s).max() != 1:
        raise _VectorParseUnsupported("sign outside {+1, -1}")
    s = s.astype(np.int8, copy=False)
    # Node labels usually fit int32; shrinking them halves the sort/unique
    # temporaries below (the dense ids and values are unchanged).
    int32_info = np.iinfo(np.int32)
    if (
        u.dtype == np.int64
        and int32_info.min <= min(int(u.min()), int(v.min()))
        and max(int(u.max()), int(v.max())) <= int32_info.max
    ):
        u = u.astype(np.int32)
        v = v.astype(np.int32)

    # Node order = first appearance in the stream; within one edge the source
    # precedes the target, exactly like add_edge(u, v).  Dense ids fit int32
    # (they index arrays that already live in memory), which halves the
    # footprint of everything downstream of the label-space arrays.
    interleaved = np.empty(2 * u.size, dtype=u.dtype)
    interleaved[0::2] = u
    interleaved[1::2] = v
    order, starts, first = _group_keys(interleaved)
    # Numbering each label's first occurrence in stream order gives its dense
    # id; every other occurrence of the label inherits it from its group.
    appears = np.zeros(interleaved.size, dtype=bool)
    appears[first] = True
    nodes = interleaved[appears]
    del interleaved
    group_id = (np.cumsum(appears, dtype=np.int32) - 1)[first]
    del appears, first
    dense = np.empty(order.size, dtype=np.int32)
    dense[order] = np.repeat(group_id, np.diff(starts, append=order.size))
    del order, starts, group_id
    du, dv = dense[0::2], dense[1::2]

    n = nodes.size
    key = np.minimum(du, dv).astype(np.int64) * n
    key += np.maximum(du, dv)
    order, starts, first = _group_keys(key)
    del key
    # Each group's first position, in stream order, is one kept edge.
    kept = np.zeros(du.size, dtype=bool)
    kept[first] = True
    if directed_to_undirected == "keep_first":
        es = s[kept]
    else:
        grouped = s[order]
        group_sign = np.minimum.reduceat(grouped, starts)  # any -1 wins
        if directed_to_undirected == "error":
            if (group_sign != np.maximum.reduceat(grouped, starts)).any():
                raise _VectorParseUnsupported("conflicting signs")
        del grouped
        sign_at = np.empty(du.size, dtype=np.int8)
        sign_at[first] = group_sign
        es = sign_at[kept]
    return nodes, du[kept], dv[kept], es


def build_csr_planes(
    num_nodes: int, eu: np.ndarray, ev: np.ndarray, es: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR planes from dense undirected edges, in dict-identical row order.

    The dict graph records edge ``k`` as two insertions — ``u→v`` then
    ``v→u`` — so interleaving both directions and stable-sorting by source
    (one packed sort, see :func:`_group_keys`) reproduces every adjacency row
    in insertion order.
    """
    total = 2 * eu.size
    src = np.empty(total, dtype=np.int32)
    dst = np.empty(total, dtype=np.int32)
    both = np.empty(total, dtype=np.int8)
    src[0::2] = eu
    src[1::2] = ev
    dst[0::2] = ev
    dst[1::2] = eu
    both[0::2] = es
    both[1::2] = es
    perm = _group_keys(src, stable=True)[0]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, np.ascontiguousarray(dst[perm]), np.ascontiguousarray(both[perm])


def component_labels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-node component labels (the minimum dense id in each component).

    Min-label propagation with pointer jumping — a few passes over the edge
    arrays instead of a Python BFS per component.
    """
    n = indptr.size - 1
    labels = np.arange(n, dtype=np.int64)
    if indices.size == 0 or n == 0:
        return labels
    degrees = np.diff(indptr)
    nonzero = degrees > 0
    row_starts = indptr[:-1][nonzero]
    while True:
        neighbour_min = np.minimum.reduceat(labels[indices], row_starts)
        new = labels.copy()
        new[nonzero] = np.minimum(labels[nonzero], neighbour_min)
        new = np.minimum(new, new[new])
        if np.array_equal(new, labels):
            return labels
        labels = new


def largest_component_members(
    labels: np.ndarray, nodes: Sequence[Node]
) -> np.ndarray:
    """Dense ids (ascending) of the largest component's members.

    Ties follow :func:`repro.signed.components.connected_components`: among
    equal-sized components the one whose members have the smallest
    ``min(repr(node))`` wins.  That key is minimised over every member of
    every tied component at once: the winner holds the smallest repr among
    all of them, and equal reprs go to the smallest root, as ``min`` over
    ascending roots would pick.
    """
    sizes = np.bincount(labels)
    tied = sizes == sizes.max()
    if np.count_nonzero(tied) > 1:
        members = np.flatnonzero(tied[labels])
        reprs = [repr(nodes[i]) for i in members.tolist()]
        smallest = min(reprs)
        best = min(
            root
            for root, text in zip(labels[members].tolist(), reprs)
            if text == smallest
        )
    else:
        best = int(np.flatnonzero(tied)[0])
    return np.flatnonzero(labels == best)


def restrict_to_largest_component(csr: CSRSignedGraph) -> CSRSignedGraph:
    """Restrict to the largest connected component, preserving row order.

    Components are closed under adjacency, so each surviving row is copied
    verbatim (neighbours re-labelled to the compacted dense ids); member order
    follows the parent graph's node order — the same contract as the dict
    path's :func:`~repro.signed.components.largest_connected_component`.
    """
    labels = component_labels(csr.indptr, csr.indices)
    keep = largest_component_members(labels, csr._nodes)
    if keep.size == labels.size:
        return csr
    degrees = np.diff(csr.indptr)[keep]
    new_indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=new_indptr[1:])
    offsets = np.repeat(csr.indptr[:-1][keep] - new_indptr[:-1], degrees)
    entry_sel = offsets + np.arange(int(new_indptr[-1]), dtype=np.int64)
    old_to_new = np.full(labels.size, -1, dtype=np.int64)
    old_to_new[keep] = np.arange(keep.size)
    node_list = csr._nodes
    return CSRSignedGraph(
        new_indptr,
        old_to_new[csr.indices[entry_sel]].astype(np.int32),
        np.ascontiguousarray(csr.signs[entry_sel]),
        [node_list[i] for i in keep.tolist()],
    )


def csr_from_edge_arrays(
    u: np.ndarray,
    v: np.ndarray,
    s: np.ndarray,
    directed_to_undirected: str = "keep_first",
    node_labels: Optional[Sequence[Node]] = None,
) -> Optional[CSRSignedGraph]:
    """Assemble a :class:`CSRSignedGraph` from raw parallel edge columns.

    ``node_labels`` optionally maps the dense values in ``u``/``v`` to node
    objects (used by the synthetic generator, whose nodes are already
    ``0..n-1``).  Returns ``None`` when the input needs the dict parser (sign
    values outside ±1, or conflicts under the ``error`` policy).
    """
    return _assemble([u, v, s], directed_to_undirected, node_labels)


def _assemble(
    columns: List[np.ndarray],
    directed_to_undirected: str,
    node_labels: Optional[Sequence[Node]] = None,
) -> Optional[CSRSignedGraph]:
    """Dedupe + plane assembly, consuming ``columns`` (the list is cleared so
    the raw label-space arrays are freed before the planes are built — at 10M
    edges they are hundreds of MB)."""
    u, v, s = columns
    columns.clear()
    # Downcast here (not just inside dedupe) so the int64 originals are freed
    # before the sort-heavy dedupe runs — a callee can't release arrays its
    # caller still references.
    if u.size and s.size:
        if -128 <= int(s.min()) and int(s.max()) <= 127:
            s = s.astype(np.int8)
        int32_info = np.iinfo(np.int32)
        if (
            u.dtype == np.int64
            and int32_info.min <= min(int(u.min()), int(v.min()))
            and max(int(u.max()), int(v.max())) <= int32_info.max
        ):
            u = u.astype(np.int32)
            v = v.astype(np.int32)
    try:
        nodes, eu, ev, es = dedupe_undirected(u, v, s, directed_to_undirected)
    except _VectorParseUnsupported:
        return None
    del u, v, s  # drop the raw label-space columns before building the planes
    if node_labels is not None:
        node_list = [node_labels[i] for i in nodes.tolist()]
    else:
        node_list = nodes.tolist()
    indptr, indices, signs = build_csr_planes(nodes.size, eu, ev, es)
    return CSRSignedGraph(indptr, indices, signs, node_list)


def parse_edge_list_csr(
    path: PathLike,
    directed_to_undirected: str = "keep_first",
    restrict_to_lcc: bool = False,
    chunk_bytes: int = CHUNK_BYTES,
) -> Optional[CSRSignedGraph]:
    """Parse an edge-list file straight into a :class:`CSRSignedGraph`.

    Bit-identical to ``parse_edge_list`` + ``from_signed_graph`` (+ the
    row-preserving largest-component restriction) on every input it accepts;
    returns ``None`` when the file needs the dict parser.  See the module
    docstring for the exact fallback conditions.
    """
    if directed_to_undirected not in _POLICIES:
        raise ValueError(
            "directed_to_undirected must be 'keep_first', 'negative_wins' or "
            f"'error', got {directed_to_undirected!r}"
        )
    arrays = read_edge_arrays(path, chunk_bytes=chunk_bytes)
    if arrays is not None:
        columns = list(arrays)
        del arrays
        csr = _assemble(columns, directed_to_undirected)
    else:
        # Token mode: the numeric scanner declined (string labels, bare sign
        # characters, extra columns...), so re-scan assigning byte-token ids.
        # A second decline means the input is genuinely malformed (or int-
        # coerced ambiguously) and the dict parser owns the error messages.
        tokenised = read_edge_tokens(path, chunk_bytes=chunk_bytes)
        if tokenised is None:
            return None
        u, v, s, labels = tokenised
        del tokenised
        csr = _assemble([u, v, s], directed_to_undirected, node_labels=labels)
        del u, v, s
    if csr is None:
        return None
    if restrict_to_lcc and csr.number_of_nodes() > 0:
        csr = restrict_to_largest_component(csr)
    return csr
