"""Distance-labelling index over the signed graph's reachability structure.

Two modes behind one :class:`LabelIndex`:

* **exact** — pruned 2-hop hub labels (Akiba/Iwata/Yoshida-style pruned
  landmark labelling): every node stores a sorted list of ``(hub rank,
  distance)`` pairs such that ``d(u, v) = min over common hubs h of
  d(u, h) + d(h, v)`` exactly.  Hubs are processed in degree order; each
  hub's pruned BFS is vectorised frontier-at-a-time over the CSR arrays,
  with the prune test evaluated for a whole frontier at once via a
  segment-min over the labels built so far.  Affordable up to
  :data:`LABELS_EXACT_MAX_NODES` nodes (distances fit ``uint16``).
* **landmark** — degree-ranked landmark sketches: a dense ``int32[H, n]``
  matrix of BFS distances from the ``H`` highest-degree nodes, built by the
  process pool (the ``build_labels`` kernel, one dense source per row,
  shipped through the result arena).  Queries get an upper bound
  ``min_l d(u, l) + d(l, v)`` and a lower bound ``max_l |d(u, l) - d(l, v)|``;
  the bound is *provably exact* when they coincide (which subsumes
  hub-adjacent pairs) or when landmark coverage proves the endpoints live in
  different components (distance is exactly infinite).  Anything else is a
  miss and the caller falls back to exact BFS.

The index is a **snapshot** stamped with the graph generation it was built
at, like the CSR view.  :func:`refresh_label_index` delta-patches it under
churn — clean components keep their labels (rank-remapped for exact mode,
BFS rows reused for landmark mode) and only affected components are
re-labelled — with a full rebuild past the same
:func:`~repro.signed.delta.within_patch_budget` threshold the CSR view uses.
When the whole graph is one affected component (the common connected case),
exact mode falls back to a bounded *affected-hub resweep* instead of a
rebuild: hubs whose pruned BFS trees provably cannot have changed reuse
their old label contributions and only the remainder re-run their BFS.
Patched indexes are bit-identical to a from-scratch rebuild (property-tested
in ``tests/test_labels.py``).

Construction requires numpy; callers degrade to the dict-BFS path when it is
missing (see ``DistanceOracle``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.signed.csr import CSRSignedGraph, UNREACHABLE
from repro.signed.delta import within_patch_budget
from repro.signed.graph import SignedGraph
from repro.utils.optional import require_numpy

#: Exact 2-hop labels are only attempted at or below this node count — it
#: bounds label distances to ``uint16`` and keeps build cost in the
#: seconds-not-minutes range at the 50k benchmark scale.
LABELS_EXACT_MAX_NODES = 65_536

#: Landmark rows kept when the budget allows (4 bytes x num_nodes per row).
DEFAULT_NUM_LANDMARKS = 64

#: Default byte budget for the label planes (matches
#: ``ExecutionPolicy.label_budget_bytes``).
DEFAULT_LABEL_BUDGET_BYTES = 64 * 2**20

MODE_EXACT = "exact"
MODE_LANDMARK = "landmark"

#: Internal "no label / unreachable" sentinel for prune queries.  Far above
#: any real distance (< 2**16) yet safe to add two of plus a distance without
#: overflowing int32.
_INF = 1 << 30

#: Hubs labelled per dense block in the exact build.  Each block keeps its
#: distances in an ``int32[n, _BLOCK]`` matrix and is merged into the CSR
#: label arrays at once, so merge cost is paid n/_BLOCK times, not n times.
_BLOCK = 64


def _np():
    require_numpy("distance-label index")
    import numpy as np

    return np


def hub_order_for(csr: CSRSignedGraph):
    """Dense node ids ordered by descending degree (ties: ascending id).

    This is the canonical hub/landmark ranking; it is a pure function of the
    snapshot, so a patched index and a from-scratch rebuild agree on it.
    """
    np = _np()
    degrees = csr.degrees()
    return np.lexsort((np.arange(len(degrees)), -degrees)).astype(np.int32)


class LabelIndex:
    """An immutable distance-label snapshot (see module docstring).

    Attributes
    ----------
    mode:
        ``"exact"`` or ``"landmark"``.
    requested_mode:
        The mode asked of :func:`build_label_index` (``"auto"`` may resolve
        to either); refreshes re-request the same thing.
    num_nodes / generation:
        Snapshot dimensions: dense-id space size and the
        :attr:`SignedGraph.generation` the index reflects.
    hub_order / label_indptr / label_hubs / label_dists:
        Exact mode: the rank -> dense-id permutation, and per-node CSR label
        arrays of ``(hub rank, distance)`` pairs sorted by rank.
    landmark_ids / landmark_rows:
        Landmark mode: dense ids of the ``H`` landmarks and the ``int32[H, n]``
        BFS-distance matrix (:data:`~repro.signed.csr.UNREACHABLE` for
        unreachable pairs).
    """

    __slots__ = (
        "mode",
        "requested_mode",
        "num_nodes",
        "generation",
        "hub_order",
        "label_indptr",
        "label_hubs",
        "label_dists",
        "landmark_ids",
        "landmark_rows",
        "_scratch",
    )

    def __init__(
        self,
        mode: str,
        num_nodes: int,
        generation: int,
        *,
        requested_mode: Optional[str] = None,
        hub_order=None,
        label_indptr=None,
        label_hubs=None,
        label_dists=None,
        landmark_ids=None,
        landmark_rows=None,
    ) -> None:
        if mode not in (MODE_EXACT, MODE_LANDMARK):
            raise ValueError(f"unknown label-index mode {mode!r}")
        self.mode = mode
        self.requested_mode = requested_mode or mode
        self.num_nodes = int(num_nodes)
        self.generation = int(generation)
        self.hub_order = hub_order
        self.label_indptr = label_indptr
        self.label_hubs = label_hubs
        self.label_dists = label_dists
        self.landmark_ids = landmark_ids
        self.landmark_rows = landmark_rows
        self._scratch = None

    # ------------------------------------------------------------------ sizes

    @property
    def num_entries(self) -> int:
        """Label entries (exact) or landmark-row cells (landmark)."""
        if self.mode == MODE_EXACT:
            return int(self.label_hubs.shape[0])
        return int(self.landmark_rows.size)

    @property
    def num_hubs(self) -> int:
        if self.mode == MODE_EXACT:
            return int(self.hub_order.shape[0])
        return int(self.landmark_ids.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the label planes (the budget's measure)."""
        return sum(int(plane.nbytes) for _name, plane in self.planes())

    def stats(self) -> Dict[str, object]:
        """Summary dict for observability (CLI, oracle ``index_stats``)."""
        return {
            "mode": self.mode,
            "num_nodes": self.num_nodes,
            "num_hubs": self.num_hubs,
            "num_entries": self.num_entries,
            "nbytes": self.nbytes,
            "generation": self.generation,
        }

    def stamped(self, generation: int) -> "LabelIndex":
        """A copy of this index bound to ``generation`` (same planes).

        Used when adopting a persisted index for a freshly loaded graph whose
        generation counter restarted — the caller asserts the graph content
        matches what the index was built from.
        """
        if generation == self.generation:
            return self
        return LabelIndex(
            self.mode,
            self.num_nodes,
            generation,
            requested_mode=self.requested_mode,
            hub_order=self.hub_order,
            label_indptr=self.label_indptr,
            label_hubs=self.label_hubs,
            label_dists=self.label_dists,
            landmark_ids=self.landmark_ids,
            landmark_rows=self.landmark_rows,
        )

    # ------------------------------------------------------------ persistence

    def planes(self) -> List[Tuple[str, object]]:
        """The ``(name, array)`` planes in canonical store order."""
        if self.mode == MODE_EXACT:
            return [
                ("label_indptr", self.label_indptr),
                ("label_hubs", self.label_hubs),
                ("label_dists", self.label_dists),
                ("hub_order", self.hub_order),
            ]
        return [
            ("landmark_ids", self.landmark_ids),
            ("landmark_rows", self.landmark_rows.reshape(-1)),
        ]

    @classmethod
    def from_planes(
        cls,
        mode: str,
        num_nodes: int,
        generation: int,
        planes: Dict[str, object],
    ) -> "LabelIndex":
        """Rebuild an index from store planes (see :mod:`repro.signed.store`)."""
        if mode == MODE_EXACT:
            return cls(
                MODE_EXACT,
                num_nodes,
                generation,
                hub_order=planes["hub_order"],
                label_indptr=planes["label_indptr"],
                label_hubs=planes["label_hubs"],
                label_dists=planes["label_dists"],
            )
        rows = planes["landmark_rows"]
        num_hubs = int(planes["landmark_ids"].shape[0])
        return cls(
            MODE_LANDMARK,
            num_nodes,
            generation,
            landmark_ids=planes["landmark_ids"],
            landmark_rows=rows.reshape(num_hubs, num_nodes),
        )

    # ---------------------------------------------------------------- queries

    def _scratch_table(self):
        np = _np()
        if self._scratch is None:
            self._scratch = np.full(self.num_nodes, _INF, dtype=np.int32)
        return self._scratch

    def query(self, u: int, v: int) -> int:
        """Exact distance between dense ids ``u`` and ``v``
        (:data:`~repro.signed.csr.UNREACHABLE` when disconnected).

        Exact mode only — landmark mode callers use :meth:`bounds`.
        """
        np = _np()
        indptr = self.label_indptr
        su, eu = int(indptr[u]), int(indptr[u + 1])
        sv, ev = int(indptr[v]), int(indptr[v + 1])
        hu = np.asarray(self.label_hubs[su:eu])
        hv = np.asarray(self.label_hubs[sv:ev])
        common, iu, iv = np.intersect1d(hu, hv, assume_unique=True, return_indices=True)
        if common.size == 0:
            return UNREACHABLE
        total = self.label_dists[su:eu][iu].astype(np.int32) + self.label_dists[sv:ev][iv]
        return int(total.min())

    def batch_query_from(self, source: int, targets):
        """Exact distances from dense id ``source`` to each dense id in
        ``targets`` as ``int32`` (:data:`~repro.signed.csr.UNREACHABLE` where
        disconnected).  Exact mode only."""
        np = _np()
        targets = np.asarray(targets, dtype=np.int64)
        out = np.full(targets.shape[0], _INF, dtype=np.int32)
        if targets.shape[0] == 0:
            return out
        table = self._scratch_table()
        indptr = self.label_indptr
        ss, se = int(indptr[source]), int(indptr[source + 1])
        source_hubs = np.asarray(self.label_hubs[ss:se])
        table[source_hubs] = self.label_dists[ss:se]
        starts = indptr[targets]
        lengths = indptr[targets + 1] - starts
        total = int(lengths.sum())
        if total:
            offsets = np.cumsum(lengths) - lengths
            flat = (
                np.repeat(starts, lengths)
                + np.arange(total, dtype=np.int64)
                - np.repeat(offsets, lengths)
            )
            values = table[self.label_hubs[flat]] + self.label_dists[flat]
            nonempty = lengths > 0
            out[nonempty] = np.minimum.reduceat(values, offsets[nonempty])
        table[source_hubs] = _INF
        out[out >= _INF] = UNREACHABLE
        return out

    def batch_bounds_from(self, source: int, targets):
        """Landmark bounds from dense id ``source`` to each of ``targets``.

        Returns ``(upper, exact)``: ``upper`` is the ``int32`` landmark upper
        bound (:data:`~repro.signed.csr.UNREACHABLE` when no landmark connects
        the pair), and ``exact`` is a bool array flagging entries whose value
        is *provably* the true distance — upper and lower bounds coincide, or
        landmark coverage proves the endpoints lie in different components
        (true distance exactly infinite).  Non-exact entries require a BFS
        fallback.  Landmark mode only.
        """
        np = _np()
        targets = np.asarray(targets, dtype=np.int64)
        rows = self.landmark_rows
        du = np.asarray(rows[:, source], dtype=np.int64)
        dv = np.asarray(rows[:, targets], dtype=np.int64)
        source_covered = du != UNREACHABLE
        target_covered = dv != UNREACHABLE
        common = source_covered[:, None] & target_covered
        sums = np.where(common, du[:, None] + dv, _INF)
        diffs = np.where(common, np.abs(du[:, None] - dv), -1)
        upper = sums.min(axis=0)
        lower = diffs.max(axis=0)
        # A landmark seeing exactly one endpoint proves the endpoints live in
        # different components: the true distance is infinite, exactly.
        split = (source_covered[:, None] != target_covered).any(axis=0)
        exact = ((upper < _INF) & (upper == lower)) | split
        upper = np.where(upper >= _INF, UNREACHABLE, upper).astype(np.int32)
        return upper, exact

    def bounds(self, u: int, v: int) -> Tuple[int, bool]:
        """Single-pair form of :meth:`batch_bounds_from`."""
        np = _np()
        upper, exact = self.batch_bounds_from(u, np.asarray([v], dtype=np.int64))
        return int(upper[0]), bool(exact[0])


def labels_equal(left: Optional[LabelIndex], right: Optional[LabelIndex]) -> bool:
    """Structural equality of two indexes (the patch-vs-rebuild test oracle)."""
    np = _np()
    if left is None or right is None:
        return left is right
    if (
        left.mode != right.mode
        or left.num_nodes != right.num_nodes
        or left.generation != right.generation
    ):
        return False
    for (_name_l, a), (_name_r, b) in zip(left.planes(), right.planes()):
        if not np.array_equal(np.asarray(a), np.asarray(b)):
            return False
    return True


# --------------------------------------------------------------------- build


def _label_nbytes(indptr, hubs, dists) -> int:
    return int(indptr.nbytes) + int(hubs.nbytes) + int(dists.nbytes)


def _prune_query(np, cand, lab_indptr, lab_hubs, lab_dists, table, block, block_cols, block_vals):
    """query(hub, u) for every u in ``cand`` against the labels built so far.

    ``table`` holds the current hub's own label distances scattered by rank;
    ``block_cols``/``block_vals`` are the hub's labels among the current
    block's earlier (not-yet-merged) hubs, looked up in the dense ``block``
    matrix instead.
    """
    starts = lab_indptr[cand]
    lengths = lab_indptr[cand + 1] - starts
    result = np.full(cand.shape[0], _INF, dtype=np.int32)
    total = int(lengths.sum())
    if total:
        offsets = np.cumsum(lengths) - lengths
        flat = (
            np.repeat(starts, lengths)
            + np.arange(total, dtype=np.int64)
            - np.repeat(offsets, lengths)
        )
        values = table[lab_hubs[flat]] + lab_dists[flat]
        nonempty = lengths > 0
        result[nonempty] = np.minimum.reduceat(values, offsets[nonempty])
    if block_cols.shape[0]:
        via_block = (block[cand[:, None], block_cols] + block_vals).min(axis=1)
        np.minimum(result, via_block, out=result)
    return result


def _pll_labels(csr: CSRSignedGraph, hubs, rank_of, budget_bytes: Optional[int]):
    """Pruned-landmark labels rooted at ``hubs`` (dense ids, ascending rank).

    ``rank_of`` maps dense id -> global rank; label entries store ranks so
    per-node lists sort canonically.  For a full build ``hubs`` is every node;
    the delta patch passes only the dirty components' nodes (their BFSes
    cannot escape a dirty component, so labels stay confined to it).

    Returns ``(label_indptr, label_hubs, label_dists)`` over all ``n`` nodes
    (empty lists for nodes never reached), or ``None`` when ``budget_bytes``
    is exceeded.
    """
    np = _np()
    indptr, indices = csr.indptr, csr.indices
    n = csr.number_of_nodes()
    lab_indptr = np.zeros(n + 1, dtype=np.int64)
    lab_hubs = np.empty(0, dtype=np.int32)
    lab_dists = np.empty(0, dtype=np.uint16)
    table = np.full(n, _INF, dtype=np.int32)
    visited = np.zeros(n, dtype=bool)
    for block_start in range(0, len(hubs), _BLOCK):
        block_hubs = hubs[block_start : block_start + _BLOCK]
        block_size = len(block_hubs)
        block_ranks = np.asarray(rank_of[block_hubs], dtype=np.int32)
        block = np.full((n, block_size), _INF, dtype=np.int32)
        for j in range(block_size):
            hub = int(block_hubs[j])
            hub_start, hub_end = int(lab_indptr[hub]), int(lab_indptr[hub + 1])
            hub_label_ranks = lab_hubs[hub_start:hub_end]
            table[hub_label_ranks] = lab_dists[hub_start:hub_end]
            block_cols = np.flatnonzero(block[hub, :j] != _INF)
            block_vals = block[hub, block_cols]
            block[hub, j] = 0
            visited[hub] = True
            touched = [np.asarray([hub], dtype=np.int64)]
            frontier = touched[0]
            dist = 0
            while frontier.shape[0]:
                dist += 1
                starts = indptr[frontier]
                counts = indptr[frontier + 1] - starts
                total = int(counts.sum())
                if total == 0:
                    break
                offsets = np.cumsum(counts) - counts
                neighbors = indices[
                    np.repeat(starts, counts)
                    + np.arange(total, dtype=np.int64)
                    - np.repeat(offsets, counts)
                ]
                cand = neighbors[~visited[neighbors]]
                if cand.shape[0] == 0:
                    break
                cand = np.unique(cand).astype(np.int64)
                visited[cand] = True
                touched.append(cand)
                pruned_at = _prune_query(
                    np, cand, lab_indptr, lab_hubs, lab_dists, table, block, block_cols, block_vals
                )
                labelled = cand[pruned_at > dist]
                if labelled.shape[0]:
                    block[labelled, j] = dist
                frontier = labelled
            table[hub_label_ranks] = _INF
            for chunk in touched:
                visited[chunk] = False
        lab_indptr, lab_hubs, lab_dists = _merge_block(
            np, n, lab_indptr, lab_hubs, lab_dists, block, block_ranks
        )
        if budget_bytes is not None and _label_nbytes(lab_indptr, lab_hubs, lab_dists) > budget_bytes:
            return None
    return lab_indptr, lab_hubs, lab_dists


def _merge_block(np, n, lab_indptr, lab_hubs, lab_dists, block, block_ranks):
    """Merge one dense hub block into the CSR label arrays.

    Per node, existing entries (smaller ranks) first, then this block's
    columns in rank order — ``np.nonzero`` on the row-major matrix yields
    exactly that.
    """
    labelled_mask = block != _INF
    new_counts = labelled_mask.sum(axis=1).astype(np.int64)
    rows, cols = np.nonzero(labelled_mask)
    add_hubs = block_ranks[cols]
    add_dists = block[rows, cols].astype(np.uint16)
    old_counts = np.diff(lab_indptr)
    merged_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(old_counts + new_counts, out=merged_indptr[1:])
    merged_hubs = np.empty(int(merged_indptr[-1]), dtype=np.int32)
    merged_dists = np.empty(int(merged_indptr[-1]), dtype=np.uint16)
    if lab_hubs.shape[0]:
        shift = merged_indptr[:-1] - lab_indptr[:-1]
        dest = np.arange(lab_hubs.shape[0], dtype=np.int64) + np.repeat(shift, old_counts)
        merged_hubs[dest] = lab_hubs
        merged_dists[dest] = lab_dists
    if add_hubs.shape[0]:
        seg_starts = np.cumsum(new_counts) - new_counts
        within = np.arange(add_hubs.shape[0], dtype=np.int64) - np.repeat(
            seg_starts, new_counts
        )
        dest = np.repeat(merged_indptr[:-1] + old_counts, new_counts) + within
        merged_hubs[dest] = add_hubs
        merged_dists[dest] = add_dists
    return merged_indptr, merged_hubs, merged_dists


def _build_exact(
    csr: CSRSignedGraph, budget_bytes: Optional[int], requested_mode: str
) -> Optional[LabelIndex]:
    np = _np()
    n = csr.number_of_nodes()
    order = hub_order_for(csr)
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(n, dtype=np.int64)
    built = _pll_labels(csr, order, rank_of, budget_bytes)
    if built is None:
        return None
    lab_indptr, lab_hubs, lab_dists = built
    return LabelIndex(
        MODE_EXACT,
        n,
        csr.generation,
        requested_mode=requested_mode,
        hub_order=order,
        label_indptr=lab_indptr,
        label_hubs=lab_hubs,
        label_dists=lab_dists,
    )


def _num_landmarks(num_nodes: int, budget_bytes: Optional[int]) -> int:
    if budget_bytes is None:
        return min(DEFAULT_NUM_LANDMARKS, max(1, num_nodes))
    per_row = 4 * max(1, num_nodes)
    return max(1, min(DEFAULT_NUM_LANDMARKS, max(1, num_nodes), budget_bytes // per_row or 1))


def _bfs_rows(csr: CSRSignedGraph, sources: Sequence[int], executor):
    """One BFS distance row per source via the ``build_labels`` kernel."""
    np = _np()
    if executor is None:
        from repro.exec import serial_executor

        executor = serial_executor()
    results = executor.map_kernel("build_labels", csr, [int(s) for s in sources])
    return [np.ascontiguousarray(row, dtype=np.int32) for row in results]


def _build_landmark(
    csr: CSRSignedGraph,
    budget_bytes: Optional[int],
    executor,
    requested_mode: str,
) -> LabelIndex:
    np = _np()
    n = csr.number_of_nodes()
    order = hub_order_for(csr)
    num_hubs = _num_landmarks(n, budget_bytes)
    landmark_ids = np.ascontiguousarray(order[:num_hubs], dtype=np.int32)
    rows = np.empty((num_hubs, n), dtype=np.int32)
    for position, row in enumerate(_bfs_rows(csr, landmark_ids, executor)):
        rows[position] = row
    return LabelIndex(
        MODE_LANDMARK,
        n,
        csr.generation,
        requested_mode=requested_mode,
        landmark_ids=landmark_ids,
        landmark_rows=rows,
    )


def build_label_index(
    csr: CSRSignedGraph,
    *,
    mode: str = "auto",
    budget_bytes: Optional[int] = DEFAULT_LABEL_BUDGET_BYTES,
    executor=None,
) -> LabelIndex:
    """Build a fresh :class:`LabelIndex` for the snapshot ``csr``.

    ``mode="auto"`` attempts exact 2-hop labels when the graph fits
    (:data:`LABELS_EXACT_MAX_NODES` nodes, labels within ``budget_bytes``)
    and falls back to landmark sketches otherwise; ``"exact"`` /
    ``"landmark"`` force a mode (``"exact"`` raises when infeasible).
    ``executor`` (an :mod:`repro.exec` executor) runs the landmark BFS rows —
    the exact build is inherently sequential in hub order and runs in
    process.
    """
    _np()
    if mode not in ("auto", MODE_EXACT, MODE_LANDMARK):
        raise ValueError(
            f"label-index mode must be 'auto', 'exact' or 'landmark'; got {mode!r}"
        )
    n = csr.number_of_nodes()
    if mode == MODE_EXACT:
        if n > LABELS_EXACT_MAX_NODES:
            raise ValueError(
                f"exact 2-hop labels support at most {LABELS_EXACT_MAX_NODES} nodes; "
                f"got {n} (use mode='landmark' or 'auto')"
            )
        index = _build_exact(csr, budget_bytes, mode)
        if index is None:
            raise ValueError(
                f"exact 2-hop labels exceed label_budget_bytes={budget_bytes}; "
                "raise the budget or use mode='landmark'"
            )
        return index
    if mode == "auto" and n <= LABELS_EXACT_MAX_NODES:
        index = _build_exact(csr, budget_bytes, mode)
        if index is not None:
            return index
    return _build_landmark(csr, budget_bytes, executor, mode)


# --------------------------------------------------------------------- churn


def _dirty_mask(csr: CSRSignedGraph, affected):
    np = _np()
    dirty = np.zeros(csr.number_of_nodes(), dtype=bool)
    for node in affected:
        position = csr._index.get(node)
        if position is None:
            return None
        dirty[position] = True
    return dirty


def _patch_landmark(
    index: LabelIndex, csr: CSRSignedGraph, dirty, budget_bytes, executor
) -> LabelIndex:
    np = _np()
    n = csr.number_of_nodes()
    order = hub_order_for(csr)
    num_hubs = _num_landmarks(n, budget_bytes)
    landmark_ids = np.ascontiguousarray(order[:num_hubs], dtype=np.int32)
    old_position = {int(lm): i for i, lm in enumerate(np.asarray(index.landmark_ids))}
    rows = np.empty((num_hubs, n), dtype=np.int32)
    stale: List[int] = []
    for i, landmark in enumerate(landmark_ids):
        previous = old_position.get(int(landmark))
        if previous is not None and not dirty[landmark]:
            # A clean landmark's component is untouched, so its whole BFS row
            # is unchanged (other components stay UNREACHABLE either way).
            rows[i] = index.landmark_rows[previous]
        else:
            stale.append(i)
    if stale:
        recomputed = _bfs_rows(csr, [int(landmark_ids[i]) for i in stale], executor)
        for i, row in zip(stale, recomputed):
            rows[i] = row
    return LabelIndex(
        MODE_LANDMARK,
        n,
        csr.generation,
        requested_mode=index.requested_mode,
        landmark_ids=landmark_ids,
        landmark_rows=rows,
    )


def _patch_exact(
    index: LabelIndex, csr: CSRSignedGraph, dirty, budget_bytes
) -> Optional[LabelIndex]:
    np = _np()
    n = csr.number_of_nodes()
    order = hub_order_for(csr)
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(n, dtype=np.int64)
    # Clean nodes keep their labels; only the hub *ranks* may have shifted
    # with the degree ordering, so remap old rank -> dense id -> new rank.
    # A clean node's hubs all live in its own (clean) component, and dirty
    # nodes' labels reference only dirty hubs, so the two sets are disjoint.
    old_counts = np.diff(index.label_indptr)
    entry_nodes = np.repeat(np.arange(n, dtype=np.int64), old_counts)
    keep = ~dirty[entry_nodes]
    old_hub_dense = np.asarray(index.hub_order)[np.asarray(index.label_hubs)[keep]]
    clean_nodes = entry_nodes[keep]
    clean_ranks = rank_of[old_hub_dense].astype(np.int32)
    clean_dists = np.asarray(index.label_dists)[keep]
    # Re-run the pruned labelling over the dirty components only.  Relative
    # rank order within a clean component is unchanged by the re-sort (ids
    # and degrees there are untouched), so the remapped labels are exactly
    # what a full rebuild would produce for those nodes.
    dirty_ids = np.flatnonzero(dirty)
    hubs = dirty_ids[np.argsort(rank_of[dirty_ids], kind="stable")]
    built = _pll_labels(csr, hubs, rank_of, budget_bytes)
    if built is None:
        return None
    dirty_indptr, dirty_hubs, dirty_dists = built
    dirty_nodes = np.repeat(np.arange(n, dtype=np.int64), np.diff(dirty_indptr))
    nodes_all = np.concatenate([clean_nodes, dirty_nodes])
    ranks_all = np.concatenate([clean_ranks, dirty_hubs])
    dists_all = np.concatenate([clean_dists, dirty_dists])
    permutation = np.lexsort((ranks_all, nodes_all))
    counts = np.bincount(nodes_all, minlength=n)
    lab_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=lab_indptr[1:])
    merged = LabelIndex(
        MODE_EXACT,
        n,
        csr.generation,
        requested_mode=index.requested_mode,
        hub_order=order,
        label_indptr=lab_indptr,
        label_hubs=np.ascontiguousarray(ranks_all[permutation], dtype=np.int32),
        label_dists=np.ascontiguousarray(dists_all[permutation], dtype=np.uint16),
    )
    if budget_bytes is not None and merged.nbytes > budget_bytes:
        return None
    return merged


def _contribution_diff(np, old_nodes, old_dists, new_nodes, new_dists):
    """Nodes whose entry under one hub differs between old and new labels.

    Both pairs are sorted by node.  Returns the union of nodes present on
    one side only and nodes present on both sides with different distances.
    """
    if old_nodes.shape[0] == 0:
        return new_nodes
    if new_nodes.shape[0] == 0:
        return old_nodes
    pos = np.searchsorted(new_nodes, old_nodes).clip(0, new_nodes.shape[0] - 1)
    matched = new_nodes[pos] == old_nodes
    changed_old = old_nodes[~matched | (new_dists[pos] != old_dists)]
    pos = np.searchsorted(old_nodes, new_nodes).clip(0, old_nodes.shape[0] - 1)
    new_only = new_nodes[old_nodes[pos] != new_nodes]
    if new_only.shape[0] == 0:
        return changed_old
    return np.union1d(changed_old, new_only)


def _resweep_exact(
    index: LabelIndex, csr: CSRSignedGraph, dirty, budget_bytes, stats=None
) -> Optional[LabelIndex]:
    """Affected-hub resweep for graphs where the component sweep is useless.

    On a connected graph every churn event "affects" the whole node set, so
    :func:`_patch_exact`'s clean-component reuse degenerates to a full
    rebuild.  But a small churn batch still leaves most hubs' *pruned BFS
    trees* untouched: a hub's label contribution only depends on the
    adjacency rows of the nodes it labels (``S``), on the earlier-ranked
    labels at ``S`` and its neighbourhood ``N(S)``, and on its own rank
    position.  This pass replays the hub sweep in new-rank order, reusing a
    hub's old contribution verbatim whenever

    * the hub itself and every node it labelled are clean (``dirty``), and
    * no earlier-ranked label at ``S`` or ``N(S)`` changed (``lab_changed``
      plus its one-hop adjacency dilation ``lab_changed_adj``),

    and re-running the standard pruned BFS otherwise.  Re-run hubs are
    diffed against their old contribution and the differing nodes (plus
    neighbours) feed the change masks, so downstream reuse decisions see
    every label perturbation.  Rank crossings need one extra guard: a hub
    ``d`` whose rank moved past ``h`` changes which side of ``h`` its
    entries land on, even where the entry values themselves are unchanged
    (so the re-run diff alone would miss them).  Only dirty hubs can cross
    a clean one — clean keys ``(-degree, id)`` are unchanged, so clean
    relative order is preserved — and both rank permutations are in hand,
    so the crossing test is exact: when some dirty hub crosses ``h``, the
    reuse check additionally consults a mask of every dirty hub's old
    contribution (plus neighbours).

    Returns ``None`` (caller rebuilds) when too many hubs need re-running,
    or past ``budget_bytes``.  Output is bit-identical to a full rebuild.
    """
    np = _np()
    if stats is None:
        stats = {}
    stats.update(reruns=0, reused=0, outcome="swept")
    n = csr.number_of_nodes()
    indptr, indices = csr.indptr, csr.indices
    order = hub_order_for(csr)
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(n, dtype=np.int64)

    # Invert the node-major label arrays hub-major: contribution slice per
    # old hub, node-ascending within each hub (stable sort keeps the
    # node-major order).
    entry_nodes = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(index.label_indptr)
    )
    entry_hub = np.asarray(index.hub_order)[np.asarray(index.label_hubs)]
    by_hub = np.argsort(entry_hub, kind="stable")
    contrib_nodes = entry_nodes[by_hub]
    contrib_dists = np.asarray(index.label_dists)[by_hub]
    hub_starts = np.searchsorted(entry_hub[by_hub], np.arange(n + 1, dtype=np.int64))

    def mark(mask, mask_adj, nodes):
        if nodes.shape[0] == 0:
            return
        mask[nodes] = True
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        if total:
            offsets = np.cumsum(counts) - counts
            neighbours = indices[
                np.repeat(starts, counts)
                + np.arange(total, dtype=np.int64)
                - np.repeat(offsets, counts)
            ]
            mask_adj[neighbours] = True

    lab_changed = np.zeros(n, dtype=bool)
    lab_changed_adj = np.zeros(n, dtype=bool)
    # Crossing guard: old/new rank of every dirty hub, plus the union of
    # their old contributions — consulted only for hubs some dirty hub
    # actually crosses.
    old_rank = np.empty(n, dtype=np.int64)
    old_rank[np.asarray(index.hub_order)] = np.arange(n, dtype=np.int64)
    dirty_ids = np.flatnonzero(dirty)
    dirty_old_rank = old_rank[dirty_ids]
    dirty_new_rank = rank_of[dirty_ids]
    crossed_entries = np.zeros(n, dtype=bool)
    crossed_entries_adj = np.zeros(n, dtype=bool)
    mark(
        crossed_entries,
        crossed_entries_adj,
        np.unique(entry_nodes[dirty[entry_hub]]),
    )

    reruns = 0
    rerun_limit = max(_BLOCK, n // 4)
    # Cheap lower bound on the re-runs ahead: every hub labelling a dirty
    # node must re-run (plus the dirty hubs themselves).  Bail before paying
    # for any BFS or merge when that bound already exceeds the budget.
    # (Every hub labels itself, so dirty hubs are already in the bound.)
    if np.unique(entry_hub[dirty[entry_nodes]]).shape[0] > rerun_limit:
        stats["outcome"] = "bailed:dirty-fan-in"
        return None

    lab_indptr = np.zeros(n + 1, dtype=np.int64)
    lab_hubs = np.empty(0, dtype=np.int32)
    lab_dists = np.empty(0, dtype=np.uint16)
    table = np.full(n, _INF, dtype=np.int32)
    visited = np.zeros(n, dtype=bool)
    for block_start in range(0, n, _BLOCK):
        block_hubs = order[block_start : block_start + _BLOCK]
        block_size = len(block_hubs)
        block_ranks = np.asarray(rank_of[block_hubs], dtype=np.int32)
        block = np.full((n, block_size), _INF, dtype=np.int32)
        for j in range(block_size):
            hub = int(block_hubs[j])
            rank = block_start + j
            s, e = int(hub_starts[hub]), int(hub_starts[hub + 1])
            old_nodes = contrib_nodes[s:e]
            old_dists = contrib_dists[s:e].astype(np.int32)
            reusable = (
                not dirty[hub]
                and old_nodes.shape[0]
                and not dirty[old_nodes].any()
                and not lab_changed[old_nodes].any()
                and not lab_changed_adj[old_nodes].any()
            )
            if reusable and bool(
                (
                    (dirty_old_rank < old_rank[hub]) != (dirty_new_rank < rank)
                ).any()
            ):
                reusable = (
                    not crossed_entries[old_nodes].any()
                    and not crossed_entries_adj[old_nodes].any()
                )
            if reusable:
                block[old_nodes, j] = old_dists
                stats["reused"] += 1
                continue
            reruns += 1
            stats["reruns"] = reruns
            if reruns > rerun_limit:
                stats["outcome"] = "bailed:rerun-limit"
                return None
            # Standard pruned BFS, identical to the fresh build's inner loop.
            hub_start, hub_end = int(lab_indptr[hub]), int(lab_indptr[hub + 1])
            hub_label_ranks = lab_hubs[hub_start:hub_end]
            table[hub_label_ranks] = lab_dists[hub_start:hub_end]
            block_cols = np.flatnonzero(block[hub, :j] != _INF)
            block_vals = block[hub, block_cols]
            block[hub, j] = 0
            visited[hub] = True
            touched = [np.asarray([hub], dtype=np.int64)]
            labelled_chunks = [touched[0]]
            frontier = touched[0]
            dist = 0
            while frontier.shape[0]:
                dist += 1
                starts = indptr[frontier]
                counts = indptr[frontier + 1] - starts
                total = int(counts.sum())
                if total == 0:
                    break
                offsets = np.cumsum(counts) - counts
                neighbors = indices[
                    np.repeat(starts, counts)
                    + np.arange(total, dtype=np.int64)
                    - np.repeat(offsets, counts)
                ]
                cand = neighbors[~visited[neighbors]]
                if cand.shape[0] == 0:
                    break
                cand = np.unique(cand).astype(np.int64)
                visited[cand] = True
                touched.append(cand)
                pruned_at = _prune_query(
                    np, cand, lab_indptr, lab_hubs, lab_dists, table, block, block_cols, block_vals
                )
                labelled = cand[pruned_at > dist]
                if labelled.shape[0]:
                    block[labelled, j] = dist
                    labelled_chunks.append(labelled)
                frontier = labelled
            table[hub_label_ranks] = _INF
            for chunk in touched:
                visited[chunk] = False
            new_nodes = np.sort(np.concatenate(labelled_chunks))
            mark(
                lab_changed,
                lab_changed_adj,
                _contribution_diff(
                    np, old_nodes, old_dists, new_nodes, block[new_nodes, j]
                ),
            )
            # A non-local mutation (e.g. a long-range shortcut) perturbs a
            # top hub's distances across much of the graph; with average
            # label sizes in the hundreds, change masks covering even a
            # small fraction of the nodes doom almost every later reuse
            # check, so abort early rather than sweep to the re-run limit.
            if int((dirty | lab_changed | lab_changed_adj).sum()) > max(
                _BLOCK, n // 8
            ):
                stats["outcome"] = "bailed:change-coverage"
                return None
        lab_indptr, lab_hubs, lab_dists = _merge_block(
            np, n, lab_indptr, lab_hubs, lab_dists, block, block_ranks
        )
        if budget_bytes is not None and _label_nbytes(lab_indptr, lab_hubs, lab_dists) > budget_bytes:
            return None
    return LabelIndex(
        MODE_EXACT,
        n,
        csr.generation,
        requested_mode=index.requested_mode,
        hub_order=order,
        label_indptr=lab_indptr,
        label_hubs=lab_hubs,
        label_dists=lab_dists,
    )


def refresh_label_index(
    index: LabelIndex,
    graph: SignedGraph,
    *,
    budget_bytes: Optional[int] = DEFAULT_LABEL_BUDGET_BYTES,
    executor=None,
) -> Tuple[LabelIndex, str]:
    """Bring ``index`` up to ``graph``'s current generation.

    Returns ``(index, how)`` with ``how`` one of ``"fresh"`` (nothing to do),
    ``"patched"`` (dirty components re-labelled in place of a full build) or
    ``"rebuilt"``.  The patch path is taken when the churn since the index's
    generation stays within the shared
    :func:`~repro.signed.delta.within_patch_budget` threshold, the node set
    is unchanged, and either the affected-component sweep is conservative or
    (exact mode, connected graphs) the affected-hub resweep stays within its
    re-run bound; patched output is bit-identical to a rebuild.
    """
    _np()
    generation = graph.generation
    if generation == index.generation and graph.number_of_nodes() == index.num_nodes:
        return index, "fresh"
    csr = graph.csr_view()

    def rebuilt() -> Tuple[LabelIndex, str]:
        return (
            build_label_index(
                csr,
                mode=index.requested_mode,
                budget_bytes=budget_bytes,
                executor=executor,
            ),
            "rebuilt",
        )

    # generation bumps exactly once per effective mutation, so the diff is a
    # sound churn-event count even though the graph's own delta log resets on
    # every csr_view().
    events = generation - index.generation
    if (
        events < 0
        or graph.number_of_nodes() != index.num_nodes
        or graph.node_set_changed_since(index.generation)
    ):
        return rebuilt()
    topology_dirty = graph.topology_touched_nodes_since(index.generation)
    if not topology_dirty:
        # Pure sign-flip churn: no distance can have moved (and neither can
        # the degree-ranked hub order), so the label planes are still exact —
        # re-stamp them at the current generation.
        return (
            LabelIndex(
                index.mode,
                index.num_nodes,
                generation,
                requested_mode=index.requested_mode,
                hub_order=index.hub_order,
                label_indptr=index.label_indptr,
                label_hubs=index.label_hubs,
                label_dists=index.label_dists,
                landmark_ids=index.landmark_ids,
                landmark_rows=index.landmark_rows,
            ),
            "patched",
        )
    if not within_patch_budget(events, graph.number_of_edges()):
        return rebuilt()
    affected = graph.affected_nodes_since(index.generation)
    if affected is None:
        # The component sweep found the churn reaches most of the graph —
        # on a connected graph it always does.  Exact mode still salvages
        # the build with the affected-hub resweep: reuse every hub whose
        # pruned BFS provably cannot have changed, re-run the rest.  The
        # dirty seed is the *topology*-touched set — sign flips cannot
        # perturb any BFS tree.
        if index.mode == MODE_EXACT:
            dirty = _dirty_mask(csr, topology_dirty)
            if dirty is not None and dirty.any():
                patched = _resweep_exact(index, csr, dirty, budget_bytes)
                if patched is not None:
                    return patched, "patched"
        return rebuilt()
    dirty = _dirty_mask(csr, affected)
    if dirty is None:
        return rebuilt()
    if not dirty.any():
        return rebuilt()
    if index.mode == MODE_LANDMARK:
        return _patch_landmark(index, csr, dirty, budget_bytes, executor), "patched"
    patched = _patch_exact(index, csr, dirty, budget_bytes)
    if patched is None:
        return rebuilt()
    return patched, "patched"
