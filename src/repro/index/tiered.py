"""Tiered beyond-RAM vector storage: resident codes, memory-mapped rerank.

The production shape Starling (Wang et al., SIGMOD 2024) and DiskANN pitch
for corpora that outgrow RAM: scalar-quantized codes (SQ8/SQ4, via
:class:`~repro.index.quantization.ScalarQuantizer`) stay resident and serve
every graph-traversal distance, while the full-precision float64 matrix is
spilled to a block-aligned :class:`numpy.memmap` file that only a final
top-k' rerank pass touches.  Traversal therefore costs no simulated disk
I/O at all; the rerank reads are charged to the store's own
:class:`~repro.index.starling.BlockDevice`, so ``block_reads`` /
``cache_hits`` — and the PR 7 cost profiles built from them — describe
exactly the accesses the full-precision tier absorbed.

The rerank pass re-scores the k' = ``rerank_factor`` * k traversal
candidates with exact distances and re-sorts by ``(distance, id)`` — the
same tie-break :func:`~repro.index.search.greedy_search` uses — so whenever
the candidate set covers the true top-k, the final ordering is exactly the
full-precision ordering.
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, GraphConstructionError
from repro.index.base import append_row
from repro.index.quantization import ScalarQuantizer
from repro.utils import check_integer


@dataclass(frozen=True)
class TieredParams:
    """Tiered-store parameters.

    Attributes:
        bits: Code width for the resident tier (8 or 4).
        rerank_factor: Traversal over-fetch; the rerank pass re-scores
            ``rerank_factor * k`` candidates at full precision.
        mmap_cache_blocks: Buffer-pool capacity (in blocks) in front of the
            memory-mapped full-precision tier; 0 disables caching.
        block_size: Full-precision rows per mmap block (the charging
            granularity of the spill file).
        path: Spill-file location; ``None`` (the default) uses a unique
            temporary file per store, so sharded replicas each own their
            own mmap segment.
    """

    bits: int = 8
    rerank_factor: int = 4
    mmap_cache_blocks: int = 32
    block_size: int = 16
    path: Optional[str] = None

    def __post_init__(self) -> None:
        check_integer("bits", self.bits, error=ConfigurationError)
        if self.bits not in (4, 8):
            raise ConfigurationError(f"bits must be 4 or 8, got {self.bits}")
        check_integer("rerank_factor", self.rerank_factor, 1, ConfigurationError)
        check_integer("mmap_cache_blocks", self.mmap_cache_blocks, 0, ConfigurationError)
        check_integer("block_size", self.block_size, 1, ConfigurationError)


class QuantizedCodes:
    """Decode-on-access view over a store's resident codes.

    Presents the quantized tier to :func:`~repro.index.search.greedy_search`
    /  :func:`~repro.index.search.greedy_search_batch` with the same shape
    and indexing surface as the corpus matrix: scalar indexing yields a 1-D
    decoded row, list/array/slice indexing yields a 2-D decoded block.
    Only requested rows are ever decoded — the float64 matrix never
    materialises.
    """

    def __init__(self, store: "TieredStore") -> None:
        self._store = store

    @property
    def shape(self) -> Tuple[int, int]:
        codes = self._store.codes
        return (codes.shape[0], codes.shape[1])

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key: Any) -> np.ndarray:
        rows = self._store.codes[key]
        decoded = self._store.quantizer.decode(rows)
        if isinstance(key, (int, np.integer)):
            return decoded[0]
        return decoded


class TieredStore:
    """Two-tier vector storage behind a Starling-style index.

    Tier 1 (resident): packed-accounted SQ codes plus per-dimension
    ranges — what traversal reads.  Tier 2 (spilled): the full-precision
    float64 matrix in a block-aligned ``numpy.memmap`` file behind a
    counted, LRU-cached :class:`~repro.index.starling.BlockDevice` — what
    the rerank pass reads.
    """

    def __init__(self, params: TieredParams = TieredParams()) -> None:
        self.params = params
        self.quantizer = ScalarQuantizer(bits=params.bits)
        self.codes: Optional[np.ndarray] = None
        self._codes: Optional[np.ndarray] = None  # growth buffer ``codes`` views
        self.device = None  # BlockDevice over mmap blocks (set by build)
        self._full: Optional[np.memmap] = None
        self._path: Optional[str] = None
        self._owns_path = params.path is None
        self._n = 0
        self._capacity = 0
        self._dim = 0
        self._stats_lock = threading.Lock()
        self.rerank_calls = 0
        self.reranked_rows = 0
        self.last_rerank_depth = 0

    # ------------------------------------------------------------------
    # spill-file management
    # ------------------------------------------------------------------
    def _remap(self, capacity: int) -> None:
        """Grow the spill file to ``capacity`` rows and remap it."""
        assert self._path is not None
        with open(self._path, "r+b") as handle:
            handle.truncate(capacity * self._dim * 8)
        self._full = np.memmap(
            self._path, dtype=np.float64, mode="r+", shape=(capacity, self._dim)
        )
        self._capacity = capacity

    def build(self, matrix: np.ndarray) -> None:
        """Fit the quantizer, encode the resident tier, spill full precision."""
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        self.quantizer.fit(matrix)
        self.codes = self._codes = self.quantizer.encode(matrix)
        self._n, self._dim = matrix.shape
        if self.params.path is not None:
            self._path = self.params.path
        else:
            fd, self._path = tempfile.mkstemp(
                prefix="repro-tiered-", suffix=".mmap"
            )
            os.close(fd)
        with open(self._path, "wb"):
            pass
        self._remap(max(self._n, 1))
        self._full[: self._n] = matrix
        self._full.flush()
        from repro.index.starling import BlockDevice

        self.device = BlockDevice(
            [row // self.params.block_size for row in range(self._n)],
            cache_blocks=self.params.mmap_cache_blocks,
        )

    def add(self, vector: np.ndarray) -> int:
        """Append one vector to both tiers; returns its row id."""
        self._require_built()
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.shape[0] != self._dim:
            raise GraphConstructionError(
                f"vector dim {vector.shape[0]} != store dim {self._dim}"
            )
        if not np.isfinite(vector).all():
            raise GraphConstructionError("vector holds a NaN or an infinity")
        if self._n == self._capacity:
            self._remap(max(self._capacity * 2, 1))
        row = self._n
        self._full[row] = vector
        self._codes = append_row(self._codes, row, self.quantizer.encode(vector)[0])
        self.codes = self._codes[: row + 1]
        self.device.extend(row // self.params.block_size)
        self._n += 1
        return row

    def _require_built(self) -> None:
        if self._full is None or self.codes is None or self.device is None:
            raise ConfigurationError("tiered store has not been built")

    # ------------------------------------------------------------------
    # the two tiers
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Rows stored (both tiers always agree)."""
        return self._n

    @property
    def vectors(self) -> np.ndarray:
        """The full-precision tier: a length-limited view of the memmap."""
        self._require_built()
        assert self._full is not None
        return self._full[: self._n]

    @property
    def decoded(self) -> QuantizedCodes:
        """The resident tier as a matrix-like decode-on-access view."""
        self._require_built()
        return QuantizedCodes(self)

    def rerank(
        self,
        query: np.ndarray,
        kernel,
        candidate_ids: Sequence[int],
        k: int,
    ) -> Tuple[List[int], List[float], int, int]:
        """Re-score ``candidate_ids`` from the full-precision tier.

        Every candidate row is charged to the store's block device before
        it is read; exact distances come from one ``kernel.batch`` call and
        the final order is ``(distance, id)`` — greedy search's tie-break.

        Returns ``(ids, distances, block_reads, cache_hits)`` with the
        device charges attributed to *this* call via the access return
        value, so concurrent searches sharing the device stay correct.
        """
        self._require_built()
        ids = [int(v) for v in candidate_ids]
        with self._stats_lock:
            self.rerank_calls += 1
            self.reranked_rows += len(ids)
            self.last_rerank_depth = len(ids)
        if not ids:
            return [], [], 0, 0
        reads = 0
        hits = 0
        for vertex in ids:
            if self.device.access(vertex):
                reads += 1
            else:
                hits += 1
        rows = np.asarray(self._full[ids], dtype=np.float64)
        distances = kernel.batch(np.asarray(query, dtype=np.float64), rows)
        ordered = sorted(zip((float(d) for d in distances), ids))[:k]
        return (
            [vertex for _, vertex in ordered],
            [distance for distance, _ in ordered],
            reads,
            hits,
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        """Bytes the resident tier occupies (packed codes + ranges)."""
        return self._n * self._dim * self.params.bits // 8 + 2 * self._dim * 8

    def full_bytes(self) -> int:
        """Bytes of the spilled full-precision tier."""
        return self._n * self._dim * 8

    def snapshot(self) -> Dict[str, Any]:
        """Observability ledger for ``/health`` and the cost plane."""
        reads = self.device.block_reads if self.device is not None else 0
        hits = self.device.cache_hits if self.device is not None else 0
        total = reads + hits
        resident = self.resident_bytes()
        full = self.full_bytes()
        return {
            "bits": self.params.bits,
            "rows": self._n,
            "dims": self._dim,
            "resident_bytes": resident,
            "full_bytes": full,
            "compression_ratio": round(full / resident, 3) if resident else 0.0,
            "rerank_factor": self.params.rerank_factor,
            "mmap_blocks": self.device.n_blocks if self.device is not None else 0,
            "mmap_cache_blocks": self.params.mmap_cache_blocks,
            "mmap_block_reads": reads,
            "mmap_cache_hits": hits,
            "mmap_hit_rate": round(hits / total, 4) if total else 0.0,
            "rerank_calls": self.rerank_calls,
            "reranked_rows": self.reranked_rows,
            "last_rerank_depth": self.last_rerank_depth,
            "spill_path": self._path,
        }

    def close(self) -> None:
        """Release both tiers and delete an owned temporary spill file.

        Idempotent: a second close is a no-op.  The block device is reset
        along with the mmap view — a closed store must stop reporting
        live cache statistics, and ``__del__`` must actually release
        every tier, not just the full-precision one.
        """
        if self._full is None and self.device is None and self._path is None:
            return
        self._full = None
        self.device = None
        if self._owns_path and self._path and os.path.exists(self._path):
            try:
                os.unlink(self._path)
            except OSError:
                pass
        self._path = None

    def __del__(self) -> None:  # best-effort temp-file hygiene
        try:
            self.close()
        except Exception:
            pass


def tiered_snapshot(framework) -> Optional[Dict[str, Any]]:
    """Aggregate ledger of ``framework.tiered_stores()`` — the ``tiered``
    entry of the coordinator's ledger table (``GET /health`` / ``GET
    /stats`` / the loadgen report).

    ``None`` when no tiered store is active (the zero-cost disabled
    surface); otherwise per-store rows plus fleet totals.
    """
    stores = list(framework.tiered_stores())
    if not stores:
        return None
    rows = [{"store": label, **store.snapshot()} for label, store in stores]
    reads = sum(row["mmap_block_reads"] for row in rows)
    hits = sum(row["mmap_cache_hits"] for row in rows)
    total = reads + hits
    return {
        "stores": rows,
        "totals": {
            "stores": len(rows),
            "rows": sum(row["rows"] for row in rows),
            "resident_bytes": sum(row["resident_bytes"] for row in rows),
            "full_bytes": sum(row["full_bytes"] for row in rows),
            "mmap_block_reads": reads,
            "mmap_cache_hits": hits,
            "mmap_hit_rate": round(hits / total, 4) if total else 0.0,
            "reranked_rows": sum(row["reranked_rows"] for row in rows),
        },
    }
