"""Data-dependent DRAM failure model.

Physical mechanism (paper §2): parasitic capacitance between adjacent
bitlines couples a cell to its physical left/right neighbours. Whether a
cell flips during a retention window depends on

* the cell's own weakness (per-cell retention threshold, sampled once per
  chip from a heavy-tailed distribution),
* the stored charge level, which decays with time since the last refresh —
  so failures grow (exponentially, per the paper) with the refresh interval,
* whether the cell is a *true-cell* (stores logic 1 as charge) or an
  *anti-cell* (stores logic 0 as charge) — only a charged cell can leak to
  the wrong value, so the failing *value* depends on cell polarity, and
* the neighbour content: a neighbour holding the opposite bitline voltage
  is an *aggressor* and adds coupling noise.

The model is deterministic given (chip seed, content, refresh interval):
a cell fails iff ``stress(content, interval) >= threshold(cell)``. That
determinism mirrors the repeatable, content-conditional failures the paper
measures (Figure 3), and makes the whole library unit-testable.

All neighbour relations are computed in *physical* column order (after
vendor scrambling and column remapping), which is precisely why the system
cannot enumerate these failures without knowing DRAM internals.

Population draws use a counter-based generator (SplitMix64 sub-streams
keyed by chip seed, row, and draw purpose) rather than a sequential RNG,
so that

* any batch of rows can be generated in one vectorised pass — generating
  row 1000 alone and generating rows 0..4095 together yield bit-identical
  populations, and
* row polarity, cell count, cell positions and cell thresholds live on
  *independent* sub-streams: none of them can correlate through a shared
  draw (the per-row-RNG design this replaced fed the polarity draw and the
  first cell draw from the same stream position).

Populations live in one CSR table: flat physical-column and threshold
arrays holding each generated row's cells as one segment (columns sorted),
plus per-row start, count, polarity and minimum-threshold arrays. Finding
a batch's cells, and its worst case, is index arithmetic over that table.
The predicates take content in *system* order together with the chip's
:class:`~repro.dram.scramble.VendorMapping` and read only what they
compare: each vulnerable cell's bit and its two physical neighbours,
through :meth:`VendorMapping.system_of_silicon`. No row is laid out in
silicon order to evaluate it. The object-returning methods
(:meth:`FaultMap.cells_in_row`, :meth:`FaultMap.failing_cells`) are thin
wrappers over the arrays.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from .scramble import VendorMapping


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the CSR segments ``[start, start + count)``, in order."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


# ----------------------------------------------------------------------
# Counter-based RNG substrate (SplitMix64 sub-streams)
# ----------------------------------------------------------------------
_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_A = _U64(0xBF58476D1CE4E5B9)
_MIX_B = _U64(0x94D049BB133111EB)
#: Dedicated sub-stream tags: one per kind of draw, so no two draws of a
#: row can share randomness (the polarity/cell-layout independence fix).
_TAG_POLARITY = _U64(0x7010101010101013)
_TAG_COUNT = _U64(0xC0C0C0C0C0C0C0C5)
_TAG_COLUMN = _U64(0x51515151515151B7)
_TAG_THRESH_U1 = _U64(0x1111111111111169)
_TAG_THRESH_U2 = _U64(0x2222222222222285)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche mix on uint64."""
    x = np.asarray(x, dtype=_U64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> _U64(30))) * _MIX_A
        x = (x ^ (x >> _U64(27))) * _MIX_B
        return x ^ (x >> _U64(31))


def _unit(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to uniform doubles in [0, 1)."""
    return (np.asarray(h, dtype=_U64) >> _U64(11)) * (1.0 / (1 << 53))


def _draw_distinct_columns(
    pair_base: np.ndarray,
    pair_pos: np.ndarray,
    j: np.ndarray,
    bits_per_row: int,
    tag: np.uint64,
) -> np.ndarray:
    """Distinct column draws per row (rejection on intra-row collisions).

    A cell's draw is rejected iff it matches the column of a lower-``j``
    cell of the same row, and redrawn on the next counter value — a rule
    that depends only on the row's own draws, keeping the result
    independent of how rows are batched.
    """
    attempts = np.zeros(len(j), dtype=np.int64)
    cols = np.empty(len(j), dtype=np.int64)
    pending = np.arange(len(j))
    while len(pending):
        with np.errstate(over="ignore"):
            h = _mix64(
                pair_base[pending]
                ^ tag
                ^ _mix64(
                    (j[pending].astype(_U64) << _U64(32))
                    + attempts[pending].astype(_U64)
                )
            )
        cols[pending] = (_unit(h) * bits_per_row).astype(np.int64)
        # A draw collides when an earlier-j cell of the same row holds
        # the same column; later-j duplicates redraw.
        order = np.lexsort((j, cols, pair_pos))
        sorted_pos = pair_pos[order]
        sorted_cols = cols[order]
        dup = np.zeros(len(j), dtype=bool)
        same = (sorted_pos[1:] == sorted_pos[:-1]) & (
            sorted_cols[1:] == sorted_cols[:-1]
        )
        dup[order[1:][same]] = True
        pending = np.flatnonzero(dup)
        attempts[pending] += 1
    return cols


def _draw_lognormal_thresholds(
    pair_base: np.ndarray,
    j: np.ndarray,
    sigma: float,
    tag_u1: np.uint64,
    tag_u2: np.uint64,
) -> np.ndarray:
    """Lognormal threshold per cell via Box-Muller on hashed uniforms."""
    with np.errstate(over="ignore"):
        key = _mix64(j.astype(_U64) << _U64(32))
        u1 = _unit(_mix64(pair_base ^ tag_u1 ^ key)) + 2.0 ** -53
        u2 = _unit(_mix64(pair_base ^ tag_u2 ^ key))
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    return np.exp(sigma * z)


def _binomial_quantile(u: np.ndarray, n: int, p: float) -> np.ndarray:
    """Vectorised inverse-CDF of Binomial(n, p): smallest k with u < cdf(k).

    The pmf recurrence walks the CDF upward for all rows simultaneously;
    with the tiny per-cell rates this model uses, the walk terminates after
    a handful of steps. Iterations are capped at mean + 12 sigma (clamped
    to ``n``), which truncates only probability mass below ~1e-20 and keeps
    the result a pure function of ``u`` (batch-composition independent).
    """
    u = np.asarray(u, dtype=np.float64)
    k = np.zeros(u.shape, dtype=np.int64)
    if p <= 0.0 or n <= 0:
        return k
    if p >= 1.0:
        return np.full(u.shape, n, dtype=np.int64)
    pmf = np.full(u.shape, math.exp(n * math.log1p(-p)))
    cdf = pmf.copy()
    ratio = p / (1.0 - p)
    cap = min(n, int(n * p + 12.0 * math.sqrt(n * p * (1.0 - p)) + 32.0))
    for _ in range(cap):
        active = u >= cdf
        if not active.any():
            break
        ka = k[active]
        pmf[active] *= ratio * (n - ka) / (ka + 1.0)
        cdf[active] += pmf[active]
        k[active] += 1
    return k


@dataclass(frozen=True)
class FaultModelConfig:
    """Tunables for the data-dependent failure population.

    The defaults are calibrated so that on the paper's test conditions
    (retention interval equivalent to 328 ms at 85C) roughly 13.5% of 8 KB
    rows contain at least one cell that can fail under *some* content
    (ALL-FAIL in Figure 4), while typical program content triggers a few
    tenths of a percent to a few percent of rows.
    """

    #: Probability that a cell is data-dependent vulnerable at all.
    vulnerable_cell_rate: float = 4.4e-6
    #: Fraction of rows using true-cell polarity (the rest are anti-cells).
    #: Real chips mix both per subarray; we assign per physical row.
    true_cell_row_fraction: float = 0.5
    #: Stress from a single aggressor neighbour, as a fraction of the
    #: two-aggressor worst case (coupling saturates, so > 0.5).
    single_aggressor_fraction: float = 0.85
    #: Content-independent leakage stress (no aggressors). Kept far below
    #: the threshold distribution: always-failing weak cells are excluded
    #: from the data-dependent population, per the paper's footnote 1.
    baseline_stress: float = 0.02
    #: Retention interval at which a vulnerable cell with both neighbours
    #: aggressing is right at its median failure point, in milliseconds.
    nominal_interval_ms: float = 328.0
    #: Exponential growth rate of stress with the retention interval.
    interval_sensitivity: float = 1.35
    #: Spread (sigma of the lognormal) of per-cell thresholds.
    threshold_sigma: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.vulnerable_cell_rate <= 1.0:
            raise ValueError("vulnerable_cell_rate must be a probability")
        if not 0.0 <= self.true_cell_row_fraction <= 1.0:
            raise ValueError("true_cell_row_fraction must be a probability")
        if not 0.0 < self.single_aggressor_fraction <= 1.0:
            raise ValueError("single_aggressor_fraction must be in (0, 1]")
        if self.baseline_stress < 0:
            raise ValueError("baseline_stress must be non-negative")
        if self.nominal_interval_ms <= 0:
            raise ValueError("nominal_interval_ms must be positive")
        if self.threshold_sigma < 0:
            raise ValueError("threshold_sigma must be non-negative")


@dataclass(frozen=True)
class VulnerableCell:
    """One data-dependent vulnerable cell, in physical coordinates."""

    row_index: int        # flat row index within the module
    physical_column: int  # bit position in silicon order
    threshold: float      # stress units; lower = weaker
    true_cell: bool       # polarity: True -> charge encodes logic 1


@dataclass(frozen=True)
class RowPopulation:
    """One row's vulnerable cells: read-only views into the CSR table."""

    columns: np.ndarray     # int64, sorted ascending
    thresholds: np.ndarray  # float64, aligned with columns
    true_cell: bool         # row polarity


_EMPTY_COLUMNS = np.empty(0, dtype=np.int64)
_EMPTY_THRESHOLDS = np.empty(0, dtype=np.float64)
#: Offsets of the silicon positions a cell's verdict reads: its own,
#: its left neighbour's and its right neighbour's.
_NEIGHBOURS = np.array([[0], [-1], [1]], dtype=np.int64)


class FaultMap:
    """The vulnerable-cell population of one DRAM module.

    Generated lazily — and, through the batch APIs, for arbitrarily many
    rows per vectorised pass — so module-scale populations (hundreds of
    thousands of rows) stay cheap. A generated row stays in the table for
    the map's lifetime.
    """

    def __init__(
        self,
        total_rows: int,
        bits_per_row: int,
        config: FaultModelConfig = FaultModelConfig(),
        seed: int = 0,
    ) -> None:
        if total_rows <= 0 or bits_per_row <= 0:
            raise ValueError("rows and bits_per_row must be positive")
        self.total_rows = total_rows
        self.bits_per_row = bits_per_row
        self.config = config
        self.seed = seed
        self._seed_base = _mix64(np.array(seed & _MASK64, dtype=_U64))
        # Row ``r``'s cells are ``_columns[_start[r]:_start[r] + _count[r]]``
        # (thresholds aligned) once ``_resident[r]``. The flat arrays grow
        # by appending, so ``[0, _used)`` holds only live segments.
        self._columns = _EMPTY_COLUMNS
        self._thresholds = _EMPTY_THRESHOLDS
        self._used = 0
        self._start = np.zeros(total_rows, dtype=np.int64)
        self._count = np.zeros(total_rows, dtype=np.int64)
        self._true_cell = np.zeros(total_rows, dtype=bool)
        self._min_threshold = np.zeros(total_rows, dtype=np.float64)
        self._resident = np.zeros(total_rows, dtype=bool)

    # ------------------------------------------------------------------
    # Population generation (counter-based, batch-vectorised)
    # ------------------------------------------------------------------
    def _row_base(self, rows: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return _mix64(self._seed_base ^ (rows.astype(_U64) * _GOLDEN))

    def rng_coordinates(
        self, row_start: int = 0, row_stop: Optional[int] = None
    ) -> Dict[str, object]:
        """JSON-safe RNG coordinates of a row range's sub-stream.

        Each row's population is drawn from a counter-based stream keyed
        only by ``(seed, row)``, so a range's coordinates pin down its
        content independent of batch composition. Work units carry these
        for provenance, and checkpoint fingerprints include them so a
        journal from a different seed or layout is never silently reused.
        """
        stop = self.total_rows if row_stop is None else row_stop
        if not 0 <= row_start <= stop <= self.total_rows:
            raise ValueError(
                f"bad row range [{row_start}, {stop}) for "
                f"{self.total_rows} rows"
            )
        edges = np.asarray(
            [row_start, max(row_start, stop - 1)], dtype=np.int64
        )
        base = self._row_base(edges)
        return {
            "seed": int(self.seed),
            "seed_base": format(int(self._seed_base), "016x"),
            "rows": [int(row_start), int(stop)],
            "base_first": format(int(base[0]), "016x"),
            "base_last": format(int(base[1]), "016x"),
        }

    def _ensure_rows(self, rows: np.ndarray) -> None:
        """Generate every row of ``rows`` not yet in the table."""
        missing = np.unique(rows[~self._resident[rows]])
        if len(missing):
            self._generate_rows(missing)

    def _generate_rows(self, rows: np.ndarray) -> None:
        """Generate populations for (unique, uncached) ``rows`` in one pass."""
        cfg = self.config
        base = self._row_base(rows)
        true_cell = _unit(_mix64(base ^ _TAG_POLARITY)) < cfg.true_cell_row_fraction
        counts = _binomial_quantile(
            _unit(_mix64(base ^ _TAG_COUNT)),
            self.bits_per_row,
            cfg.vulnerable_cell_rate,
        )
        min_threshold = np.full(len(rows), math.inf)
        cols, thresholds = _EMPTY_COLUMNS, _EMPTY_THRESHOLDS
        nz = np.flatnonzero(counts)
        if len(nz):
            nz_counts = counts[nz]
            total = int(nz_counts.sum())
            # (row, j) pair coordinates for every cell to draw.
            pair_pos = np.repeat(np.arange(len(nz)), nz_counts)
            starts = np.cumsum(nz_counts) - nz_counts
            j = np.arange(total, dtype=np.int64) - np.repeat(starts, nz_counts)
            pair_base = base[nz][pair_pos]
            cols = self._draw_columns(pair_base, pair_pos, j, nz_counts)
            thresholds = self._draw_thresholds(pair_base, j)
            # Sort each row's cells by physical column, thresholds aligned:
            # the batch's rows become consecutive CSR segments.
            order = np.lexsort((cols, pair_pos))
            cols, thresholds = cols[order], thresholds[order]
            min_threshold[nz] = np.minimum.reduceat(thresholds, starts)

        offset = self._reserve(len(cols))
        self._columns[offset: offset + len(cols)] = cols
        self._thresholds[offset: offset + len(cols)] = thresholds
        self._start[rows] = offset + np.cumsum(counts) - counts
        self._count[rows] = counts
        self._true_cell[rows] = true_cell
        self._min_threshold[rows] = min_threshold
        self._resident[rows] = True

    def _reserve(self, cells: int) -> int:
        """Room for ``cells`` more cells in the flat arrays; their offset.

        When full, the live prefix is copied into arrays of twice the
        needed size; segment offsets stay valid. Segments handed out as
        views keep their old buffer, so they never change under the caller.
        """
        used = self._used
        if used + cells > len(self._columns):
            capacity = max(2 * (used + cells), 1024)
            columns = np.empty(capacity, dtype=np.int64)
            thresholds = np.empty(capacity, dtype=np.float64)
            columns[:used] = self._columns[:used]
            thresholds[:used] = self._thresholds[:used]
            self._columns, self._thresholds = columns, thresholds
        offset = used
        self._used += cells
        return offset

    def _draw_columns(
        self,
        pair_base: np.ndarray,
        pair_pos: np.ndarray,
        j: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Distinct physical columns per row, on the content sub-stream."""
        return _draw_distinct_columns(
            pair_base, pair_pos, j, self.bits_per_row, _TAG_COLUMN
        )

    def _draw_thresholds(self, pair_base: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Lognormal threshold per cell via Box-Muller on hashed uniforms."""
        return _draw_lognormal_thresholds(
            pair_base, j, self.config.threshold_sigma,
            _TAG_THRESH_U1, _TAG_THRESH_U2,
        )

    # ------------------------------------------------------------------
    # Population access
    # ------------------------------------------------------------------
    def row_population(self, row_index: int) -> RowPopulation:
        """The row's vulnerable cells as aligned arrays (the fast view)."""
        self._check_row(row_index)
        if not self._resident[row_index]:
            self._ensure_rows(np.array([row_index], dtype=np.int64))
        start = self._start[row_index]
        stop = start + self._count[row_index]
        columns = self._columns[start:stop]
        thresholds = self._thresholds[start:stop]
        columns.flags.writeable = False
        thresholds.flags.writeable = False
        return RowPopulation(
            columns=columns,
            thresholds=thresholds,
            true_cell=bool(self._true_cell[row_index]),
        )

    def row_is_true_cell(self, row_index: int) -> bool:
        """Polarity of a physical row (true-cell vs anti-cell)."""
        return self.row_population(row_index).true_cell

    def cells_in_row(self, row_index: int) -> Tuple[VulnerableCell, ...]:
        """The vulnerable cells of one row, generated deterministically."""
        pop = self.row_population(row_index)
        return tuple(
            VulnerableCell(
                row_index=row_index,
                physical_column=col,
                threshold=thr,
                true_cell=pop.true_cell,
            )
            for col, thr in zip(pop.columns.tolist(), pop.thresholds.tolist())
        )

    def _check_row(self, row_index: int) -> None:
        if not 0 <= row_index < self.total_rows:
            raise ValueError(f"row index {row_index} out of range")

    # ------------------------------------------------------------------
    # Stress model
    # ------------------------------------------------------------------
    def stress(self, aggressors: int, refresh_interval_ms: float) -> float:
        """Coupling stress on a vulnerable cell with ``aggressors`` in {0,1,2}.

        Stress grows exponentially with the retention interval, normalised
        so that (2 aggressors, nominal interval) == 1.0 stress units.
        """
        if aggressors not in (0, 1, 2):
            raise ValueError("aggressors must be 0, 1, or 2")
        cfg = self.config
        interval_factor = math.exp(
            cfg.interval_sensitivity
            * math.log(max(refresh_interval_ms, 1e-9) / cfg.nominal_interval_ms)
        )
        coupling = (0.0, cfg.single_aggressor_fraction, 1.0)[aggressors]
        return (cfg.baseline_stress + coupling) * interval_factor

    def _stress_table(self, refresh_interval_ms: float) -> np.ndarray:
        """stress(k, interval) for k in {0, 1, 2}, for array lookups."""
        return np.array(
            [self.stress(k, refresh_interval_ms) for k in (0, 1, 2)]
        )

    # ------------------------------------------------------------------
    # Vectorised evaluation
    # ------------------------------------------------------------------
    # Every content predicate takes ``content`` in system bit order plus
    # the chip's ``mapping``, or, with no mapping, content already laid
    # out in silicon order (the identity mapping).
    def failing_mask(
        self,
        row_index: int,
        content: np.ndarray,
        refresh_interval_ms: float,
        mapping: Optional[VendorMapping] = None,
    ) -> np.ndarray:
        """Boolean mask over :meth:`cells_in_row` — True where the cell fails.

        ``content`` is one row. One vectorised pass: gather each vulnerable
        cell's stored value and both neighbours, count aggressors by array
        comparison, and compare the stress table against the per-cell
        thresholds.
        """
        content = _checked_content(content, None, mapping)
        pop = self.row_population(row_index)
        return self._evaluate(
            pop.columns,
            pop.thresholds,
            pop.true_cell,
            content,
            None,
            refresh_interval_ms,
            mapping,
        )

    def failing_columns(
        self,
        row_index: int,
        content: np.ndarray,
        refresh_interval_ms: float,
        mapping: Optional[VendorMapping] = None,
    ) -> np.ndarray:
        """Physical columns (sorted) of the cells failing with this content."""
        pop = self.row_population(row_index)
        return pop.columns[
            self.failing_mask(row_index, content, refresh_interval_ms, mapping)
        ]

    def _evaluate(
        self,
        cols: np.ndarray,
        thresholds: np.ndarray,
        true_cell: Union[bool, np.ndarray],
        content: np.ndarray,
        row_pos: Optional[np.ndarray],
        refresh_interval_ms: float,
        mapping: Optional[VendorMapping],
    ) -> np.ndarray:
        """Failure mask for a flat batch of cells against content.

        ``true_cell`` is each cell's polarity, or one shared by all.
        ``content`` is one row (1-D, shared by every cell) or a matrix whose
        rows are indexed by ``row_pos``. Silicon position ``p`` holds bit
        ``p`` of the content without a mapping, and system bit
        ``mapping.system_of_silicon()[p]`` with one, or 0 where that is -1,
        as :meth:`VendorMapping.to_silicon` lays it out. Only the three bits
        a cell's verdict depends on are read: its own and its physical
        neighbours'.
        """
        if len(cols) == 0:
            return np.zeros(0, dtype=bool)
        if mapping is None:
            width = content.shape[-1]
        else:
            width = mapping.physical_columns
        # Rows of silicon positions: the cells, their left neighbours,
        # their right neighbours. A neighbour past the row's edge clamps
        # onto the cell itself, so it never aggresses; a cell past the
        # content's width reads some held bit and is masked out below.
        where = np.minimum(np.maximum(cols + _NEIGHBOURS, 0), width - 1)
        if mapping is not None:
            where = mapping.system_of_silicon()[where]
        bits = content[where] if content.ndim == 1 else content[row_pos, where]
        bits[where < 0] = 0
        value = bits[0]
        aggressors = (bits[1:] != value).sum(axis=0)
        stress = self._stress_table(refresh_interval_ms)[aggressors]
        # Only a charged cell can leak: a true-cell storing 1, an
        # anti-cell storing 0.
        charged = value == true_cell
        return (cols < width) & charged & (stress >= thresholds)

    def _gather(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (row_pos, columns, thresholds, true_cell) for rows."""
        self._ensure_rows(rows)
        counts = self._count[rows]
        index = _segments(self._start[rows], counts)
        row_pos = np.repeat(np.arange(len(rows)), counts)
        return (
            row_pos,
            self._columns[index],
            self._thresholds[index],
            self._true_cell[rows][row_pos],
        )

    def rows_fail(
        self,
        rows: Union[Sequence[int], np.ndarray],
        content: np.ndarray,
        refresh_interval_ms: float,
        mapping: Optional[VendorMapping] = None,
    ) -> np.ndarray:
        """Which of ``rows`` lose at least one bit with the given content.

        ``content`` is either one row shared by every row in the batch, or
        a ``(len(rows), width)`` matrix of per-row content. Returns a
        boolean array aligned with ``rows``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        self._check_rows(rows)
        content = _checked_content(content, len(rows), mapping)
        row_pos, cols, thresholds, true_cell = self._gather(rows)
        fails = self._evaluate(
            cols, thresholds, true_cell, content, row_pos,
            refresh_interval_ms, mapping,
        )
        result = np.bincount(row_pos[fails], minlength=len(rows)) > 0
        if obs.forensics_active() and obs.trace_active():
            self._emit_predicate_eval(rows, content, refresh_interval_ms, result)
        return result

    @staticmethod
    def _emit_predicate_eval(
        rows: np.ndarray,
        content: np.ndarray,
        refresh_interval_ms: float,
        result: np.ndarray,
    ) -> None:
        """Ledger record for one batch predicate evaluation (forensics).

        Captures the evaluation's inputs compactly: the CRC of the exact
        content it was given, in the order it was given (dtype-tagged, so
        byte-equal content hashes equal), and up to 64 failing rows by id.
        """
        crc = zlib.crc32(content.dtype.char.encode())
        crc = zlib.crc32(np.ascontiguousarray(content).tobytes(), crc)
        failing = rows[result]
        obs.emit(
            "predicate_eval",
            interval_ms=float(refresh_interval_ms),
            rows=int(len(rows)),
            failed=int(len(failing)),
            content_crc=int(crc),
            rows_failed_sample=[int(r) for r in failing[:64]],
        )

    def failing_cells_batch(
        self,
        rows: Union[Sequence[int], np.ndarray],
        content: np.ndarray,
        refresh_interval_ms: float,
        mapping: Optional[VendorMapping] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(row_index, physical_column) of every failing cell in the batch.

        Content semantics match :meth:`rows_fail`. Cells come out grouped
        by row in ascending column order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        self._check_rows(rows)
        content = _checked_content(content, len(rows), mapping)
        row_pos, cols, thresholds, true_cell = self._gather(rows)
        fails = self._evaluate(
            cols, thresholds, true_cell, content, row_pos,
            refresh_interval_ms, mapping,
        )
        return rows[row_pos[fails]], cols[fails]

    def failing_cells(
        self,
        row_index: int,
        content: np.ndarray,
        refresh_interval_ms: float,
        mapping: Optional[VendorMapping] = None,
    ) -> List[VulnerableCell]:
        """All vulnerable cells of a row that fail with this content."""
        mask = self.failing_mask(row_index, content, refresh_interval_ms, mapping)
        if not mask.any():
            return []
        cells = self.cells_in_row(row_index)
        return [cell for cell, fails in zip(cells, mask) if fails]

    # ------------------------------------------------------------------
    # Worst-case (ALL-FAIL) queries
    # ------------------------------------------------------------------
    def rows_can_ever_fail(
        self,
        rows: Union[Sequence[int], np.ndarray],
        refresh_interval_ms: float,
    ) -> np.ndarray:
        """Vectorised ALL-FAIL check for a batch of rows.

        Thresholds for uncached rows are generated in one vectorised pass,
        then the whole batch is answered by a single comparison of per-row
        minimum thresholds against worst-case stress.
        """
        rows = np.asarray(rows, dtype=np.int64)
        self._check_rows(rows)
        self._ensure_rows(rows)
        return self._min_threshold[rows] <= self.stress(2, refresh_interval_ms)

    def all_fail_rows(self, refresh_interval_ms: float) -> List[int]:
        """Flat indices of every row that could fail under some content."""
        mask = self.rows_can_ever_fail(
            np.arange(self.total_rows, dtype=np.int64), refresh_interval_ms
        )
        return [int(r) for r in np.flatnonzero(mask)]

    def _check_rows(self, rows: np.ndarray) -> None:
        if len(rows) and (rows.min() < 0 or rows.max() >= self.total_rows):
            bad = rows[(rows < 0) | (rows >= self.total_rows)][0]
            raise ValueError(f"row index {int(bad)} out of range")


def _checked_content(
    content: np.ndarray, rows: Optional[int], mapping: Optional[VendorMapping]
) -> np.ndarray:
    """``content`` as an array, if its shape fits the predicate.

    One row is ``(width,)``; a batch predicate over ``rows`` rows also
    takes ``(rows, width)``. With a mapping, ``width`` is its system
    column count, since content is then read by system position.
    """
    content = np.asarray(content)
    if mapping is not None:
        width = mapping.system_columns
    else:
        width = content.shape[-1] if content.ndim else None
    shapes = [(width,)] if rows is None else [(width,), (rows, width)]
    if content.shape not in shapes:
        expected = " or ".join(str(shape) for shape in shapes)
        where = "" if mapping is None else (
            f" (the mapping's {width} system columns)"
        )
        raise ValueError(
            f"content of shape {content.shape} does not fit {expected}{where}"
        )
    return content
