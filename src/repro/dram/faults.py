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

Row populations are stored as structured ndarrays (sorted physical
columns + aligned thresholds), so failure evaluation for a whole row — or
a whole module — is a handful of array operations instead of a per-cell
Python loop. The object-returning methods (:meth:`FaultMap.cells_in_row`,
:meth:`FaultMap.failing_cells`) are thin wrappers over the arrays.
"""

from __future__ import annotations

import math
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs

#: Registry names for resident-row accounting: the gauge reads the
#: dense row state a process holds across every live fault map.
RESIDENT_ROWS_GAUGE = "dram.resident_rows"
ROWS_EVICTED_COUNTER = "dram.rows_evicted"


def _evict_lru_rows(
    populations: "OrderedDict[int, object]",
    budget: int,
    batch: int,
    incoming: int,
    shadow: Optional[Dict[int, object]] = None,
) -> int:
    """Evict least-recently-used rows so ``resident + incoming`` fits.

    ``batch`` is the size of the unique row batch about to be evaluated
    and ``incoming`` how many of those are not yet resident. The caller
    must have already touched (moved to the MRU end) every resident row
    of the batch; the effective target is ``max(budget, batch)``, so no
    row of the active batch is ever evicted mid-evaluation — eviction
    stops once only batch rows remain. ``shadow`` is an optional
    secondary per-row cache evicted in lockstep. Returns the eviction
    count; regeneration on a later touch is bitwise-identical because row
    populations are pure functions of (seed, row) counter streams.
    """
    target = max(budget, batch)
    evicted = 0
    while len(populations) + incoming > target and populations:
        row, _ = populations.popitem(last=False)
        if shadow is not None:
            shadow.pop(row, None)
        evicted += 1
    return evicted


def _note_residency(generated: int, evicted: int) -> None:
    """Fold a generation/eviction delta into the process metrics."""
    if not (generated or evicted):
        return
    registry = obs.get_registry()
    if evicted:
        registry.counter(ROWS_EVICTED_COUNTER).inc(evicted)
    registry.gauge(RESIDENT_ROWS_GAUGE).add(generated - evicted)

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
    """One row's vulnerable cells as aligned arrays (columns sorted)."""

    columns: np.ndarray     # int64, sorted ascending
    thresholds: np.ndarray  # float64, aligned with columns
    true_cell: bool         # row polarity
    min_threshold: float    # inf when the row has no vulnerable cells

    def __len__(self) -> int:
        return len(self.columns)


_EMPTY_COLUMNS = np.empty(0, dtype=np.int64)
_EMPTY_THRESHOLDS = np.empty(0, dtype=np.float64)


class FaultMap:
    """The vulnerable-cell population of one DRAM module.

    Generated lazily — and, through the batch APIs, for arbitrarily many
    rows per vectorised pass — so module-scale populations (hundreds of
    thousands of rows) stay cheap.
    """

    def __init__(
        self,
        total_rows: int,
        bits_per_row: int,
        config: FaultModelConfig = FaultModelConfig(),
        seed: int = 0,
        max_resident_rows: Optional[int] = None,
    ) -> None:
        if total_rows <= 0 or bits_per_row <= 0:
            raise ValueError("rows and bits_per_row must be positive")
        if max_resident_rows is not None and max_resident_rows < 1:
            raise ValueError("max_resident_rows must be positive or None")
        self.total_rows = total_rows
        self.bits_per_row = bits_per_row
        self.config = config
        self.seed = seed
        self.max_resident_rows = max_resident_rows
        self._seed_base = _mix64(np.array(seed & _MASK64, dtype=_U64))
        self._populations: "OrderedDict[int, RowPopulation]" = OrderedDict()
        self._rows: Dict[int, Tuple[VulnerableCell, ...]] = {}

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
        pops = self._populations
        unique = np.unique(rows)
        missing = [int(r) for r in unique if int(r) not in pops]
        evicted = 0
        if self.max_resident_rows is not None:
            if len(missing) < len(unique):
                for r in unique:
                    r = int(r)
                    if r in pops:
                        pops.move_to_end(r)
            evicted = _evict_lru_rows(
                pops, self.max_resident_rows, len(unique), len(missing),
                shadow=self._rows,
            )
        if missing:
            self._generate_rows(np.asarray(missing, dtype=np.int64))
        _note_residency(len(missing), evicted)

    def resident_rows(self) -> int:
        """How many rows currently hold materialized population state."""
        return len(self._populations)

    def release(self) -> None:
        """Drop all resident row state and square up the process gauge.

        Populations regenerate bitwise-identically on the next touch, so
        this only trades memory for recomputation. Short-lived maps (one
        fleet host screened per work unit) call this when done so the
        process-wide resident-rows gauge tracks *live* dense state, not
        every map ever constructed.
        """
        resident = len(self._populations)
        self._populations.clear()
        self._rows.clear()
        if resident:
            obs.get_registry().gauge(RESIDENT_ROWS_GAUGE).add(-resident)

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

        nz = np.flatnonzero(counts)
        columns_by_row: Dict[int, np.ndarray] = {}
        thresholds_by_row: Dict[int, np.ndarray] = {}
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
            # Sort each row's cells by physical column, thresholds aligned.
            order = np.lexsort((cols, pair_pos))
            cols, thresholds, pair_pos = cols[order], thresholds[order], pair_pos[order]
            bounds = np.cumsum(nz_counts)
            for i, row_pos in enumerate(nz):
                lo, hi = bounds[i] - nz_counts[i], bounds[i]
                columns_by_row[int(rows[row_pos])] = cols[lo:hi]
                thresholds_by_row[int(rows[row_pos])] = thresholds[lo:hi]

        for i, row in enumerate(rows):
            row = int(row)
            columns = columns_by_row.get(row, _EMPTY_COLUMNS)
            thresholds = thresholds_by_row.get(row, _EMPTY_THRESHOLDS)
            self._populations[row] = RowPopulation(
                columns=columns,
                thresholds=thresholds,
                true_cell=bool(true_cell[i]),
                min_threshold=float(thresholds.min()) if len(thresholds) else math.inf,
            )

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
        pop = self._populations.get(row_index)
        if pop is None:
            self._ensure_rows(np.array([row_index], dtype=np.int64))
            pop = self._populations[row_index]
        elif self.max_resident_rows is not None:
            self._populations.move_to_end(row_index)
        return pop

    def row_is_true_cell(self, row_index: int) -> bool:
        """Polarity of a physical row (true-cell vs anti-cell)."""
        return self.row_population(row_index).true_cell

    def cells_in_row(self, row_index: int) -> Tuple[VulnerableCell, ...]:
        """The vulnerable cells of one row, generated deterministically."""
        self._check_row(row_index)
        cached = self._rows.get(row_index)
        if cached is None:
            pop = self.row_population(row_index)
            cached = tuple(
                VulnerableCell(
                    row_index=row_index,
                    physical_column=int(col),
                    threshold=float(thr),
                    true_cell=pop.true_cell,
                )
                for col, thr in zip(pop.columns, pop.thresholds)
            )
            self._rows[row_index] = cached
        return cached

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
    def failing_mask(
        self,
        row_index: int,
        physical_row_bits: np.ndarray,
        refresh_interval_ms: float,
    ) -> np.ndarray:
        """Boolean mask over :meth:`cells_in_row` — True where the cell fails.

        One vectorised pass: gather each vulnerable cell's stored value and
        both neighbours, count aggressors by array comparison, and compare
        the stress table against the per-cell thresholds.
        """
        pop = self.row_population(row_index)
        return self._evaluate(
            pop.columns,
            pop.thresholds,
            np.full(len(pop.columns), pop.true_cell, dtype=bool),
            np.asarray(physical_row_bits),
            None,
            refresh_interval_ms,
        )

    def failing_columns(
        self,
        row_index: int,
        physical_row_bits: np.ndarray,
        refresh_interval_ms: float,
    ) -> np.ndarray:
        """Physical columns (sorted) of the cells failing with this content."""
        pop = self.row_population(row_index)
        return pop.columns[
            self.failing_mask(row_index, physical_row_bits, refresh_interval_ms)
        ]

    def _evaluate(
        self,
        cols: np.ndarray,
        thresholds: np.ndarray,
        true_cell: np.ndarray,
        bits: np.ndarray,
        row_pos: Optional[np.ndarray],
        refresh_interval_ms: float,
    ) -> np.ndarray:
        """Failure mask for a flat batch of cells against content bits.

        ``bits`` is one row (1-D, shared by every cell) or a matrix whose
        rows are indexed by ``row_pos``.
        """
        if len(cols) == 0:
            return np.zeros(0, dtype=bool)
        width = bits.shape[-1]
        valid = cols < width
        safe = np.where(valid, cols, 0)
        left = np.maximum(safe - 1, 0)
        right = np.minimum(safe + 1, width - 1)
        if bits.ndim == 1:
            value = bits[safe]
            left_value = bits[left]
            right_value = bits[right]
        else:
            value = bits[row_pos, safe]
            left_value = bits[row_pos, left]
            right_value = bits[row_pos, right]
        charged = np.where(true_cell, value == 1, value == 0)
        aggressors = ((cols > 0) & (left_value != value)).astype(np.int64)
        aggressors += ((cols + 1 < width) & (right_value != value)).astype(np.int64)
        stress = self._stress_table(refresh_interval_ms)[aggressors]
        return valid & charged & (stress >= thresholds)

    def _gather(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (row_pos, columns, thresholds, true_cell) for rows."""
        self._ensure_rows(rows)
        pops = [self._populations[int(r)] for r in rows]
        counts = np.fromiter((len(p) for p in pops), np.int64, len(pops))
        row_pos = np.repeat(np.arange(len(pops)), counts)
        nonempty = [p for p in pops if len(p)]
        if not nonempty:
            return (
                row_pos,
                _EMPTY_COLUMNS,
                _EMPTY_THRESHOLDS,
                np.empty(0, dtype=bool),
            )
        cols = np.concatenate([p.columns for p in nonempty])
        thresholds = np.concatenate([p.thresholds for p in nonempty])
        true_cell = np.repeat(
            np.fromiter((p.true_cell for p in pops), bool, len(pops)), counts
        )
        return row_pos, cols, thresholds, true_cell

    def rows_fail(
        self,
        rows: Union[Sequence[int], np.ndarray],
        physical_bits: np.ndarray,
        refresh_interval_ms: float,
    ) -> np.ndarray:
        """Which of ``rows`` lose at least one bit with the given content.

        ``physical_bits`` is either one silicon-order row shared by every
        row in the batch, or a ``(len(rows), width)`` matrix of per-row
        content. Returns a boolean array aligned with ``rows``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        self._check_rows(rows)
        row_pos, cols, thresholds, true_cell = self._gather(rows)
        bits = np.asarray(physical_bits)
        fails = self._evaluate(
            cols, thresholds, true_cell, bits, row_pos, refresh_interval_ms,
        )
        result = np.bincount(row_pos[fails], minlength=len(rows)) > 0
        if obs.forensics_active() and obs.trace_active():
            self._emit_predicate_eval(rows, bits, refresh_interval_ms, result)
        return result

    @staticmethod
    def _emit_predicate_eval(
        rows: np.ndarray,
        bits: np.ndarray,
        refresh_interval_ms: float,
        result: np.ndarray,
    ) -> None:
        """Ledger record for one batch predicate evaluation (forensics).

        Captures the evaluation's inputs compactly: the CRC of the exact
        content snapshot (dtype-tagged, so byte-equal content hashes
        equal) and up to 64 failing rows by id.
        """
        crc = zlib.crc32(bits.dtype.char.encode())
        crc = zlib.crc32(np.ascontiguousarray(bits).tobytes(), crc)
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
        physical_bits: np.ndarray,
        refresh_interval_ms: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(row_index, physical_column) of every failing cell in the batch.

        Content semantics match :meth:`rows_fail`. Cells come out grouped
        by row in ascending column order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        self._check_rows(rows)
        row_pos, cols, thresholds, true_cell = self._gather(rows)
        fails = self._evaluate(
            cols, thresholds, true_cell,
            np.asarray(physical_bits), row_pos, refresh_interval_ms,
        )
        return rows[row_pos[fails]], cols[fails]

    def failing_cells(
        self,
        row_index: int,
        physical_row_bits: np.ndarray,
        refresh_interval_ms: float,
    ) -> List[VulnerableCell]:
        """All vulnerable cells of a row that fail with this content."""
        mask = self.failing_mask(row_index, physical_row_bits, refresh_interval_ms)
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
        mins = np.fromiter(
            (self._populations[int(r)].min_threshold for r in rows),
            np.float64,
            len(rows),
        )
        return mins <= self.stress(2, refresh_interval_ms)

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
