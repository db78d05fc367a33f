"""Read-disturbance (RowHammer / RowPress) failure model.

Complements the content-dependent model (:mod:`repro.dram.faults`) with
the *access*-triggered mechanism: activating a row couples charge out of
its physical neighbours, and a cell whose cumulative disturbance exceeds
its tolerance flips even though its retention behaviour is fine. Two
signals drive the model, both taken from the memory controller's real
command stream (:class:`repro.mc.bank.BankActivationLog`) rather than
synthetic injection:

* **activation count** — classic RowHammer: each ACT of an aggressor row
  disturbs its neighbours a little; flips appear once the count within a
  refresh window reaches the cell's hammer threshold (HC_first), and
* **open-interval duration** — RowPress: keeping the aggressor row open
  disturbs the neighbours *more per activation*, so on-time converts to
  extra effective activations at a ``rowpress_tau_ns`` exchange rate.

The vulnerable-cell population mirrors :class:`~repro.dram.faults.FaultMap`:
counter-based SplitMix64 sub-streams keyed by (chip seed, row, purpose),
so any batch of rows generates bit-identically regardless of batch
composition, and work units can shard over victims freely. The hammer
population draws from its *own* sub-stream tags — a cell being
hammer-vulnerable is independent of it being retention-vulnerable — but
row polarity (true-cell vs anti-cell) reuses the content model's
``_TAG_POLARITY`` stream, so a :class:`DisturbMap` and a ``FaultMap``
built from the same seed agree bitwise on which rows store charge as
logic 1. A flip needs a *charged* victim cell, exactly like retention.

Thresholds are expressed in *weighted activations per refresh interval*.
``hc_first`` is the median threshold at the nominal interval; real chips
sit at tens of thousands of activations over 64 ms, and this model runs
microsecond-scale simulated windows, so the default is scaled down the
same way :mod:`repro.traces.workloads` scales footprints — every
downstream comparison (HI vs LO refresh, TRR threshold sweeps, caught vs
missed fractions) is a ratio property unaffected by the scale. Refreshing
victims more often (a shorter interval) raises the effective threshold;
the scaling is the mirror image of the retention model's interval factor.

Composition with the content predicate goes through
:meth:`DisturbMap.stress_contribution`: per-victim pressure converts to
the content model's stress units and rides into
``FaultMap.failing_mask(..., disturb_stress=...)``, which reduces to the
pure content predicate at zero pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from .faults import (
    _EMPTY_COLUMNS,
    _EMPTY_THRESHOLDS,
    _GOLDEN,
    _MASK64,
    _TAG_POLARITY,
    _U64,
    _binomial_quantile,
    _draw_distinct_columns,
    _draw_lognormal_thresholds,
    _mix64,
    _note_residency,
    _unit,
)

#: Hammer-population sub-stream tags, disjoint from the content model's
#: so the two vulnerable populations of one chip seed never correlate.
_TAG_HAMMER_COUNT = _U64(0x3333333333333347)
_TAG_HAMMER_COLUMN = _U64(0x4444444444444461)
_TAG_HAMMER_U1 = _U64(0x55555555555555A3)
_TAG_HAMMER_U2 = _U64(0x66666666666666C1)


@dataclass(frozen=True)
class DisturbModelConfig:
    """Tunables of the read-disturbance population and dose response."""

    #: Probability that a cell is hammer-vulnerable at all.
    hammer_vulnerable_rate: float = 2.0e-6
    #: Median weighted-activation threshold (HC_first) at the nominal
    #: refresh interval. Scaled to simulation windows; see module docs.
    hc_first: float = 48.0
    #: Lognormal spread of per-cell hammer thresholds.
    threshold_sigma: float = 0.45
    #: Aggressor on-time equal to one extra activation (RowPress).
    rowpress_tau_ns: float = 1_000.0
    #: How many rows on each side of an aggressor feel pressure.
    blast_radius: int = 1
    #: Pressure retained per additional row of distance (distance-d
    #: neighbours receive ``far_neighbor_fraction ** (d - 1)``).
    far_neighbor_fraction: float = 0.35
    #: Refresh interval at which ``hc_first`` is calibrated, ms.
    nominal_interval_ms: float = 64.0
    #: Exponent of the effective-threshold scaling with the interval:
    #: threshold *= (nominal / interval) ** interval_sensitivity, so
    #: refreshing victims twice as often doubles the tolerated dose at
    #: sensitivity 1.0.
    interval_sensitivity: float = 1.0
    #: Fraction of rows using true-cell polarity. Keep equal to the
    #: content model's so same-seed maps agree on row polarity.
    true_cell_row_fraction: float = 0.5
    #: Stress-unit value of one HC_first of pressure when composing with
    #: the content predicate (FaultMap stress units; 2-aggressor nominal
    #: content stress is 1.0).
    content_coupling: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.hammer_vulnerable_rate <= 1.0:
            raise ValueError("hammer_vulnerable_rate must be a probability")
        if self.hc_first <= 0:
            raise ValueError("hc_first must be positive")
        if self.threshold_sigma < 0:
            raise ValueError("threshold_sigma must be non-negative")
        if self.rowpress_tau_ns <= 0:
            raise ValueError("rowpress_tau_ns must be positive")
        if self.blast_radius <= 0:
            raise ValueError("blast_radius must be positive")
        if not 0.0 <= self.far_neighbor_fraction <= 1.0:
            raise ValueError("far_neighbor_fraction must be in [0, 1]")
        if self.nominal_interval_ms <= 0:
            raise ValueError("nominal_interval_ms must be positive")
        if not 0.0 <= self.true_cell_row_fraction <= 1.0:
            raise ValueError("true_cell_row_fraction must be a probability")
        if self.content_coupling < 0:
            raise ValueError("content_coupling must be non-negative")


@dataclass(frozen=True)
class _HammerRow:
    """One row's hammer-vulnerable cells as aligned arrays."""

    columns: np.ndarray     # int64, sorted ascending
    thresholds: np.ndarray  # float64 multipliers of hc_first, aligned
    true_cell: bool


class DisturbMap:
    """The hammer-vulnerable cell population of one DRAM module.

    Same lazy, batch-vectorised generation discipline as
    :class:`~repro.dram.faults.FaultMap`; row indices are module-flat
    (``(channel * banks + bank) * rows_per_bank + row``), matching
    :meth:`repro.sim.system.SystemSimulator.activation_snapshot`.
    """

    def __init__(
        self,
        total_rows: int,
        bits_per_row: int,
        config: DisturbModelConfig = DisturbModelConfig(),
        seed: int = 0,
    ) -> None:
        if total_rows <= 0 or bits_per_row <= 0:
            raise ValueError("rows and bits_per_row must be positive")
        self.total_rows = total_rows
        self.bits_per_row = bits_per_row
        self.config = config
        self.seed = seed
        self._seed_base = _mix64(np.array(seed & _MASK64, dtype=_U64))
        self._populations: Dict[int, _HammerRow] = {}

    # ------------------------------------------------------------------
    # Population generation
    # ------------------------------------------------------------------
    def _row_base(self, rows: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return _mix64(self._seed_base ^ (rows.astype(_U64) * _GOLDEN))

    def _ensure_rows(self, rows: np.ndarray) -> None:
        missing = [
            int(r) for r in np.unique(rows)
            if int(r) not in self._populations
        ]
        if missing:
            self._generate_rows(np.asarray(missing, dtype=np.int64))
        _note_residency(len(missing), 0)

    def resident_rows(self) -> int:
        """How many rows currently hold materialized population state."""
        return len(self._populations)

    def _generate_rows(self, rows: np.ndarray) -> None:
        """Generate populations for (unique, uncached) ``rows`` in one pass."""
        cfg = self.config
        base = self._row_base(rows)
        true_cell = (
            _unit(_mix64(base ^ _TAG_POLARITY)) < cfg.true_cell_row_fraction
        )
        counts = _binomial_quantile(
            _unit(_mix64(base ^ _TAG_HAMMER_COUNT)),
            self.bits_per_row,
            cfg.hammer_vulnerable_rate,
        )
        columns_by_row: Dict[int, np.ndarray] = {}
        thresholds_by_row: Dict[int, np.ndarray] = {}
        nz = np.flatnonzero(counts)
        if len(nz):
            nz_counts = counts[nz]
            total = int(nz_counts.sum())
            pair_pos = np.repeat(np.arange(len(nz)), nz_counts)
            starts = np.cumsum(nz_counts) - nz_counts
            j = np.arange(total, dtype=np.int64) - np.repeat(starts, nz_counts)
            pair_base = base[nz][pair_pos]
            cols = _draw_distinct_columns(
                pair_base, pair_pos, j, self.bits_per_row, _TAG_HAMMER_COLUMN
            )
            thresholds = _draw_lognormal_thresholds(
                pair_base, j, cfg.threshold_sigma,
                _TAG_HAMMER_U1, _TAG_HAMMER_U2,
            )
            order = np.lexsort((cols, pair_pos))
            cols, thresholds, pair_pos = (
                cols[order], thresholds[order], pair_pos[order]
            )
            bounds = np.cumsum(nz_counts)
            for i, row_pos in enumerate(nz):
                lo, hi = bounds[i] - nz_counts[i], bounds[i]
                columns_by_row[int(rows[row_pos])] = cols[lo:hi]
                thresholds_by_row[int(rows[row_pos])] = thresholds[lo:hi]
        for i, row in enumerate(rows):
            row = int(row)
            self._populations[row] = _HammerRow(
                columns=columns_by_row.get(row, _EMPTY_COLUMNS),
                thresholds=thresholds_by_row.get(row, _EMPTY_THRESHOLDS),
                true_cell=bool(true_cell[i]),
            )

    def row_population(self, row_index: int) -> _HammerRow:
        self._check_rows(np.asarray([row_index], dtype=np.int64))
        pop = self._populations.get(row_index)
        if pop is None:
            self._ensure_rows(np.array([row_index], dtype=np.int64))
            pop = self._populations[row_index]
        return pop

    def _check_rows(self, rows: np.ndarray) -> None:
        if len(rows) and (rows.min() < 0 or rows.max() >= self.total_rows):
            bad = rows[(rows < 0) | (rows >= self.total_rows)][0]
            raise ValueError(f"row index {int(bad)} out of range")

    def _gather(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (row_pos, columns, thresholds, true_cell)."""
        self._ensure_rows(rows)
        pops = [self._populations[int(r)] for r in rows]
        counts = np.fromiter((len(p.columns) for p in pops), np.int64, len(pops))
        row_pos = np.repeat(np.arange(len(pops)), counts)
        nonempty = [p for p in pops if len(p.columns)]
        if not nonempty:
            return (
                row_pos, _EMPTY_COLUMNS, _EMPTY_THRESHOLDS,
                np.empty(0, dtype=bool),
            )
        cols = np.concatenate([p.columns for p in nonempty])
        thresholds = np.concatenate([p.thresholds for p in nonempty])
        true_cell = np.repeat(
            np.fromiter((p.true_cell for p in pops), bool, len(pops)), counts
        )
        return row_pos, cols, thresholds, true_cell

    # ------------------------------------------------------------------
    # Pressure: ACT stream -> per-victim weighted dose
    # ------------------------------------------------------------------
    def weighted_activations(
        self, snapshot: Mapping[int, Tuple[int, float]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """RowPress-weighted aggressor dose from an activation snapshot.

        ``snapshot`` maps flat row -> (ACT count, open-interval ns), the
        shape :meth:`SystemSimulator.activation_snapshot` returns. Weight
        = count + on_ns / rowpress_tau_ns. Rows come out sorted so the
        result is independent of dict iteration order.
        """
        if not snapshot:
            return (
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            )
        rows = np.asarray(sorted(snapshot), dtype=np.int64)
        counts = np.asarray(
            [snapshot[int(r)][0] for r in rows], dtype=np.float64
        )
        on_ns = np.asarray(
            [snapshot[int(r)][1] for r in rows], dtype=np.float64
        )
        return rows, counts + on_ns / self.config.rowpress_tau_ns

    def victim_pressure(
        self,
        aggressor_rows: Union[Sequence[int], np.ndarray],
        weights: Union[Sequence[float], np.ndarray],
        rows_per_bank: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold aggressor doses onto their neighbours.

        Distance-d neighbours (d <= blast_radius) receive the aggressor's
        weight scaled by ``far_neighbor_fraction ** (d - 1)``. Pairs that
        would cross a bank edge (flat indices in different
        ``rows_per_bank`` blocks) are dropped when ``rows_per_bank`` is
        given — rows of different banks are not physical neighbours.
        Returns (victim rows sorted ascending, summed pressures).
        """
        aggressors = np.asarray(aggressor_rows, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if aggressors.shape != weights.shape:
            raise ValueError("aggressor_rows and weights must align")
        self._check_rows(aggressors)
        victim_parts = []
        weight_parts = []
        for distance in range(1, self.config.blast_radius + 1):
            scale = self.config.far_neighbor_fraction ** (distance - 1)
            for side in (-distance, distance):
                victims = aggressors + side
                keep = (victims >= 0) & (victims < self.total_rows)
                if rows_per_bank is not None:
                    keep &= (
                        victims // rows_per_bank
                        == aggressors // rows_per_bank
                    )
                victim_parts.append(victims[keep])
                weight_parts.append(weights[keep] * scale)
        if not victim_parts:
            return (
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
            )
        all_victims = np.concatenate(victim_parts)
        all_weights = np.concatenate(weight_parts)
        if not len(all_victims):
            return all_victims, all_weights
        unique, inverse = np.unique(all_victims, return_inverse=True)
        pressure = np.zeros(len(unique), dtype=np.float64)
        np.add.at(pressure, inverse, all_weights)
        return unique, pressure

    # ------------------------------------------------------------------
    # Dose response
    # ------------------------------------------------------------------
    def _interval_factor(self, refresh_interval_ms: float) -> float:
        """Effective-threshold multiplier for a victim refresh interval."""
        return math.exp(
            self.config.interval_sensitivity
            * math.log(
                self.config.nominal_interval_ms
                / max(refresh_interval_ms, 1e-9)
            )
        )

    def flips(
        self,
        victim_rows: Union[Sequence[int], np.ndarray],
        pressures: Union[Sequence[float], np.ndarray],
        refresh_interval_ms: float,
        content_bits: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(row, physical column) of every cell the given doses flip.

        A hammer-vulnerable cell flips iff its victim row's pressure
        reaches ``threshold * hc_first * interval_factor`` **and** the
        cell is charged. ``content_bits`` supplies the charge check —
        one silicon-order row shared by the batch, or a
        ``(len(victim_rows), width)`` matrix; ``None`` assumes the
        worst case (every vulnerable cell charged).
        """
        rows = np.asarray(victim_rows, dtype=np.int64)
        pressures = np.asarray(pressures, dtype=np.float64)
        if rows.shape != pressures.shape:
            raise ValueError("victim_rows and pressures must align")
        self._check_rows(rows)
        row_pos, cols, thresholds, true_cell = self._gather(rows)
        if len(cols) == 0:
            return rows[:0], cols
        effective = (
            thresholds
            * self.config.hc_first
            * self._interval_factor(refresh_interval_ms)
        )
        hit = pressures[row_pos] >= effective
        if content_bits is not None:
            bits = np.asarray(content_bits)
            width = bits.shape[-1]
            valid = cols < width
            safe = np.where(valid, cols, 0)
            if bits.ndim == 1:
                value = bits[safe]
            else:
                value = bits[row_pos, safe]
            charged = np.where(true_cell, value == 1, value == 0)
            hit &= valid & charged
        flip_rows = rows[row_pos[hit]]
        if obs.forensics_active() and obs.trace_active():
            over = np.unique(flip_rows)
            obs.emit(
                "dose_crossing",
                interval_ms=float(refresh_interval_ms),
                rows_over=int(len(over)),
                max_pressure=(
                    float(pressures.max()) if pressures.size else 0.0
                ),
                rows_sample=[int(r) for r in over[:64]],
            )
        return flip_rows, cols[hit]

    def rows_flip(
        self,
        victim_rows: Union[Sequence[int], np.ndarray],
        pressures: Union[Sequence[float], np.ndarray],
        refresh_interval_ms: float,
        content_bits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Which victim rows lose at least one bit (aligned bool array)."""
        rows = np.asarray(victim_rows, dtype=np.int64)
        flip_rows, _ = self.flips(
            rows, pressures, refresh_interval_ms, content_bits
        )
        return np.isin(rows, flip_rows)

    def stress_contribution(
        self,
        pressures: Union[float, Sequence[float], np.ndarray],
    ) -> np.ndarray:
        """Convert victim pressure to content-model stress units.

        One HC_first of pressure is worth ``content_coupling`` stress
        units; feed the result to ``FaultMap`` evaluation via its
        ``disturb_stress`` parameter. Zero pressure contributes exactly
        0.0, so the composed predicate reduces to pure content.
        """
        pressures = np.asarray(pressures, dtype=np.float64)
        return self.config.content_coupling * pressures / self.config.hc_first

    def aligned_stress(
        self,
        rows: Union[Sequence[int], np.ndarray],
        victim_rows: np.ndarray,
        pressures: np.ndarray,
    ) -> np.ndarray:
        """Per-row ``disturb_stress`` for a batch evaluation over ``rows``.

        Scatters the (victim, pressure) pairs onto the batch order and
        converts to stress units; rows without pressure get 0.0.
        """
        rows = np.asarray(rows, dtype=np.int64)
        lookup = {int(v): float(p) for v, p in zip(victim_rows, pressures)}
        pressure = np.asarray(
            [lookup.get(int(r), 0.0) for r in rows], dtype=np.float64
        )
        return self.stress_contribution(pressure)
