"""The twelve long-running application profiles (paper Table 1).

Each profile carries the characteristics the paper publishes (runtime,
memory footprint, thread count, application type) plus the generator
parameters that reproduce the write-interval statistics the paper measures
for that application (Figures 7-9, 11-12).

The write population is bimodal, which is what cache-filtered DRAM write
traffic looks like:

* a small set of **streaming pages** (frame/IO buffers) absorbs almost all
  writes in dense sub-millisecond bursts separated by short Pareto gaps —
  these supply the paper's ">95% of writes arrive within 1 ms" mass;
* the bulk of written pages are **regular pages** receiving isolated
  writebacks separated by seconds-to-minutes Pareto gaps — these hold the
  long write intervals whose time dominates execution (Figure 9) and which
  PRIL predicts.

The paper's traces are proprietary Intel captures; these profiles are the
synthetic substitution documented in DESIGN.md. Footprints are expressed
in *pages*, scaled down from the real GB-scale footprints so a full trace
fits comfortably in a Python process; every downstream statistic the paper
uses is a per-page/per-interval property, unaffected by page-count scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class WorkloadProfile:
    """One long-running application: published facts + generator knobs."""

    name: str
    app_type: str
    runtime_s: float       # Table 1 "Time (s)"
    mem_gb: float          # Table 1 "Mem (GB)"
    threads: int           # Table 1 "Threads"

    # ----- generator knobs (calibrated, see module docstring) -----
    #: Number of pages in the (scaled) footprint.
    n_pages: int = 2048
    #: Fraction of pages that receive writes at all.
    written_page_fraction: float = 0.40
    #: Fraction of written pages that are streaming (burst) pages.
    streaming_page_fraction: float = 0.12
    #: Pareto tail index of idle gaps (smaller = heavier tail).
    pareto_alpha: float = 0.70
    #: Streaming pages draw their Pareto idle scale xm log-uniformly from
    #: this range (short gaps between bursts), in ms.
    stream_xm_lo_ms: float = 2.0
    stream_xm_hi_ms: float = 64.0
    #: Regular pages draw xm log-uniformly from this range (seconds to
    #: a minute of idleness between isolated writebacks), in ms.
    regular_xm_lo_ms: float = 512.0
    regular_xm_hi_ms: float = 65536.0
    #: Mean extra writes per streaming burst (episode = 1 + Poisson(mean));
    #: regular pages always write exactly once per episode.
    burst_length_mean: float = 25.0
    #: Mean intra-burst write spacing, ms (exponential).
    burst_spacing_ms: float = 0.08

    def __post_init__(self) -> None:
        if self.runtime_s <= 0 or self.mem_gb <= 0 or self.threads <= 0:
            raise ValueError("published workload facts must be positive")
        if self.n_pages <= 0:
            raise ValueError("n_pages must be positive")
        for frac in ("written_page_fraction", "streaming_page_fraction"):
            if not 0.0 <= getattr(self, frac) <= 1.0:
                raise ValueError(f"{frac} must be in [0, 1]")
        if self.pareto_alpha <= 0:
            raise ValueError("pareto_alpha must be positive")
        if not 0 < self.stream_xm_lo_ms <= self.stream_xm_hi_ms:
            raise ValueError("need 0 < stream_xm_lo_ms <= stream_xm_hi_ms")
        if not 0 < self.regular_xm_lo_ms <= self.regular_xm_hi_ms:
            raise ValueError("need 0 < regular_xm_lo_ms <= regular_xm_hi_ms")
        if self.burst_length_mean < 0:
            raise ValueError("burst_length_mean must be non-negative")
        if self.burst_spacing_ms <= 0:
            raise ValueError("burst_spacing_ms must be positive")

    @property
    def duration_ms(self) -> float:
        """Capture window length. Long runs are capped at two minutes of
        trace; the interval statistics are stationary past that point."""
        return min(self.runtime_s, 120.0) * 1000.0


#: Table 1 of the paper, with per-application generator calibration.
WORKLOADS: Dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in (
        WorkloadProfile("ACBrotherHood", "Game", 209.1, 2.8, 8,
                        pareto_alpha=0.66, streaming_page_fraction=0.18,
                        burst_length_mean=30.0),
        WorkloadProfile("AdobePhotoshop", "Photo editing", 149.2, 3.0, 4,
                        pareto_alpha=0.74),
        WorkloadProfile("AllSysMark", "Media creation", 2064.0, 3.4, 4,
                        pareto_alpha=0.78, written_page_fraction=0.45),
        WorkloadProfile("AVCHD", "Video playback", 217.3, 5.2, 2,
                        pareto_alpha=0.62, burst_length_mean=35.0,
                        streaming_page_fraction=0.10),
        WorkloadProfile("BlurMotion", "Image processing", 93.4, 0.2, 2,
                        pareto_alpha=0.72, n_pages=1024,
                        written_page_fraction=0.45),
        WorkloadProfile("FinalCutPro", "Video editing", 76.9, 3.0, 2,
                        pareto_alpha=0.75, regular_xm_lo_ms=256.0),
        WorkloadProfile("FinalMaster", "Movie display", 248.1, 2.0, 2,
                        pareto_alpha=0.68, written_page_fraction=0.30,
                        streaming_page_fraction=0.08),
        WorkloadProfile("AdobePremiere", "Video editing", 298.8, 5.0, 2,
                        pareto_alpha=0.72, written_page_fraction=0.35),
        WorkloadProfile("MotionPlayBack", "Video processing", 233.9, 5.6, 2,
                        pareto_alpha=0.64, burst_length_mean=40.0),
        WorkloadProfile("Netflix", "Video streaming", 229.4, 4.6, 2,
                        pareto_alpha=0.58, written_page_fraction=0.30,
                        streaming_page_fraction=0.08,
                        burst_length_mean=35.0),
        WorkloadProfile("SystemMgt", "Win 7 managing", 466.2, 7.6, 2,
                        pareto_alpha=0.80, written_page_fraction=0.35,
                        regular_xm_lo_ms=256.0),
        WorkloadProfile("VideoEncode", "Video encoding", 299.1, 7.3, 4,
                        pareto_alpha=0.76, written_page_fraction=0.45,
                        streaming_page_fraction=0.15),
    )
}

#: The three workloads the paper plots individually (Figures 7 and 8).
REPRESENTATIVE_WORKLOADS: Tuple[str, str, str] = (
    "ACBrotherHood", "Netflix", "SystemMgt",
)

