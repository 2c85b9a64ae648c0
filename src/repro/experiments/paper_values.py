"""The paper's evaluation claims as one table, and the one evaluator.

Every claim of Table 1 and Figures 9-30 that this repository checks or
scores is one :class:`Claim` in :data:`CLAIMS`, and every bound the
repository sets on the figures it adds is one in :data:`REPO_CLAIMS`: a
figure id, a measure taken from that figure's rows, optional *exclusive*
bounds ``lo``/``hi`` (a claim with a bound is gated:
``benchmarks/test_figures.py`` fails on it), and an optional paper value
with the sentence it comes from.  A measure is a :class:`Point`
``(x, system, metric)``, a :class:`Ratio` of two measures, or an
:class:`Extreme` (max or min) over the points whose x starts with a
prefix.  Points name x values the fast sweeps run.

:func:`score` evaluates the table on a run's rows.  A claim's error is
``|measured / paper - 1|``; a figure's error is the mean over its claims
that carry a paper value, and the repo-wide error is the mean of the
figure errors.  ``python -m repro.experiments fidelity`` prints
:func:`render` of it over :data:`CLAIMS`, committed as
``benchmarks/results/fidelity.txt``; ``benchmarks/test_figures.py`` gates
both tables.

Not imported by ``import repro.experiments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import mean
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.experiments.common import nic_goodput_mb_s
from repro.metrics.report import Row

BW = "bandwidth_mb_s"
#: NIC goodput in MB/s, the paper's reference line (~92 Gbps).
G = nic_goodput_mb_s()
#: §9.3: eight targets "can only provide roughly 5000 MB/s" of RMW writes.
DRIVE_BOUND_8 = 5000.0


def _has(row: Row, metric: str) -> bool:
    """Whether ``row`` carries ``metric`` (a committed table's empty cell
    reads back as ``nan``: absent)."""
    value = row.metrics.get(metric)
    return value is not None and not math.isnan(value)


@dataclass(frozen=True)
class Point:
    """One cell of a figure: the ``metric`` of ``system`` at ``x``."""

    x: Any
    system: str
    metric: str = BW

    def value(self, rows: Sequence[Row]) -> float:
        """The cell's value; raises ``KeyError`` when the point is absent."""
        for row in rows:
            if row.x == self.x and row.system == self.system and _has(row, self.metric):
                return row.metrics[self.metric]
        raise KeyError(f"no point x={self.x!r} system={self.system!r} metric={self.metric!r}")

    def __str__(self) -> str:
        suffix = "" if self.metric == BW else f" {self.metric}"
        return f"{self.system}@{self.x}{suffix}"


@dataclass(frozen=True)
class Extreme:
    """``max`` or ``min`` of ``system``'s ``metric`` over the points whose x
    starts with ``prefix`` and that carry the metric, leaving out the first
    ``skip`` of them."""

    fn: str  #: "max" or "min"
    system: str
    prefix: str = ""
    skip: int = 0
    metric: str = BW

    def value(self, rows: Sequence[Row]) -> float:
        """The extreme; raises ``KeyError`` when no point matches."""
        values = [
            row.metrics[self.metric] for row in rows
            if row.system == self.system and str(row.x).startswith(self.prefix)
            and _has(row, self.metric)
        ][self.skip:]
        if not values:
            raise KeyError(f"no points for {self}")
        return max(values) if self.fn == "max" else min(values)

    def __str__(self) -> str:
        skip = f"[{self.skip}:]" if self.skip else ""
        return f"{self.fn}({self.system}@{self.prefix}*{skip})"


@dataclass(frozen=True)
class Ratio:
    """``num / den``."""

    num: "Measure"
    den: "Measure"

    def value(self, rows: Sequence[Row]) -> float:
        """The quotient of the two measures; ``nan`` over a zero denominator,
        which fails any bound."""
        den = self.den.value(rows)
        return self.num.value(rows) / den if den else math.nan

    def __str__(self) -> str:
        return f"{self.num} / {self.den}"


Measure = Union[Point, Ratio, Extreme]


@dataclass(frozen=True)
class Claim:
    """One row of the claims table."""

    figure: str
    measure: Measure
    lo: Optional[float] = None  #: exclusive lower bound
    hi: Optional[float] = None  #: exclusive upper bound
    paper: Optional[float] = None  #: the paper's value, where it gives one
    source: str = ""  #: the sentence the claim or paper value comes from

    @property
    def gated(self) -> bool:
        """Whether the claim carries a bound (else it is only scored)."""
        return self.lo is not None or self.hi is not None


def _ratio(x, num: str, den: str, metric: str = BW) -> Ratio:
    return Ratio(Point(x, num, metric), Point(x, den, metric))


def _claims(figure: str, *rows: Tuple) -> Tuple[Claim, ...]:
    """``(measure, lo, hi, paper, source)`` tuples -> claims of ``figure``."""
    return tuple(Claim(figure, *row) for row in rows)


_READS_AT_GOODPUT = "all three systems reach NIC goodput beyond 64 KiB"
_FULL_STRIPE = "identical at the full stripe (both compute parity on the host)"

CLAIMS: Tuple[Claim, ...] = (
    *_claims(
        "table1",
        (Point("Distributed", "SPDK", "write_overhead_x"), 3.5, 4.6, 4.0,
         "host-centric RMW: old data + old parity in, new data + new parity out"),
        (Point("dRAID", "dRAID", "write_overhead_x"), None, 1.3, 1.0,
         "dRAID: the host ships each user byte once"),
        (Point("Distributed", "SPDK", "dread_overhead_x"), 6.0, 8.0, 7.0,
         "host-centric reconstruct read pulls width-1 chunks per chunk"),
        (Point("dRAID", "dRAID", "dread_overhead_x"), None, 1.3, 1.0,
         "dRAID returns only the requested bytes to the host"),
    ),
    *_claims(
        "fig09",
        *((Point(size, system), 0.9 * G, None, G, _READS_AT_GOODPUT)
          for system in ("Linux", "SPDK", "dRAID") for size in ("128KB", "64KB")),
        (_ratio("4KB", "dRAID", "Linux"), 1.5, None, None, "user space beats the kernel stack"),
        (_ratio("4KB", "SPDK", "Linux"), 1.5, None, None, "user space beats the kernel stack"),
    ),
    *_claims(
        "fig10",
        (_ratio("3584KB", "dRAID", "SPDK"), 0.9, 1.1, 1.0, _FULL_STRIPE),
        (Point("3584KB", "dRAID"), 8000, None, None, "full-stripe write approaches goodput x 7/8"),
        (_ratio("16KB", "dRAID", "SPDK"), 0.95, None, None, "dRAID never loses a partial write"),
        (_ratio("16KB", "dRAID", "Linux"), 3, None, None, "Linux MD collapses"),
        (_ratio("64KB", "dRAID", "SPDK"), 0.95, None, 1.7,
         "RMW sizes drive-limited around 5 000 MB/s for dRAID (1.7x over SPDK)"),
        (_ratio("64KB", "dRAID", "Linux"), 3, None, None, "Linux MD collapses"),
        (Point("64KB", "dRAID"), None, None, DRIVE_BOUND_8,
         "eight SSDs can provide roughly 5 000 MB/s"),
    ),
    *_claims(
        "fig11",
        *(claim for chunk in ("128KB", "512KB", "1024KB") for claim in (
            (Point(chunk, "dRAID"), 4200, None, DRIVE_BOUND_8,
             "dRAID at full drive bandwidth for 128 KiB-1 MiB chunks"),
            (_ratio(chunk, "dRAID", "Linux"), 3, None, None, "Linux MD stays collapsed"),
        )),
        (_ratio("32KB", "dRAID", "SPDK"), 0.95, None, None,
         "small chunks lift everyone toward the full-stripe path"),
    ),
    *_claims(
        "fig12",
        (Point(12, "SPDK"), None, 0.58 * G, G / 2, "SPDK capped at half goodput"),
        (Point(18, "SPDK"), None, 0.58 * G, G / 2, "SPDK capped at half goodput"),
        (Point(18, "dRAID"), 9500, None, 10500.0, "dRAID scales linearly to 84 Gbps at width 18"),
        (_ratio(18, "dRAID", "SPDK"), 1.6, None, None, "dRAID scales, SPDK plateaus"),
        (Ratio(Point(18, "Linux"), Point(4, "Linux")), None, 1.0, None,
         "Linux shows the opposite trend"),
        (_ratio(8, "dRAID", "SPDK"), None, None, 1.7,
         "dRAID 1.7x SPDK on 128 KiB RAID-5 writes at the default width 8"),
    ),
    *_claims(
        "fig13",
        *(claim for ratio in ("0%", "25%", "50%", "75%") for claim in (
            (_ratio(ratio, "dRAID", "SPDK"), 0.95, None, None, "dRAID wins at every mixed ratio"),
            (_ratio(ratio, "dRAID", "Linux"), 2, None, None, "dRAID wins at every mixed ratio"),
        )),
        (_ratio("75%", "dRAID", "SPDK"), 1.15, None, None, "1.4-1.7x for all mixed ratios"),
        (Point("100%", "dRAID"), 0.9 * G, None, None, "at 100 % read all systems reach goodput"),
    ),
    *_claims(
        "fig14",
        (Ratio(Extreme("max", "dRAID", "wo-"), Extreme("max", "SPDK", "wo-")), 1.5, None, 2.0,
         "write-only: dRAID bound ~92 Gbps, SPDK at half"),
        (Ratio(Extreme("max", "dRAID", "rw-"), Extreme("max", "SPDK", "rw-")), 1.3, None, 3.0,
         "50/50: dRAID up to 3x, close to NIC goodput"),
        (Extreme("max", "dRAID", "rw-"), 9000, None, None, "50/50: dRAID close to NIC goodput"),
        (_ratio("wo-qd1", "dRAID", "SPDK", "avg_latency_us"), None, 1.2, None,
         "at light load latencies are similar"),
    ),
    *_claims(
        "fig15",
        (Point("128KB", "dRAID"), 0.9 * G, None, 0.95 * G,
         "dRAID keeps 95 % of normal-state read"),
        (Point("128KB", "SPDK"), 0.45 * G, 0.68 * G, 0.57 * G, "SPDK drops to 57 %"),
        (Point("128KB", "Linux"), None, 1500, 834.0, "Linux MD: 834 MB/s"),
    ),
    *_claims(
        "fig16",
        (Point(18, "dRAID"), 0.9 * G, None, G, "dRAID approaches normal-state read"),
        (_ratio(18, "dRAID", "SPDK"), 1.6, None, 2.4, "up to 2.4x"),
        (Point(8, "SPDK"), None, 0.68 * G, None, "SPDK peaks early and degrades"),
        (Point(18, "SPDK"), None, 0.68 * G, None, "SPDK peaks early and degrades"),
    ),
    *_claims(
        "fig17",
        (_ratio("width-8", "dRAID", "SPDK"), 1.5, None, None, "SPDK's rebuild bandwidth declines"),
        (_ratio("width-18", "dRAID", "SPDK"), 1.5, None, None, "SPDK's rebuild bandwidth declines"),
        (Ratio(Extreme("min", "dRAID", "width-"), Extreme("max", "dRAID", "width-")),
         0.8, None, None, "dRAID near-optimal for all widths"),
        (_ratio("qd-4", "BW-Aware", "Random"), 1.15, None, 1.53,
         "bandwidth-aware selection: +53 % read bandwidth vs random"),
    ),
    *_claims(
        "fig18",
        (_ratio("128KB", "dRAID", "SPDK"), 0.9, None, None, "dRAID still beats SPDK"),
        (Point("128KB", "dRAID"), 3500, None, 0.95 * DRIVE_BOUND_8,
         "all systems drop ~5 % vs normal state (normal: roughly 5 000 MB/s)"),
        (Point("128KB", "Linux"), None, 1500, None, "Linux MD stays collapsed"),
    ),
    *_claims(
        "fig19",
        (_ratio("YCSB-A-normal", "dRAID", "SPDK", "kiops"), 0.95, None, 1.27,
         "dRAID improves YCSB-A IOPS by 1.27x in normal state"),
        (_ratio("YCSB-F-normal", "dRAID", "SPDK", "kiops"), 0.95, None, 1.28,
         "dRAID improves YCSB-F IOPS by 1.28x in normal state"),
        *((_ratio(f"YCSB-{wl}-degraded", "dRAID", "SPDK", "kiops"), 0.95, None, None,
           "further improvement for all workloads degraded") for wl in "ABCDF"),
        (_ratio("YCSB-C-degraded", "dRAID", "SPDK", "kiops"), 1.1, None, None,
         "degraded read-heavy workloads gain clearly"),
    ),
    *_claims(
        "fig20",
        (_ratio("YCSB-F", "dRAID", "SPDK", "kiops"), 1.1, None, 1.5, "normal-state gain 1.5x (F)"),
        (_ratio("YCSB-A", "dRAID", "SPDK", "kiops"), 1.05, None, 1.7, "normal-state gain 1.7x (A)"),
        (_ratio("YCSB-C", "dRAID", "SPDK", "kiops"), 0.9, None, None, "limited gains on B/C/D"),
    ),
    *_claims(
        "fig21",
        *((_ratio(f"YCSB-{wl}", "dRAID", "SPDK", "kiops"), 1.3, None, 2.35,
           "degraded-state ~2.35x on B/C/D") for wl in "BCD"),
        *((_ratio(f"YCSB-{wl}", "dRAID", "SPDK", "kiops"), 0.95, None, None,
           "dRAID wins across the board") for wl in "AF"),
    ),
    *_claims(
        "fig22",
        *((Point("128KB", system), 0.9 * G, None, G, "identical to RAID-5: reads reach goodput")
          for system in ("Linux", "SPDK", "dRAID")),
        (_ratio("4KB", "dRAID", "Linux"), 1.5, None, None, "user space beats the kernel stack"),
    ),
    *_claims(
        "fig23",
        (_ratio("3072KB", "dRAID", "SPDK"), 0.88, 1.12, 1.0, _FULL_STRIPE),
        (Point("64KB", "dRAID"), 3000, None, 2 / 3 * DRIVE_BOUND_8,
         "RAID-6 RMW ~2/3 of RAID-5 (six drive I/Os vs four)"),
        (_ratio("64KB", "dRAID", "SPDK"), 0.85, None, 2.3, "dRAID 2.3x SPDK on RAID-6 writes"),
        (_ratio("64KB", "dRAID", "Linux"), 3, None, None, "Linux MD collapses"),
    ),
    *_claims(
        "fig24",
        (_ratio("32KB", "dRAID", "SPDK"), 1.05, None, 2.6, "2.6x at 32 KiB chunks"),
        (_ratio("512KB", "dRAID", "Linux"), 2.5, None, None, "Linux MD stays collapsed"),
        (_ratio("1024KB", "dRAID", "Linux"), 2.5, None, None, "Linux MD stays collapsed"),
    ),
    *_claims(
        "fig25",
        (Point(18, "SPDK"), None, 0.42 * G, G / 3, "SPDK pinned near a third of goodput"),
        (_ratio(18, "dRAID", "SPDK"), 1.7, None, 2.0, "~2x at width 18 and still climbing"),
        (Ratio(Point(18, "Linux"), Point(4, "Linux")), None, 1.1, None, "Linux declines"),
        (_ratio(8, "dRAID", "SPDK"), None, None, 2.3,
         "dRAID 2.3x SPDK on 128 KiB RAID-6 writes at the default width 8"),
    ),
    *_claims(
        "fig26",
        *((_ratio(ratio, "dRAID", "SPDK"), 0.9, None, None, "as Figure 13")
          for ratio in ("0%", "25%", "50%", "75%")),
        (Point("100%", "dRAID"), 0.9 * G, None, None, "convergence at 100 % read"),
    ),
    *_claims(
        "fig27",
        (Ratio(Extreme("max", "dRAID", "wo-"), Extreme("max", "SPDK", "wo-")), 1.5, None, 3.0,
         "~3x on both write-only and 50/50"),
        (Ratio(Extreme("max", "dRAID", "rw-"), Extreme("max", "SPDK", "rw-")), 1.3, None, 3.0,
         "~3x on both write-only and 50/50"),
    ),
    *_claims(
        "fig28",
        (Point("128KB", "dRAID"), 0.9 * G, None, 0.95 * G, "dRAID ~95 % of normal-state read"),
        (Point("128KB", "SPDK"), 0.5 * G, 0.75 * G, 0.61 * G, "SPDK ~61 %"),
        (Point("128KB", "Linux"), None, 1500, None, "Linux MD collapsed"),
    ),
    *_claims(
        "fig29",
        (Ratio(Extreme("min", "dRAID", skip=1), Extreme("max", "dRAID")), 0.75, None, None,
         "dRAID stable across widths"),
        (_ratio(18, "dRAID", "SPDK"), 1.4, None, None, "SPDK slightly worse beyond width 8"),
    ),
    *_claims(
        "fig30",
        (_ratio("128KB", "dRAID", "SPDK"), 0.85, None, None,
         "dRAID's degraded penalty stays small (11 % vs SPDK's 23 %)"),
        (Point("128KB", "dRAID"), 2500, None, None, "a clear gap over both baselines"),
        (Point("128KB", "Linux"), None, 1500, None, "Linux MD collapsed"),
    ),
)

#: The figure ids the table covers, in table order.
FIGURES: Tuple[str, ...] = tuple(dict.fromkeys(claim.figure for claim in CLAIMS))


def _across(system: str, num_x, den_x, metric: str) -> Ratio:
    """``system``'s ``metric`` at ``num_x`` over the same at ``den_x``."""
    return Ratio(Point(num_x, system, metric), Point(den_x, system, metric))


def _goodput(x: str, system: str, arm: str) -> Point:
    return Point(x, f"{system}-{arm}", "goodput_mb_s")


#: The repository's own claims: bounds on the figures it adds to the paper's
#: (:data:`repro.experiments.registry.ADDED_FIGURES`).  They carry no paper
#: value, so they add no error, and ``fidelity`` does not read them.
REPO_CLAIMS: Tuple[Claim, ...] = (
    *_claims(
        "overload",
        *(claim for system in ("Linux", "SPDK", "dRAID") for claim in (
            (Ratio(_goodput("2x", system, "raw"), _goodput("1x", system, "raw")),
             None, 0.6, None, "collapse: raw goodput at 2x saturation falls below 60 % of 1x"),
            (Ratio(_goodput("2x", system, "protected"), _goodput("1x", system, "protected")),
             0.8, None, None, "retention: the protected datapath keeps 80 % of 1x at 2x"),
            (Ratio(_goodput("meta", system, "protected"), _goodput("meta", system, "raw")),
             2.0, None, None, "metastability: after the load spike protected doubles raw"),
        )),
    ),
    *_claims(
        "tenancy",
        (Point("noisy-neighbor", "dRAID-qos-off", "victim_retention"), None, 0.5, None,
         "interference: with QoS off the victim keeps at most half its solo goodput"),
        (Point("noisy-neighbor", "dRAID-qos-on", "victim_retention"), 0.9, None, None,
         "isolation: with QoS on the victim keeps 90 % of its solo goodput"),
        (Point("hotspot-p2", "dRAID-migrate", "migrations"), 0.5, 1.5, None,
         "migration-recovery: the balancer migrates exactly one volume"),
        (Ratio(Point("hotspot-p2", "dRAID-migrate", "hot_goodput_mb_s"),
               Point("hotspot-p2", "dRAID-static", "hot_goodput_mb_s")), 1.2, None, None,
         "migration-recovery: phase-2 hot goodput 1.2x the static placement's"),
    ),
    *_claims(
        "availability",
        *((_ratio("correlated", "dRAID", baseline, "data_loss_per_hour"), None, 1.0, None,
           "under correlated storms dRAID loses less than the host-centric baselines")
          for baseline in ("Linux", "SPDK")),
    ),
    *_claims(
        "geometries",
        *((Ratio(Point(f"declustered/{code}", system, "rebuild_ms"),
                 Point(f"rotating/{code}", system, "rebuild_ms")), None, 1.0, None,
           "declustered rebuild finishes before the rotating layout's")
          for code in ("rs", "lrc") for system in ("dRAID", "dRAID-ST")),
    ),
    *_claims(
        "ablation",
        (_ratio("pipeline", "dRAID", "dRAID-serial", "avg_latency_us"), None, 1.0, None,
         "§5.3: the I/O pipeline lowers write latency"),
        (_ratio("pipeline", "dRAID", "dRAID-serial"), 1.0, None, None,
         "§5.3: the I/O pipeline raises write throughput"),
        (_ratio("late-parity", "dRAID", "dRAID-barrier", "parity_done_us"), None, 0.9, None,
         "§5.2: with Parity late, the non-blocking reduce finishes 10 % sooner"),
    ),
    *_claims(
        "nvram_staging",
        (_ratio("random-16KB", "Log-RAID", "dRAID"), 1.3, None, None,
         "§2.3: full-stripe-only device writes outrun in-place RMW"),
        (Point("burst", "Log-RAID", "ack_us"), None, 30.0, None,
         "§2.3: a burst is acknowledged at NVRAM speed"),
        (Point("churn", "Log-RAID", "write_amp_x"), 1.1, None, None,
         "§2.3: a churning log pays background amplification"),
        (Point("churn", "Log-RAID", "gc_blocks_moved"), 0.0, None, None,
         "§2.3: garbage collection relocates live blocks"),
    ),
    *_claims(
        "rebuild_throttle",
        (_across("dRAID", "0us", "2000us", "rebuild_mb_s"), 1.0, None, None,
         "throttling slows the rebuild"),
        (_across("dRAID", "2000us", "0us", "p99_us"), None, 1.05, None,
         "a throttled rebuild does not raise foreground p99"),
        (_across("dRAID", "0us", "no-rebuild", BW), 0.3, None, None,
         "even unthrottled, the rebuild leaves the foreground 30 % of its bandwidth"),
    ),
)

#: The figure ids :data:`REPO_CLAIMS` covers, in table order.
REPO_FIGURES: Tuple[str, ...] = tuple(dict.fromkeys(claim.figure for claim in REPO_CLAIMS))


@dataclass(frozen=True)
class Scored:
    """One claim evaluated on a run."""

    claim: Claim
    measured: float
    verdict: str  #: "pass", "FAIL", or "report" for a claim without a bound
    error: Optional[float]  #: ``|measured / paper - 1|``, where the claim has a paper value


@dataclass(frozen=True)
class Score:
    """:func:`score`'s result."""

    rows: Tuple[Scored, ...]
    figure_error: Dict[str, Optional[float]]  #: mean error per figure (None: no paper value)
    mean_error: Optional[float]  #: mean of the figure errors

    @property
    def failed(self) -> Tuple[Scored, ...]:
        """The gated claims whose bound does not hold."""
        return tuple(row for row in self.rows if row.verdict == "FAIL")


def evaluate(claim: Claim, rows: Sequence[Row]) -> Scored:
    """Evaluate one claim on its figure's rows (``KeyError`` on a missing
    point; a ``nan`` measure, such as a ratio over zero, fails its bound)."""
    measured = claim.measure.value(rows)
    if not claim.gated:
        verdict = "report"
    elif (claim.lo is None or measured > claim.lo) and (claim.hi is None or measured < claim.hi):
        verdict = "pass"
    else:
        verdict = "FAIL"
    error = None if claim.paper is None or math.isnan(measured) else abs(measured / claim.paper - 1)
    return Scored(claim, measured, verdict, error)


def score(rows_by_figure: Dict[str, Sequence[Row]], claims: Sequence[Claim] = CLAIMS) -> Score:
    """Evaluate every claim whose figure is in ``rows_by_figure``."""
    scored = tuple(
        evaluate(claim, rows_by_figure[claim.figure])
        for claim in claims if claim.figure in rows_by_figure
    )
    figure_error: Dict[str, Optional[float]] = {}
    for figure in dict.fromkeys(row.claim.figure for row in scored):
        errors = [row.error for row in scored if row.claim.figure == figure and row.error is not None]
        figure_error[figure] = mean(errors) if errors else None
    known = [error for error in figure_error.values() if error is not None]
    return Score(scored, figure_error, mean(known) if known else None)


def _num(value: float) -> str:
    return f"{value:.1f}" if abs(value) >= 100 else f"{value:.3f}"


def _bound(claim: Claim) -> str:
    if claim.lo is not None and claim.hi is not None:
        return f"({_num(claim.lo)}, {_num(claim.hi)})"
    if claim.lo is not None:
        return f"> {_num(claim.lo)}"
    if claim.hi is not None:
        return f"< {_num(claim.hi)}"
    return "-"


def _pct(error: Optional[float]) -> str:
    return "-" if error is None else f"{100 * error:.1f}%"


def render(result: Score) -> str:
    """The fidelity report: one line per claim, then one per figure."""
    title = "Fidelity: the paper's claims (Table 1, Figures 9-30) scored on this run"
    labels = [str(row.claim.measure) for row in result.rows]
    width = max(len("measure"), *map(len, labels))
    header = (f"{'figure':<7} {'measure':<{width}} {'measured':>10} {'bound':>20} "
              f"{'paper':>10} {'error':>7}  verdict")
    lines = [title, "=" * len(title), header, "-" * len(header)]
    for row, label in zip(result.rows, labels):
        paper = "-" if row.claim.paper is None else _num(row.claim.paper)
        lines.append(
            f"{row.claim.figure:<7} {label:<{width}} {_num(row.measured):>10} "
            f"{_bound(row.claim):>20} {paper:>10} {_pct(row.error):>7}  {row.verdict}"
        )
    lines += ["", f"{'figure':<7} {'claims':>6} {'gated':>6} {'failed':>6} {'error':>7}"]
    for figure, error in result.figure_error.items():
        mine = [row for row in result.rows if row.claim.figure == figure]
        gated = sum(row.claim.gated for row in mine)
        failed = sum(row.verdict == "FAIL" for row in mine)
        lines.append(f"{figure:<7} {len(mine):>6} {gated:>6} {failed:>6} {_pct(error):>7}")
    gated = sum(row.claim.gated for row in result.rows)
    lines.append(f"{'all':<7} {len(result.rows):>6} {gated:>6} {len(result.failed):>6} "
                 f"{_pct(result.mean_error):>7}  (mean of the figure errors)")
    return "\n".join(lines)
