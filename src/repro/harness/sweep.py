"""Parameter sweeps.

The headline sweep reproduces section 4.3's explanation of why the
paper's results differ from Falsafi & Wood's R-NUMA study:

    "The reason for this difference lies in the size of the S-COMA
    page cache.  We set the page cache size at 70% of the maximum
    number of client pages allocated by SCOMA, while Falsafi and Wood
    fix the page cache size at 320 KB.  A 320-KB page cache would
    provide only 5%-25% of the necessary number of client pages ...
    and cause enough paging activity to favor LANUMA."

``cache_fraction_sweep`` runs SCOMA-70-style configurations at a range
of page-cache fractions and reports where the SCOMA-70 / LANUMA
crossover falls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.session import ExperimentSpec, Session


@dataclass
class SweepResult:
    """Execution time of capped-S-COMA runs across cache fractions."""

    workload: str
    preset: str
    lanuma_cycles: int = 0
    scoma_cycles: int = 0
    #: fraction -> (execution cycles, page-outs)
    points: "dict[float, tuple[int, int]]" = field(default_factory=dict)

    def normalized(self, fraction: float) -> float:
        """Execution time at ``fraction``, normalized to SCOMA."""
        return self.points[fraction][0] / self.scoma_cycles

    @property
    def lanuma_normalized(self) -> float:
        """The LANUMA baseline, normalized to SCOMA."""
        return self.lanuma_cycles / self.scoma_cycles

    def crossover_fraction(self) -> "float | None":
        """Smallest swept fraction at which capped S-COMA beats LANUMA
        (None if it never does)."""
        for fraction in sorted(self.points):
            if self.points[fraction][0] < self.lanuma_cycles:
                return fraction
        return None

    def rows(self) -> "list[tuple[float, float, int]]":
        """(fraction, normalized time, page-outs), ascending."""
        return [(f, self.normalized(f), self.points[f][1])
                for f in sorted(self.points)]


def cache_fraction_sweep(workload: str,
                         fractions=(0.1, 0.25, 0.5, 0.7, 0.9),
                         preset: str = "small",
                         config=None,
                         session: "Session | None" = None) -> SweepResult:
    """Sweep the page-cache cap as a fraction of the SCOMA run's client
    frames (0.7 is the paper's SCOMA-70).

    Pass a :class:`~repro.harness.session.Session` to run the sweep
    points in parallel and/or through the result cache.
    """
    session = session if session is not None else Session()
    scoma, lanuma, *points = session.run_suite(
        [ExperimentSpec(workload, "scoma", preset=preset, config=config),
         ExperimentSpec(workload, "lanuma", preset=preset, config=config)]
        + [ExperimentSpec(workload, "scoma-70", preset=preset, config=config,
                          cache_fraction=fraction)
           for fraction in fractions])
    sweep = SweepResult(workload=workload, preset=preset,
                        lanuma_cycles=lanuma.stats.execution_cycles,
                        scoma_cycles=scoma.stats.execution_cycles)
    for fraction, result in zip(fractions, points):
        sweep.points[fraction] = (result.stats.execution_cycles,
                                  result.stats.client_page_outs)
    return sweep


def render_sweep(sweep: SweepResult) -> str:
    """The sweep as a text table with the crossover verdict."""
    lines = ["Page-cache fraction sweep — %s (%s preset)"
             % (sweep.workload, sweep.preset),
             "LANUMA baseline: %.2fx SCOMA" % sweep.lanuma_normalized,
             "%10s %12s %10s %s" % ("fraction", "normalized", "page-outs",
                                    "vs LANUMA")]
    for fraction, normalized, pageouts in sweep.rows():
        verdict = ("S-COMA wins" if normalized < sweep.lanuma_normalized
                   else "LANUMA wins")
        lines.append("%10.2f %12.2f %10d %s"
                     % (fraction, normalized, pageouts, verdict))
    crossover = sweep.crossover_fraction()
    if crossover is None:
        lines.append("no crossover within the swept range")
    else:
        lines.append("capped S-COMA overtakes LANUMA at fraction %.2f"
                     % crossover)
    return "\n".join(lines)
