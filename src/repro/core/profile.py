"""Profile-guided criticality refinement.

The paper's Sec. 5 notes that "prior work on static or profile-guided
analysis also categorizes loads similarly". The static heuristics in
:mod:`repro.core.criticality` occasionally misjudge execution frequency:
an inner-loop load behind a rarely taken branch fires far less often than
its class-B label suggests, and a class-C load in a hot outer loop may
dominate traffic. This pass runs the kernel once through the untimed DFG
interpreter on profiling inputs and reclassifies class B/C memory nodes by
measured firing frequency. Class A is structural (recurrence membership)
and is never changed by profiling.

The pass is wired into compilation as ``compile_once(..., profile=...)``
(surfaced as ``--profile-guided`` on ``repro run`` / ``repro sweep``) and
is the seed of the full feedback-directed loop in :mod:`repro.exp.fdo`.

Two sharp edges, both regression-tested:

* **No caller mutation by default.** Refinement annotates
  ``node.criticality`` only when ``in_place=True`` (the compile flow,
  which owns a freshly lowered DFG). Refining a caller's DFG in place
  used to leave compile-cache entries keyed on the *unrefined* graph
  looking valid while the graph underneath them had changed class labels.
* **Degenerate profiles keep static classes.** When every memory node
  fires zero times on the profiling input (an untaken guard, a
  zero-trip loop), there is no frequency signal; the old behavior
  silently demoted every class-B node to C. Now the static classes are
  kept and :attr:`ProfileReport.degenerate`/``note`` say why.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.criticality import CriticalityReport, analyze_criticality
from repro.dfg.graph import DFG
from repro.dfg.interp import run_dfg

#: Memory nodes firing at least this fraction of the hottest memory
#: node's count are classified as inner-loop (class B).
HOT_FRACTION = 0.5


@dataclass
class ProfileReport:
    """Outcome of profile-guided refinement."""

    report: CriticalityReport
    node_counts: dict[int, int]
    promoted: list[int]  # C -> B
    demoted: list[int]  # B -> C
    #: True when the profiling run produced no memory-node firings at
    #: all (no frequency signal): static classes are kept unchanged.
    degenerate: bool = False
    #: Human-readable caveat for degenerate (or otherwise noteworthy)
    #: profiles; surfaced in manifests and the CLI.
    note: str | None = None

    def to_dict(self) -> dict:
        """Deterministic JSON-safe view (manifests, ``--stats-json``)."""
        return {
            "promoted": list(self.promoted),
            "demoted": list(self.demoted),
            "degenerate": self.degenerate,
            "note": self.note,
            "counts": self.report.counts(),
        }


def profile_dfg(
    dfg: DFG,
    params: dict[str, int | float] | None = None,
    arrays: dict[str, list] | None = None,
) -> dict[int, int]:
    """Per-node firing counts from one untimed execution."""
    return run_dfg(dfg, params, arrays).node_firings


def apply_classes(dfg: DFG, report: CriticalityReport) -> None:
    """Annotate ``node.criticality`` from ``report`` onto ``dfg``."""
    for node in dfg.memory_nodes():
        node.criticality = report.klass(node.nid)


def analyze_with_profile(
    dfg: DFG,
    params: dict[str, int | float] | None = None,
    arrays: dict[str, list] | None = None,
    in_place: bool = False,
) -> ProfileReport:
    """Static criticality analysis refined by a profiling run.

    Returns the refined report. The caller's DFG keeps its *static*
    class annotations unless ``in_place=True`` (then the refined classes
    are annotated onto the nodes, as the compile flow wants for its own
    freshly lowered graph). Callers holding a DFG that other code — in
    particular the compile cache — already keyed on must leave
    ``in_place`` off and use :func:`apply_classes` on a copy they own.
    """
    static = analyze_criticality(dfg)
    counts = profile_dfg(dfg, params, arrays)
    mem_counts = {
        n.nid: counts.get(n.nid, 0) for n in dfg.memory_nodes()
    }
    hottest = max(mem_counts.values(), default=0)
    if hottest == 0:
        # No memory node fired on the profiling input: there is no
        # frequency signal to refine with. Keep the static classes
        # (the old behavior demoted every class-B node to C here).
        return ProfileReport(
            report=static,
            node_counts=counts,
            promoted=[],
            demoted=[],
            degenerate=True,
            note=(
                "degenerate profile: no memory node fired on the "
                "profiling input; static classes kept"
            ),
        )
    threshold = HOT_FRACTION * hottest
    refined = CriticalityReport(
        class_a=list(static.class_a), recurrences=list(static.recurrences)
    )
    promoted: list[int] = []
    demoted: list[int] = []
    for nid, count in sorted(mem_counts.items()):
        if nid in static.class_a:
            continue
        was_b = nid in static.class_b
        is_hot = count >= threshold
        if is_hot:
            refined.class_b.append(nid)
            if not was_b:
                promoted.append(nid)
        else:
            refined.class_c.append(nid)
            if was_b:
                demoted.append(nid)
    if in_place:
        apply_classes(dfg, refined)
    return ProfileReport(refined, counts, promoted, demoted)
