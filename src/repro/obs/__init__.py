"""Observability: cycle attribution, tracing, heatmaps, run manifests.

The subsystem is **zero-overhead when off**: with every probe off (the
default) the engine holds ``recording = None`` and every record site is
a single attribute check — simulated results are bit-identical and the
measured slowdown is within noise. It is **O(events) when on**: the
engine appends integer rows to one :class:`~repro.obs.events.Recording`
(emissions, firings, stall-bucket *changes* when a probe reads them,
scheduler jumps, and bank services for the timeline), so a probe costs
per thing that happened, not per node per tick. Once the run ends the
probes are built from the recording:

* a per-node **cycle-attribution table** over the stall taxonomy
  (:data:`~repro.obs.events.STALL_KINDS`),
* **NoC-link and FM-NoC-stage traffic heatmaps** keyed by the compiled
  placement,
* a Chrome ``trace_event`` JSON viewable in Perfetto / ``chrome://tracing``,
* the critical path (:mod:`repro.obs.critpath`).

:func:`~repro.obs.sinks.make_observation` builds them for one run;
:mod:`repro.obs.manifest` emits structured JSONL run manifests.
"""
