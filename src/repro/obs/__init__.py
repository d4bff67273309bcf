"""Observability: cycle attribution, tracing, heatmaps, run manifests.

The subsystem is **zero-overhead when off**: with ``ArchParams.sim.trace``
false (the default) the engine holds ``obs = None`` and every publish
site is a single attribute check — simulated results are bit-identical
and the measured slowdown is within noise. It is **O(events) when on**:
the engine hands the bus one record per executed fabric tick (emissions,
firings, stall-bucket *changes*, pushes) and the sinks count at the
source, so a probe costs per thing that happened, not per node per tick.
The memory system publishes its own events to the same
:class:`~repro.obs.events.EventBus`; sinks turn the stream into

* a per-node **cycle-attribution table** over the stall taxonomy
  (:data:`~repro.obs.events.STALL_KINDS`),
* **NoC-link and FM-NoC-stage traffic heatmaps** keyed by the compiled
  placement,
* a Chrome ``trace_event`` JSON viewable in Perfetto / ``chrome://tracing``.

:func:`~repro.obs.sinks.make_observation` assembles the standard sink set
for one run; :mod:`repro.obs.manifest` emits structured JSONL run
manifests.
"""
