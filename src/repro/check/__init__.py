"""Cross-layer conformance subsystem (``repro.check``).

The repository's central claim is three-level equivalence: the IR
interpreter, the untimed DFG token interpreter and the cycle-level
simulator must compute identical answers for every kernel. Until this
package that equivalence was only spot-checked per workload; ``repro.check``
makes it a first-class, always-runnable guarantee with four pillars, and
guards the compiler's output with a fifth:

* :mod:`repro.check.oracle` — a **three-way differential oracle**
  (:func:`check_kernel` / :func:`check_workload`) that runs one kernel
  through all three layers and diffs final array states plus op/firing
  counts into a structured :class:`ConformanceReport`;
* :mod:`repro.check.invariants` — **runtime invariant checkers** wired
  into the simulator exactly like the observability bus (None-gated,
  zero overhead when off, bit-identical results either way): token
  conservation, FIFO capacity, memory-ordering monotonicity and
  stats-ledger identities;
* :mod:`repro.check.lint` — a **DFG static lint pass** (dangling ports,
  unreachable nodes, steer-cadence mismatches, carry-init gating) the
  oracle runs over every graph it checks; :func:`lint_strict` raises on
  any finding;
* :mod:`repro.check.fuzz` — a **seeded random kernel generator** and
  shrinker behind ``repro check --fuzz N --seed S``, writing minimal
  reproducers to a corpus directory;
* :mod:`repro.check.pnr` — an **independent PnR verifier**
  (:func:`verify_placement`, :func:`verify_routing`): placement legality,
  per-net trees, hop counts, channel occupancy and the clock divider
  re-derived from a compiled artifact with no code shared with the
  placer, the router or static timing.
"""
