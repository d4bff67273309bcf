"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IRError(ReproError):
    """Malformed kernel IR (bad builder usage, failed validation)."""


class LoweringError(ReproError):
    """The IR could not be lowered to a dataflow graph."""


class DFGError(ReproError):
    """Malformed dataflow graph or illegal DFG operation."""


class ArchError(ReproError):
    """Inconsistent architecture description (fabric, NoC, memory)."""


class PnRError(ReproError):
    """Place-and-route failure (no legal placement or unroutable design)."""


class RoutingError(PnRError):
    """The router could not route all nets within track capacity."""


class PlacementError(PnRError):
    """No legal placement exists (e.g. more memory nodes than LS PEs)."""


class PnRVerifyError(ReproError):
    """PnR contradicts its own reference; names what is wrong.

    Raised by the independent verifier (:mod:`repro.check.pnr`) and by
    the placer's and router's ``check`` modes. Deliberately *not* a
    :class:`PnRError`: the degree search, the mem-scale loop and the
    sweep's PnR retry read that as "does not fit" and back off, which
    would hide a wrong answer behind a smaller right one.
    """

    def __init__(
        self, message: str, *, net=None, channel=None, field=None, node=None
    ):
        super().__init__(message)
        self.node = node
        self.net = net
        self.channel = channel
        self.field = field


class SimulationError(ReproError):
    """The timed simulator reached an illegal state."""


class DeadlockError(SimulationError):
    """No forward progress while tokens remain in flight."""


class ExperimentError(ReproError):
    """Experiment harness misconfiguration."""


class ValidationError(ReproError):
    """A simulated run computed the wrong answer.

    Carries enough context (workload, output array, index, got/want) for
    the sweep supervisor to classify wrong-answer runs separately from
    infrastructure failures — a reference mismatch is a *correctness*
    bug, never something a retry can fix.
    """

    def __init__(
        self,
        message: str,
        *,
        workload: str | None = None,
        array: str | None = None,
        index: int | None = None,
        got=None,
        want=None,
    ):
        super().__init__(message)
        self.workload = workload
        self.array = array
        self.index = index
        self.got = got
        self.want = want


class JobTimeout(ReproError):
    """A supervised sweep job exceeded its per-job wall-clock budget."""


class SnapshotError(ReproError):
    """A simulation snapshot could not be written, read, or resumed.

    Covers torn files (a crash between write and rename), checksum or
    version mismatches, a config digest that does not match the resuming
    run, and double-resume of a single-use snapshot. Deliberately *not* a
    :class:`SimulationError`: a bad snapshot says nothing about the
    simulated machine, and the sweep supervisor must never classify it
    as a deterministic simulation failure.
    """


class SimulationPreempted(ReproError):
    """A run was preempted cooperatively after writing a snapshot.

    Raised by the engine's checkpoint boundary when a watchdog requested
    preemption (SIGTERM/SIGINT, wall-clock budget, cycle budget). The
    snapshot named by :attr:`snapshot_path` holds the complete machine
    state at :attr:`cycle`; resuming from it continues bit-identically.
    Not a :class:`SimulationError` — preemption is scheduling, not a
    property of the simulated machine — so the sweep supervisor may
    retry it (and the retry resumes from the snapshot).
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "preempted",
        snapshot_path: str | None = None,
        cycle: int | None = None,
    ):
        super().__init__(message)
        #: Supervisor taxonomy bucket: ``"preempted"`` (signal / cycle
        #: budget) or ``"timeout"`` (the grace path of a job timeout).
        self.kind = kind
        self.snapshot_path = snapshot_path
        self.cycle = cycle

    def __reduce__(self):
        # Keyword-only attributes are not captured by ``self.args``, so
        # the default exception reduce would drop them when a process
        # pool pickles the exception back to the supervisor.
        return (
            _rebuild_preempted,
            (str(self), self.kind, self.snapshot_path, self.cycle),
        )


def _rebuild_preempted(message, kind, snapshot_path, cycle):
    return SimulationPreempted(
        message, kind=kind, snapshot_path=snapshot_path, cycle=cycle
    )
