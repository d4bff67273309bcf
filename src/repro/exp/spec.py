"""One sweep point as one frozen object.

The paper's evaluation (Sec. 6) has one shape: compile a kernel once,
simulate it under each interconnect config and seed. :class:`RunSpec`
names one point of that sweep; everything that identifies a point —
its journal digest, its snapshot file, its compile-cache key — is read
off the spec through two declared field subsets:

* the **point subset** (:meth:`RunSpec.point_fields`, the columns
  :data:`repro.obs.manifest.POINT_FIELDS`): what is known before the
  point runs and changes what it measures;
* the **compile subset** (:func:`compile_key`): what
  ``pnr/flow.py::compile_once`` reads and therefore what distinguishes
  one PnR artifact from another.

:class:`repro.exp.resilient.SweepEnv` is the rest of what a job needs
— where the cache lives, the sweep's policy, snapshot settings — and is
deliberately *not* identity: moving a sweep to another cache directory
changes no digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass

from repro.arch.clocks import PAPER_DIVIDER
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC
from repro.exp.configs import MachineConfig
from repro.obs.manifest import ARCH_COMPILE_FIELDS, point_digest

#: ``(topology, rows, cols)``, optionally followed by Monaco's two
#: LS-placement axes ``(domain_width, ls_row_stride)`` — the picklable
#: stand-in for a Fabric (:func:`repro.arch.fabric.build_fabric` takes
#: it unpacked).
FabricSpec = tuple

DEFAULT_FABRIC_SPEC: FabricSpec = ("monaco", 12, 12)


def _column(value):
    """A point-identity value as JSON: a params dataclass as its dict."""
    return asdict(value) if is_dataclass(value) else value


def weight_map_digest(node_weights) -> str:
    """Stable 16-hex digest of a per-node weight map (or its pairs)."""
    payload = json.dumps(
        {str(int(n)): float(w) for n, w in dict(node_weights).items()},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def compile_key(
    workload: str,
    sizes,
    fabric,
    arch: ArchParams,
    policy: str,
    parallelism: int | None,
    seed: int,
    profile_guided: bool,
    node_weights,
    mem_mode: str,
) -> tuple:
    """The compile subset as a hashable key: every input that changes
    the PnR artifact, each member always present (``None`` when off).

    ``sizes`` pins the kernel's problem sizes and ``fabric`` the target;
    ``seed`` is the *placement* seed. A profile-guided compile profiles
    the instance itself, which ``workload``/``sizes`` already name, so a
    marker is enough to keep refined and static artifacts apart, and a
    digest of ``node_weights``.
    """
    return (
        workload,
        sizes,
        fabric,
        *(getattr(arch, name) for name in ARCH_COMPILE_FIELDS),
        policy,
        parallelism,
        seed,
        "profile-guided" if profile_guided else None,
        weight_map_digest(node_weights) if node_weights else None,
        mem_mode,
    )


@dataclass(frozen=True)
class RunSpec:
    """One (workload, machine config, seed) point of a sweep."""

    workload: str
    config: MachineConfig
    scale: str = "small"
    #: Workload input seed; PnR places at it too.
    seed: int = 0
    arch: ArchParams = field(default_factory=ArchParams)
    #: Fabric clock divider to simulate at; None = the one the routed
    #: design achieved, never below :data:`PAPER_DIVIDER`
    #: (:func:`repro.exp.runner.run_point`).
    divider: int | None = PAPER_DIVIDER
    #: Placement policy, by name (see :func:`repro.core.policy.get_policy`).
    policy: str = EFFCC.name
    fabric: FabricSpec = DEFAULT_FABRIC_SPEC
    #: Refine class-B/C criticality by profiling the point's own
    #: instance before placement (:mod:`repro.core.profile`).
    profile_guided: bool = False
    #: Parallelism degree to compile at (None = PnR searches it).
    parallelism: int | None = None
    #: Memory-ordering lowering (``raw`` fences or ``serialize``).
    mem_mode: str = "raw"
    #: Per-node placement weights of a feedback round
    #: (:mod:`repro.exp.fdo`), as sorted ``(nid, weight)`` pairs.
    node_weights: tuple[tuple[int, float], ...] | None = None

    @property
    def key(self) -> tuple[str, str, int]:
        """The point's key in a sweep's result map."""
        return (self.workload, self.config.name, self.seed)

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.config.name}/seed{self.seed}"

    def point_fields(self) -> dict:
        """The point subset: the *pre-run* identity of this point, as
        the JSON-ready columns every manifest record carries.

        Everything here is known before the point executes (unlike the
        PnR-chosen ``parallelism`` of the record, so the requested one is
        ``requested_parallelism``), so the resume journal can match
        records against points it has not run yet. ``faults`` is the
        fault model's signature and ``profile`` the profile-guided
        marker, ``node_weights`` the weight map's digest; all three are
        ``None`` when off. The
        ``ArchParams`` fields PnR reads (``ARCH_COMPILE_FIELDS``, the
        list ``compile_key`` is built from) are columns too: a journal
        written under other ``noc_tracks`` / ``noc_model`` / ``timing``
        holds different artifacts' results. So are the simulator knobs
        that change the cycles (``memory``, ``fifo_capacity``,
        ``max_outstanding``). The probe switches
        (:data:`~repro.arch.params.PROBE_SWITCHES`) are bit-identical and
        stay out: :func:`~repro.exp.resilient.run_resilient` runs specs
        that differ only in them once.
        """
        sim = self.arch.sim
        faults = sim.faults
        return {
            "workload": self.workload,
            "config": self.config.name,
            "scale": self.scale,
            "seed": self.seed,
            "divider": self.divider,
            "fabric": list(self.fabric),
            "policy": self.policy,
            "faults": (
                faults.signature()
                if faults is not None and faults.active()
                else None
            ),
            "profile": "guided" if self.profile_guided else None,
            "requested_parallelism": self.parallelism,
            "mem_mode": self.mem_mode,
            "node_weights": weight_map_digest(self.node_weights)
            if self.node_weights else None,
            **{
                name: _column(getattr(self.arch, name))
                for name in ARCH_COMPILE_FIELDS
            },
            "memory": _column(self.arch.memory),
            "fifo_capacity": sim.fifo_capacity,
            "max_outstanding": sim.max_outstanding,
        }

    def point_digest(self) -> str:
        """Journal digest of this point; also names its snapshot file."""
        return point_digest(self.point_fields())

    @property
    def compile_key(self) -> tuple:
        """The compile subset before the workload is instantiated.

        Built by the cache's own :func:`compile_key`, with
        ``(scale, seed)`` standing in for the instance's sizes and the
        fabric spec for the built fabric — so two specs with equal keys
        here always reach the same cache entry, which is what lets the
        pooled dispatcher compile each key once.
        """
        return compile_key(
            self.workload,
            (self.scale, self.seed),
            self.fabric,
            self.arch,
            self.policy,
            self.parallelism,
            self.seed,
            self.profile_guided,
            self.node_weights,
            self.mem_mode,
        )


def sweep_specs(workloads, configs, seeds=(0,), **fields) -> list[RunSpec]:
    """The (workload x config x seed) product in sweep order; ``fields``
    are the :class:`RunSpec` fields every point shares."""
    return [
        RunSpec(name, config, seed=seed, **fields)
        for name in workloads
        for config in configs
        for seed in seeds
    ]
