"""The independent routing verifier refuses wrong artifacts by name."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, SimParams
from repro.check.oracle import check_workload
from repro.check.pnr import (
    ChannelCapacityError,
    DerivedFieldError,
    HopCountError,
    NetTreeError,
    PnRVerifyError,
    verify_routing,
)
from repro.errors import PnRError
from repro.pnr.flow import compile_once
from repro.pnr.netlist import build_netlist
from repro.workloads.registry import make_workload

#: Two tracks: after negotiation some channels are exactly full.
ARCH = ArchParams(noc_tracks=2)


@pytest.fixture(scope="module")
def routed():
    kernel = make_workload("tc", scale="tiny", seed=0).kernel
    compiled = compile_once(kernel, monaco(12, 12), ARCH, parallelism=1)
    verify_routing(compiled, ARCH)
    return compiled


@pytest.fixture
def artifact(routed):
    """A private copy of the routed artifact, free to corrupt."""
    return dataclasses.replace(
        routed,
        routing=copy.deepcopy(routed.routing),
        placement=dict(routed.placement),
    )


def _tree_cells(artifact, index) -> set:
    """The cells net ``index``'s tree touches, its source's included."""
    src = build_netlist(artifact.dfg).nets[index].src
    return {artifact.placement[src]} | {
        dst for _, dst, _ in artifact.routing.net_channels[index]
    }


def test_an_over_capacity_channel_is_refused_by_name(artifact):
    """A full channel given to one more net, as a new leaf of its tree."""
    trees = artifact.routing.net_channels
    use: dict = {}
    for channels in trees.values():
        for channel in channels:
            use[channel] = use.get(channel, 0) + 1
    index, extra = next(
        (index, channel)
        for index in sorted(trees)
        for channel in sorted(use)
        if use[channel] == ARCH.noc_tracks
        and channel[0] in _tree_cells(artifact, index)
        and channel[1] not in _tree_cells(artifact, index)
    )
    trees[index].add(extra)
    with pytest.raises(ChannelCapacityError, match="carries 3 nets") as caught:
        verify_routing(artifact, ARCH)
    assert caught.value.channel == extra and str(extra) in str(caught.value)


def test_a_severed_net_is_refused_by_name(artifact):
    """The channel entering one sink's cell, removed."""
    index, hops = max(
        artifact.routing.sink_hops.items(), key=lambda item: max(item[1].values())
    )
    sink = max(hops, key=hops.get)
    cell = artifact.placement[sink]
    channels = artifact.routing.net_channels[index]
    channels.remove(next(c for c in channels if c[1] == cell))
    with pytest.raises(NetTreeError, match=f"net {index}: ") as caught:
        verify_routing(artifact, ARCH)
    assert caught.value.net == index


def test_an_orphan_channel_is_refused_by_name(artifact):
    """A channel that touches nothing the source reaches."""
    index, channels = next(iter(artifact.routing.net_channels.items()))
    cells = _tree_cells(artifact, index)
    orphan = next(
        ((x, y), (x + 1, y), "cardinal")
        for x in range(11)
        for y in range(12)
        if (x, y) not in cells and (x + 1, y) not in cells
    )
    channels.add(orphan)
    with pytest.raises(NetTreeError, match="not connected") as caught:
        verify_routing(artifact, ARCH)
    assert (caught.value.net, caught.value.channel) == (index, orphan)


def test_a_wrong_hop_count_is_refused_by_name(artifact):
    index, hops = next(iter(artifact.routing.sink_hops.items()))
    sink = next(iter(hops))
    hops[sink] += 1.0
    with pytest.raises(HopCountError, match=rf"sink_hops\[{sink}\]") as caught:
        verify_routing(artifact, ARCH)
    assert (caught.value.net, caught.value.field) == (index, "sink_hops")


@pytest.mark.parametrize(
    "owner,field,wrong",
    [
        ("timing", "clock_divider", lambda v: v + 1),
        ("timing", "max_hops", lambda v: v - 1.0),
        ("routing", "max_hops", lambda v: v + 2.0),
    ],
)
def test_a_wrong_derived_field_is_refused_by_name(artifact, owner, field, wrong):
    report = getattr(artifact, owner)
    setattr(
        artifact, owner,
        dataclasses.replace(report, **{field: wrong(getattr(report, field))}),
    )
    with pytest.raises(DerivedFieldError, match=f"{owner}.{field} is") as caught:
        verify_routing(artifact, ARCH)
    assert caught.value.field == field


def test_capacity_is_read_off_the_architecture(routed):
    """The same artifact under one track, and under the track model."""
    with pytest.raises(ChannelCapacityError, match="capacity 1"):
        verify_routing(routed, ArchParams(noc_tracks=1))
    kernel = make_workload("tc", scale="tiny", seed=0).kernel
    tracked = ArchParams(noc_model="monaco-tracks")
    compiled = compile_once(kernel, monaco(12, 12), tracked, parallelism=1)
    verify_routing(compiled, tracked)
    kinds = {c[2] for t in compiled.routing.net_channels.values() for c in t}
    assert kinds == {"cardinal", "diagonal", "skip"}
    with pytest.raises(ChannelCapacityError, match="does not exist"):
        verify_routing(compiled, ArchParams())


def test_a_verify_error_is_not_a_pnr_error():
    """``compile_kernel``'s degree search swallows PnRError as 'too big'."""
    assert not issubclass(PnRVerifyError, PnRError)


def test_check_compiles_and_the_oracle_call_the_verifier(monkeypatch):
    """``arch.sim.check`` verifies the winning candidate; so does the
    conformance oracle behind ``repro check --all``."""
    import repro.check.oracle as oracle_mod
    import repro.check.pnr as pnr_mod

    seen = []

    def spy(compiled, arch):
        seen.append(compiled.dfg.name)
        verify_routing(compiled, arch)

    monkeypatch.setattr(pnr_mod, "verify_routing", spy)
    monkeypatch.setattr(oracle_mod, "verify_routing", spy)
    kernel = make_workload("dmv", scale="tiny", seed=0).kernel
    compile_once(kernel, monaco(12, 12), ArchParams(), parallelism=1)
    assert seen == []
    checked = ArchParams(sim=SimParams(check=True))
    compile_once(kernel, monaco(12, 12), checked, parallelism=1)
    assert len(seen) == 1
    # The oracle compiles checked (each degree's winner verified) or hits
    # the cache; either way it verifies the artifact it certifies itself.
    assert check_workload("dmv").ok
    before = len(seen)
    assert check_workload("dmv").ok
    assert len(seen) == before + 1


def test_a_failed_self_check_is_not_read_as_a_non_fit(monkeypatch):
    """The degree search stops on a wrong answer instead of backing off.

    From degree 3 up the router's lower bound is doubled, so a checked
    compile's bounded search disagrees with its unbounded one there. Read
    as "does not fit", that returned the degree-2 artifact of a kernel
    whose healthy search settles on 4, with no error at all.
    """
    import repro.pnr.flow as flow
    from repro.pnr.flow import compile_kernel

    degree = []
    real_once, real_graph = flow.compile_once, flow.build_channel_graph

    def once(kernel, fabric, arch, policy, parallelism, *rest):
        degree.append(parallelism)
        return real_once(kernel, fabric, arch, policy, parallelism, *rest)

    def graph(*args):
        channels = real_graph(*args)
        if degree[-1] >= 3:
            channels.lower_x = [[2 * b for b in r] for r in channels.lower_x]
            channels.lower_y = [[2 * b for b in r] for r in channels.lower_y]
        return channels

    monkeypatch.setattr(flow, "compile_once", once)
    monkeypatch.setattr(flow, "build_channel_graph", graph)
    kernel = make_workload("dmv", scale="tiny", seed=0).kernel
    checked = ArchParams(sim=SimParams(check=True))
    with pytest.raises(PnRVerifyError, match=r"^net \d+: ") as caught:
        compile_kernel(kernel, monaco(12, 12), checked)
    assert caught.value.net is not None
    assert degree == [1, 2, 3]
