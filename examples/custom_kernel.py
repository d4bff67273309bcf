"""Bring your own kernel: a pointer-chasing workload on NUPEA.

Linked-list traversal is the textbook critical-load pattern: every next
pointer load gates the next iteration, so its latency is the loop's
initiation interval. This example defines the kernel from scratch with
:class:`KernelBuilder`, validates it against a Python reference, and shows
NUPEA recovering most of the latency an UPEA design would add.

Run with::

    python examples/custom_kernel.py
"""

import random

from repro import (
    ArchParams,
    KernelBuilder,
    UniformFrontend,
    compile_kernel,
    format_report,
    monaco,
    simulate,
)


def build_list_rank(n: int):
    """Walk ``steps`` links of a list, summing payloads along the way."""
    b = KernelBuilder("list_rank", params=["steps"])
    nxt = b.array("next", n)
    payload = b.array("payload", n)
    out = b.array("out", 2)
    cursor = b.let("cursor", 0)
    total = b.let("total", 0)
    i = b.let("i", 0)
    with b.while_(i < b.p.steps):
        total_new = total + payload.load(cursor)
        b.set(total, total_new)
        b.set(cursor, nxt.load(cursor, "link"))  # the critical load
        b.set(i, i + 1)
    out.store(0, cursor)
    out.store(1, total)
    return b.build()


def random_permutation_list(n: int, seed: int):
    rng = random.Random(seed)
    order = list(range(1, n))
    rng.shuffle(order)
    order = [0] + order
    nxt = [0] * n
    for pos in range(n):
        nxt[order[pos]] = order[(pos + 1) % n]
    payload = [rng.randint(1, 9) for _ in range(n)]
    return nxt, payload


def reference(nxt, payload, steps):
    cursor, total = 0, 0
    for _ in range(steps):
        total += payload[cursor]
        cursor = nxt[cursor]
    return cursor, total


def main():
    n, steps = 256, 200
    nxt, payload = random_permutation_list(n, seed=7)
    kernel = build_list_rank(n)
    arch = ArchParams()
    compiled = compile_kernel(kernel, monaco(12, 12), arch)
    print(compiled.summary())
    print(format_report(compiled.dfg, compiled.criticality))

    params = {"steps": steps}
    arrays = {"next": nxt, "payload": payload}
    want_cursor, want_total = reference(nxt, payload, steps)

    nupea = simulate(compiled, params, arrays, arch, divider=2)
    assert nupea.memory["out"] == [want_cursor, want_total]
    upea2 = simulate(
        compiled, params, arrays, arch, divider=2,
        frontend_factory=lambda f, a: UniformFrontend(4),
    )
    print(
        f"\nNUPEA:  {nupea.stats.system_cycles} cycles "
        f"(II-critical load latency "
        f"{nupea.stats.load_latency['A'].mean:.1f})"
    )
    print(
        f"UPEA2:  {upea2.stats.system_cycles} cycles "
        f"({upea2.stats.system_cycles / nupea.stats.system_cycles:.2f}x "
        "slower — every added cycle lands on the recurrence)"
    )


if __name__ == "__main__":
    main()
