"""Cross-check workload references against independent implementations.

The reference outputs packaged with each workload are computed in plain
Python; these tests recompute them with numpy / scipy / networkx so a bug
in the hand-rolled reference cannot silently validate a matching bug in
the kernel.
"""

import numpy as np
import pytest

from repro.workloads.data import csr_to_dense
from repro.workloads.registry import make_workload


def as_np(values):
    return np.array(values, dtype=np.int64)


def test_dmv_matches_numpy():
    inst = make_workload("dmv", scale="small")
    n, m = inst.params["n"], inst.params["m"]
    a = as_np(inst.arrays["A"]).reshape(n, m)
    x = as_np(inst.arrays["x"])
    assert (a @ x).tolist() == inst.reference["y"]


def test_spmv_matches_numpy():
    inst = make_workload("spmv", scale="small")
    n = inst.params["n"]
    dense = as_np(
        sum(
            csr_to_dense(
                inst.arrays["pos"], inst.arrays["crd"],
                inst.arrays["val"], n, n,
            ),
            [],
        )
    ).reshape(n, n)
    x = as_np(inst.arrays["x"])
    assert (dense @ x).tolist() == inst.reference["y"]


def test_spmspv_matches_scipy():
    scipy_sparse = pytest.importorskip("scipy.sparse")
    inst = make_workload("spmspv", scale="small")
    n = inst.params["n"]
    matrix = scipy_sparse.csr_matrix(
        (
            inst.arrays["val"],
            inst.arrays["crd"],
            inst.arrays["pos"],
        ),
        shape=(n, n),
    )
    vector = np.zeros(n, dtype=np.int64)
    for c, v in zip(inst.arrays["vcrd"], inst.arrays["vval"]):
        vector[c] = v
    assert (matrix @ vector).tolist() == inst.reference["D"]


def test_spmspm_matches_numpy():
    inst = make_workload("spmspm", scale="small")
    n = inst.params["n"]
    a = as_np(
        sum(
            csr_to_dense(
                inst.arrays["apos"], inst.arrays["acrd"],
                inst.arrays["aval"], n, n,
            ),
            [],
        )
    ).reshape(n, n)
    bt = as_np(
        sum(
            csr_to_dense(
                inst.arrays["tpos"], inst.arrays["tcrd"],
                inst.arrays["tval"], n, n,
            ),
            [],
        )
    ).reshape(n, n)
    assert (a @ bt.T).reshape(-1).tolist() == inst.reference["C"]


def test_spadd_matches_numpy():
    inst = make_workload("spadd", scale="small")
    n = inst.params["n"]
    a = as_np(
        sum(
            csr_to_dense(
                inst.arrays["apos"], inst.arrays["acrd"],
                inst.arrays["aval"], n, n,
            ),
            [],
        )
    )
    b = as_np(
        sum(
            csr_to_dense(
                inst.arrays["bpos"], inst.arrays["bcrd"],
                inst.arrays["bval"], n, n,
            ),
            [],
        )
    )
    assert (a + b).tolist() == inst.reference["C"]


def test_jacobi2d_matches_numpy_stencil():
    inst = make_workload("jacobi2d", scale="small")
    n, pairs = inst.params["n"], inst.params["pairs"]
    a = as_np(inst.arrays["A"]).reshape(n, n)
    b = np.zeros_like(a)

    def sweep(src, dst):
        total = (
            src[1:-1, 1:-1]
            + src[:-2, 1:-1]
            + src[2:, 1:-1]
            + src[1:-1, :-2]
            + src[1:-1, 2:]
        )
        dst[1:-1, 1:-1] = total // 5  # non-negative: floor == trunc

    for _ in range(pairs):
        sweep(a, b)
        sweep(b, a)
    assert a.reshape(-1).tolist() == inst.reference["A"]
    assert b.reshape(-1).tolist() == inst.reference["B"]


def test_heat3d_matches_numpy_stencil():
    inst = make_workload("heat3d", scale="small")
    n, pairs = inst.params["n"], inst.params["pairs"]
    a = as_np(inst.arrays["A"]).reshape(n, n, n)
    b = np.zeros_like(a)

    def sweep(src, dst):
        core = src[1:-1, 1:-1, 1:-1]
        total = (
            2 * core
            + src[:-2, 1:-1, 1:-1]
            + src[2:, 1:-1, 1:-1]
            + src[1:-1, :-2, 1:-1]
            + src[1:-1, 2:, 1:-1]
            + src[1:-1, 1:-1, :-2]
            + src[1:-1, 1:-1, 2:]
        )
        dst[1:-1, 1:-1, 1:-1] = total // 8

    for _ in range(pairs):
        sweep(a, b)
        sweep(b, a)
    assert a.reshape(-1).tolist() == inst.reference["A"]


def test_tc_matches_networkx():
    nx = pytest.importorskip("networkx")
    inst = make_workload("tc", scale="small")
    nodes = inst.params["n"]
    pos, crd = inst.arrays["pos"], inst.arrays["crd"]
    graph = nx.Graph()
    graph.add_nodes_from(range(nodes))
    for u in range(nodes):
        for k in range(pos[u], pos[u + 1]):
            graph.add_edge(u, crd[k])
    expected_total = sum(nx.triangles(graph).values()) // 3
    assert sum(inst.reference["counts"]) == expected_total


def test_mergesort_matches_sorted():
    inst = make_workload("mergesort", scale="small")
    n = inst.params["n"]
    assert inst.reference["buf"][:n] == sorted(inst.arrays["buf"][:n])


def test_fft_matches_numpy():
    inst = make_workload("fft", scale="small")
    signal = np.array(inst.arrays["xre"]) + 1j * np.array(
        inst.arrays["xim"]
    )
    expected = np.fft.fft(signal)
    got = np.array(inst.reference["re"]) + 1j * np.array(
        inst.reference["im"]
    )
    assert np.allclose(got, expected, atol=1e-9)


def test_ic_conv_matches_scipy():
    correlate = pytest.importorskip("scipy.signal").correlate
    inst = make_workload("ic", scale="small")
    hw = inst.params["hw"]
    cin, cout = inst.params["cin"], inst.params["cout"]
    oh = hw - 2
    x = as_np(inst.arrays["X"]).reshape(cin, hw, hw)
    w = as_np(inst.arrays["W"]).reshape(cout, cin, 3, 3)
    bias = as_np(inst.arrays["bias"])
    conv = np.zeros((cout, oh, oh), dtype=np.int64)
    for oc in range(cout):
        acc = np.zeros((oh, oh), dtype=np.int64)
        for ci in range(cin):
            acc += correlate(x[ci], w[oc, ci], mode="valid").astype(
                np.int64
            )
        conv[oc] = np.maximum(acc + bias[oc], 0)
    assert conv.reshape(-1).tolist() == inst.reference["conv"]


def test_ad_matches_numpy():
    inst = make_workload("ad", scale="small")
    nin, nh = inst.params["nin"], inst.params["nh"]
    x = as_np(inst.arrays["x"])
    w1 = as_np(inst.arrays["W1"]).reshape(nh, nin)
    b1 = as_np(inst.arrays["b1"])
    w2 = as_np(inst.arrays["W2"]).reshape(nin, nh)
    b2 = as_np(inst.arrays["b2"])
    hidden = np.maximum(w1 @ x + b1, 0)
    assert (w2 @ hidden + b2).tolist() == inst.reference["y"]


def test_vww_matches_numpy():
    correlate = pytest.importorskip("scipy.signal").correlate
    inst = make_workload("vww", scale="small")
    hw, ch = inst.params["hw"], inst.params["ch"]
    cout, classes = inst.params["cout"], inst.params["classes"]
    oh = hw - 2
    area = oh * oh
    x = as_np(inst.arrays["X"]).reshape(ch, hw, hw)
    dw = as_np(inst.arrays["DW"]).reshape(ch, 3, 3)
    pw = as_np(inst.arrays["PW"]).reshape(cout, ch)
    fcw = as_np(inst.arrays["FCW"]).reshape(classes, cout * area)
    dwo = np.stack(
        [
            np.maximum(
                correlate(x[c], dw[c], mode="valid").astype(np.int64), 0
            )
            for c in range(ch)
        ]
    ).reshape(ch, area)
    pwo = np.maximum(pw @ dwo, 0).reshape(cout * area)
    assert (fcw @ pwo).tolist() == inst.reference["out"]
