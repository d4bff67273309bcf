"""Unit tests for the Table 1 workloads and their input generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, ValidationError
from repro.ir.interp import run_kernel
from repro.workloads.data import (
    bit_reverse_permutation,
    csr_to_dense,
    random_csr,
    random_graph_csr,
    random_sparse_vector,
    transpose_csr,
    twiddle_factors,
)
from repro.workloads.dsp import fft_matches_numpy
from repro.workloads.registry import ALL_WORKLOADS, make_workload


class TestRegistry:
    def test_all_thirteen_present(self):
        assert len(ALL_WORKLOADS) == 13
        assert set(ALL_WORKLOADS) == {
            "dmv", "jacobi2d", "heat3d", "spmv", "spmspm", "spmspv",
            "spadd", "tc", "mergesort", "fft", "ad", "ic", "vww",
        }

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError, match="unknown workload"):
            make_workload("quicksort")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ReproError, match="unknown scale"):
            make_workload("dmv", scale="huge")

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_metadata_populated(self, name):
        inst = make_workload(name, scale="tiny")
        assert inst.meta.get("category")
        assert inst.meta.get("table1")
        assert inst.outputs

    def test_seed_changes_data(self):
        a = make_workload("dmv", scale="tiny", seed=0)
        b = make_workload("dmv", scale="tiny", seed=99)
        assert a.arrays["A"] != b.arrays["A"]

    def test_same_seed_is_deterministic(self):
        a = make_workload("spmspv", scale="tiny", seed=3)
        b = make_workload("spmspv", scale="tiny", seed=3)
        assert a.arrays == b.arrays
        assert a.reference == b.reference


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_ir_interpreter_matches_reference(name):
    inst = make_workload(name, scale="tiny")
    memory = run_kernel(inst.kernel, inst.params, inst.arrays)
    inst.check(memory)


def test_check_reports_mismatches():
    inst = make_workload("dmv", scale="tiny")
    wrong = {name: list(ref) for name, ref in inst.reference.items()}
    wrong["y"][0] += 1
    with pytest.raises(ReproError, match="y\\[0\\]"):
        inst.check(wrong)


def test_check_names_a_missing_output():
    inst = make_workload("dmv", scale="tiny")
    memory = {name: list(ref) for name, ref in inst.reference.items()}
    del memory["y"]
    with pytest.raises(
        ValidationError, match=r"^dmv: output 'y' length None != \d+$"
    ) as caught:
        inst.check(memory)
    assert (caught.value.array, caught.value.got) == ("y", None)


def test_fft_reference_agrees_with_numpy():
    inst = make_workload("fft", scale="tiny")
    assert fft_matches_numpy(inst)


def test_paper_scale_instantiable():
    # Table 1 sizes build real kernels (simulating them is impractical in
    # Python, but the inputs exist and fit the 8MB memory).
    inst = make_workload("dmv", scale="paper")
    assert len(inst.arrays["A"]) == 1024 * 1024


class TestGenerators:
    @given(
        nrows=st.integers(1, 20),
        ncols=st.integers(1, 20),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_csr_wellformed(self, nrows, ncols, density, seed):
        pos, crd, val = random_csr(nrows, ncols, density, seed)
        assert len(pos) == nrows + 1
        assert pos[0] == 0 and pos[-1] == len(crd) == len(val)
        assert pos == sorted(pos)
        for r in range(nrows):
            cols = crd[pos[r]:pos[r + 1]]
            assert cols == sorted(cols)
            assert len(set(cols)) == len(cols)
            assert all(0 <= c < ncols for c in cols)

    @given(
        length=st.integers(1, 50),
        density=st.floats(0.01, 1.0),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_sparse_vector_sorted_unique(self, length, density, seed):
        coords, values = random_sparse_vector(length, density, seed)
        assert coords == sorted(coords)
        assert len(set(coords)) == len(coords)
        assert len(coords) == len(values) >= 1

    @given(nodes=st.integers(2, 16), seed=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_graph_csr_symmetric_no_self_loops(self, nodes, seed):
        pos, crd = random_graph_csr(nodes, 0.4, seed)
        neighbors = [
            set(crd[pos[u]:pos[u + 1]]) for u in range(nodes)
        ]
        for u in range(nodes):
            assert u not in neighbors[u]
            for v in neighbors[u]:
                assert u in neighbors[v]

    def test_transpose_csr_roundtrip(self):
        pos, crd, val = random_csr(6, 9, 0.4, seed=2)
        tpos, tcrd, tval = transpose_csr(pos, crd, val, 6, 9)
        dense = csr_to_dense(pos, crd, val, 6, 9)
        tdense = csr_to_dense(tpos, tcrd, tval, 9, 6)
        for r in range(6):
            for c in range(9):
                assert dense[r][c] == tdense[c][r]

    def test_bit_reverse_is_involution(self):
        for n in (2, 8, 16, 64):
            rev = bit_reverse_permutation(n)
            assert sorted(rev) == list(range(n))
            assert all(rev[rev[i]] == i for i in range(n))

    def test_bit_reverse_requires_power_of_two(self):
        with pytest.raises(ReproError):
            bit_reverse_permutation(12)

    def test_twiddles_on_unit_circle(self):
        wre, wim = twiddle_factors(16)
        assert len(wre) == 8
        assert wre[0] == pytest.approx(1.0)
        assert wim[0] == pytest.approx(0.0)
        for re, im in zip(wre, wim):
            assert re * re + im * im == pytest.approx(1.0)
            assert im <= 1e-12  # exp(-i theta), theta in [0, pi)
