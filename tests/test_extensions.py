"""Tests for the extension features: Monaco variants, DSE, hybrid NUMA+NUPEA."""

import shlex

import pytest

from repro.arch.fabric import monaco, monaco_variant
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC
from repro.errors import ArchError
from repro.pnr.flow import compile_once
from repro.sim.engine import simulate
from repro.sim.hybrid import HybridFrontend
from repro.sim.upea import UniformFrontend

from kernels import zoo_instance


class TestMonacoVariant:
    def test_default_variant_is_monaco(self):
        variant = monaco_variant(12, 12, domain_width=3, ls_row_stride=2)
        reference = monaco(12, 12)
        assert len(variant.ls_pes()) == len(reference.ls_pes())
        assert variant.n_ports == reference.n_ports
        assert [d.columns for d in variant.domains] == [
            d.columns for d in reference.domains
        ]

    def test_domain_width_sets_ports(self):
        narrow = monaco_variant(12, 12, domain_width=1)
        wide = monaco_variant(12, 12, domain_width=4)
        assert narrow.n_ports == 6  # one direct port per LS row
        assert wide.n_ports == 24
        assert len(narrow.domains) == 12
        assert len(wide.domains) == 3

    def test_ls_row_stride(self):
        sparse = monaco_variant(12, 12, ls_row_stride=3)
        assert len(sparse.ls_rows()) == 4
        dense = monaco_variant(12, 12, ls_row_stride=1)
        assert len(dense.ls_rows()) == 12

    def test_invalid_params(self):
        with pytest.raises(ArchError):
            monaco_variant(12, 12, domain_width=0)
        with pytest.raises(ArchError):
            monaco_variant(13, 12, ls_row_stride=2)

    def test_variant_compiles_and_runs(self):
        kernel, params, arrays = zoo_instance("join")
        arch = ArchParams()
        fabric = monaco_variant(12, 12, domain_width=2)
        compiled = compile_once(kernel, fabric, arch, EFFCC, parallelism=1)
        result = simulate(compiled, params, arrays, arch)
        assert result.memory["O"] == [3]


class TestHybridFrontend:
    def run_with(self, frontend_factory):
        kernel, params, arrays = zoo_instance("join")
        arch = ArchParams()
        compiled = compile_once(
            kernel, monaco(12, 12), arch, EFFCC, parallelism=1
        )
        return simulate(
            compiled, params, arrays, arch,
            frontend_factory=frontend_factory, divider=2,
        )

    def test_results_correct(self):
        result = self.run_with(
            lambda f, a: HybridFrontend(f, a, remote_cycles=2)
        )
        assert result.memory["O"] == [3]
        assert result.stats.frontend == "monaco-numa"

    def test_local_and_remote_accounted(self):
        frontends = []

        def factory(fabric, amap):
            fe = HybridFrontend(fabric, amap, remote_cycles=2)
            frontends.append(fe)
            return fe

        self.run_with(factory)
        fe = frontends[0]
        assert fe.local_accesses + fe.remote_accesses > 0

    def test_spatial_assignment_groups_rows(self):
        from repro.arch.memory import AddressMap
        from repro.arch.params import MemoryParams

        fabric = monaco(12, 12)
        amap = AddressMap({"a": 64}, MemoryParams())
        fe = HybridFrontend(fabric, amap)
        rows = fabric.ls_rows()
        regions = [fe.row_region[r] for r in rows]
        assert regions == sorted(regions)  # spatial, not random
        assert set(regions) <= {0, 1, 2, 3}

    def test_remote_penalty_bounded_by_upea(self):
        hybrid = self.run_with(
            lambda f, a: HybridFrontend(f, a, remote_cycles=4)
        )
        upea = self.run_with(lambda f, a: UniformFrontend(4))
        # Hybrid pays the penalty only on remote accesses and only after
        # NUPEA got critical loads to the ports quickly.
        assert hybrid.stats.system_cycles <= upea.stats.system_cycles * 1.3


class TestDSE:
    def test_dse_produces_grid(self):
        from repro.exp.figures import Grid, dse_ls_placement, run_figures

        result = run_figures(
            {"dse": dse_ls_placement(widths=(2, 3), strides=(2,))},
            Grid(scale="tiny", workloads=("spmspv",)),
        )["dse"]
        row = result.rows["spmspv"]
        assert set(row) == {"w2/s2", "w3/s2"}
        assert all(v > 0 for v in row.values())


class TestCLI:
    def test_workloads_command(self, capsys):
        from repro.cli import main

        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "spmspv" in out

    def test_fabric_command(self, capsys):
        from repro.cli import main

        assert main(["fabric", "monaco", "--rows", "8", "--cols", "8"]) == 0
        assert "|mem" in capsys.readouterr().out

    def test_table1_command(self, capsys):
        from repro.cli import main

        assert main(["figure", "table1", "--scale", "tiny"]) == 0
        assert "mergesort" in capsys.readouterr().out

    def test_run_command(self, capsys):
        from repro.cli import main

        code = main(
            ["run", "spmv", "--scale", "tiny", "--config", "upea2",
             "--criticality"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "output verified" in out
        assert "class" in out

    def test_figure_command(self, capsys):
        from repro.cli import main

        code = main(
            ["figure", "fig12", "--scale", "tiny", "--workloads", "spmv"]
        )
        assert code == 0
        assert "effcc" in capsys.readouterr().out

    @pytest.mark.parametrize("names", [[], ["nope"], ["dmv", "nope"]])
    def test_sweep_rejects_empty_and_unknown_workloads_at_parse_time(
        self, names, capsys
    ):
        """Regression: an empty list died at ``max()`` after the sweep,
        an unknown name inside a worker."""
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["sweep", "--workloads", *names, "--scale", "tiny"])
        assert err.value.code == 2
        assert "--workloads" in capsys.readouterr().err

    def test_run_rejects_the_retired_naive_pnr_flag_at_parse_time(
        self, capsys
    ):
        """The reference PnR paths are the tests', not a user option."""
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["run", "dmv", "--scale", "tiny", "--naive-pnr"])
        assert err.value.code == 2
        assert "--naive-pnr" in capsys.readouterr().err
        # ...nor a keyword the sweep layer forwards: it fails at the call.
        from repro.exp.configs import MONACO
        from repro.exp.runner import compile_point
        from repro.exp.spec import RunSpec

        with pytest.raises(TypeError, match="incremental"):
            compile_point(RunSpec("dmv", MONACO, scale="tiny"), incremental=False)

    def test_bad_config_rejected(self):
        """``_config_for`` is the options' argparse ``type=``: it refuses
        by argparse's own error, which exits 2 with a usage line."""
        from argparse import ArgumentTypeError

        from repro.cli import _config_for

        for name in ("warp-drive", "upea-3", "numa-1"):
            with pytest.raises(ArgumentTypeError, match="unknown config"):
                _config_for(name)

    def test_config_parsing(self):
        from repro.cli import _config_for

        assert _config_for("monaco").kind == "monaco"
        assert _config_for("upea3").upea_fabric_cycles == 3
        assert _config_for("numa2").kind == "numa"
        assert _config_for("ideal").upea_fabric_cycles == 0

    def test_regions_command(self, capsys):
        from repro.cli import main

        code = main(
            ["regions", "ic", "--scale", "tiny", "--rows", "10",
             "--cols", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "region(s)" in out and "output verified" in out

    @pytest.mark.parametrize("name", ["upeax", "numa2x"])
    def test_malformed_config_is_a_usage_error(self, name, capsys):
        """Regression: a malformed delay raised a bare ValueError from
        ``int()`` out of ``run --config`` and ``sweep --configs``."""
        from repro.cli import main

        for argv in (
            ["run", "dmv", "--scale", "tiny", "--config", name],
            ["sweep", "--workloads", "dmv", "--configs", name],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert "unknown config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, names",
        [
            # Refused by the settings object that owns the value.
            ("sweep --workloads dmv --scale tiny --timeout 0", "job_timeout_s"),
            ("sweep --workloads dmv --scale tiny --retries -1", "max_retries"),
            ("sweep --workloads dmv --scale tiny --grace 0", "grace_s"),
            (
                "sweep --workloads dmv --scale tiny --checkpoint-every -5",
                "checkpoint_every",
            ),
            ("sweep --workloads dmv --scale tiny --backoff -1", "backoff_s"),
            (
                "sweep --workloads dmv --scale tiny --fault-mem-drop-prob 2",
                "mem_drop_prob",
            ),
            ("run dmv --scale tiny --checkpoint-every -5", "every_cycles"),
            # Refused by argparse itself.
            ("sweep --workloads dmv --scale tiny --configs", "argument --configs"),
            ("sweep --workloads dmv --scale tiny --seeds", "argument --seeds"),
            ("run dmv --scale huge", "argument --scale"),
            ("run dmv --scale tiny --config upea-3", "argument --config"),
            ("run dmv --scale tiny --critpath --top 0", "argument --top"),
            ("fdo dmv --scale tiny --rounds -1", "argument --rounds"),
            (
                "figure fig11 --scale tiny --workloads nosuch",
                "argument --workloads",
            ),
            ("check --fuzz -3", "argument --fuzz"),
        ],
    )
    def test_out_of_range_values_are_usage_errors(
        self, argv, names, capsys, monkeypatch
    ):
        """Regression: each of these ended in a traceback (some only
        after compiling), or in a run that did nothing and exited 0."""
        import importlib

        from repro import cli
        from repro.exp import fdo, resilient

        fuzz = importlib.import_module("repro.check.fuzz")

        def started(*args, **kwargs):
            raise AssertionError("started work before refusing the value")

        for module, name in (
            (cli, "compile_point"), (cli, "run_figures"),
            (resilient, "run_resilient"), (fdo, "run_fdo"), (fuzz, "fuzz"),
        ):
            monkeypatch.setattr(module, name, started)
        with pytest.raises(SystemExit) as err:
            cli.main(argv.split())
        assert err.value.code == 2
        error = capsys.readouterr().err
        assert error.startswith("usage: repro ")
        assert names in error

    def test_sweep_configs_default_to_built_configs(self):
        """Regression: argparse runs ``type=`` on string defaults only, so
        a default list of names reached the sweep as plain strings."""
        from repro.cli import build_parser
        from repro.exp.configs import MachineConfig

        configs = build_parser().parse_args(["sweep"]).configs
        assert [c.name for c in configs] == [
            "ideal", "upea2", "numa-upea2", "monaco"
        ]
        assert all(isinstance(c, MachineConfig) for c in configs)

    def test_sweep_policy_refuses_a_negative_backoff(self):
        from repro.errors import ExperimentError
        from repro.exp.resilient import SweepPolicy

        with pytest.raises(ExperimentError, match="backoff_s"):
            SweepPolicy(backoff_s=-1.0)

    def test_resume_command_repeats_the_probe_switches(self, tmp_path):
        from repro import cli
        from repro.sim.snapshot import CheckpointConfig

        argv = [
            "run", "spmspv", "--scale", "tiny", "--config", "numa2",
            "--trace", "--by-class", "--trace-path", str(tmp_path / "t.json"),
            "--critpath", "--critpath-json", str(tmp_path / "c.json"),
            "--top", "3",
        ]
        parser = cli.build_parser()
        original = parser.parse_args(argv)
        command = cli._resume_command(
            original, CheckpointConfig(path=str(tmp_path / "s.snap"))
        )
        resumed = parser.parse_args(shlex.split(command)[1:])
        for dest in (*cli._SIM_OPTIONS, *cli._PROBES):
            assert getattr(resumed, dest) == getattr(original, dest), dest

    def test_a_traced_run_resumes_bit_identically_through_its_hint(
        self, tmp_path, monkeypatch, capsys
    ):
        """Preempt a probed ``repro run``, then run the printed command:
        the probes' output, the trace and the report equal an
        uninterrupted run's (the snapshot's digest covers the probe
        switches, so a resume without them would be refused)."""
        import functools

        from repro import cli
        from repro.sim import snapshot

        def argv(tag):
            return [
                "run", "spmspv", "--scale", "tiny", "--trace", "--critpath",
                "--trace-path", str(tmp_path / f"{tag}.trace.json"),
                "--critpath-json", str(tmp_path / f"{tag}.crit.json"),
            ]

        def after_stats(out, tag):
            text = out[out.index("\nstats:"):]
            return text.replace(str(tmp_path / tag), "PATH")

        assert cli.main(argv("full")) == 0
        full = after_stats(capsys.readouterr().out, "full")

        snap = str(tmp_path / "victim.snap")
        real = snapshot.CheckpointConfig
        monkeypatch.setattr(
            snapshot, "CheckpointConfig",
            functools.partial(real, cycle_budget=60),
        )
        victim = [
            *argv("cut"), "--checkpoint", snap, "--checkpoint-every", "40"
        ]
        assert cli.main(victim) == 75
        (hint,) = [
            line[len("resume with: "):]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("resume with: ")
        ]
        monkeypatch.setattr(snapshot, "CheckpointConfig", real)
        assert cli.main(shlex.split(hint)[1:]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert after_stats(out, "cut") == full
        for suffix in ("trace.json", "crit.json"):
            assert (tmp_path / f"cut.{suffix}").read_bytes() == (
                tmp_path / f"full.{suffix}"
            ).read_bytes()

    def test_size_parsing(self):
        from repro.cli import _parse_size

        assert _parse_size("256M") == 256 << 20
        assert _parse_size("1.5k") == 1536
        assert _parse_size("0") == 0

    @pytest.mark.parametrize("size", ["-1M", "-1", "inf", "12Q"])
    def test_negative_or_unparsable_size_is_a_usage_error(self, size):
        """Regression: ``cache prune --max-size=-1M`` reached
        ``CompileCache.prune`` and surfaced its ValueError."""
        from repro.cli import _parse_size

        with pytest.raises(SystemExit, match="bad size"):
            _parse_size(size)

    def test_preemption_hint_resumes_the_same_run(
        self, tmp_path, monkeypatch, capsys
    ):
        """The printed resume command carries every sim argument, so the
        resumed run compiles the same placement (the snapshot's config
        check passes) and keeps checkpointing."""
        import shlex

        from repro import cli
        from repro.errors import SimulationPreempted

        snap = str(tmp_path / "a dir" / "dmv.snap")
        argv = [
            "run", "dmv", "--scale", "tiny", "--config", "numa3",
            "--policy", "only-domain-aware", "--rows", "10", "--cols", "11",
            "--topology", "clustered-single", "--tracks", "7", "--seed", "1",
            "--profile-guided", "--checkpoint", snap,
            "--checkpoint-every", "500",
        ]

        def preempted(spec, instance, compiled, **options):
            raise SimulationPreempted(
                "preempted", snapshot_path=snap, cycle=123
            )

        monkeypatch.setattr(cli, "run_point", preempted)
        assert cli.main(argv) == 75
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("resume with: ")
        ]
        words = shlex.split(line[len("resume with: "):])
        assert words[:2] == ["repro", "run"]
        parser = cli.build_parser()
        original, resumed = parser.parse_args(argv), parser.parse_args(words[1:])

        def spec(args):
            return cli._spec_from_args(args, profile_guided=args.profile_guided)

        assert spec(resumed) == spec(original)
        assert resumed.checkpoint == resumed.resume_from == snap
        assert resumed.checkpoint_every == 500
