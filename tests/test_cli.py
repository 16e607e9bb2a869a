"""Command-line surface: pipelines, idempotence, and exit codes."""

import contextlib
import io
import json
import os
import time

import pytest
from hypothesis import given, strategies as st

from ctmdist import gridgen, runner
from ctmdist.cli import main
from ctmdist.errors import ScenarioError
from ctmdist.scenario import load_scenario, parse_scenario, serialize_scenario

from conftest import merge_diverge_doc


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    assert main(["gen-grid", "--rows", "3", "--cols", "3", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "merge.json"
    path.write_text(json.dumps(merge_diverge_doc()))
    return str(path)


class TestGenGrid:
    def test_output_parses_back(self, grid_file):
        s = load_scenario(grid_file)
        assert len(s.nodes) > 0
        assert any(l.is_source for l in s.links.values())

    def test_smallest_tile_round_trips(self, tmp_path):
        out = tmp_path / "one.json"
        assert main(["gen-grid", "--rows", "1", "--cols", "1", "--out", str(out)]) == 0
        s = load_scenario(str(out))
        assert (len(s.nodes), len(s.links)) == (3, 2)

    def test_idempotent_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen-grid", "--rows", "2", "--cols", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_dims_exit_2(self, tmp_path):
        assert main(["gen-grid", "--rows", "0", "--cols", "3", "--out", "x"]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--dt", "nan"),
            ("--dt", "-1"),
            ("--dt", "inf"),
            ("--link-length", "nan"),
            ("--link-length", "inf"),
            ("--link-length", "-5"),
            ("--lanes", "0"),
            ("--steps", "0"),
            ("--demand-vph-per-lane", "nan"),
            ("--demand-vph-per-lane", "-1"),
            ("--demand-vph-per-lane", "inf"),
        ],
    )
    def test_bad_value_exits_2_as_the_file_would(self, tmp_path, capsys, monkeypatch, flag, value):
        out = tmp_path / "grid.json"
        argv = ["gen-grid", "--rows", "2", "--cols", "2", flag, value, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()
        # the scenario the flags describe, written out unchecked, is
        # rejected by the loader with the same message
        monkeypatch.setattr(gridgen, "validate", lambda s: None)
        kind = int if flag in ("--lanes", "--steps") else float
        unchecked = gridgen.generate_grid(2, 2, **{flag[2:].replace("-", "_"): kind(value)})
        with pytest.raises(ScenarioError) as loaded:
            parse_scenario(serialize_scenario(unchecked))
        assert err == f"error: {loaded.value}\n"
        if (flag, value) == ("--link-length", "inf"):
            assert err == "error: link 0 length must be finite\n"
        if (flag, value) == ("--demand-vph-per-lane", "inf"):
            assert err.endswith(": flow must be finite\n")

    def test_writes_a_loadable_file_or_nothing(self, tmp_path):
        out = tmp_path / "grid.json"
        seen = set()

        @given(
            st.fixed_dictionaries(
                {
                    flag: st.sampled_from([valid, "0", "-1", "nan", "inf"])
                    for flag, valid in [
                        ("--demand-vph-per-lane", "1000"),
                        ("--link-length", "150"),
                        ("--lanes", "2"),
                        ("--dt", "4"),
                        ("--steps", "3"),
                    ]
                }
            )
        )
        def check(values):
            argv = ["gen-grid", "--rows", "2", "--cols", "2", "--out", str(out)]
            for flag, value in values.items():
                argv += [flag, value]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as e:  # argparse: --lanes and --steps take integers
                    code = e.code
            if code == 0:
                load_scenario(str(out))
                out.unlink()
                seen.add("written")
            else:
                assert code == 2
                assert "error: " in err.getvalue() and "Traceback" not in err.getvalue()
                assert not out.exists()
                seen.add("rejected")

        check()
        assert seen == {"written", "rejected"}


class TestPartitionCmd:
    def test_n1_fragment_equals_input(self, fixture_file, tmp_path):
        out = tmp_path / "parts"
        assert main(
            ["partition", "--scenario", fixture_file, "--n", "1", "--out-dir", str(out)]
        ) == 0
        frag = load_scenario(str(out / "fragment_0.json"))
        original = load_scenario(fixture_file)
        assert frag.subnetwork is not None
        frag.subnetwork = None
        assert serialize_scenario(frag) == serialize_scenario(original)

    def test_fragments_follow_cut_rule(self, tmp_path):
        # path network split in two: the overlap link appears in both
        # fragments, as a relative sink upstream and source downstream
        from conftest import chain_doc

        scen = tmp_path / "path.json"
        scen.write_text(json.dumps(chain_doc(cells_per_link=2, links=3, demand=0.2)))
        out = tmp_path / "parts"
        assert main(
            ["partition", "--scenario", str(scen), "--n", "2", "--out-dir", str(out)]
        ) == 0
        frag0 = load_scenario(str(out / "fragment_0.json"))
        frag1 = load_scenario(str(out / "fragment_1.json"))
        overlap = set(frag0.subnetwork.relative_sinks) | set(
            frag0.subnetwork.relative_sources
        )
        assert len(overlap) >= 1
        for lid in overlap:
            assert lid in frag0.links and lid in frag1.links
            sink_side = lid in frag0.subnetwork.relative_sinks
            assert (lid in frag1.subnetwork.relative_sources) == sink_side
        assert os.path.exists(str(out / "metagraph.json"))

    def test_same_seed_identical_outputs(self, grid_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                [
                    "partition",
                    "--scenario",
                    grid_file,
                    "--n",
                    "3",
                    "--seed",
                    "7",
                    "--out-dir",
                    str(out),
                ]
            ) == 0
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_import_external_partition(self, fixture_file, tmp_path):
        scenario = load_scenario(fixture_file)
        part_file = tmp_path / "metis.txt"
        lines = [f"{node} {0 if node <= 4 else 1}" for node in sorted(scenario.nodes)]
        part_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "parts"
        assert main(
            [
                "partition",
                "--scenario",
                fixture_file,
                "--n",
                "2",
                "--import",
                str(part_file),
                "--out-dir",
                str(out),
            ]
        ) == 0
        frag0 = load_scenario(str(out / "fragment_0.json"))
        assert frag0.subnetwork.owned_nodes == (0, 1, 2, 3, 4)

    def test_import_given_by_config(self, fixture_file, tmp_path, capsys):
        # the key is the flag's name, `import`; `import_file`, its dest,
        # names no flag and is ignored
        part_file = tmp_path / "p.txt"
        part_file.write_text("0 0\n1 x\n")
        argv = ["partition", "--scenario", fixture_file, "--n", "2"]
        argv += ["--out-dir", str(tmp_path / "parts")]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"import": str(part_file)}))
        assert main(["--config", str(config), *argv]) == 2
        err = capsys.readouterr().err
        assert "partition file line 2: subset must be a canonical decimal integer, got 'x'" in err
        config.write_text(json.dumps({"import_file": str(part_file)}))
        assert main(["--config", str(config), *argv]) == 0

    def test_import_rejects_a_non_canonical_node_id(self, fixture_file, tmp_path, capsys):
        # `int()` reads "1_0" as node 10
        part_file = tmp_path / "metis.txt"
        lines = [f"{node} {0 if node <= 4 else 1}" for node in range(10)]
        lines[9] = "1_0 1"
        part_file.write_text("\n".join(lines) + "\n")
        argv = ["partition", "--scenario", fixture_file, "--n", "2", "--import", str(part_file)]
        assert main(argv + ["--out-dir", str(tmp_path / "parts")]) == 2
        err = capsys.readouterr().err
        assert "partition file line 10: node must be a canonical decimal integer, got '1_0'" in err


    def test_import_of_an_empty_partition_exits_2(self, tmp_path, capsys):
        # a scenario with no nodes loads; an empty partition of it names no
        # subset
        scenario = tmp_path / "empty.json"
        scenario.write_text('{"nodes": [], "links": [], "simulation": {"dt": 1.0, "steps": 2}}')
        part_file = tmp_path / "p.txt"
        part_file.write_text("")
        argv = ["partition", "--scenario", str(scenario), "--n", "1", "--import", str(part_file)]
        assert main(argv + ["--out-dir", str(tmp_path / "parts")]) == 2
        assert "partition assigns no nodes" in capsys.readouterr().err


class TestRunCmd:
    def test_seq_vs_local_dumps_byte_identical(self, grid_file, tmp_path):
        dump_seq = tmp_path / "seq.csv"
        dump_loc = tmp_path / "loc.csv"
        assert main(
            [
                "run", "--scenario", grid_file, "--mode", "seq",
                "--steps", "60", "--dump", str(dump_seq),
            ]
        ) == 0
        assert main(
            [
                "run", "--scenario", grid_file, "--mode", "local", "--n", "4",
                "--steps", "60", "--dump", str(dump_loc),
            ]
        ) == 0
        assert dump_seq.read_bytes() == dump_loc.read_bytes()
        assert main(["diff", "--a", str(dump_seq), "--b", str(dump_loc)]) == 0

    def test_tcp_spawn_matches_local(self, fixture_file, tmp_path):
        dump_loc = tmp_path / "loc.csv"
        dump_tcp = tmp_path / "tcp.csv"
        common = ["--steps", "50", "--n", "2", "--scenario", fixture_file]
        assert main(["run", "--mode", "local", *common, "--dump", str(dump_loc)]) == 0
        assert main(
            ["run", "--mode", "tcp", "--spawn-local", *common, "--dump", str(dump_tcp)]
        ) == 0
        assert dump_loc.read_bytes() == dump_tcp.read_bytes()

    def test_run_from_fragments_dir(self, fixture_file, tmp_path):
        out = tmp_path / "parts"
        assert main(
            ["partition", "--scenario", fixture_file, "--n", "2", "--out-dir", str(out)]
        ) == 0
        dump_frag = tmp_path / "frag.csv"
        dump_seq = tmp_path / "seq.csv"
        assert main(
            [
                "run", "--fragments-dir", str(out), "--mode", "local",
                "--steps", "40", "--dump", str(dump_frag),
            ]
        ) == 0
        assert main(
            [
                "run", "--scenario", fixture_file, "--mode", "seq",
                "--steps", "40", "--dump", str(dump_seq),
            ]
        ) == 0
        assert dump_frag.read_bytes() == dump_seq.read_bytes()

    def test_zero_steps_rejected(self, fixture_file):
        assert main(
            ["run", "--scenario", fixture_file, "--mode", "seq", "--steps", "0"]
        ) == 2

    def test_metrics_and_timing_written(self, fixture_file, tmp_path):
        metrics = tmp_path / "metrics.json"
        timing = tmp_path / "timing.json"
        assert main(
            [
                "run", "--scenario", fixture_file, "--steps", "30",
                "--metrics", str(metrics), "--timing", str(timing),
            ]
        ) == 0
        doc = json.loads(metrics.read_text())
        assert doc["conservation_max_abs_error"] <= 1e-9
        tdoc = json.loads(timing.read_text())
        assert tdoc["workers"][0]["comm"]["total_s"] == 0.0

    def test_config_file_supplies_defaults(self, fixture_file, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"steps": 25, "mode": "seq"}))
        metrics = tmp_path / "metrics.json"
        assert main(
            [
                "--config", str(config), "run", "--scenario", fixture_file,
                "--metrics", str(metrics),
            ]
        ) == 0
        assert json.loads(metrics.read_text())["steps"] == 25

    def test_config_file_with_unknown_mode_rejected(self, fixture_file, tmp_path, capsys):
        # argparse checks --mode on the command line, not a config default
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mode": "bogus"}))
        assert main(["--config", str(config), "run", "--scenario", fixture_file]) == 2
        assert "unknown transport 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"steps": 5.5}, "--steps: invalid int value 5.5"),
            ({"steps": True}, "--steps: invalid int value true"),
            ({"steps": None}, "--steps: invalid int value null"),
            ({"dump_every": 2.5}, "--dump-every: invalid int value 2.5"),
            ({"dump-every": "2x"}, '--dump-every: invalid int value "2x"'),
            ({"timeout": [5]}, "--timeout: invalid float value [5]"),
            ({"spawn_local": 1}, "--spawn-local: 1 is not true or false"),
        ],
    )
    def test_config_value_its_flag_rejects_exits_2(
        self, fixture_file, tmp_path, capsys, doc, message
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        assert main(["--config", str(config), "run", "--scenario", fixture_file]) == 2
        assert f"config value for {message}" in capsys.readouterr().err

    def test_config_values_converted_as_on_the_command_line(self, fixture_file, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"steps": "7", "timeout": 5, "dump-every": 3}))
        metrics = tmp_path / "metrics.json"
        argv = ["--config", str(config), "run", "--scenario", fixture_file, "--mode", "local"]
        assert main(argv + ["--metrics", str(metrics)]) == 0
        assert json.loads(metrics.read_text())["steps"] == 7


class TestConfigSuppliesRequiredFlags:
    """A config value satisfies a required flag; explicit flags still win,
    and a flag given by neither exits 2 with argparse's message."""

    @staticmethod
    def config(tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return ["--config", str(path)]

    def test_gen_grid(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        config = self.config(tmp_path, {"rows": 2, "cols": 2, "out": str(a)})
        assert main(config + ["gen-grid", "--cols", "3"]) == 0
        assert main(["gen-grid", "--rows", "2", "--cols", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_partition(self, fixture_file, tmp_path):
        out = tmp_path / "parts"
        doc = {"scenario": fixture_file, "n": 2, "out-dir": str(out)}
        assert main(self.config(tmp_path, doc) + ["partition"]) == 0
        assert sorted(p.name for p in out.glob("fragment_*.json")) == [
            "fragment_0.json",
            "fragment_1.json",
        ]

    def test_bench(self, fixture_file, tmp_path):
        out = tmp_path / "bench.json"
        config = self.config(tmp_path, {"scenario": fixture_file})
        assert main(config + ["bench", "--n-list", "1", "--steps", "2", "--out", str(out)]) == 0
        assert [row["n"] for row in json.loads(out.read_text())["rows"]] == [1]

    def test_diff(self, tmp_path, capsys):
        dump = tmp_path / "d.csv"
        runner.write_dump([], str(dump))
        assert main(self.config(tmp_path, {"a": str(dump), "b": str(dump)}) + ["diff"]) == 0
        assert capsys.readouterr().out == "equal\n"

    def test_flag_given_by_neither_exits_2(self, tmp_path, capsys):
        config = self.config(tmp_path, {"rows": 2})
        with pytest.raises(SystemExit) as exit_info:
            main(config + ["gen-grid", "--cols", "2"])
        assert exit_info.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err


def _cli_child(argv):
    import sys

    from ctmdist.cli import main as cli_main

    sys.exit(cli_main(argv))


def _free_ports(count):
    import socket

    socks = []
    for _ in range(count):
        s = socket.socket()
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


class TestTcpJoinMode:
    def _partition_two(self, fixture_file, tmp_path):
        parts = tmp_path / "parts"
        assert main(
            ["partition", "--scenario", fixture_file, "--n", "2", "--out-dir", str(parts)]
        ) == 0
        return parts

    def _spawn_joined(self, dirs, roster_path, tmp_path, steps="40"):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        procs = []
        for index, d in enumerate(dirs):
            argv = [
                "run", "--mode", "tcp", "--worker-index", str(index),
                "--fragments-dir", str(d), "--roster", str(roster_path),
                "--steps", steps, "--timeout", "15",
                "--dump", str(tmp_path / f"join{index}"),
            ]
            p = ctx.Process(target=_cli_child, args=(argv,))
            p.start()
            procs.append(p)
        for p in procs:
            p.join(60)
        return [p.exitcode for p in procs]

    def test_externally_launched_workers_match_sequential(self, fixture_file, tmp_path):
        import shutil

        from ctmdist.runner import merge_states, parse_dump, rows_to_csv, run_sequential

        parts = self._partition_two(fixture_file, tmp_path)
        # each worker's directory holding only its own fragment and the
        # decoder files of its channels, as on separate hosts
        own = [tmp_path / f"own{index}" for index in (0, 1)]
        for index, d in enumerate(own):
            d.mkdir()
            for name in (f"fragment_{index}.json", "decoder_0_to_1.json", "decoder_1_to_0.json"):
                shutil.copy(parts / name, d / name)
        seq = run_sequential(load_scenario(fixture_file), steps=40)
        for dirs in ([parts, parts], own):
            ports = _free_ports(2)
            roster = tmp_path / "roster.txt"
            roster.write_text(
                f"0 127.0.0.1 {ports[0]}\n1 127.0.0.1 {ports[1]}\n"
            )
            codes = self._spawn_joined(dirs, roster, tmp_path)
            assert codes == [0, 0]
            rows = []
            for index in (0, 1):
                partial = tmp_path / f"join{index}.worker{index}.csv"
                rows.append(parse_dump(partial.read_text()))
                partial.unlink()
            merged = merge_states(rows)
            assert rows_to_csv(merged) == rows_to_csv(seq.rows)

    def test_per_worker_corruption_caught_at_handshake(self, fixture_file, tmp_path):
        import shutil

        parts_a = self._partition_two(fixture_file, tmp_path)
        parts_b = tmp_path / "parts_b"
        shutil.copytree(parts_a, parts_b)
        victim = sorted(p for p in os.listdir(parts_b) if p.startswith("decoder_"))[0]
        doc = json.loads((parts_b / victim).read_text())
        doc["slots"][0][4] = 999
        (parts_b / victim).write_text(json.dumps(doc))
        ports = _free_ports(2)
        roster = tmp_path / "roster.txt"
        roster.write_text(f"0 127.0.0.1 {ports[0]}\n1 127.0.0.1 {ports[1]}\n")
        codes = self._spawn_joined([parts_a, parts_b], roster, tmp_path)
        assert codes == [3, 3]  # both sides abort on the decoder mismatch
        assert not (tmp_path / "join0.worker0.csv").exists()


class TestProtocolExitCodes:
    def test_corrupted_decoder_file_exits_3(self, fixture_file, tmp_path):
        out = tmp_path / "parts"
        assert main(
            ["partition", "--scenario", fixture_file, "--n", "2", "--out-dir", str(out)]
        ) == 0
        decoder_files = sorted(p for p in os.listdir(out) if p.startswith("decoder_"))
        victim = out / decoder_files[0]
        doc = json.loads(victim.read_text())
        doc["slots"][0][4] = 99  # corrupt one next-link id
        victim.write_text(json.dumps(doc))
        code = main(
            [
                "run", "--fragments-dir", str(out), "--mode", "tcp", "--spawn-local",
                "--steps", "10", "--timeout", "10",
            ]
        )
        assert code == 3

    def test_corrupt_decoder_file_without_its_pair_exits_3(self, fixture_file, tmp_path):
        # the reverse map's file is gone; the one left is still checked
        out = tmp_path / "parts"
        assert main(
            ["partition", "--scenario", fixture_file, "--n", "2", "--out-dir", str(out)]
        ) == 0
        (out / "decoder_1_to_0.json").unlink()
        victim = out / "decoder_0_to_1.json"
        doc = json.loads(victim.read_text())
        doc["slots"][0][4] = 99
        victim.write_text(json.dumps(doc))
        argv = ["run", "--fragments-dir", str(out), "--mode", "local", "--steps", "1"]
        assert main(argv) == 3

    def test_consistent_corrupt_decoder_rejected_at_setup(self, fixture_file, tmp_path):
        # both workers read the one corrupted file, so the handshake agrees;
        # the slot's commodity cannot occur on its link, which set-up rejects
        # before any step runs
        out = tmp_path / "parts"
        assert main(
            ["partition", "--scenario", fixture_file, "--n", "2", "--out-dir", str(out)]
        ) == 0
        victim = out / sorted(p for p in os.listdir(out) if p.startswith("decoder_"))[0]
        doc = json.loads(victim.read_text())
        doc["slots"][0][4] = 99
        victim.write_text(json.dumps(doc))
        dump = tmp_path / "dump.csv"
        code = main(
            [
                "run", "--fragments-dir", str(out), "--mode", "tcp", "--spawn-local",
                "--steps", "1", "--dump", str(dump),
            ]
        )
        assert code == 3
        assert not dump.exists()


class TestMalformedRunInputs:
    """Broken run inputs are config errors: exit 2, before any socket opens."""

    @pytest.fixture
    def parts(self, grid_file, tmp_path):
        out = tmp_path / "parts"
        assert main(
            ["partition", "--scenario", grid_file, "--n", "2", "--out-dir", str(out)]
        ) == 0
        return out

    def _join(self, parts, roster_text, tmp_path, steps="2", index="0"):
        roster = tmp_path / "roster.txt"
        roster.write_text(roster_text)
        return main(
            [
                "run", "--mode", "tcp", "--worker-index", index,
                "--fragments-dir", str(parts), "--roster", str(roster), "--steps", steps,
            ]
        )

    def test_zero_steps_rejected_before_connecting(self, parts, tmp_path, capsys, monkeypatch):
        # --steps 0 is the runner's to reject, not read as "no --steps"
        def connect(*args):
            raise AssertionError("connected to a peer")

        monkeypatch.setattr(runner, "tcp_connect_channels", connect)
        ports = _free_ports(2)
        roster = f"0 127.0.0.1 {ports[0]}\n1 127.0.0.1 {ports[1]}\n"
        assert self._join(parts, roster, tmp_path, steps="0") == 2
        assert "steps must be >= 1" in capsys.readouterr().err

    def test_decoder_map_missing_key(self, parts, capsys):
        victim = parts / "decoder_0_to_1.json"
        doc = json.loads(victim.read_text())
        del doc["sender"]
        victim.write_text(json.dumps(doc))
        argv = ["run", "--fragments-dir", str(parts), "--mode", "local", "--steps", "2"]
        assert main(argv) == 2
        assert "decoder_0_to_1.json" in capsys.readouterr().err

    def test_decoder_map_infinite_slot(self, parts, capsys):
        victim = parts / "decoder_0_to_1.json"
        doc = json.loads(victim.read_text())
        doc["slots"][0][0] = float("inf")
        victim.write_text(json.dumps(doc))
        argv = ["run", "--fragments-dir", str(parts), "--mode", "local", "--steps", "2"]
        assert main(argv) == 2
        assert "decoder_0_to_1.json" in capsys.readouterr().err

    def test_roster_port_not_integer(self, parts, tmp_path, capsys):
        assert self._join(parts, "0 127.0.0.1 5000\n1 127.0.0.1 port\n", tmp_path) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, field, token",
        [
            ("+1 127.0.0.1 5001", "worker index", "+1"),
            ("01 127.0.0.1 5001", "worker index", "01"),
            ("1 127.0.0.1 5_001", "port", "5_001"),
            ("1 127.0.0.1 \u0665001", "port", "\u0665001"),
        ],
    )
    def test_roster_integers_are_canonical_decimal(
        self, parts, tmp_path, capsys, line, field, token
    ):
        assert self._join(parts, f"0 127.0.0.1 5000\n{line}\n", tmp_path) == 2
        err = capsys.readouterr().err
        assert f"line 2: {field} must be a canonical decimal integer, got {token!r}" in err

    def test_roster_port_out_of_range(self, parts, tmp_path, capsys):
        assert self._join(parts, "0 127.0.0.1 70000\n1 127.0.0.1 5001\n", tmp_path) == 2
        assert "line 1" in capsys.readouterr().err

    def test_roster_lacks_joining_worker(self, parts, tmp_path, capsys):
        assert self._join(parts, "1 127.0.0.1 5001\n", tmp_path) == 2
        assert "worker 0" in capsys.readouterr().err

    def test_roster_lacks_neighbor(self, parts, tmp_path, capsys):
        assert self._join(parts, "0 127.0.0.1 5000\n", tmp_path) == 2
        assert "worker 1" in capsys.readouterr().err

    def test_roster_lists_worker_twice(self, parts, tmp_path, capsys):
        text = "0 127.0.0.1 5000\n1 127.0.0.1 5001\n0 127.0.0.1 5002\n"
        assert self._join(parts, text, tmp_path) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["relative_sinks", "relative_sources"])
    def test_stub_link_given_a_role(self, tmp_path, capsys, role):
        # link 16 runs between two nodes of subnetwork 1; fragment 0 carries
        # it only as the stub end of a road connection
        grid = tmp_path / "grid44.json"
        out = tmp_path / "parts44"
        assert main(["gen-grid", "--rows", "4", "--cols", "4", "--out", str(grid)]) == 0
        assert main(["partition", "--scenario", str(grid), "--n", "2", "--out-dir", str(out)]) == 0
        victim = out / "fragment_0.json"
        doc = json.loads(victim.read_text())
        doc["subnetwork"][role].append(16)
        victim.write_text(json.dumps(doc))
        argv = ["run", "--fragments-dir", str(out), "--mode", "local", "--steps", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "fragment_0.json" in err and "link 16" in err

    @pytest.mark.parametrize(
        "role, name",
        [
            ("interior_links", "interior"),
            ("relative_sources", "relative source"),
            ("relative_sinks", "relative sink"),
        ],
    )
    def test_link_left_out_of_its_role_list(self, parts, capsys, role, name):
        victim = parts / "fragment_0.json"
        doc = json.loads(victim.read_text())
        lid = doc["subnetwork"][role].pop(0)
        victim.write_text(json.dumps(doc))
        argv = ["run", "--fragments-dir", str(parts), "--mode", "local", "--steps", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"fragment_0.json: subnetwork 0: link {lid} has " in err
        assert f"but is not listed as a {name} link" in err

    def test_link_listed_twice(self, parts, capsys):
        victim = parts / "fragment_0.json"
        doc = json.loads(victim.read_text())
        sources = doc["subnetwork"]["relative_sources"]
        sources.append(sources[0])
        victim.write_text(json.dumps(doc))
        argv = ["run", "--fragments-dir", str(parts), "--mode", "local", "--steps", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"subnetwork 0: relative source link {sources[0]} listed twice" in err

    @pytest.mark.parametrize("mode", ["local", "tcp"])
    def test_fragment_file_after_a_gap(self, grid_file, tmp_path, capsys, mode):
        out = tmp_path / "parts4"
        assert main(["partition", "--scenario", grid_file, "--n", "4", "--out-dir", str(out)]) == 0
        (out / "fragment_2.json").rename(tmp_path / "fragment_2.json")
        argv = ["run", "--fragments-dir", str(out), "--mode", mode, "--steps", "5"]
        t0 = time.monotonic()
        assert main(argv + ["--timeout", "5"]) == 2
        assert time.monotonic() - t0 < 5.0  # no worker waited for a neighbor
        err = capsys.readouterr().err
        assert f"fragment {out / 'fragment_3.json'} follows a gap" in err
        assert f"{out / 'fragment_2.json'} is missing" in err

    def test_fragments_with_different_settings(self, tmp_path, capsys):
        grid = tmp_path / "grid5.json"
        argv = ["gen-grid", "--rows", "3", "--cols", "3", "--steps", "5", "--out", str(grid)]
        assert main(argv) == 0
        out = tmp_path / "parts"
        assert main(["partition", "--scenario", str(grid), "--n", "2", "--out-dir", str(out)]) == 0
        victim = out / "fragment_1.json"
        doc = json.loads(victim.read_text())
        doc["simulation"].update(steps=7, lane_change_rate=0.25)
        victim.write_text(json.dumps(doc))
        assert main(["run", "--fragments-dir", str(out), "--mode", "local"]) == 2
        assert "fragment 1: simulation.steps is 7, fragment 0's is 5" in capsys.readouterr().err

    def test_fragment_without_subnetwork_metadata(self, parts, capsys):
        victim = parts / "fragment_0.json"
        doc = json.loads(victim.read_text())
        del doc["subnetwork"]
        victim.write_text(json.dumps(doc))
        argv = ["run", "--fragments-dir", str(parts), "--mode", "local", "--steps", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"fragment {victim}: scenario file carries no subnetwork metadata" in err

    @pytest.mark.parametrize("mode", ["local", "join"])
    def test_fragment_index_differs_from_its_file_name(self, parts, tmp_path, capsys, mode):
        # index 5 passes validate(): no neighbor of fragment 1 is 5
        victim = parts / "fragment_1.json"
        doc = json.loads(victim.read_text())
        doc["subnetwork"]["index"] = 5
        victim.write_text(json.dumps(doc))
        if mode == "local":
            argv = ["run", "--fragments-dir", str(parts), "--mode", "local", "--steps", "2"]
            assert main(argv) == 2
        else:
            ports = _free_ports(2)
            roster = f"0 127.0.0.1 {ports[0]}\n1 127.0.0.1 {ports[1]}\n"
            assert self._join(parts, roster, tmp_path, index="1") == 2
        err = capsys.readouterr().err
        assert f"fragment {victim}: subnetwork metadata gives index 5" in err

    def test_overlapping_fragments(self, tmp_path, capsys):
        # fragment 1 is fragment 0 again under index 1, so both own node 0
        grid = tmp_path / "grid44.json"
        out = tmp_path / "parts44"
        assert main(["gen-grid", "--rows", "4", "--cols", "4", "--out", str(grid)]) == 0
        assert main(["partition", "--scenario", str(grid), "--n", "2", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "fragment_0.json").read_text())
        doc["subnetwork"]["index"] = 1
        doc["subnetwork"]["neighbor_of_link"] = {
            lid: 0 for lid in doc["subnetwork"]["neighbor_of_link"]
        }
        (out / "fragment_1.json").write_text(json.dumps(doc))
        for name in ("decoder_0_to_1.json", "decoder_1_to_0.json"):
            (out / name).unlink()
        argv = ["run", "--fragments-dir", str(out), "--mode", "local", "--steps", "2"]
        assert main(argv) == 2
        assert "node 0 is owned by fragments 0 and 1" in capsys.readouterr().err

    def test_fragment_path_without_road_connection(self, fixture_file, tmp_path, capsys):
        # the merge fixture has no road connection from link 1 to link 5;
        # the fragment that simulates link 1 is rejected as it loads
        out = tmp_path / "parts"
        argv = ["partition", "--scenario", fixture_file, "--n", "2", "--out-dir", str(out)]
        assert main(argv) == 0
        for i in range(2):
            victim = out / f"fragment_{i}.json"
            doc = json.loads(victim.read_text())
            doc["vehicletypes"][0]["routing"]["path"] = [0, 1, 5, 7]
            victim.write_text(json.dumps(doc))
        for name in ("decoder_0_to_1.json", "decoder_1_to_0.json"):
            (out / name).unlink()
        argv = ["run", "--fragments-dir", str(out), "--mode", "local", "--steps", "200"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "fragment_1.json: vehicle type 0: no road connection from link 1 to link 5" in err

    @pytest.mark.parametrize(
        "key, value",
        [("index", False), ("index", 1.9), ("owned_nodes", 0.4), ("neighbor_of_link", 0.0)],
    )
    def test_fragment_metadata_not_integer(self, parts, capsys, key, value):
        victim = parts / "fragment_1.json"
        doc = json.loads(victim.read_text())
        meta = doc["subnetwork"]
        if key == "owned_nodes":
            meta[key] = [nid + value for nid in meta[key]]
        elif key == "neighbor_of_link":
            meta[key] = {lid: value for lid in meta[key]}
        else:
            meta[key] = value
        victim.write_text(json.dumps(doc))
        argv = ["run", "--fragments-dir", str(parts), "--mode", "local", "--steps", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "fragment_1.json" in err and "must be a non-negative integer" in err

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_decoder_map_value_not_integer(self, parts, capsys, value):
        victim = parts / "decoder_0_to_1.json"
        doc = json.loads(victim.read_text())
        doc["receiver"] = value
        victim.write_text(json.dumps(doc))
        argv = ["run", "--fragments-dir", str(parts), "--mode", "local", "--steps", "2"]
        assert main(argv) == 2
        assert "decoder_0_to_1.json" in capsys.readouterr().err

    def test_roster_file_missing(self, parts, tmp_path):
        argv = [
            "run", "--mode", "tcp", "--worker-index", "0", "--fragments-dir", str(parts),
            "--roster", str(tmp_path / "absent.txt"),
        ]
        assert main(argv) == 2


class TestUnopenableFiles:
    """A file the command cannot open is a config error: exit 2 naming it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--mode", "seq", "--scenario", "{missing}"],
            ["partition", "--scenario", "{missing}", "--n", "2", "--out-dir", "{tmp}/p"],
            ["bench", "--scenario", "{missing}"],
            [
                "partition", "--scenario", "{scenario}", "--n", "2", "--import", "{missing}",
                "--out-dir", "{tmp}/p",
            ],
            ["diff", "--a", "{missing}", "--b", "{scenario}"],
            ["run", "--scenario", "{scenario}", "--steps", "2", "--dump", "{missing}/x.csv"],
            ["run", "--scenario", "{scenario}", "--steps", "2", "--metrics", "{missing}/m.json"],
        ],
        ids=["run", "partition", "bench", "import", "diff", "dump", "metrics"],
    )
    def test_exit_2_naming_the_path(self, fixture_file, tmp_path, capsys, argv):
        missing = str(tmp_path / "absent")
        fill = {"missing": missing, "scenario": fixture_file, "tmp": str(tmp_path)}
        assert main([arg.format(**fill) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert missing in err
        assert "Traceback" not in err


class TestTimeoutOption:
    @pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
    def test_not_positive_finite_exits_2(self, fixture_file, capsys, value):
        argv = ["run", "--scenario", fixture_file, "--mode", "local", "--n", "2"]
        assert main(argv + ["--steps", "2", "--timeout", value]) == 2
        assert "timeout must be a positive finite number" in capsys.readouterr().err


class TestBenchCmd:
    def test_table_and_report(self, fixture_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OTMD_LOG", "INFO")
        out = tmp_path / "bench.json"
        assert main(
            [
                "bench", "--scenario", fixture_file, "--n-list", "1,2",
                "--steps", "20", "--out", str(out),
            ]
        ) == 0
        report = json.loads(out.read_text())
        assert [row["n"] for row in report["rows"]] == [1, 2]
        assert report["rows"][0]["speedup"] == 1.0
        assert report["rows"][1]["speedup"] <= 2.0 + 1e-9
        assert report["rows"][0]["compute_speedup"] == 1.0
        table = capsys.readouterr().out
        assert "speedup" in table
        assert "compute speedup" in table

    def test_bad_n_list_exit_2(self, fixture_file):
        assert main(["bench", "--scenario", fixture_file, "--n-list", "1,zero"]) == 2

    @pytest.mark.parametrize("entry", ["+2", "0_2", "02", "\u0662"])
    def test_n_list_entries_are_canonical_decimal(self, fixture_file, capsys, entry):
        assert main(["bench", "--scenario", fixture_file, "--n-list", f"1,{entry}"]) == 2
        err = capsys.readouterr().err
        assert f"--n-list entry must be a canonical decimal integer, got {entry!r}" in err


class TestDiffCmd:
    def test_file_vs_itself_equal(self, fixture_file, tmp_path):
        dump = tmp_path / "d.csv"
        assert main(
            ["run", "--scenario", fixture_file, "--steps", "30", "--dump", str(dump)]
        ) == 0
        assert main(["diff", "--a", str(dump), "--b", str(dump)]) == 0

    @pytest.fixture
    def perturbed(self, fixture_file, tmp_path):
        """Paths of a dump and of a copy with one value raised by 0.5."""
        dump = tmp_path / "d.csv"
        assert main(
            ["run", "--scenario", fixture_file, "--steps", "30", "--dump", str(dump)]
        ) == 0
        lines = dump.read_text().splitlines()
        parts = lines[3].split(",")
        parts[6] = repr(float(parts[6]) + 0.5)
        other = tmp_path / "e.csv"
        other.write_text("\n".join(lines[:3] + [",".join(parts)] + lines[4:]) + "\n")
        return str(dump), str(other)

    def test_perturbed_value_detected(self, perturbed):
        dump, other = perturbed
        assert main(["diff", "--a", dump, "--b", other]) == 1
        assert main(["diff", "--a", dump, "--b", other, "--tol", "1.0"]) == 0

    @pytest.fixture
    def dump(self, fixture_file, tmp_path):
        path = tmp_path / "d.csv"
        assert main(
            ["run", "--scenario", fixture_file, "--steps", "30", "--dump", str(path)]
        ) == 0
        return path

    def _diff_rewritten(self, dump, tmp_path, capsys, rewrite, *tol):
        """`diff` of `dump` against its text passed through `rewrite`."""
        other = tmp_path / "e.csv"
        other.write_bytes(rewrite(dump.read_text()).encode())
        capsys.readouterr()
        code = main(["diff", "--a", str(dump), "--b", str(other), *tol])
        return code, capsys.readouterr().out

    def test_values_written_differently_differ(self, dump, tmp_path, capsys):
        # each vehicle value with a 0 appended parses to the same float
        def pad(text):
            header, *rows = text.splitlines()
            return "\n".join([header] + [row + "0" for row in rows]) + "\n"

        code, out = self._diff_rewritten(dump, tmp_path, capsys, pad)
        row = dump.read_text().splitlines(True)[1]
        step, link = row.split(",")[:2]
        padded = row[:-1] + "0\n"
        assert code == 1
        assert out.startswith(f"differ: line 2 (step {step} link {link} group ")
        assert out.endswith(f": {row!r} vs {padded!r}\n")
        assert self._diff_rewritten(dump, tmp_path, capsys, pad, "--tol", "0") == (0, "equal\n")

    def test_key_written_with_a_sign_differs(self, dump, tmp_path, capsys):
        def sign(text):
            return text.replace("\n", "\n+", 1)

        code, out = self._diff_rewritten(dump, tmp_path, capsys, sign)
        row = dump.read_text().splitlines(True)[1]
        assert code == 1
        assert out.startswith("differ: line 2 (step ")
        assert out.endswith(f": {row!r} vs {'+' + row!r}\n")
        assert self._diff_rewritten(dump, tmp_path, capsys, sign, "--tol", "0") == (0, "equal\n")

    def test_missing_final_newline_differs(self, dump, tmp_path, capsys):
        lines = dump.read_text().splitlines(True)
        code, out = self._diff_rewritten(dump, tmp_path, capsys, lambda text: text[:-1])
        assert code == 1
        assert out.startswith(f"differ: line {len(lines)} (step ")
        assert out.endswith(f": {lines[-1]!r} vs {lines[-1][:-1]!r}\n")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tol_not_non_negative_finite_exits_2(self, perturbed, capsys, tol):
        # every value comparison with a NaN tolerance is false, so
        # different dumps compared as equal
        dump, other = perturbed
        assert main(["diff", "--a", dump, "--b", other, "--tol", tol]) == 2
        assert "tol must be a non-negative finite number" in capsys.readouterr().err
        assert main(["diff", "--a", dump, "--b", other, "--tol", "0"]) == 1
        assert "differ: step" in capsys.readouterr().out

    def test_dump_not_utf8_exits_2(self, dump, tmp_path, capsys):
        other = tmp_path / "e.csv"
        other.write_bytes(dump.read_bytes() + b"\xff\n")
        assert main(["diff", "--a", str(dump), "--b", str(other)]) == 2
        err = capsys.readouterr().err
        assert f"dump {other} is not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tol", [[], ["--tol", "1e-9"]], ids=["exact", "tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_value_not_finite_exits_2(self, tmp_path, capsys, value, tol):
        # every comparison with a non-finite value is false, so with --tol
        # such a value used to compare equal to any other
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(f"{runner.DUMP_HEADER}\n1,0,0,0,0,-1,{value}\n")
        b.write_text(f"{runner.DUMP_HEADER}\n1,0,0,0,0,-1,1.5\n")
        assert main(["diff", "--a", str(a), "--b", str(b), *tol]) == 2
        err = capsys.readouterr().err
        assert f"dump line 2: vehicles must be finite, got '{value}'" in err

    def test_malformed_dump_exits_2(self, fixture_file, tmp_path, capsys):
        dump = tmp_path / "d.csv"
        assert main(
            ["run", "--scenario", fixture_file, "--steps", "30", "--dump", str(dump)]
        ) == 0
        lines = dump.read_text().splitlines()
        parts = lines[3].split(",")
        parts[5] = "x"
        other = tmp_path / "e.csv"
        other.write_text("\n".join(lines[:3] + [",".join(parts)] + lines[4:]) + "\n")
        assert main(["diff", "--a", str(dump), "--b", str(other)]) == 2
        err = capsys.readouterr().err
        assert "dump line 4: " in err
        assert "Traceback" not in err
