"""Command-line surface: pipelines, idempotence, and exit codes."""

import json
import os

import pytest

from ctmdist.cli import main
from ctmdist.scenario import load_scenario, serialize_scenario

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

    def _join(self, parts, roster_text, tmp_path):
        roster = tmp_path / "roster.txt"
        roster.write_text(roster_text)
        return main(
            [
                "run", "--mode", "tcp", "--worker-index", "0",
                "--fragments-dir", str(parts), "--roster", str(roster), "--steps", "2",
            ]
        )

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

    def test_overlapping_fragments(self, tmp_path, capsys):
        # fragment 1 is fragment 0 again under index 1, so both own link 0
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
        assert "link 0 claimed by subnetworks 0 and 1" in capsys.readouterr().err

    def test_roster_file_missing(self, parts, tmp_path):
        argv = [
            "run", "--mode", "tcp", "--worker-index", "0", "--fragments-dir", str(parts),
            "--roster", str(tmp_path / "absent.txt"),
        ]
        assert main(argv) == 2


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


class TestDiffCmd:
    def test_file_vs_itself_equal(self, fixture_file, tmp_path):
        dump = tmp_path / "d.csv"
        assert main(
            ["run", "--scenario", fixture_file, "--steps", "30", "--dump", str(dump)]
        ) == 0
        assert main(["diff", "--a", str(dump), "--b", str(dump)]) == 0

    def test_perturbed_value_detected(self, fixture_file, tmp_path):
        dump = tmp_path / "d.csv"
        assert main(
            ["run", "--scenario", fixture_file, "--steps", "30", "--dump", str(dump)]
        ) == 0
        lines = dump.read_text().splitlines()
        parts = lines[3].split(",")
        parts[6] = repr(float(parts[6]) + 0.5)
        other = tmp_path / "e.csv"
        other.write_text("\n".join(lines[:3] + [",".join(parts)] + lines[4:]) + "\n")
        assert main(["diff", "--a", str(dump), "--b", str(other)]) == 1
        assert main(["diff", "--a", str(dump), "--b", str(other), "--tol", "1.0"]) == 0
