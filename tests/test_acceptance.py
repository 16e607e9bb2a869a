"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured evidence.  Run with `pytest tests/test_acceptance.py -v -s`.

Cluster-scale reference targets (198x speed-up on 256 cores, 475x on 1024)
are documented in README.md; they are not desk-reproducible and are not
asserted here.  Criteria 6 and 7 assert the corresponding trends only.
"""

import json
import random
import time

import pytest

from ctmdist.engine import Engine, compute_supply
from ctmdist.errors import ProtocolError
from ctmdist.gridgen import generate_grid
from ctmdist.partition import (
    balance_cap,
    build_decoder_map,
    build_metagraph,
    build_receive_map,
    build_subnetworks,
    partition_nodes,
)
from ctmdist.runner import (
    run_distributed,
    run_sequential,
    rows_to_csv,
)
from ctmdist.scenario import TERMINAL, parse_scenario, serialize_scenario

from conftest import chain_doc, lanes_grid, merge_diverge_doc
from support import lockstep, reconstruct_scenario, setup_timing, subset_sizes
from test_partition import random_scenario

BITWISE_STEPS = 200
CONSERVATION_TOL = 1e-9


@pytest.fixture(scope="module")
def grid_4x4():
    return generate_grid(4, 4)


@pytest.fixture(scope="module")
def merge_fixture():
    return parse_scenario(json.dumps(merge_diverge_doc()))


@pytest.fixture(scope="module")
def lanes_fixture():
    return lanes_grid(steps=BITWISE_STEPS)


def test_criterion_1_distributed_equals_sequential(grid_4x4, merge_fixture, lanes_fixture):
    """Merged distributed dumps are bitwise identical to sequential for the
    4x4 grid and the merge fixture at n in {2,4,8}, and for the 3-lane grid
    with lane changes and deterministic routes at n=2, both transports, 200
    steps, under 60 s."""
    t0 = time.perf_counter()
    runs = 0
    cases = (
        ("grid4x4", grid_4x4, (2, 4, 8)),
        ("merge", merge_fixture, (2, 4, 8)),
        ("lanes5x5", lanes_fixture, (2,)),
    )
    for name, scenario, n_values in cases:
        reference = rows_to_csv(run_sequential(scenario, steps=BITWISE_STEPS).rows)
        for transport in ("local", "tcp"):
            for n in n_values:
                result = run_distributed(
                    scenario, n, transport=transport, steps=BITWISE_STEPS, seed=0
                )
                merged = rows_to_csv(result.rows)
                assert merged == reference, f"{name} {transport} n={n} diverged"
                assert result.metrics["conservation_max_abs_error"] <= CONSERVATION_TOL
                runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"\nCRITERION 1 PASS: {runs} distributed runs bitwise-identical to "
        f"sequential in {elapsed:.1f}s"
    )


def test_criterion_2_conservation(grid_4x4, merge_fixture):
    """|entered - exited - in_network| <= 1e-9 veh at every step, both modes."""
    worst = 0.0
    for scenario in (grid_4x4, merge_fixture):
        seq = run_sequential(scenario, steps=BITWISE_STEPS, dump_every=None)
        dist = run_distributed(scenario, 4, steps=BITWISE_STEPS, dump_every=None)
        for res in (seq, dist):
            worst = max(worst, res.metrics["conservation_max_abs_error"])
            assert res.metrics["conservation_max_abs_error"] <= CONSERVATION_TOL
    print(f"\nCRITERION 2 PASS: worst conservation error {worst:.3e} veh")


def test_criterion_3_partition_validity():
    """50 randomized graphs: total, exclusive, balanced (1.1), overlap
    duality, and fragment union reconstructs the scenario."""
    rng = random.Random(2024)
    for trial in range(50):
        s = random_scenario(rng)
        n = rng.randint(2, min(6, len(s.nodes)))
        p = partition_nodes(s, n, seed=trial)
        assert sorted(p.assignment) == sorted(s.nodes)
        sizes = subset_sizes(p)
        assert all(size >= 1 for size in sizes)
        assert max(sizes) <= balance_cap(len(s.nodes), n)
        subs = build_subnetworks(s, p)
        roles: dict[int, list[str]] = {}
        interior_count = 0
        for sub in subs:
            interior_count += len(sub.interior_links)
            for lid in sub.relative_sinks:
                roles.setdefault(lid, []).append("sink")
            for lid in sub.relative_sources:
                roles.setdefault(lid, []).append("source")
        for lid, kinds in roles.items():
            assert sorted(kinds) == ["sink", "source"], f"link {lid}: {kinds}"
        assert interior_count + len(roles) == len(s.links)
        assert serialize_scenario(reconstruct_scenario(s, subs)) == serialize_scenario(s)
    print("\nCRITERION 3 PASS: 50 randomized partitions valid and reconstructible")


def test_criterion_4_fixed_message_size(merge_fixture):
    """Every channel's message length is constant across a full run and
    equals the decoder-map slot count."""
    subs = build_subnetworks(merge_fixture, partition_nodes(merge_fixture, 3, seed=1))
    metagraph = build_metagraph(subs)
    engines = {sub.index: Engine(sub.fragment, set(sub.owned_nodes)) for sub in subs}
    send_maps = {}
    tables = {}
    for sub in subs:
        for nb in sub.neighbors():
            send_maps[(sub.index, nb)] = build_decoder_map(sub, nb)
            assert send_maps[(sub.index, nb)].slots == build_receive_map(
                [x for x in subs if x.index == nb][0], sub.index
            ).slots
            tables[(sub.index, nb)] = (
                send_maps[(sub.index, nb)].positions,
                build_receive_map(sub, nb).positions,
            )
    observed: dict[tuple[int, int], set[int]] = {}
    steps = 150

    def note(step, messages):
        for key, message in messages.items():
            observed.setdefault(key, set()).add(len(message))

    lockstep(engines, tables, steps, on_messages=note)
    for (i, j), lengths in observed.items():
        assert lengths == {send_maps[(i, j)].message_length}, (i, j, lengths)
    assert len(observed) == 2 * len(metagraph.edges)
    sizes = sorted(send_maps[key].message_length for key in sorted(send_maps))
    print(f"\nCRITERION 4 PASS: {steps} steps, fixed message sizes {sizes}")


def test_criterion_5_ctm_unit_behavior():
    """Single-link oracle: oversaturated discharge is exactly C per step,
    a sub-capacity pulse advances one cell per step, and supply vanishes at
    jam density."""
    # oversaturated discharge
    saturated = parse_scenario(
        json.dumps(chain_doc(cells_per_link=10, links=1, demand=0.9))
    )
    res = run_sequential(saturated, steps=60, dump_every=None)
    exited = res.metrics["per_step"]["exited_cum"]
    cap_step = (0.5 * 1) * 2.0
    for a, b in zip(exited[-10:], exited[-9:]):
        assert abs((b - a) - cap_step) <= 1e-9

    # free-flow pulse
    quiet = parse_scenario(json.dumps(chain_doc(cells_per_link=10, links=1)))
    eng = Engine(quiet)
    eng.set_cell_value(0, 0, 0, (0, TERMINAL), 0.75)
    eng.active.add(0)
    for step in range(9):
        eng.phase_b(eng.phase_a(step))
        cells = eng.links[0].groups[0].cells
        occupied = [k for k, cell in enumerate(cells) if any(cell)]
        assert occupied == [step + 1]
        assert eng.cell_value(0, 0, step + 1, (0, TERMINAL)) == 0.75

    # supply at jam density
    g = eng.links[0].groups[0]
    assert compute_supply(g.jam_veh, g.cap_step, g.wv_ratio, g.jam_veh) == 0.0
    print(
        f"\nCRITERION 5 PASS: discharge pinned at C={cap_step} veh/step, pulse "
        f"advances one cell/step, jam supply 0"
    )


@pytest.fixture(scope="module")
def bench_grid():
    return generate_grid(80, 80)


def test_criterion_6_desk_scale_speedup(bench_grid):
    """On a >=20000-link grid, 4 local workers finish the compute phase in
    less wall time than one; cluster-scale ratios are documented, not
    asserted."""
    assert len(bench_grid.links) >= 20_000
    steps = 30
    seq = run_sequential(bench_grid, steps=steps, dump_every=None)
    compute_1 = seq.timing["workers"][0]["compute_s"]
    dist = run_distributed(bench_grid, 4, transport="local", steps=steps, dump_every=None)
    compute_4 = max(w["compute_s"] for w in dist.timing["workers"])
    assert compute_4 < compute_1, f"n=4 compute {compute_4:.2f}s >= n=1 {compute_1:.2f}s"
    print(
        f"\nCRITERION 6 PASS: {len(bench_grid.links)} links, {steps} steps: "
        f"compute {compute_1:.2f}s (n=1) -> {compute_4:.2f}s (n=4), "
        f"speed-up {compute_1 / compute_4:.2f}x"
    )


def test_criterion_7_setup_time_trend(bench_grid):
    """Partition/metagraph/decoder construction time is monotone
    nondecreasing over n in {16, 32, 64}.  Waiver: a dip within 20% is
    attributed to timer noise (documented in README), larger dips fail."""
    times = {}
    for n in (16, 32, 64):
        times[n] = min(setup_timing(bench_grid, n, seed=0) for _ in range(2))
    waived = []
    for a, b in ((16, 32), (32, 64)):
        if times[b] < times[a]:
            assert times[b] >= 0.8 * times[a], (
                f"setup time fell from {times[a]:.2f}s (n={a}) to "
                f"{times[b]:.2f}s (n={b}), beyond timer noise"
            )
            waived.append((a, b))
    note = f", waived noise dips: {waived}" if waived else ""
    print(
        f"\nCRITERION 7 PASS: setup seconds "
        f"{ {n: round(t, 3) for n, t in times.items()} }{note}"
    )


def test_criterion_8_protocol_robustness(tmp_path):
    """Corrupted decoder map, step-index mismatch, and truncated TCP frame
    all fail fast with protocol errors (exit code 3), never a wrong dump."""
    from ctmdist.cli import main

    # corrupted decoder map file -> both workers abort, exit code 3
    scen = tmp_path / "merge.json"
    scen.write_text(json.dumps(merge_diverge_doc()))
    parts = tmp_path / "parts"
    assert main(
        ["partition", "--scenario", str(scen), "--n", "2", "--out-dir", str(parts)]
    ) == 0
    victims = sorted(p.name for p in parts.iterdir() if p.name.startswith("decoder_"))
    doc = json.loads((parts / victims[0]).read_text())
    doc["slots"][0][3] = 42
    (parts / victims[0]).write_text(json.dumps(doc))
    dump = tmp_path / "never.csv"
    code = main(
        [
            "run", "--fragments-dir", str(parts), "--mode", "tcp", "--spawn-local",
            "--steps", "20", "--timeout", "10", "--dump", str(dump),
        ]
    )
    assert code == 3
    assert not dump.exists(), "a dump was written despite the protocol failure"

    # step-index mismatch -> fatal
    from test_comm import four_slot_map, message, pipe_channel_pair, _run_both
    from ctmdist.comm import exchange

    ch_a, ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))
    errors = _run_both(
        lambda: exchange([ch_a], {1: message([0.0] * 4)}, step=4, timeout=5.0),
        lambda: exchange([ch_b], {0: message([0.0] * 4)}, step=5, timeout=5.0),
    )
    assert any(
        isinstance(e, ProtocolError) and "step-index mismatch" in str(e) for e in errors
    )

    # truncated TCP frame -> fatal
    import socket
    from ctmdist.comm import SocketDuplex
    from support import pack_frame

    a, b = socket.socketpair()
    frame = pack_frame(0, 0, 1, [1.0, 2.0])
    a.sendall(frame[:-5])
    a.close()
    with pytest.raises(ProtocolError, match="truncated"):
        SocketDuplex(b).recv_frame(timeout=2.0)
    print(
        "\nCRITERION 8 PASS: decoder corruption, step desync, and truncated "
        "frames all fail fast with protocol errors (exit 3)"
    )
