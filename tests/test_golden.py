"""Golden outputs, pinned by sha256: the sequential engine's CSV dump and
the files `ctmdist partition` writes.

Criterion 1 compares the engine with itself (distributed against
sequential), so a change that alters the arithmetic of both sides alike
would pass it.  The dump hashes were taken from the sparse per-cell-dict
engine that the dense per-link commodity vectors replaced; any change in
the bits of a state value, or in which rows are dumped, shows here.  The
one-cell grid, whose first cells are also last cells, was pinned from the
engine that still applied every flow as a record in phase B.

Both sides of a cut derive the decoder maps independently, so a change to
the slot layout that both derive alike would pass the handshake.  The
partition-file hashes were taken before the slot builders moved onto the
commodity and lane-group tables that `validate()` builds; any change in a
fragment, the metagraph, a decoder map or the partition file shows here.
The file-set hashes, one node per fragment and an imported random
assignment, were taken before fragments were cut in one pass.

The dumps of both sides of a cut would agree even if the two sides changed
the frames they swap in the same way.  The frame digests were taken before
phase A wrote boundary flows straight into the outgoing vectors; any change
in the bytes of a frame, header or payload, handshake or step, shows here.
"""

import hashlib
import json
import random

import pytest

from ctmdist.cli import main
from ctmdist.comm import DEFAULT_TIMEOUT, HEADER, SocketDuplex
from ctmdist.gridgen import generate_grid
from ctmdist.partition import build_subnetworks, partition_nodes
from ctmdist.runner import rows_to_csv, run_sequential
from ctmdist.scenario import parse_scenario, save_scenario

from conftest import lanes_grid, merge_diverge_doc
from support import run_in_threads

GOLDEN = {
    "grid4x4": "27e3e5a6f7a7de8f53fe527f73b954bf95afb3e22c5b7f14e1440e26991c4200",
    "grid4x4-1cell": "a0676b87a393078088020c927ca6457ad859b97f7aa5ec1edf27a63722e6112e",
    "merge": "b39698be889484726e08cb381c471631984e84b5d22f625e3a8a5b9a3dbd216d",
    "lanes5x5": "72d58b4591821f508a82c2ef3334cc66249e2c2867ec5fb97c24368a3d75fc2a",
}


def _scenario(name):
    if name == "grid4x4":
        return generate_grid(4, 4), 200
    if name == "grid4x4-1cell":
        return generate_grid(4, 4, link_length=100.0), 200
    if name == "merge":
        return parse_scenario(json.dumps(merge_diverge_doc())), None
    return lanes_grid(), None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sequential_dump_matches_golden(name):
    scenario, steps = _scenario(name)
    text = rows_to_csv(run_sequential(scenario, steps=steps).rows)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]


PARTITION_FILES = {
    "grid4x4-n3": {
        "decoder_0_to_1.json": "ac85dc242ab6ec39ca2138527e115c296978628de0f99901e0746d298d34de72",
        "decoder_0_to_2.json": "766d3267ddb5a41c26d5dce4a1c400d6d6fc1d1acbe08a99df9aaef0dcaeb2df",
        "decoder_1_to_0.json": "197a5e5cdc179d2b8725afa39184e8de5c8a7757f2b5fabdc514a0ec1614c829",
        "decoder_1_to_2.json": "b108c298ae5fe0de040fa701acb81de206afdb460d9fa0054cb30dbfc8f3a1c6",
        "decoder_2_to_0.json": "ee0ecf59d96c27a1411beeaa6e6c0c7af3c382bd74df3843fc8cd26e54dff330",
        "decoder_2_to_1.json": "60ca37f81c1f1764edd57e466add10698527f552c995c4305c04b8b56d79cadf",
        "fragment_0.json": "e25f7ea783c5eaec54eafa01f537bb2e4565d847fdf5ef5a66767629a673b7ed",
        "fragment_1.json": "ea6aea5a4fa22efab0394b30807fa09c8788d930590401c3e9d619deb1240312",
        "fragment_2.json": "6894d4af5c0f579d2f6ebaed7e00239bbc9f3518069dd48a52b6a118b59d5d90",
        "metagraph.json": "2e4810d1c407c7e90e1f08a0c90d83d4e6c1c1b29ae9fcdf439d87e3e417f72c",
        "partition.txt": "8fb9a9bd106cab5c9064d718ac83b66e09b07a7b2ec4fa87f73591e10eb457d4",
    },
    "lanes5x5-n2": {
        "decoder_0_to_1.json": "ddf1f0bea90bd167fab8ea1d6392c06f5f3cf9068babad8199a9817369d1efcc",
        "decoder_1_to_0.json": "edbf88923cd695d7d8b8168bf37ab01aaddcac74cbf95b92c60533de0568d05c",
        "fragment_0.json": "54b859d040513536bb5d827b8138ad5b592bf99ef9349dd5758cc18c270e9c55",
        "fragment_1.json": "28a63a384b9bfd9b5871fcb3617cb80c6e009f854d17de16bea6d52ffbd6a7c8",
        "metagraph.json": "1a2e90d268b957a921bdaaf814ea5cfadfbced9e18bae9c462f6f8613f8ef5ed",
        "partition.txt": "da9723d617374558dff38587fda5d821ce49d82579984ac8c896a43ca179318a",
    },
}


@pytest.mark.parametrize("name", sorted(PARTITION_FILES))
def test_partition_files_match_golden(name, tmp_path):
    scenario, n = (generate_grid(4, 4), 3) if name == "grid4x4-n3" else (lanes_grid(), 2)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, str(path))
    out = tmp_path / "parts"
    argv = ["partition", "--scenario", str(path), "--n", str(n), "--out-dir", str(out)]
    assert main(argv) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert written == PARTITION_FILES[name]


# one sha256 over every file `ctmdist partition` writes, each as its name,
# its length and its bytes, in name order: one node per fragment, and an
# imported seeded random assignment
PARTITION_SETS = {
    "grid3x3-n25": "adb4f6d2bafc24c4f1c0ff1eec1adfeead74a0160068353ccc281d13a3a5ec95",
    "lanes5x5-n2-import": "8f46016ac961d0eeb103ff520c72daa11c70a95bcab10d6ef896c67de475b555",
}


@pytest.mark.parametrize("name", sorted(PARTITION_SETS))
def test_partition_file_set_matches_golden(name, tmp_path):
    path = tmp_path / "scenario.json"
    argv = ["partition", "--scenario", str(path), "--out-dir", str(tmp_path / "parts")]
    if name == "grid3x3-n25":
        scenario = generate_grid(3, 3)
        argv += ["--n", "25"]
    else:
        scenario = lanes_grid()
        rng = random.Random(24)
        assignment = tmp_path / "assignment.txt"
        lines = [f"{nid} {rng.randrange(2)}\n" for nid in sorted(scenario.nodes)]
        assignment.write_text("".join(lines))
        argv += ["--n", "2", "--import", str(assignment)]
    save_scenario(scenario, str(path))
    assert main(argv) == 0
    digest = hashlib.sha256()
    for f in sorted((tmp_path / "parts").iterdir()):
        data = f.read_bytes()
        digest.update(f"{f.name}\n{len(data)}\n".encode("ascii") + data)
    assert digest.hexdigest() == PARTITION_SETS[name]


# sha256 of the frames each worker sent on each channel over 200 steps, the
# handshake first, in the order sent
FRAMES = {
    "grid4x4-n3": {
        "0->1": "9513f6c9f98bc1e43ebc0902c6624f648a01e6161aa92b9208e6382a81a2f769",
        "0->2": "60a521c49a5dcf4279d1186e464f4a7807468663301f2450c066dd3cd3a411d9",
        "1->0": "892a00acacf89c098461c73c815b8336d7278baeb6fa575dd994a7b4a47faba4",
        "1->2": "c10a3f6da54910ac2cf455c036e8390cc592a2c859d5e4b809ec7fd62c9e39aa",
        "2->0": "6764fe848498aae4c6f10ad7db63ad04d5ba18eda6c319bfb3bda6c64139a0b0",
        "2->1": "d47be9fe2832be27d6c5b099dff9c5e4a672e672922843586b59179bb3e6330f",
    },
    "lanes5x5-n2": {
        "0->1": "bc081de9071e3c61c9a8f7fc219493216acf0829a6b33930d54c489480c3357a",
        "1->0": "8879c446d8078136f47f62d855255650168e457b027ef7aae49d3933f5052b4c",
    },
}


def frame_digests(scenario, n, steps):
    """Channel "sender->receiver" -> sha256 of every frame sent on it, run
    by workers in threads of this process."""
    digests = {}

    class Recorder(SocketDuplex):
        def send_frame(self, data, timeout=DEFAULT_TIMEOUT):
            _step, sender, receiver, _count = HEADER.unpack_from(data)
            digests.setdefault(f"{sender}->{receiver}", hashlib.sha256()).update(data)
            super().send_frame(data, timeout)

    subs = build_subnetworks(scenario, partition_nodes(scenario, n, seed=0))
    run_in_threads(subs, steps, Recorder)
    return {channel: h.hexdigest() for channel, h in sorted(digests.items())}


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_frames_match_golden(name):
    scenario, n = (generate_grid(4, 4), 3) if name == "grid4x4-n3" else (lanes_grid(), 2)
    assert frame_digests(scenario, n, 200) == FRAMES[name]
