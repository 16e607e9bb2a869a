"""Golden dumps: the sequential engine's CSV dump, pinned by sha256.

Criterion 1 compares the engine with itself (distributed against
sequential), so a change that alters the arithmetic of both sides alike
would pass it.  These hashes were taken from the sparse per-cell-dict
engine that the dense per-link commodity vectors replaced; any change in
the bits of a state value, or in which rows are dumped, shows here.
"""

import hashlib
import json

import pytest

from ctmdist.gridgen import generate_grid
from ctmdist.runner import rows_to_csv, run_sequential
from ctmdist.scenario import parse_scenario

from conftest import lanes_grid, merge_diverge_doc

GOLDEN = {
    "grid4x4": "27e3e5a6f7a7de8f53fe527f73b954bf95afb3e22c5b7f14e1440e26991c4200",
    "merge": "b39698be889484726e08cb381c471631984e84b5d22f625e3a8a5b9a3dbd216d",
    "lanes5x5": "72d58b4591821f508a82c2ef3334cc66249e2c2867ec5fb97c24368a3d75fc2a",
}


def _scenario(name):
    if name == "grid4x4":
        return generate_grid(4, 4), 200
    if name == "merge":
        return parse_scenario(json.dumps(merge_diverge_doc())), None
    return lanes_grid(), None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sequential_dump_matches_golden(name):
    scenario, steps = _scenario(name)
    text = rows_to_csv(run_sequential(scenario, steps=steps).rows)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]
