"""The model against traffic-flow theory: documented behaviour that the
engine must show, stated from the theory rather than from the engine."""

import json

import pytest

from ctmdist.engine import Engine
from ctmdist.scenario import TERMINAL, parse_scenario

from conftest import link


def diverge_doc():
    """Link 0 (two 50 m cells) diverging at node 1 into the sink branches
    link 1 and link 2, one lane each.  One probabilistic type splits 50/50.
    Per lane and step, capacity is 1 vehicle and a cell holds 6.25 at jam."""
    return {
        "nodes": [{"id": i} for i in range(4)],
        "links": [link(0, 0, 1, lanes=1), link(1, 1, 2, lanes=1), link(2, 1, 3, lanes=1)],
        "roadconnections": [
            {"id": 0, "in_link": 0, "out_link": 1},
            {"id": 1, "in_link": 0, "out_link": 2},
        ],
        "vehicletypes": [{"id": 0, "routing": {"type": "probabilistic"}}],
        "splits": [
            {"node": 1, "in_link": 0, "vtype": 0, "start_time": 0.0, "ratios": {"1": 0.5, "2": 0.5}}
        ],
        "demands": [],
        "simulation": {"dt": 2.0, "steps": 1},
    }


def one_step(branch_1_jammed):
    """Link 0's last cell after one step, and what link 2 received."""
    eng = Engine(parse_scenario(json.dumps(diverge_doc())))
    # 0.3 vehicles headed for link 1 and 0.4 for link 2, under capacity, so
    # each commodity's demand is all of it
    eng.set_cell_value(0, 0, 1, (0, 1), 0.3)
    eng.set_cell_value(0, 0, 1, (0, 2), 0.4)
    eng.active.add(0)
    if branch_1_jammed:
        eng.set_cell_value(1, 0, 0, (0, TERMINAL), 6.25)  # no supply
    eng.phase_b(eng.phase_a(0))
    last = (eng.cell_value(0, 0, 1, (0, 1)), eng.cell_value(0, 0, 1, (0, 2)))
    return last, eng.cell_value(2, 0, 0, (0, TERMINAL))


def test_diverge_is_not_fifo():
    # The node model resolves each downstream link on its own, so a jammed
    # branch holds back only the vehicles headed into it.  Daganzo's FIFO
    # diverge (Transp. Res. B 29(2), 1995) would scale every outflow by the
    # jammed branch's share and send nothing into link 2.
    (to_1, to_2), received = one_step(branch_1_jammed=True)
    open_last, unconstrained = one_step(branch_1_jammed=False)
    assert unconstrained == pytest.approx(0.4, abs=1e-12)
    assert open_last == (0.0, 0.0)
    # the open branch takes its unconstrained flow; only the jammed
    # branch's commodity stays in link 0's last cell
    assert received == unconstrained
    assert (to_1, to_2) == (0.3, 0.0)
