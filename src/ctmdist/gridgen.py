"""Synthetic tiled grid network generator for benchmark scenarios.

Tile layout: an R x C lattice of junctions.  Horizontal neighbors are joined
by two-way links.  Vertical neighbors are joined two-way in even columns and
one-way (southbound) in odd columns, which keeps the link/node ratio of
large grids near the 3.3 observed in regional road graphs.  Every boundary
junction carries a pendant source link (inbound) and a pendant sink link
(outbound).  Turning is uniform over the available out-links at every
junction; one probabilistic vehicle type carries all demand.

Counts (R, C >= 1, B = number of boundary junctions):
    nodes = R*C + 2*B
    links = 2*R*(C-1) + (R-1)*(2*ceil(C/2) + floor(C/2)) + 2*B
"""

from __future__ import annotations

import math

from .errors import ScenarioError
from .scenario import (
    DemandRow,
    FDParams,
    Link,
    Node,
    RoadConnection,
    Scenario,
    SimParams,
    SplitRow,
    VehicleType,
    validate,
)

DEFAULT_FD = FDParams(
    capacity=0.5,  # 1800 vph per lane
    free_flow_speed=25.0,
    congestion_wave_speed=6.25,
    jam_density=0.125,
)
DEFAULT_LINK_LENGTH = 200.0
DEFAULT_LANES = 2
DEFAULT_DEMAND_VPH_PER_LANE = 2000.0
DEFAULT_DT = 4.0
DEFAULT_STEPS = 200


def grid_counts(rows: int, cols: int) -> tuple[int, int]:
    """Closed-form (nodes, links) for the documented tile layout."""
    if rows < 1 or cols < 1:
        raise ScenarioError("grid dimensions must be >= 1")
    junctions = rows * cols
    boundary = junctions - max(rows - 2, 0) * max(cols - 2, 0)
    horizontal = 2 * rows * (cols - 1)
    vertical = (rows - 1) * (2 * math.ceil(cols / 2) + cols // 2)
    return junctions + 2 * boundary, horizontal + vertical + 2 * boundary


def generate_grid(
    rows: int,
    cols: int,
    demand_vph_per_lane: float = DEFAULT_DEMAND_VPH_PER_LANE,
    link_length: float = DEFAULT_LINK_LENGTH,
    lanes: int = DEFAULT_LANES,
    dt: float = DEFAULT_DT,
    steps: int = DEFAULT_STEPS,
) -> Scenario:
    """Build the tiled grid scenario and validate() it.  Deterministic:
    equal inputs yield a byte-identical serialization."""
    grid_counts(rows, cols)  # rejects a size below 1

    junction = lambda r, c: r * cols + c
    nodes: dict[int, Node] = {nid: Node(id=nid) for nid in range(rows * cols)}
    links: dict[int, Link] = {}

    def add_link(start: int, end: int) -> int:
        lid = len(links)
        links[lid] = Link(
            id=lid,
            start_node=start,
            end_node=end,
            length=link_length,
            lanes=lanes,
            fd=DEFAULT_FD,
        )
        return lid

    # two-way horizontal streets
    for r in range(rows):
        for c in range(cols - 1):
            a, b = junction(r, c), junction(r, c + 1)
            add_link(a, b)
            add_link(b, a)
    # vertical: two-way in even columns, southbound one-way in odd columns
    for r in range(rows - 1):
        for c in range(cols):
            a, b = junction(r, c), junction(r + 1, c)
            add_link(a, b)
            if c % 2 == 0:
                add_link(b, a)

    # a pendant source and sink at every boundary junction; validate() marks
    # the links with demand as sources
    rate = demand_vph_per_lane * lanes / 3600.0
    demands: list[DemandRow] = []
    for r in range(rows):
        for c in range(cols):
            if 0 < r < rows - 1 and 0 < c < cols - 1:
                continue
            j = junction(r, c)
            src_node = len(nodes)
            nodes[src_node] = Node(id=src_node)
            sink_node = len(nodes)
            nodes[sink_node] = Node(id=sink_node)
            source = add_link(src_node, j)
            demands.append(DemandRow(link=source, vtype=0, profile=((0.0, rate),)))
            add_link(j, sink_node)

    # all-to-all turning at each junction except U-turns, split uniformly
    in_links: dict[int, list[int]] = {nid: [] for nid in nodes}
    out_links: dict[int, list[int]] = {nid: [] for nid in nodes}
    for link in links.values():
        out_links[link.start_node].append(link.id)
        in_links[link.end_node].append(link.id)

    connections: dict[int, RoadConnection] = {}
    splits: list[SplitRow] = []
    for nid in sorted(nodes):
        for in_id in sorted(in_links[nid]):
            src = links[in_id]
            outs = []
            for out_id in sorted(out_links[nid]):
                dst = links[out_id]
                if dst.end_node == src.start_node:
                    continue  # U-turn
                cid = len(connections)
                connections[cid] = RoadConnection(
                    id=cid,
                    in_link=in_id,
                    out_link=out_id,
                    in_lanes=(1, src.lanes),
                    out_lanes=(1, dst.lanes),
                )
                outs.append(out_id)
            if outs:
                p = 1.0 / len(outs)
                splits.append(
                    SplitRow(
                        node=nid,
                        in_link=in_id,
                        vtype=0,
                        start_time=0.0,
                        ratios=tuple((o, p) for o in outs),
                    )
                )
    splits.sort(key=lambda row: row.in_link)  # listed by in-link

    vtypes = {0: VehicleType(id=0, routing="probabilistic")}

    scenario = Scenario(
        nodes=nodes,
        links=links,
        connections=connections,
        vehicle_types=vtypes,
        splits=splits,
        demands=demands,
        sim=SimParams(dt=dt, steps=steps),
    )
    validate(scenario)
    return scenario
