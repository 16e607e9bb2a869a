"""Macroscopic (cell-transmission) engine for one subnetwork.

State is the number of vehicles per (lane group, cell, commodity), where a
commodity is a (vehicle type, next downstream link) pair.  Every step runs:

  phase A: lane changes; demand/supply per cell; internal cell flows and
           sink discharge; flow resolution at every node this engine owns
           (proportional merge against the downstream link's first-cell
           supply) with next-link assignment for the entering flows.  Each
           flow is applied to the cells as soon as it is computed.
  phase B: the flows received from neighbors, the deliveries phase A
           deferred, source injection, then one ascending pass over the
           active and touched links that settles float dust, folds each
           cell's total once, decides which links stay active and counts
           the vehicles in the network.

Between the phases a distributed run exchanges boundary flows with
neighboring subnetworks; a sequential run is the same engine with every node
owned and nothing to exchange.  Boundary flows are the flows through the
road connections of overlap links, which the neighbor applies to its
replica.  They travel as messages of fixed layout, one double per slot of
the channel's decoder map, and each is written once and read once.
`bind_channel` lays a channel out in one pass over the `positions` of its
two maps: each connection at an owned node whose in link (removals) or out
link (deliveries) the neighbor shares gets a slot list indexed by lane
group and commodity position, and each receive slot gets a `ReceiveEntry`,
the place of its flow in this engine.  Phase A writes each flow it resolves
on a shared link into the neighbor's message in the `StepPlan` it returns
(`boundary_records`), at the flow's slot, as it applies the flow to its own
cells; a slot without flow keeps +0.0.  Phase B takes the plan and the
received doubles, zero slots skipped, in slot order and ascending neighbor
order: each a removal from its entry's last cell or a delivery into its
first.  All accumulation loops iterate in ascending (link, lane group,
connection, commodity) order so that a partitioned run reproduces the
sequential run bit for bit.

Slot order keeps those bits because no key repeats in one direction in one
step: each connection's entries and each delivery's positions are distinct,
and a link's slots in one direction are all deliveries or all removals.
Phase A therefore writes each slot at most once, so a message holds each
flow exactly as phase A applied it, and the received flows of one step
touch distinct cell entries, each at most once, so the order among them
changes no value.

`partition._message_map` derives each decoder-map slot with its key from the
fragment the engine is built from, so the key fits by construction: its link
is an overlap link, which `validate()` checks has one owned end, so the
engine simulates it; its connection is in the link's `in_conns` (delivery)
or a lane group's `conn_ids` (removal); and its group and position index
`Scenario.lane_groups` and `Scenario.commodities`, the engine's own tables.
A decoder file must equal the derived map, and the handshake compares the
maps both fragments of a channel derive; both abort with a protocol error.
Every flow phase A writes for a neighbor has a slot: a flow without one
would find None in its slot list and fail.  The receive table holds only
the receive map's keys, so phase B checks none.

Cells are dense.  Each link has a fixed, ascending tuple of the commodities
that can occur on it, read from `Scenario.commodities`, the table that
`validate()` builds and the decoder maps share: on a sink, (vt, TERMINAL)
for every vehicle type; on other links, the path successor for each
deterministic type whose path holds the link, and every successor for each
probabilistic type.  `validate()` checks every deterministic path on the
links a scenario simulates, so on a simulated non-sink link every
commodity's next link is a successor, which some lane group serves, and only
sinks carry TERMINAL; the engine relies on that and checks it nowhere.
Every commodity that enters a link has a position there, as
`derive_link_tables` builds the table and `validate()` checks that split
rows name successors: `entry_positions` looks positions up unchecked.  A
cell is a list of floats in that order, with 0.0 for an absent commodity.
The results are the same, bit for bit, as those of a map from commodity to
vehicles iterated in sorted order:

- A dense sum in ascending order equals the sparse sorted sum, because
  `x + 0.0 == x` for every value a cell can hold.  Cell totals, connection
  demands, arrivals per vehicle type, `exited` and `in_network` are all
  such left-to-right sums starting from 0.0.
- Products keep their two-step order: an internal flow is
  `(v * scale) * (flow / total)`, never `v * (scale * (flow / total))`, and
  a delivery is `(arrived * (group supply / link supply)) * fraction`.
  Each node-flow entry is `d * factor`, the one product the node model's
  factor takes part in.  The factor is 1.0 when supply covers demand, and
  a link with one lane group gets a share of 1.0 without dividing; both
  are exact, since `x * 1.0 == x` and `s / s == 1.0` for `s > 0`.
- `in_network` adds per-cell totals in ascending link order.  It skips
  inactive links, which only ever hold zeros.
- The builtin `sum()` never runs over simulation floats: since CPython 3.12
  it adds floats with compensated (Neumaier) summation, which changes the
  bits.  `cell_total` is a plain left fold.

Every entry receives its additions and subtractions in one fixed order, and
deltas are never summed first: `(c - r) + d` is not `c + (d - r)`.  Per
link the order is internal flows in ascending (group, cell), removals,
discharge, deliveries, injection, as if the step's flows were applied as a
list of records.  Phase A keeps that order while it applies each flow at
once:

- A link's totals, connection demands, discharge and internal amounts are
  all read before any of its flows are applied.  `_move_internal` reads
  cell k's amounts from its pre-step list and only then replaces it.
- Cell k gets +(k-1 -> k) before -(k -> k+1): k runs in ascending order and
  the new entry is `(v + inflow) - outflow`.
- The last cell gets its internal inflow, then at most one removal, then
  discharge.  Every active link's internal flows are applied before the
  node loop makes any removal, and a lane group serves each next link
  through one connection, so a (group, position) has one removal at most.
  Discharge happens only on sinks, which have no outgoing connections and
  so no removals; it follows the sink's internal flows directly.
- The first cell gets its internal outflow, then the deliveries in
  ascending (target, connection) order, then received flows, then
  injection.  A link's deliveries all come from one target in the node
  loop, or all from the neighbor when a neighbor owns its start node.
- A one-cell link's first cell is also its last, and the node loop may make
  its deliveries (as a target) before its removals (as an upstream link).
  Deliveries into one-cell links are therefore deferred: phase B applies
  them after every removal, received ones included.
- Both replicas of an overlap link keep the order: the side owning the end
  node applies removals in phase A and received deliveries in phase B; the
  side owning the start node applies received removals in phase B, before
  its deferred one-cell deliveries.  No flow reaches the wrong side:
  `partition._message_map` reads roles from `owned_nodes` as the engine
  does, and gives a receiver delivery slots only on links whose end node it
  owns and removal slots only on links whose start node it owns.
- Cell totals live on the link (`LinkRuntime.totals`).  Phase B's pass
  folds each cell's total after its last update of the step, in the pass
  that clamps the cell, for every link it settles; a link that goes
  inactive keeps its zeros.  Phase A of the next step reuses them: lane
  changes read a target group's room from them and fold again the totals
  of the cells they change, and the demands, supplies and internal moves
  read them.  `set_cell_value` recomputes its link's.

Removals and deliveries are written into messages for nonzero flows only,
and dumps skip zero entries.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from .errors import InternalAssertion, ScenarioError
from .scenario import Commodity, Link, Scenario, TERMINAL, rate_at

# a receive slot's place in the engine: (link, the lane group's cells, cell
# index, commodity position); cell index -1 is a removal from the last
# cell, 0 a delivery into the first
ReceiveEntry = tuple[int, list[list[float]], int, int]

NEG_TOL = -1e-12


def cell_total(cell: list[float]) -> float:
    """Vehicles in a cell: a left fold from 0.0 in commodity order."""
    return reduce(add, cell, 0.0)


def compute_demand(
    cell: list[float], n_total: float, cap_per_step: float
) -> tuple[float, list[float]]:
    """Sending capability of a cell holding `n_total` vehicles: min(n, C)
    split over commodities in proportion to their counts.  Returns (total,
    per-position demands); (0.0, []) for an empty cell."""
    if n_total <= 0.0:
        return 0.0, []
    total = cap_per_step if cap_per_step < n_total else n_total
    scale = total / n_total
    return total, [v * scale for v in cell]


def compute_supply(
    occupied: float, cap_per_step: float, wv_ratio: float, jam_veh: float
) -> float:
    """Receiving capability: min(C, (w/v)*(N_jam - n)), floored at zero."""
    room = wv_ratio * (jam_veh - occupied)
    supply = cap_per_step if cap_per_step < room else room
    return supply if supply > 0.0 else 0.0


def resolve_node_flows(conns: list[tuple[int, list]], supply: float) -> float:
    """Proportional-merge node model at one downstream link.

    `conns` holds each road connection into the link that has demand, in
    ascending id order, as (id, [total demand, entries]).  Returns the
    factor that scales every entry: supply/demand if the summed demand
    exceeds the link's first-cell `supply`, in a single round with no
    redistribution, else 1.0.
    """
    total = 0.0
    for _cid, (demand, _entries) in conns:
        total += demand
    return supply / total if total > supply else 1.0


@dataclass(slots=True)
class GroupRuntime:
    """One lane group's static coefficients, commodity tables and cells."""

    index: int
    cell_count: int
    cap_step: float  # vehicles per step through the group
    jam_veh: float  # vehicles at jam density in one cell
    wv_ratio: float
    cells: list[list[float]]
    # (position, serving connection, its out link, group index, vehicle
    # type) per served commodity; also the node model's key for the entry
    outflows: tuple[tuple[int, int, int, int, int], ...] = ()
    # (position, adjacent group to move toward) per misplaced commodity
    lane_moves: tuple[tuple[int, int], ...] = ()


@dataclass(slots=True)
class LinkRuntime:
    link: Link
    groups: list[GroupRuntime]
    inflow_local: bool  # start node owned: this engine resolves entering flows
    outflow_local: bool  # end node owned: this engine resolves leaving flows
    neighbor: int | None  # the subnetwork sharing an overlap link, else None
    comms: tuple[Commodity, ...]  # ascending; the layout of every cell
    comm_index: dict[Commodity, int]
    # per lane group, the vehicles in each cell; see the module docstring
    totals: list[list[float]]

    @property
    def authoritative(self) -> bool:
        # overlap links are replicated; the upstream (relative sink) side owns
        # the values reported in merged dumps and metrics
        return self.inflow_local


@dataclass(slots=True)
class ConnRuntime:
    """A road connection at a node this engine owns."""

    upstream: LinkRuntime  # its in link
    downstream: LinkRuntime  # its out link
    # send slots by [lane group][commodity position] of the in link
    # (removals) and of the out link (deliveries), once the channel to the
    # neighbor sharing the link is bound; None in a slot list marks a flow
    # with no slot
    removal_slots: list[list[int | None]] | None = None
    delivery_slots: list[list[int | None]] | None = None


def slot_lists(lrt: LinkRuntime) -> list[list[int | None]]:
    """An empty slot list for each lane group and commodity position of a
    link."""
    return [[None] * len(lrt.comms) for _ in lrt.groups]


@dataclass(slots=True)
class StepPlan:
    time: float  # the step's start, in seconds
    # neighbor -> the message to it, one double per send slot, that phase
    # A fills with the flows it resolves on the links they share
    boundary: dict[int, array] = field(default_factory=dict)
    # (first cell, position, vehicles) of deliveries into one-cell links,
    # applied in phase B after every removal
    deferred: list[tuple[list[float], int, float]] = field(default_factory=list)
    # links a connection demands to enter; phase A delivers only into these
    targets: set[int] = field(default_factory=set)
    exited: float = 0.0  # sink discharge on authoritative links


@dataclass(slots=True)
class StepStats:
    entered: float = 0.0
    exited: float = 0.0
    in_network: float = 0.0
    queued: float = 0.0


class Engine:
    """Simulator for the links incident to a set of owned nodes: by default
    every node of a whole scenario, or a fragment's own `owned_nodes`."""

    def __init__(self, scenario: Scenario, owned_nodes: set[int] | None = None):
        self.scenario = scenario
        self.dt = scenario.sim.dt
        self.eta = scenario.sim.lane_change_rate
        sub = scenario.subnetwork
        default = scenario.nodes if sub is None else sub.owned_nodes  # never a fragment's stubs
        self.owned = set(default if owned_nodes is None else owned_nodes)
        for nid in self.owned:
            if nid not in scenario.nodes:
                raise ScenarioError(f"owned node {nid} is not in the scenario")

        neighbor_of = {} if sub is None else sub.neighbor_of_link

        self.links: dict[int, LinkRuntime] = {}
        for lid in sorted(scenario.links):
            link = scenario.links[lid]
            if link.start_node not in self.owned and link.end_node not in self.owned:
                continue  # context-only stub link carried for referential integrity
            self.links[lid] = self._build_link(link, neighbor_of.get(lid))

        # the connections at owned nodes, whose flows phase A resolves
        self._conns: dict[int, ConnRuntime] = {}
        for cid, conn in scenario.connections.items():
            upstream = self.links.get(conn.in_link)
            if upstream is not None and upstream.outflow_local:
                self._conns[cid] = ConnRuntime(upstream, self.links[conn.out_link])
        # neighbor -> the zero message that phase A fills, once bound
        self._send_zeros: dict[int, array] = {}

        self.queues: dict[tuple[int, int], float] = {}
        # self.links is in ascending id order
        self.source_links = tuple([lid for lid in self.links if scenario.demand_rows(lid)])
        self._source_set = frozenset(self.source_links)
        self.active: set[int] = set(self.source_links)
        # entry fractions stay valid while no split row starts: cached per
        # epoch, the number of distinct split start times passed
        self._split_times = sorted({row.start_time for row in scenario.splits})
        self._epoch: int | None = None
        self._position_cache: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}

    def _build_link(self, link: Link, neighbor: int | None) -> LinkRuntime:
        """The runtime of one simulated link, built in one pass over its
        lane groups.  A non-sink link with one lane group serves every
        commodity through that group, as `validate()` guarantees, so its
        outflows come straight from its connections and it has no lane
        moves."""
        scenario = self.scenario
        comms = scenario.commodities[link.id]
        width = len(comms)
        fd = link.fd
        capacity, jam_density, dt = fd.capacity, fd.jam_density, self.dt
        wv_ratio = fd.congestion_wave_speed / fd.free_flow_speed
        lane_groups = scenario.lane_groups[link.id]
        groups = []
        for lg in lane_groups:
            lanes = lg.lane_count
            groups.append(
                GroupRuntime(
                    lg.index,
                    lg.cell_count,
                    (capacity * lanes) * dt,
                    (jam_density * lanes) * lg.cell_length,
                    wv_ratio,
                    [[0.0] * width for _ in range(lg.cell_count)],
                )
            )
        connections = scenario.connections
        if len(groups) == 1 and not link.is_sink:
            conn_by_next = {connections[cid].out_link: cid for cid in lane_groups[0].conn_ids}
            groups[0].outflows = tuple(
                [(p, conn_by_next[nxt], nxt, 0, vt) for p, (vt, nxt) in enumerate(comms)]
            )
        elif not link.is_sink:
            # per group: downstream link -> serving connection
            serving = [
                {connections[cid].out_link: cid for cid in lg.conn_ids} for lg in lane_groups
            ]
            servers: dict[int, list[int]] = {}  # downstream link -> serving groups, ascending
            for h, conn_by_next in enumerate(serving):
                for nxt in conn_by_next:
                    servers.setdefault(nxt, []).append(h)
            for g, conn_by_next in zip(groups, serving):
                outflows, moves = [], []
                for p, (vt, nxt) in enumerate(comms):
                    cid = conn_by_next.get(nxt)
                    if cid is not None:
                        outflows.append((p, cid, nxt, g.index, vt))
                        continue
                    # the nearest group serving nxt, the lowest on ties
                    best = min(servers[nxt], key=lambda h: abs(h - g.index))
                    moves.append((p, g.index + 1 if best > g.index else g.index - 1))
                g.outflows, g.lane_moves = tuple(outflows), tuple(moves)
        return LinkRuntime(
            link,
            groups,
            link.start_node in self.owned,
            link.end_node in self.owned,
            neighbor,
            comms,
            dict(zip(comms, range(width))),
            [[0.0] * g.cell_count for g in groups],
        )

    def bind_channel(
        self,
        neighbor: int,
        send: dict[tuple[int, int, int, int], int],
        receive: dict[tuple[int, int, int, int], int],
    ) -> list[ReceiveEntry]:
        """Lay out the channel to `neighbor` from the `positions` of its
        send and receive decoder maps.  From then on phase A writes every
        flow it resolves on a link shared with `neighbor` into the message
        to it, at the slot of the flow's connection, lane group and
        commodity position.  Returns the receive table: each receive slot's
        `ReceiveEntry`, in slot order, which `decode` pairs with the
        received values for phase B."""
        conns = self._conns
        for conn in conns.values():
            up, down = conn.upstream, conn.downstream
            if not up.inflow_local and up.neighbor == neighbor:
                conn.removal_slots = slot_lists(up)
            if not down.outflow_local and down.neighbor == neighbor:
                conn.delivery_slots = slot_lists(down)
        connections = self.scenario.connections
        for (lid, cid, gidx, p), slot in send.items():
            conn = conns[cid]
            slots = conn.removal_slots if connections[cid].in_link == lid else conn.delivery_slots
            slots[gidx][p] = slot
        self._send_zeros[neighbor] = array("d", bytes(8 * len(send)))
        links = self.links
        return [
            (lid, links[lid].groups[gidx].cells, -1 if connections[cid].in_link == lid else 0, p)
            for lid, cid, gidx, p in receive
        ]

    # ------------------------------------------------------------------
    # phase A
    # ------------------------------------------------------------------

    def phase_a(self, step: int) -> StepPlan:
        """Lane changes, demand/supply, flow resolution at owned nodes, and
        the flows this engine resolves, applied to the cells as they are
        computed (see the module docstring for the order).

        Returns the step plan, which phase B takes; its messages must be
        shipped to their neighbors before phase B.
        """
        time = step * self.dt
        plan = StepPlan(time, {nb: array("d", zeros) for nb, zeros in self._send_zeros.items()})
        epoch = bisect_right(self._split_times, time)
        if epoch != self._epoch:
            self._epoch = epoch
            self._position_cache.clear()

        links = self.links
        active = sorted(self.active)
        for lid in active:
            lrt = links[lid]
            if len(lrt.groups) > 1:
                self.apply_lane_changes(lrt)

        demand_by_conn: dict[int, list] = {}
        exited = 0.0
        for lid in active:
            lrt = links[lid]
            if not lrt.link.is_sink:
                if lrt.outflow_local:
                    self.compute_connection_demands(lrt, demand_by_conn, plan.targets)
                self._move_internal(lrt)
                continue
            discharge = []
            for g, cell_totals in zip(lrt.groups, lrt.totals):
                total, amounts = compute_demand(g.cells[-1], cell_totals[-1], g.cap_step)
                if total > 0.0:
                    discharge.append((g, amounts))
            self._move_internal(lrt)
            for g, amounts in discharge:
                g.cells[-1] = [v - a for v, a in zip(g.cells[-1], amounts)]
                if lrt.authoritative:
                    for amount in amounts:
                        exited += amount
        plan.exited = exited

        # each target's node: the proportional merge, then each connection's
        # removals from its in link and deliveries into the target's first
        # cells, split over the lane groups by their shares of its supply
        # and by assigned next links
        in_conns = self.scenario.in_conns
        conns_at = self._conns
        boundary = plan.boundary
        deferred = plan.deferred
        cache = self._position_cache
        for target in sorted(plan.targets):
            tlrt = links[target]
            groups = tlrt.groups
            conns = [(c, demand_by_conn[c]) for c in in_conns[target] if c in demand_by_conn]
            if len(groups) == 1:
                # compute_supply, floored at zero, and a share of s / s == 1.0
                g = groups[0]
                cap = g.cap_step
                room = g.wv_ratio * (g.jam_veh - tlrt.totals[0][0])
                supply = cap if cap < room else room
                if supply > 0.0:
                    shares = ((0, 1.0),)
                else:
                    supply, shares = 0.0, ()
            else:
                supply, shares = self._supplies(tlrt)
            factor = resolve_node_flows(conns, supply)
            one_cell = groups[0].cell_count == 1
            for cid, (_demand, entries) in conns:
                conn = conns_at[cid]
                upstream = conn.upstream.groups
                removal_slots = conn.removal_slots
                if removal_slots is not None:
                    removals = boundary[conn.upstream.neighbor]
                arrived: dict[int, float] = {}
                for (p, _cid, _out_link, gidx, vt), d in entries:
                    amount = d * factor
                    if amount:
                        cell = upstream[gidx].cells[-1]
                        cell[p] = cell[p] - amount
                        if removal_slots is not None:
                            removals[removal_slots[gidx][p]] = amount
                    arrived[vt] = arrived.get(vt, 0.0) + amount
                delivery_slots = conn.delivery_slots
                if delivery_slots is not None:
                    deliveries = boundary[tlrt.neighbor]
                if len(arrived) > 1:  # first seen, by lane group; deliver by type
                    arrived = dict(sorted(arrived.items()))
                for vt, total in arrived.items():
                    if total <= 0.0:
                        continue
                    positions = cache.get((target, vt))
                    if positions is None:
                        positions = self.entry_positions(target, vt, time)
                    for gidx, share in shares:
                        # share = group supply / summed supply, divided first
                        base = total * share
                        cell = groups[gidx].cells[0]
                        for p, frac in positions:
                            amount = base * frac
                            if amount:
                                if one_cell:
                                    deferred.append((cell, p, amount))
                                else:
                                    cell[p] = cell[p] + amount
                                if delivery_slots is not None:
                                    deliveries[delivery_slots[gidx][p]] = amount
        return plan

    def apply_lane_changes(self, lrt: LinkRuntime) -> None:
        """Move a fraction eta of misplaced vehicles one lane group toward
        the nearest group serving their next link, capped by target space.
        Runs before any demand computation, on the totals phase B folded,
        and folds again the totals of the cells it changes."""
        groups = lrt.groups
        totals = lrt.totals
        eta = self.eta
        for k in range(groups[0].cell_count):
            # target group -> (source group, position, amount), in the order found
            moves: dict[int, list[tuple[int, int, float]]] = {}
            for g in groups:
                cell = g.cells[k]
                for p, dst in g.lane_moves:
                    v = cell[p]
                    if v:
                        moves.setdefault(dst, []).append((g.index, p, eta * v))
            if not moves:
                continue
            changed = set()
            for dst in sorted(moves):
                wanted = 0.0
                for _src, _p, amount in moves[dst]:
                    wanted += amount
                # caps from the pre-move totals: lateral movements are
                # simultaneous, and cell k's totals are folded again below
                room = groups[dst].jam_veh - totals[dst][k]
                if wanted <= 0.0 or room <= 0.0:
                    continue
                scale = 1.0 if wanted <= room else room / wanted
                dst_cell = groups[dst].cells[k]
                for src, p, amount in moves[dst]:
                    moved = amount * scale
                    src_cell = groups[src].cells[k]
                    src_cell[p] = src_cell[p] - moved
                    dst_cell[p] = dst_cell[p] + moved
                    changed.add(src)
                changed.add(dst)
            for h in changed:
                totals[h][k] = reduce(add, groups[h].cells[k], 0.0)

    @staticmethod
    def _move_internal(lrt: LinkRuntime) -> None:
        """Move each cell's flow into the next cell of its lane group, in
        ascending k.  Cell k's outflow, `(v * scale) * share` per entry, is
        read from its pre-step list, which stays untouched until then, and
        its new list is `(v + inflow) - outflow` entry by entry; the last
        cell only gains."""
        for g, totals in zip(lrt.groups, lrt.totals):
            cells = g.cells
            cap = g.cap_step
            wv_ratio = g.wv_ratio
            jam = g.jam_veh
            inflow = None
            for k in range(g.cell_count - 1):
                cell = cells[k]
                outflow = None
                n_total = totals[k]
                if n_total > 0.0:
                    # compute_demand's total, against compute_supply's supply
                    # (a negative room is no flow, floored or not)
                    total = cap if cap < n_total else n_total
                    room = wv_ratio * (jam - totals[k + 1])
                    supply = cap if cap < room else room
                    flow = total if total < supply else supply
                    if flow > 0.0:
                        scale = total / n_total
                        share = flow / total
                        outflow = [(v * scale) * share for v in cell]
                if outflow is not None:
                    if inflow is None:
                        cells[k] = [v - b for v, b in zip(cell, outflow)]
                    else:
                        cells[k] = [(v + a) - b for v, a, b in zip(cell, inflow, outflow)]
                elif inflow is not None:
                    cells[k] = [v + a for v, a in zip(cell, inflow)]
                inflow = outflow
            if inflow is not None:
                cells[-1] = [v + a for v, a in zip(cells[-1], inflow)]

    def compute_connection_demands(
        self,
        lrt: LinkRuntime,
        demand_by_conn: dict[int, list],
        touched_links: set[int],
    ) -> None:
        """Split the last cell's demand of every lane group over its outgoing
        road connections by commodity next-link; commodities not served by
        their current group wait for a lane change and contribute nothing.
        Each connection gets [total demand, entries], entries being
        (outflow, demand) pairs with `outflow` from the group's table."""
        for g, cell_totals in zip(lrt.groups, lrt.totals):
            n_total = cell_totals[-1]
            if n_total <= 0.0:
                continue
            cell = g.cells[-1]
            cap = g.cap_step
            # compute_demand's scale, for the served positions only
            scale = (cap if cap < n_total else n_total) / n_total
            for outflow in g.outflows:
                v = cell[outflow[0]]
                if not v:
                    continue
                d = v * scale
                cid = outflow[1]
                acc = demand_by_conn.get(cid)
                if acc is None:
                    demand_by_conn[cid] = [d, [(outflow, d)]]
                    touched_links.add(outflow[2])
                else:
                    acc[0] += d
                    acc[1].append((outflow, d))

    @staticmethod
    def _supplies(lrt: LinkRuntime) -> tuple[float, tuple[tuple[int, float], ...]]:
        """First-cell supply of a link with several lane groups, summed over
        them, and each group's (index, share of that sum); no shares when
        the sum is 0."""
        per_group = []
        total = 0.0
        for g, cell_totals in zip(lrt.groups, lrt.totals):
            s = compute_supply(cell_totals[0], g.cap_step, g.wv_ratio, g.jam_veh)
            per_group.append(s)
            total += s
        if total <= 0.0:
            return total, ()
        return total, tuple([(g.index, s / total) for g, s in zip(lrt.groups, per_group)])

    def entry_positions(self, link_id: int, vtype: int, time: float) -> tuple:
        """How flow of `vtype` entering `link_id` divides over the link's
        commodities, as (position, fraction) pairs: the unique path successor
        for deterministic types, the split row for probabilistic ones,
        TERMINAL on sinks.  `derive_link_tables` gives each of them a
        position; a missing split row is the one error left."""
        key = (link_id, vtype)
        cached = self._position_cache.get(key)
        if cached is not None:
            return cached
        lrt = self.links[link_id]
        if lrt.link.is_sink:
            fractions = ((TERMINAL, 1.0),)
        elif self.scenario.vehicle_types[vtype].routing == "deterministic":
            # the link's one commodity of this type holds its path successor
            fractions = [(nxt, 1.0) for vt, nxt in lrt.comms if vt == vtype]
        else:
            fractions = self.scenario.split_row_at(link_id, vtype, time)
            if fractions is None:
                raise ScenarioError(
                    f"no split row for vehicle type {vtype} entering link "
                    f"{link_id} (time {time})"
                )
        comm_index = lrt.comm_index
        result = tuple([(comm_index[(vtype, nxt)], frac) for nxt, frac in fractions])
        self._position_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # phase B
    # ------------------------------------------------------------------

    def phase_b(
        self, plan: StepPlan, received: Iterable[tuple[ReceiveEntry, float]] = ()
    ) -> StepStats:
        """Finish the step `plan` that phase A made: apply the flows
        received from neighbors, each a (`ReceiveEntry`, vehicles) pair as
        `decode` yields them, then the deliveries phase A deferred, inject
        demand, then settle every active or touched link in one ascending
        pass; returns step statistics over this engine's authoritative
        links."""
        links = self.links

        work = self.active | plan.targets
        for (lid, cells, k, p), amount in received:
            cell = cells[k]
            if k:  # -1: a removal from the last cell
                cell[p] = cell[p] - amount
            else:
                cell[p] = cell[p] + amount
            work.add(lid)
        for cell, p, amount in plan.deferred:
            cell[p] = cell[p] + amount

        stats = StepStats(exited=plan.exited)
        for lid in self.source_links:
            stats.entered += self._inject(links[lid], plan.time)

        # settle each cell and fold its total once, decide activity, count
        # vehicles; phase A reuses the totals.  A total is never -0.0 (a
        # fold from +0.0), so skipping the zero ones leaves `in_network`'s
        # bits as adding them would.
        active = self.active
        sources = self._source_set
        in_network = 0.0
        for lid in sorted(work):
            lrt = links[lid]
            authoritative = lrt.authoritative
            busy = lid in sources
            link_totals = []
            for g in lrt.groups:
                group_totals = []
                for cell in g.cells:
                    if cell and not min(cell) >= 0.0:
                        self._clamp(lrt, g, cell)
                    total = reduce(add, cell, 0.0)
                    group_totals.append(total)
                    if total:
                        busy = True
                        if authoritative:
                            in_network += total
                link_totals.append(group_totals)
            lrt.totals = link_totals
            if busy:
                active.add(lid)
            else:
                active.discard(lid)
        stats.in_network = in_network
        for key in sorted(self.queues):
            if links[key[0]].authoritative:
                stats.queued += self.queues[key]
        return stats

    def _inject(self, lrt: LinkRuntime, time: float) -> float:
        """Move external demand into the first cells, spilling the excess to
        a per-(link, vehicle type) queue.  Returns vehicles that entered,
        counted only on the authoritative replica."""
        lid = lrt.link.id
        entered = 0.0
        for row in self.scenario.demand_rows(lid):
            key = (lid, row.vtype)
            queue = self.queues.get(key, 0.0) + rate_at(row.profile, time) * self.dt
            if queue > 0.0:
                positions = self.entry_positions(lid, row.vtype, time)
                for g in lrt.groups:
                    if queue <= 0.0:
                        break
                    cell = g.cells[0]
                    room = g.jam_veh - cell_total(cell)
                    if room <= 0.0:
                        continue
                    taken = queue if queue < room else room
                    for p, frac in positions:
                        cell[p] = cell[p] + taken * frac
                    queue -= taken
                    entered += taken
            self.queues[key] = queue
        return entered if lrt.authoritative else 0.0

    @staticmethod
    def _clamp(lrt: LinkRuntime, g: GroupRuntime, cell: list[float]) -> None:
        """Clamp float dust to zero and reject real negatives."""
        for p, value in enumerate(cell):
            if value < 0.0:
                if value < NEG_TOL:
                    raise InternalAssertion(
                        f"negative occupancy {value} on link {lrt.link.id} "
                        f"group {g.index} commodity {lrt.comms[p]}"
                    )
                cell[p] = 0.0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def cell_value(self, link_id: int, gidx: int, k: int, comm: Commodity) -> float:
        """Vehicles of commodity `comm` in cell `k` of a lane group; 0.0 for
        a commodity that cannot occur on the link."""
        lrt = self.links[link_id]
        p = lrt.comm_index.get(comm)
        return 0.0 if p is None else lrt.groups[gidx].cells[k][p]

    def set_cell_value(
        self, link_id: int, gidx: int, k: int, comm: Commodity, vehicles: float
    ) -> None:
        """Overwrite one cell entry, e.g. to seed a test state.  The link is
        not marked active; its cell totals are recomputed, so the node model
        sees the seeded occupancy even on an inactive link."""
        lrt = self.links[link_id]
        p = lrt.comm_index.get(comm)
        if p is None:
            raise InternalAssertion(f"commodity {comm} cannot occur on link {link_id}")
        lrt.groups[gidx].cells[k][p] = vehicles
        lrt.totals = [list(map(cell_total, g.cells)) for g in lrt.groups]

    def state_rows(self, step: int) -> list[tuple[int, int, int, int, int, int, float]]:
        """Dump rows (step, link, group, cell, vtype, next, vehicles) for the
        nonzero entries of the links this engine is authoritative for, in
        canonical order.  Inactive links are empty and are not visited."""
        rows = []
        for lid in sorted(self.active):
            lrt = self.links[lid]
            if not lrt.authoritative:
                continue
            comms = lrt.comms
            for g in lrt.groups:
                for k, cell in enumerate(g.cells):
                    for p, v in enumerate(cell):
                        if v:
                            vt, nxt = comms[p]
                            rows.append((step, lid, g.index, k, vt, nxt, v))
        return rows

    def boundary_records(self, plan: StepPlan, neighbor: int) -> array:
        """The message `plan` filled for `neighbor`: one double per slot of
        the channel's send map, 0.0 where no flow went."""
        return plan.boundary[neighbor]
