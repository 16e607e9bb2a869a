"""Macroscopic (cell-transmission) engine for one subnetwork.

State is the number of vehicles per (lane group, cell, commodity), where a
commodity is a (vehicle type, next downstream link) pair.  Every step runs:

  phase A: lane changes; demand/supply per cell; internal cell flows and
           sink discharge; flow resolution at every node this engine owns
           (proportional merge against the downstream link's first-cell
           supply) with next-link assignment for the entering flows.  Each
           flow is applied to the cells as soon as it is computed.
  phase B: the records received from neighbors, the deliveries phase A
           deferred, source injection, then one ascending pass over the
           active and touched links that settles float dust, folds each
           cell's total once, decides which links stay active and counts
           the vehicles in the network.

Between the phases a distributed run exchanges boundary records with
neighboring subnetworks; a sequential run is the same engine with every node
owned and nothing to exchange.  Records exist only for flows through the
road connections of overlap links, which the neighbor applies to its
replica, and for deliveries into one-cell links, which phase B applies.  A
record has one shape from phase A through the wire to phase B: (link,
connection, lane group, commodity position, vehicles).  Phase A files each
boundary record under the neighbor that shares its link
(`LinkRuntime.neighbor`), in the order it applies them, in the `StepPlan`
it returns, and phase B takes that plan.  No record key repeats in one
direction in one step (each connection's entries and each delivery's
positions are distinct), so the filing order does not change what `encode`
writes.  All accumulation loops iterate in ascending (link, lane group,
connection, commodity) order so that a partitioned run reproduces the
sequential run bit for bit.

`partition._message_map` derives each decoder-map slot with its key from the
fragment the engine is built from, so the key fits by construction: its link
is an overlap link, which `validate()` checks has one owned end, so the
engine simulates it; its connection is in the link's `in_conns` (delivery)
or a lane group's `conn_ids` (removal); its group and position index
`Scenario.lane_groups` and `Scenario.commodities`, the engine's own tables;
and no key repeats, as a link's slots in one direction are all deliveries or
all removals.  A decoder file must equal the derived map, and the handshake
compares the maps both fragments of a channel derive; both abort with a
protocol error.  Every record phase A makes for a neighbor has a slot, and
`decode` yields only the receive map's keys, so neither `encode` nor phase B
checks one.

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
  ascending (target, connection) order, then received records, then
  injection.  A link's deliveries all come from one target in the node
  loop, or all from the neighbor when a neighbor owns its start node.
- A one-cell link's first cell is also its last, and the node loop may make
  its deliveries (as a target) before its removals (as an upstream link).
  Deliveries into one-cell links are therefore deferred: phase B applies
  them after every removal, received ones included.
- Both replicas of an overlap link keep the order: the side owning the end
  node applies removals in phase A and received deliveries in phase B; the
  side owning the start node applies received removals in phase B, before
  its deferred one-cell deliveries.  No record reaches the wrong side:
  `partition._message_map` reads roles from `owned_nodes` as the engine
  does, and gives a receiver delivery slots only on links whose end node it
  owns and removal slots only on links whose start node it owns.
- Cell totals live on the link (`LinkRuntime.totals`).  Phase B's pass
  folds each cell's total after its last update of the step, for every
  link it settles; a link that goes inactive keeps its zeros.  Phase A
  of the next step reuses them for single-group links, which no lane
  change touches, and recomputes a multi-group link's after its lane
  changes; `set_cell_value` recomputes its link's.

Removal and delivery records are made for nonzero entries only, and dumps
skip zero entries.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add

from .errors import InternalAssertion, ScenarioError
from .scenario import Commodity, Link, Scenario, TERMINAL, rate_at

# a flow through a road connection into or out of a link, in the step plan
# and on the wire: (link, connection, group index, commodity position, vehicles)
# link == connection.out_link -> delivery into the link's first cells
# link == connection.in_link  -> removal from the link's last cells
EntryRecord = tuple[int, int, int, int, float]

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

    def fold_totals(self) -> list[list[float]]:
        """Set `totals` from the cells, each a left fold from 0.0."""
        self.totals = [[reduce(add, cell, 0.0) for cell in g.cells] for g in self.groups]
        return self.totals

    @property
    def authoritative(self) -> bool:
        # overlap links are replicated; the upstream (relative sink) side owns
        # the values reported in merged dumps and metrics
        return self.inflow_local


@dataclass(slots=True)
class StepPlan:
    time: float  # the step's start, in seconds
    # neighbor -> the flows this engine resolved on the overlap links it
    # shares with that neighbor, in the order applied: removals from links
    # whose end node this engine owns, deliveries into the others
    boundary: dict[int, list[EntryRecord]] = field(default_factory=dict)
    # deliveries into one-cell links, applied in phase B after every removal
    deferred: list[EntryRecord] = field(default_factory=list)
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

        self._in_link_of = {cid: c.in_link for cid, c in scenario.connections.items()}
        neighbor_of = {} if sub is None else sub.neighbor_of_link

        self.links: dict[int, LinkRuntime] = {}
        for lid in sorted(scenario.links):
            link = scenario.links[lid]
            if link.start_node not in self.owned and link.end_node not in self.owned:
                continue  # context-only stub link carried for referential integrity
            self.links[lid] = self._build_link(link, neighbor_of.get(lid))

        self.queues: dict[tuple[int, int], float] = {}
        self.source_links = tuple(
            lid
            for lid in sorted(self.links)
            if self.scenario.demand_rows(lid)
        )
        self._source_set = frozenset(self.source_links)
        self.active: set[int] = set(self.source_links)
        # entry fractions stay valid while no split row starts: cached per
        # epoch, the number of distinct split start times passed
        self._split_times = sorted({row.start_time for row in scenario.splits})
        self._epoch: int | None = None
        self._position_cache: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}

    def _build_link(self, link: Link, neighbor: int | None) -> LinkRuntime:
        comms = self.scenario.commodities[link.id]
        fd = link.fd
        wv_ratio = fd.congestion_wave_speed / fd.free_flow_speed
        groups = []
        serving = []  # per group: downstream link -> serving connection
        for lg in self.scenario.lane_groups[link.id]:
            cap_step = (fd.capacity * lg.lane_count) * self.dt
            jam_veh = (fd.jam_density * lg.lane_count) * lg.cell_length
            groups.append(
                GroupRuntime(
                    index=lg.index,
                    cell_count=lg.cell_count,
                    cap_step=cap_step,
                    jam_veh=jam_veh,
                    wv_ratio=wv_ratio,
                    cells=[[0.0] * len(comms) for _ in range(lg.cell_count)],
                )
            )
            serving.append({self.scenario.connections[cid].out_link: cid for cid in lg.conn_ids})
        if not link.is_sink:
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
            link=link,
            groups=groups,
            inflow_local=link.start_node in self.owned,
            outflow_local=link.end_node in self.owned,
            neighbor=neighbor,
            comms=comms,
            comm_index=dict(zip(comms, range(len(comms)))),
            totals=[[0.0] * g.cell_count for g in groups],
        )

    # ------------------------------------------------------------------
    # phase A
    # ------------------------------------------------------------------

    def phase_a(self, step: int) -> StepPlan:
        """Lane changes, demand/supply, flow resolution at owned nodes, and
        the flows this engine resolves, applied to the cells as they are
        computed (see the module docstring for the order).

        Returns the step plan, which phase B takes; the records it files
        by neighbor must be shipped to that neighbor before phase B.
        """
        time = step * self.dt
        plan = StepPlan(time)
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
                lrt.fold_totals()

        demand_by_conn: dict[int, list] = {}
        exited = 0.0
        for lid in active:
            lrt = links[lid]
            discharge = []
            if lrt.link.is_sink:
                for g, cell_totals in zip(lrt.groups, lrt.totals):
                    total, amounts = compute_demand(g.cells[-1], cell_totals[-1], g.cap_step)
                    if total > 0.0:
                        discharge.append((g, amounts))
            elif lrt.outflow_local:
                self.compute_connection_demands(lrt, demand_by_conn, plan.targets)
            self._move_internal(lrt)
            for g, amounts in discharge:
                g.cells[-1] = [v - a for v, a in zip(g.cells[-1], amounts)]
                if lrt.authoritative:
                    for amount in amounts:
                        exited += amount
        plan.exited = exited

        in_conns = self.scenario.in_conns
        for target in sorted(plan.targets):
            conns = [(c, demand_by_conn[c]) for c in in_conns[target] if c in demand_by_conn]
            supply_total, shares = self._supplies(target)
            factor = resolve_node_flows(conns, supply_total)
            self._apply_node_flows(target, conns, factor, shares, plan)
        return plan

    def apply_lane_changes(self, lrt: LinkRuntime) -> None:
        """Move a fraction eta of misplaced vehicles one lane group toward
        the nearest group serving their next link, capped by target space.
        Runs before any demand computation."""
        groups = lrt.groups
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
            # caps from the pre-move state: lateral movements are simultaneous
            space = {dst: groups[dst].jam_veh - cell_total(groups[dst].cells[k]) for dst in moves}
            for dst in sorted(moves):
                wanted = 0.0
                for _src, _p, amount in moves[dst]:
                    wanted += amount
                room = space[dst]
                if wanted <= 0.0 or room <= 0.0:
                    continue
                scale = 1.0 if wanted <= room else room / wanted
                dst_cell = groups[dst].cells[k]
                for src, p, amount in moves[dst]:
                    moved = amount * scale
                    src_cell = groups[src].cells[k]
                    src_cell[p] = src_cell[p] - moved
                    dst_cell[p] = dst_cell[p] + moved

    @staticmethod
    def _move_internal(lrt: LinkRuntime) -> None:
        """Move each cell's flow into the next cell of its lane group, in
        ascending k.  Cell k's outflow is read from its pre-step list, which
        stays untouched until then, and its new list is `(v + inflow) -
        outflow` entry by entry; the last cell only gains."""
        for g, totals in zip(lrt.groups, lrt.totals):
            cells = g.cells
            cap = g.cap_step
            inflow = None
            for k in range(g.cell_count - 1):
                cell = cells[k]
                outflow = None
                total, demands = compute_demand(cell, totals[k], cap)
                if not total <= 0.0:
                    supply = compute_supply(totals[k + 1], cap, g.wv_ratio, g.jam_veh)
                    flow = total if total < supply else supply
                    if not flow <= 0.0:
                        share = flow / total
                        outflow = [d * share for d in demands]
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

    def _supplies(self, link_id: int) -> tuple[float, tuple[tuple[int, float], ...]]:
        """First-cell supply of a link, summed over its lane groups, and each
        group's (index, share of that sum); no shares when the sum is 0."""
        lrt = self.links[link_id]
        groups = lrt.groups
        per_group = []
        total = 0.0
        for g, cell_totals in zip(groups, lrt.totals):
            s = compute_supply(cell_totals[0], g.cap_step, g.wv_ratio, g.jam_veh)
            per_group.append(s)
            total += s
        if total <= 0.0:
            return total, ()
        if len(groups) == 1:
            return total, ((0, 1.0),)  # s / s == 1.0
        return total, tuple([(g.index, s / total) for g, s in zip(groups, per_group)])

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

    def _apply_node_flows(
        self, target: int, conns: list, factor: float, shares: tuple, plan: StepPlan
    ) -> None:
        """Apply each connection's demand entries, times the node model's
        `factor`: the removals from the last cells of its upstream link,
        then its deliveries into `target`'s first cells, split over the lane
        groups by their `shares` of its supply and by assigned next links.
        Flows on overlap links are also filed for the neighbor; deliveries
        into a one-cell link are left to phase B."""
        links = self.links
        tlrt = links[target]
        first = [g.cells[0] for g in tlrt.groups]
        deferred = tlrt.groups[0].cell_count == 1
        boundary = plan.boundary
        deliveries = None if tlrt.outflow_local else boundary.setdefault(tlrt.neighbor, [])
        for cid, (_demand, entries) in conns:
            in_link = self._in_link_of[cid]
            upstream = links[in_link]
            groups = upstream.groups
            removals = None if upstream.inflow_local else boundary.setdefault(upstream.neighbor, [])
            arrived: dict[int, float] = {}
            for (p, _cid, _out_link, gidx, vt), d in entries:
                amount = d * factor
                if amount:
                    cell = groups[gidx].cells[-1]
                    cell[p] = cell[p] - amount
                    if removals is not None:
                        removals.append((in_link, cid, gidx, p, amount))
                arrived[vt] = arrived.get(vt, 0.0) + amount
            for vt in sorted(arrived):
                total = arrived[vt]
                if total <= 0.0:
                    continue
                positions = self.entry_positions(target, vt, plan.time)
                for gidx, share in shares:
                    # share = group supply / summed supply, divided first
                    base = total * share
                    cell = first[gidx]
                    for p, frac in positions:
                        amount = base * frac
                        if amount:
                            if deferred:
                                plan.deferred.append((target, cid, gidx, p, amount))
                            else:
                                cell[p] = cell[p] + amount
                            if deliveries is not None:
                                deliveries.append((target, cid, gidx, p, amount))

    # ------------------------------------------------------------------
    # phase B
    # ------------------------------------------------------------------

    def phase_b(self, plan: StepPlan, received: Iterable[EntryRecord] = ()) -> StepStats:
        """Finish the step `plan` that phase A made: apply the records
        received from neighbors, then the deliveries phase A deferred,
        inject demand, then settle every active or touched link in one
        ascending pass; returns step statistics over this engine's
        authoritative links.  A record whose connection leaves its link is
        a removal from the last cell, any other a delivery into the first
        cell."""
        links = self.links

        work = self.active | plan.targets
        in_link_of = self._in_link_of
        for lid, cid, gidx, p, amount in chain(received, plan.deferred):
            groups = links[lid].groups
            if in_link_of[cid] == lid:
                cell = groups[gidx].cells[-1]
                cell[p] = cell[p] - amount
            else:
                cell = groups[gidx].cells[0]
                cell[p] = cell[p] + amount
            work.add(lid)

        stats = StepStats(exited=plan.exited)
        for lid in self.source_links:
            stats.entered += self._inject(links[lid], plan.time)

        # settle each cell, fold its total once, decide activity, count
        # vehicles; phase A reuses the totals
        active = self.active
        sources = self._source_set
        in_network = 0.0
        for lid in sorted(work):
            lrt = links[lid]
            for g in lrt.groups:
                for cell in g.cells:
                    if cell and not min(cell) >= 0.0:
                        self._clamp(lrt, g, cell)
            link_totals = lrt.fold_totals()
            if lid in sources or any(map(any, link_totals)):
                active.add(lid)
                if lrt.authoritative:
                    for cell_totals in link_totals:
                        for total in cell_totals:
                            in_network += total
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
        lrt.fold_totals()

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

    def boundary_records(self, plan: StepPlan, neighbor: int) -> list[EntryRecord]:
        """The delivery and removal records `plan` filed for `neighbor`."""
        return plan.boundary.get(neighbor, [])
