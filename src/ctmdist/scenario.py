"""Road network data model, scenario JSON parsing/serialization, lane groups.

A scenario is a directed graph of links joined at nodes, with permitted
turning movements given by road connections.  Lanes of a link that share the
same set of outgoing road connections form a lane group; each lane group is
discretized into cells of roughly one free-flow step length.  Vehicle types
route either deterministically (a fixed link path) or probabilistically
(turn ratios looked up when a vehicle enters a link).

The file format is documented in docs/scenario-format.md.

The per-element records (`Node`, `Link`, `RoadConnection`, `SplitRow`,
`DemandRow`, `LaneGroup`) are slotted dataclasses and are never mutated
once built: a derived flag changes through `dataclasses.replace`, and the
parent's records are shared by its fragments and by the workers of a run
in threads.  They are not `frozen=True`, whose generated `__init__` sets
each field through `object.__setattr__`: 0.8-1.5 us per record against
0.2 us for a slotted one, about 12 ms of loading the 30x30 grid's 19,500
records (measured with Python 3.11 on a 2-core x86_64 machine).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
from dataclasses import dataclass, field

from .errors import ScenarioError

# Commodity "next link" marker for vehicles that leave the network at the
# link they currently occupy.
TERMINAL = -1

# commodity: (vehicle type id, next link id or TERMINAL)
Commodity = tuple[int, int]

SUM_TOL = 1e-12
CFL_TOL = 1e-9


@dataclass(frozen=True)
class FDParams:
    """Triangular fundamental diagram parameters (per lane, SI units)."""

    capacity: float  # veh/s per lane
    free_flow_speed: float  # m/s
    congestion_wave_speed: float  # m/s
    jam_density: float  # veh/m per lane


FD_FIELDS = ("capacity", "free_flow_speed", "congestion_wave_speed", "jam_density")


@dataclass(slots=True)
class Node:
    id: int


@dataclass(slots=True)
class Link:
    id: int
    start_node: int
    end_node: int
    length: float  # meters
    lanes: int
    fd: FDParams
    is_source: bool = False  # has external demand
    is_sink: bool = False  # no outgoing road connections (derived)


@dataclass(slots=True)
class RoadConnection:
    id: int
    in_link: int
    out_link: int
    in_lanes: tuple[int, int]  # inclusive 1-based lane range on in_link
    out_lanes: tuple[int, int]  # inclusive 1-based lane range on out_link


@dataclass(frozen=True)
class VehicleType:
    id: int
    routing: str  # "deterministic" | "probabilistic"
    path: tuple[int, ...] = ()  # link ids, deterministic only


@dataclass(slots=True)
class SplitRow:
    """Turn ratios for vehicles of one type entering one link.

    Keyed by the in_link's end node; `ratios` maps out_link id to the
    fraction of entering flow headed there, valid from `start_time` until
    the next row's start_time.
    """

    node: int
    in_link: int
    vtype: int
    start_time: float
    ratios: tuple[tuple[int, float], ...]  # sorted by out_link id


@dataclass(slots=True)
class DemandRow:
    link: int
    vtype: int
    profile: tuple[tuple[float, float], ...]  # (start_time, veh/s), sorted


@dataclass(frozen=True)
class SimParams:
    dt: float  # seconds per step
    steps: int
    lane_change_rate: float = 0.5  # fraction of misplaced vehicles moved per step


@dataclass(slots=True)
class LaneGroup:
    """Contiguous lanes of a link sharing one set of outgoing connections."""

    link: int
    index: int  # 0-based position within the link, lowest lanes first
    lane_lo: int
    lane_hi: int
    conn_ids: tuple[int, ...]  # sorted outgoing road connection ids
    cell_count: int
    cell_length: float

    @property
    def lane_count(self) -> int:
        return self.lane_hi - self.lane_lo + 1


@dataclass(frozen=True)
class SubnetworkMeta:
    """Partition metadata embedded in a fragment scenario file."""

    index: int
    owned_nodes: tuple[int, ...]
    interior_links: tuple[int, ...]
    relative_sources: tuple[int, ...]  # overlap links entering this fragment
    relative_sinks: tuple[int, ...]  # overlap links leaving this fragment
    # overlap link id -> index of the subnetwork owning the far endpoint, in
    # ascending link order
    neighbor_of_link: dict[int, int]


def _derived():
    """A table that validate() derives from the other fields; equality and
    repr leave it out."""
    return field(default_factory=dict, repr=False, compare=False)


@dataclass
class Scenario:
    nodes: dict[int, Node]
    links: dict[int, Link]
    connections: dict[int, RoadConnection]
    vehicle_types: dict[int, VehicleType]
    splits: list[SplitRow]
    demands: list[DemandRow]
    sim: SimParams
    subnetwork: SubnetworkMeta | None = None

    # --- derived lookup tables, built by validate(); their values, tuples
    # of records that are never mutated (see the module docstring), are
    # shared by a fragment cut by partition.build_subnetworks ---
    in_conns: dict[int, tuple[int, ...]] = _derived()
    lane_groups: dict[int, tuple[LaneGroup, ...]] = _derived()
    # link -> ascending commodities that can occur on it; see derive_link_tables()
    commodities: dict[int, tuple[Commodity, ...]] = _derived()
    _split_index: dict[tuple[int, int], tuple[SplitRow, ...]] = _derived()
    _demand_index: dict[int, tuple[DemandRow, ...]] = _derived()

    # --- queries used by the engine ---

    def split_row_at(self, link_id: int, vtype: int, time: float):
        """Ratios for vehicles of `vtype` entering `link_id` at `time`, or None."""
        rows = self._split_index.get((link_id, vtype))
        if not rows:
            return None
        chosen = None
        for row in rows:  # rows sorted by start_time
            if row.start_time <= time:
                chosen = row
            else:
                break
        return chosen.ratios if chosen is not None else None

    def demand_rows(self, link_id: int) -> tuple[DemandRow, ...]:
        return self._demand_index.get(link_id, ())


def rate_at(profile: tuple[tuple[float, float], ...], time: float) -> float:
    """Piecewise-constant lookup; zero before the first breakpoint."""
    rate = 0.0
    for start, value in profile:
        if start <= time:
            rate = value
        else:
            break
    return rate


# ---------------------------------------------------------------------------
# Lane groups and cell discretization
# ---------------------------------------------------------------------------


def discretize(length: float, free_flow_speed: float, dt: float) -> tuple[int, float]:
    """Cell count and cell length for a link.

    The count is length/(v*dt) rounded half-up with a minimum of one cell,
    which keeps cells near one free-flow step long.  Callers must have
    checked the CFL-style condition v*dt <= length, as validate() does.
    """
    step_len = free_flow_speed * dt
    count = max(1, int(math.floor(length / step_len + 0.5)))
    return count, length / count


def build_lane_groups(
    link: Link, outgoing: list[RoadConnection], dt: float
) -> list[LaneGroup]:
    """Group the link's lanes into maximal contiguous runs with identical
    outgoing-connection sets; a link with no outgoing connections forms a
    single (sink) group."""
    every_lane = (1, link.lanes)
    spans_every_lane = True
    for c in outgoing:
        if c.in_link != link.id:
            raise ScenarioError(f"connection {c.id} does not leave link {link.id}")
        if c.in_lanes != every_lane:
            spans_every_lane = False
    cells, cell_len = discretize(link.length, link.fd.free_flow_speed, dt)
    if spans_every_lane:  # every lane has every connection, or none
        conns = tuple(sorted([c.id for c in outgoing]))
        return [LaneGroup(link.id, 0, 1, link.lanes, conns, cells, cell_len)]
    # a lane's connection set can change only at a connection's first lane
    # or just past its last, so only those lanes are visited: the work grows
    # with the connections, not with the lane count
    starts = {1}
    for c in outgoing:
        starts.update((c.in_lanes[0], c.in_lanes[1] + 1))
    runs = []  # (first lane, connection ids) of each maximal run
    for lane in sorted(starts):
        if not 1 <= lane <= link.lanes:
            continue
        conns = tuple(sorted(c.id for c in outgoing if c.in_lanes[0] <= lane <= c.in_lanes[1]))
        if not runs or runs[-1][1] != conns:
            runs.append((lane, conns))
    groups = []
    for i, (lo, conns) in enumerate(runs):
        hi = runs[i + 1][0] - 1 if i + 1 < len(runs) else link.lanes
        groups.append(LaneGroup(link.id, i, lo, hi, conns, cells, cell_len))
    return groups


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _as_id(value, what: str, *args) -> int:
    """`value` as an id.  `what` names the field, formatted with `args` only
    when `value` is rejected."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ScenarioError(f"{what.format(*args)} must be a non-negative integer, got {value!r}")
    return value


def decimal_int(text: str, what: str, *args, kind: str = "integer") -> int:
    """`text` as a non-negative integer in canonical decimal, the form that
    `str()` writes: ASCII digits with no sign, space, underscore or leading
    zero, so that no two texts name one number.  It reads JSON object keys
    and the integers of partition files, rosters and `--n-list`.  `what`
    as in `_as_id`; `kind` names the value in the message."""
    value = int(text) if text.isdecimal() else -1
    if value < 0 or str(value) != text:
        raise ScenarioError(
            f"{what.format(*args)} must be a canonical decimal {kind}, got {text!r}"
        )
    return value


def _as_lane(value, what: str, *args) -> int:
    """`value` as a lane number or count, or a step count: an integer, or a
    float with an integral value; never a bool or a string.  `what` as in
    `_as_id`."""
    if type(value) is int:  # a bool's type is bool
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ScenarioError(f"{what.format(*args)} must be an integer, got {value!r}")


def _as_number(value, what: str, *args) -> float:
    """`value` as a float: a JSON number, never a bool or a string.  `what`
    as in `_as_id`."""
    if type(value) is float or type(value) is int:
        return float(value)
    raise ScenarioError(f"{what.format(*args)} must be a number, got {value!r}")


def _lane_range(raw, lanes: int, what: str, *args) -> tuple[int, int]:
    """An inclusive lane pair, (1, lanes) when absent; `what` as in `_as_id`.
    The loader reads a pair of two ints inline and calls this for the rest."""
    if raw is None:
        return (1, lanes)
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ScenarioError(f"{what.format(*args)} must be a [lo, hi] lane pair")
    return (_as_lane(raw[0], what, *args), _as_lane(raw[1], what, *args))


def _connection_end(links: dict[int, Link], cid: int, lid: int) -> Link:
    """Link `lid`, which connection `cid` names as one of its ends.  Callers
    try `links.get(lid)` first, the cheaper lookup: a Link is never false."""
    link = links.get(lid)
    if link is None:
        raise ScenarioError(f"connection {cid} references missing link {lid}")
    return link


@contextlib.contextmanager
def collector_paused():
    """Run a block, or as a decorator each call, with the cyclic garbage
    collector paused, and put back the state it found whether the block
    ends or raises.  Only for code that makes no reference cycles, whose
    garbage reference counting frees (see the `runner` docstring)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@collector_paused()
def parse_scenario(text: str) -> Scenario:
    """Parse a scenario JSON document and validate() it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"syntax error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    try:
        scenario = _build_scenario(doc)
        validate(scenario)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ScenarioError(f"missing or malformed field: {e!r}") from None
    return scenario


def _build_scenario(doc) -> Scenario:
    """The records of `doc`, checked for shape only: types, ids, duplicates,
    lane pairs, and the links a connection names (for a lane pair's
    default); validate() checks the values.  Each check formats its message
    only when it fails.  A number is never read from a string or a boolean.
    The loops over links, connections and splits, the most numerous
    records, accept a plain non-negative int id and a float inline and hand
    anything else to `_as_id` or `_as_number`; they pass record fields by
    position."""
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be a JSON object")
    for key in ("nodes", "links", "simulation"):
        if key not in doc:
            raise ScenarioError(f"missing top-level key '{key}'")

    sim_raw = doc["simulation"]
    dt = _as_number(sim_raw.get("dt", 0.0), "simulation.dt")
    steps = _as_lane(sim_raw.get("steps", 0), "simulation.steps")
    rate = _as_number(sim_raw.get("lane_change_rate", 0.5), "simulation.lane_change_rate")
    sim = SimParams(dt, steps, rate)

    nodes: dict[int, Node] = {}
    for raw in doc["nodes"]:
        nid = _as_id(raw["id"], "node id")
        if nid in nodes:
            raise ScenarioError(f"duplicate node id {nid}")
        nodes[nid] = Node(id=nid)

    links: dict[int, Link] = {}
    fds: dict[tuple[float, ...], FDParams] = {}  # links with equal fd values share one
    for raw in doc["links"]:
        lid = raw["id"]
        if type(lid) is not int or lid < 0:
            lid = _as_id(lid, "link id")
        if lid in links:
            raise ScenarioError(f"duplicate link id {lid}")
        start = raw["start_node"]
        if type(start) is not int or start < 0:
            start = _as_id(start, "link {} start_node", lid)
        end = raw["end_node"]
        if type(end) is not int or end < 0:
            end = _as_id(end, "link {} end_node", lid)
        lanes = raw["lanes"]
        if type(lanes) is not int:
            lanes = _as_lane(lanes, "link {} lanes", lid)
        fd_raw = raw["fd"]
        fd_values = cap, ffs, cws, jam = (
            fd_raw["capacity"],
            fd_raw["free_flow_speed"],
            fd_raw["congestion_wave_speed"],
            fd_raw["jam_density"],
        )
        if not (type(cap) is type(ffs) is type(cws) is type(jam) is float):
            fd_values = tuple(
                [_as_number(v, "link {} fd.{}", lid, name) for v, name in zip(fd_values, FD_FIELDS)]
            )
        fd = fds.get(fd_values)
        if fd is None:
            fd = fds[fd_values] = FDParams(*fd_values)
        length = raw["length"]
        if type(length) is not float:
            length = _as_number(length, "link {} length", lid)
        is_source = raw.get("is_source", False)
        if type(is_source) is not bool:
            raise ScenarioError(f"link {lid} is_source must be a boolean, got {is_source!r}")
        links[lid] = Link(lid, start, end, length, lanes, fd, is_source)

    connections: dict[int, RoadConnection] = {}
    for raw in doc.get("roadconnections", []):
        cid = raw["id"]
        if type(cid) is not int or cid < 0:
            cid = _as_id(cid, "road connection id")
        if cid in connections:
            raise ScenarioError(f"duplicate road connection id {cid}")
        in_link = raw["in_link"]
        if type(in_link) is not int or in_link < 0:
            in_link = _as_id(in_link, "connection {} in_link", cid)
        out_link = raw["out_link"]
        if type(out_link) is not int or out_link < 0:
            out_link = _as_id(out_link, "connection {} out_link", cid)
        upstream = links.get(in_link) or _connection_end(links, cid, in_link)
        downstream = links.get(out_link) or _connection_end(links, cid, out_link)
        pair = raw.get("in_lanes")
        if type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int:
            in_lanes = (pair[0], pair[1])
        else:
            in_lanes = _lane_range(pair, upstream.lanes, "connection {} in_lanes", cid)
        pair = raw.get("out_lanes")
        if type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int:
            out_lanes = (pair[0], pair[1])
        else:
            out_lanes = _lane_range(pair, downstream.lanes, "connection {} out_lanes", cid)
        connections[cid] = RoadConnection(cid, in_link, out_link, in_lanes, out_lanes)

    vehicle_types: dict[int, VehicleType] = {}
    for raw in doc.get("vehicletypes", []):
        vid = _as_id(raw["id"], "vehicle type id")
        if vid in vehicle_types:
            raise ScenarioError(f"duplicate vehicle type id {vid}")
        routing = raw["routing"]
        mode = routing.get("type")
        if mode == "deterministic":
            path = tuple(_as_id(x, "vehicle type {} path entry", vid) for x in routing["path"])
            vehicle_types[vid] = VehicleType(id=vid, routing="deterministic", path=path)
        elif mode == "probabilistic":
            vehicle_types[vid] = VehicleType(id=vid, routing="probabilistic")
        else:
            raise ScenarioError(f"vehicle type {vid}: unknown routing mode {mode!r}")

    splits: list[SplitRow] = []
    for raw in doc.get("splits", []):
        node = raw["node"]
        if type(node) is not int or node < 0:
            node = _as_id(node, "split node")
        in_link = raw["in_link"]
        if type(in_link) is not int or in_link < 0:
            in_link = _as_id(in_link, "split in_link")
        vtype = raw["vtype"]
        if type(vtype) is not int or vtype < 0:
            vtype = _as_id(vtype, "split vtype")
        start_time = raw.get("start_time", 0.0)
        if type(start_time) is not float:
            start_time = _as_number(start_time, "split at node {} start_time", node)
        ratios = []
        for key, p in raw["ratios"].items():
            # canonical decimal inline; "0" and every rejected key go to decimal_int
            if key.isascii() and key.isdecimal() and key[0] != "0":
                out_link = int(key)
            else:
                out_link = decimal_int(key, "split at node {} ratio key", node, kind="id")
            if type(p) is not float:
                p = _as_number(p, "split at node {} ratio for link {}", node, out_link)
            ratios.append((out_link, p))
        ratios = tuple(sorted(ratios))
        splits.append(SplitRow(node, in_link, vtype, start_time, ratios))

    demands: list[DemandRow] = []
    for raw in doc.get("demands", []):
        link = _as_id(raw["link"], "demand link")
        vtype = _as_id(raw["vtype"], "demand vtype")
        profile = tuple(
            tuple(_as_number(p[k], "demand on link {} {}", link, k) for k in ("start_time", "flow"))
            for p in raw["profile"]
        )
        demands.append(DemandRow(link=link, vtype=vtype, profile=profile))

    subnetwork = None
    if "subnetwork" in doc:
        sn = doc["subnetwork"]
        ids = {
            key: tuple(sorted(_as_id(x, "subnetwork {} entry", key) for x in sn[key]))
            for key in ("owned_nodes", "interior_links", "relative_sources", "relative_sinks")
        }
        neighbors = [
            (
                decimal_int(lid, "subnetwork link key", kind="id"),
                _as_id(nb, "subnetwork neighbor of link {}", lid),
            )
            for lid, nb in sn["neighbor_of_link"].items()
        ]
        subnetwork = SubnetworkMeta(
            index=_as_id(sn["index"], "subnetwork index"),
            neighbor_of_link=dict(sorted(neighbors)),
            **ids,
        )

    return Scenario(
        nodes=nodes,
        links=links,
        connections=connections,
        vehicle_types=vehicle_types,
        splits=splits,
        demands=demands,
        sim=sim,
        subnetwork=subnetwork,
    )


def derive_link_tables(s: Scenario, lids) -> dict[int, set[int]]:
    """Derive what validate() keeps for each link of `lids` from
    `s.connections` and `s.vehicle_types`: its sorted in-connections, its
    sink flag, its lane groups and its commodities.
    Other links' entries are left as they are.  Returns each link's
    successors, the out-links of its connections, for validate()'s checks
    only: the scenario does not keep them."""
    outgoing_of: dict[int, list[RoadConnection]] = {lid: [] for lid in lids}
    in_conns: dict[int, list[int]] = {lid: [] for lid in lids}
    successors: dict[int, set[int]] = {lid: set() for lid in lids}
    for cid in sorted(s.connections):  # so each link's lists come out sorted
        c = s.connections[cid]
        if c.in_link in outgoing_of:
            outgoing_of[c.in_link].append(c)
            successors[c.in_link].add(c.out_link)
        if c.out_link in in_conns:
            in_conns[c.out_link].append(cid)

    # commodities per link: (vt, TERMINAL) for every type on a sink;
    # elsewhere the path successor of each deterministic type whose path
    # holds the link before its end, and every successor for each
    # probabilistic type
    det_comms: dict[int, set[Commodity]] = {}
    for vt in s.vehicle_types.values():
        if vt.routing == "deterministic":
            for a, b in zip(vt.path, vt.path[1:]):
                det_comms.setdefault(a, set()).add((vt.id, b))
    prob_types = sorted(
        vt.id for vt in s.vehicle_types.values() if vt.routing != "deterministic"
    )
    sink_comms = tuple((vt, TERMINAL) for vt in sorted(s.vehicle_types))

    for lid, outgoing in outgoing_of.items():
        s.in_conns[lid] = tuple(in_conns[lid])
        # the sink flag is derived from connectivity
        link = s.links[lid]
        if link.is_sink != (not outgoing):
            link = s.links[lid] = dataclasses.replace(link, is_sink=not outgoing)
        # lane groups must be constructible and unambiguous for routing; a
        # group's connections can share a target only if the link's do
        groups = tuple(build_lane_groups(link, outgoing, s.sim.dt))
        targets = successors[lid]
        if len(targets) < len(outgoing):
            target_of = {c.id: c.out_link for c in outgoing}
            for g in groups:
                if len({target_of[c] for c in g.conn_ids}) != len(g.conn_ids):
                    raise ScenarioError(
                        f"link {lid} lanes {g.lane_lo}-{g.lane_hi}: two road connections "
                        f"lead to the same downstream link"
                    )
        s.lane_groups[lid] = groups
        if not outgoing:
            s.commodities[lid] = sink_comms
            continue
        comms = [(vt, nxt) for vt in prob_types for nxt in targets]
        comms.extend(det_comms.get(lid, ()))
        s.commodities[lid] = tuple(sorted(comms))
    return successors


def validate(s: Scenario) -> None:
    """Every rule a scenario must meet, however it was built: parsed,
    generated, reconstructed or read as a fragment.  Records are checked in
    order, so a file's first bad value is the one reported.  Also builds the
    derived indexes."""
    if not s.sim.dt > 0:
        raise ScenarioError("simulation.dt must be positive")
    if not s.sim.steps >= 1:
        raise ScenarioError("simulation.steps must be >= 1")
    if not 0.0 < s.sim.lane_change_rate <= 1.0:
        raise ScenarioError("simulation.lane_change_rate must be in (0, 1]")

    # the fd rules read the fd alone, so an fd record that passed for an
    # earlier link passes again; the CFL rule reads the length too
    checked_fds: set[int] = set()  # ids of fd records that passed
    links, dt = s.links, s.sim.dt
    for lid, link in links.items():
        for nid in (link.start_node, link.end_node):
            if nid not in s.nodes:
                raise ScenarioError(f"link {lid} references missing node {nid}")
        if link.start_node == link.end_node:
            raise ScenarioError(f"link {lid} start and end node coincide")
        if not link.length > 0:
            raise ScenarioError(f"link {lid} length must be positive")
        if link.length == math.inf:
            raise ScenarioError(f"link {lid} length must be finite")
        if not link.lanes >= 1:
            raise ScenarioError(f"link {lid} must have at least one lane")
        fd = link.fd
        if id(fd) not in checked_fds:
            for name in FD_FIELDS:
                value = getattr(fd, name)
                if not value > 0:
                    raise ScenarioError(f"link {lid} fd.{name} must be positive")
                if value == math.inf:
                    raise ScenarioError(f"link {lid} fd.{name} must be finite")
            if not fd.congestion_wave_speed <= fd.free_flow_speed:
                raise ScenarioError(f"link {lid}: congestion wave speed exceeds free-flow speed")
            tri = fd.capacity / fd.free_flow_speed + fd.capacity / fd.congestion_wave_speed
            if not tri <= fd.jam_density + SUM_TOL:
                raise ScenarioError(
                    f"link {lid}: triangular diagram does not fit under jam density "
                    f"(needs {tri}, jam {fd.jam_density})"
                )
            checked_fds.add(id(fd))
        if not fd.free_flow_speed * dt <= link.length + CFL_TOL:
            raise ScenarioError(
                f"link {lid}: CFL violation, free-flow step {fd.free_flow_speed * dt} m "
                f"exceeds length {link.length} m"
            )

    for cid, c in s.connections.items():
        upstream = links.get(c.in_link) or _connection_end(links, cid, c.in_link)
        downstream = links.get(c.out_link) or _connection_end(links, cid, c.out_link)
        if upstream.end_node != downstream.start_node:
            raise ScenarioError(
                f"connection {cid}: in_link {c.in_link} does not end where "
                f"out_link {c.out_link} starts"
            )
        for what, (lo, hi), lanes in (
            ("in_lanes", c.in_lanes, upstream.lanes),
            ("out_lanes", c.out_lanes, downstream.lanes),
        ):
            if not 1 <= lo <= hi <= lanes:
                raise ScenarioError(f"connection {cid} {what} [{lo}, {hi}] outside lanes 1..{lanes}")

    s.in_conns, s.lane_groups, s.commodities = {}, {}, {}
    successors = derive_link_tables(s, s.links)

    # deterministic paths: not empty, loop-free, and on every link the
    # scenario simulates, followed by a successor or, at the path's end, a
    # sink.  A fragment carries the full path but simulates only the links
    # with an owned end, which keep all their connections; the fragments
    # owning the other links check them
    owned = s.nodes if s.subnetwork is None else set(s.subnetwork.owned_nodes)
    for vt in s.vehicle_types.values():
        if vt.routing != "deterministic":
            continue
        if not vt.path:
            raise ScenarioError(f"vehicle type {vt.id} has an empty path")
        if len(set(vt.path)) != len(vt.path):
            raise ScenarioError(f"vehicle type {vt.id} path repeats a link")
        if s.subnetwork is None:
            for lid in vt.path:
                if lid not in s.links:
                    raise ScenarioError(f"vehicle type {vt.id} path references missing link {lid}")
        for a, b in zip(vt.path, (*vt.path[1:], TERMINAL)):
            link = links.get(a)
            if link is None or not (link.start_node in owned or link.end_node in owned):
                continue
            if b == TERMINAL:
                if not link.is_sink:
                    raise ScenarioError(
                        f"vehicle type {vt.id} path must end at a sink link, link {a} has "
                        f"outgoing connections"
                    )
            elif b not in successors[a]:
                raise ScenarioError(
                    f"vehicle type {vt.id}: no road connection from link {a} to link {b}"
                )

    # split rows: structural checks plus distribution sums
    split_index: dict[tuple[int, int], list[SplitRow]] = {}
    for row in s.splits:
        if row.node not in s.nodes:
            raise ScenarioError(f"split references missing node {row.node}")
        link = s.links.get(row.in_link)
        if link is None:
            raise ScenarioError(f"split references missing link {row.in_link}")
        if link.end_node != row.node:
            raise ScenarioError(
                f"split row for link {row.in_link} keyed to node {row.node}, but the "
                f"link ends at node {link.end_node}"
            )
        vt = s.vehicle_types.get(row.vtype)
        if vt is None:
            raise ScenarioError(f"split references missing vehicle type {row.vtype}")
        if vt.routing != "probabilistic":
            raise ScenarioError(f"split row given for deterministic vehicle type {row.vtype}")
        if len(dict(row.ratios)) != len(row.ratios):
            raise ScenarioError(
                f"split at node {row.node} in_link {row.in_link}: a link is named twice"
            )
        reachable = successors[row.in_link]
        total = 0.0
        for out_link, p in row.ratios:
            if out_link not in reachable:
                raise ScenarioError(
                    f"split at node {row.node}: link {out_link} is not reachable from "
                    f"link {row.in_link} via a road connection"
                )
            if not p >= 0:
                raise ScenarioError(f"split at node {row.node}: negative ratio for {out_link}")
            total += p
        if not abs(total - 1.0) <= SUM_TOL:
            raise ScenarioError(
                f"split at node {row.node} in_link {row.in_link}: distribution sums to "
                f"{total:.12g}"
            )
        split_index.setdefault((row.in_link, row.vtype), []).append(row)
    for key, rows in split_index.items():
        rows.sort(key=lambda r: r.start_time)
        if rows[0].start_time != 0.0:
            raise ScenarioError(
                f"split rows for link {key[0]} vtype {key[1]} must start at time 0"
            )
        for a, b in zip(rows, rows[1:]):
            if not a.start_time < b.start_time:
                raise ScenarioError(
                    f"split rows for link {key[0]} vtype {key[1]} have duplicate "
                    f"start_time {b.start_time}"
                )
    s._split_index = {key: tuple(rows) for key, rows in split_index.items()}

    # demands: sources must be roots or explicitly flagged
    demand_index: dict[int, list[DemandRow]] = {}
    source_links = set()
    for row in s.demands:
        if row.link not in s.links:
            raise ScenarioError(f"demand references missing link {row.link}")
        if row.vtype not in s.vehicle_types:
            raise ScenarioError(f"demand references missing vehicle type {row.vtype}")
        if s.in_conns[row.link] and not s.links[row.link].is_source:
            raise ScenarioError(
                f"demand on link {row.link} which has upstream connections and no "
                f"is_source flag"
            )
        last = -math.inf
        for start, flow in row.profile:
            if not flow >= 0:
                raise ScenarioError(f"demand on link {row.link}: negative flow {flow}")
            if flow == math.inf:
                raise ScenarioError(f"demand on link {row.link}: flow must be finite")
            if not start > last:
                raise ScenarioError(
                    f"demand on link {row.link}: breakpoints not strictly increasing"
                )
            last = start
        vt = s.vehicle_types[row.vtype]
        if vt.routing == "deterministic" and vt.path[0] != row.link:
            raise ScenarioError(
                f"deterministic vehicle type {vt.id} demand on link {row.link}, "
                f"but its path starts at link {vt.path[0]}"
            )
        demand_index.setdefault(row.link, []).append(row)
        source_links.add(row.link)
    s._demand_index = {
        lid: tuple(sorted(rows, key=lambda r: r.vtype)) for lid, rows in demand_index.items()
    }

    # mark links carrying demand as sources
    for lid in sorted(source_links):
        link = s.links[lid]
        if not link.is_source:
            s.links[lid] = dataclasses.replace(link, is_source=True)

    if s.subnetwork is not None:
        meta = s.subnetwork
        for nid in meta.owned_nodes:
            if nid not in s.nodes:
                raise ScenarioError(f"subnetwork owns missing node {nid}")
        owned = set(meta.owned_nodes)
        # (start node owned, end node owned) -> (role, rule, listed links)
        roles = {
            (True, True): ("interior", "both ends", meta.interior_links),
            (False, True): ("relative source", "only its end node", meta.relative_sources),
            (True, False): ("relative sink", "only its start node", meta.relative_sinks),
        }
        listed: set[int] = set()
        for ends, (role, rule, lids) in roles.items():
            for lid in lids:
                if lid not in s.links:
                    raise ScenarioError(f"subnetwork references missing link {lid}")
                link = s.links[lid]
                if (link.start_node in owned, link.end_node in owned) != ends:
                    raise ScenarioError(
                        f"subnetwork {meta.index}: {role} link {lid} must have {rule} "
                        f"owned (it runs from node {link.start_node} to node {link.end_node})"
                    )
                if lid in listed:
                    raise ScenarioError(f"subnetwork {meta.index}: {role} link {lid} listed twice")
                listed.add(lid)
        # and each link with an owned end is listed under its role
        for lid, link in s.links.items():
            ends = (link.start_node in owned, link.end_node in owned)
            if ends in roles and lid not in listed:
                role, rule, _lids = roles[ends]
                raise ScenarioError(
                    f"subnetwork {meta.index}: link {lid} has {rule} owned, but is not "
                    f"listed as a {role} link"
                )
        if not (
            meta.neighbor_of_link.keys() == set(meta.relative_sources + meta.relative_sinks)
            and meta.index not in meta.neighbor_of_link.values()
        ):
            raise ScenarioError(
                f"subnetwork {meta.index}: neighbor_of_link must map exactly the overlap "
                f"links, each to another subnetwork"
            )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def scenario_to_dict(s: Scenario) -> dict:
    doc: dict = {
        "nodes": [{"id": n.id} for n in sorted(s.nodes.values(), key=lambda n: n.id)],
        "links": [
            {
                "id": l.id,
                "start_node": l.start_node,
                "end_node": l.end_node,
                "length": l.length,
                "lanes": l.lanes,
                "fd": {
                    "capacity": l.fd.capacity,
                    "free_flow_speed": l.fd.free_flow_speed,
                    "congestion_wave_speed": l.fd.congestion_wave_speed,
                    "jam_density": l.fd.jam_density,
                },
                **({"is_source": True} if l.is_source else {}),
            }
            for l in sorted(s.links.values(), key=lambda l: l.id)
        ],
        "roadconnections": [
            {
                "id": c.id,
                "in_link": c.in_link,
                "out_link": c.out_link,
                "in_lanes": list(c.in_lanes),
                "out_lanes": list(c.out_lanes),
            }
            for c in sorted(s.connections.values(), key=lambda c: c.id)
        ],
        "vehicletypes": [
            {
                "id": v.id,
                "routing": (
                    {"type": "deterministic", "path": list(v.path)}
                    if v.routing == "deterministic"
                    else {"type": "probabilistic"}
                ),
            }
            for v in sorted(s.vehicle_types.values(), key=lambda v: v.id)
        ],
        "splits": [
            {
                "node": r.node,
                "in_link": r.in_link,
                "vtype": r.vtype,
                "start_time": r.start_time,
                "ratios": {str(k): v for k, v in r.ratios},
            }
            for r in sorted(
                s.splits, key=lambda r: (r.node, r.in_link, r.vtype, r.start_time)
            )
        ],
        "demands": [
            {
                "link": r.link,
                "vtype": r.vtype,
                "profile": [{"start_time": t, "flow": f} for t, f in r.profile],
            }
            for r in sorted(s.demands, key=lambda r: (r.link, r.vtype))
        ],
        "simulation": {
            "dt": s.sim.dt,
            "steps": s.sim.steps,
            "lane_change_rate": s.sim.lane_change_rate,
        },
    }
    if s.subnetwork is not None:
        meta = s.subnetwork
        doc["subnetwork"] = {
            "index": meta.index,
            "owned_nodes": list(meta.owned_nodes),
            "interior_links": list(meta.interior_links),
            "relative_sources": list(meta.relative_sources),
            "relative_sinks": list(meta.relative_sinks),
            "neighbor_of_link": {str(k): v for k, v in meta.neighbor_of_link.items()},
        }
    return doc


def serialize_scenario(s: Scenario) -> str:
    """Canonical JSON text: sorted keys, stable float repr, trailing newline."""
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n"


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        return parse_scenario(f.read())


def save_scenario(s: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(serialize_scenario(s))
