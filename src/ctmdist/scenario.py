"""Road network data model, scenario JSON parsing/serialization, lane groups.

A scenario is a directed graph of links joined at nodes, with permitted
turning movements given by road connections.  Lanes of a link that share the
same set of outgoing road connections form a lane group; each lane group is
discretized into cells of roughly one free-flow step length.  Vehicle types
route either deterministically (a fixed link path) or probabilistically
(turn ratios looked up when a vehicle enters a link).

The file format is documented in docs/scenario-format.md.
"""

from __future__ import annotations

import dataclasses
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


@dataclass(frozen=True)
class Node:
    id: int


@dataclass(frozen=True)
class Link:
    id: int
    start_node: int
    end_node: int
    length: float  # meters
    lanes: int
    fd: FDParams
    is_source: bool = False  # has external demand
    is_sink: bool = False  # no outgoing road connections (derived)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DemandRow:
    link: int
    vtype: int
    profile: tuple[tuple[float, float], ...]  # (start_time, veh/s), sorted


@dataclass(frozen=True)
class SimParams:
    dt: float  # seconds per step
    steps: int
    lane_change_rate: float = 0.5  # fraction of misplaced vehicles moved per step


@dataclass(frozen=True)
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
    # overlap link id -> index of the subnetwork owning the far endpoint
    neighbor_of_link: tuple[tuple[int, int], ...]


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

    # --- derived lookup tables, built by validate() ---
    out_conns: dict[int, tuple[int, ...]] = _derived()
    in_conns: dict[int, tuple[int, ...]] = _derived()
    lane_groups: dict[int, tuple[LaneGroup, ...]] = _derived()
    # link -> ascending commodities that can occur on it; see validate()
    commodities: dict[int, tuple[Commodity, ...]] = _derived()
    _split_index: dict[tuple[int, int], list[SplitRow]] = _derived()
    _demand_index: dict[int, list[DemandRow]] = _derived()

    # --- queries used by the engine and partitioner ---

    def successors(self, link_id: int) -> tuple[int, ...]:
        """Sorted out-link ids reachable from `link_id` via road connections."""
        return tuple(
            sorted({self.connections[c].out_link for c in self.out_conns[link_id]})
        )

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

    def demand_rows(self, link_id: int) -> list[DemandRow]:
        return self._demand_index.get(link_id, [])


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
    checked the CFL-style condition v*dt <= length.
    """
    step_len = free_flow_speed * dt
    if step_len > length + CFL_TOL:
        raise ScenarioError(
            f"CFL violation: free-flow step {step_len} m exceeds link length {length} m"
        )
    count = max(1, int(math.floor(length / step_len + 0.5)))
    return count, length / count


def build_lane_groups(
    link: Link, outgoing: list[RoadConnection], dt: float
) -> list[LaneGroup]:
    """Group the link's lanes into maximal contiguous runs with identical
    outgoing-connection sets; a link with no outgoing connections forms a
    single (sink) group."""
    for c in outgoing:
        if c.in_link != link.id:
            raise ScenarioError(f"connection {c.id} does not leave link {link.id}")
    cells, cell_len = discretize(link.length, link.fd.free_flow_speed, dt)
    lane_sets = []
    for lane in range(1, link.lanes + 1):
        conns = tuple(
            sorted(c.id for c in outgoing if c.in_lanes[0] <= lane <= c.in_lanes[1])
        )
        lane_sets.append(conns)
    groups = []
    lo = 1
    for lane in range(2, link.lanes + 2):
        if lane > link.lanes or lane_sets[lane - 1] != lane_sets[lo - 1]:
            groups.append(
                LaneGroup(
                    link=link.id,
                    index=len(groups),
                    lane_lo=lo,
                    lane_hi=lane - 1,
                    conn_ids=lane_sets[lo - 1],
                    cell_count=cells,
                    cell_length=cell_len,
                )
            )
            lo = lane
    return groups


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _as_id(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ScenarioError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _lane_range(raw, lanes: int, what: str) -> tuple[int, int]:
    if raw is None:
        return (1, lanes)
    _require(
        isinstance(raw, list) and len(raw) == 2,
        f"{what} must be a [lo, hi] lane pair",
    )
    lo, hi = int(raw[0]), int(raw[1])
    _require(1 <= lo <= hi <= lanes, f"{what} [{lo}, {hi}] outside lanes 1..{lanes}")
    return (lo, hi)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"syntax error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    try:
        return _build_scenario(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ScenarioError(f"missing or malformed field: {e!r}") from None


def _build_scenario(doc) -> Scenario:
    _require(isinstance(doc, dict), "top level must be a JSON object")
    for key in ("nodes", "links", "simulation"):
        _require(key in doc, f"missing top-level key '{key}'")

    sim_raw = doc["simulation"]
    dt = float(sim_raw.get("dt", 0.0))
    steps = int(sim_raw.get("steps", 0))
    eta = float(sim_raw.get("lane_change_rate", 0.5))
    _require(dt > 0, "simulation.dt must be positive")
    _require(steps >= 1, "simulation.steps must be >= 1")
    _require(0.0 < eta <= 1.0, "simulation.lane_change_rate must be in (0, 1]")
    sim = SimParams(dt=dt, steps=steps, lane_change_rate=eta)

    nodes: dict[int, Node] = {}
    for raw in doc["nodes"]:
        nid = _as_id(raw["id"], "node id")
        _require(nid not in nodes, f"duplicate node id {nid}")
        nodes[nid] = Node(id=nid)

    links: dict[int, Link] = {}
    for raw in doc["links"]:
        lid = _as_id(raw["id"], "link id")
        _require(lid not in links, f"duplicate link id {lid}")
        start = _as_id(raw["start_node"], f"link {lid} start_node")
        end = _as_id(raw["end_node"], f"link {lid} end_node")
        _require(start in nodes, f"link {lid} references missing node {start}")
        _require(end in nodes, f"link {lid} references missing node {end}")
        _require(start != end, f"link {lid} start and end node coincide")
        length = float(raw["length"])
        _require(length > 0, f"link {lid} length must be positive")
        lanes = int(raw["lanes"])
        _require(lanes >= 1, f"link {lid} must have at least one lane")
        fd_raw = raw["fd"]
        fd = FDParams(
            capacity=float(fd_raw["capacity"]),
            free_flow_speed=float(fd_raw["free_flow_speed"]),
            congestion_wave_speed=float(fd_raw["congestion_wave_speed"]),
            jam_density=float(fd_raw["jam_density"]),
        )
        for name in ("capacity", "free_flow_speed", "congestion_wave_speed", "jam_density"):
            _require(getattr(fd, name) > 0, f"link {lid} fd.{name} must be positive")
        _require(
            fd.congestion_wave_speed <= fd.free_flow_speed,
            f"link {lid}: congestion wave speed exceeds free-flow speed",
        )
        tri = fd.capacity / fd.free_flow_speed + fd.capacity / fd.congestion_wave_speed
        _require(
            tri <= fd.jam_density + SUM_TOL,
            f"link {lid}: triangular diagram does not fit under jam density "
            f"(needs {tri}, jam {fd.jam_density})",
        )
        _require(
            fd.free_flow_speed * dt <= length + CFL_TOL,
            f"link {lid}: CFL violation, free-flow step {fd.free_flow_speed * dt} m "
            f"exceeds length {length} m",
        )
        links[lid] = Link(
            id=lid,
            start_node=start,
            end_node=end,
            length=length,
            lanes=lanes,
            fd=fd,
            is_source=bool(raw.get("is_source", False)),
        )

    connections: dict[int, RoadConnection] = {}
    for raw in doc.get("roadconnections", []):
        cid = _as_id(raw["id"], "road connection id")
        _require(cid not in connections, f"duplicate road connection id {cid}")
        in_link = _as_id(raw["in_link"], f"connection {cid} in_link")
        out_link = _as_id(raw["out_link"], f"connection {cid} out_link")
        _require(in_link in links, f"connection {cid} references missing link {in_link}")
        _require(out_link in links, f"connection {cid} references missing link {out_link}")
        _require(
            links[in_link].end_node == links[out_link].start_node,
            f"connection {cid}: in_link {in_link} does not end where "
            f"out_link {out_link} starts",
        )
        connections[cid] = RoadConnection(
            id=cid,
            in_link=in_link,
            out_link=out_link,
            in_lanes=_lane_range(
                raw.get("in_lanes"), links[in_link].lanes, f"connection {cid} in_lanes"
            ),
            out_lanes=_lane_range(
                raw.get("out_lanes"), links[out_link].lanes, f"connection {cid} out_lanes"
            ),
        )

    vehicle_types: dict[int, VehicleType] = {}
    for raw in doc.get("vehicletypes", []):
        vid = _as_id(raw["id"], "vehicle type id")
        _require(vid not in vehicle_types, f"duplicate vehicle type id {vid}")
        routing = raw["routing"]
        mode = routing.get("type")
        if mode == "deterministic":
            path = tuple(_as_id(x, f"vehicle type {vid} path entry") for x in routing["path"])
            _require(len(path) >= 1, f"vehicle type {vid} has an empty path")
            vehicle_types[vid] = VehicleType(id=vid, routing="deterministic", path=path)
        elif mode == "probabilistic":
            vehicle_types[vid] = VehicleType(id=vid, routing="probabilistic")
        else:
            raise ScenarioError(f"vehicle type {vid}: unknown routing mode {mode!r}")

    splits: list[SplitRow] = []
    for raw in doc.get("splits", []):
        node = _as_id(raw["node"], "split node")
        in_link = _as_id(raw["in_link"], "split in_link")
        vtype = _as_id(raw["vtype"], "split vtype")
        start_time = float(raw.get("start_time", 0.0))
        ratios_raw = raw["ratios"]
        ratios = tuple(sorted((int(k), float(v)) for k, v in ratios_raw.items()))
        splits.append(
            SplitRow(
                node=node, in_link=in_link, vtype=vtype, start_time=start_time, ratios=ratios
            )
        )

    demands: list[DemandRow] = []
    for raw in doc.get("demands", []):
        link = _as_id(raw["link"], "demand link")
        vtype = _as_id(raw["vtype"], "demand vtype")
        profile = tuple((float(p["start_time"]), float(p["flow"])) for p in raw["profile"])
        demands.append(DemandRow(link=link, vtype=vtype, profile=profile))

    subnetwork = None
    if "subnetwork" in doc:
        sn = doc["subnetwork"]
        subnetwork = SubnetworkMeta(
            index=int(sn["index"]),
            owned_nodes=tuple(sorted(int(x) for x in sn["owned_nodes"])),
            interior_links=tuple(sorted(int(x) for x in sn["interior_links"])),
            relative_sources=tuple(sorted(int(x) for x in sn["relative_sources"])),
            relative_sinks=tuple(sorted(int(x) for x in sn["relative_sinks"])),
            neighbor_of_link=tuple(
                sorted((int(k), int(v)) for k, v in sn["neighbor_of_link"].items())
            ),
        )

    scenario = Scenario(
        nodes=nodes,
        links=links,
        connections=connections,
        vehicle_types=vehicle_types,
        splits=splits,
        demands=demands,
        sim=sim,
        subnetwork=subnetwork,
    )
    validate(scenario)
    return scenario


def validate(s: Scenario) -> None:
    """Cross-reference and invariant checks; also builds derived indexes."""
    out_conns: dict[int, list[int]] = {lid: [] for lid in s.links}
    in_conns: dict[int, list[int]] = {lid: [] for lid in s.links}
    for c in s.connections.values():
        out_conns[c.in_link].append(c.id)
        in_conns[c.out_link].append(c.id)
    s.out_conns = {lid: tuple(sorted(v)) for lid, v in out_conns.items()}
    s.in_conns = {lid: tuple(sorted(v)) for lid, v in in_conns.items()}

    # sink flag is derived from connectivity
    for lid, link in list(s.links.items()):
        is_sink = len(s.out_conns[lid]) == 0
        if link.is_sink != is_sink:
            s.links[lid] = dataclasses.replace(link, is_sink=is_sink)

    # commodities per link: (vt, TERMINAL) for every type on a sink;
    # elsewhere the path successor of each deterministic type whose path
    # holds the link, and every successor for each probabilistic type
    det_comms: dict[int, set[Commodity]] = {}
    for vt in s.vehicle_types.values():
        if vt.routing == "deterministic":
            for pos, lid in enumerate(vt.path):
                nxt = vt.path[pos + 1] if pos + 1 < len(vt.path) else TERMINAL
                det_comms.setdefault(lid, set()).add((vt.id, nxt))
    prob_types = sorted(
        vt.id for vt in s.vehicle_types.values() if vt.routing != "deterministic"
    )
    sink_comms = tuple((vt, TERMINAL) for vt in sorted(s.vehicle_types))

    # lane groups must be constructible and unambiguous for routing
    s.lane_groups, s.commodities = {}, {}
    for lid, link in s.links.items():
        outgoing = [s.connections[c] for c in s.out_conns[lid]]
        groups = tuple(build_lane_groups(link, outgoing, s.sim.dt))
        for g in groups:
            targets = [s.connections[c].out_link for c in g.conn_ids]
            _require(
                len(targets) == len(set(targets)),
                f"link {lid} lanes {g.lane_lo}-{g.lane_hi}: two road connections "
                f"lead to the same downstream link",
            )
        s.lane_groups[lid] = groups
        if not outgoing:
            s.commodities[lid] = sink_comms
            continue
        successors = {c.out_link for c in outgoing}
        comms = [(vt, nxt) for vt in prob_types for nxt in successors]
        comms.extend(det_comms.get(lid, ()))
        s.commodities[lid] = tuple(sorted(comms))

    # deterministic paths: connected, loop-free, end at a sink; fragments
    # keep the full global path (checked before partitioning) but carry only
    # their own links, so the checks apply to whole scenarios only
    for vt in s.vehicle_types.values():
        if s.subnetwork is not None:
            break
        if vt.routing != "deterministic":
            continue
        _require(
            len(set(vt.path)) == len(vt.path),
            f"vehicle type {vt.id} path repeats a link",
        )
        for lid in vt.path:
            _require(lid in s.links, f"vehicle type {vt.id} path references missing link {lid}")
        for a, b in zip(vt.path, vt.path[1:]):
            hops = {s.connections[c].out_link for c in s.out_conns[a]}
            _require(
                b in hops,
                f"vehicle type {vt.id}: no road connection from link {a} to link {b}",
            )
        last = vt.path[-1]
        _require(
            len(s.out_conns[last]) == 0,
            f"vehicle type {vt.id} path must end at a sink link, link {last} has "
            f"outgoing connections",
        )

    # split rows: structural checks plus distribution sums
    split_index: dict[tuple[int, int], list[SplitRow]] = {}
    for row in s.splits:
        _require(row.node in s.nodes, f"split references missing node {row.node}")
        _require(row.in_link in s.links, f"split references missing link {row.in_link}")
        _require(
            s.links[row.in_link].end_node == row.node,
            f"split row for link {row.in_link} keyed to node {row.node}, but the "
            f"link ends at node {s.links[row.in_link].end_node}",
        )
        _require(
            row.vtype in s.vehicle_types,
            f"split references missing vehicle type {row.vtype}",
        )
        _require(
            s.vehicle_types[row.vtype].routing == "probabilistic",
            f"split row given for deterministic vehicle type {row.vtype}",
        )
        reachable = set(s.successors(row.in_link))
        total = 0.0
        for out_link, p in row.ratios:
            _require(
                out_link in reachable,
                f"split at node {row.node}: link {out_link} is not reachable from "
                f"link {row.in_link} via a road connection",
            )
            _require(p >= 0, f"split at node {row.node}: negative ratio for {out_link}")
            total += p
        _require(
            abs(total - 1.0) <= SUM_TOL,
            f"split at node {row.node} in_link {row.in_link}: distribution sums to "
            f"{_short_float(total)}",
        )
        split_index.setdefault((row.in_link, row.vtype), []).append(row)
    for key, rows in split_index.items():
        rows.sort(key=lambda r: r.start_time)
        _require(
            rows[0].start_time == 0.0,
            f"split rows for link {key[0]} vtype {key[1]} must start at time 0",
        )
        for a, b in zip(rows, rows[1:]):
            _require(
                a.start_time < b.start_time,
                f"split rows for link {key[0]} vtype {key[1]} have duplicate "
                f"start_time {b.start_time}",
            )
    s._split_index = split_index

    # demands: sources must be roots or explicitly flagged
    demand_index: dict[int, list[DemandRow]] = {}
    source_links = set()
    for row in s.demands:
        _require(row.link in s.links, f"demand references missing link {row.link}")
        _require(
            row.vtype in s.vehicle_types,
            f"demand references missing vehicle type {row.vtype}",
        )
        has_predecessors = len(s.in_conns[row.link]) > 0
        _require(
            not has_predecessors or s.links[row.link].is_source,
            f"demand on link {row.link} which has upstream connections and no "
            f"is_source flag",
        )
        last = -math.inf
        for start, flow in row.profile:
            _require(flow >= 0, f"demand on link {row.link}: negative flow {flow}")
            _require(
                start > last,
                f"demand on link {row.link}: breakpoints not strictly increasing",
            )
            last = start
        vt = s.vehicle_types[row.vtype]
        if vt.routing == "deterministic":
            _require(
                vt.path[0] == row.link,
                f"deterministic vehicle type {vt.id} demand on link {row.link}, "
                f"but its path starts at link {vt.path[0]}",
            )
        demand_index.setdefault(row.link, []).append(row)
        source_links.add(row.link)
    for rows in demand_index.values():
        rows.sort(key=lambda r: r.vtype)
    s._demand_index = demand_index

    # mark links carrying demand as sources
    for lid in sorted(source_links):
        link = s.links[lid]
        if not link.is_source:
            s.links[lid] = dataclasses.replace(link, is_source=True)

    if s.subnetwork is not None:
        meta = s.subnetwork
        for nid in meta.owned_nodes:
            _require(nid in s.nodes, f"subnetwork owns missing node {nid}")
        for lid in (
            meta.interior_links + meta.relative_sources + meta.relative_sinks
        ):
            _require(lid in s.links, f"subnetwork references missing link {lid}")


def _short_float(x: float) -> str:
    text = f"{x:.12g}"
    return text


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
            "neighbor_of_link": {str(k): v for k, v in meta.neighbor_of_link},
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
