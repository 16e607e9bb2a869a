"""Network partitioning: node subsets, subnetwork fragments, metagraph,
and boundary-message decoder maps.

A partition assigns every node to one of n subsets.  Subnetwork i contains
the nodes of subset i plus every link with an endpoint there.  A link whose
endpoints fall in different subsets is an overlap link: a relative sink for
the subnetwork holding its start node (flow leaves there) and a relative
source for the one holding its end node.  Overlap links are replicated on
both sides and kept in lockstep by the per-step exchange; the relative-sink
side is the authoritative copy for merged output.  Every reader takes a
link's role from the fragment's `owned_nodes`; the role lists are file data
that `validate()` ties to them.

The decoder map fixes, once per run, the layout of the boundary message for
an ordered (sender, receiver) pair: one float slot per (road connection,
lane group, vehicle type, next link) that the sender resolves and the
receiver needs.  Both sides derive the same map independently from their own
fragments and cross-validate at connection time.
"""

from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import ScenarioError
from .scenario import Scenario, SubnetworkMeta, decimal_int, derive_link_tables

BALANCE_FACTOR = 1.1
REFINE_PASSES = 10

# one float in a boundary message:
# (road connection, link, lane group index, vehicle type, next link)
Slot = tuple[int, int, int, int, int]
# a slot's engine key: (link, road connection, lane group index, commodity position)
SlotEntry = tuple[int, int, int, int]


@dataclass
class NodePartition:
    n: int
    assignment: dict[int, int]


def _meta_field(name: str) -> property:
    return property(lambda sub: getattr(sub.fragment.subnetwork, name))


@dataclass
class Subnetwork:
    """A fragment scenario.  Its `SubnetworkMeta` is the one copy of the
    partition fields, which read through here."""

    fragment: Scenario

    index = _meta_field("index")
    owned_nodes = _meta_field("owned_nodes")
    interior_links = _meta_field("interior_links")
    relative_sources = _meta_field("relative_sources")
    relative_sinks = _meta_field("relative_sinks")
    # overlap link -> index of the subnetwork owning its far endpoint
    neighbor_of_link = _meta_field("neighbor_of_link")

    def __post_init__(self):
        if self.fragment.subnetwork is None:
            raise ScenarioError("scenario file carries no subnetwork metadata")

    def neighbors(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.neighbor_of_link.values())))

    def links_with(self, neighbor: int) -> tuple[int, ...]:
        return tuple(lid for lid, nb in self.neighbor_of_link.items() if nb == neighbor)


@dataclass
class Metagraph:
    n: int
    edges: dict[tuple[int, int], tuple[int, ...]]  # (i, j) i<j -> overlap link ids


@dataclass(frozen=True)
class DecoderMap:
    sender: int
    receiver: int
    slots: tuple[Slot, ...]
    # engine key -> slot position in message order, for `Engine.bind_channel`;
    # set by derivation only, so equality, repr and to_doc() leave it out
    positions: dict[SlotEntry, int] = field(default_factory=dict, repr=False, compare=False)

    @property
    def message_length(self) -> int:
        return len(self.slots)

    def to_doc(self) -> dict:
        """The JSON form of decoder files and of the handshake payload."""
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "slots": [list(slot) for slot in self.slots],
        }

    @classmethod
    def from_doc(cls, doc) -> DecoderMap:
        """Inverse of `to_doc`; KeyError or TypeError when `doc` is
        malformed, a TypeError for any value that is not an int (a bool is
        not)."""
        sender, receiver = doc["sender"], doc["receiver"]
        slots = tuple(tuple(slot) for slot in doc["slots"])
        for value in (sender, receiver, *(x for slot in slots for x in slot)):
            if type(value) is not int:
                raise TypeError(f"expected an integer, got {value!r}")
        return cls(sender=sender, receiver=receiver, slots=slots)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def balance_cap(node_count: int, n: int) -> int:
    return math.ceil(BALANCE_FACTOR * node_count / n)


def _adjacency(scenario: Scenario) -> dict[int, dict[int, int]]:
    adj: dict[int, dict[int, int]] = {nid: {} for nid in scenario.nodes}
    for link in scenario.links.values():
        a, b = link.start_node, link.end_node
        adj[a][b] = adj[a].get(b, 0) + 1
        adj[b][a] = adj[b].get(a, 0) + 1
    return adj


def partition_nodes(scenario: Scenario, n: int, seed: int = 0) -> NodePartition:
    """Greedy BFS region growing from spread-out seeds, followed by
    gain-based boundary refinement.  Deterministic for a fixed seed; largest
    subset stays within ceil(1.1 * |nodes| / n)."""
    nodes = sorted(scenario.nodes)
    count = len(nodes)
    if n < 1 or n > count:
        raise ScenarioError(f"subset count {n} out of range 1..{count}")
    if n == 1:
        return NodePartition(1, {v: 0 for v in nodes})

    adj = _adjacency(scenario)
    rng = random.Random(seed)
    seeds = [nodes[rng.randrange(count)]]
    taken = set(seeds)
    dist: dict[int, int] = {}  # hops from the nearest seed; absent if unreachable
    while len(seeds) < n:
        _lower_distances(adj, dist, seeds[-1])
        # the node farthest from its nearest seed, the lowest id on ties
        best = max((v for v in nodes if v not in taken), key=lambda v: dist.get(v, math.inf))
        seeds.append(best)
        taken.add(best)

    target = math.ceil(count / n)
    assignment: dict[int, int] = {}
    sizes = [0] * n
    queues: list[deque] = []
    for i, s in enumerate(seeds):
        assignment[s] = i
        sizes[i] = 1
        queues.append(deque(sorted(adj[s])))
    remaining = count - n
    while remaining > 0:
        order = sorted(range(n), key=lambda i: (sizes[i], i))
        progressed = False
        for i in order:
            if sizes[i] >= target:
                continue
            v = None
            while queues[i]:
                cand = queues[i].popleft()
                if cand not in assignment:
                    v = cand
                    break
            if v is None:
                continue
            assignment[v] = i
            sizes[i] += 1
            remaining -= 1
            for w in sorted(adj[v]):
                if w not in assignment:
                    queues[i].append(w)
            progressed = True
            break
        if not progressed:
            # disconnected leftovers: hand them to the smallest subsets
            leftovers = [v for v in nodes if v not in assignment]
            for v in leftovers:
                i = min(range(n), key=lambda i: (sizes[i], i))
                assignment[v] = i
                sizes[i] += 1
                remaining -= 1

    cap = balance_cap(count, n)
    _refine(nodes, adj, assignment, sizes, cap)
    return NodePartition(n, assignment)


def _lower_distances(adj, dist: dict[int, int], seed: int) -> None:
    """Lower `dist`, hops from the nearest earlier seed, to hops from the
    nearest seed once `seed` is one too: a BFS from `seed` that stops at
    every node it does not bring closer, since no node beyond one is
    closer through it either."""
    dist[seed] = 0
    frontier = deque([seed])
    while frontier:
        v = frontier.popleft()
        d = dist[v] + 1
        for w in adj[v]:
            if d < dist.get(w, math.inf):
                dist[w] = d
                frontier.append(w)


def _refine(nodes, adj, assignment, sizes, cap) -> None:
    """Kernighan-Lin style single-node moves: shift boundary nodes to the
    neighboring subset with the largest positive cut reduction, keeping
    subsets non-empty and within the balance cap."""
    for _ in range(REFINE_PASSES):
        improved = False
        for v in nodes:
            own = assignment[v]
            if sizes[own] <= 1:
                continue
            weight: dict[int, int] = {}
            for w, mult in sorted(adj[v].items()):
                weight[assignment[w]] = weight.get(assignment[w], 0) + mult
            internal = weight.get(own, 0)
            best, best_gain = own, 0
            for subset in sorted(weight):
                if subset == own or sizes[subset] + 1 > cap:
                    continue
                gain = weight[subset] - internal
                if gain > best_gain:
                    best, best_gain = subset, gain
            if best != own:
                assignment[v] = best
                sizes[own] -= 1
                sizes[best] += 1
                improved = True
        if not improved:
            break


# ---------------------------------------------------------------------------
# Partition files
# ---------------------------------------------------------------------------


def save_partition(partition: NodePartition, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("# node_id subset_index\n")
        for node in sorted(partition.assignment):
            f.write(f"{node} {partition.assignment[node]}\n")


def parse_partition(text: str, scenario: Scenario) -> NodePartition:
    """Read a partition file: either `node_id subset` pairs, or METIS-style
    one-subset-per-line where line k applies to the k-th smallest node id."""
    pairs: list[tuple[int, int]] = []
    single: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].split("%", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        what = "partition file line {}: {}"
        if len(tokens) == 1:
            single.append(decimal_int(tokens[0], what, lineno, "subset"))
        elif len(tokens) == 2:
            node = decimal_int(tokens[0], what, lineno, "node")
            pairs.append((node, decimal_int(tokens[1], what, lineno, "subset")))
        else:
            raise ScenarioError(f"partition file line {lineno}: expected 1 or 2 fields")
    if pairs and single:
        raise ScenarioError("partition file mixes pair and single-column lines")

    nodes = sorted(scenario.nodes)
    if single:
        if len(single) != len(nodes):
            raise ScenarioError(
                f"METIS-style partition has {len(single)} lines for {len(nodes)} nodes"
            )
        assignment = dict(zip(nodes, single))
    else:
        assignment = {}
        for node, subset in pairs:
            if node not in scenario.nodes:
                raise ScenarioError(f"partition names unknown node {node}")
            if node in assignment:
                raise ScenarioError(f"partition assigns node {node} twice")
            assignment[node] = subset
        for node in nodes:
            if node not in assignment:
                raise ScenarioError(f"partition is missing node {node}")

    if not assignment:
        raise ScenarioError("partition assigns no nodes")
    # the distinct indices, ascending: the first that is not its own rank
    # names an empty subset
    for i, subset in enumerate(sorted(set(assignment.values()))):
        if subset != i:
            raise ScenarioError(f"subset {i} is empty")
    return NodePartition(max(assignment.values()) + 1, assignment)


def load_partition(path: str, scenario: Scenario) -> NodePartition:
    with open(path, "r", encoding="utf-8") as f:
        return parse_partition(f.read(), scenario)


# ---------------------------------------------------------------------------
# Subnetworks
# ---------------------------------------------------------------------------


def build_subnetworks(scenario: Scenario, partition: NodePartition) -> list[Subnetwork]:
    """Cut the validated `scenario` into per-subset fragments.

    Each fragment carries: its owned nodes; every link incident to them
    (interior plus overlap); the road connections touching those links (so
    both sides of an overlap link derive identical lane groups); stub links
    and nodes referenced by those connections; every split row whose in_link
    is a carried simulated link (the entry-time turn lookup for an overlap
    link lives at a node the other side owns); and the demand rows of all
    carried simulated links (both replicas of an overlap source inject
    identically).  Fragments validate as stand-alone scenarios.

    The fragments are not run through validate() again.  A simulated link
    keeps every road connection it has in `scenario`, so its connection,
    lane-group and commodity entries, its split and demand rows and its
    flags equal the parent's; the fragment takes those entries, all
    immutable, from `scenario`.  A stub keeps only its connections to
    simulated links and may become a sink, so `derive_link_tables` derives
    its entries as validate() does.  Every check validate() makes holds by
    construction: the rows and lane groups of simulated links passed it in
    `scenario`, a stub's lane groups serve a subset of its connections, the
    paths are the parent's and a fragment checks them only on its simulated
    links, whose successors are the parent's, and link roles and
    `neighbor_of_link` follow from `partition`.  Fragments read from files
    are validated in full, deterministic paths included.
    """
    assign = partition.assignment
    subs = []
    for index in range(partition.n):
        owned = sorted(v for v in scenario.nodes if assign[v] == index)
        owned_set = set(owned)
        sim_links = []
        interior, rel_sources, rel_sinks = [], [], []
        neighbor_of_link: dict[int, int] = {}
        for lid in sorted(scenario.links):
            link = scenario.links[lid]
            s_in = link.start_node in owned_set
            e_in = link.end_node in owned_set
            if not (s_in or e_in):
                continue
            sim_links.append(lid)
            if s_in and e_in:
                interior.append(lid)
            elif s_in:
                rel_sinks.append(lid)
                neighbor_of_link[lid] = assign[link.end_node]
            else:
                rel_sources.append(lid)
                neighbor_of_link[lid] = assign[link.start_node]

        sim_set = set(sim_links)
        conn_ids = sorted(
            c.id
            for c in scenario.connections.values()
            if c.in_link in sim_set or c.out_link in sim_set
        )

        frag_link_ids = set(sim_links)
        for cid in conn_ids:
            conn = scenario.connections[cid]
            frag_link_ids.add(conn.in_link)
            frag_link_ids.add(conn.out_link)
        frag_node_ids = set(owned)
        for lid in frag_link_ids:
            frag_node_ids.add(scenario.links[lid].start_node)
            frag_node_ids.add(scenario.links[lid].end_node)

        meta = SubnetworkMeta(
            index=index,
            owned_nodes=tuple(owned),
            interior_links=tuple(interior),
            relative_sources=tuple(rel_sources),
            relative_sinks=tuple(rel_sinks),
            neighbor_of_link=neighbor_of_link,
        )
        fragment = Scenario(
            nodes={nid: scenario.nodes[nid] for nid in sorted(frag_node_ids)},
            links={lid: scenario.links[lid] for lid in sorted(frag_link_ids)},
            connections={cid: scenario.connections[cid] for cid in conn_ids},
            vehicle_types=dict(scenario.vehicle_types),
            splits=[r for r in scenario.splits if r.in_link in sim_set],
            demands=[r for r in scenario.demands if r.link in sim_set],
            sim=scenario.sim,
            subnetwork=meta,
            in_conns={lid: scenario.in_conns[lid] for lid in sim_links},
            lane_groups={lid: scenario.lane_groups[lid] for lid in sim_links},
            commodities={lid: scenario.commodities[lid] for lid in sim_links},
            _split_index={
                key: rows for key, rows in scenario._split_index.items() if key[0] in sim_set
            },
            _demand_index={
                lid: rows for lid, rows in scenario._demand_index.items() if lid in sim_set
            },
        )
        derive_link_tables(fragment, sorted(frag_link_ids - sim_set))
        subs.append(Subnetwork(fragment))
    return subs


# ---------------------------------------------------------------------------
# Metagraph
# ---------------------------------------------------------------------------


def build_metagraph(subs: list[Subnetwork]) -> Metagraph:
    edges: dict[tuple[int, int], set[int]] = {}
    for sub in subs:
        for lid, nb in sub.neighbor_of_link.items():
            key = (min(sub.index, nb), max(sub.index, nb))
            edges.setdefault(key, set()).add(lid)
    return Metagraph(
        n=len(subs),
        edges={key: tuple(sorted(lids)) for key, lids in sorted(edges.items())},
    )


# ---------------------------------------------------------------------------
# Decoder maps
# ---------------------------------------------------------------------------


def delivery_slots(frag: Scenario, link_id: int) -> Iterator[tuple[Slot, SlotEntry]]:
    """(slot, engine key) pairs for flows entering an overlap link, resolved
    upstream: one per (connection in, target lane group, commodity of the
    link whose vehicle type can take that connection)."""
    comms = frag.commodities[link_id]
    for cid in frag.in_conns[link_id]:
        # a vehicle type can take cid iff (type, link_id) occurs upstream
        upstream = frag.commodities[frag.connections[cid].in_link]
        entering = [(p, vt, nxt) for p, (vt, nxt) in enumerate(comms) if (vt, link_id) in upstream]
        for g in frag.lane_groups[link_id]:
            for p, vt, nxt in entering:
                yield (cid, link_id, g.index, vt, nxt), (link_id, cid, g.index, p)


def removal_slots(frag: Scenario, link_id: int) -> Iterator[tuple[Slot, SlotEntry]]:
    """(slot, engine key) pairs for flows leaving an overlap link, resolved
    downstream: one per (connection out, source lane group serving it,
    commodity headed to the connection's out link)."""
    comms = frag.commodities[link_id]
    for g in frag.lane_groups[link_id]:
        for cid in g.conn_ids:
            out_link = frag.connections[cid].out_link
            for p, (vt, nxt) in enumerate(comms):
                if nxt == out_link:
                    yield (cid, link_id, g.index, vt, nxt), (link_id, cid, g.index, p)


def _message_map(sub: Subnetwork, sender: int, receiver: int) -> DecoderMap:
    """Layout of the message `sender` sends to `receiver`, derived from
    `sub`'s own fragment, `sub` being either of the two.  A link's slots are
    delivery slots when the sender owns its start node, removal slots
    otherwise, as the engine reads its roles from `owned_nodes`.  The keys
    name positions in `sub`'s engine."""
    sub_sends = sub.index == sender
    owned = set(sub.owned_nodes)
    pairs: list[tuple[Slot, SlotEntry]] = []
    for lid in sub.links_with(receiver if sub_sends else sender):
        sender_starts = (sub.fragment.links[lid].start_node in owned) == sub_sends
        pairs.extend((delivery_slots if sender_starts else removal_slots)(sub.fragment, lid))
    pairs.sort(key=itemgetter(0))  # by slot; slots are distinct
    slots, keys = zip(*pairs) if pairs else ((), ())
    positions = dict(zip(keys, range(len(keys))))
    return DecoderMap(sender=sender, receiver=receiver, slots=slots, positions=positions)


def build_decoder_map(sub: Subnetwork, neighbor: int) -> DecoderMap:
    """Layout of the message `sub` sends to `neighbor`: deliveries into
    overlap links owned upstream by `sub`, removals from overlap links owned
    upstream by `neighbor`.  Fixed for the whole run."""
    return _message_map(sub, sub.index, neighbor)


def build_receive_map(sub: Subnetwork, neighbor: int) -> DecoderMap:
    """Layout of the message `sub` expects from `neighbor`, derived from
    `sub`'s own fragment; must equal the neighbor's send map element-wise."""
    return _message_map(sub, neighbor, sub.index)
