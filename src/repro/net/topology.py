"""Topologies: named nodes, directed links with output ports, and routing.

A :class:`Network` is a thin registry: nodes are names, a directed link
``u -> v`` owns one :class:`~repro.net.link.OutputPort`, and routes are
minimum-hop paths (breadth-first search) returned as ordered port lists
ready to stamp onto packets.

Two builders cover the paper's topologies:

* :func:`single_link` — the dumbbell used by every experiment except the
  multi-hop study: many sources share one congested port.
* :func:`parking_lot` — the 12-node topology of Figure 10: a linear
  backbone of congested links, with per-link cross-traffic entry/exit nodes
  so "short" flows cross one backbone link and "long" flows cross them all.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.net.link import OutputPort
from repro.net.queues import QueueDiscipline
from repro.sim.engine import Simulator

#: A factory producing a fresh queueing discipline for one port.
QdiscFactory = Callable[[], QueueDiscipline]


class Network:
    """Registry of nodes, directed ports, and cached minimum-hop routes."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: node -> its successors; nodes and successors in insertion order.
        self._successors: Dict[str, List[str]] = {}
        self._ports: Dict[Tuple[str, str], OutputPort] = {}
        self._route_cache: Dict[Tuple[str, str], List[OutputPort]] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, name: str) -> None:
        """Register a node; adding an existing node is harmless."""
        self._successors.setdefault(name, [])

    def add_link(
        self,
        u: str,
        v: str,
        rate_bps: float,
        qdisc_factory: QdiscFactory,
        prop_delay: float = 0.0,
        bidirectional: bool = False,
    ) -> OutputPort:
        """Create the directed link ``u -> v`` and return its output port.

        With ``bidirectional=True`` a mirror port ``v -> u`` (fresh qdisc)
        is created as well; the forward port is returned either way.
        """
        if (u, v) in self._ports:
            raise TopologyError(f"link {u}->{v} already exists")
        port = OutputPort(
            self.sim, rate_bps, qdisc_factory(), prop_delay, name=f"{u}->{v}"
        )
        self.add_node(u)
        self.add_node(v)
        self._successors[u].append(v)
        self._ports[(u, v)] = port
        self._route_cache.clear()
        if bidirectional:
            self.add_link(v, u, rate_bps, qdisc_factory, prop_delay)
        return port

    # -- lookup -----------------------------------------------------------

    def port(self, u: str, v: str) -> OutputPort:
        """The output port of directed link ``u -> v``."""
        try:
            return self._ports[(u, v)]
        except KeyError:
            raise TopologyError(f"no link {u}->{v}") from None

    def ports(self) -> List[OutputPort]:
        """All ports, in insertion order."""
        return list(self._ports.values())

    def route(self, src: str, dst: str) -> List[OutputPort]:
        """Minimum-hop route from ``src`` to ``dst`` as a list of ports."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        for node in key:
            if node not in self._successors:
                raise TopologyError(f"no route {src}->{dst}: unknown node {node!r}")
        # Breadth-first search from ``src``; between equally short paths the
        # link added first wins, so routes depend on nothing but the build.
        came_from: Dict[str, Optional[str]] = {src: None}
        frontier = deque([src])
        while frontier and dst not in came_from:
            node = frontier.popleft()
            for successor in self._successors[node]:
                if successor not in came_from:
                    came_from[successor] = node
                    frontier.append(successor)
        if dst not in came_from:
            raise TopologyError(f"no route {src}->{dst}: no path between them")
        hops: List[OutputPort] = []
        node = dst
        while (previous := came_from[node]) is not None:
            hops.append(self._ports[(previous, node)])
            node = previous
        hops.reverse()
        self._route_cache[key] = hops
        return hops


def single_link(
    sim: Simulator,
    rate_bps: float,
    qdisc_factory: QdiscFactory,
    prop_delay: float = 0.020,
) -> Tuple[Network, OutputPort]:
    """The paper's basic topology: one congested link ``src -> dst``.

    Returns the network and the bottleneck port.
    """
    net = Network(sim)
    net.add_node("src")
    net.add_node("dst")
    port = net.add_link("src", "dst", rate_bps, qdisc_factory, prop_delay)
    return net, port


def parking_lot(
    sim: Simulator,
    rate_bps: float,
    qdisc_factory: QdiscFactory,
    prop_delay: float = 0.020,
    backbone_links: int = 3,
    access_rate_bps: Optional[float] = None,
) -> Tuple[Network, List[OutputPort]]:
    """The Figure-10 multi-link topology (a "parking lot").

    Backbone routers ``b0 .. b<n>`` are chained by ``backbone_links``
    congested links.  Each backbone link *i* has a cross-traffic ingress
    ``in<i>`` attached to its upstream router and a cross-traffic egress
    ``out<i>`` attached to its downstream router, so cross flows
    ``in<i> -> out<i>`` traverse exactly one congested link while long flows
    ``b0 -> b<n>`` traverse all of them.  With three backbone links this is
    the paper's 12-node layout (4 backbone + 3 ingress + 3 egress nodes,
    with long-flow source/sink hosts folded into ``b0``/``b<n>``).

    Access links are uncongested: much faster than the backbone so that the
    only loss happens on backbone ports.

    Returns the network and the list of backbone ports, upstream first.
    """
    if backbone_links < 1:
        raise TopologyError(f"need at least one backbone link, got {backbone_links!r}")
    access_rate = access_rate_bps if access_rate_bps is not None else rate_bps * 100
    net = Network(sim)
    routers = [f"b{i}" for i in range(backbone_links + 1)]
    for name in routers:
        net.add_node(name)
    backbone_ports: List[OutputPort] = []
    for i in range(backbone_links):
        port = net.add_link(routers[i], routers[i + 1], rate_bps, qdisc_factory, prop_delay)
        backbone_ports.append(port)
    for i in range(backbone_links):
        ingress, egress = f"in{i}", f"out{i}"
        net.add_node(ingress)
        net.add_node(egress)
        # Access hops: generously provisioned, negligible delay.
        net.add_link(ingress, routers[i], access_rate, qdisc_factory, prop_delay / 10)
        net.add_link(routers[i + 1], egress, access_rate, qdisc_factory, prop_delay / 10)
    return net, backbone_ports
