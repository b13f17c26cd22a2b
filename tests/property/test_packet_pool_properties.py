"""Property-based tests for packet reuse.

Packets are recycled on two paths.  A :class:`Source` keeps its own free
list and stamps its packets' constant fields (size, kind, priority, flow,
path, home) once, at construction, so ``_emit`` resets only the fields
that differ between two of its packets.  :meth:`FlowAccounting.acquire`
keeps one free list per flow and reinitializes every field.  The contract
of both is that recycling is invisible: a recycled packet must equal a
fresh packet slot for slot, whatever its previous life did to it.  These
tests mutate recycled packets adversarially (ECN bit, hop index, payload,
sequence number, timestamp), drive random emit/release interleavings to
pin the structural invariants (no packet is ever live and parked at once,
double release never duplicates an entry, a free list never holds more
packets than were alive at once, a packet goes back only to its own
home), and check by AST that nothing else writes the fields a source
stamps once.
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import DATA, PROBE, FlowAccounting, Packet, packet_path
from repro.sim.engine import Simulator
from repro.tcp.reno import TcpRenoSender
from repro.traffic.base import Source

_sizes = st.integers(min_value=1, max_value=65_535)
_kinds = st.sampled_from([DATA, PROBE])
_seqs = st.integers(min_value=0, max_value=2**31)
_prios = st.integers(min_value=0, max_value=3)
_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_ops = st.lists(st.sampled_from(["acquire", "release", "double-release"]),
                min_size=1, max_size=200)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class _Hold:
    """A first hop that keeps what it is sent, so the test owns the packet."""

    def __init__(self) -> None:
        self.held: list = []

    def send(self, pkt: Packet) -> None:
        self.held.append(pkt)


class _Terminal:
    def receive(self, pkt: Packet) -> None:
        pass


def _source(flow: FlowAccounting, size: int = 100, kind: int = DATA,
            prio: int = 0) -> "tuple[Source, _Hold]":
    hold = _Hold()
    return Source(Simulator(), [hold], _Terminal(), flow, size, kind, prio), hold


def _emit(source: Source, hold: _Hold) -> Packet:
    source._emit(source._epoch)
    return hold.held.pop()


def _mangle(pkt: Packet) -> None:
    """Simulate a full previous life: every mutable field left dirty."""
    pkt.ecn = True
    pkt.hop = len(pkt.path) + 3
    pkt.payload = {"stale": object()}
    pkt.seq = -1
    pkt.created = 9e9


def _assert_same_slots(pkt: Packet, fresh: Packet) -> None:
    for slot in Packet.__slots__:
        assert getattr(pkt, slot) == getattr(fresh, slot), slot


@given(_sizes, _kinds, _prios, _times)
def test_source_recycled_packet_has_no_stale_state(size, kind, prio, created):
    flow = FlowAccounting(7)
    source, hold = _source(flow, size, kind, prio)
    first = _emit(source, hold)
    _mangle(first)
    first.release()

    source.sim.run(until=created)
    pkt = _emit(source, hold)
    assert pkt is first  # the source actually recycled it
    fresh = Packet(size, kind, flow, source._path, prio=prio, seq=2,
                   created=created, home=source._free)
    _assert_same_slots(pkt, fresh)
    assert pkt.path is fresh.path and pkt.home is fresh.home


@given(_sizes, _kinds, _prios, _seqs, _times)
def test_recycled_packet_has_no_stale_state(size, kind, prio, seq, created):
    flow = FlowAccounting(7)
    first = flow.acquire(999, PROBE, [_Hold()], _Terminal(), prio=0, seq=123,
                         created=1.0, payload="old")
    _mangle(first)
    first.release()

    route = [_Hold()]
    sink = _Terminal()
    pkt = flow.acquire(size, kind, route, sink, prio=prio, seq=seq,
                       created=created)
    assert pkt is first  # the free list actually recycled it
    fresh = Packet(size, kind, flow, packet_path(route, sink), prio=prio,
                   seq=seq, created=created, home=flow._pool)
    _assert_same_slots(pkt, fresh)


def _check_interleaving(ops, make, free) -> None:
    """Drive ``ops`` against one acquisition path and its free list."""
    live: list = []
    peak = 0
    for op in ops:
        if op == "acquire":
            pkt = make()
            assert not pkt.pooled
            assert all(pkt is not other for other in live)
            live.append(pkt)
            peak = max(peak, len(live))
        elif live:
            pkt = live.pop()
            pkt.release()
            if op == "double-release":
                before = len(free)
                pkt.release()
                assert len(free) == before  # ignored, no duplicate
        assert len(free) <= peak
    # Structural invariants at the end of any interleaving.
    assert len({id(p) for p in free}) == len(free)
    assert all(p.pooled and p.payload is None for p in free)
    assert all(not p.pooled for p in live)
    assert not ({id(p) for p in free} & {id(p) for p in live})


@given(_ops)
@settings(max_examples=100)
def test_acquire_release_interleavings_keep_invariants(ops):
    flow = FlowAccounting(1)
    route, sink = [_Hold()], _Terminal()
    _check_interleaving(ops, lambda: flow.acquire(100, DATA, route, sink),
                        flow._pool)


@given(_ops)
@settings(max_examples=100)
def test_emit_release_interleavings_keep_invariants(ops):
    source, hold = _source(FlowAccounting(1))
    _check_interleaving(ops, lambda: _emit(source, hold), source._free)


def test_pool_is_bounded():
    """A free list never holds more packets than were alive at once."""
    flow = FlowAccounting(1)
    route, sink = [_Hold()], _Terminal()
    source, hold = _source(FlowAccounting(2))
    for burst in (300, 5, 120, 300):
        packets = [flow.acquire(100, DATA, route, sink) for _ in range(burst)]
        packets += [_emit(source, hold) for _ in range(burst)]
        for pkt in packets:
            pkt.release()
    assert len(flow._pool) == 300
    assert len(source._free) == 300


def test_release_rejects_foreign_packets():
    """A dead packet goes back to the free list that made it, and no other."""
    mine, theirs = FlowAccounting(1), FlowAccounting(2)
    pkt = theirs.acquire(100, DATA, [_Hold()], _Terminal())
    pkt.release()
    assert theirs._pool == [pkt]
    assert mine._pool == []
    # A source's packet goes home to the source, even on the flow's path.
    source, hold = _source(mine)
    own = _emit(source, hold)
    own.release()
    assert source._free == [own]
    assert mine._pool == []


def test_released_payload_is_dropped_immediately():
    flow = FlowAccounting(1)
    pkt = flow.acquire(100, DATA, [_Hold()], _Terminal(),
                       payload={"pinned": True})
    pkt.release()
    assert pkt.payload is None


def test_packet_without_a_home_is_never_pooled():
    hold = _Hold()
    sender = TcpRenoSender(Simulator(), [hold], _Terminal())
    sender.start()
    segment = hold.held[0]
    assert segment.home is None
    segment.release()
    assert not segment.pooled
    assert segment.payload == 0  # not parked, so the payload stays


def test_acquire_rebuilds_the_path_only_for_a_new_route():
    flow = FlowAccounting(1)
    route, sink = [_Hold()], _Terminal()
    first = flow.acquire(100, DATA, route, sink)
    assert flow.acquire(100, DATA, route, sink).path is first.path
    other = [_Hold()]
    assert flow.acquire(100, DATA, other, sink).path == packet_path(other, sink)


# -- the fields a source stamps once --------------------------------------------

#: Written only where a packet is built or rebuilt from scratch.
_STAMPED = {"size", "kind", "prio", "flow", "path", "home"}
_BUILDERS = {("Packet", "__init__"), ("FlowAccounting", "acquire"),
             ("Source", "_emit")}


def _stamped_writes(tree: ast.AST) -> "list[tuple[str, str, int]]":
    """``(class, function, line)`` of every write to a stamped field outside
    the builders: ``<obj>.<field>`` targets whose object is not ``self``,
    ``self.<field>`` inside class ``Packet``, and ``setattr`` by name."""
    found = []

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                yield from targets(elt)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        else:
            yield node

    def is_self(node):
        return isinstance(node, ast.Name) and node.id == "self"

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, ""
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        writes = []
        if isinstance(node, ast.Assign):
            writes = [t for target in node.targets for t in targets(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            writes = list(targets(node.target))
        for target in writes:
            if (isinstance(target, ast.Attribute) and target.attr in _STAMPED
                    and (not is_self(target.value) or cls == "Packet")
                    and (cls, fn) not in _BUILDERS):
                found.append((cls, fn, node.lineno))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in _STAMPED
                and not is_self(node.args[0])):
            found.append((cls, fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, "", "")
    return found


def test_only_builders_write_the_stamped_fields():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(SRC)}:{line} ({cls}.{fn})"
                      for cls, fn, line in _stamped_writes(tree)]
    assert not offenders, offenders


def test_the_scan_flags_a_planted_write():
    planted = ast.parse(
        "class RedFifo:\n"
        "    def enqueue(self, pkt, now):\n"
        "        pkt.prio = 0\n"
        "        a, pkt.home = 1, None\n"
        "        setattr(pkt, 'size', 1)\n"
        "class Packet:\n"
        "    def release(self):\n"
        "        self.flow = None\n"
    )
    assert _stamped_writes(planted) == [
        ("RedFifo", "enqueue", 3), ("RedFifo", "enqueue", 4),
        ("RedFifo", "enqueue", 5), ("Packet", "release", 8),
    ]
