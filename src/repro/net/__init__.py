"""Packet-network substrate: packets, queues, marking, links, topologies."""

from repro.net.link import OutputPort, PortStats
from repro.net.packet import (
    ACK,
    BEST_EFFORT,
    DATA,
    PRIO_DATA,
    PRIO_PROBE,
    PROBE,
    FlowAccounting,
    Packet,
    Receiver,
    packet_path,
)
from repro.net.queues import (
    DropTailFifo,
    FairQueueing,
    QueueDiscipline,
    RedFifo,
    TwoLevelPriorityQueue,
)
from repro.net.sink import Sink
from repro.net.topology import Network, parking_lot, single_link
from repro.net.vq import VirtualQueue

__all__ = [
    "ACK",
    "BEST_EFFORT",
    "DATA",
    "DropTailFifo",
    "FairQueueing",
    "FlowAccounting",
    "Network",
    "OutputPort",
    "PRIO_DATA",
    "PRIO_PROBE",
    "PROBE",
    "Packet",
    "PortStats",
    "QueueDiscipline",
    "Receiver",
    "RedFifo",
    "Sink",
    "TwoLevelPriorityQueue",
    "VirtualQueue",
    "packet_path",
    "parking_lot",
    "single_link",
]
