"""Simulated network substrate: hosts, connections, framing, clusters."""

from .cluster import Cluster
from .faults import ALL_KINDS, Blackout, FaultPlan
from .network import Connection, ConnectionHandler, Network, Peer, ServiceFactory
from .rpc import ProtocolError, decode_message, encode_message

__all__ = [
    "ALL_KINDS",
    "Blackout",
    "Cluster",
    "Connection",
    "ConnectionHandler",
    "FaultPlan",
    "Network",
    "Peer",
    "ProtocolError",
    "ServiceFactory",
    "decode_message",
    "encode_message",
]
