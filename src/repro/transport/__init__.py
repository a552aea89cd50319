"""Transport protocols: TCP (Reno/NewReno + ECN), DCTCP, and shared plumbing.

The sender state machine lives in :mod:`repro.transport.tcp`; congestion
control algorithms are pluggable strategies (:mod:`repro.transport.cc`,
:mod:`repro.transport.dctcp`, :mod:`repro.core.bos`); the receiver with its
delayed-ACK and ECN-echo variants is :mod:`repro.transport.receiver`.
"""

from repro.transport.rto import RttEstimator, DEFAULT_RTO_MIN
from repro.transport.cc import CongestionControl, RenoCC
from repro.transport.dctcp import DctcpCC
from repro.transport.receiver import Receiver, EchoMode
from repro.transport.tcp import TcpSender, SegmentSource, FiniteSource, InfiniteSource

__all__ = [
    "RttEstimator",
    "DEFAULT_RTO_MIN",
    "CongestionControl",
    "RenoCC",
    "DctcpCC",
    "Receiver",
    "EchoMode",
    "TcpSender",
    "SegmentSource",
    "FiniteSource",
    "InfiniteSource",
]
