"""Coupling registry: map scheme names to per-subflow controller factories.

A *coupling* owns whatever state its controllers share (TraSh's rate sums,
LIA's alpha) and hands out one controller per subflow.  Uncoupled schemes
get a trivial factory.  :func:`create_coupling` is the single entry point
experiments use, so scheme names in configs ("xmp", "lia-4", …) resolve in
one place.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.bos import BosCC
from repro.core.trash import TraSh
from repro.mptcp.lia import LiaCoupling
from repro.mptcp.olia import OliaCoupling
from repro.transport.cc import CongestionControl, RenoCC
from repro.transport.dctcp import DctcpCC


class UncoupledFactory:
    """Independent controllers; ``factory`` builds each one."""

    def __init__(self, factory: Callable[[], CongestionControl]) -> None:
        self._factory = factory
        self._controllers: List[CongestionControl] = []

    def make_controller(self) -> CongestionControl:
        controller = self._factory()
        self._controllers.append(controller)
        return controller

    @property
    def controllers(self) -> List[CongestionControl]:
        return list(self._controllers)


class XmpCoupling(TraSh):
    """TraSh with a fixed beta baked in, conforming to the coupling API."""

    def __init__(self, beta: float, weight: float = 1.0) -> None:
        super().__init__(weight=weight)
        self.beta = beta

    def make_controller(self) -> BosCC:  # type: ignore[override]
        return super().make_controller(self.beta)


def create_coupling(scheme: str, beta: float = 4.0, weight: float = 1.0):
    """Build the coupling object for ``scheme``.

    Recognized schemes: ``xmp``, ``lia``, ``olia``, ``bos-uncoupled``,
    ``dctcp``, ``d2tcp``, ``tcp`` / ``reno``, ``reno-ecn``.  ``weight``
    only affects XMP (bandwidth differentiation, see
    :class:`repro.core.trash.TraSh`).
    """
    name = scheme.lower()
    if name == "xmp":
        return XmpCoupling(beta, weight=weight)
    if name == "lia":
        return LiaCoupling()
    if name == "olia":
        return OliaCoupling()
    if name == "bos-uncoupled":
        return UncoupledFactory(lambda: BosCC(beta=beta))
    if name == "dctcp":
        return UncoupledFactory(DctcpCC)
    if name == "d2tcp":
        # Deadline-less D2TCP controllers (d = 1, i.e. DCTCP-equivalent);
        # per-flow deadlines are set by constructing D2tcpCC directly.
        from repro.transport.d2tcp import D2tcpCC

        return UncoupledFactory(D2tcpCC)
    if name in ("tcp", "reno"):
        return UncoupledFactory(lambda: RenoCC(ecn=False))
    if name == "reno-ecn":
        return UncoupledFactory(lambda: RenoCC(ecn=True))
    raise ValueError(f"unknown scheme: {scheme!r}")


def scheme_label(scheme: str, subflows: int = 1) -> str:
    """The report name of a scheme at a subflow count: "XMP-2", "DCTCP"."""
    base = scheme.upper()
    return f"{base}-{subflows}" if subflows > 1 else base


def available_schemes() -> List[str]:
    """Names :func:`create_coupling` accepts."""
    return [
        "xmp",
        "lia",
        "olia",
        "bos-uncoupled",
        "dctcp",
        "d2tcp",
        "tcp",
        "reno",
        "reno-ecn",
    ]


__all__ = ["create_coupling", "available_schemes", "scheme_label",
           "UncoupledFactory", "XmpCoupling"]
