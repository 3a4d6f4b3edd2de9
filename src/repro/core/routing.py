"""Operation routing: which brick coordinates, and what happens if it dies.

FAB is fully decentralized — any brick can coordinate any operation
(paper Section 1.1), and a multipathed client whose coordinator crashes
simply reissues the request through another brick.  Sessions,
``FabCluster.register`` and the rebuilder take one ``route=``
parameter: a :class:`RouteOptions` carrying both
the pinned coordinator (if any) and whether automatic failover is
allowed, or a bare process id as shorthand for a pinned coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..errors import ConfigurationError
from ..types import ProcessId

__all__ = ["RouteOptions", "DEFAULT_ROUTE", "resolve_route"]


@dataclass(frozen=True)
class RouteOptions:
    """How one operation (or a whole session) picks coordinators.

    Attributes:
        coordinator: preferred coordinating brick, or ``None`` to let
            the caller spread load (sessions rotate round-robin over
            live bricks).
        failover: reissue through another live brick when the
            coordinator crashes mid-operation (or an attempt times
            out).  With ``False`` a crash surfaces as
            :class:`~repro.errors.StorageError` instead — useful for
            experiments that want to observe the raw partial operation.
    """

    coordinator: Optional[ProcessId] = None
    failover: bool = True


#: The default route: no pinned coordinator, failover enabled.
DEFAULT_ROUTE = RouteOptions()


def resolve_route(
    route: Union[RouteOptions, ProcessId, None] = None,
    default: Optional[RouteOptions] = None,
) -> RouteOptions:
    """Normalize a ``route=`` argument to :class:`RouteOptions`.

    Accepts:

    * ``RouteOptions(...)`` — returned as-is;
    * an ``int`` — shorthand for a pinned coordinator;
    * ``None`` — ``default`` (or :data:`DEFAULT_ROUTE`).
    """
    if route is None:
        return default if default is not None else DEFAULT_ROUTE
    if isinstance(route, RouteOptions):
        return route
    if isinstance(route, int):
        return RouteOptions(coordinator=route)
    raise ConfigurationError(
        f"route must be RouteOptions, a process id, or None; got {route!r}"
    )
