"""Access control over feeds (§2.1).

"access control is necessary to ensure that no faulty or misconfigured
back-end systems can compromise the data of other applications."

A small ACL model in the shape Kafka later shipped: *principals* (teams,
services) are granted *operations* on *feeds* (exact name, prefix ``x-*``,
or the global wildcard ``*``).  Deny-by-default when enabled; the Liquid
facade threads a ``principal`` through producers, consumers, and job
submission, so a team can only touch the feeds it was granted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.common.errors import AuthorizationError, ConfigError

#: Operations, in the paper's spirit: read a feed, write a feed, create
#: feeds / submit jobs deriving new feeds.
OP_READ = "read"
OP_WRITE = "write"
OP_CREATE = "create"
OPERATIONS = (OP_READ, OP_WRITE, OP_CREATE)

__all__ = ["AclEntry", "AccessController", "SecureProducer", "SecureConsumer",
           "OP_READ", "OP_WRITE", "OP_CREATE", "OPERATIONS"]


@dataclass(frozen=True)
class AclEntry:
    """One grant: ``principal`` may ``operation`` on ``pattern``.

    ``pattern`` is an exact feed name, a prefix pattern ending in ``*``
    (e.g. ``metrics-*``), or the global wildcard ``*``.
    """

    principal: str
    operation: str
    pattern: str = "*"

    def __post_init__(self) -> None:
        if not self.principal:
            raise ConfigError("principal must be non-empty")
        if self.operation not in OPERATIONS:
            raise ConfigError(
                f"unknown operation {self.operation!r}; known: {OPERATIONS}"
            )
        if not self.pattern:
            raise ConfigError("pattern must be non-empty")

    def matches(self, operation: str, feed: str) -> bool:
        if operation != self.operation:
            return False
        if self.pattern == "*":
            return True
        if self.pattern.endswith("*"):
            return feed.startswith(self.pattern[:-1])
        return feed == self.pattern


class AccessController:
    """Holds grants and answers authorization checks.

    ``enabled=False`` (the default for backward compatibility) allows
    everything; enabling it switches to deny-by-default.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: set[AclEntry] = set()
        self.denials = 0

    # -- administration ------------------------------------------------------------

    def grant(
        self,
        principal: str,
        operations: str | Iterable[str],
        pattern: str = "*",
    ) -> None:
        """Grant one or more operations on a feed pattern."""
        if isinstance(operations, str):
            operations = [operations]
        for operation in operations:
            self._entries.add(AclEntry(principal, operation, pattern))

    def revoke(
        self, principal: str, operation: str, pattern: str = "*"
    ) -> bool:
        """Remove a grant; returns True if it existed."""
        entry = AclEntry(principal, operation, pattern)
        if entry in self._entries:
            self._entries.remove(entry)
            return True
        return False

    def grants_for(self, principal: str) -> list[AclEntry]:
        return sorted(
            (e for e in self._entries if e.principal == principal),
            key=lambda e: (e.operation, e.pattern),
        )

    # -- checks ----------------------------------------------------------------------

    def check(self, principal: str | None, operation: str, feed: str) -> bool:
        """True iff the principal may perform the operation on the feed."""
        if not self.enabled:
            return True
        if principal is None:
            return False
        return any(
            e.principal == principal and e.matches(operation, feed)
            for e in self._entries
        )

    def authorize(self, principal: str | None, operation: str, feed: str) -> None:
        """Raise :class:`AuthorizationError` unless permitted."""
        if not self.check(principal, operation, feed):
            self.denials += 1
            raise AuthorizationError(
                f"principal {principal!r} may not {operation} feed {feed!r}"
            )


class SecureProducer:
    """Producer wrapper enforcing write grants per send."""

    def __init__(self, inner, acl: AccessController, principal: str) -> None:
        self._inner = inner
        self._acl = acl
        self.principal = principal

    def send(self, topic: str, value: Any, **kwargs: Any):
        self._acl.authorize(self.principal, OP_WRITE, topic)
        return self._inner.send(topic, value, **kwargs)

    def flush(self):
        return self._inner.flush()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class SecureConsumer:
    """Consumer wrapper enforcing read grants at subscribe/assign time."""

    def __init__(self, inner, acl: AccessController, principal: str) -> None:
        self._inner = inner
        self._acl = acl
        self.principal = principal

    def subscribe(self, topics) -> None:
        for topic in topics:
            self._acl.authorize(self.principal, OP_READ, topic)
        self._inner.subscribe(topics)

    def assign(self, partitions) -> None:
        for tp in partitions:
            self._acl.authorize(self.principal, OP_READ, tp.topic)
        self._inner.assign(partitions)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
