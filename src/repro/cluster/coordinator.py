"""ZooKeeper-like coordination service (§4.3).

The paper uses Apache ZooKeeper to "maintain a set of in-sync-replicas" and
to drive leader re-election after broker failures.  Liquid only needs a small
slice of ZooKeeper's API, which this module reproduces:

* a hierarchical namespace of *znodes* holding small data blobs;
* *ephemeral* znodes tied to a client session, deleted when the session
  expires (this is how broker liveness is detected);
* a first-write-wins election on an ephemeral znode (:meth:`Coordinator.elect`).

ZooKeeper's watches, data reads and sequential znodes are left out: the
:class:`~repro.cluster.controller.ClusterController` is told of broker
failures directly and tells its own listeners of leadership and ISR changes,
so nothing reads a znode back, and its one election is first-write-wins on
one path, so no queue needs sequence numbers.  The implementation is
single-process and synchronous, which keeps failure-handling deterministic
in tests and benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.common.clock import Clock, SimClock
from repro.common.errors import (
    NodeExistsError,
    NoNodeError,
    SessionExpiredError,
)

@dataclass
class _ZNode:
    data: Any
    ephemeral_session: int | None = None
    children: set[str] = field(default_factory=set)


class Session:
    """A client session; owning ephemeral znodes dies with it."""

    def __init__(self, session_id: int, owner: str) -> None:
        self.session_id = session_id
        self.owner = owner
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "expired"
        return f"Session({self.session_id}, {self.owner!r}, {state})"


class Coordinator:
    """In-process coordination service with znodes and sessions."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._nodes: dict[str, _ZNode] = {"/": _ZNode(data=None)}
        self._sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)

    # -- sessions ---------------------------------------------------------------

    def connect(self, owner: str) -> Session:
        """Open a new session for a named client (e.g. ``broker-3``)."""
        session = Session(next(self._session_ids), owner)
        self._sessions[session.session_id] = session
        return session

    def expire_session(self, session: Session) -> list[str]:
        """Expire a session, deleting its ephemeral znodes.

        Returns deleted paths.  This is how a broker crash is simulated:
        the broker's ephemeral registration (and its ``/controller`` seat)
        disappears.
        """
        if not session.alive:
            return []
        session.alive = False
        del self._sessions[session.session_id]
        victims = [
            path
            for path, node in self._nodes.items()
            if node.ephemeral_session == session.session_id
        ]
        # Delete leaf-first so parent child-sets stay consistent.
        for path in sorted(victims, key=len, reverse=True):
            self.delete(path)
        return victims

    def _check_session(self, session: Session | None) -> None:
        if session is not None and not session.alive:
            raise SessionExpiredError(f"session {session.session_id} expired")

    # -- namespace ----------------------------------------------------------------

    @staticmethod
    def _parent_of(path: str) -> str:
        parent = path.rsplit("/", 1)[0]
        return parent if parent else "/"

    @staticmethod
    def _validate_path(path: str) -> None:
        if not path.startswith("/") or (path != "/" and path.endswith("/")):
            raise NoNodeError(f"invalid path {path!r}")

    def create(
        self,
        path: str,
        data: Any = None,
        ephemeral: bool = False,
        session: Session | None = None,
        make_parents: bool = False,
    ) -> str:
        """Create a znode; returns its path."""
        self._validate_path(path)
        self._check_session(session)
        if ephemeral and session is None:
            raise SessionExpiredError("ephemeral znodes require a session")
        if path in self._nodes:
            raise NodeExistsError(path)
        parent = self._parent_of(path)
        if parent not in self._nodes:
            if not make_parents:
                raise NoNodeError(f"parent {parent} of {path} does not exist")
            self._create_parents(parent)
        self._nodes[path] = _ZNode(
            data=data,
            ephemeral_session=session.session_id if ephemeral else None,
        )
        self._nodes[parent].children.add(path)
        return path

    def _create_parents(self, path: str) -> None:
        if path in self._nodes:
            return
        parent = self._parent_of(path)
        self._create_parents(parent)
        self._nodes[path] = _ZNode(data=None)
        self._nodes[parent].children.add(path)

    def delete(self, path: str) -> None:
        """Delete a znode (children are deleted recursively, leaf-first)."""
        node = self._nodes.get(path)
        if node is None:
            raise NoNodeError(path)
        for child in sorted(node.children, key=len, reverse=True):
            if child in self._nodes:
                self.delete(child)
        del self._nodes[path]
        parent = self._parent_of(path)
        if parent in self._nodes:
            self._nodes[parent].children.discard(path)

    # -- convenience patterns -----------------------------------------------------------

    def elect(self, election_path: str, candidate: str, session: Session) -> bool:
        """Try to win a first-write-wins election (e.g. ``/controller``).

        Returns True if this candidate now holds the ephemeral election node.
        """
        try:
            self.create(
                election_path,
                data=candidate,
                ephemeral=True,
                session=session,
                make_parents=True,
            )
            return True
        except NodeExistsError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Coordinator(nodes={len(self._nodes)}, "
            f"sessions={len(self._sessions)})"
        )
