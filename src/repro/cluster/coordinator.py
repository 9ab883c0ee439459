"""ZooKeeper-like coordination service (§4.3).

The paper uses Apache ZooKeeper to "maintain a set of in-sync-replicas" and
to drive leader re-election after broker failures.  Liquid only needs a small
slice of ZooKeeper's API, which this module reproduces:

* a hierarchical namespace of *znodes* holding small data blobs;
* *ephemeral* znodes tied to a client session, deleted when the session
  expires (this is how broker liveness is detected);
* *sequential* znodes for fair election queues;
* one-shot *watches* on nodes and on children, fired on changes.

The implementation is single-process and synchronous: watch callbacks run
inline at the mutation point, which keeps failure-handling deterministic in
tests and benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.clock import Clock, SimClock
from repro.common.errors import (
    NodeExistsError,
    NoNodeError,
    SessionExpiredError,
)

#: Watch callbacks receive (event_type, path); event types below.
EVENT_CREATED = "created"
EVENT_DELETED = "deleted"
EVENT_CHANGED = "changed"
EVENT_CHILD = "child"

WatchCallback = Callable[[str, str], None]


@dataclass
class _ZNode:
    data: Any
    ephemeral_session: int | None = None
    version: int = 0
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
    """In-process coordination service with znodes, sessions, and watches."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._nodes: dict[str, _ZNode] = {"/": _ZNode(data=None)}
        self._sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._seq = itertools.count(0)
        # One-shot watches: path -> callbacks. Child watches fire on
        # create/delete of direct children.
        self._data_watches: dict[str, list[WatchCallback]] = {}
        self._child_watches: dict[str, list[WatchCallback]] = {}

    # -- sessions ---------------------------------------------------------------

    def connect(self, owner: str) -> Session:
        """Open a new session for a named client (e.g. ``broker-3``)."""
        session = Session(next(self._session_ids), owner)
        self._sessions[session.session_id] = session
        return session

    def expire_session(self, session: Session) -> list[str]:
        """Expire a session, deleting its ephemeral znodes.

        Returns deleted paths.  This is how a broker crash is simulated:
        the broker's ephemeral registration disappears and watchers (the
        controller) react.
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
        sequential: bool = False,
        session: Session | None = None,
        make_parents: bool = False,
    ) -> str:
        """Create a znode; returns the actual path (suffixed if sequential)."""
        self._validate_path(path)
        self._check_session(session)
        if ephemeral and session is None:
            raise SessionExpiredError("ephemeral znodes require a session")
        if sequential:
            path = f"{path}{next(self._seq):010d}"
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
        self._fire_data_watches(path, EVENT_CREATED)
        self._fire_child_watches(parent)
        return path

    def _create_parents(self, path: str) -> None:
        if path in self._nodes:
            return
        parent = self._parent_of(path)
        self._create_parents(parent)
        self._nodes[path] = _ZNode(data=None)
        self._nodes[parent].children.add(path)
        self._fire_child_watches(parent)

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
            self._fire_child_watches(parent)
        self._fire_data_watches(path, EVENT_DELETED)

    def exists(self, path: str) -> bool:
        return path in self._nodes

    def get(self, path: str) -> Any:
        node = self._nodes.get(path)
        if node is None:
            raise NoNodeError(path)
        return node.data

    def set_data(self, path: str, data: Any) -> int:
        """Update a znode's data; returns the new version."""
        node = self._nodes.get(path)
        if node is None:
            raise NoNodeError(path)
        node.data = data
        node.version += 1
        self._fire_data_watches(path, EVENT_CHANGED)
        return node.version

    def version(self, path: str) -> int:
        node = self._nodes.get(path)
        if node is None:
            raise NoNodeError(path)
        return node.version

    def children(self, path: str) -> list[str]:
        """Sorted child paths of a znode."""
        node = self._nodes.get(path)
        if node is None:
            raise NoNodeError(path)
        return sorted(node.children)

    # -- watches ---------------------------------------------------------------------

    def watch(self, path: str, callback: WatchCallback) -> None:
        """One-shot watch on a node's creation/deletion/data change."""
        self._data_watches.setdefault(path, []).append(callback)

    def watch_children(self, path: str, callback: WatchCallback) -> None:
        """One-shot watch on a node's direct-children set."""
        self._child_watches.setdefault(path, []).append(callback)

    def _fire_data_watches(self, path: str, event: str) -> None:
        callbacks = self._data_watches.pop(path, [])
        for callback in callbacks:
            callback(event, path)

    def _fire_child_watches(self, path: str) -> None:
        callbacks = self._child_watches.pop(path, [])
        for callback in callbacks:
            callback(EVENT_CHILD, path)

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
