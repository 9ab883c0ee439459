"""Unit tests for the ZooKeeper-like coordinator."""

import pytest

from repro.cluster.coordinator import Coordinator
from repro.common.errors import (
    NodeExistsError,
    NoNodeError,
    SessionExpiredError,
)


def data(coord, path):
    """A znode's data, read from the tree (the coordinator has no reads)."""
    return coord._nodes[path].data


def exists(coord, path):
    return path in coord._nodes


class TestNamespace:
    def test_create_and_get(self):
        coord = Coordinator()
        coord.create("/a", data={"x": 1})
        assert data(coord, "/a") == {"x": 1}

    def test_duplicate_create_rejected(self):
        coord = Coordinator()
        coord.create("/a")
        with pytest.raises(NodeExistsError):
            coord.create("/a")

    def test_missing_parent_rejected(self):
        coord = Coordinator()
        with pytest.raises(NoNodeError):
            coord.create("/a/b/c")

    def test_make_parents(self):
        coord = Coordinator()
        coord.create("/a/b/c", make_parents=True)
        assert exists(coord, "/a")
        assert exists(coord, "/a/b")
        assert coord._nodes["/a"].children == {"/a/b"}

    def test_delete(self):
        coord = Coordinator()
        coord.create("/a")
        coord.delete("/a")
        assert not exists(coord, "/a")

    def test_delete_missing_rejected(self):
        with pytest.raises(NoNodeError):
            Coordinator().delete("/nope")

    def test_delete_cascades_to_children(self):
        coord = Coordinator()
        coord.create("/a/b/c", make_parents=True)
        coord.delete("/a")
        assert not exists(coord, "/a/b/c")

    def test_invalid_path_rejected(self):
        coord = Coordinator()
        with pytest.raises(NoNodeError):
            coord.create("no-slash")
        with pytest.raises(NoNodeError):
            coord.create("/trailing/")


class TestSessions:
    def test_ephemeral_requires_session(self):
        coord = Coordinator()
        with pytest.raises(SessionExpiredError):
            coord.create("/e", ephemeral=True)

    def test_expiry_deletes_ephemerals(self):
        coord = Coordinator()
        session = coord.connect("broker-1")
        coord.create("/e1", ephemeral=True, session=session)
        coord.create("/e2", ephemeral=True, session=session)
        coord.create("/durable")
        victims = coord.expire_session(session)
        assert sorted(victims) == ["/e1", "/e2"]
        assert not exists(coord, "/e1")
        assert exists(coord, "/durable")

    def test_expired_session_cannot_create(self):
        coord = Coordinator()
        session = coord.connect("b")
        coord.expire_session(session)
        with pytest.raises(SessionExpiredError):
            coord.create("/x", ephemeral=True, session=session)

    def test_double_expiry_noop(self):
        coord = Coordinator()
        session = coord.connect("b")
        coord.expire_session(session)
        assert coord.expire_session(session) == []


class TestElection:
    def test_first_candidate_wins(self):
        coord = Coordinator()
        s1 = coord.connect("b1")
        s2 = coord.connect("b2")
        assert coord.elect("/controller", "b1", s1) is True
        assert coord.elect("/controller", "b2", s2) is False
        assert data(coord, "/controller") == "b1"

    def test_expiry_frees_the_seat(self):
        coord = Coordinator()
        s1 = coord.connect("b1")
        s2 = coord.connect("b2")
        coord.elect("/controller", "b1", s1)
        coord.expire_session(s1)
        assert coord.elect("/controller", "b2", s2) is True
        assert data(coord, "/controller") == "b2"
