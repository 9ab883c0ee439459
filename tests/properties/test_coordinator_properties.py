"""Stateful property test: the coordinator behaves like a modelled tree."""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st

from repro.cluster.coordinator import Coordinator
from repro.common.errors import NodeExistsError, NoNodeError

PATHS = ["/a", "/a/x", "/a/y", "/b", "/b/z"]


class CoordinatorMachine(RuleBasedStateMachine):
    """Random create/delete/expire against a dict model of the znode tree."""

    def __init__(self):
        super().__init__()
        self.coordinator = Coordinator()
        self.model: dict[str, object] = {"/": None}
        self.session = self.coordinator.connect("fuzzer")
        self.ephemerals: set[str] = set()

    def _parent(self, path: str) -> str:
        parent = path.rsplit("/", 1)[0]
        return parent if parent else "/"

    @rule(path=st.sampled_from(PATHS), data=st.integers())
    def create(self, path, data):
        parent_exists = self._parent(path) in self.model
        exists = path in self.model
        try:
            self.coordinator.create(path, data=data)
            assert parent_exists and not exists
            self.model[path] = data
        except NodeExistsError:
            assert exists
        except NoNodeError:
            assert not parent_exists

    @rule(path=st.sampled_from(PATHS), data=st.integers())
    def create_ephemeral(self, path, data):
        parent_exists = self._parent(path) in self.model
        exists = path in self.model
        try:
            self.coordinator.create(
                path, data=data, ephemeral=True, session=self.session
            )
            assert parent_exists and not exists
            self.model[path] = data
            self.ephemerals.add(path)
        except NodeExistsError:
            assert exists
        except NoNodeError:
            assert not parent_exists

    @rule(path=st.sampled_from(PATHS))
    def delete(self, path):
        exists = path in self.model
        try:
            self.coordinator.delete(path)
            assert exists
            for candidate in list(self.model):
                if candidate == path or candidate.startswith(path + "/"):
                    del self.model[candidate]
                    self.ephemerals.discard(candidate)
        except NoNodeError:
            assert not exists

    @rule()
    @precondition(lambda self: self.ephemerals)
    def expire_and_reconnect(self):
        self.coordinator.expire_session(self.session)
        for path in list(self.model):
            if any(
                path == e or path.startswith(e + "/") for e in self.ephemerals
            ):
                del self.model[path]
        self.ephemerals.clear()
        self.session = self.coordinator.connect("fuzzer")

    @invariant()
    def model_matches(self):
        nodes = self.coordinator._nodes
        assert set(nodes) == set(self.model)
        for path, data in self.model.items():
            if path != "/":
                assert nodes[path].data == data

    @invariant()
    def children_consistent(self):
        for path, node in self.coordinator._nodes.items():
            expected_children = {
                c for c in self.model
                if c != path and self._parent(c) == path
            }
            assert node.children == expected_children


TestCoordinatorMachine = CoordinatorMachine.TestCase
TestCoordinatorMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
