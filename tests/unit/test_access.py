"""Unit tests for feed access control (§2.1)."""

import pytest

from repro.common.errors import AuthorizationError, ConfigError
from repro.core.access import (
    OP_CREATE,
    OP_READ,
    OP_WRITE,
    AccessController,
    AclEntry,
)
from repro.core.etl import MapTask
from repro.core.liquid import Liquid
from repro.processing.job import JobConfig


class TestAclEntry:
    def test_exact_match(self):
        entry = AclEntry("team-a", OP_READ, "events")
        assert entry.matches(OP_READ, "events")
        assert not entry.matches(OP_READ, "other")
        assert not entry.matches(OP_WRITE, "events")

    def test_prefix_match(self):
        entry = AclEntry("team-a", OP_READ, "metrics-*")
        assert entry.matches(OP_READ, "metrics-cpu")
        assert not entry.matches(OP_READ, "metric")

    def test_global_wildcard(self):
        entry = AclEntry("admin", OP_CREATE, "*")
        assert entry.matches(OP_CREATE, "anything")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"principal": "", "operation": OP_READ},
            {"principal": "p", "operation": "admin"},
            {"principal": "p", "operation": OP_READ, "pattern": ""},
        ],
    )
    def test_invalid_entries_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AclEntry(**kwargs)


class TestAccessController:
    def test_deny_by_default_when_enabled(self):
        acl = AccessController(enabled=True)
        assert not acl.check("team-a", OP_READ, "events")

    def test_allow_all_when_disabled(self):
        acl = AccessController(enabled=False)
        assert acl.check("anyone", OP_WRITE, "anything")
        assert acl.check(None, OP_WRITE, "anything")

    def test_grant_and_check(self):
        acl = AccessController()
        acl.grant("team-a", OP_READ, "events")
        assert acl.check("team-a", OP_READ, "events")
        assert not acl.check("team-b", OP_READ, "events")

    def test_multiple_operations_in_one_grant(self):
        acl = AccessController()
        acl.grant("team-a", [OP_READ, OP_WRITE], "events")
        assert acl.check("team-a", OP_READ, "events")
        assert acl.check("team-a", OP_WRITE, "events")

    def test_revoke(self):
        acl = AccessController()
        acl.grant("team-a", OP_READ, "events")
        assert acl.revoke("team-a", OP_READ, "events")
        assert not acl.check("team-a", OP_READ, "events")
        assert not acl.revoke("team-a", OP_READ, "events")

    def test_anonymous_always_denied(self):
        acl = AccessController()
        acl.grant("team-a", OP_READ)
        assert not acl.check(None, OP_READ, "events")

    def test_authorize_raises_and_counts(self):
        acl = AccessController()
        with pytest.raises(AuthorizationError):
            acl.authorize("team-a", OP_READ, "events")
        assert acl.denials == 1

    def test_grants_for_lists_sorted(self):
        acl = AccessController()
        acl.grant("team-a", OP_WRITE, "b")
        acl.grant("team-a", OP_READ, "a")
        acl.grant("team-b", OP_READ, "a")
        grants = acl.grants_for("team-a")
        assert [(g.operation, g.pattern) for g in grants] == [
            (OP_READ, "a"), (OP_WRITE, "b"),
        ]


class TestLiquidIntegration:
    def _secured(self) -> Liquid:
        liquid = Liquid(num_brokers=1, access_control=True)
        liquid.acl.grant("platform", OP_CREATE, "*")
        liquid.create_feed("events", principal="platform")
        return liquid

    def test_create_feed_requires_grant(self):
        liquid = Liquid(num_brokers=1, access_control=True)
        with pytest.raises(AuthorizationError):
            liquid.create_feed("events", principal="rogue")

    def test_write_requires_grant(self):
        liquid = self._secured()
        liquid.acl.grant("frontend", OP_WRITE, "events")
        allowed = liquid.producer(principal="frontend")
        allowed.send("events", {"ok": True})
        denied = liquid.producer(principal="rogue")
        with pytest.raises(AuthorizationError):
            denied.send("events", {"nope": True})

    def test_read_requires_grant(self):
        liquid = self._secured()
        liquid.acl.grant("analytics", OP_READ, "events")
        allowed = liquid.consumer(group="g", principal="analytics")
        allowed.subscribe(["events"])
        denied = liquid.consumer(group="g2", principal="rogue")
        with pytest.raises(AuthorizationError):
            denied.subscribe(["events"])

    def test_assign_checked_too(self):
        liquid = self._secured()
        denied = liquid.consumer(principal="rogue")
        with pytest.raises(AuthorizationError):
            denied.assign(liquid.cluster.partitions_of("events"))

    def test_job_submission_requires_input_and_output_grants(self):
        liquid = self._secured()
        config = JobConfig(name="j", inputs=["events"],
                           task_factory=lambda: MapTask("derived"))
        with pytest.raises(AuthorizationError):
            liquid.submit_job(config, outputs=["derived"], principal="etl-team")
        liquid.acl.grant("etl-team", OP_READ, "events")
        with pytest.raises(AuthorizationError):
            liquid.submit_job(config, outputs=["derived"], principal="etl-team")
        liquid.acl.grant("etl-team", OP_CREATE, "derived")
        runner = liquid.submit_job(
            config, outputs=["derived"], principal="etl-team"
        )
        assert runner.config.name == "j"

    def test_disabled_acl_changes_nothing(self):
        liquid = Liquid(num_brokers=1)  # access_control=False
        liquid.create_feed("events")
        producer = liquid.producer()
        producer.send("events", 1)
        consumer = liquid.consumer(group="g")
        consumer.subscribe(["events"])

    def test_wrapper_delegates_other_methods(self):
        liquid = self._secured()
        liquid.acl.grant("analytics", OP_READ, "events")
        liquid.acl.grant("frontend", OP_WRITE, "events")
        producer = liquid.producer(principal="frontend")
        producer.send("events", 1)
        assert producer.acks_received == 1  # delegated attribute
        consumer = liquid.consumer(group="g", principal="analytics")
        consumer.subscribe(["events"])
        liquid.tick(0.0)
        batch = consumer.poll(10)  # delegated method
        assert len(batch) == 1
