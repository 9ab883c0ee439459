"""Unit tests for the hardware cost model."""

import pytest

from repro.common.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.common.errors import ConfigError


class TestCosts:
    def test_ram_read_proportional_to_bytes(self):
        model = CostModel(ram_bandwidth=1e9)
        assert model.ram_read(1e9) == pytest.approx(1.0)
        assert model.ram_read(5e8) == pytest.approx(0.5)

    def test_disk_sequential_read(self):
        model = CostModel(disk_seq_read_bandwidth=100e6)
        assert model.disk_sequential_read(100e6) == pytest.approx(1.0)

    def test_disk_random_read_includes_seek(self):
        model = CostModel(disk_seek_time=0.01, disk_seq_read_bandwidth=100e6)
        assert model.disk_random_read(0) == pytest.approx(0.01)
        assert model.disk_random_read(100e6) == pytest.approx(1.01)

    def test_random_read_slower_than_sequential(self):
        assert DEFAULT_COST_MODEL.disk_random_read(4096) > (
            DEFAULT_COST_MODEL.disk_sequential_read(4096)
        )

    def test_ram_faster_than_disk(self):
        nbytes = 64 * 1024
        assert DEFAULT_COST_MODEL.ram_read(nbytes) < (
            DEFAULT_COST_MODEL.disk_sequential_read(nbytes)
        )

    def test_network_transfer_includes_rtt(self):
        model = CostModel(network_rtt=0.001, network_bandwidth=1e9)
        assert model.network_transfer(0) == pytest.approx(0.001)
        assert model.network_transfer(1e9) == pytest.approx(1.001)

    def test_oneway_cheaper_than_roundtrip(self):
        assert DEFAULT_COST_MODEL.network_oneway(1000) < (
            DEFAULT_COST_MODEL.network_transfer(1000)
        )

    def test_request_scales_with_messages(self):
        one = DEFAULT_COST_MODEL.request(1)
        many = DEFAULT_COST_MODEL.request(100)
        assert many > one
        assert many - one == pytest.approx(99 * DEFAULT_COST_MODEL.cpu_per_message)

    def test_mr_startup_dwarfs_message_cost(self):
        # The structural fact behind E2: fixed batch overhead is orders of
        # magnitude above per-message streaming cost.
        assert DEFAULT_COST_MODEL.mr_job_startup > (
            10_000 * DEFAULT_COST_MODEL.cpu_per_message
        )


class TestValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "ram_bandwidth",
            "disk_seq_read_bandwidth",
            "disk_seq_write_bandwidth",
            "network_bandwidth",
        ],
    )
    def test_nonpositive_bandwidth_rejected(self, field):
        with pytest.raises(ConfigError):
            CostModel(**{field: 0})

    def test_nonpositive_page_size_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(page_size=0)


class TestModel:
    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_COST_MODEL.ram_bandwidth = 1.0

    def test_describe_reports_key_parameters(self):
        desc = DEFAULT_COST_MODEL.describe()
        assert desc["disk_seek_ms"] == pytest.approx(8.0)
        assert "mr_job_startup_s" in desc
