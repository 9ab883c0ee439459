"""Unit tests for the hardware cost model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.costmodel import DEFAULT_COST_MODEL, CostModel, round_latency
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


def alone(broker, latency):
    """A request that shares nothing: client ``None``."""
    return (None, broker, 0.0, latency)


class TestRoundLatency:
    """One client round: requests to one broker queue, requests to
    different brokers overlap."""

    def test_one_brokers_requests_add_up(self):
        assert round_latency([alone(0, 0.25), alone(0, 0.5), alone(0, 0.125)]) == 0.875
        # Different clients' requests to one broker queue whole.
        assert round_latency(
            [("a", 0, 0.125, 0.25), ("b", 0, 0.125, 0.5), ("c", 0, 0.125, 0.125)]
        ) == 0.875

    def test_different_brokers_overlap(self):
        assert round_latency([alone(0, 0.25), alone(1, 0.5), alone(2, 0.125)]) == 0.5
        # One client's requests to different brokers are different requests.
        assert round_latency(
            [("a", 0, 0.125, 0.25), ("a", 1, 0.125, 0.5), ("a", 2, 0.125, 0.125)]
        ) == 0.5

    def test_the_round_costs_the_largest_broker_sum(self):
        # Broker 0's two requests (0.25 + 0.375) outlast broker 1's single
        # 0.5, though no single request does.
        requests = [alone(0, 0.25), alone(1, 0.5), alone(0, 0.375), alone(2, 0.0625)]
        assert round_latency(requests) == 0.625
        assert round_latency(reversed(requests)) == 0.625

    def test_a_broker_sums_in_request_order(self):
        latencies = [0.1, 0.2, 0.3, 1e-17, 0.7]
        serial = 0.0
        for latency in latencies:
            serial += latency
        assert round_latency(alone(7, latency) for latency in latencies) == serial

    def test_no_requests_cost_nothing(self):
        assert round_latency([]) == 0.0

    def test_one_clients_requests_to_one_broker_pay_the_fixed_part_once(self):
        # Three requests of one client: 0.25 + (0.5 - 0.125) + (0.375 - 0.125).
        requests = [("a", 0, 0.125, 0.25), ("a", 0, 0.125, 0.5), ("a", 0, 0.125, 0.375)]
        assert round_latency(requests) == 0.875
        # Now broker 1's single 0.75 is the slowest.
        assert round_latency(requests + [("a", 1, 0.125, 0.75)]) == 0.875
        assert round_latency(requests + [("b", 1, 0.125, 1.0)]) == 1.0


class TestRequestFixed:
    def test_is_what_an_empty_request_costs(self):
        model = DEFAULT_COST_MODEL
        assert model.request_fixed() == model.request(0) + model.network_transfer(0)
        assert model.request_fixed(oneway=True) == (
            model.request(0) + model.network_oneway(0)
        )

    def test_a_oneway_send_pays_half_the_round_trip(self):
        model = CostModel(request_overhead=1e-4, network_rtt=1e-3)
        assert model.request_fixed() == 1e-4 + 1e-3
        assert model.request_fixed(oneway=True) == 1e-4 + 0.5e-3


# -- one request per (client, broker): the rule against its reference ---------

MODEL = DEFAULT_COST_MODEL
CLIENTS = ("consumer", "output", "changelog")


def reference_round(requests):
    """The round before one request per (client, broker): every request
    pays its own fixed part; one broker's requests queue in order and
    different brokers overlap."""
    totals = {}
    for _client, broker, _fixed, latency in requests:
        totals[broker] = latency + totals.get(broker, 0.0)
    return max(totals.values(), default=0.0)


def shared_part(oneway):
    """What the second and later requests of a pair no longer pay, from the
    parameters: the dispatch and the round trip, half of it one way."""
    rtt = MODEL.network_rtt / 2 if oneway else MODEL.network_rtt
    return MODEL.request_overhead + rtt


#: A request's latency beyond its fixed part.
extras = st.floats(0.0, 5e-3)
#: ``(client index, broker, latency beyond the fixed part, prefetched)``.
draws = st.tuples(
    st.integers(0, len(CLIENTS) - 1), st.integers(0, 3), extras, st.booleans()
)
oneways = st.tuples(*[st.booleans()] * len(CLIENTS))


def as_requests(draw_list, oneway):
    """The round a caller builds: a client's request carries that client's
    fixed part inside its latency; a prefetched remainder, sent earlier,
    owes any part of its latency and has no client."""
    requests = []
    for index, broker, extra, prefetched in draw_list:
        fixed = MODEL.request_fixed(oneway[index])
        if prefetched:
            requests.append((None, broker, fixed, extra))
        else:
            requests.append((CLIENTS[index], broker, fixed, fixed + extra))
    return requests


class TestOneRequestPerClientAndBroker:
    """What one client sends one broker in a round is one request: its
    fixed part is paid once.  The reference is the rule before it, every
    request paid whole."""

    @given(st.lists(draws, max_size=12), oneways)
    def test_one_request_per_pair_is_the_reference_to_the_bit(self, drawn, oneway):
        seen = set()
        unique = []
        for index, broker, extra, prefetched in drawn:
            if not prefetched:
                if (index, broker) in seen:
                    continue
                seen.add((index, broker))
            unique.append((index, broker, extra, prefetched))
        requests = as_requests(unique, oneway)
        assert round_latency(requests) == reference_round(requests)

    @given(
        st.integers(0, len(CLIENTS) - 1),
        st.lists(extras, min_size=2, max_size=6),
        st.lists(extras, max_size=len(CLIENTS) - 1),
        st.lists(extras, max_size=4),
        oneways,
        st.data(),
    )
    def test_k_requests_of_one_pair_cost_k_minus_one_fixed_parts_less(
        self, index, pair, others, prefetched, oneway, data
    ):
        # All to broker 0, in any order: the pair's k requests, one request
        # of each other client, and prefetched remainders.
        other_clients = [i for i in range(len(CLIENTS)) if i != index]
        drawn = (
            [(index, 0, extra, False) for extra in pair]
            + [(i, 0, extra, False) for i, extra in zip(other_clients, others)]
            + [(index, 0, extra, True) for extra in prefetched]
        )
        requests = as_requests(data.draw(st.permutations(drawn)), oneway)
        saved = (len(pair) - 1) * shared_part(oneway[index])
        assert round_latency(requests) == pytest.approx(
            reference_round(requests) - saved, rel=1e-12, abs=0.0
        )

    @given(st.lists(draws, min_size=1, max_size=12), oneways)
    def test_two_clients_or_two_brokers_never_share(self, drawn, oneway):
        requests = as_requests(drawn, oneway)
        # Each request from a client of its own, to the brokers drawn.
        own_clients = [
            (i, broker, fixed, latency)
            for i, (_client, broker, fixed, latency) in enumerate(requests)
        ]
        assert round_latency(own_clients) == reference_round(own_clients)
        # Each request of its client to a broker of its own.
        own_brokers = [
            (client, i, fixed, latency)
            for i, (client, _broker, fixed, latency) in enumerate(requests)
        ]
        assert round_latency(own_brokers) == reference_round(own_brokers)

    @given(st.lists(draws, max_size=16), oneways)
    def test_each_repeat_of_a_pair_saves_its_fixed_part(self, drawn, oneway):
        requests = as_requests(drawn, oneway)
        totals = {}
        seen = set()
        for (index, broker, _extra, prefetched), request in zip(drawn, requests):
            latency = request[3]
            if not prefetched:
                if (index, broker) in seen:
                    latency -= shared_part(oneway[index])
                seen.add((index, broker))
            totals[broker] = latency + totals.get(broker, 0.0)
        assert round_latency(requests) == pytest.approx(
            max(totals.values(), default=0.0), rel=1e-12, abs=0.0
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
