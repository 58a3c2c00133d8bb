"""The backend controller: broadcast, routing, merging, parallel timing."""

import pytest

from repro.abdl import parse_request
from repro.mbds import BackendController


def insert_text(file_name, key, **extra):
    pairs = [f"<FILE, {file_name}>", f"<{file_name}, {key}>"]
    pairs.extend(f"<{k}, {v}>" for k, v in extra.items())
    return "INSERT (" + ", ".join(pairs) + ")"


@pytest.fixture()
def controller():
    controller = BackendController(4)
    for i in range(20):
        controller.execute(parse_request(insert_text("f", f"f${i}", x=i)))
    return controller


class TestConstruction:
    def test_needs_a_backend(self):
        with pytest.raises(ValueError):
            BackendController(0)

    def test_backend_count(self):
        assert BackendController(7).backend_count == 7


class TestInsertRouting:
    def test_round_robin_balance(self, controller):
        assert controller.distribution() == [5, 5, 5, 5]

    def test_insert_goes_to_one_backend(self, controller):
        trace = controller.execute(parse_request(insert_text("f", "f$99")))
        assert len(trace.per_backend_ms) == 1

    def test_per_file_round_robin(self):
        controller = BackendController(2)
        controller.execute(parse_request(insert_text("a", "a$0")))
        controller.execute(parse_request(insert_text("b", "b$0")))
        # Each file starts its own rotation at backend 0.
        assert controller.distribution() == [2, 0]


class TestBroadcast:
    def test_retrieve_merges_all_backends(self, controller):
        trace = controller.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        assert trace.result.count == 20
        assert len(trace.per_backend_ms) == 4

    def test_merge_preserves_backend_order(self, controller):
        trace = controller.execute(parse_request("RETRIEVE (FILE = f) (x)"))
        xs = [r.get("x") for r in trace.result.records]
        # Round-robin places 0,4,8,... on backend 0; concatenation groups them.
        assert xs[:5] == [0, 4, 8, 12, 16]

    def test_delete_counts_sum(self, controller):
        trace = controller.execute(parse_request("DELETE ((FILE = f) AND (x < 10))"))
        assert trace.result.count == 10
        assert controller.record_count() == 10

    def test_update_applies_everywhere(self, controller):
        controller.execute(parse_request("UPDATE (FILE = f) (x = x + 100)"))
        trace = controller.execute(parse_request("RETRIEVE ((FILE = f) AND (x >= 100)) (*)"))
        assert trace.result.count == 20


class TestParallelTiming:
    def test_backend_time_is_max_not_sum(self, controller):
        trace = controller.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        assert trace.response.backend_ms == pytest.approx(max(trace.per_backend_ms))
        assert trace.response.backend_ms < sum(trace.per_backend_ms)

    def test_controller_time_includes_merge(self, controller):
        trace = controller.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        timing = controller.timing
        assert trace.response.controller_ms == pytest.approx(
            timing.controller_ms(20)
        )

    def test_busy_time_accumulates(self, controller):
        before = [b.busy_ms for b in controller.backends]
        controller.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        after = [b.busy_ms for b in controller.backends]
        assert all(a > b for a, b in zip(after, before))


class TestInspection:
    def test_all_records(self, controller):
        assert len(controller.all_records()) == 20
