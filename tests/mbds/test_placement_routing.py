"""HashShardPlacement routing and the LeastLoaded rebalance regression.

Routing's one invariant: a routed request returns exactly the records a
broadcast would have (as a multiset — backend concatenation order may
differ between placements, never within one).  Everything else — how few
backends it touches — is performance, asserted through per-backend
accounting and the route metrics.
"""

import pytest

from repro.abdl import parse_request
from repro.core.mlds import MLDS
from repro.mbds import (
    BackendController,
    HashShardPlacement,
    KernelDatabaseSystem,
    LeastLoadedPlacement,
    RoundRobinPlacement,
)
from repro.obs import Observability


def insert(file_name, value, **attrs):
    keywords = "".join(f", <{k}, {v}>" for k, v in attrs.items())
    return parse_request(f"INSERT (<FILE, {file_name}>, <{file_name}, {value}>{keywords})")


def touched(trace):
    return [i for i, ms in enumerate(trace.per_backend_ms) if ms > 0.0]


class TestFileShardRouting:
    def build(self, placement=None, backends=4):
        controller = BackendController(backends, placement=placement)
        for i in range(12):
            controller.execute(insert("a", f"a${i}", k=i))
            controller.execute(insert("b", f"b${i}", k=i))
        return controller

    def test_single_file_requests_touch_one_backend(self):
        controller = self.build(HashShardPlacement())
        for text in (
            "RETRIEVE (FILE = a) (*)",
            "RETRIEVE ((FILE = a) AND (k >= 3)) (*)",
            "DELETE ((FILE = b) AND (k < 2))",
        ):
            trace = controller.execute(parse_request(text))
            assert len(touched(trace)) <= 1

    def test_routed_results_match_broadcast(self):
        routed = self.build(HashShardPlacement())
        broadcast = self.build()  # default round-robin: full broadcasts
        for text in (
            "RETRIEVE (FILE = a) (*)",
            "RETRIEVE ((FILE = a) AND (k >= 3)) (k)",
            "RETRIEVE ((FILE = a) OR (FILE = b)) (*)",
        ):
            a = routed.execute(parse_request(text)).result
            b = broadcast.execute(parse_request(text)).result
            assert a.count == b.count
            assert sorted(
                tuple(r.pairs()) for r in a.records
            ) == sorted(tuple(r.pairs()) for r in b.records)

    def test_unpinned_query_broadcasts(self):
        controller = self.build(HashShardPlacement())
        trace = controller.execute(parse_request("RETRIEVE (k = 3) (*)"))
        assert trace.result.count == 2  # one record per file
        assert len(touched(trace)) >= 1  # no routing claim; just correct

    def test_route_metrics_count_skips(self):
        obs = Observability()
        controller = BackendController(
            4, placement=HashShardPlacement(), obs=obs
        )
        for i in range(8):
            controller.execute(insert("a", f"a${i}"))
        controller.execute(parse_request("RETRIEVE (FILE = a) (*)"))
        assert obs.metrics.counter_value("route.requests") >= 1
        assert obs.metrics.counter_value("route.skipped_backends") >= 3


class NoBackendRoute(RoundRobinPlacement):
    """Routes every broadcast to no backend at all."""

    def route(self, request, backend_count):
        return set()


class TestEmptyRoute:
    def test_no_backend_route_yields_typed_empty_result(self):
        controller = BackendController(3, placement=NoBackendRoute())
        controller.execute(insert("a", "a$0"))
        for text, operation in (
            ("RETRIEVE (FILE = a) (*)", "RETRIEVE"),
            ("DELETE (FILE = a)", "DELETE"),
            ("UPDATE (FILE = a) (k = 1)", "UPDATE"),
        ):
            trace = controller.execute(parse_request(text))
            assert trace.result.operation == operation
            assert trace.result.count == 0
            assert trace.per_backend_ms == [0.0, 0.0, 0.0]
        assert controller.record_count() == 1


class TestValueShardRouting:
    def build(self, backends=4):
        placement = HashShardPlacement(key_attributes={"a": "k"})
        controller = BackendController(backends, placement=placement)
        for i in range(24):
            controller.execute(insert("a", f"a${i}", k=i % 6))
        return controller, placement

    def test_value_sharding_spreads_the_file(self):
        controller, _ = self.build()
        assert len([n for n in controller.distribution() if n > 0]) > 1

    def test_equality_on_key_touches_one_backend(self):
        controller, _ = self.build()
        trace = controller.execute(
            parse_request("RETRIEVE ((FILE = a) AND (k = 3)) (*)")
        )
        assert trace.result.count == 4
        assert len(touched(trace)) == 1

    def test_int_and_float_key_values_shard_alike(self):
        controller, _ = self.build()
        for literal in ("3", "3.0"):
            trace = controller.execute(
                parse_request(f"RETRIEVE ((FILE = a) AND (k = {literal})) (*)")
            )
            assert trace.result.count == 4

    def test_range_on_key_cannot_route(self):
        controller, _ = self.build()
        trace = controller.execute(
            parse_request("RETRIEVE ((FILE = a) AND (k > 3)) (*)")
        )
        assert trace.result.count == 8  # k in {4, 5}

    def test_update_to_key_attribute_taints_value_routing(self):
        controller, placement = self.build()
        controller.execute(
            parse_request("UPDATE ((FILE = a) AND (k = 1)) (k = k + 100)")
        )
        assert "a" in placement.tainted_files
        # Records with the rewritten key now live on a shard their value
        # does not hash to; equality routing must broadcast to find them.
        trace = controller.execute(
            parse_request("RETRIEVE ((FILE = a) AND (k = 101)) (*)")
        )
        assert trace.result.count == 4

    def test_update_to_other_attribute_keeps_routing(self):
        controller, placement = self.build()
        controller.execute(
            parse_request("UPDATE ((FILE = a) AND (k = 1)) (a = patched)")
        )
        assert "a" not in placement.tainted_files
        trace = controller.execute(
            parse_request("RETRIEVE ((FILE = a) AND (k = 2)) (*)")
        )
        assert len(touched(trace)) == 1


class TestHashShardDurability:
    def test_snapshot_round_trips_key_attributes_and_taints(self, tmp_path):
        from repro.persistence import load_mlds, save_mlds

        mlds = MLDS(
            backend_count=4,
            placement=HashShardPlacement(key_attributes={"a": "k"}),
        )
        for i in range(12):
            mlds.kds.execute(insert("a", f"a${i}", k=i % 3))
        mlds.kds.execute(
            parse_request("UPDATE ((FILE = a) AND (k = 0)) (k = k + 50)")
        )
        path = tmp_path / "farm.mlds.json"
        save_mlds(mlds, path)

        restored = load_mlds(path, placement=HashShardPlacement())
        placement = restored.kds.controller.placement
        assert placement.key_attributes == {"a": "k"}
        assert placement.tainted_files == frozenset({"a"})
        trace = restored.kds.execute(
            parse_request("RETRIEVE ((FILE = a) AND (k = 50)) (*)")
        )
        assert trace.result.count == 4

    def test_recovery_replay_reconstructs_taints(self, tmp_path):
        from repro.wal.recovery import recover_mlds

        mlds = MLDS(
            backend_count=4,
            placement=HashShardPlacement(key_attributes={"a": "k"}),
            wal=tmp_path / "wal",
        )
        for i in range(12):
            mlds.kds.execute(insert("a", f"a${i}", k=i % 3))
        mlds.kds.execute(
            parse_request("UPDATE ((FILE = a) AND (k = 1)) (k = k + 50)")
        )
        mlds.kds.shutdown()

        recovered = recover_mlds(
            tmp_path / "wal",
            placement=HashShardPlacement(key_attributes={"a": "k"}),
            attach_wal=False,
        )
        placement = recovered.kds.controller.placement
        assert placement.tainted_files == frozenset({"a"})
        trace = recovered.kds.execute(
            parse_request("RETRIEVE ((FILE = a) AND (k = 51)) (*)")
        )
        assert trace.result.count == 4


class TestLeastLoadedRebalance:
    def test_drop_database_resets_load_counts(self):
        """Regression: loads once only ever grew, so a bulk delete left
        the policy placing against a phantom farm."""
        kds = KernelDatabaseSystem(
            backend_count=3, placement=LeastLoadedPlacement()
        )
        kds.define_database("big", "network", ["big"])
        kds.define_database("small", "network", ["small"])
        # Load backend 0 heavily through the placement policy itself.
        for i in range(30):
            kds.execute(insert("big", f"b${i}"))
        for i in range(3):
            kds.execute(insert("small", f"s${i}"))
        kds.drop_database("big")
        assert sum(kds.controller.distribution()) == 3
        for i in range(9):
            kds.execute(insert("small", f"t${i}"))
        low, high = min(kds.controller.distribution()), max(
            kds.controller.distribution()
        )
        assert high - low <= 1  # rebalanced, not skewed by dropped records

    def test_restore_resets_load_counts(self, tmp_path):
        from repro.persistence import load_mlds, save_mlds

        mlds = MLDS(backend_count=3, placement=LeastLoadedPlacement())
        for i in range(10):
            mlds.kds.execute(insert("f", f"f${i}"))
        path = tmp_path / "farm.mlds.json"
        save_mlds(mlds, path)

        restored = load_mlds(path, placement=LeastLoadedPlacement())
        policy = restored.kds.controller.placement
        assert policy._loads == restored.kds.controller.distribution()
        for i in range(6):
            restored.kds.execute(insert("f", f"g${i}"))
        distribution = restored.kds.controller.distribution()
        assert max(distribution) - min(distribution) <= 1


class TestRoutingAcrossEngines:
    @pytest.mark.parametrize("engine", ["serial", "threads", "process"])
    def test_hash_shard_parity(self, engine):
        def run(engine_name):
            kds = KernelDatabaseSystem(
                backend_count=4,
                engine=engine_name,
                placement=HashShardPlacement(key_attributes={"a": "k"}),
            )
            try:
                for i in range(16):
                    kds.execute(insert("a", f"a${i}", k=i % 4))
                out = []
                for text in (
                    "RETRIEVE ((FILE = a) AND (k = 2)) (*)",
                    "UPDATE ((FILE = a) AND (k = 0)) (k = k + 9)",
                    "RETRIEVE ((FILE = a) AND (k = 9)) (*)",
                ):
                    trace = kds.execute(parse_request(text))
                    out.append(
                        (
                            trace.result.count,
                            [r.pairs() for r in trace.result.records],
                            trace.response.total_ms,
                            trace.per_backend_ms,
                        )
                    )
                out.append(kds.clock.total_ms)
                return out
            finally:
                kds.shutdown()

        assert run("serial") == run(engine)
