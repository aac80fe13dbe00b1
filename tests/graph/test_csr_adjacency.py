"""CSRAdjacency: the flat per-rank view must mirror the record store exactly."""

from __future__ import annotations

from repro.graph.dodgr import DODGraph, entry_key
from repro.runtime.serialization import dumps
from repro.runtime.world import World


def build_dodgr(dataset, nranks):
    world = World(nranks)
    return DODGraph.build(dataset.to_distributed(world), mode="bulk")


class TestCSRMirrorsRecords:
    def test_rows_cover_every_local_vertex(self, small_rmat):
        dodgr = build_dodgr(small_rmat, 4)
        for rank in range(4):
            store = dodgr.local_store(rank)
            csr = dodgr.csr(rank)
            assert csr.num_rows == len(store)
            assert set(csr.vertex_rows) == set(store)
            for vertex, record in store.items():
                row = csr.row_of(vertex)
                lo, hi = csr.row_slice(row)
                assert csr.entries[lo:hi] == record["adj"]
                assert csr.row_meta[row] == record["meta"]
                assert csr.row_degree[row] == record["degree"]

    def test_edge_count_matches(self, small_rmat):
        dodgr = build_dodgr(small_rmat, 4)
        total = sum(dodgr.csr(rank).num_edges for rank in range(4))
        assert total == dodgr.num_directed_edges()

    def test_row_of_missing_vertex_is_none(self, small_er):
        dodgr = build_dodgr(small_er, 2)
        assert dodgr.csr(0).row_of("no-such-vertex") is None


class TestOrderIds:
    def test_ids_are_dense_and_order_isomorphic(self, small_rmat):
        dodgr = build_dodgr(small_rmat, 4)
        order_ids = dodgr.order_ids()
        assert sorted(order_ids.values()) == list(range(len(order_ids)))
        # Ids must sort exactly like the <+ order key of each vertex.
        from repro.graph.degree import order_key

        by_id = sorted(order_ids, key=order_ids.__getitem__)
        keys = [order_key(v, dodgr.degree(v)) for v in by_id]
        assert keys == sorted(keys)

    def test_row_ids_sorted_ascending(self, small_rmat):
        dodgr = build_dodgr(small_rmat, 4)
        for rank in range(4):
            csr = dodgr.csr(rank)
            for row in range(csr.num_rows):
                ids = list(csr.row_ids(row))
                assert ids == sorted(ids)
                # Sorted identically to the record view's entry_key order.
                lo, hi = csr.row_slice(row)
                assert [entry_key(e) for e in csr.entries[lo:hi]] == sorted(
                    entry_key(e) for e in csr.entries[lo:hi]
                )

    def test_owners_match_partitioner(self, small_er):
        dodgr = build_dodgr(small_er, 4)
        for rank in range(4):
            csr = dodgr.csr(rank)
            for pos, entry in enumerate(csr.entries):
                assert csr.tgt_owner[pos] == dodgr.owner(entry[0])


class TestWireSizePrecompute:
    def test_suffix_bytes_match_legacy_candidate_list(self, small_rmat):
        """cand_size_cumsum must reproduce dumps() of the legacy suffix list."""
        dodgr = build_dodgr(small_rmat, 4)
        checked = 0
        for rank in range(4):
            csr = dodgr.csr(rank)
            for row in range(min(csr.num_rows, 20)):
                lo, hi = csr.row_slice(row)
                for qpos in range(lo, hi - 1):
                    candidates = [
                        (e[0], e[1], e[2]) for e in csr.entries[qpos + 1 : hi]
                    ]
                    # Legacy candidate list minus its 2 framing bytes
                    # (list tag + length prefix), which the survey driver
                    # accounts separately via uvarint_size.
                    suffix_bytes = csr.cand_size_cumsum[hi] - csr.cand_size_cumsum[qpos + 1]
                    assert suffix_bytes == len(dumps(candidates)) - 2
                    checked += 1
        assert checked > 50

    def test_row_and_target_sizes(self, small_er):
        dodgr = build_dodgr(small_er, 2)
        for rank in range(2):
            csr = dodgr.csr(rank)
            for row in range(csr.num_rows):
                vertex = csr.row_vertices[row]
                expected = len(dumps(vertex)) + len(dumps(csr.row_meta[row]))
                assert csr.row_wire_sizes[row] == expected
            for pos, entry in enumerate(csr.entries):
                assert csr.tgt_wire_sizes[pos] == len(dumps(entry[0])) + len(
                    dumps(entry[2])
                )


class TestInvalidation:
    def test_sort_adjacency_invalidates_cached_snapshots(self, small_er):
        dodgr = build_dodgr(small_er, 2)
        before = dodgr.csr(0)
        assert dodgr.csr(0) is before  # cached
        dodgr.sort_adjacency()
        assert dodgr.csr(0) is not before
