"""Corpus generation, canonical codes, and oracle self-consistency."""

import itertools
import random

import networkx as nx
import pytest

from pmsp import (
    CorpusSpec,
    Graph,
    TooLargeError,
    agreement_sweep,
    brute_force_matchable,
    canonical_code,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    generate_corpus,
    matchable_subsets,
    path_graph,
    sullivant_compressed,
)

# connected graphs up to isomorphism: OEIS A001349
CONNECTED_BY_N = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# connected bipartite graphs: OEIS A005142
BIPARTITE_BY_N = {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}
# trees: OEIS A000055 (nonzero part)
TREES_BY_N = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
# connected unicyclic graphs: OEIS A001429
UNICYCLIC_BY_N = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240}


def unpruned_canonical_code(g: Graph) -> int:
    """`canonical_code` without twin pruning: the branch and bound keeps
    every placement that ties the running minimum."""
    n = g.n
    adj = g.adj_masks
    partials = [((v,), 1 << (v - 1)) for v in range(1, n + 1)]
    code = 0
    for level in range(1, n):
        best = None
        survivors = []
        for placed, used in partials:
            for u in range(1, n + 1):
                bit = 1 << (u - 1)
                if used & bit:
                    continue
                block = 0
                for w in placed:
                    block = block << 1 | (adj[u] >> (w - 1)) & 1
                if best is None or block < best:
                    best = block
                    survivors = [(placed + (u,), used | bit)]
                elif block == best:
                    survivors.append((placed + (u,), used | bit))
        partials = survivors
        code = code << level | best
    return n << (n * (n - 1) // 2) | code


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return Graph(g.n, tuple((perm[u - 1], perm[v - 1]) for u, v in g.edges))


class TestTwinPruning:
    @pytest.mark.parametrize("corpus", ["connected_7", "bipartite_8", "pseudotrees_9"])
    def test_matches_unpruned_on_corpora(self, request, corpus):
        # the unpruned code is a minimum over all orders, so relabeling g
        # leaves it unchanged
        rng = random.Random(0)
        for g in request.getfixturevalue(corpus):
            code = unpruned_canonical_code(g)
            assert canonical_code(g) == code, g.edges
            h = relabeled(g, rng)
            assert canonical_code(h) == code, h.edges

    @pytest.mark.parametrize(
        "g",
        [
            complete_bipartite_graph(1, 8),
            complete_bipartite_graph(3, 3),
            complete_multipartite_graph(2, 2, 2, 2),
            complete_graph(8),
        ],
        ids=["K1,8", "K3,3", "K2,2,2,2", "K8"],
    )
    def test_matches_unpruned_on_twin_classes(self, g):
        h = relabeled(g, random.Random(1))
        assert canonical_code(g) == canonical_code(h) == unpruned_canonical_code(g)

    @pytest.mark.parametrize("spec", [CorpusSpec(8, "pseudotree"), CorpusSpec(7, "bipartite")])
    def test_corpus_unchanged(self, monkeypatch, spec):
        pruned = [(g.n, g.edges) for g in generate_corpus(spec)]
        monkeypatch.setattr("pmsp.oracle.canonical_code", unpruned_canonical_code)
        assert [(g.n, g.edges) for g in generate_corpus(spec)] == pruned


class TestCanonicalCode:
    def test_isomorphic_relabelings_collide(self):
        g = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1)))
        h = Graph(5, ((3, 5), (5, 2), (2, 4), (4, 1), (1, 3)))  # relabeled C5
        assert canonical_code(g) == canonical_code(h)

    def test_distinguishes_path_and_star(self):
        assert canonical_code(path_graph(4)) != canonical_code(complete_bipartite_graph(1, 3))

    def test_matches_networkx_isomorphism(self):
        graphs = list(generate_corpus(CorpusSpec(max_n=5)))
        for a, b in itertools.combinations(graphs, 2):
            if a.n != b.n:
                continue
            ga = nx.Graph(list(a.edges))
            ga.add_nodes_from(a.vertices())
            gb = nx.Graph(list(b.edges))
            gb.add_nodes_from(b.vertices())
            same = canonical_code(a) == canonical_code(b)
            assert same == nx.is_isomorphic(ga, gb)


class TestCorpus:
    def test_tiny_counts(self):
        graphs = list(generate_corpus(CorpusSpec(max_n=3)))
        assert len(graphs) == 4  # K1, K2, P3, K3

    def test_connected_counts(self, connected_7):
        by_n = {}
        for g in connected_7:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == CONNECTED_BY_N

    def test_exactly_four_vertices(self):
        graphs = [g for g in generate_corpus(CorpusSpec(max_n=4)) if g.n == 4]
        assert len(graphs) == 6

    def test_bipartite_counts(self, bipartite_8):
        by_n = {}
        for g in bipartite_8:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == BIPARTITE_BY_N

    def test_pseudotree_counts(self, pseudotrees_9):
        trees = {}
        unicyclic = {}
        for g in pseudotrees_9:
            bucket = trees if g.edge_count == g.n - 1 else unicyclic
            bucket[g.n] = bucket.get(g.n, 0) + 1
        assert trees == TREES_BY_N
        assert unicyclic == UNICYCLIC_BY_N

    def test_multipartite_corpus(self):
        graphs = list(generate_corpus(CorpusSpec(max_n=6, family="multipartite")))
        # one graph per ascending shape: (1,) plus partitions of 2..6
        # into at least two parts: 1 + (1+2+4+6+10) = 24
        assert len(graphs) == 24
        assert all(g.n <= 6 for g in graphs)

    def test_labeled_corpus_small(self):
        graphs = list(generate_corpus(CorpusSpec(max_n=3, dedup=False)))
        # connected labeled graphs: 1 on one vertex, 1 on two, 4 on three
        assert len(graphs) == 6

    def test_family_cap_enforced(self):
        with pytest.raises(TooLargeError):
            CorpusSpec(max_n=9)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(max_n=4, family="chordal")

    def test_all_members_connected_and_deduplicated(self, pseudotrees_9):
        codes = [canonical_code(g) for g in pseudotrees_9]
        assert len(codes) == len(set(codes))


class TestBruteForce:
    def test_matches_main_enumeration(self):
        for g in (cycle_graph(6), complete_graph(5), complete_bipartite_graph(2, 4)):
            assert brute_force_matchable(g).as_lists() == matchable_subsets(g).as_lists()


class TestSullivant:
    def test_k4_compressed(self):
        ok, witness = sullivant_compressed(complete_graph(4))
        assert ok and witness is None

    def test_c5_witness_structure(self):
        ok, witness = sullivant_compressed(cycle_graph(5))
        assert not ok
        assert witness["source"] == "OddSet(1,2,3,4,5)"
        assert witness["values"] == [0, 2, 4]
        assert witness["levels"] == [-4, -2, 0]
        assert len(witness["points"]) == 3

    def test_budget(self):
        with pytest.raises(TooLargeError):
            sullivant_compressed(cycle_graph(11))


class TestAgreementSweep:
    def test_small_sweep_clean(self):
        report = agreement_sweep(CorpusSpec(max_n=5))
        assert report.ok
        assert len(report.disagreements) == 0
        graphs = 1 + 1 + 2 + 6 + 21
        per_graph = {}
        for rec in report.records:
            per_graph.setdefault(rec.property_name, 0)
            per_graph[rec.property_name] += 1
        assert per_graph["matchable-family"] == graphs
        assert per_graph["compressed"] == graphs

    def test_jsonl_deterministic(self):
        a = agreement_sweep(CorpusSpec(max_n=4)).to_jsonl()
        b = agreement_sweep(CorpusSpec(max_n=4)).to_jsonl()
        assert a == b
        assert "micros" not in a

    def test_timing_optional(self):
        report = agreement_sweep(CorpusSpec(max_n=3))
        assert "micros" in report.to_jsonl(include_timing=True)
