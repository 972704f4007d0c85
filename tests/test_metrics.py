import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k2seq.graphs import Graph
from k2seq.metrics import (CLUSTERING_BINS, Histogram, KernelConfig, MetricsError,
                           clustering_histogram, clustering_values,
                           compression_ratio, degree_histogram, evaluate_sets,
                           mean_orbit_vector, mmd, orbit4_counts)

from helpers import graph_strategy, orbit4_oracle, random_er, reference_orbit4

K4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
PATH4 = Graph(n=4, edges=frozenset({(0, 1), (1, 2), (2, 3)}))
STAR4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3)}))
CYCLE4 = Graph(n=4, edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
PAW = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (1, 2), (2, 3)}))
DIAMOND = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}))
SINGLE_EDGE = Graph(n=4, edges=frozenset({(0, 1)}))


def one_hot_hist(index: int, length: int = 2) -> Histogram:
    counts = np.zeros(length, dtype=np.int64)
    counts[index] = 1
    return Histogram(counts=counts, edges=np.arange(length + 1, dtype=float))


def orbit_rows(assignment: dict[int, int], n: int = 4) -> np.ndarray:
    out = np.zeros((n, 11), dtype=np.int64)
    for node, orbit in assignment.items():
        out[node, orbit] = 1
    return out


class TestDegreeAndClustering:
    def test_degree_histogram_of_the_complete_graph(self):
        h = degree_histogram(K4)
        assert h.counts.tolist() == [0, 0, 0, 4]
        assert h.edges.tolist() == [0, 1, 2, 3, 4]
        assert h.normalized().tolist() == [0, 0, 0, 1]

    def test_degree_histogram_of_an_edgeless_graph(self):
        h = degree_histogram(Graph(n=3))
        assert h.counts.tolist() == [3]
        assert h.normalized().tolist() == [1.0]

    def test_clustering_values_on_a_triangle_with_a_tail(self):
        vals = clustering_values(PAW)
        assert vals == pytest.approx([1.0, 1.0, 1 / 3, 0.0])

    def test_clustering_values_match_a_neighbour_pair_count(self):
        for seed in range(30):
            g = random_er(seed, 1 + seed, 0.4)
            adj = [set(nb) for nb in g.neighbors()]
            want = np.zeros(g.n)
            for u, nb in enumerate(adj):
                if len(nb) >= 2:
                    links = sum(1 for a in nb for b in nb if a < b and b in adj[a])
                    want[u] = 2.0 * links / (len(nb) * (len(nb) - 1))
            assert np.array_equal(clustering_values(g), want)

    def test_low_degree_nodes_cluster_at_zero(self):
        assert clustering_values(PATH4) == pytest.approx([0.0, 0.0, 0.0, 0.0])

    def test_clustering_histogram_has_fixed_unit_interval_bins(self):
        h = clustering_histogram(PAW)
        assert len(h.counts) == CLUSTERING_BINS
        assert h.edges[0] == 0.0 and h.edges[-1] == 1.0
        assert h.counts.sum() == 4
        assert h.counts[99] == 2  # the two 1.0 values
        assert h.counts[33] == 1  # the 1/3 value
        assert h.counts[0] == 1  # the 0.0 value


class TestOrbits:
    @pytest.mark.parametrize("g,assignment", [
        (PATH4, {0: 0, 1: 1, 2: 1, 3: 0}),
        (STAR4, {0: 3, 1: 2, 2: 2, 3: 2}),
        (CYCLE4, {0: 4, 1: 4, 2: 4, 3: 4}),
        (PAW, {0: 6, 1: 6, 2: 7, 3: 5}),
        (DIAMOND, {0: 9, 1: 9, 2: 8, 3: 8}),
        (K4, {0: 10, 1: 10, 2: 10, 3: 10}),
    ])
    def test_each_pattern_counts_its_own_orbits(self, g, assignment):
        assert (orbit4_counts(g) == orbit_rows(assignment)).all()
        assert (reference_orbit4(g) == orbit_rows(assignment)).all()

    def test_five_cycle_splits_between_path_end_and_path_interior(self):
        g = Graph(n=5, edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
        counts = orbit4_counts(g)
        expected = np.zeros((5, 11), dtype=np.int64)
        expected[:, 0] = 2
        expected[:, 1] = 0 + 2
        assert (counts == expected).all()
        assert mean_orbit_vector(g).tolist() == [2, 2] + [0] * 9

    @pytest.mark.parametrize("g", [Graph(n=1), Graph(n=3, edges=frozenset({(0, 1)})),
                                   Graph(n=30)])
    def test_too_few_nodes_or_no_edges_count_nothing(self, g):
        assert np.array_equal(orbit4_counts(g), np.zeros((g.n, 11), dtype=np.int64))

    def test_matches_the_isomorphism_oracle_on_random_graphs(self):
        for seed in range(20):
            g = random_er(seed, 4 + seed % 9, 0.35)
            assert (orbit4_counts(g) == orbit4_oracle(g)).all()

    def test_matches_the_oracle_on_the_petersen_graph(self):
        outer = {(i, (i + 1) % 5) for i in range(5)}
        inner = {(5 + i, 5 + (i + 2) % 5) for i in range(5)}
        spokes = {(i, i + 5) for i in range(5)}
        edges = frozenset((min(u, v), max(u, v)) for u, v in outer | inner | spokes)
        g = Graph(n=10, edges=edges)
        assert (orbit4_counts(g) == orbit4_oracle(g)).all()

    def test_matches_the_oracle_with_isolated_and_disconnected_parts(self):
        g = Graph(n=9, edges=frozenset({(0, 1), (0, 2), (1, 2),
                                        (4, 5), (4, 6), (5, 6)}))
        assert (orbit4_counts(g) == orbit4_oracle(g)).all()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graph_strategy(max_n=24))
    def test_matches_the_quad_enumeration_on_random_graphs(self, g):
        got = orbit4_counts(g)
        assert got.dtype == np.int64 and got.shape == (g.n, 11)
        assert np.array_equal(got, reference_orbit4(g))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 24), st.integers(0, 2 ** 31), st.sampled_from([0.0, 0.05, 0.5, 0.9]))
    def test_matches_on_edgeless_sparse_and_dense_graphs(self, n, seed, p):
        g = random_er(seed, n, p)
        assert np.array_equal(orbit4_counts(g), reference_orbit4(g))

    def test_matches_the_quad_enumeration_past_128_nodes(self):
        g = random_er(8, 300, 0.02)
        assert np.array_equal(orbit4_counts(g), reference_orbit4(g))

    def test_matches_the_quad_enumeration_on_a_star_with_an_er_overlay(self):
        # Sum of squared degrees is dominated by the centre of 120 leaves.
        rng = np.random.default_rng(0)
        leaves = {(0, v) for v in range(1, 121)}
        overlay = {(u, v) for u in range(1, 121) for v in range(u + 1, 121)
                   if rng.random() < 0.02}
        g = Graph(n=121, edges=frozenset(leaves | overlay))
        got = orbit4_counts(g)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_orbit4(g))

    def test_matches_the_quad_enumeration_on_a_hub_over_a_ring_of_4_cliques(self):
        cliques = 8
        ring = {(4 * c + a, 4 * c + b) for c in range(cliques)
                for a in range(4) for b in range(a + 1, 4)}
        ring |= {(4 * c + 3, (4 * c + 4) % (4 * cliques)) for c in range(cliques)}
        hub = 4 * cliques
        edges = {(min(u, v), max(u, v)) for u, v in ring} | {(v, hub) for v in range(hub)}
        g = Graph(n=hub + 1, edges=frozenset(edges))
        got = orbit4_counts(g)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_orbit4(g))

    def test_large_graphs_are_counted(self):
        for n in (129, 1000):
            g = random_er(n, n, 4 / n)
            counts = orbit4_counts(g)
            assert counts.shape == (n, 11) and counts.sum() > 0
            assert mean_orbit_vector(g).shape == (11,)
            # Each induced quad puts its nodes in fixed orbit proportions.
            s = counts.sum(axis=0)
            assert s[0] == s[1] and s[2] == 3 * s[3] and s[5] == s[7]
            assert s[6] == 2 * s[7] and s[8] == s[9] and s[4] % 4 == s[10] % 4 == 0


def naive_mmd_histograms(set_a, set_b, sigma=1.0):
    """Straight-loop recomputation with the same kernel definitions."""
    length = max(len(h.counts) for h in set_a + set_b)

    def norm(h):
        out = np.zeros(length)
        out[:len(h.counts)] = h.normalized()
        return out

    def kernel(x, y):
        tv = np.abs(x - y).sum() / 2.0
        return math.exp(-tv ** 2 / (2 * sigma ** 2))

    a = [norm(h) for h in set_a]
    b = [norm(h) for h in set_b]
    kaa = sum(kernel(x, y) for x in a for y in a) / len(a) ** 2
    kbb = sum(kernel(x, y) for x in b for y in b) / len(b) ** 2
    kab = sum(kernel(x, y) for x in a for y in b) / (len(a) * len(b))
    return max(kaa + kbb - 2 * kab, 0.0)


class TestMMD:
    def test_disjoint_one_hot_histograms_hit_the_closed_form(self):
        value = mmd([one_hot_hist(0)], [one_hot_hist(1)])
        assert value == pytest.approx(2 - 2 * math.exp(-0.5), abs=1e-12)

    def test_identical_sets_give_zero(self):
        hists = [degree_histogram(random_er(s, 10, 0.3)) for s in range(6)]
        assert mmd(hists, list(hists)) == 0.0

    def test_symmetry(self):
        a = [degree_histogram(random_er(s, 10, 0.3)) for s in range(5)]
        b = [degree_histogram(random_er(s, 12, 0.2)) for s in range(5, 11)]
        assert mmd(a, b) == pytest.approx(mmd(b, a), abs=1e-15)

    def test_unit_integer_bins_pad_to_a_common_length(self):
        short = degree_histogram(Graph(n=2, edges=frozenset({(0, 1)})))
        value = mmd([degree_histogram(K4)], [short])
        assert value == pytest.approx(2 - 2 * math.exp(-0.5), abs=1e-12)

    def test_sigma_widens_the_kernel(self):
        a, b = [one_hot_hist(0)], [one_hot_hist(1)]
        wide = mmd(a, b, KernelConfig(sigma=2.0))
        assert wide == pytest.approx(2 - 2 * math.exp(-1 / 8), abs=1e-12)
        assert wide < mmd(a, b)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(MetricsError, match="sigma"):
            KernelConfig(sigma=sigma)

    def test_vector_features_use_euclidean_distance(self):
        value = mmd([np.array([1.0, 0.0])], [np.array([0.0, 1.0])])
        assert value == pytest.approx(2 - 2 * math.exp(-1.0), abs=1e-12)

    def test_matches_a_naive_recomputation_on_random_sets(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            a = [Histogram(counts=rng.integers(0, 6, size=rng.integers(2, 7)),
                           edges=np.arange(0))
                 for _ in range(4)]
            a = [Histogram(counts=h.counts,
                           edges=np.arange(len(h.counts) + 1, dtype=float))
                 for h in a]
            b = [Histogram(counts=rng.integers(0, 6, size=rng.integers(2, 7)),
                           edges=np.arange(0))
                 for _ in range(6)]
            b = [Histogram(counts=h.counts,
                           edges=np.arange(len(h.counts) + 1, dtype=float))
                 for h in b]
            assert mmd(a, b) == pytest.approx(naive_mmd_histograms(a, b), abs=1e-12)

    def test_empty_sets_rejected(self):
        with pytest.raises(MetricsError):
            mmd([], [one_hot_hist(0)])
        with pytest.raises(MetricsError):
            mmd([one_hot_hist(0)], [])

    def test_mixed_feature_types_rejected(self):
        with pytest.raises(MetricsError, match="mix"):
            mmd([one_hot_hist(0)], [np.array([1.0, 0.0])])

    def test_mismatched_vector_lengths_rejected(self):
        with pytest.raises(MetricsError, match="length"):
            mmd([np.array([1.0, 0.0])], [np.array([1.0, 0.0, 0.0])])

    def test_mismatched_non_unit_bins_rejected(self):
        a = Histogram(counts=np.array([1, 1]), edges=np.array([0.0, 0.5, 1.0]))
        b = Histogram(counts=np.array([1, 1, 1]), edges=np.array([0.0, 0.3, 0.6, 1.0]))
        with pytest.raises(MetricsError, match="bins"):
            mmd([a], [b])


class TestEvaluateSets:
    def test_self_comparison_is_zero_for_every_metric(self):
        graphs = [random_er(s, 10, 0.3) for s in range(8)]
        out = evaluate_sets(graphs, list(graphs))
        assert set(out) == {"deg", "clus", "orbit"}
        assert all(v == 0.0 for v in out.values())

    def test_metric_subset_and_config(self):
        a = [random_er(s, 10, 0.3) for s in range(6)]
        b = [random_er(s, 10, 0.7) for s in range(6, 12)]
        narrow = evaluate_sets(a, b, metrics=("deg",))
        wide = evaluate_sets(a, b, metrics=("deg",), config=KernelConfig(sigma=4.0))
        assert set(narrow) == {"deg"}
        assert 0 < wide["deg"] < narrow["deg"]

    def test_unknown_metric_rejected(self):
        with pytest.raises(MetricsError, match="unknown"):
            evaluate_sets([K4], [K4], metrics=("nope",))

    def test_a_reference_set_scored_twice_counts_its_orbits_once(self, monkeypatch):
        import k2seq.metrics as mt

        ref = [random_er(s, 12, 0.4) for s in range(4)]
        gens = [[random_er(s, 10, 0.5) for s in range(4, 7)],
                [random_er(s, 14, 0.3) for s in range(7, 10)]]
        counted, inner = [], mt.orbit4_counts

        def orbit4_counts(g):
            counted.append(g)
            return inner(g)

        monkeypatch.setattr(mt, "orbit4_counts", orbit4_counts)
        scores = [evaluate_sets(ref, gen) for gen in gens]
        assert [sum(c is g for c in counted) for g in ref] == [1] * len(ref)
        assert len(counted) == len(ref) + sum(map(len, gens))
        # The kept features are bit for bit those of equal graphs built anew.
        fresh = [Graph.from_arrays(g.n, g.edge_array) for g in ref]
        for g, h in zip(ref, fresh):
            for feature in (degree_histogram, clustering_histogram):
                kept, anew = feature(g), feature(h)
                assert kept.counts.tobytes() == anew.counts.tobytes()
                assert kept.edges.tobytes() == anew.edges.tobytes()
            assert mean_orbit_vector(g).tobytes() == mean_orbit_vector(h).tobytes()
        assert [evaluate_sets(fresh, gen) for gen in gens] == scores

    def test_kept_features_are_read_only(self):
        g = random_er(3, 10, 0.4)
        for array in (degree_histogram(g).counts, clustering_histogram(g).counts,
                      mean_orbit_vector(g)):
            with pytest.raises(ValueError):
                array[0] = 5
        assert degree_histogram(g) is degree_histogram(g)


class TestCompressionRatio:
    def test_frozen_ratios(self):
        assert compression_ratio(SINGLE_EDGE, 2) == pytest.approx(0.375)
        assert compression_ratio(K4, 2) == pytest.approx(0.8125)
        assert compression_ratio(STAR4, 2) == pytest.approx(0.625)
        assert compression_ratio(STAR4, 2, ordering="cm") == pytest.approx(0.625)

    def test_featured_ratio_uses_the_original_size(self):
        g = Graph(n=3, edges=frozenset({(0, 1), (0, 2), (1, 2)}),
                  node_labels={0: 0, 1: 1, 2: 0},
                  edge_labels={(0, 1): 1, (0, 2): 1, (1, 2): 0},
                  node_vocab=2, edge_vocab=2)
        assert compression_ratio(g, 2) == pytest.approx(13 / 9)

    def test_undefined_for_empty_graphs(self):
        with pytest.raises(MetricsError, match="empty"):
            compression_ratio(Graph(n=4), 2)
