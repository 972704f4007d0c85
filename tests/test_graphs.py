from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k2seq.generators import Dataset, gen_grid, read_dataset, write_dataset
from k2seq.graphs import (Graph, GraphError, ParseError, _scan_edge_list, apply_ordering,
                          invert_permutation, order_nodes, padded_size,
                          parse_edge_list, serialize_edge_list)
from k2seq.sequence import _lower_cells, decode_graph, encode_graph

from helpers import (array_graph, bandwidth, connected_er, graph_strategy, reference_adjacency,
                     reference_apply_ordering, reference_degrees, reference_graph,
                     reference_lower_cells, reference_neighbors, reference_order_nodes,
                     reference_parse, reference_parse_arrays, reference_serialize,
                     set_graph)

STAR4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3)}))
PATH4 = Graph(n=4, edges=frozenset({(0, 1), (1, 2), (2, 3)}))


class TestGraphConstruction:
    def test_edges_are_normalized_to_ascending_pairs(self):
        g = Graph(n=3, edges=frozenset({(2, 0), (1, 2)}))
        assert g.edges == frozenset({(0, 2), (1, 2)})

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(n=2, edges=frozenset({(1, 1)}))

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(n=2, edges=frozenset({(0, 2)}))

    def test_duplicate_after_normalization_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(n=3, edges=frozenset({(0, 1), (1, 0)}))

    def test_nonpositive_node_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(n=0)

    def test_node_labels_must_cover_all_nodes(self):
        with pytest.raises(GraphError, match="cover"):
            Graph(n=2, node_labels={0: 0}, node_vocab=1)

    def test_node_label_outside_vocab_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            Graph(n=1, node_labels={0: 3}, node_vocab=2)

    def test_edge_labels_must_cover_all_edges(self):
        with pytest.raises(GraphError, match="cover"):
            Graph(n=3, edges=frozenset({(0, 1), (1, 2)}),
                  edge_labels={(0, 1): 0}, edge_vocab=1)

    def test_vocab_without_labels_rejected(self):
        with pytest.raises(GraphError):
            Graph(n=2, node_vocab=2)
        with pytest.raises(GraphError):
            Graph(n=2, edge_vocab=2)

    def test_neighbors_and_degrees(self):
        assert STAR4.neighbors() == [[1, 2, 3], [0], [0], [0]]
        assert STAR4.degrees() == [3, 1, 1, 1]
        assert STAR4.m == 3

    @pytest.mark.parametrize("kwargs", [
        dict(n=3, edges={(0.5, 2)}),
        dict(n=3, edges={(1.0, 2)}),
        dict(n=3, edges={(0, "2")}),
        dict(n=2.5),
        dict(n=2.0),
        dict(n=2, node_labels={0: 0.5, 1: 0}, node_vocab=1),
        dict(n=2, node_labels={0.0: 0, 1: 0}, node_vocab=1),
        dict(n=2, node_labels={0: 0, 1: 0}, node_vocab=1.5),
        dict(n=2, edges={(0, 1)}, edge_labels={(0, 1): 0.5}, edge_vocab=1),
        dict(n=2, edges={(0, 1)}, edge_labels={(0.0, 1): 0}, edge_vocab=1),
        dict(n=2, edges={(0, 1)}, edge_labels={(0, 1): 0}, edge_vocab=1.0),
    ])
    def test_values_that_are_not_integers_are_refused(self, kwargs):
        with pytest.raises(GraphError, match="integer"):
            Graph(**kwargs)

    def test_a_fractional_endpoint_no_longer_round_trips_to_another_graph(self):
        # Such a graph used to encode as the edge (0, 2) and decode unequal.
        with pytest.raises(GraphError):
            encode_graph(Graph(n=3, edges={(0.5, 2)}), 2)
        g = Graph(n=3, edges={(0, 2)})
        assert decode_graph(encode_graph(g, 2)) == g

    def test_numpy_integers_pass(self):
        g = Graph(n=np.int64(3), edges={(np.int32(2), np.int64(0)), (True, 2)},
                  node_labels={np.int64(u): np.uint8(1) for u in range(3)},
                  edge_labels={(0, 2): np.int16(0), (1, 2): 1},
                  node_vocab=np.int64(2), edge_vocab=2)
        assert g == Graph(n=3, edges={(0, 2), (1, 2)}, node_labels={0: 1, 1: 1, 2: 1},
                          edge_labels={(0, 2): 0, (1, 2): 1}, node_vocab=2, edge_vocab=2)
        assert type(g.n) is int and g.edges == frozenset({(0, 2), (1, 2)})

    def test_values_beyond_int64_are_refused(self):
        with pytest.raises(GraphError, match="int64"):
            Graph(n=2 ** 70, edges={(0, 2 ** 64)})

    def test_edge_array_is_sorted_read_only_and_aligned_with_labels(self):
        g = Graph(n=4, edges=[(3, 1), (2, 0), (0, 1)], node_labels={3: 0, 2: 1, 1: 0, 0: 1},
                  edge_labels={(1, 3): 2, (0, 2): 1, (1, 0): 0}, node_vocab=2, edge_vocab=3)
        assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert g.edge_label_array.tolist() == [0, 1, 2]
        assert g.node_label_array.tolist() == [1, 0, 1, 0]
        assert g.edge_labels == {(0, 1): 0, (0, 2): 1, (1, 3): 2}
        assert list(g.node_labels) == [0, 1, 2, 3]
        for array in (g.edge_array, g.node_label_array, g.edge_label_array):
            assert array.dtype == np.int64 and not array.flags.writeable
        assert Graph(n=2).edge_array.shape == (0, 2)

    def test_from_arrays_checks_as_the_constructor_does(self):
        g = Graph.from_arrays(4, np.array([[3, 1], [2, 0], [0, 1]]), np.array([1, 0, 1, 0]),
                              np.array([2, 1, 0]), 2, 3)
        assert g == Graph(n=4, edges={(1, 3), (0, 2), (0, 1)},
                          node_labels={0: 1, 1: 0, 2: 1, 3: 0},
                          edge_labels={(1, 3): 2, (0, 2): 1, (0, 1): 0},
                          node_vocab=2, edge_vocab=3)
        for edges, message in (([[1, 1]], "self-loop at node 1"),
                               ([[0, 4]], r"edge \(0, 4\) has an endpoint out of range"),
                               ([[0, 1], [1, 0]], r"duplicate edge \(0, 1\)"),
                               ([[0.5, 1]], "integer"), ([[0, 1, 2]], "pairs")):
            with pytest.raises(GraphError, match=message):
                Graph.from_arrays(4, np.array(edges))
        with pytest.raises(GraphError, match="cover exactly all nodes"):
            Graph.from_arrays(4, np.zeros((0, 2)), np.zeros(3, dtype=int), node_vocab=1)
        with pytest.raises(GraphError, match="cover exactly all edges"):
            Graph.from_arrays(4, np.array([[0, 1]]), edge_labels=np.zeros(2, dtype=int),
                              edge_vocab=1)
        with pytest.raises(GraphError, match=r"edge label 3 at \(0, 1\) outside \[0, 3\)"):
            Graph.from_arrays(4, np.array([[1, 0]]), edge_labels=np.array([3]), edge_vocab=3)

    def test_equality_hashing_and_replace(self):
        a = Graph(n=3, edges={(0, 1), (1, 2)})
        b = Graph.from_arrays(3, np.array([[2, 1], [1, 0]]))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Graph(n=4, edges={(0, 1), (1, 2)}) and a != a.edges
        assert replace(a, n=4) == Graph(n=4, edges={(0, 1), (1, 2)})
        labeled = Graph(n=2, node_labels={0: 0, 1: 0}, node_vocab=1)
        assert labeled != Graph(n=2) and labeled != replace(labeled, node_vocab=2)
        assert eval(repr(a), {"Graph": Graph}) == a


class TestParsing:
    def test_plain_round_trip(self):
        text = "4 3\n0 1\n0 2\n0 3\n"
        assert parse_edge_list(text) == STAR4
        assert serialize_edge_list(STAR4) == text

    def test_labeled_round_trip(self):
        g = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}),
                  node_labels={0: 1, 1: 0, 2: 1},
                  edge_labels={(0, 1): 2, (1, 2): 0},
                  node_vocab=2, edge_vocab=3)
        text = "3 2 2 3\nn 0 1\nn 1 0\nn 2 1\ne 0 1 2\ne 1 2 0\n"
        assert parse_edge_list(text) == g
        assert serialize_edge_list(g) == text

    def test_edgeless_graph_round_trip(self):
        g = Graph(n=5)
        assert parse_edge_list("5 0\n") == g
        assert serialize_edge_list(g) == "5 0\n"

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("")
        assert exc.value.line == 1

    def test_bad_header_arity(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("3\n")
        assert exc.value.line == 1

    def test_non_integer_header(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("x 1\n0 1\n")
        assert exc.value.line == 1

    def test_edge_count_mismatch_points_at_first_bad_line(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("3 2\n0 1\n")
        assert exc.value.line == 3

    def test_descending_endpoints_rejected(self):
        with pytest.raises(ParseError, match="u < v") as exc:
            parse_edge_list("2 1\n1 0\n")
        assert exc.value.line == 2

    def test_self_loop_line_rejected(self):
        with pytest.raises(ParseError, match="self-loop") as exc:
            parse_edge_list("2 1\n0 0\n")
        assert exc.value.line == 2

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ParseError, match="out of range") as exc:
            parse_edge_list("2 1\n0 2\n")
        assert exc.value.line == 2

    def test_duplicate_edge_line_rejected(self):
        with pytest.raises(ParseError, match="duplicate") as exc:
            parse_edge_list("3 2\n0 1\n0 1\n")
        assert exc.value.line == 3

    def test_blank_interior_line_rejected(self):
        with pytest.raises(ParseError, match="blank") as exc:
            parse_edge_list("3 2\n\n0 1\n0 2\n")
        assert exc.value.line == 2

    def test_labeled_missing_node_line(self):
        text = "2 1 2 2\nn 0 1\ne 0 1 0\n"
        with pytest.raises(ParseError):
            parse_edge_list(text)

    def test_labeled_bad_record_tag(self):
        text = "1 0 2 2\nx 0 1\n"
        with pytest.raises(ParseError, match="node label line") as exc:
            parse_edge_list(text)
        assert exc.value.line == 2

    def test_labeled_edge_label_out_of_vocab(self):
        text = "2 1 2 2\nn 0 0\nn 1 0\ne 0 1 5\n"
        with pytest.raises(ParseError, match="outside") as exc:
            parse_edge_list(text)
        assert exc.value.line == 4

    def test_serialize_requires_both_label_kinds(self):
        g = Graph(n=2, node_labels={0: 0, 1: 0}, node_vocab=1)
        with pytest.raises(GraphError, match="both"):
            serialize_edge_list(g)

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy())
    def test_plain_round_trip_property(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(labeled=True))
    def test_labeled_round_trip_property(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g


class TestOrderings:
    # Tree-shaped example where the three schemes all differ:
    # 0-1, 0-2, 1-3, 1-4, 2-5.
    TREE6 = Graph(n=6, edges=frozenset({(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)}))

    def test_bfs_starts_at_smallest_id_and_visits_ascending(self):
        assert order_nodes(self.TREE6, "bfs") == (0, 1, 2, 3, 4, 5)

    def test_dfs_starts_at_smallest_id_and_visits_ascending(self):
        assert order_nodes(self.TREE6, "dfs") == (0, 1, 3, 4, 2, 5)

    def test_cm_starts_at_min_degree_and_visits_by_degree(self):
        assert order_nodes(self.TREE6, "cm") == (3, 1, 4, 0, 2, 5)

    def test_reverse_flag_reverses_the_permutation(self):
        assert order_nodes(self.TREE6, "cm", reverse=True) == (5, 2, 0, 4, 1, 3)

    def test_cm_on_star_moves_the_hub_inward(self):
        assert order_nodes(STAR4, "cm") == (1, 0, 2, 3)

    def test_components_processed_by_smallest_contained_id(self):
        g = Graph(n=6, edges=frozenset({(3, 4), (0, 1), (1, 2)}))
        assert order_nodes(g, "bfs") == (0, 1, 2, 3, 4, 5)
        assert order_nodes(g, "cm") == (0, 1, 2, 3, 4, 5)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown ordering"):
            order_nodes(STAR4, "random")

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(), st.sampled_from(["bfs", "dfs", "cm"]), st.booleans())
    def test_every_scheme_yields_a_bijection(self, g, scheme, reverse):
        perm = order_nodes(g, scheme, reverse=reverse)
        assert sorted(perm) == list(range(g.n))


def _relabeled(g: Graph, seed: int) -> Graph:
    """``g`` under a seeded random relabeling of its nodes."""
    perm = np.random.default_rng(seed).permutation(g.n)
    return apply_ordering(g, tuple(perm.tolist()))


# A component whose (degree, id)-minimal node, 4, is neither its smallest
# id nor the first node reached from it; the path 5-6-7 holds smaller
# degrees, so Cuthill-McKee tries its start first; 8 is isolated.
LATE_START = Graph(n=9, edges=frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                         (2, 4), (3, 4), (5, 6), (6, 7)}))


def _islands(n: int, seed: int) -> Graph:
    """Paths, triangles and single edges on scattered ids among ``n`` nodes,
    most of which stay isolated."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(n).tolist()
    edges = set()
    while len(ids) > n // 2:
        size = int(rng.integers(2, 6))
        part, ids = ids[:size], ids[size:]
        edges.update(zip(part, part[1:]))
        if size == 3:
            edges.add((part[0], part[2]))
    return Graph(n=n, edges=edges)


class TestOrderingsAtScale:
    """Orderings on graphs far larger than the hypothesis strategy draws,
    against the set-based ``reference_order_nodes``."""

    GRAPHS = {
        "path-2000": _relabeled(Graph(n=2000, edges={(u, u + 1) for u in range(1999)}), 1),
        "star-500": Graph(n=501, edges={(250, v) for v in range(501) if v != 250}),
        "grid-40x40": _relabeled(gen_grid(40, 40), 2),
        "islands": _islands(600, 3),
        "late-start": LATE_START,
        "late-start-relabeled": _relabeled(LATE_START, 4),
    }

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("scheme", ["bfs", "dfs", "cm"])
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_matches_the_reference(self, name, scheme, reverse):
        g = self.GRAPHS[name]
        assert order_nodes(g, scheme, reverse) == reference_order_nodes(set_graph(g), scheme,
                                                                         reverse)

    def test_cm_starts_late_and_lists_components_by_smallest_id(self):
        assert order_nodes(LATE_START, "cm") == (4, 2, 3, 0, 1, 5, 6, 7, 8)


class TestApplyOrdering:
    def test_star_relabeled_by_cm_permutation(self):
        out = apply_ordering(STAR4, (1, 0, 2, 3))
        assert out == Graph(n=4, edges=frozenset({(0, 1), (1, 2), (1, 3)}))

    def test_labels_follow_their_nodes_and_edges(self):
        g = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3)}),
                  node_labels={0: 2, 1: 0, 2: 1, 3: 1},
                  edge_labels={(0, 1): 0, (0, 2): 1, (0, 3): 1},
                  node_vocab=3, edge_vocab=2)
        out = apply_ordering(g, (1, 0, 2, 3))
        assert out.node_labels == {0: 0, 1: 2, 2: 1, 3: 1}
        assert out.edge_labels == {(0, 1): 0, (1, 2): 1, (1, 3): 1}

    def test_non_bijection_rejected(self):
        with pytest.raises(GraphError, match="bijection"):
            apply_ordering(STAR4, (0, 0, 2, 3))
        with pytest.raises(GraphError, match="bijection"):
            apply_ordering(STAR4, (0, 1, 2))

    def test_invert_permutation(self):
        assert invert_permutation((1, 0, 2, 3)) == (1, 0, 2, 3)
        assert invert_permutation((2, 0, 1)) == (1, 2, 0)
        assert invert_permutation(()) == ()

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(labeled=True), st.sampled_from(["bfs", "dfs", "cm"]))
    def test_ordering_then_inverse_restores_the_graph(self, g, scheme):
        perm = order_nodes(g, scheme)
        assert apply_ordering(apply_ordering(g, perm), invert_permutation(perm)) == g

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(), st.sampled_from(["bfs", "dfs", "cm"]))
    def test_relabeling_preserves_size_and_degree_multiset(self, g, scheme):
        out = apply_ordering(g, order_nodes(g, scheme))
        assert out.n == g.n and out.m == g.m
        assert sorted(out.degrees()) == sorted(g.degrees())


class TestAdjacency:
    """``Graph._adjacency``'s one sort of unique keys against the stable
    sort of the edge halves it replaced (``reference_adjacency``)."""

    @staticmethod
    def assert_matches_reference(g):
        for by_degree in (False, True):
            ptr, nbrs, by_rank = g._adjacency(by_degree)
            ref_ptr, ref_nbrs = reference_adjacency(g, by_degree)
            assert ptr.dtype == ref_ptr.dtype and nbrs.dtype == ref_nbrs.dtype
            assert np.array_equal(ptr, ref_ptr) and np.array_equal(nbrs, ref_nbrs)
            if by_degree:
                assert np.array_equal(by_rank, np.argsort(g.degree_array(), kind="stable"))
            else:
                assert by_rank is None

    @settings(max_examples=100, deadline=None)
    @given(graph_strategy(max_n=16), st.integers(0, 4))
    def test_matches_the_stable_sort(self, g, isolated):
        # Small graphs tie in degree often; the extra nodes are isolated.
        self.assert_matches_reference(replace(g, n=g.n + isolated))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.randoms())
    def test_matches_on_disjoint_regular_pieces(self, count, size, random):
        """Cycles and cliques, every node of a piece tying with the others,
        relabeled at random so ties are not listed by id."""
        edges, n = set(), 0
        for piece in range(count):
            nodes = range(n, n + size + 2)
            if piece % 2:
                edges |= {(u, v) for u in nodes for v in nodes if u < v}
            else:
                edges |= {(u, u + 1) for u in nodes[:-1]} | {(nodes[0], nodes[-1])}
            n += size + 2
        shuffled = list(range(n))
        random.shuffle(shuffled)
        self.assert_matches_reference(apply_ordering(Graph(n=n, edges=edges),
                                                     tuple(shuffled)))

    @pytest.mark.parametrize("g", [
        Graph(n=1),
        Graph(n=5),
        Graph(n=6, edges={(u, (u + 1) % 6) for u in range(6)}),
        STAR4,
        Graph(n=501, edges={(250, v) for v in range(501) if v != 250}),
        PATH4,
    ], ids=["n1", "edgeless", "cycle", "star4", "star-500", "path4"])
    def test_matches_on_named_graphs(self, g):
        self.assert_matches_reference(g)


class TestPaddingAndBandwidth:
    @pytest.mark.parametrize("n,k,expected", [
        (1, 2, 2), (2, 2, 2), (3, 2, 4), (5, 2, 8), (8, 2, 8), (9, 2, 16),
        (1, 3, 3), (3, 3, 3), (4, 3, 9), (10, 3, 27), (27, 3, 27), (28, 3, 81),
    ])
    def test_padded_size_is_smallest_power_at_least_n(self, n, k, expected):
        assert padded_size(n, k) == expected

    def test_padded_size_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            padded_size(4, 1)
        with pytest.raises(ValueError):
            padded_size(0, 2)

    def test_bandwidth_examples(self):
        assert bandwidth(PATH4) == 1
        assert bandwidth(STAR4) == 3
        assert bandwidth(Graph(n=4)) == 0

    def test_cm_narrows_the_band_on_random_connected_graphs(self):
        # Statistical check: on shuffled-id connected graphs the band after
        # Cuthill-McKee should essentially never widen and usually shrink.
        wins = ties_or_wins = 0
        trials = 100
        for trial in range(trials):
            g = connected_er(seed=9000 + trial, n=16 + trial % 17, p=0.22)
            before = bandwidth(g)
            after = bandwidth(apply_ordering(g, order_nodes(g, "cm")))
            ties_or_wins += after <= before
            wins += after < before
        assert ties_or_wins >= 95
        assert wins >= 80


# Mutations of edge-list text: each mutant must parse to the same graph as
# the line-by-line set-based parser, or fail with the same class, line and
# message.
_PIECES = ["0", "1", "7", "-1", "+1", "01", "1_0", "\u0663", "99999999999999999999", " ",
           "  ", "\t", "\r", "\x0b", "\x1c", "\u2003", "\n", "\n\n", "|", "n", "e", "x",
           ".5", ""]


def _mutate(rng: np.random.Generator, text: str) -> str:
    lines = text.split("\n")
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(8))
        if op == 0 and text:  # replace, insert or delete a character
            i = int(rng.integers(len(text)))
            text = text[:i] + _PIECES[rng.integers(len(_PIECES))] + text[i + int(rng.integers(2)):]
        elif op == 1 and len(lines) > 1:  # duplicate, drop or swap lines
            i, j = (int(x) for x in rng.integers(len(lines), size=2))
            lines.insert(j, lines[i]) if rng.integers(2) else lines.pop(i)
            text = "\n".join(lines)
        elif op == 2 and len(lines) > 2:
            i, j = (int(x) for x in rng.integers(len(lines) - 1, size=2))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        elif op == 3:  # respell or change one number
            words = text.split(" ")
            i = int(rng.integers(len(words)))
            word = words[i].strip("\n")
            if word.isdigit():
                value = int(word)
                new = str(rng.choice([value + 1, value - 1, -value, 2 ** 63, 2 ** 64 + value]))
                spelled = rng.choice([new, "+" + word, "0" + word, word + "_0", word + ".0"])
                words[i] = words[i].replace(word, spelled)
            text = " ".join(words)
        elif op == 4:  # whitespace or blank lines at the end
            text += rng.choice(["\n", "\n\n", " \n", "\t", "\n \n", ""])
        elif op == 5:  # truncate
            text = text[:int(rng.integers(len(text) + 1))]
        elif op == 6:  # change a header field
            head, _, rest = text.partition("\n")
            fields = head.split(" ")
            i = int(rng.integers(len(fields)))
            fields[i] = _PIECES[rng.integers(len(_PIECES))] or "0"
            text = " ".join(fields) + "\n" + rest
        else:  # make the header's edge count match the edge lines
            fields = lines[0].split(" ")
            if len(fields) in (2, 4) and fields[0].isdigit():
                body = [line for line in lines[1:] if line]
                fields[1] = str(len(body) - (int(fields[0]) if len(fields) == 4 else 0))
                text = "\n".join([" ".join(fields)] + lines[1:])
        lines = text.split("\n")
    return text


def _parse_outcome(parse, text):
    try:
        return "graph", parse(text)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)


def _line_faults(text: str) -> list[str]:
    """Each record line duplicated (with the header's edge count raised to
    match) or with one field set to a value the checks refuse."""
    head, *body = text.rstrip("\n").split("\n")
    fields = head.split(" ")
    out = []
    for i, line in enumerate(body):
        words = line.split(" ")
        raised = fields[:1] + [str(int(fields[1]) + 1)] + fields[2:]
        out.append("\n".join([" ".join(raised)] + body[:i + 1] + body[i:]) + "\n")
        numbers = [j for j, w in enumerate(words) if w.lstrip("-").isdigit()]
        for j in numbers:
            for value in ("-1", fields[0], words[numbers[0]], "x"):
                changed = words[:j] + [value] + words[j + 1:]
                out.append("\n".join([head] + body[:i] + [" ".join(changed)] + body[i + 1:]) + "\n")
    return out


def _mutants(seed: int, count: int) -> list[str]:
    rng = np.random.default_rng(seed)
    bases = [serialize_edge_list(g) for g in (
        STAR4, PATH4, Graph(n=3), Graph(n=6, edges={(0, 5), (1, 2), (2, 4), (3, 4)}),
        Graph(n=3, edges={(0, 1), (1, 2)}, node_labels={0: 1, 1: 0, 2: 1},
              edge_labels={(0, 1): 2, (1, 2): 0}, node_vocab=2, edge_vocab=3),
        Graph(n=4, edges={(0, 3), (1, 3)}, node_labels={u: u % 2 for u in range(4)},
              edge_labels={(0, 3): 0, (1, 3): 1}, node_vocab=2, edge_vocab=2))]
    return ([fault for text in bases for fault in _line_faults(text)]
            + [_mutate(rng, bases[i % len(bases)]) for i in range(count)])


class TestArrayGraphMatchesReference:
    """The array-backed Graph and the functions over it against the frozen
    set-based code in ``helpers``."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(graph_strategy(), graph_strategy(labeled=True)))
    def test_parse_and_serialize(self, g):
        text = serialize_edge_list(g)
        assert text == reference_serialize(set_graph(g))
        assert parse_edge_list(text) == array_graph(reference_parse(text)) == g

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(graph_strategy(), graph_strategy(labeled=True)))
    def test_neighbors_degrees_and_cells(self, g):
        sg = set_graph(g)
        assert g.neighbors() == reference_neighbors(sg)
        assert g.degrees() == reference_degrees(sg)
        rows, cols, values = _lower_cells(g)
        assert sorted(zip(rows.tolist(), cols.tolist(), values.tolist())) == \
            reference_lower_cells(sg)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(graph_strategy(), graph_strategy(labeled=True)),
           st.sampled_from(["bfs", "dfs", "cm"]), st.booleans(), st.randoms())
    def test_orderings_and_relabeling(self, g, scheme, reverse, random):
        sg = set_graph(g)
        perm = order_nodes(g, scheme, reverse=reverse)
        assert perm == reference_order_nodes(sg, scheme, reverse)
        shuffled = list(range(g.n))
        random.shuffle(shuffled)
        for p in (perm, tuple(shuffled)):
            assert apply_ordering(g, p) == array_graph(reference_apply_ordering(sg, p))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=6),
        st.booleans())))
    def test_construction_accepts_and_refuses_alike(self, case):
        n, pairs, labeled = case
        kwargs = dict(n=n, edges=pairs)
        if labeled:
            kwargs.update(edge_labels={p: i % 2 for i, p in enumerate(pairs)}, edge_vocab=2)
        try:
            expected = array_graph(reference_graph(**kwargs))
        except GraphError:
            with pytest.raises(GraphError):
                Graph(**kwargs)
        else:
            assert Graph(**kwargs) == expected

    def test_mutated_texts_parse_or_fail_alike(self):
        outcomes = set()
        for text in _mutants(seed=13, count=1500):
            got, want = _parse_outcome(parse_edge_list, text), \
                _parse_outcome(lambda t: array_graph(reference_parse(t)), text)
            assert got == want, repr(text)
            outcomes.add(got[0] if got[0] == "graph" else got[2].split(":")[1].split()[0])
        # The mutants reach acceptance and a spread of refusals.
        assert {"graph", "duplicate", "self-loop", "endpoint", "edge", "node", "blank",
                "header", "expected"} <= outcomes


def _respellings(text: str) -> list[str]:
    """``text``, and with CRLF line ends, tabs for spaces, and runs of
    spaces with trailing spaces on every line."""
    return [text, text.replace("\n", "\r\n"), text.replace(" ", "\t"),
            text.replace(" ", "   ").replace("\n", " \n")]


LABELED3 = Graph(n=3, edges={(0, 1), (1, 2)}, node_labels={0: 1, 1: 0, 2: 1},
                 edge_labels={(0, 1): 2, (1, 2): 0}, node_vocab=2, edge_vocab=3)


class TestByteScan:
    """``parse_edge_list`` reads an ASCII text of tags and numbers of at
    most 18 digits by one byte scan; any other text is read line by line,
    and both read the language the line reader defines."""

    @staticmethod
    def refuse_line_reader(monkeypatch):
        def refuse(text):
            raise RuntimeError("the line reader ran")

        monkeypatch.setattr("k2seq.graphs._parse_lines", refuse)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(graph_strategy(), graph_strategy(labeled=True)))
    def test_scan_matches_the_word_split_parse(self, g):
        for text in _respellings(serialize_edge_list(g)):
            assert parse_edge_list(text) == reference_parse_arrays(text) == g

    def test_well_formed_texts_need_no_line_reader(self, monkeypatch):
        grid = gen_grid(4, 5)
        cases = [(text, g) for g in (grid, LABELED3)
                 for text in _respellings(serialize_edge_list(g))]
        cases.append(("0004 3\n000 01\n0 002\n00 3\n", STAR4))
        cases.append(("3 2 02 003\nn 0 1\nn 01 0\nn 2 01\ne 0 001 2\ne 1 2 0\n", LABELED3))
        dataset = write_dataset(Dataset("mixed", 7, (grid, LABELED3, STAR4)))
        self.refuse_line_reader(monkeypatch)
        for text, g in cases:
            assert parse_edge_list(text) == g, repr(text)
        assert read_dataset(dataset).graphs == (grid, LABELED3, STAR4)

    @pytest.mark.parametrize("text", [
        "3 1\n+1 2\n", "11 1\n1 1_0\n", "4 1\n0 \u0663\n", "4 1\n0\u20033\n",
        "3 1\n0 0000000000000000002\n",
        "9223372036854775808 1\n0 9223372036854775807\n",
        f"3 1\n0 {2 ** 63}\n", f"2 1 2 2\nn 0 0\nn 1 {2 ** 63}\ne 0 1 0\n",
        "3 1\n+1 1\n", "2 1 1 1\nn 0 0\nn 1 \u0663\ne 0 1 0\n",
        # The right field and line counts, with a field moved to another line.
        "3 2\n0 1 0\n2\n", "2 1 1 1\nn 0 0 n\n1 0\ne 0 1 0\n",
        # A tag run into the next field.
        "2 1 1 1\nn0 0 0\nn 1 0\ne 0 1 0\n",
    ])
    def test_other_spellings_are_read_line_by_line(self, text):
        assert _scan_edge_list(text) is None
        assert _parse_outcome(parse_edge_list, text) == \
            _parse_outcome(lambda t: array_graph(reference_parse(t)), text)
