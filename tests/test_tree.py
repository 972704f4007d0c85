import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k2seq.graphs import Graph, GraphError
from k2seq.sequence import encode_graph, flatten_tokenize, node_position, prune
from k2seq.tree import (K2Tree, adjacency_matrix, build_k2tree, edge_label_token,
                        node_label_token, rebuild_graph, rebuild_matrix, tree_stats)

from helpers import (build_from_matrix, graph_strategy, label_matrix, reference_encode,
                     reference_flatten, reference_matrix, reference_nodes, reference_path,
                     reference_prune, reference_stats)

SINGLE_EDGE = Graph(n=4, edges=frozenset({(0, 1)}))
K4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
TRIANGLE_LABELED = Graph(
    n=3, edges=frozenset({(0, 1), (0, 2), (1, 2)}),
    node_labels={0: 0, 1: 1, 2: 0},
    edge_labels={(0, 1): 1, (0, 2): 1, (1, 2): 0},
    node_vocab=2, edge_vocab=2)


def child_attrs(t: K2Tree, uid: int) -> tuple[int, ...]:
    return tuple(t.nodes[c].attr for c in t.nodes[uid].children)


class TestMatrices:
    def test_adjacency_matrix_is_symmetric_and_padded(self):
        mat = adjacency_matrix(SINGLE_EDGE, 8)
        assert mat.shape == (8, 8)
        assert mat[0, 1] == mat[1, 0] == 1
        assert mat.sum() == 2

    def test_label_matrix_token_ranges(self):
        assert node_label_token(0) == 1
        assert edge_label_token(1, node_vocab=2) == 4
        mat = label_matrix(TRIANGLE_LABELED, 4)
        expected = np.array([
            [1, 4, 4, 0],
            [4, 2, 3, 0],
            [4, 3, 1, 0],
            [0, 0, 0, 0],
        ])
        assert (mat == expected).all()

    def test_label_matrix_requires_both_label_kinds(self):
        with pytest.raises(GraphError, match="labels"):
            label_matrix(SINGLE_EDGE)


class TestBuild:
    def test_single_edge_tree_shape(self):
        t = build_k2tree(SINGLE_EDGE, 2)
        assert (t.k, t.padded_n, t.original_n, t.featured) == (2, 4, 4, False)
        assert t.nodes[t.root].attr == 1
        assert child_attrs(t, t.root) == (1, 0, 0, 0)
        top_left = t.nodes[t.root].children[0]
        assert child_attrs(t, top_left) == (0, 1, 1, 0)
        stats = tree_stats(t)
        assert (stats.node_count, stats.attr_count) == (9, 8)
        assert (stats.depth, stats.nonzero_maxdepth_leaves) == (2, 2)

    def test_complete_graph_tree_shape(self):
        t = build_k2tree(K4, 2)
        assert child_attrs(t, t.root) == (1, 1, 1, 1)
        expected = [(0, 1, 1, 0), (1, 1, 1, 1), (1, 1, 1, 1), (0, 1, 1, 0)]
        assert [child_attrs(t, c) for c in t.nodes[t.root].children] == expected
        stats = tree_stats(t)
        assert (stats.node_count, stats.attr_count) == (21, 20)
        assert stats.nonzero_maxdepth_leaves == 12

    def test_k3_path_fits_in_one_level(self):
        g = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))
        t = build_k2tree(g, 3)
        assert t.padded_n == 3 and t.levels == 1
        assert child_attrs(t, t.root) == (0, 1, 0, 1, 0, 1, 0, 1, 0)

    def test_edgeless_graph_gives_a_root_leaf(self):
        t = build_k2tree(Graph(n=5), 2)
        assert t.nodes[t.root].attr == 0
        assert t.nodes[t.root].children == ()
        stats = tree_stats(t)
        assert (stats.node_count, stats.attr_count, stats.depth) == (1, 0, 0)

    def test_featured_build_follows_labels_by_default(self):
        assert build_k2tree(TRIANGLE_LABELED, 2).featured is True
        assert build_k2tree(SINGLE_EDGE, 2).featured is False

    def test_featured_flag_must_match_labels(self):
        with pytest.raises(GraphError, match="featured=False"):
            build_k2tree(TRIANGLE_LABELED, 2, featured=False)
        with pytest.raises(GraphError, match="featured build"):
            build_k2tree(SINGLE_EDGE, 2, featured=True)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_k2tree(SINGLE_EDGE, 1)

    def test_build_from_matrix_rejects_non_power_sides(self):
        with pytest.raises(GraphError, match="power"):
            build_from_matrix(np.zeros((6, 6), dtype=np.int32), 2, 6)
        with pytest.raises(GraphError, match="power"):
            build_from_matrix(np.zeros((1, 1), dtype=np.int32), 2, 1)


class TestNavigation:
    def test_path_and_diagonal_flags(self):
        t = build_k2tree(SINGLE_EDGE, 2)
        root_children = t.nodes[t.root].children
        top_left = root_children[0]
        assert t.path(top_left) == ((1, 1),)
        assert t.is_diagonal(top_left)
        assert not t.is_diagonal(root_children[1])
        cell_10 = t.nodes[top_left].children[2]
        assert t.path(cell_10) == ((1, 1), (2, 1))
        assert not t.is_diagonal(cell_10)
        assert t.path(t.root) == ()
        assert t.is_diagonal(t.root)

    def test_levels_rejects_inconsistent_padded_size(self):
        bad = K2Tree(k=2, padded_n=6, original_n=6, rows=[], cols=[], values=[])
        with pytest.raises(GraphError, match="power"):
            bad.levels


class TestRebuild:
    def test_rebuild_matrix_inverts_build(self):
        for g in (SINGLE_EDGE, K4):
            mat = adjacency_matrix(g, 4)
            assert (rebuild_matrix(build_from_matrix(mat, 2, g.n)) == mat).all()

    def test_rebuild_graph_round_trip_plain(self):
        assert rebuild_graph(build_k2tree(K4, 2)) == K4
        assert rebuild_graph(build_k2tree(SINGLE_EDGE, 3)) == SINGLE_EDGE
        assert rebuild_graph(build_k2tree(Graph(n=5), 2)) == Graph(n=5)

    def test_rebuild_graph_round_trip_featured(self):
        t = build_k2tree(TRIANGLE_LABELED, 2)
        assert rebuild_graph(t) == TRIANGLE_LABELED

    def test_label_tokens_past_int32_build_and_rebuild(self):
        nv = 2 ** 40 + 1
        g = Graph(n=3, edges=frozenset({(0, 1)}), node_labels={0: 0, 1: nv - 1, 2: 3},
                  edge_labels={(0, 1): 0}, node_vocab=nv, edge_vocab=1)
        assert reference_encode(g, 2) == encode_graph(g, 2)
        mat = rebuild_matrix(build_k2tree(g, 2))
        assert (mat[:3, :3] == [[1, nv + 1, 0], [nv + 1, nv, 0], [0, 0, 4]]).all()

    def test_rebuild_matrix_detects_conflicting_leaves(self):
        mat = np.zeros((4, 4), dtype=np.int32)
        mat[0, 1], mat[1, 0] = 2, 3
        t = build_from_matrix(mat, 2, 4, featured=True, node_vocab=1, edge_vocab=2)
        with pytest.raises(GraphError, match="conflicting"):
            rebuild_matrix(t)
        # Both nodes labeled: the mirrored cells' labels are the one fault.
        mat[0, 0] = mat[1, 1] = 1
        t = build_from_matrix(mat, 2, 2, featured=True, node_vocab=1, edge_vocab=2)
        for rebuild in (rebuild_matrix, rebuild_graph):
            with pytest.raises(GraphError, match=r"conflicting leaf values at cell \(0, 1\)"):
                rebuild(t)

    def test_rebuild_graph_rejects_padding_leaves(self):
        mat = np.zeros((4, 4), dtype=np.int32)
        mat[3, 3] = 1
        with pytest.raises(GraphError, match="padding"):
            rebuild_graph(build_from_matrix(mat, 2, 3))

    def test_rebuild_graph_rejects_plain_self_loop_cells(self):
        mat = np.zeros((4, 4), dtype=np.int32)
        mat[1, 1] = 1
        with pytest.raises(GraphError, match="self-loop"):
            rebuild_graph(build_from_matrix(mat, 2, 4))

    def test_rebuild_graph_rejects_tokens_outside_the_cell_kind_range(self):
        mat = np.zeros((4, 4), dtype=np.int32)
        mat[0, 0], mat[1, 1] = 1, 1
        mat[0, 1] = mat[1, 0] = 1  # node token on an edge cell
        with pytest.raises(GraphError, match="edge label"):
            rebuild_graph(build_from_matrix(mat, 2, 2, featured=True,
                                            node_vocab=1, edge_vocab=1))
        mat2 = np.zeros((4, 4), dtype=np.int32)
        mat2[0, 0], mat2[1, 1] = 5, 1
        with pytest.raises(GraphError, match="node label"):
            rebuild_graph(build_from_matrix(mat2, 2, 2, featured=True,
                                            node_vocab=1, edge_vocab=1))

    def test_rebuild_graph_requires_every_node_labeled(self):
        mat = np.zeros((4, 4), dtype=np.int32)
        mat[0, 0] = 1
        with pytest.raises(GraphError, match="every node"):
            rebuild_graph(build_from_matrix(mat, 2, 2, featured=True,
                                            node_vocab=1, edge_vocab=1))


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(graph_strategy(max_n=10), st.sampled_from([2, 3]))
    def test_attribute_zero_exactly_on_all_zero_blocks(self, g, k):
        t = build_k2tree(g, k)
        mat = adjacency_matrix(g, t.padded_n)
        levels = t.levels
        for uid, node in enumerate(t.nodes):
            s = t.padded_n // k ** node.depth
            p, q = node_position(t.path(uid), k) if uid else (1, 1)
            r, c = (p - 1) * s, (q - 1) * s
            block = mat[r:r + s, c:c + s]
            assert (node.attr != 0) == bool(block.any())
            if node.depth == levels:
                assert node.attr == mat[r, c]
            else:
                assert node.attr in (0, 1)

    @settings(max_examples=50, deadline=None)
    @given(graph_strategy(max_n=10), st.sampled_from([2, 3]))
    def test_children_structure(self, g, k):
        t = build_k2tree(g, k)
        levels = t.levels
        for node in t.nodes:
            if node.children:
                assert len(node.children) == k * k
            if node.attr == 0:
                assert node.children == ()
            if node.attr == 1 and node.depth < levels:
                assert len(node.children) == k * k

    @settings(max_examples=50, deadline=None)
    @given(graph_strategy(max_n=10), st.sampled_from([2, 3]))
    def test_leaf_cells_match_matrix_nonzeros(self, g, k):
        t = build_k2tree(g, k)
        stats = tree_stats(t)
        assert stats.nonzero_maxdepth_leaves == 2 * g.m
        assert (rebuild_matrix(t) == adjacency_matrix(g, t.padded_n)).all()

    @settings(max_examples=50, deadline=None)
    @given(graph_strategy(max_n=10), st.sampled_from([2, 3]))
    def test_attribute_count_bounded_by_nonzeros_times_fanout_depth(self, g, k):
        t = build_k2tree(g, k)
        stats = tree_stats(t)
        assert stats.attr_count <= 2 * g.m * k * k * t.levels

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(max_n=10, labeled=True))
    def test_featured_round_trip_property(self, g):
        assert rebuild_graph(build_k2tree(g, 2)) == g


class TestMatchesTheNodeOracles:
    """A tree holds only its cells; its nodes, paths, diagonal flags,
    counts, matrix and tokens equal those of the dense node-list build
    (``reference_nodes``) and of its breadth-first prune and flatten."""

    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(lambda labeled: graph_strategy(max_n=10, labeled=labeled)),
           st.sampled_from([2, 3, 4]))
    def test_views_match_the_reference_node_lists(self, g, k):
        t = build_k2tree(g, k)
        mat = reference_matrix(g, k)
        full = reference_nodes(mat, k)
        pruned = reference_prune(full)
        for tree, nodes in ((t, full), (prune(t), pruned)):
            assert tree.nodes == nodes
            for uid in range(len(nodes)):
                path = reference_path(nodes, uid)
                assert tree.path(uid) == path
                assert tree.is_diagonal(uid) == all(i == j for i, j in path)
            assert tree_stats(tree) == reference_stats(nodes, tree.levels)
            assert (rebuild_matrix(tree) == mat).all()
        if g.m or g.labeled:
            assert flatten_tokenize(prune(t)).tokens == reference_flatten(pruned)
