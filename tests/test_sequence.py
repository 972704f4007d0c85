import copy
import hashlib
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k2seq.sequence as sq
from k2seq.cli import main
from k2seq.generators import gen_er, gen_grid, gen_planar
from k2seq.graphs import (Graph, GraphError, apply_ordering, order_nodes, padded_size,
                          serialize_edge_list)
from k2seq.sampling import (GenerationConfig, empirical_sizes, ngram_model, sample_sequence,
                            uniform_model)
from k2seq.sequence import (DIAGONAL, OFFDIAGONAL, EmptyGraphError,
                            IncrementalBuilder, InvalidTokenError, SequenceError,
                            Token, TokenMismatchError, TokenSequence,
                            TrailingTokensError, TruncatedSequenceError, Vocabulary,
                            child_orders, detokenize_build, diagonal_arity,
                            decode_graph, encode_graph, encode_ids,
                            flatten_tokenize, full_tree_attrs, node_position,
                            offdiagonal_arity, position_paths, prune,
                            read_token_stream, tree_levels, write_token_stream,
                            _check_header, _level_cells, _level_tokens, _lower_cells,
                            _plain_ids, _token_grid)
from k2seq.tree import TreeNode, build_k2tree, tree_stats

from helpers import (ReferenceBuilder, build_from_matrix, graph_strategy, random_er,
                     random_labeled_er, reference_build, reference_checked_decode, reference_decode,
                     reference_encode, reference_level_cells, reference_level_tokens,
                     reference_peeled_level_tokens, reference_read_token_stream,
                     reference_token_grid, reference_write)

SINGLE_EDGE = Graph(n=4, edges=frozenset({(0, 1)}))
K4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
STAR4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3)}))
TRIANGLE_LABELED = Graph(
    n=3, edges=frozenset({(0, 1), (0, 2), (1, 2)}),
    node_labels={0: 0, 1: 1, 2: 0},
    edge_labels={(0, 1): 1, (0, 2): 1, (1, 2): 0},
    node_vocab=2, edge_vocab=2)

D = DIAGONAL
O = OFFDIAGONAL


def tok(kind, *values):
    return Token(kind=kind, values=tuple(values))


class TestArityAndPositions:
    def test_arities(self):
        assert diagonal_arity(2) == 3 and offdiagonal_arity(2) == 4
        assert diagonal_arity(3) == 6 and offdiagonal_arity(3) == 9

    def test_child_orders_ascend_in_sibling_rank(self):
        assert child_orders(2, True) == ((1, 1), (2, 1), (2, 2))
        assert child_orders(2, False) == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert child_orders(3, True) == ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))

    def test_node_position_combines_digits_base_k(self):
        assert node_position(((1, 1),), 2) == (1, 1)
        assert node_position(((2, 2),), 2) == (2, 2)
        assert node_position(((2, 1), (1, 2)), 2) == (3, 2)
        assert node_position(((3, 1), (1, 2)), 3) == (7, 2)

    def test_node_position_validates_input(self):
        with pytest.raises(ValueError):
            node_position((), 2)
        with pytest.raises(ValueError):
            node_position(((3, 1),), 2)


class TestPrune:
    def test_single_edge_pruned_tokens(self):
        s = flatten_tokenize(prune(build_k2tree(SINGLE_EDGE, 2)))
        assert s.tokens == (tok(D, 1, 0, 0), tok(D, 0, 1, 0))
        assert s.total_values == 6

    def test_complete_graph_pruned_tokens(self):
        s = flatten_tokenize(prune(build_k2tree(K4, 2)))
        assert s.tokens == (tok(D, 1, 1, 1), tok(D, 0, 1, 0),
                            tok(O, 1, 1, 1, 1), tok(D, 0, 1, 0))
        assert s.total_values == 13

    def test_pruned_arities_and_positions(self):
        pt = prune(build_k2tree(K4, 2))
        for uid, node in enumerate(pt.nodes):
            p, q = node_position(pt.path(uid), 2) if uid else (1, 1)
            assert p >= q
            if node.children:
                expect = 3 if pt.is_diagonal(uid) else 4
                assert len(node.children) == expect

    def test_prune_is_single_shot(self):
        pt = prune(build_k2tree(K4, 2))
        with pytest.raises(ValueError, match="already pruned"):
            prune(pt)

    def test_flatten_requires_a_pruned_tree(self):
        with pytest.raises(ValueError, match="pruned"):
            flatten_tokenize(build_k2tree(K4, 2))

    def test_flatten_rejects_the_all_zero_tree(self):
        with pytest.raises(EmptyGraphError):
            flatten_tokenize(prune(build_k2tree(Graph(n=4), 2)))

    def test_an_upper_only_tree_prunes_to_the_all_zero_tree(self):
        # Its one cell lies above the diagonal, so pruning keeps no cell and
        # no node below the root: there is no token to write, not a d:000
        # under a nonzero node, which decode refuses.
        mat = np.zeros((4, 4), dtype=np.int32)
        mat[0, 1] = 1
        pt = prune(build_from_matrix(mat, 2, 4))
        assert [node.attr for node in pt.nodes] == [0]
        with pytest.raises(EmptyGraphError):
            flatten_tokenize(pt)

    @settings(max_examples=50, deadline=None)
    @given(graph_strategy(max_n=10), st.sampled_from([2, 3]))
    def test_pruned_nodes_never_lie_above_the_diagonal(self, g, k):
        pt = prune(build_k2tree(g, k))
        for uid in range(1, len(pt.nodes)):
            p, q = node_position(pt.path(uid), k)
            assert p >= q

    @settings(max_examples=50, deadline=None)
    @given(graph_strategy(max_n=10).filter(lambda g: g.m > 0), st.sampled_from([2, 3]))
    def test_token_values_are_fewer_than_full_tree_attributes(self, g, k):
        t = build_k2tree(g, k)
        s = flatten_tokenize(prune(t))
        assert s.total_values < tree_stats(t).attr_count
        assert len(s.tokens) == sum(1 for n in prune(t).nodes if n.children)


# Slot rules as (zero_ok, nonzero range): only 0, 0 or 1, and exactly 1.
ZERO_ONLY = (True, range(0))
BIT = (True, range(1, 2))
ONE = (False, range(1, 2))


class TestSlotRules:
    """The builder's rules for the pending block, read off its level's table."""

    def test_plain_interior_blocks_are_unconstrained(self):
        assert IncrementalBuilder(2, 4).next_rules() == (BIT,) * 3
        b = IncrementalBuilder(2, 4)
        b.step(tok(D, 1, 1, 0))
        b.step(tok(D, 0, 1, 0))
        assert (b.next_kind, b.next_path) == (O, ((2, 1),))
        assert b.next_rules() == (BIT,) * 4

    def test_single_diagonal_cell_blocks_are_forced_zero(self):
        assert IncrementalBuilder(2, 2).next_rules() == (ZERO_ONLY, BIT, ZERO_ONLY)

    def test_padding_blocks_are_forced_zero(self):
        assert IncrementalBuilder(2, 4, original_n=3).next_rules() == (BIT, BIT, ZERO_ONLY)

    def test_featured_diagonal_blocks_are_forced_nonzero(self):
        assert IncrementalBuilder(2, 4, 3, True, 2, 2).next_rules() == (ONE, BIT, ONE)

    def test_featured_cells_take_label_ranges(self):
        for nv, ev in ((2, 3), (2 ** 62, 1)):
            node, edge = (False, range(1, nv + 1)), (True, range(nv + 1, nv + ev + 1))
            b = IncrementalBuilder(2, 4, 4, True, nv, ev)
            b.step(tok(D, 1, 1, 1))
            assert b.next_path == ((1, 1),)
            assert b.next_rules() == (node, edge, node)


class TestIncrementalBuilder:
    def test_header_validation(self):
        with pytest.raises(SequenceError, match="power"):
            IncrementalBuilder(2, 6)
        with pytest.raises(SequenceError, match="power"):
            IncrementalBuilder(2, 4, original_n=5)
        with pytest.raises(SequenceError, match="power"):
            IncrementalBuilder(2, 8, original_n=4)
        with pytest.raises(SequenceError, match=">= 1"):
            IncrementalBuilder(2, 4, original_n=0)
        with pytest.raises(SequenceError, match="k must be"):
            IncrementalBuilder(1, 4)

    def test_replay_reports_queue_front_positions(self):
        b = IncrementalBuilder(2, 4)
        assert (b.complete, b.next_kind, b.next_path) == (False, D, ())
        for token, front in ((tok(D, 1, 1, 1), (False, D, ((1, 1),))),
                             (tok(D, 0, 1, 0), (False, O, ((2, 1),))),
                             (tok(O, 1, 1, 1, 1), (False, D, ((2, 2),))),
                             (tok(D, 0, 1, 0), (True, None, None))):
            b.step(token)
            assert (b.complete, b.next_kind, b.next_path) == front

    def test_children_of_one_token_queue_before_deeper_nodes(self):
        # After d:110 at the root of an 8-block, both depth-1 survivors precede
        # any depth-2 node in the queue.
        b = IncrementalBuilder(2, 8)
        b.step(tok(D, 1, 1, 0))
        assert b.next_path == ((1, 1),)
        b.step(tok(D, 0, 1, 0))
        assert b.next_path == ((2, 1),)

    def test_kind_mismatch(self):
        b = IncrementalBuilder(2, 4)
        with pytest.raises(TokenMismatchError, match="kind"):
            b.step(tok(O, 1, 0, 0, 0))

    def test_arity_mismatch(self):
        b = IncrementalBuilder(2, 4)
        with pytest.raises(TokenMismatchError, match="arity"):
            b.step(tok(D, 1, 0, 1, 0))

    def test_all_zero_group_rejected(self):
        b = IncrementalBuilder(2, 4)
        with pytest.raises(InvalidTokenError, match="all-zero"):
            b.step(tok(D, 0, 0, 0))

    def test_out_of_range_value_rejected(self):
        b = IncrementalBuilder(2, 4)
        with pytest.raises(InvalidTokenError, match="slot"):
            b.step(tok(D, 2, 0, 0))

    def test_self_loop_cell_rejected_at_max_depth(self):
        b = IncrementalBuilder(2, 2)
        assert b.next_rules() == (ZERO_ONLY, BIT, ZERO_ONLY)
        with pytest.raises(InvalidTokenError):
            b.step(tok(D, 1, 1, 0))
        b.step(tok(D, 0, 1, 0))
        assert b.complete

    def test_padding_blocks_rejected(self):
        b = IncrementalBuilder(2, 4, original_n=3)
        assert b.next_rules() == (BIT, BIT, ZERO_ONLY)
        with pytest.raises(InvalidTokenError):
            b.step(tok(D, 1, 1, 1))

    def test_trailing_token_rejected(self):
        b = IncrementalBuilder(2, 2)
        b.step(tok(D, 0, 1, 0))
        with pytest.raises(TrailingTokensError):
            b.step(tok(D, 0, 1, 0))

    def test_tree_before_completion_rejected(self):
        b = IncrementalBuilder(2, 4)
        b.step(tok(D, 1, 0, 0))
        with pytest.raises(TruncatedSequenceError):
            b.tree()

    def test_rejected_step_does_not_mutate_state(self):
        b = IncrementalBuilder(2, 4)
        with pytest.raises(InvalidTokenError):
            b.step(tok(D, 0, 0, 0))
        assert (b.steps, b.next_path) == (0, ())
        b.step(tok(D, 1, 0, 0))
        b.step(tok(D, 0, 1, 0))
        assert b.complete


class TestDetokenize:
    def test_detokenize_inverts_flatten(self):
        for g, k in ((SINGLE_EDGE, 2), (K4, 2), (STAR4, 2), (K4, 3),
                     (TRIANGLE_LABELED, 2)):
            pt = prune(build_k2tree(g, k))
            assert detokenize_build(flatten_tokenize(pt)) == pt

    def test_header_only_sequence_is_the_all_zero_tree(self):
        s = TokenSequence(k=2, padded_n=4, original_n=4)
        t = detokenize_build(s)
        assert t.nodes[t.root].attr == 0 and t.pruned
        assert detokenize_build(s) == prune(build_k2tree(Graph(n=4), 2))

    def test_position_paths(self):
        s1 = flatten_tokenize(prune(build_k2tree(SINGLE_EDGE, 2)))
        assert position_paths(s1) == [(), ((1, 1),)]
        s2 = flatten_tokenize(prune(build_k2tree(K4, 2)))
        assert position_paths(s2) == [(), ((1, 1),), ((2, 1),), ((2, 2),)]
        assert position_paths(TokenSequence(k=2, padded_n=4, original_n=4)) == []

    @pytest.mark.parametrize("text", ["1 4 4 0\n\n", "0 4 4 0\n\n", "2 4 9 0\n\n",
                                      "2 1 1 0\n\n", "1 4 4 0\nd:110\n", "2 0 0 0\n\n"])
    def test_invalid_headers_are_rejected_with_or_without_tokens(self, text):
        s = read_token_stream(text)
        with pytest.raises(SequenceError):
            decode_graph(s)
        with pytest.raises(SequenceError):
            position_paths(s)

    @pytest.mark.parametrize("vocab", ["-1 5", "0 2", "2 0"])
    @pytest.mark.parametrize("tokens", ["", "d:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,0"])
    def test_featured_label_vocab_sizes_are_checked_at_the_header(self, vocab, tokens):
        s = read_token_stream(f"2 4 3 1\n{vocab}\n{tokens}\n")
        for decode in (decode_graph, reference_decode, detokenize_build, position_paths):
            with pytest.raises(SequenceError, match="label vocab"):
                decode(s)

    def test_truncated_sequence_rejected(self):
        s = flatten_tokenize(prune(build_k2tree(K4, 2)))
        with pytest.raises(TruncatedSequenceError):
            detokenize_build(TokenSequence(
                k=2, padded_n=4, original_n=4, tokens=s.tokens[:2]))

    def test_trailing_tokens_rejected(self):
        s = flatten_tokenize(prune(build_k2tree(SINGLE_EDGE, 2)))
        with pytest.raises(TrailingTokensError):
            detokenize_build(TokenSequence(
                k=2, padded_n=4, original_n=4, tokens=s.tokens + s.tokens[-1:]))

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(max_n=10, labeled=False), st.sampled_from([2, 3]))
    def test_detokenize_round_trip_property(self, g, k):
        t = build_k2tree(g, k)
        if not t.nodes[t.root].children:
            return
        pt = prune(t)
        assert detokenize_build(flatten_tokenize(pt)) == pt


class TestVocabulary:
    def test_structural_layout_for_k2(self):
        v = Vocabulary(2)
        assert (v.BOS, v.EOS, v.PAD) == (0, 1, 2)
        assert v.core_size == 24 and v.size == 27
        assert v.encode(tok(D, 0, 0, 0)) == 3
        assert v.encode(tok(D, 0, 1, 0)) == 5
        assert v.encode(tok(D, 1, 0, 0)) == 7
        assert v.encode(tok(D, 1, 1, 0)) == 9
        assert v.encode(tok(O, 0, 0, 0, 0)) == 11
        assert v.encode(tok(O, 0, 1, 0, 1)) == 16
        assert v.encode(tok(O, 1, 1, 1, 1)) == 26

    def test_first_value_is_the_most_significant_bit(self):
        v = Vocabulary(2)
        assert v.encode(tok(D, 1, 0, 0)) - 3 == 4
        assert v.encode(tok(D, 0, 0, 1)) - 3 == 1

    def test_same_bits_different_kind_get_distinct_ids(self):
        v = Vocabulary(3)
        assert v.core_size == 2 ** 9 + 2 ** 6 == 576
        assert v.size == 579
        d_id = v.encode(tok(D, 0, 0, 0, 0, 0, 1))
        o_id = v.encode(tok(O, 0, 0, 0, 0, 0, 0, 0, 0, 1))
        assert d_id != o_id and v.decode(d_id).kind == D and v.decode(o_id).kind == O

    def test_encode_decode_bijection_over_all_structural_ids(self):
        for k in (2, 3):
            v = Vocabulary(k)
            seen = set()
            for token_id in range(3, v.size):
                token = v.decode(token_id)
                assert v.encode(token) == token_id
                seen.add(token)
            assert len(seen) == v.core_size

    def test_reserved_ids_do_not_decode(self):
        v = Vocabulary(2)
        for token_id in (0, 1, 2, 27, -1):
            with pytest.raises(SequenceError):
                v.decode(token_id)

    def test_featured_tokens_extend_the_vocabulary(self):
        corpus = [encode_graph(TRIANGLE_LABELED, 2)]
        v = Vocabulary.from_corpus(2, corpus)
        assert v.featured_tokens == (tok(D, 1, 4, 2), tok(O, 4, 3, 0, 0))
        assert v.size == 29
        assert v.encode(tok(D, 1, 4, 2)) == 27
        assert v.encode(tok(O, 4, 3, 0, 0)) == 28
        assert v.decode(28) == tok(O, 4, 3, 0, 0)

    def test_all_binary_featured_tokens_share_structural_ids(self):
        v = Vocabulary(2, (tok(D, 1, 0, 0), tok(D, 1, 4, 2)))
        assert v.featured_tokens == (tok(D, 1, 4, 2),)
        assert v.encode(tok(D, 1, 0, 0)) == 7

    def test_k_above_four_rejected_before_any_table_is_built(self):
        with pytest.raises(ValueError, match="k <= 4"):
            Vocabulary(5)

    def test_a_second_k4_vocabulary_shares_the_structural_rows(self):
        # The structural table's rows by kind, 8.5 MiB at k=4, are built once
        # per k; a vocabulary adds only its featured tokens' part.
        Vocabulary(4)
        tracemalloc.start()
        try:
            v = Vocabulary(4)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert v.size == 66563 and retained < 2 ** 20

    def test_featured_values_beyond_int64_are_a_sequence_error(self):
        big = 2 ** 70
        s = read_token_stream(f"2 2 2 1\n{big} 1\nd:1,{big + 1},2\n")
        with pytest.raises(SequenceError, match=f"{big + 1}.*beyond int64"):
            Vocabulary.from_corpus(2, [s])

    def test_unknown_featured_token_rejected(self):
        v = Vocabulary(2)
        with pytest.raises(SequenceError, match="not in the vocabulary"):
            v.encode(tok(D, 1, 4, 2))

    def test_corpus_with_mismatched_k_rejected(self):
        s = encode_graph(SINGLE_EDGE, 3)
        with pytest.raises(SequenceError, match="k="):
            Vocabulary.from_corpus(2, [s])

    def test_encode_ids_round_trip(self):
        s = encode_graph(K4, 2)
        v = Vocabulary(2)
        ids = encode_ids(s, v)
        assert ids == [10, 5, 26, 5]
        assert tuple(v.decode(i) for i in ids) == s.tokens


class TestWireFormat:
    def test_plain_stream_with_permutation(self):
        s = encode_graph(STAR4, 2, ordering="cm")
        text = write_token_stream(s)
        assert text == "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 3\n"
        assert read_token_stream(text) == s

    def test_featured_stream(self):
        s = encode_graph(TRIANGLE_LABELED, 2)
        text = write_token_stream(s)
        assert text == "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,0\n"
        assert read_token_stream(text) == s

    def test_header_only_stream(self):
        s = encode_graph(Graph(n=3), 2)
        text = write_token_stream(s)
        assert text == "2 4 3 0\n\n"
        assert read_token_stream(text) == s

    def test_malformed_streams_rejected(self):
        for text in (
            "",
            "2 4 4\nd:110\n",
            "2 4 4 2\nd:110\n",
            "2 x 4 0\nd:110\n",
            "2 4 4 0\nx:110\n",
            "2 4 4 0\nd110\n",
            "2 4 4 0\nd:\n",
            "2 4 4 0\nd:1a0\n",
            "2 4 4 0\nd:120\n",
            "2 4 4 0\nd:110\nperm 1 x\n",
            "2 4 4 0\nd:110\nwhat 1 2\n",
            "2 4 4 0\nd:110\nperm 1 0 2 3\nextra\n",
            "2 4 3 1\nd:1,1,1\n",
            "2 4 3 1\n2\nd:1,1,1\n",
            # Integers the encoder never writes: a sign, underscores, leading
            # zeros, non-ASCII digits.
            "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 +3\n",
            "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 03\n",
            "+2 0_4 4 0\nd:110 d:010 o:0101\n",
            "2 04 4 0\nd:110 d:010 o:0101\n",
            "2 \uff14 4 0\nd:110 d:010 o:0101\n",
            "2 4 3 1\n+2 2\nd:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,0\n",
            "2 4 3 1\n2 2\nd:1,+3,0_2\n",
            "2 4 3 1\n2 2\nd:1,1,01\n",
            "2 4 4 0\nd:\uff1110\n",
            # Whitespace the writer never emits: CR line ends, double spaces,
            # tabs, leading or trailing spaces, blank lines at the end, no
            # final newline, no token line.
            "2 4 4 0\r\nd:110  d:010\to:0101\r\n",
            "2 4 4 0\r\nd:110 d:010 o:0101\r\n",
            "2 4 4 0\nd:110 d:010\to:0101\n",
            " 2 4 4 0\nd:110 d:010 o:0101\n",
            "2 4 4 0 \nd:110 d:010 o:0101\n",
            "2  4 4 0\nd:110 d:010 o:0101\n",
            "2 4 4 0\n d:110 d:010 o:0101\n",
            "2 4 4 0\nd:110 d:010 o:0101 \n",
            "2 4 4 0\nd:110 d:010 o:0101\n\n",
            "2 4 4 0\nd:110 d:010 o:0101\n\n\n",
            "2 4 4 0\nd:110 d:010 o:0101\nperm  1 0 2 3 \n",
            "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 3 \n",
            "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 3\n\n",
            "2 4 4 0\nd:110 d:010 o:0101",
            "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 3",
            "2 4 4 0\n",
            "2 4 3 1\n2 2\n",
            "2 4 3 1\n2  2\n\n",
            "2 4 3 1\n2 2\nd:1,1,1\td:1,4,2 o:4,3,0,0 d:1,0,0\n",
            "\n",
        ):
            with pytest.raises(SequenceError):
                read_token_stream(text)

    @pytest.mark.parametrize("text", [
        "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 3\n",
        "2 4 3 0\n\n",
        "2 4 4 0\n\nperm 0 1 2 3\n",
        "2 4 3 1\n2 2\n\n",
        "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,0\n",
    ])
    def test_the_writers_own_bytes_read_back(self, text):
        assert write_token_stream(read_token_stream(text)) == text

    def test_negative_integers_read_and_fail_at_decode(self):
        s = read_token_stream("2 4 3 1\n-1 5\n\n")
        assert s.node_vocab == -1
        with pytest.raises(SequenceError, match="label vocab"):
            decode_graph(s)
        s = read_token_stream("2 4 4 0\nd:110 d:010 o:0101\nperm -1 0 2 3\n")
        with pytest.raises(SequenceError, match="perm"):
            decode_graph(s)

    @pytest.mark.parametrize("g", [random_er(3, 200, 0.05),
                                   random_labeled_er(3, 60, 0.2, node_vocab=2, edge_vocab=2)],
                             ids=["plain", "labeled"])
    def test_streams_share_one_token_per_distinct_word(self, g):
        s = encode_graph(g, 2)
        assert len(s.tokens) > 4 * len(set(s.tokens))
        for seq in (s, read_token_stream(write_token_stream(s))):
            assert len({id(t) for t in seq.tokens}) == len(set(seq.tokens))

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(max_n=10, labeled=True), st.sampled_from([2, 3]))
    def test_wire_round_trip_property(self, g, k):
        s = encode_graph(g, k, ordering="bfs")
        assert read_token_stream(write_token_stream(s)) == s


class TestPermLine:
    """A perm line as the writer writes it is read by one byte scan into a
    tuple of Python ints; any other spelling goes to ``_ints``, which
    accepts or names it as before the scan."""

    STREAM = "2 4 4 0\nd:110 d:010 o:0101\n"

    def test_entries_are_python_ints(self):
        s = read_token_stream(self.STREAM + "perm 1 0 2 3\n")
        want = encode_graph(STAR4, 2, ordering="cm")
        assert s.perm == (1, 0, 2, 3) and all(type(p) is int for p in s.perm)
        assert s == want and hash(s) == hash(want)

    def test_writer_output_needs_no_word_parse(self, monkeypatch):
        errors = []
        ints = sq._ints
        monkeypatch.setattr(sq, "_ints", lambda fields, error: errors.append(error)
                            or ints(fields, error))
        s = encode_graph(random_er(3, 300, 0.03), 2, ordering="cm")
        assert read_token_stream(write_token_stream(s)) == s
        assert not any("perm" in error for error in errors)

    @pytest.mark.parametrize("entries", [
        "01 0 2 3", "1 0 2 +3", "1  0 2 3", "1 0 2 3 ", " 1 0 2 3", "1 0 2 3\t", "1 0 2 3_0",
        "1 0 2 \uff13", "1 0 2 00000000000000000003", ""])
    def test_other_spellings_are_named_as_before(self, entries):
        with pytest.raises(SequenceError) as exc:
            read_token_stream(self.STREAM + "perm " + entries + "\n")
        assert str(exc.value) == "perm entry is not a canonical integer"

    @pytest.mark.parametrize("line, perm", [
        ("perm 1 0 2 12345678901234567890", (1, 0, 2, 12345678901234567890)),
        ("perm", ())])
    def test_long_or_no_entries_read_then_fail_at_decode(self, line, perm):
        s = read_token_stream(self.STREAM + line + "\n")
        assert s.perm == perm
        with pytest.raises(SequenceError) as exc:
            decode_graph(s)
        assert str(exc.value) == "perm is not a permutation of 0..3"


def assert_reads_as_the_reference(text):
    """``read_token_stream`` and the one-lookup-per-word reference give an
    equal sequence, ``perm`` included, or the same error and message."""
    got = _outcome(read_token_stream, text)
    want = _outcome(reference_read_token_stream, text)
    if isinstance(want, SequenceError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want and got.perm == want.perm and hash(got) == hash(want)


# Node counts whose ER streams (mean degree 8) have short and long token
# lines: at K=2 and K=3 well below and well past the scan threshold.
SHORT_AND_LONG_N = {2: ((8, 48), (160, 320)), 3: ((8, 64), (360, 520)),
                    4: ((8, 96), (160, 320)), 5: ((8, 96), (160, 320))}


def long_stream(k):
    """A cm-ordered stream, with its perm line, whose token line is long
    enough for the scan at ``k``."""
    n = SHORT_AND_LONG_N[k][1][0]
    text = write_token_stream(encode_graph(random_er(5, n, 8 / n), k, ordering="cm"))
    assert len(text.split("\n")[1]) >= sq._SCAN_MIN_BYTES.get(k, 0)
    return text


class TestScannedTokenLines:
    """A plain token line at K=2 or K=3 of at least ``_SCAN_MIN_BYTES[k]``
    bytes, and any line at K >= 4, is read by one byte scan; a shorter one
    at K=2 or K=3 by one dictionary lookup per word.  Any line either way
    reads as the token-by-token reference reads it, sequence or error."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """The results of every call of the scan."""
        results = []
        scan = sq._scanned_rows

        def counting(line, k):
            results.append(scan(line, k))
            return results[-1]

        monkeypatch.setattr(sq, "_scanned_rows", counting)
        return results

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5]), st.booleans(), st.integers(0, 2 ** 16),
           st.sampled_from(["identity", "cm"]), st.data())
    def test_encoded_streams_read_as_the_reference(self, k, long, seed, ordering, data):
        n = data.draw(st.integers(*SHORT_AND_LONG_N[k][long]))
        s = encode_graph(random_er(seed, n, 8 / n), k, ordering=ordering)
        text = write_token_stream(s)
        scanned = len(text.split("\n")[1]) >= sq._SCAN_MIN_BYTES.get(k, 0)
        assert scanned == (long or k >= 4)
        assert read_token_stream(text) == s
        assert_reads_as_the_reference(text)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_mutants_of_a_long_line_read_as_the_reference(self, k):
        # Every byte of the first two words, of a word of each kind in the
        # middle and of the last two words, replaced; those words dropped
        # or doubled; spaces added; the last word cut short.  The scan reads
        # every word alike, so the words between read as the middle ones.
        header, line, perm = long_stream(k).split("\n")[:3]
        words = line.split(" ")
        kinds = [word[0] for word in words]
        middle = len(words) // 2
        picked = sorted({0, 1, kinds.index(D, middle), kinds.index(O, middle),
                         len(words) - 2, len(words) - 1})
        starts = np.cumsum([0] + [len(word) + 1 for word in words])
        lines = []
        for i in picked:
            for at in range(starts[i], starts[i + 1] - (i == len(words) - 1)):
                lines += [line[:at] + c + line[at + 1:] for c in "012do: \t\u00e9"]
            lines.append(" ".join(words[:i] + words[i + 1:]))
            lines.append(" ".join(words[:i + 1] + words[i:]))
            lines.append(line[:starts[i]] + " " + line[starts[i]:])
        lines += [" " + line, line + " ", ""]
        lines += [line[:len(line) - cut] for cut in range(1, len(words[-1]) + 2)]
        for mutant in lines:
            assert_reads_as_the_reference(f"{header}\n{mutant}\n{perm}\n")

    @pytest.mark.parametrize("k", [2, 3])
    def test_lines_at_and_below_the_threshold(self, scans, k):
        # Prefixes of a long line: cut one byte below and at the threshold,
        # and at the last whole word below it and the first at or past it.
        threshold = sq._SCAN_MIN_BYTES[k]
        header, line = long_stream(k).split("\n")[:2]
        ends = np.cumsum([len(word) + 1 for word in line.split(" ")]) - 1
        below, at = ends[ends < threshold].max(), ends[ends >= threshold].min()
        for size, scanned in ((threshold - 1, False), (threshold, True), (below, False),
                              (at, True)):
            del scans[:]
            assert_reads_as_the_reference(f"{header}\n{line[:size]}\n")
            assert len(scans) == scanned
        assert scans[0] is not None

    @pytest.mark.parametrize("k", [4, 5])
    def test_every_line_past_k3_is_scanned(self, scans, k):
        # One word, two words and the whole line: each is scanned alone,
        # and no lookup table exists for it to fall back on.
        header, line = long_stream(k).split("\n")[:2]
        words = line.split(" ")
        for count in (1, 2, len(words)):
            del scans[:]
            assert_reads_as_the_reference(f"{header}\n{' '.join(words[:count])}\n")
            assert len(scans) == 1 and scans[0] is not None

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_long_line_runs_the_scan_and_a_short_one_does_not(self, scans, k):
        text = long_stream(k)
        assert read_token_stream(text) == reference_read_token_stream(text)
        assert len(scans) == 1 and scans[0] is not None
        short = write_token_stream(encode_graph(random_er(5, 40, 0.2), k, ordering="cm"))
        assert read_token_stream(short) == reference_read_token_stream(short)
        assert len(scans) == 1


class TestPackedForm:
    """Every sequence holds its tokens as ``diag``/``grid`` arrays, and a
    plain one with ``k <= 4`` derives its tokens' vocabulary ids from the
    grid; writing, reading, decoding and the counts read them.  Each must
    agree with the token-by-token references, which a sequence without ids
    still follows."""

    @staticmethod
    def assert_matches_references(s):
        assert write_token_stream(s) == reference_write(s)
        diag, grid = s.diag, s.grid
        assert write_token_stream(s) == reference_write(s)  # once its rows exist
        ref = reference_token_grid(s.tokens, s.k)
        assert _token_grid(s.tokens, s.k)[2].any() == (ref is None)
        if ref is not None:
            assert np.array_equal(diag, ref[0]) and np.array_equal(grid, ref[1])
        assert s.total_values == sum(len(t.values) for t in s.tokens)
        diagonal = sum(1 for t in s.tokens if t.kind == D)
        assert full_tree_attrs(s) == s.k * s.k * (2 * len(s.tokens) - diagonal)

    @settings(max_examples=80, deadline=None)
    @given(st.booleans().flatmap(lambda labeled: graph_strategy(max_n=12, labeled=labeled)),
           st.integers(2, 5), st.sampled_from(["identity", "cm"]))
    def test_encoded_and_read_streams_match_the_references(self, g, k, ordering):
        s = encode_graph(g, k, ordering=ordering)
        packed = not g.labeled and k <= 4
        assert (_plain_ids(s) is not None) == packed
        text = reference_write(s)
        r = read_token_stream(text)
        assert r == s and (_plain_ids(r) is not None) == packed
        assert_reads_as_the_reference(text)
        for seq in (s, r):
            self.assert_matches_references(seq)
        if k <= 4:  # vocabularies stop at k=4
            vocab = Vocabulary(k) if not g.labeled else Vocabulary.from_corpus(k, [s])
            assert encode_ids(r, vocab) == [vocab.encode(t) for t in r.tokens]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.booleans().flatmap(lambda labeled: mutated_streams(labeled=labeled,
                                                                 ks=(2, 3, 4, 5))))
    def test_mutants_match_the_references(self, s):
        self.assert_matches_references(s)

    @pytest.mark.parametrize("text", [
        "2 4 4 0\nd:110 d:010 o:0000\n",
        "2 4 4 0\nd:000 o:1111 d:111 o:0001\n",
        "3 9 9 0\nd:000000 o:000000000 o:111111111 d:111111 d:000001\n",
        "4 16 16 0\nd:0000000000 o:0000000000000000 o:1111111111111111 d:1111111111\n",
    ])
    def test_edges_of_the_id_range_match_the_references(self, text):
        # The first and last id of each kind, valid or not.
        s = read_token_stream(text)
        assert _plain_ids(s) is not None
        self.assert_matches_references(s)

    def test_replaced_tokens_decode_from_their_own_tokens(self):
        s, other = encode_graph(STAR4, 2), encode_graph(K4, 2)
        assert _plain_ids(s) is not None
        swapped = replace(s, tokens=other.tokens)
        assert swapped == other
        assert decode_graph(swapped) == K4
        assert write_token_stream(swapped) == write_token_stream(other)
        assert swapped.total_values == other.total_values
        with pytest.raises(TruncatedSequenceError):
            decode_graph(replace(s, tokens=s.tokens[:-1]))

    @pytest.mark.parametrize("k, packed", [(4, True), (5, False)])
    def test_round_trip_past_k3(self, k, packed):
        g = random_er(11, 30, 0.2)
        s = encode_graph(g, k, ordering="cm")
        assert s == reference_encode(g, k, "cm")
        assert (_plain_ids(s) is not None) == packed
        text = write_token_stream(s)
        assert text == reference_write(s)
        r = read_token_stream(text)
        assert r == s and (_plain_ids(r) is not None) == packed
        assert decode_graph(r) == g

    def test_malformed_rows_are_the_rows_of_minus_ones(self):
        # A malformed token, a row with -1 in slot 0 only, and plain rows.
        s = TokenSequence(k=2, padded_n=4, original_n=4, featured=True, node_vocab=2,
                          edge_vocab=2, tokens=(tok(D, 1, 1, 1), tok(O, -1, 0, 0, 1),
                                                tok(D, 1, 2), tok(O, 0, 3, 0, 0)))
        assert s._malformed() == [2]
        assert s._malformed() == np.flatnonzero((s.grid == -1).all(axis=1)).tolist()
        assert s.total_values == 3 + 4 + 2 + 4

    def test_samples_carry_the_ids_they_drew(self):
        vocab = Vocabulary(2)
        s = sample_sequence(uniform_model(vocab), GenerationConfig(k=2, padded_n=8, seed=3))
        assert _plain_ids(s).tolist() == [vocab.encode(t) for t in s.tokens]


class TestHotPathsBuildNoToken:
    """Encode, the wire format, decode and the CLI work on a sequence's
    arrays alone and never build its ``tokens`` view; a rejection makes only
    the token it names.  None of them, nor the sampler, makes a
    :class:`~k2seq.tree.TreeNode`."""

    @pytest.fixture
    def made(self, monkeypatch):
        tokens = []
        post_init = Token.__post_init__

        def counting(token):
            tokens.append(token)
            post_init(token)

        monkeypatch.setattr(Token, "__post_init__", counting)
        return tokens

    @pytest.fixture
    def tree_nodes(self, monkeypatch):
        nodes = []
        init = TreeNode.__init__

        def counting(node, *args, **kwargs):
            nodes.append(node)
            init(node, *args, **kwargs)

        monkeypatch.setattr(TreeNode, "__init__", counting)
        return nodes

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_codec_and_sampler_make_no_tree_node(self, tree_nodes, k):
        labeled = random_labeled_er(6, 40, 0.2, node_vocab=3, edge_vocab=2)
        for g in (random_er(5, 60, 0.1), labeled, Graph(n=5)):
            text = write_token_stream(encode_graph(g, k, ordering="cm"))
            assert decode_graph(read_token_stream(text)) == g
        if k <= 4:
            sizes = {"padded_n": padded_size(5, k), "original_n": 5}
            sample_sequence(uniform_model(Vocabulary(k)), GenerationConfig(k=k, seed=3, **sizes))
            corpus = [encode_graph(labeled, k)]
            sample_sequence(uniform_model(Vocabulary.from_corpus(k, corpus)), GenerationConfig(
                k=k, seed=1, featured=True, node_vocab=3, edge_vocab=2, **sizes))
        assert tree_nodes == []
        assert build_k2tree(labeled, k).nodes and tree_nodes  # the count sees the view

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_plain_stream_round_trip(self, made, k):
        for g in (random_er(5, 60, 0.1), Graph(n=5)):
            text = write_token_stream(encode_graph(g, k, ordering="cm"))
            assert decode_graph(read_token_stream(text)) == g
        assert made == []

    @pytest.mark.parametrize("k", [4, 5])
    def test_plain_stream_io_past_k3_builds_no_structural_table(self, monkeypatch, k):
        # The K=4 table holds 66,563 rows; writing, reading and decoding a
        # plain stream need none of them, at any length.
        def refuse(k):
            raise AssertionError(f"the structural table of k={k} was built")

        monkeypatch.setattr(sq, "_structural", refuse)
        for g in (random_er(5, 600, 8 / 600), random_er(5, 12, 0.3), Graph(n=5)):
            text = write_token_stream(encode_graph(g, k, ordering="cm"))
            assert decode_graph(read_token_stream(text)) == g

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_plain_sampling(self, made, k):
        corpus = [encode_graph(random_er(seed, 12, 0.3), k, ordering="cm") for seed in range(4)]
        sizes = empirical_sizes(corpus)
        for model in (uniform_model(Vocabulary(k)), ngram_model(corpus, 3)):
            for seed in range(3):
                sample_sequence(model, GenerationConfig(k=k, seed=seed, sizes=sizes))
        assert made == []

    @pytest.mark.parametrize("g, k", [
        (random_labeled_er(6, 40, 0.2, node_vocab=3, edge_vocab=2), 2),
        (random_labeled_er(6, 40, 0.2, node_vocab=3, edge_vocab=2), 3),
        (random_er(7, 40, 0.2), 5)], ids=["featured-k2", "featured-k3", "plain-k5"])
    def test_encode_and_decode(self, made, g, k):
        assert decode_graph(encode_graph(g, k, ordering="cm")) == g
        assert made == []
        assert encode_graph(g, k).tokens and made  # the count sees the view

    def test_a_rejection_makes_only_the_token_it_names(self, made):
        header, line = write_token_stream(encode_graph(random_er(5, 60, 0.1), 2)).split("\n")[:2]
        words = line.split(" ")
        words[-1] = words[-1][:2] + "0" * (len(words[-1]) - 2)
        with pytest.raises(InvalidTokenError, match=f"token {len(words)} "):
            decode_graph(read_token_stream(f"{header}\n{' '.join(words)}\n"))
        assert len(made) == 1

    def test_cli_encode_decode_and_stats(self, made, tree_nodes, tmp_path, capsys):
        src, stream = tmp_path / "g.txt", tmp_path / "g.k2s"
        src.write_text(serialize_edge_list(random_er(8, 80, 0.05)))
        for k in ("2", "3"):
            assert main(["encode", "--k", k, "--order", "cm", "--in", str(src),
                         "--out", str(stream)]) == 0
            assert main(["decode", "--in", str(stream), "--out", str(tmp_path / "b.txt")]) == 0
            assert main(["stats", "--k", k, "--order", "cm", "--in", str(src)]) == 0
        assert made == [] and tree_nodes == []


class TestDecodeMakesNoRuleTable:
    """``decode_graph`` checks an accepted stream's slot rules without a
    level's rule table; a rejection makes the row of the refused block
    alone, to name the refused value."""

    @pytest.mark.parametrize("g, k", [
        (random_er(5, 60, 0.1), 2), (random_er(5, 60, 0.1), 3), (random_er(7, 40, 0.2), 5),
        (random_labeled_er(6, 40, 0.2, node_vocab=3, edge_vocab=2), 2),
        (random_labeled_er(6, 40, 0.2, node_vocab=3, edge_vocab=2), 3),
        (random_labeled_er(6, 20, 0.3, node_vocab=3, edge_vocab=2), 5)],
        ids=["plain-k2", "plain-k3", "plain-k5", "featured-k2", "featured-k3", "featured-k5"])
    def test_accepted_streams(self, monkeypatch, g, k):
        def refuse(*args):
            raise RuntimeError("a rule table was made")

        monkeypatch.setattr("k2seq.sequence._level_rules", refuse)
        s = encode_graph(g, k, ordering="cm")
        assert decode_graph(s) == g
        assert decode_graph(read_token_stream(write_token_stream(s))) == g

    @pytest.mark.parametrize("text", [
        "2 8 8 0\nd:111 d:110 o:1000 d:100 d:011 d:010 o:0001 d:010\n",
        "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,1\n",
    ])
    def test_a_rejection_makes_one_row(self, monkeypatch, text):
        shapes, level_rules = [], sq._level_rules

        def recording(origins, *args):
            shapes.append(origins.shape)
            return level_rules(origins, *args)

        monkeypatch.setattr(sq, "_level_rules", recording)
        with pytest.raises(InvalidTokenError):
            decode_graph(read_token_stream(text))
        assert shapes == [(2, 1)]


class TestGraphPipeline:
    def test_identity_round_trip(self):
        for g, k in ((SINGLE_EDGE, 2), (K4, 2), (K4, 3), (TRIANGLE_LABELED, 2)):
            assert decode_graph(encode_graph(g, k)) == g

    def test_ordering_round_trip_restores_original_ids(self):
        for scheme in ("bfs", "dfs", "cm"):
            for reverse in (False, True):
                s = encode_graph(STAR4, 2, ordering=scheme, reverse=reverse)
                assert decode_graph(s) == STAR4

    def test_empty_graph_round_trip_keeps_the_permutation(self):
        s = encode_graph(Graph(n=3), 2, ordering="cm")
        assert s.tokens == () and s.perm == (0, 1, 2)
        assert decode_graph(s) == Graph(n=3)

    @pytest.mark.parametrize("perm", ["1 1 2 3", "-1 0 2 3", "1 0 2", "1 0 2 3 4"])
    def test_perm_that_is_not_a_bijection_is_rejected(self, perm):
        s = read_token_stream(f"2 4 4 0\nd:110 d:010 o:0101\nperm {perm}\n")
        with pytest.raises(SequenceError, match="perm"):
            decode_graph(s)

    @pytest.mark.parametrize("g", [
        Graph(n=2 ** 32 + 1, edges=frozenset({(0, 2 ** 32)})),
        Graph(n=2 ** 32),
        Graph(n=2, edges=frozenset({(0, 1)}), node_labels={0: 0, 1: 0},
              edge_labels={(0, 1): 0}, node_vocab=2 ** 70, edge_vocab=1),
    ], ids=["cell-paths", "edgeless", "label-values"])
    def test_graphs_beyond_int64_raise_a_sequence_error(self, g):
        with pytest.raises(SequenceError, match="beyond int64"):
            encode_graph(g, 2)

    def test_sequence_header_reflects_the_graph(self):
        s = encode_graph(TRIANGLE_LABELED, 2)
        assert (s.k, s.padded_n, s.original_n) == (2, 4, 3)
        assert (s.featured, s.node_vocab, s.edge_vocab) == (True, 2, 2)

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(max_n=12, labeled=False), st.sampled_from([2, 3]),
           st.sampled_from(["identity", "bfs", "dfs", "cm"]))
    def test_plain_round_trip_property(self, g, k, ordering):
        assert decode_graph(encode_graph(g, k, ordering=ordering)) == g

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(max_n=12, labeled=True), st.sampled_from([2, 3]),
           st.sampled_from(["identity", "bfs", "dfs", "cm"]))
    def test_labeled_round_trip_property(self, g, k, ordering):
        assert decode_graph(encode_graph(g, k, ordering=ordering)) == g


def encode_under(g, k, perm):
    """``g`` encoded under the permutation ``perm`` (new index -> original
    id), stored as an ordering's permutation is."""
    return replace(encode_graph(apply_ordering(g, perm), k), perm=tuple(perm))


@st.composite
def perm_streams(draw):
    """The stream, as read back from its text, of a small graph encoded
    under a drawn ordering or a random permutation."""
    g = draw(graph_strategy(max_n=12, labeled=draw(st.booleans())))
    k = draw(st.sampled_from([2, 3]))
    scheme = draw(st.sampled_from(["bfs", "dfs", "cm", "perm"]))
    if scheme == "perm":
        s = encode_under(g, k, draw(st.permutations(range(g.n))))
    else:
        s = encode_graph(g, k, ordering=scheme, reverse=draw(st.booleans()))
    return read_token_stream(write_token_stream(s))


class TestPermInEncoderImage:
    """Every stream with a ``perm`` line that the decoder accepts is the
    encoding of its decoded graph under that permutation."""

    @settings(max_examples=120, deadline=None)
    @given(perm_streams())
    def test_decoded_stream_re_encodes_under_its_perm(self, s):
        again = encode_under(decode_graph(s), s.k, s.perm)
        assert write_token_stream(again) == write_token_stream(s)

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(max_n=12, labeled=False), st.sampled_from([2, 3]), st.data())
    def test_a_random_perm_is_undone(self, g, k, data):
        s = encode_under(g, k, data.draw(st.permutations(range(g.n))))
        assert decode_graph(read_token_stream(write_token_stream(s))) == g

    def test_each_ordering_matches_its_permutation(self):
        for scheme in ("bfs", "dfs", "cm"):
            for reverse in (False, True):
                perm = order_nodes(STAR4, scheme, reverse=reverse)
                assert (encode_under(STAR4, 2, perm)
                        == encode_graph(STAR4, 2, ordering=scheme, reverse=reverse))


class TestLevelEncoder:
    """``encode_graph`` encodes level by level; ``reference_encode`` goes through
    the full tree.  Their streams must agree byte for byte."""

    @staticmethod
    def assert_matches_reference(g, k, ordering):
        s, ref = encode_graph(g, k, ordering=ordering), reference_encode(g, k, ordering)
        assert write_token_stream(s) == write_token_stream(ref)
        assert s == ref

    @settings(max_examples=80, deadline=None)
    @given(graph_strategy(max_n=12), st.sampled_from([2, 3]),
           st.sampled_from(["identity", "cm"]))
    def test_plain_streams_match_the_reference(self, g, k, ordering):
        self.assert_matches_reference(g, k, ordering)

    @settings(max_examples=80, deadline=None)
    @given(graph_strategy(max_n=12, labeled=True), st.sampled_from([2, 3]),
           st.sampled_from(["identity", "cm"]))
    def test_labeled_streams_match_the_reference(self, g, k, ordering):
        self.assert_matches_reference(g, k, ordering)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("ordering", ["identity", "cm"])
    @pytest.mark.parametrize("g", [
        Graph(n=1),
        Graph(n=1, node_labels={0: 2}, edge_labels={}, node_vocab=3, edge_vocab=1),
        Graph(n=7),
        K4,
        Graph(n=9, edges=frozenset((u, v) for u in range(9) for v in range(u + 1, 9))),
        Graph(n=8, edges=frozenset({(0, 7), (3, 4), (5, 6)})),
        random_labeled_er(5, 27, 0.3, node_vocab=3, edge_vocab=2),
    ], ids=["n1", "n1-labeled", "edgeless", "k4", "k9", "n8", "labeled-n27"])
    def test_edge_cases_match_the_reference(self, g, k, ordering):
        self.assert_matches_reference(g, k, ordering)

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(max_n=12), st.sampled_from([2, 3]))
    def test_full_tree_attrs_match_tree_stats(self, g, k):
        s = encode_graph(g, k)
        full = tree_stats(build_k2tree(g, k))
        assert full_tree_attrs(s) == full.attr_count
        if g.m:
            assert tree_levels(s.padded_n, k) == full.depth

    def test_tree_levels(self):
        assert [tree_levels(n, 2) for n in (2, 4, 8, 1024)] == [1, 2, 3, 10]
        assert [tree_levels(n, 3) for n in (3, 9, 27)] == [1, 2, 3]

    @staticmethod
    def assert_levels_match_reference(g, k):
        """The bottom-up level pass against both earlier level encoders,
        the dividing one and the one that peels every cell's digits, on the
        same cells: equal flags and grids, of equal dtypes."""
        cells = _lower_cells(g)
        if not len(cells[0]):
            return
        levels = tree_levels(padded_size(g.n, k), k)
        diag, grid = _level_tokens(*cells, k, levels)
        for oracle in (reference_level_tokens, reference_peeled_level_tokens):
            ref_diag, ref_grid = oracle(*cells, k, levels)
            assert diag.dtype == ref_diag.dtype and grid.dtype == ref_grid.dtype
            assert np.array_equal(diag, ref_diag) and np.array_equal(grid, ref_grid)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(graph_strategy(max_n=12), graph_strategy(max_n=12, labeled=True)),
           st.integers(2, 5))
    def test_levels_match_the_dividing_encoder(self, g, k):
        self.assert_levels_match_reference(g, k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("g", [
        Graph(n=1, node_labels={0: 1}, edge_labels={}, node_vocab=2, edge_vocab=1),
        Graph(n=2, edges={(0, 1)}),
        Graph(n=2000, edges={(u, u + 1) for u in range(1999)}),
        Graph(n=2000, edges={(0, u) for u in range(1, 2000)}),
    ], ids=["n1-featured", "n2", "path-2000", "star-2000"])
    def test_edge_case_levels_match_the_earlier_encoders(self, g, k):
        self.assert_levels_match_reference(g, k)
        self.assert_levels_match_reference(apply_ordering(g, order_nodes(g, "cm")), k)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("g", [gen_er(1024, 8 / 1023, seed=3), gen_grid(32, 32),
                                   gen_planar(1024, seed=3)], ids=["er", "grid", "planar"])
    def test_cli_sized_levels_match_the_dividing_encoder(self, g, k):
        self.assert_levels_match_reference(g, k)
        self.assert_levels_match_reference(apply_ordering(g, order_nodes(g, "cm")), k)


def _outcome(decode, s):
    try:
        return decode(s)
    except (SequenceError, GraphError) as exc:
        return exc


@st.composite
def mutated_streams(draw, labeled, ks=(2, 3)):
    """A valid stream of a random graph, at a ``k`` drawn from ``ks``, with
    one random mutation: a value changed, a token deleted, duplicated,
    inserted or given the other kind, the tokens truncated, the ``perm``
    corrupted or replaced, or one header size moved: ``padded_n`` times or
    over ``k``, ``original_n`` or a label vocab size by one."""
    g = draw(graph_strategy(max_n=12, labeled=labeled))
    k = draw(st.sampled_from(ks))
    s = encode_graph(g, k, ordering=draw(st.sampled_from(["identity", "cm"])))
    tokens = list(s.tokens)
    top = s.node_vocab + s.edge_vocab + 1 if s.featured else 1
    value = st.integers(-1, top + 1) if s.featured else st.integers(0, 1)
    op = draw(st.sampled_from(["value", "delete", "duplicate", "insert", "kind",
                               "truncate", "perm", "header"]))
    at = draw(st.integers(0, len(tokens) - 1)) if tokens else None
    if op == "value" and tokens:
        old = tokens[at].values
        slot = draw(st.integers(0, len(old) - 1))
        new = draw(value) if s.featured else 1 - old[slot]
        tokens[at] = Token(tokens[at].kind, old[:slot] + (new,) + old[slot + 1:])
    elif op == "delete" and tokens:
        del tokens[at]
    elif op == "duplicate" and tokens:
        tokens.insert(at, tokens[at])
    elif op == "insert":
        kind = draw(st.sampled_from([D, O]))
        arity = draw(st.sampled_from([diagonal_arity(k), k * k, k * k + 1]))
        values = tuple(draw(st.lists(value, min_size=arity, max_size=arity)))
        tokens.insert(draw(st.integers(0, len(tokens))), Token(kind, values))
    elif op == "kind" and tokens:
        tokens[at] = Token(O if tokens[at].kind == D else D, tokens[at].values)
    elif op == "truncate" and tokens:
        tokens = tokens[:at]
    elif op == "perm":
        n = s.original_n
        perm = list(draw(st.permutations(range(n))))
        change = draw(st.sampled_from(["keep", "duplicate", "drop", "extend", "negative"]))
        if change == "duplicate" and n > 1:
            perm[0] = perm[-1]
        elif change == "drop":
            perm.pop()
        elif change == "extend":
            perm.append(n)
        elif change == "negative":
            perm[-1] = -1
        return replace(s, perm=tuple(perm))
    elif op == "header":
        sizes = ["padded_n", "original_n"] + (["node_vocab", "edge_vocab"] if s.featured else [])
        field = draw(st.sampled_from(sizes))
        old = getattr(s, field)
        moves = [old * k, old // k] if field == "padded_n" else [old - 1, old + 1]
        return replace(s, **{field: draw(st.sampled_from(moves))})
    return replace(s, tokens=tuple(tokens))


# Hand-made streams: valid ones, and one of each rejection (kind, arity,
# value, all-zero group, truncation, trailing tokens, a value past int64).
HAND_STREAMS = [
    "2 4 4 0\nd:110 d:010 o:0101\n",
    "2 4 4 0\nd:110 o:0101 d:010\n",
    "2 4 4 0\nd:110 d:010 o:01010\n",
    "2 4 4 0\nd:110 d:010 o:0000\n",
    "2 4 4 0\nd:110 d:110 o:0101\n",
    "2 4 4 0\nd:110 d:010\n",
    "2 8 8 0\nd:110 d:110\n",
    "2 4 4 0\nd:110 d:010 o:0101 d:010\n",
    "2 4 3 0\nd:111 d:010 o:0101\n",
    "2 4 3 1\n2 2\n\n",
    "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,0\n",
    "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,1\n",
    "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2 o:4,5,0,0 d:1,0,0\n",
    "2 4 3 1\n2 2\nd:1,1,1 d:0,4,2 o:4,3,0,0 d:1,0,0\n",
    f"2 2 2 1\n1 1\nd:1,{2 ** 70},1\n",
    # Out of the encoder's image: a padded size past the smallest power,
    # a label vocab sum and cell paths past int64.
    "2 16 5 0\nd:100 d:100 d:110 d:010 o:0101\n",
    f"2 2 2 1\n{2 ** 70} 1\nd:1,0,2\n",
    f"2 {2 ** 40} {2 ** 40} 0\n" + "d:100 " * 39 + "d:010\n",
    # A token whose arity is not its kind's: first, after a refused value,
    # and after the tree is complete.
    "2 4 4 0\no:110\n",
    "2 4 4 0\nd:110 d:110 o:01010 d:1\n",
    "2 4 4 0\nd:100 d:010 d:1 d:1\n",
    ]


class TestArrayDecoder:
    """``decode_graph`` walks level arrays and checks the slot rules once;
    ``reference_decode`` replays every token through the frozen reference
    builder of ``tests/helpers.py`` (one pending node at a time, with its
    own per-group slot rules) and rebuilds from the tree.  On any stream
    they return the same graph or raise the same error with the same
    message, so the walk accepts exactly what the reference accepts and
    names each rejection as the reference does."""

    @staticmethod
    def assert_agrees_with_reference(s):
        got, ref = _outcome(decode_graph, s), _outcome(reference_decode, s)
        if isinstance(ref, Exception):
            assert (type(got), str(got)) == (type(ref), str(ref))
            return
        assert got == ref == reference_checked_decode(s)
        # Accepted streams are canonical: the graph re-encodes to them.
        h = got if s.perm is None else apply_ordering(got, s.perm)
        again = replace(encode_graph(h, s.k), perm=s.perm)
        assert write_token_stream(again) == write_token_stream(s)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_streams(labeled=False))
    def test_plain_mutants_agree_with_the_reference(self, s):
        self.assert_agrees_with_reference(s)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_streams(labeled=True))
    def test_labeled_mutants_agree_with_the_reference(self, s):
        self.assert_agrees_with_reference(s)

    @pytest.mark.parametrize("text", HAND_STREAMS)
    def test_hand_made_streams_agree_with_the_reference(self, text):
        self.assert_agrees_with_reference(read_token_stream(text))

    def test_rejections_are_named_without_the_builder(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("the builder ran")

        monkeypatch.setattr(IncrementalBuilder, "step", refuse)
        monkeypatch.setattr("k2seq.sequence.detokenize_build", refuse)
        messages = []
        for text in HAND_STREAMS:
            s = read_token_stream(text)
            got, ref = _outcome(decode_graph, s), _outcome(reference_decode, s)
            if isinstance(ref, Exception):
                assert (type(got), str(got)) == (type(ref), str(ref))
                messages.append(str(got))
            else:
                assert got == ref
        for case in ("kind", "arity", "value 0 not", "value 1 not", "all-zero", "still pending",
                     "already complete", f"value {2 ** 70} not"):
            assert any(case in message for message in messages), case

    def test_huge_label_vocab_rejections_come_from_the_builder(self):
        s = read_token_stream(f"2 2 2 1\n{2 ** 62} 1\nd:0,0,2\n")
        with pytest.raises(InvalidTokenError) as ref:
            detokenize_build(s)
        with pytest.raises(InvalidTokenError) as got:
            decode_graph(s)
        assert str(got.value) == str(ref.value) == "token 1 (level 1): value 0 not allowed at slot 0"

    def test_errors_name_the_token_and_its_level(self):
        s = read_token_stream("2 8 8 0\nd:100 d:100 d:110\n")
        with pytest.raises(InvalidTokenError, match=r"token 3 \(level 3\): value 1 not allowed"):
            decode_graph(s)


def _walk_outcome(walk, s):
    """``walk(s)`` on a stream whose header decodes, as ``decode_graph``
    calls it, or the error it raises."""
    try:
        _check_header(s.k, s.padded_n, s.original_n, s.featured, s.node_vocab, s.edge_vocab)
        return walk(s) if len(s.diag) else None
    except SequenceError as exc:
        return exc


class TestLevelWalkMatchesReference:
    """``_level_cells`` finds every level's tokens from the stream's nonzero
    slots and checks the rules once, over all children; the reference walk
    checks each level's run against the level's whole rule table.  Both give
    the same cell arrays, or the same error class and message."""

    @staticmethod
    def assert_agrees(s):
        got, ref = _walk_outcome(_level_cells, s), _walk_outcome(reference_level_cells, s)
        if ref is None or isinstance(ref, Exception):
            assert (type(got), str(got)) == (type(ref), str(ref))
            return
        assert len(got) == len(ref) == 3
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        graph, checked = _outcome(decode_graph, s), _outcome(reference_checked_decode, s)
        if isinstance(checked, Exception):
            assert (type(graph), str(graph)) == (type(checked), str(checked))
        else:
            assert graph == checked

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_streams(labeled=False, ks=(2, 3, 4)))
    def test_plain_mutants(self, s):
        self.assert_agrees(s)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_streams(labeled=True, ks=(2, 3, 4)))
    def test_labeled_mutants(self, s):
        self.assert_agrees(s)

    @pytest.mark.parametrize("text", HAND_STREAMS + [
        # Cut in the middle of the second and of the last level.
        "2 8 8 0\nd:111 d:110 o:1000\n",
        "2 8 8 0\nd:111 d:110 o:1000 d:100 d:011\n",
        "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2\n",
        # Trailing tokens after a complete tree.
        "2 4 4 0\nd:110 d:010 o:0101 o:0001 d:000\n",
        "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,0 d:1,1,1\n",
        # An all-zero row, first in its level and last.
        "2 8 8 0\nd:111 d:000 o:1000 d:100\n",
        "3 9 9 0\nd:100000 d:000000\n",
        "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2 o:0,0,0,0 d:1,0,0\n",
        # A malformed row, in a level and after the tree is complete.
        "2 8 8 0\nd:111 d:110 o:10001 d:100\n",
        "3 9 9 0\nd:110000 d:1 o:000000001\n",
        "2 4 3 1\n2 2\nd:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,0 o:1\n",
    ])
    def test_hand_made_streams(self, text):
        self.assert_agrees(read_token_stream(text))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_cut_of_a_stream(self, k):
        for g in (random_er(3, 30, 0.2), random_labeled_er(4, 20, 0.3, 3, 2)):
            s = encode_graph(g, k, ordering="cm")
            for end in range(len(s.tokens) + 1):
                self.assert_agrees(replace(s, tokens=s.tokens[:end]))


class TestDecodeTrustsTheWalk:
    """``decode_graph`` builds its graph from the walk's cells with one sort
    and no second check: the walk itself refuses a plain tree's diagonal
    and out-of-range leaves, so ``Graph._store`` never runs."""

    @staticmethod
    def refuse_store(monkeypatch):
        def refuse(*args):
            raise RuntimeError("Graph._store ran")

        monkeypatch.setattr(Graph, "_store", refuse)

    @pytest.mark.parametrize("text, message", [
        ("2 4 4 0\nd:100 d:100\n", "token 2 (level 2): value 1 not allowed at slot 0"),
        ("2 4 3 0\nd:010 o:0001\n", "token 2 (level 2): value 1 not allowed at slot 3"),
    ], ids=["diagonal", "out-of-range"])
    def test_plain_leaves_the_walk_refuses(self, monkeypatch, text, message):
        s = read_token_stream(text)
        self.refuse_store(monkeypatch)
        with pytest.raises(SequenceError) as exc:
            decode_graph(s)
        assert str(exc.value) == message

    def test_accepted_streams_decode_without_a_check(self, monkeypatch):
        graphs = [(random_er(3, 40, 0.2), "cm"), (TRIANGLE_LABELED, "identity"),
                  (random_labeled_er(5, 30, 0.3, 3, 2), "bfs")]
        streams = [(g, encode_graph(g, 2, ordering=ordering)) for g, ordering in graphs]
        self.refuse_store(monkeypatch)
        for g, s in streams:
            assert decode_graph(s) == g


class TestBuilderMatchesReference:
    """The level-table builder gives the frozen reference builder's tree and
    paths, or its error class and message, on any stream."""

    @staticmethod
    def stepped(s):
        """The tree and the paths of an :class:`IncrementalBuilder` stepped
        through every token of ``s``."""
        b = IncrementalBuilder(s.k, s.padded_n, s.original_n, s.featured, s.node_vocab,
                               s.edge_vocab)
        paths = []
        for token in s.tokens:
            paths.append(b.next_path)
            b.step(token)
        return b.tree(), paths

    @classmethod
    def assert_agrees(cls, s):
        ref = _outcome(reference_build, s)
        # A header-only stream is the all-zero tree, which no builder step makes.
        replays = [lambda s: (detokenize_build(s), position_paths(s))]
        if s.tokens:
            replays.append(cls.stepped)
        for replay in replays:
            got = _outcome(replay, s)
            if isinstance(ref, Exception):
                assert (type(got), str(got)) == (type(ref), str(ref))
            else:
                assert got == ref

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.booleans().flatmap(lambda labeled: mutated_streams(labeled=labeled)))
    def test_mutants_agree_with_the_reference(self, s):
        self.assert_agrees(s)

    @pytest.mark.parametrize("text", HAND_STREAMS)
    def test_hand_made_streams_agree_with_the_reference(self, text):
        self.assert_agrees(read_token_stream(text))

    @staticmethod
    def token_mutants(token):
        """``token`` with one slot set to another of 0, 1, 2, -1 and 2**63,
        with the other kind, and with one slot more and one fewer."""
        values = token.values
        for slot, value in enumerate(values):
            for new in (0, 1, 2, -1, 2 ** 63):
                if new != value:
                    yield Token(token.kind, values[:slot] + (new,) + values[slot + 1:])
        yield Token(O if token.kind == D else D, values)
        yield Token(token.kind, values + (1,))
        yield Token(token.kind, values[:-1])

    def test_single_slot_mutants_agree_with_the_reference(self):
        # Each mutant is stepped in place of its token: both builders refuse
        # it alike and stay as they were, or both take it and are restored.
        outcomes = set()
        for g in (random_er(11, 20, 0.3), gen_grid(4, 5), random_labeled_er(12, 11, 0.4, 3, 2)):
            for k in (2, 3, 4):
                s = encode_graph(g, k, ordering="cm")
                args = (s.k, s.padded_n, s.original_n, s.featured, s.node_vocab, s.edge_vocab)
                b, ref = IncrementalBuilder(*args), ReferenceBuilder(*args)
                for token in s.tokens:
                    saved = copy.deepcopy((b, ref))
                    for mutant in self.token_mutants(token):
                        got, want = _outcome(b.step, mutant), _outcome(ref.step, mutant)
                        assert (type(got), str(got)) == (type(want), str(want))
                        outcomes.add(type(want))
                        if want is None:
                            b, ref = copy.deepcopy(saved)
                    b.step(token)
                    ref.step(token)
                assert b.tree() == ref.tree()
        assert outcomes == {type(None), TokenMismatchError, InvalidTokenError}

    def test_next_rules_match_the_reference_at_every_step(self):
        for g, k in ((random_er(4, 23, 0.3), 2), (random_er(5, 20, 0.4), 3),
                     (random_labeled_er(6, 11, 0.4, node_vocab=3, edge_vocab=2), 2)):
            s = encode_graph(g, k, ordering="cm")
            b = IncrementalBuilder(s.k, s.padded_n, s.original_n, s.featured,
                                   s.node_vocab, s.edge_vocab)
            ref = ReferenceBuilder(s.k, s.padded_n, s.original_n, s.featured,
                                   s.node_vocab, s.edge_vocab)
            for token in s.tokens:
                assert (b.next_kind, b.next_path, b.next_rules()) == \
                    (ref.next_kind, ref.next_path, ref.next_rules())
                b.step(token)
                ref.step(token)
            assert b.complete and ref.complete and b.tree() == ref.tree()


class TestHeaderRule:
    """Encode, the builder and decode share one header rule, so decode
    accepts exactly the headers encode writes."""

    @staticmethod
    def refusals(*calls):
        """The messages of the SequenceErrors that ``calls`` raise."""
        messages = set()
        for call in calls:
            with pytest.raises(SequenceError) as exc:
                call()
            messages.add(str(exc.value))
        return messages

    @pytest.mark.parametrize("k, n", [(2, 2 ** 31), (3, 3 ** 19)])
    def test_largest_padded_size_is_accepted_and_the_next_refused(self, k, n):
        # Header-only: an edgeless graph of n nodes, decoded without per-node
        # work.  With tokens: one edge at the far end of the deepest path.
        text = f"{k} {n} {n} 0\n\n"
        assert decode_graph(read_token_stream(text)) == Graph(n=n)
        assert write_token_stream(encode_graph(Graph(n=n), k)) == text
        arity = diagonal_arity(k)
        first, last = "d:1" + "0" * (arity - 1), "d:01" + "0" * (arity - 2)
        s = read_token_stream(f"{k} {n} {n} 0\n" + f"{first} " * (tree_levels(n, k) - 1)
                              + f"{last}\n")
        edge = Graph(n=n, edges=frozenset({(0, 1)}))
        assert decode_graph(s) == reference_decode(s) == edge
        assert encode_graph(edge, k) == s
        # One node more takes the next power, whose cell paths pass int64.
        messages = self.refusals(lambda: encode_graph(Graph(n=n + 1), k),
                                 lambda: decode_graph(TokenSequence(k, n * k, n + 1)),
                                 lambda: IncrementalBuilder(k, n * k, n + 1))
        assert len(messages) == 1 and "beyond int64" in messages.pop()

    @pytest.mark.parametrize("k, n", [(2, 2 ** 31), (3, 3 ** 19)])
    def test_a_far_corner_edge_encodes_in_small_memory(self, k, n):
        # The edge's cell paths reach the deepest level at the far corner;
        # encode works per cell and level, never per node.
        g = Graph(n=n, edges=frozenset({(0, n - 1)}))
        s, peak = traced_peak(lambda: encode_graph(g, k))
        assert peak < 2 ** 20
        assert len(s.tokens) == tree_levels(n, k)
        assert decode_graph(s) == g

    def test_label_vocab_sum_is_bounded_by_int64(self):
        nv = 2 ** 63 - 2
        g = Graph(n=2, edges=frozenset({(0, 1)}), node_labels={0: 0, 1: nv - 1},
                  edge_labels={(0, 1): 0}, node_vocab=nv, edge_vocab=1)
        text = f"2 2 2 1\n{nv} 1\nd:1,{nv + 1},{nv}\n"
        assert write_token_stream(encode_graph(g, 2)) == text
        s = read_token_stream(text)
        assert decode_graph(s) == reference_decode(s) == g
        messages = self.refusals(lambda: encode_graph(replace(g, node_vocab=nv + 1), 2),
                                 lambda: decode_graph(replace(s, node_vocab=nv + 1)))
        assert len(messages) == 1 and "beyond int64" in messages.pop()

    @pytest.mark.parametrize("text", [
        "0 4 3 1\n2 2\n\n",
        "0 4 3 1\n2 2\nd:1 o:2,3\n",
        "0 4 3 0\nd:1 o:01\n",
        "1 4 3 0\nd:1 o:01\n",
        "-3 3 3 0\nd:010100\n",
        "-3 3 3 0\nd:010 o:010100001\nperm 0 1 2\n",
        "-5 3 3 0\nd:0101000000\n",
        "-5 3 3 0\nd:0101000000 o:01\nperm 2 1 0\n",
        "-32 3 3 0\nd:1 o:01\n",
        "-32 3 3 1\n2 2\nd:1,1 o:2,3\nperm 0 1 2\n",
    ], ids=["k0-header-only", "k0-featured", "k0-plain", "k1-plain", "k-3", "k-3-perm",
            "k-5", "k-5-perm", "k-32", "k-32-featured-perm"])
    def test_a_read_k_below_two_compares_and_hashes(self, text):
        # k*k is 0 or 1: rows too narrow to hold a token's values.  A
        # negative k holds no diagonal slot, however wide its rows.  The
        # reader takes such a header; only decode refuses it.
        s, again = read_token_stream(text), read_token_stream(text)
        assert s == again and hash(s) == hash(again)
        assert write_token_stream(s) == text
        assert s != replace(s, tokens=s.tokens + (Token(DIAGONAL, (1, 1)),))
        with pytest.raises(SequenceError, match="k must be >= 2"):
            decode_graph(s)


def plain_alphabet(k):
    """Every plain token at ``k``: each pattern of bits over a diagonal
    token's held slots, then each over an off-diagonal token's slots."""
    return ([tok(D, *bits) for bits in itertools.product((0, 1), repeat=diagonal_arity(k))]
            + [tok(O, *bits) for bits in itertools.product((0, 1), repeat=k * k)])


class TestDecoderLanguage:
    """At small sizes the decoder accepts exactly the encoder's image, by
    enumeration (the small-scope hypothesis): every token stream over a
    header's alphabet is tried, extending only the header-only stream and
    the prefixes that ``decode_graph`` calls truncated.  Featured streams,
    K=4 and n=6 are not enumerated: they take seconds to minutes each."""

    @pytest.mark.parametrize("k, n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)],
                             ids=lambda v: str(v))
    def test_plain_streams_are_the_encoders_image(self, k, n):
        padded_n, alphabet = padded_size(n, k), plain_alphabet(k)
        graphs, frontier = [], [()]

        def accept(tokens):
            s = TokenSequence(k, padded_n, n, tokens=tokens)
            g = decode_graph(s)
            assert encode_graph(g, k) == s, tokens
            graphs.append(g)

        accept(())
        while frontier:
            prefixes, frontier = frontier, []
            for prefix in prefixes:
                for token in alphabet:
                    tokens = prefix + (token,)
                    try:
                        accept(tokens)
                    except TruncatedSequenceError:
                        frontier.append(tokens)
                    except (SequenceError, GraphError):
                        pass
        assert len(set(graphs)) == len(graphs) == 2 ** (n * (n - 1) // 2)
        # A padded size one power too large is no header the encoder writes.
        for tokens in [()] + [(token,) for token in alphabet]:
            with pytest.raises(SequenceError, match="padded size"):
                decode_graph(TokenSequence(k, padded_n * k, n, tokens=tokens))


def traced_peak(call):
    """The outcome of ``call()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return _outcome(lambda _: call(), None), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLargeKShortStreams:
    """Decoding a short stream allocates little, however large the header's
    ``k``: a token whose arity is not its kind's is refused before any table
    or grid row ``k*k`` wide is made for it, and the level walk's arrays
    cover only the nonzero slots of the tokens the stream holds."""

    @pytest.mark.parametrize("text", [
        "400 400 5 0\nd:1\n",
        "200 200 5 0\n" + " ".join(["d:1"] * 200) + "\n",
    ], ids=["k400", "k200-200-tokens"])
    def test_a_misfit_first_token_is_refused_in_small_memory(self, text):
        error, peak = traced_peak(lambda: decode_graph(read_token_stream(text)))
        assert isinstance(error, TokenMismatchError)
        assert str(error).startswith("token 1 (level 1): arity 1 where")
        assert peak < 2 * 2 ** 20

    def test_a_misfit_stream_is_written_back_in_small_memory(self):
        # Read token by token, its 200 rows of 200*200 slots are never made.
        text = "200 200 5 0\n" + " ".join(["d:1"] * 200) + "\n"
        s = read_token_stream(text)
        out, peak = traced_peak(lambda: write_token_stream(s))
        assert out == text and peak < 2 ** 20

    def test_the_builder_makes_no_root_table_for_a_misfit(self):
        def build_and_step():
            IncrementalBuilder(400, 400, 5).step(tok(D, 1))

        error, peak = traced_peak(build_and_step)
        assert str(error) == "token 1 (level 1): arity 1 where 80200 is pending"
        assert peak < 2 * 2 ** 20

    def test_misfits_after_the_first_token_cost_no_rows(self):
        # A valid root token, then 300 misfits: only the first is decoded,
        # so the grid holds two rows of 20*20 slots, not 301.
        k, arity = 20, diagonal_arity(20)
        text = f"{k} 400 400 0\nd:1{'0' * (arity - 1)} " + " ".join(["d:1"] * 300) + "\n"
        s = read_token_stream(text)
        error, peak = traced_peak(lambda: decode_graph(s))
        assert str(error) == f"token 2 (level 2): arity 1 where {arity} is pending"
        assert peak < 301 * k * k * 8
        ref = _outcome(reference_decode, s)
        assert (type(error), str(error)) == (type(ref), str(ref))

    def test_the_replays_refuse_a_large_k_stream_in_small_memory(self):
        # 439 bytes: the all-ones root token opens all 210 blocks of 20x20,
        # and the next token puts a 1 on a diagonal cell.
        k, arity = 20, diagonal_arity(20)
        s = read_token_stream(f"{k} 400 400 0\n" + " ".join([f"d:{'1' * arity}"] * 2) + "\n")
        for replay in (decode_graph, detokenize_build, position_paths):
            error, peak = traced_peak(lambda: replay(s))
            assert isinstance(error, InvalidTokenError)
            assert str(error) == "token 2 (level 2): value 1 not allowed at slot 0"
            assert peak < 2 * 2 ** 20

    def test_a_cut_stream_makes_no_table_for_blocks_it_never_fills(self):
        # The root token opens all 210 blocks of the next level, 400 slots
        # each, and the stream ends there.
        k, arity = 20, diagonal_arity(20)
        s = read_token_stream(f"{k} 400 400 0\nd:{'1' * arity}\n")
        error, peak = traced_peak(lambda: decode_graph(s))
        assert str(error) == f"{arity} nodes still pending after 1 tokens"
        assert peak < 2 * 2 ** 20
        ref = _outcome(reference_decode, s)
        assert (type(error), str(error)) == (type(ref), str(ref))


class TestFrozenStreams:
    """The criterion-1 corpus, its streams and their ``perm`` lines at K=2
    and K=3 under every ordering, hashed: the digest is that of the
    set-based Graph's code, so the array-backed Graph reorders and encodes
    byte for byte as it did."""

    DIGEST = "2ea45985d7e7835907988d0c71e2189d85ae961776a538cb0a824fcf03dcfcfe"

    def test_streams_and_perms_are_unchanged(self):
        from test_acceptance import ORDERINGS, _corpus_for_round_trips

        digest = hashlib.sha256()
        for g in _corpus_for_round_trips():
            digest.update(serialize_edge_list(g).encode())
            for k in (2, 3):
                for ordering in ORDERINGS:
                    digest.update(write_token_stream(encode_graph(g, k, ordering=ordering)).encode())
        assert digest.hexdigest() == self.DIGEST
