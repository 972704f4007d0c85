import copy
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from k2seq import sequence
from k2seq.graphs import Graph
from k2seq.sampling import (GenerationConfig, GenerationError,
                            MaxLengthExceededError, NGramModel, UniformModel,
                            ZeroMassError, builder_mask, empirical_sizes,
                            ngram_model, sample_sequence, uniform_model, _draw)
from k2seq.sequence import (BOS, DIAGONAL, OFFDIAGONAL, IncrementalBuilder,
                            SequenceError, Token, Vocabulary, decode_graph,
                            detokenize_build, encode_graph, read_token_stream,
                            write_token_stream, _row_error, _rule_keys)

from helpers import (mixed_family_graphs, random_er, random_labeled_er,
                     reference_mask_for_rules, reference_ngram_scores,
                     reference_sample_sequence)

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


def simulated_mask(builder: IncrementalBuilder, vocab: Vocabulary) -> np.ndarray:
    """Admissibility by actually trying each token on a copy of the builder."""
    mask = np.zeros(vocab.size, dtype=bool)
    for token_id in range(vocab.size):
        try:
            token = vocab.decode(token_id)
            copy.deepcopy(builder).step(token)
        except SequenceError:
            continue
        mask[token_id] = True
    return mask


def assert_masks_agree_along(sequence, vocab):
    builder = IncrementalBuilder(sequence.k, sequence.padded_n, sequence.original_n,
                                 sequence.featured, sequence.node_vocab,
                                 sequence.edge_vocab)
    for token in sequence.tokens:
        via_builder = builder_mask(builder, vocab)
        via_simulation = simulated_mask(builder, vocab)
        assert (via_builder == via_simulation).all()
        # The mask kept for this signature is the one read id by id.
        assert (via_builder == reference_mask_for_rules(vocab, builder.next_kind,
                                                        builder.next_rules())).all()
        assert via_builder[vocab.encode(token)]
        builder.step(token)
    assert not builder_mask(builder, vocab).any()


def builder_after(tokens, *builder_args):
    """A fresh builder that has stepped ``tokens``."""
    builder = IncrementalBuilder(*builder_args)
    for token in tokens:
        builder.step(token)
    return builder


def mask_after(tokens, vocab, *builder_args):
    """builder_mask once ``tokens`` have been stepped into a fresh builder."""
    return builder_mask(builder_after(tokens, *builder_args), vocab)


# Builders for calling models directly: at the root of a 4-node K=2 tree,
# and at its off-diagonal block (2, 1).
AT_ROOT = IncrementalBuilder(2, 4)
AT_OFF = builder_after((tok(D, 0, 1, 0),), 2, 4)


class TestValidTokenMask:
    """Admissible-token masks at fixed builder positions of a K=2 tree."""

    def test_root_group_admits_all_nonzero_diagonal_tokens(self):
        v = Vocabulary(2)
        mask = mask_after((), v, 2, 4)
        assert mask.sum() == 7
        assert set(np.flatnonzero(mask)) == set(range(4, 11))

    def test_max_depth_diagonal_group_admits_one_token(self):
        v = Vocabulary(2)
        mask = mask_after((tok(D, 1, 0, 0),), v, 2, 4)
        assert set(np.flatnonzero(mask)) == {v.encode(tok(D, 0, 1, 0))}

    def test_off_diagonal_cells_admit_all_nonzero_patterns(self):
        v = Vocabulary(2)
        mask = mask_after((tok(D, 0, 1, 0),), v, 2, 4)
        assert mask.sum() == 15
        assert set(np.flatnonzero(mask)) == set(range(12, 27))

    def test_padding_constrains_the_root_group(self):
        v = Vocabulary(2)
        mask = mask_after((), v, 2, 4, 3)
        assert set(np.flatnonzero(mask)) == {5, 7, 9}

    def test_reserved_ids_are_never_admissible(self):
        v = Vocabulary(2)
        for tokens in ((), (tok(D, 1, 0, 0),), (tok(D, 0, 1, 0),)):
            assert not mask_after(tokens, v, 2, 4)[:3].any()


class TestMaskMatchesBuilder:
    def test_plain_sequences(self):
        v = Vocabulary(2)
        for g in (SINGLE_EDGE, K4, STAR4, random_er(7, 8, 0.4), random_er(8, 5, 0.5),
                  Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))):
            assert_masks_agree_along(encode_graph(g, 2), v)

    def test_plain_sequences_k3(self):
        v = Vocabulary(3)
        for g in (K4, random_er(9, 10, 0.3)):
            assert_masks_agree_along(encode_graph(g, 3), v)

    def test_featured_sequence(self):
        s = encode_graph(TRIANGLE_LABELED, 2)
        v = Vocabulary.from_corpus(2, [s])
        assert_masks_agree_along(s, v)

    def test_a_huge_label_builds_every_mask_in_small_memory(self):
        # A node label value of 2**40: a mask built through a lookup as long
        # as the largest value would ask for 1 TiB.
        from test_sequence import traced_peak

        big = 2 ** 40
        g = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}), node_labels={0: big - 1, 1: 0, 2: 5},
                  edge_labels={(0, 1): 0, (1, 2): 1}, node_vocab=big, edge_vocab=2)
        s = encode_graph(g, 2)
        vocab = Vocabulary.from_corpus(2, [s])
        assert max(max(t.values) for t in vocab.featured_tokens) == big + 2
        header = (2, s.padded_n, s.original_n, True, big, 2)
        masks = []

        def mask_along():
            builder = IncrementalBuilder(*header)
            for token in s.tokens:
                masks.append(builder_mask(builder, vocab))
                builder.step(token)

        error, peak = traced_peak(mask_along)
        assert error is None and peak < 2 * 2 ** 20
        builder = IncrementalBuilder(*header)
        for token, mask in zip(s.tokens, masks, strict=True):
            assert (mask == simulated_mask(builder, vocab)).all() and mask[vocab.encode(token)]
            builder.step(token)

    def test_featured_tokens_no_position_admits(self):
        # A negative value and a wrong arity: each decodes, and no mask admits it.
        s = encode_graph(TRIANGLE_LABELED, 2)
        odd = (tok(D, 1, -1, 1), tok(O, 1, 2))
        v = Vocabulary(2, Vocabulary.from_corpus(2, [s]).featured_tokens + odd)
        assert [v.decode(v.encode(t)) for t in odd] == list(odd)
        assert_masks_agree_along(s, v)

    def test_labels_above_every_table_value_are_skipped(self):
        # The cell rules allow labels up to 4; a structural-only table holds 0 and 1.
        s = encode_graph(TRIANGLE_LABELED, 2)
        v = Vocabulary(2)
        mask = mask_after(s.tokens[:1], v, s.k, s.padded_n, s.original_n, True,
                          s.node_vocab, s.edge_vocab)
        assert set(np.flatnonzero(mask)) == {v.encode(tok(D, 1, 0, 1))}

    def test_huge_label_vocab_masks_without_listing_labels(self):
        # Both diagonal cells take any of the 2**62 node labels and the other
        # cell only 0 or an edge label past them.
        s = read_token_stream(f"2 2 2 1\n{2 ** 62} 1\nd:1,0,2\n")
        v = Vocabulary.from_corpus(2, [s])
        assert_masks_agree_along(s, v)
        mask = mask_after((), v, s.k, s.padded_n, s.original_n, True, s.node_vocab, s.edge_vocab)
        assert set(np.flatnonzero(mask)) == {v.encode(tok(D, 1, 0, 1)), v.encode(tok(D, 1, 0, 2))}

    def test_featured_cells_mix_structural_and_extension_ids(self):
        s = encode_graph(TRIANGLE_LABELED, 2)
        v = Vocabulary.from_corpus(2, [s])
        b = IncrementalBuilder(s.k, s.padded_n, s.original_n, True,
                               s.node_vocab, s.edge_vocab)
        b.step(s.tokens[0])
        # Pending: the (1,1) block at cell level; slots admit label values only.
        mask = builder_mask(b, v)
        assert set(np.flatnonzero(mask)) == {v.encode(tok(D, 1, 0, 1)),
                                             v.encode(tok(D, 1, 4, 2))}


def golden_corpus(k):
    """The corpus ``TestGoldenSamples`` trains its n-gram models on."""
    return [encode_graph(g, k, ordering="cm") for g in mixed_family_graphs(5, 8, max_n=16)]


def signatures_along(s):
    """Each step's mask key, ``(next_kind, next_rules())`` and path, as a
    builder replays ``s``."""
    builder = IncrementalBuilder(s.k, s.padded_n, s.original_n, s.featured,
                                 s.node_vocab, s.edge_vocab)
    for token in s.tokens:
        yield builder._mask_key(), (builder.next_kind, builder.next_rules()), builder.next_path
        builder.step(token)


class TestMaskCache:
    """``builder_mask`` keeps one read-only mask per rule signature on the
    vocabulary: the pending block's kind and its row of the level table, as
    bytes (``IncrementalBuilder._mask_key``).  Blocks of one kind with equal
    rules share a signature at any depth or origin, and blocks with other
    kinds or rules never do.  ``assert_masks_agree_along`` checks each mask
    against a fresh build at every step of ``TestMaskMatchesBuilder``."""

    # A plain graph, and a padded featured one with one node label, whose
    # last diagonal block at depths 2 and 3 has the rules (node, zero, zero):
    # at cell level the zero-only off-diagonal slot has lo = node_vocab + 1.
    @pytest.mark.parametrize("g", [random_er(3, 30, 0.3), random_labeled_er(2, 5, 0.6, 1, 2)])
    def test_equal_rules_share_one_entry_across_depths_and_origins(self, g):
        s = encode_graph(g, 2, ordering="cm")
        vocab = Vocabulary.from_corpus(2, [s])
        builder = IncrementalBuilder(s.k, s.padded_n, s.original_n, s.featured,
                                     s.node_vocab, s.edge_vocab)
        paths = defaultdict(set)
        for token in s.tokens:
            builder_mask(builder, vocab)
            paths[builder.next_kind, builder.next_rules()].add(builder.next_path)
            builder.step(token)
        assert len(vocab._masks) == len(paths)
        assert any(len({len(path) for path in met}) > 1 for met in paths.values())

    def test_diagonal_and_off_diagonal_blocks_never_share_an_entry(self):
        # Equal zero_ok, lo and hi rows under either kind.
        zero_ok, lo = np.ones((2, 4), dtype=bool), np.ones((2, 4), dtype=np.int64)
        diag_key, off_key = _rule_keys(np.array([True, False]), zero_ok, lo, lo)
        assert diag_key != off_key
        for k in (2, 3):
            kinds = defaultdict(set)
            for s in golden_corpus(k):
                for key, (kind, _), _ in signatures_along(s):
                    kinds[key].add(kind)
            assert {len(met) for met in kinds.values()} == {1}

    @pytest.mark.parametrize("k", [2, 3])
    def test_sampling_the_golden_corpus_meets_one_key_per_kind_and_rules(self, k):
        corpus = golden_corpus(k)
        model = ngram_model(corpus, 3)
        sizes, rules, keys = empirical_sizes(corpus), defaultdict(set), defaultdict(set)
        for seed in range(20):
            s = sample_sequence(model, GenerationConfig(k=k, seed=seed, sizes=sizes))
            for key, signature, _ in signatures_along(s):
                rules[key].add(signature)
                keys[signature].add(key)
        assert {len(met) for met in rules.values()} == {len(met) for met in keys.values()} == {1}
        assert len(rules) == len(keys) == len(model.vocab._masks)

    def test_masks_are_read_only(self):
        mask = builder_mask(IncrementalBuilder(2, 4), Vocabulary(2))
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = True

    def test_vocabularies_with_other_featured_tokens_share_no_entry(self):
        # Same builder position, same rules: the featured vocabulary admits
        # a label-valued token that the structural one does not hold.
        s = encode_graph(TRIANGLE_LABELED, 2)
        plain, featured = Vocabulary(2), Vocabulary.from_corpus(2, [s])
        b = IncrementalBuilder(s.k, s.padded_n, s.original_n, True, s.node_vocab, s.edge_vocab)
        b.step(s.tokens[0])
        a, c = builder_mask(b, plain), builder_mask(b, featured)
        assert a.size == plain.size and c.size == featured.size
        assert set(np.flatnonzero(a)) < set(np.flatnonzero(c))
        assert plain._masks.keys() == featured._masks.keys()
        assert not {id(m) for m in plain._masks.values()} & {id(m) for m in featured._masks.values()}

    @pytest.mark.parametrize("k", [2, 3])
    def test_sampling_the_golden_corpus_stays_within_the_bound(self, k):
        corpus = golden_corpus(k)
        model = ngram_model(corpus, 3)
        for seed in range(20):
            sample_sequence(model, GenerationConfig(k=k, seed=seed, sizes=empirical_sizes(corpus)))
        assert 0 < len(model.vocab._masks) <= sequence._MASK_CACHE_SIZE

    def test_evicting_masks_leaves_samples_unchanged(self, monkeypatch):
        corpus = golden_corpus(3)
        config = GenerationConfig(k=3, seed=1, sizes=empirical_sizes(corpus))
        kept = sample_sequence(ngram_model(corpus, 3), config)
        monkeypatch.setattr(sequence, "_MASK_CACHE_SIZE", 2)
        model = ngram_model(corpus, 3)
        assert sample_sequence(model, config) == kept
        assert len(model.vocab._masks) == 2


def masked_distributions(vocab, rng):
    """Masked score rows as a sampler meets them: each admissible mask of
    an encoded random graph's steps, times uniform, n-gram-like and skewed
    scores."""
    for seed in range(6):
        s = encode_graph(random_er(seed, 12, 0.4), vocab.k)
        builder = IncrementalBuilder(s.k, s.padded_n, s.original_n)
        for token in s.tokens:
            mask = builder_mask(builder, vocab)
            counts = rng.integers(0, 5, vocab.size)
            for scores in (np.full(vocab.size, 1.0 / vocab.size),
                           (counts + 1) / (counts.sum() + vocab.size),
                           rng.random(vocab.size) ** 8):
                yield np.where(mask, scores, 0.0)
            builder.step(token)


class TestDrawMatchesChoice:
    """The inverse-CDF draw picks the id ``Generator.choice`` picks from the
    same seed, and leaves the generator in the same state.  A numpy upgrade
    that changes ``choice``'s arithmetic fails here."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_same_id_as_choice_over_many_seeds(self, k):
        vocab, rng = Vocabulary(k), np.random.default_rng(k)
        draws = 0
        for i, masked in enumerate(masked_distributions(vocab, rng)):
            for seed in range(10 * i, 10 * i + 10):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                total = masked.sum()
                assert _draw(ours, masked, total) == theirs.choice(vocab.size, p=masked / total)
                assert ours.random() == theirs.random()
                draws += 1
        assert draws >= 2000


class TestUniformSampling:
    def test_same_seed_reproduces_the_sequence(self):
        v = Vocabulary(2)
        cfg = GenerationConfig(k=2, padded_n=8, seed=123)
        a = sample_sequence(uniform_model(v), cfg)
        b = sample_sequence(uniform_model(v), cfg)
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        v = Vocabulary(2)
        model = uniform_model(v)
        outs = {sample_sequence(model, GenerationConfig(k=2, padded_n=8, seed=s)).tokens
                for s in range(8)}
        assert len(outs) > 1

    def test_samples_decode_to_valid_graphs(self):
        v = Vocabulary(2)
        model = uniform_model(v)
        for seed in range(30):
            s = sample_sequence(model, GenerationConfig(k=2, padded_n=8, seed=seed))
            g = decode_graph(s)
            assert g.n == 8
            assert all(0 <= u < v_ < 8 for u, v_ in g.edges)

    def test_padded_samples_respect_the_original_size(self):
        v = Vocabulary(2)
        model = uniform_model(v)
        for seed in range(20):
            s = sample_sequence(
                model, GenerationConfig(k=2, padded_n=8, original_n=5, seed=seed))
            g = decode_graph(s)
            assert g.n == 5

    def test_sizes_multiset_draws_consistent_pairs(self):
        v = Vocabulary(2)
        model = uniform_model(v)
        sizes = ((4, 3), (8, 8))
        seen = set()
        for seed in range(12):
            s = sample_sequence(model, GenerationConfig(k=2, sizes=sizes, seed=seed))
            assert (s.padded_n, s.original_n) in sizes
            seen.add((s.padded_n, s.original_n))
            again = sample_sequence(model, GenerationConfig(k=2, sizes=sizes, seed=seed))
            assert again == s
        assert len(seen) == 2

    def test_featured_uniform_sampling_with_unit_vocabularies(self):
        ext = [tok(D, 1, 2, 1)]
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d_ in range(2):
                        values = (2 * a, 2 * b, 2 * c, 2 * d_)
                        if any(values):
                            ext.append(tok(O, *values))
        v = Vocabulary(2, tuple(ext))
        model = uniform_model(v)
        for seed in range(10):
            s = sample_sequence(model, GenerationConfig(
                k=2, padded_n=4, seed=seed, featured=True,
                node_vocab=1, edge_vocab=1))
            g = decode_graph(s)
            assert g.node_labels == {u: 0 for u in range(4)}
            assert set(g.edge_labels.values()) <= {0}

    def test_featured_depth_one_mask_forces_diagonal_blocks(self):
        v = Vocabulary(2)
        mask = mask_after((), v, 2, 4, 4, True, 1, 1)
        assert set(np.flatnonzero(mask)) == {v.encode(tok(D, 1, 0, 1)),
                                             v.encode(tok(D, 1, 1, 1))}


class TestNGram:
    def test_bigram_greedy_reproduces_its_training_graph(self):
        for g in (SINGLE_EDGE, K4):
            corpus = [encode_graph(g, 2)]
            model = ngram_model(corpus, 2)
            out = sample_sequence(model, GenerationConfig(
                k=2, padded_n=4, greedy=True))
            assert out.tokens == corpus[0].tokens
            assert decode_graph(out) == g

    def test_trained_context_distribution(self):
        corpus = [encode_graph(SINGLE_EDGE, 2)]
        model = ngram_model(corpus, 2)
        v = model.vocab
        probs = model((v.BOS,), AT_ROOT)
        assert probs.shape == (27,)
        assert probs[7] == pytest.approx(2 / 28)
        assert probs[5] == pytest.approx(1 / 28)
        assert probs.sum() == pytest.approx(1.0)

    def test_unseen_context_falls_back_to_the_unigram(self):
        corpus = [encode_graph(SINGLE_EDGE, 2)]
        model = ngram_model(corpus, 2)
        probs = model((0, 26), AT_ROOT)
        assert probs[7] == pytest.approx(2 / 30)
        assert probs[3] == pytest.approx(1 / 30)
        assert probs.sum() == pytest.approx(1.0)

    def test_unigram_model_ignores_context(self):
        corpus = [encode_graph(K4, 2)]
        model = ngram_model(corpus, 1)
        a = model((0,), AT_ROOT)
        b = model((0, 10, 5), AT_OFF)
        assert (a == b).all()
        out = sample_sequence(model, GenerationConfig(k=2, padded_n=4, seed=4))
        assert decode_graph(out).n == 4

    def test_featured_ngram_sampling_round_trips_labels(self):
        corpus = [encode_graph(TRIANGLE_LABELED, 2)]
        model = ngram_model(corpus, 2)
        out = sample_sequence(model, GenerationConfig(
            k=2, padded_n=4, original_n=3, greedy=True, featured=True,
            node_vocab=2, edge_vocab=2))
        assert decode_graph(out) == TRIANGLE_LABELED

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            NGramModel(Vocabulary(2), 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            ngram_model([], 2)

    def test_empirical_sizes(self):
        corpus = [encode_graph(SINGLE_EDGE, 2), encode_graph(Graph(n=5), 2),
                  encode_graph(TRIANGLE_LABELED, 2)]
        assert empirical_sizes(corpus) == ((4, 4), (8, 5), (4, 3))


def ngram_corpora():
    """Corpora and their vocabularies: the golden corpus at K=2 and K=3, and
    labeled graphs at K=2, whose vocabulary holds featured tokens."""
    labeled = [encode_graph(random_labeled_er(seed, 6, 0.5, 2, 2), 2) for seed in range(4)]
    for corpus in (golden_corpus(2), golden_corpus(3), labeled):
        yield corpus, Vocabulary.from_corpus(corpus[0].k, corpus)


class TestNGramMatchesReference:
    """``NGramModel`` gives ``reference_ngram_scores``' row bit for bit, in
    a context's first call, which keeps its scores sparse, and in later
    calls, which read them."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_trained_context_and_unseen_ones(self, n):
        for corpus, vocab in ngram_corpora():
            model = NGramModel(vocab, n).train(corpus)
            # PAD never occurs and nothing follows EOS; a short prefix is BOS-padded.
            unseen = [(vocab.PAD,) * (n - 1), (vocab.BOS,) * (n - 2) + (vocab.EOS,)]
            prefixes = list(model._rows) + unseen + [(), (vocab.BOS,)]
            assert n == 1 or not set(unseen) & model._rows.keys()
            for prefix in prefixes:
                want = reference_ngram_scores(corpus, vocab, n, prefix)
                for _ in range(2):
                    assert np.array_equal(model(prefix, AT_ROOT), want)

    def test_a_long_prefix_reads_only_its_last_ids(self):
        corpus = golden_corpus(3)
        vocab = Vocabulary(3)
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            model = NGramModel(vocab, n).train(corpus)
            for context in list(model._rows)[:5] + [(vocab.PAD,) * (n - 1)]:
                head = rng.integers(3, vocab.size, 10_000 - len(context)).tolist()
                prefix = tuple(head) + context
                want = reference_ngram_scores(corpus, vocab, n, prefix)
                assert np.array_equal(model(prefix, AT_ROOT), want)
                assert np.array_equal(model(context, AT_ROOT), want)

    def test_training_again_counts_both_corpora(self):
        first, second = golden_corpus(2)[:4], golden_corpus(2)[4:]
        vocab = Vocabulary(2)
        model = NGramModel(vocab, 2).train(first)
        prefixes = list(model._rows) + [(vocab.PAD,)]
        for prefix in prefixes:
            model(prefix, AT_ROOT)
        model.train(second)
        for prefix in prefixes + list(model._rows):
            assert np.array_equal(model(prefix, AT_ROOT),
                                  reference_ngram_scores(first + second, vocab, 2, prefix))


class TestGoldenSamples:
    """Exact stream texts of fixed-seed samples: a change to the masks or the
    models must reproduce them byte for byte."""

    NGRAM = {
        (2, 0): "2 16 12 0\nd:101 d:010 d:100 o:1101 d:111 o:1001 o:1100 o:1000 d:010 "
                "o:1100 d:010\n",
        (2, 1): "2 32 32 0\nd:111 d:010 o:1111 d:010 o:0110 o:1101 o:0111 o:1001 o:0001 "
                "o:1100 o:1001 o:0100 o:1100 o:0101 o:0110 o:0011 o:0101 o:0100 o:0100 "
                "o:1011 o:0100 o:0111 o:1111 o:1111 o:1100 o:1000 o:0100 o:0010 o:1111 "
                "o:1000 o:0010 o:1001 o:1100 o:1001 o:1101 o:0001 o:1001 o:1000 o:0001 "
                "o:1011 o:1101 o:1001 o:0100 o:1101 o:1000 o:1001 o:1100 o:0011 o:1100\n",
        (2, 2): "2 16 12 0\nd:101 d:111 d:100 d:110 o:1100 d:010 d:001 d:010 o:1010 "
                "o:1001 o:0011 o:0110 d:010\n",
        (3, 0): "3 27 12 0\nd:100000 d:000010 o:000000100\n",
        (3, 1): "3 81 32 0\nd:111000 d:001010 o:110000000 d:100000 d:010110 o:110100001 "
                "o:010011000 o:011001000 d:001000 o:101111000 o:100000100 o:010011010 "
                "o:110001011 o:010001101 o:011010110 o:000111111 o:011000000 o:001000000 "
                "o:001001000 o:101110110 o:010000000 o:011000000 d:010000\n",
        (3, 2): "3 27 12 0\nd:100000 d:111000 d:000010 o:100100111 d:010100\n",
    }
    FEATURED = ("2 8 5 1\n2 2\nd:1,1,1 d:1,1,1 o:0,1,0,0 d:1,0,0 d:1,3,2 o:0,4,0,0 "
                "d:2,4,1 o:3,0,0,0 d:1,0,0\n")

    @pytest.mark.parametrize("k", [2, 3])
    def test_order_three_ngram_samples(self, k):
        corpus = [encode_graph(g, k, ordering="cm")
                  for g in mixed_family_graphs(5, 8, max_n=16)]
        model = ngram_model(corpus, 3)
        sizes = empirical_sizes(corpus)
        for seed in range(3):
            s = sample_sequence(model, GenerationConfig(k=k, seed=seed, sizes=sizes))
            assert write_token_stream(s) == self.NGRAM[k, seed]

    def test_featured_uniform_sample(self):
        corpus = [encode_graph(random_labeled_er(seed, 5, 0.5, 2, 2), 2)
                  for seed in range(4)]
        model = uniform_model(Vocabulary.from_corpus(2, corpus))
        s = sample_sequence(model, GenerationConfig(
            k=2, padded_n=8, original_n=5, seed=1, featured=True,
            node_vocab=2, edge_vocab=2))
        assert write_token_stream(s) == self.FEATURED


class TestSamplingErrors:
    def test_config_requires_some_size_policy(self):
        with pytest.raises(ValueError):
            GenerationConfig(k=2)
        with pytest.raises(ValueError):
            GenerationConfig(k=2, padded_n=8, max_tokens=0)

    def test_vocabulary_k_must_match_config(self):
        model = uniform_model(Vocabulary(2))
        with pytest.raises(ValueError, match="k="):
            sample_sequence(model, GenerationConfig(k=3, padded_n=9))

    def test_non_canonical_sizes_are_refused_before_any_token(self):
        # A 5-node graph pads to 8 at K=2, so encode never writes padded_n=16.
        model = uniform_model(Vocabulary(2))
        with pytest.raises(SequenceError, match="power"):
            sample_sequence(model, GenerationConfig(k=2, padded_n=16, original_n=5))

    def test_max_length_exceeded(self):
        model = uniform_model(Vocabulary(2))
        with pytest.raises(MaxLengthExceededError):
            sample_sequence(model, GenerationConfig(k=2, padded_n=8, max_tokens=1))

    def test_zero_mass_model(self):
        v = Vocabulary(2)

        class ZeroModel:
            vocab = v

            def __call__(self, prefix, builder):
                return np.zeros(v.size)

        with pytest.raises(ZeroMassError):
            sample_sequence(ZeroModel(), GenerationConfig(k=2, padded_n=4))

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_negative_nan_or_infinite_mass_is_a_generation_error(self, bad):
        # Id 4 is admissible at the root of a 4-node K=2 tree.
        v = Vocabulary(2)

        class BadModel:
            vocab = v

            def __call__(self, prefix, builder):
                scores = np.ones(v.size)
                scores[4] = bad
                return scores

        with pytest.raises(GenerationError, match="negative, NaN or infinite"):
            sample_sequence(BadModel(), GenerationConfig(k=2, padded_n=4))

    def test_scores_are_only_read(self):
        model = uniform_model(Vocabulary(2))
        scores = model((), AT_ROOT)
        assert not scores.flags.writeable and model((0, 5), AT_OFF) is scores
        s = sample_sequence(model, GenerationConfig(k=2, padded_n=8, seed=3))
        assert decode_graph(s).n == 8
        assert (scores == 1 / 27).all()

    def test_bad_model_shape(self):
        v = Vocabulary(2)

        class BadModel:
            vocab = v

            def __call__(self, prefix, builder):
                return np.ones(5)

        with pytest.raises(GenerationError, match="shape"):
            sample_sequence(BadModel(), GenerationConfig(k=2, padded_n=4))

    def test_unsatisfiable_size_raises_zero_mass(self):
        # A 1-node plain graph cannot start a token sequence: the root group
        # admits nothing.
        model = uniform_model(Vocabulary(2))
        with pytest.raises(ZeroMassError):
            sample_sequence(model, GenerationConfig(k=2, padded_n=2, original_n=1))


def labeled_corpus(k):
    """Labeled graphs at ``k``, with 2 node and 2 edge labels."""
    return [encode_graph(random_labeled_er(seed, 6, 0.5, 2, 2), k) for seed in range(4)]


def outcome(sampler, model, config):
    """A sample's stream text, or its error's class and message."""
    try:
        return write_token_stream(sampler(model, config))
    except (GenerationError, SequenceError) as exc:
        return type(exc), str(exc)


def assert_samplers_agree(model, config):
    want = outcome(reference_sample_sequence, model, config)
    assert outcome(sample_sequence, model, config) == want
    return want


class TestSamplerMatchesReference:
    """``sample_sequence``, which steps the builder by id and hands models
    its own id list, gives the stream text of ``reference_sample_sequence``,
    which steps by :class:`Token` and hands models a copy of the prefix, or
    raises the same error."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("featured", [False, True], ids=["plain", "featured"])
    def test_uniform_and_ngram_models(self, k, featured):
        corpus = labeled_corpus(k) if featured else golden_corpus(k)
        vocab = Vocabulary.from_corpus(k, corpus)
        labels = {"featured": True, "node_vocab": 2, "edge_vocab": 2} if featured else {}
        first = corpus[0]
        policies = ({"padded_n": first.padded_n, "original_n": first.original_n},
                    {"sizes": empirical_sizes(corpus)})
        models = [uniform_model(vocab)] + [NGramModel(vocab, n).train(corpus) for n in (1, 2, 3)]
        texts = set()
        for model in models:
            for policy in policies:
                for greedy in (False, True):
                    for seed in range(3 if k < 4 else 1):
                        texts.add(assert_samplers_agree(model, GenerationConfig(
                            k=k, seed=seed, greedy=greedy, **policy, **labels)))
        assert len([t for t in texts if isinstance(t, str)]) > 4

    @pytest.mark.parametrize("featured", [False, True], ids=["plain", "featured"])
    def test_bad_models(self, featured):
        corpus = labeled_corpus(2) if featured else golden_corpus(2)
        vocab = Vocabulary.from_corpus(2, corpus)
        config = GenerationConfig(k=2, seed=5, sizes=empirical_sizes(corpus), featured=featured,
                                  node_vocab=2 * featured, edge_vocab=2 * featured)

        class Model:
            def __init__(self, scores):
                self.vocab, self.scores = vocab, scores

            def __call__(self, prefix, builder):
                return self.scores(builder)

        def with_bad(value):
            # ``value`` on every admissible id from the second step on.
            def scores(builder):
                row = np.ones(vocab.size)
                if builder.steps:
                    row[builder_mask(builder, vocab)] = value
                return row
            return scores

        bad = [Model(lambda b: np.zeros(vocab.size)), Model(lambda b: np.ones(vocab.size + 1)),
               Model(lambda b: np.ones((1, vocab.size)))]
        bad += [Model(with_bad(value)) for value in (0.0, -1.0, np.nan, np.inf)]
        greedy_errors = set()
        for model in bad:
            assert not isinstance(assert_samplers_agree(model, config), str)
            got = assert_samplers_agree(model, replace(config, greedy=True))
            greedy_errors.add(got[0] if isinstance(got, tuple) else None)
        # Greedy or drawn, every bad model raises: a total of at most 0 as
        # ZeroMassError, a wrong shape and NaN or infinite mass as
        # GenerationError.
        assert greedy_errors == {ZeroMassError, GenerationError}

    def test_a_run_past_max_tokens(self):
        corpus = golden_corpus(2)
        model = ngram_model(corpus, 2)
        got = {max_tokens: [assert_samplers_agree(model, GenerationConfig(
                   k=2, seed=seed, max_tokens=max_tokens, padded_n=32, original_n=32))
                   for seed in range(4)] for max_tokens in (1, 5, 12)}
        assert {out[0] for out in got[1] + got[5]} == {MaxLengthExceededError}
        # Some trees need more than 12 tokens and some fewer.
        assert {isinstance(out, str) for out in got[12]} == {False, True}


def stream_positions(s, vocab):
    """Each position a builder meets while it steps ``s`` by id, the
    builder at it, and the builder once complete."""
    builder = IncrementalBuilder(s.k, s.padded_n, s.original_n, s.featured,
                                 s.node_vocab, s.edge_vocab)
    for token in s.tokens:
        yield builder
        builder.step(vocab.encode(token), vocab)
    assert builder.tree() == detokenize_build(s)
    yield builder


def refusal(step, *args):
    with pytest.raises(SequenceError) as info:
        step(*args)
    return type(info.value), str(info.value)


class TestStepById:
    """``IncrementalBuilder.step(token_id, vocab)`` checks the id with one
    lookup in the pending block's mask.  At every position met while
    stepping encoded streams, the mask admits exactly the ids whose
    :class:`Token` passes ``_row_error``, and a refused id raises the error
    its :class:`Token` raises."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("featured", [False, True], ids=["plain", "featured"])
    def test_the_mask_admits_exactly_what_the_row_check_passes(self, k, featured):
        g = random_labeled_er(k, 5, 0.6, 2, 2) if featured else random_er(k, 7, 0.5)
        s = encode_graph(g, k, ordering="cm")
        # A negative value and a wrong arity: no position admits either.
        odd = (tok(D, 1, -1, 1), tok(O, 1, 2)) if featured else ()
        vocab = Vocabulary(k, Vocabulary.from_corpus(k, [s]).featured_tokens + odd)
        rng = np.random.default_rng(k)
        met = 0
        for b in stream_positions(s, vocab):
            mask = builder_mask(b, vocab)
            if b.complete:
                assert not mask.any()
                break
            assert not mask[:3].any()
            passed = [_row_error(vocab.decode(i), b.steps + 1, b._depth, b._diag[b._cursor],
                                 k, b._block_row) is None for i in range(3, vocab.size)]
            assert mask[3:].tolist() == passed
            refused = np.flatnonzero(~mask[3:]) + 3
            for i in rng.choice(refused, min(len(refused), 40), replace=False).tolist():
                assert refusal(b.step, i, vocab) == refusal(b.step, vocab.decode(i))
            met += 1
        assert met == len(s.diag) > 1

    def test_reserved_out_of_range_and_trailing_ids(self):
        s = encode_graph(K4, 2)
        vocab = Vocabulary(2)
        b = IncrementalBuilder(s.k, s.padded_n, s.original_n)
        for bad in (BOS, 2, -1, vocab.size):
            assert refusal(b.step, bad, vocab) == (SequenceError,
                                                   f"id {bad} is reserved or out of range")
        *_, done = stream_positions(s, vocab)
        assert refusal(done.step, 4, vocab) == refusal(done.step, vocab.decode(4))


class TestSamplerPassesNoCopy:
    """The model gets the sampler's own id list, one id longer at each
    step, and the sampler never computes ``next_path``."""

    def test_the_model_reads_one_growing_list(self):
        vocab = Vocabulary(2)

        class Recording:
            def __init__(self):
                self.vocab, self.seen = vocab, []
                self.scores = np.full(vocab.size, 1.0 / vocab.size)

            def __call__(self, prefix, builder):
                self.seen.append((prefix, len(prefix), prefix[0]))
                return self.scores

        model = Recording()
        s = sample_sequence(model, GenerationConfig(k=2, padded_n=16, seed=2))
        prefix = model.seen[0][0]
        assert isinstance(prefix, list) and len(prefix) == len(s.diag) + 1
        assert [(p is prefix, n, first) for p, n, first in model.seen] == \
            [(True, n, BOS) for n in range(1, len(s.diag) + 1)]

    def test_next_path_is_never_computed(self, monkeypatch):
        paths, next_path = [], IncrementalBuilder.next_path

        def counting(builder):
            paths.append(None)
            return next_path.fget(builder)

        monkeypatch.setattr(IncrementalBuilder, "next_path", property(counting))
        corpus = golden_corpus(2)
        for model in (uniform_model(Vocabulary(2)), ngram_model(corpus, 3)):
            for seed in range(3):
                sample_sequence(model, GenerationConfig(k=2, seed=seed,
                                                        sizes=empirical_sizes(corpus)))
        assert paths == []
        assert IncrementalBuilder(2, 4).next_path == () and paths  # the count sees a read
