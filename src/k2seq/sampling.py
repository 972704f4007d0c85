"""Autoregressive sequence models and structurally constrained decoding.

Models map a prefix of token ids and the builder at the pending position to
scores over the vocabulary.  Decoding is driven by the level-wise builder:
each step masks the model's scores down to the ids the builder would accept
(the per-signature masks of Willard & Louf, "Efficient Guided Generation
for Large Language Models", 2023), renormalizes, samples (or takes the
argmax), and feeds the id back.  The sampler works on ids throughout: the
model reads the sampler's own id list, and the builder checks the drawn id
with one lookup in the mask it was drawn under, so no step makes a
:class:`~k2seq.sequence.Token` or copies the prefix.  A sequence is complete
exactly when the builder's last level is full; EOS is never required to
stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .sequence import BOS, EOS, IncrementalBuilder, TokenSequence, Vocabulary, encode_ids


class GenerationError(RuntimeError):
    """Base class for decoding-time failures."""


class MaxLengthExceededError(GenerationError):
    """The tree did not complete within the configured token budget."""


class ZeroMassError(GenerationError):
    """The model put no probability mass on any admissible token."""


class SamplerModel(Protocol):
    """Scores over ``vocab`` for the next token.

    ``prefix`` is the sampler's own list of the ids drawn so far, BOS
    first: it grows by one id after each call and must only be read, not
    kept or changed.  ``builder`` is at the pending position; a model that
    needs the pending kind or path reads ``builder.next_kind`` or
    ``builder.next_path``, which the sampler itself never computes."""

    vocab: Vocabulary

    def __call__(self, prefix: Sequence[int], builder: IncrementalBuilder) -> np.ndarray: ...


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding parameters.

    Sizes come either from ``padded_n`` (with ``original_n`` defaulting to it)
    or, when ``padded_n`` is None, from ``sizes``: an empirical multiset of
    ``(padded_n, original_n)`` pairs sampled per sequence.
    """

    k: int
    max_tokens: int = 4096
    seed: int = 0
    padded_n: int | None = None
    original_n: int | None = None
    sizes: tuple[tuple[int, int], ...] | None = None
    greedy: bool = False
    featured: bool = False
    node_vocab: int = 0
    edge_vocab: int = 0

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if self.padded_n is None and not self.sizes:
            raise ValueError("either padded_n or a non-empty sizes multiset is required")


def builder_mask(builder: IncrementalBuilder, vocab: Vocabulary) -> np.ndarray:
    """Mask for the builder's pending position; all False when complete.
    Masks are kept, read-only, on ``vocab``, since they depend on its
    featured tokens, by the pending block's rule signature: its kind and
    its row of the level table, as bytes.  A mask is built on a miss by
    comparing that row with the rows of ``vocab``'s tokens of that kind
    (:meth:`~k2seq.sequence.Vocabulary._mask_for`)."""
    if builder.complete:
        return np.zeros(vocab.size, dtype=bool)
    return vocab._mask_for(builder)


class UniformModel:
    """Uniform scores over the whole vocabulary; masking does the rest.  Every
    call returns the same read-only row."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self._scores = np.full(vocab.size, 1.0 / vocab.size)
        self._scores.flags.writeable = False

    def __call__(self, prefix, builder) -> np.ndarray:
        return self._scores


def uniform_model(vocab: Vocabulary) -> UniformModel:
    return UniformModel(vocab)


class NGramModel:
    """Add-one-smoothed n-gram over token ids.

    Sequences are framed as ``(n-1) * BOS, tokens..., EOS`` for counting.  An
    unseen context falls back to the smoothed unigram distribution.

    Each seen context keeps the ids that followed it, one per occurrence.
    Its scores are ``(count + 1) / (total + V)`` for those ids and the base
    ``1 / (total + V)`` for every other id.  Its first call keeps them
    sparse, as the base and the ``(ids, scores)`` arrays, and each call
    fills one dense row from them: most contexts are followed by a few ids,
    so a stored dense row of ``V`` floats would mostly repeat the base.
    Unseen contexts share one read-only row of unigram scores.
    """

    def __init__(self, vocab: Vocabulary, n: int):
        if n < 1:
            raise ValueError("n-gram order must be >= 1")
        self.vocab = vocab
        self.n = n
        self._rows: dict[tuple[int, ...], list[int]] = {}
        self._sparse: dict[tuple[int, ...], tuple[float, np.ndarray, np.ndarray]] = {}
        self._unigram = np.zeros(vocab.size, dtype=np.int64)
        self._unigram_scores = self._scores(self._unigram)

    def train(self, sequences: list[TokenSequence]) -> "NGramModel":
        for s in sequences:
            ids = [BOS] * (self.n - 1) + encode_ids(s, self.vocab) + [EOS]
            for pos in range(self.n - 1, len(ids)):
                self._rows.setdefault(tuple(ids[pos - self.n + 1:pos]), []).append(ids[pos])
            self._unigram += np.bincount(ids[self.n - 1:], minlength=self.vocab.size)
        self._sparse.clear()
        self._unigram_scores = self._scores(self._unigram)
        return self

    def _scores(self, counts: np.ndarray) -> np.ndarray:
        scores = (counts + 1) / (counts.sum() + self.vocab.size)
        scores.flags.writeable = False
        return scores

    def _context(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """The last ``n-1`` ids of ``prefix``, BOS-padded on the left."""
        if self.n == 1:
            return ()
        tail = tuple(prefix[-(self.n - 1):])
        return (BOS,) * (self.n - 1 - len(tail)) + tail

    def __call__(self, prefix, builder) -> np.ndarray:
        context = self._context(prefix)
        sparse = self._sparse.get(context)
        if sparse is None:
            followers = self._rows.get(context)
            if followers is None:
                return self._unigram_scores
            ids, counts = np.unique(followers, return_counts=True)
            total = len(followers) + self.vocab.size
            sparse = self._sparse[context] = 1 / total, ids, (counts + 1) / total
        base, ids, scores = sparse
        row = np.full(self.vocab.size, base)
        row[ids] = scores
        return row


def ngram_model(corpus: list[TokenSequence], n: int,
                vocab: Vocabulary | None = None) -> NGramModel:
    """Train an n-gram model on encoded sequences; the vocabulary is derived
    from the corpus (including any featured tokens) unless given."""
    if not corpus:
        raise ValueError("corpus must be non-empty")
    if vocab is None:
        vocab = Vocabulary.from_corpus(corpus[0].k, corpus)
    return NGramModel(vocab, n).train(corpus)


def empirical_sizes(corpus: list[TokenSequence]) -> tuple[tuple[int, int], ...]:
    """(padded_n, original_n) multiset of a corpus, for the size policy."""
    return tuple((s.padded_n, s.original_n) for s in corpus)


def _draw(rng: np.random.Generator, masked: np.ndarray, total: float) -> int:
    """The id ``rng.choice(masked.size, p=masked / total)`` picks, by its
    arithmetic (the inverse CDF at one ``rng.random()``) without the cost of
    its argument checks.  ``total`` is ``masked.sum()`` over the whole
    vocabulary, as a sum over fewer ids could round differently and flip a
    draw.  The mass must be finite and non-negative, as ``choice`` checked
    and :func:`sample_sequence` checks."""
    cdf = (masked / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def sample_sequence(model: SamplerModel, config: GenerationConfig) -> TokenSequence:
    """Decode one sequence; deterministic given the config seed.

    Structural completion is authoritative: decoding stops when the builder's
    tree is complete.  Running past ``max_tokens`` raises
    :class:`MaxLengthExceededError`; a model that puts zero mass on every
    admissible token raises :class:`ZeroMassError`, and one that puts
    negative, NaN or infinite mass on them raises :class:`GenerationError`,
    greedy or not.  Sizes that are not a header
    :func:`~k2seq.sequence.encode_graph` writes, such as ``padded_n`` past
    the smallest power of ``k`` holding ``original_n``, raise
    :class:`~k2seq.sequence.SequenceError` before any token.

    Each draw picks the id ``rng.choice`` would (:func:`_draw`), so samples
    stay as they were.  The model's scores are only read.  The model gets
    the one growing id list (see :class:`SamplerModel`), and the drawn id
    goes to ``builder.step(token_id, vocab)``, whose mask lookup admits
    what the draw's mask admitted.
    """
    vocab = model.vocab
    if vocab.k != config.k:
        raise ValueError(f"model vocabulary has k={vocab.k}, config has k={config.k}")
    rng = np.random.default_rng(config.seed)
    if config.padded_n is not None:
        padded_n = config.padded_n
        original_n = config.original_n if config.original_n is not None else padded_n
    else:
        padded_n, original_n = config.sizes[rng.integers(len(config.sizes))]
    builder = IncrementalBuilder(config.k, padded_n, original_n, config.featured,
                                 config.node_vocab, config.edge_vocab)
    ids = [BOS]
    while not builder.complete:
        if len(ids) > config.max_tokens:
            raise MaxLengthExceededError(
                f"tree incomplete after {config.max_tokens} tokens")
        mask = builder_mask(builder, vocab)
        scores = np.asarray(model(ids, builder), dtype=float)
        if scores.shape != (vocab.size,):
            raise GenerationError(
                f"model returned shape {scores.shape}, expected ({vocab.size},)")
        masked = np.where(mask, scores, 0.0)
        total = masked.sum()
        if total <= 0.0:
            raise ZeroMassError("no probability mass on admissible tokens")
        if not total < np.inf or masked.min() < 0.0:
            raise GenerationError("model put negative, NaN or infinite mass on admissible tokens")
        token_id = int(masked.argmax()) if config.greedy else _draw(rng, masked, total)
        builder.step(token_id, vocab)
        ids.append(token_id)
    diag, grid = vocab._rows(np.array(ids[1:], dtype=np.int64))
    return TokenSequence._from_arrays(config.k, padded_n, original_n, diag, grid,
                                      config.featured, config.node_vocab, config.edge_vocab)
