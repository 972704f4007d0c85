"""Lossless K^2-tree graph codec with a sequential token form, constrained
autoregressive samplers, synthetic dataset generators, and graph-distribution
metrics."""

from .graphs import (Graph, GraphError, ParseError, apply_ordering,
                     invert_permutation, order_nodes, padded_size,
                     parse_edge_list, serialize_edge_list)
from .tree import (K2Tree, TreeNode, TreeStats, build_k2tree, rebuild_graph,
                   tree_stats)
from .sequence import (EmptyGraphError, IncrementalBuilder, InvalidTokenError,
                       SequenceError, Token, TokenMismatchError,
                       TokenSequence, TrailingTokensError,
                       TruncatedSequenceError, Vocabulary, decode_graph,
                       detokenize_build, encode_graph, flatten_tokenize,
                       node_position, position_paths, prune,
                       read_token_stream, write_token_stream)
from .sampling import (GenerationConfig, GenerationError,
                       MaxLengthExceededError, ZeroMassError, ngram_model,
                       sample_sequence, uniform_model)
from .metrics import (Histogram, KernelConfig, MetricsError,
                      clustering_histogram, compression_ratio,
                      degree_histogram, evaluate_sets, mmd, orbit4_counts)
from .generators import (Dataset, gen_community, gen_er, gen_grid, gen_planar,
                         read_dataset, write_dataset)

__version__ = "0.1.0"
