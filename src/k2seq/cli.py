"""Command-line interface.

Subcommands: encode, decode, stats, order, sample, gen-dataset, eval.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .generators import (FAMILIES, Dataset, gen_community, gen_er, gen_grid,
                         gen_planar, read_dataset, write_dataset)
from .graphs import (GraphError, order_nodes, apply_ordering, padded_size, parse_edge_list,
                     serialize_edge_list)
from .metrics import (METRIC_NAMES, KernelConfig, MetricsError, evaluate_sets,
                      sequence_ratio)
from .sampling import (GenerationConfig, GenerationError, empirical_sizes,
                       ngram_model, sample_sequence, uniform_model)
from .sequence import (SequenceError, Vocabulary, _check_header, decode_graph, encode_graph,
                       full_tree_attrs, read_token_stream, tree_levels,
                       write_token_stream)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _bounded(text: str, low: int, high: int | None, why: str) -> int:
    value = int(text)
    if value < low or high is not None and value > high:
        raise argparse.ArgumentTypeError(f"{why}, got {value}")
    return value


def count(text: str) -> int:
    """A ``--count``: a non-negative integer (argparse names the type in
    its message for any other text)."""
    return _bounded(text, 0, None, "must not be negative")


def positive(text: str) -> int:
    """A ``--max-tokens``, ``--padded-n`` or ``--ngram-order``: an integer
    of at least 1."""
    return _bounded(text, 1, None, "must be at least 1")


def vocabulary_k(text: str) -> int:
    """A ``sample --k``: 2, 3 or 4, as a :class:`Vocabulary` holds."""
    return _bounded(text, 2, 4, "must be 2, 3 or 4")


def _float_str(x: float) -> str:
    return format(x, ".12g")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="ascii")


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII, rewriting the file in place.

    The text is encoded before the file is opened, so an encoding error
    leaves the file as it was.  The open has no ``O_TRUNC``: the bytes go
    from offset 0, then a regular file is cut to their length, so the
    output keeps its inode and hard links, a symlink writes its target and
    a new file gets mode ``0o666 & ~umask``, as with ``open(path, "w")``.
    On some filesystems a truncating open of an existing file stalls for
    tens of ms (seen on ext4); a rewrite of equal or greater length cuts
    nothing and skips that, a shorter one still cuts.  The rewrite is not
    atomic, as before: a crash between the write and the cut of a shorter
    rewrite can leave the old file's tail after the new bytes.  A FIFO or
    device (``/dev/null``) is only written.
    """
    data = text.encode("ascii")
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def _cmd_encode(args) -> int:
    g = parse_edge_list(_read(args.infile))
    s = encode_graph(g, args.k, ordering=args.order, reverse=args.reverse)
    _write(args.outfile, write_token_stream(s))
    return 0


def _cmd_decode(args) -> int:
    # Bytes as they are, with no newline translation: encode writes only '\n'.
    s = read_token_stream(Path(args.infile).read_bytes().decode("ascii"))
    g = decode_graph(s)
    _write(args.outfile, serialize_edge_list(g))
    return 0


def _cmd_stats(args) -> int:
    g = parse_edge_list(_read(args.infile))
    s = encode_graph(g, args.k, ordering=args.order, reverse=args.reverse)
    print(f"ratio\t{_float_str(sequence_ratio(s))}")
    print(f"tokens\t{len(s.diag)}")
    print(f"depth\t{tree_levels(s.padded_n, s.k)}")
    print(f"attrs_full\t{full_tree_attrs(s)}")
    print(f"attrs_pruned\t{s.total_values}")
    return 0


def _cmd_order(args) -> int:
    g = parse_edge_list(_read(args.infile))
    perm = order_nodes(g, args.scheme, reverse=args.reverse)
    if args.print_perm:
        print(" ".join(str(p) for p in perm))
    _write(args.outfile, serialize_edge_list(apply_ordering(g, perm)))
    return 0


def _cmd_sample(args) -> int:
    # The original size defaults to the padded one: it must pass the header rule.
    if args.padded_n is not None:
        try:
            _check_header(args.k, args.padded_n, args.padded_n, False, 0, 0)
        except SequenceError as exc:
            power = padded_size(args.padded_n, args.k) == args.padded_n
            why = exc if power else f"must be {args.k}**d for some d >= 1"
            raise UsageError(f"argument --padded-n: {why}, got {args.padded_n}") from None
    vocab = Vocabulary(args.k)
    sizes = None
    if args.train:
        corpus_graphs = read_dataset(_read(args.train)).graphs
        corpus = [encode_graph(g, args.k, ordering=args.order) for g in corpus_graphs]
        sizes = empirical_sizes(corpus)
    if args.model == "ngram":
        if not args.train:
            raise UsageError("--model ngram requires --train")
        model = ngram_model(corpus, args.ngram_order)
    else:
        model = uniform_model(vocab)
    if args.padded_n is None and sizes is None:
        raise UsageError("either --padded-n or --train is required for sizes")
    graphs = []
    for i in range(args.count):
        config = GenerationConfig(k=args.k, max_tokens=args.max_tokens,
                                  seed=args.seed + i, padded_n=args.padded_n,
                                  sizes=sizes, greedy=args.greedy)
        graphs.append(decode_graph(sample_sequence(model, config)))
    ds = Dataset(name="sample", seed=args.seed, graphs=tuple(graphs))
    _write(args.outfile, write_dataset(ds))
    return 0


def _parse_range(text: str, what: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return v, v
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if lo <= hi:
                return lo, hi
    except ValueError:
        pass
    raise UsageError(f"{what} must be an integer or 'lo:hi' range, got {text!r}")


def _cmd_gen_dataset(args) -> int:
    rng = np.random.default_rng(args.seed)

    def draw(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    graphs = []
    for _ in range(args.count):
        sub_seed = int(rng.integers(0, 2 ** 32))
        if args.family == "grid":
            rows = draw(*_parse_range(args.rows, "--rows"))
            cols = draw(*_parse_range(args.cols, "--cols"))
            graphs.append(gen_grid(rows, cols))
        elif args.family == "community":
            n = draw(*_parse_range(args.n or "12:20", "--n"))
            graphs.append(gen_community(n, args.p_intra, args.inter_frac, sub_seed))
        elif args.family == "planar":
            n = draw(*_parse_range(args.n or "64", "--n"))
            graphs.append(gen_planar(n, sub_seed))
        else:
            n = draw(*_parse_range(args.n or "4:64", "--n"))
            graphs.append(gen_er(n, args.p, sub_seed))
    ds = Dataset(name=args.family, seed=args.seed, graphs=tuple(graphs))
    _write(args.outfile, write_dataset(ds))
    return 0


def _cmd_eval(args) -> int:
    ref = read_dataset(_read(args.ref)).graphs
    gen = read_dataset(_read(args.gen)).graphs
    metrics = tuple(m for m in args.metrics.split(",") if m)
    for m in metrics:
        if m not in METRIC_NAMES:
            raise UsageError(f"unknown metric {m!r}; choose from {', '.join(METRIC_NAMES)}")
    config = KernelConfig(sigma=args.sigma)
    values = evaluate_sets(ref, gen, metrics, config)
    lines = [f"{name}\t{_float_str(values[name])}" for name in metrics]
    print("\n".join(lines))
    if args.table:
        rows = ["metric\tvalue\tsigma"]
        rows.extend(f"{name}\t{_float_str(values[name])}\t{_float_str(args.sigma)}"
                    for name in metrics)
        _write(args.table, "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="k2seq", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("encode", help="encode an edge list into a token stream")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", choices=("bfs", "dfs", "cm", "identity"), default="identity")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a token stream back to an edge list")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("stats", help="print compression statistics for a graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", choices=("bfs", "dfs", "cm", "identity"), default="identity")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("order", help="reorder a graph's node ids")
    p.add_argument("--scheme", choices=("bfs", "dfs", "cm"), required=True)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--print-perm", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("sample", help="sample graphs from a sequence model")
    p.add_argument("--model", choices=("uniform", "ngram"), default="uniform")
    p.add_argument("--ngram-order", type=positive, default=2)
    p.add_argument("--train", help="dataset file used to train and to draw sizes")
    p.add_argument("--k", type=vocabulary_k, required=True)
    p.add_argument("--order", choices=("bfs", "dfs", "cm", "identity"), default="identity")
    p.add_argument("--count", type=count, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--padded-n", type=positive, dest="padded_n")
    p.add_argument("--max-tokens", type=positive, default=4096)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("gen-dataset", help="generate a synthetic graph dataset")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--count", type=count, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", default="10:20")
    p.add_argument("--cols", default="10:20")
    p.add_argument("--n", help="node count (int or lo:hi)")
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--p-intra", type=float, dest="p_intra", default=0.7)
    p.add_argument("--inter-frac", type=float, dest="inter_frac", default=0.05)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("eval", help="compare two datasets with MMD metrics")
    p.add_argument("--ref", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--metrics", default=",".join(METRIC_NAMES))
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--table", help="also write a TSV table to this path")
    p.set_defaults(func=_cmd_eval)

    return parser


@lru_cache(maxsize=1)  # once per process: building the parser costs more than a parse
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, SequenceError, MetricsError, GenerationError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
