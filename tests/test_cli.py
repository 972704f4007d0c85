import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k2seq import cli
from k2seq.cli import main
from k2seq.generators import Dataset, gen_planar, read_dataset, write_dataset
from k2seq.graphs import Graph, parse_edge_list, serialize_edge_list
from k2seq.sequence import encode_graph, read_token_stream, write_token_stream

from helpers import _is_connected, graph_strategy, is_planar_by_minors, random_er

STAR4 = Graph(n=4, edges=frozenset({(0, 1), (0, 2), (0, 3)}))
SINGLE_EDGE = Graph(n=4, edges=frozenset({(0, 1)}))


def write(path, text):
    path.write_text(text)
    return str(path)


def checkout_env():
    """The environment for a child Python that imports this checkout's k2seq."""
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


class TestEncodeDecode:
    def test_round_trip_with_ordering(self, tmp_path, capsys):
        src = write(tmp_path / "g.txt", serialize_edge_list(STAR4))
        stream = tmp_path / "g.k2s"
        back = tmp_path / "back.txt"
        assert main(["encode", "--k", "2", "--order", "cm",
                     "--in", src, "--out", str(stream)]) == 0
        assert stream.read_text() == "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 3\n"
        assert main(["decode", "--in", str(stream), "--out", str(back)]) == 0
        assert back.read_text() == "4 3\n0 1\n0 2\n0 3\n"

    def test_labeled_round_trip(self, tmp_path):
        g = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}),
                  node_labels={0: 1, 1: 0, 2: 1},
                  edge_labels={(0, 1): 2, (1, 2): 0},
                  node_vocab=2, edge_vocab=3)
        src = write(tmp_path / "g.txt", serialize_edge_list(g))
        stream = tmp_path / "g.k2s"
        back = tmp_path / "back.txt"
        assert main(["encode", "--k", "2", "--in", src, "--out", str(stream)]) == 0
        assert stream.read_text().startswith("2 4 3 1\n2 3\n")
        assert main(["decode", "--in", str(stream), "--out", str(back)]) == 0
        assert parse_edge_list(back.read_text()) == g

    def test_empty_graph_round_trip(self, tmp_path):
        src = write(tmp_path / "g.txt", "5 0\n")
        stream = tmp_path / "g.k2s"
        back = tmp_path / "back.txt"
        assert main(["encode", "--k", "2", "--order", "bfs",
                     "--in", src, "--out", str(stream)]) == 0
        assert main(["decode", "--in", str(stream), "--out", str(back)]) == 0
        assert back.read_text() == "5 0\n"


class TestStatsAndOrder:
    def test_stats_output(self, tmp_path, capsys):
        src = write(tmp_path / "g.txt", serialize_edge_list(STAR4))
        assert main(["stats", "--k", "2", "--order", "cm", "--in", src] ) == 0
        assert capsys.readouterr().out == (
            "ratio\t0.625\ntokens\t3\ndepth\t2\nattrs_full\t16\nattrs_pruned\t10\n")

    def test_order_writes_the_relabeled_graph(self, tmp_path, capsys):
        src = write(tmp_path / "g.txt", serialize_edge_list(STAR4))
        out = tmp_path / "ordered.txt"
        assert main(["order", "--scheme", "cm", "--print-perm",
                     "--in", src, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "1 0 2 3\n"
        assert out.read_text() == "4 3\n0 1\n1 2\n1 3\n"


class TestGenerateAndSample:
    def test_gen_dataset_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ds", tmp_path / "b.ds"
        argv = ["gen-dataset", "--family", "grid", "--count", "3", "--seed", "11",
                "--rows", "2:4", "--cols", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        ds = read_dataset(a.read_text())
        assert ds.name == "grid" and len(ds.graphs) == 3
        assert all(g.n % 3 == 0 for g in ds.graphs)

    def test_gen_dataset_er_and_eval_self_comparison(self, tmp_path, capsys):
        path = tmp_path / "er.ds"
        assert main(["gen-dataset", "--family", "er", "--count", "6", "--seed", "3",
                     "--n", "8:12", "--p", "0.3", "--out", str(path)]) == 0
        table = tmp_path / "table.tsv"
        assert main(["eval", "--ref", str(path), "--gen", str(path),
                     "--table", str(table)]) == 0
        assert capsys.readouterr().out == "deg\t0\nclus\t0\norbit\t0\n"
        assert table.read_text() == (
            "metric\tvalue\tsigma\ndeg\t0\t1\nclus\t0\t1\norbit\t0\t1\n")

    def test_orbit_eval_counts_graphs_past_128_nodes(self, tmp_path, capsys):
        path = write(tmp_path / "big.ds", write_dataset(
            Dataset("big", 0, (random_er(4, 300, 0.02), STAR4))))
        assert main(["eval", "--ref", path, "--gen", path, "--metrics", "orbit"]) == 0
        assert capsys.readouterr().out == "orbit\t0\n"

    def test_uniform_sampling_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ds", tmp_path / "b.ds"
        argv = ["sample", "--k", "2", "--padded-n", "8", "--count", "3", "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        ds = read_dataset(a.read_text())
        assert ds.name == "sample" and len(ds.graphs) == 3
        assert all(g.n == 8 for g in ds.graphs)

    def test_greedy_bigram_reproduces_a_single_training_graph(self, tmp_path):
        train = write(tmp_path / "train.ds",
                      write_dataset(Dataset("t", 0, (SINGLE_EDGE,))))
        out = tmp_path / "out.ds"
        assert main(["sample", "--k", "2", "--model", "ngram", "--greedy",
                     "--train", train, "--count", "1", "--out", str(out)]) == 0
        ds = read_dataset(out.read_text())
        assert ds.graphs == (SINGLE_EDGE,)


class TestExitCodes:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_missing_required_argument(self, tmp_path, capsys):
        assert main(["encode", "--k", "2", "--in", "x"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_metric_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path / "d.ds", write_dataset(Dataset("d", 0, (STAR4,))))
        assert main(["eval", "--ref", path, "--gen", path,
                     "--metrics", "nope"]) == 1

    def test_ngram_without_train_is_a_usage_error(self, tmp_path, capsys):
        assert main(["sample", "--k", "2", "--model", "ngram", "--padded-n", "4",
                     "--out", str(tmp_path / "o.ds")]) == 1

    def test_sample_without_any_size_source_is_a_usage_error(self, tmp_path):
        assert main(["sample", "--k", "2", "--out", str(tmp_path / "o.ds")]) == 1

    def test_bad_range_is_a_usage_error(self, tmp_path, capsys):
        assert main(["gen-dataset", "--family", "er", "--n", "9:4",
                     "--out", str(tmp_path / "o.ds")]) == 1
        assert main(["gen-dataset", "--family", "er", "--n", "x",
                     "--out", str(tmp_path / "o.ds")]) == 1

    @pytest.mark.parametrize("option, value, why", [
        ("--k", "5", "must be 2, 3 or 4"), ("--k", "1", "must be 2, 3 or 4"),
        ("--max-tokens", "0", "must be at least 1"), ("--padded-n", "-4", "must be at least 1"),
        ("--padded-n", "3", "must be 2**d for some d >= 1"),
        ("--padded-n", "4294967296", "padded size 4294967296 gives cell paths beyond int64"),
        ("--ngram-order", "0", "must be at least 1")])
    def test_bad_sample_option_is_a_usage_error(self, tmp_path, capsys, option, value, why):
        out = tmp_path / "o.ds"
        argv = ["sample", "--k", "2", "--padded-n", "4", "--out", str(out), option, value]
        assert main(argv) == 1
        assert f"usage error: argument {option}: {why}, got {value}" in capsys.readouterr().err
        assert not out.exists()
        good = {"--k": "4", "--padded-n": "16", "--max-tokens": "64"}.get(option, "1")
        assert main(argv[:-1] + [good]) == 0

    @pytest.mark.parametrize("argv", [["sample", "--k", "2", "--padded-n", "4"],
                                      ["gen-dataset", "--family", "er"]],
                             ids=["sample", "gen-dataset"])
    def test_negative_count_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o.ds"
        assert main(argv + ["--count", "-1", "--out", str(out)]) == 1
        assert "--count: must not be negative" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--count", "0", "--out", str(out)]) == 0

    def test_malformed_input_is_a_data_error(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.txt", "2 1\n1 0\n")
        assert main(["encode", "--k", "2", "--in", bad,
                     "--out", str(tmp_path / "o.k2s")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["2147483649 1\n0 2147483648\n", "4294967296 0\n"],
                             ids=["one-edge", "edgeless"])
    def test_graph_too_large_for_int64_cell_paths_is_a_data_error(self, tmp_path, capsys, text):
        # Padded to 2**32 at K=2: 32 base-4 digits per cell path, past int64,
        # whether or not the graph has edges.
        src = write(tmp_path / "g.txt", text)
        assert main(["encode", "--k", "2", "--in", src,
                     "--out", str(tmp_path / "o.k2s")]) == 2
        assert "beyond int64" in capsys.readouterr().err

    def test_non_canonical_header_is_a_data_error(self, tmp_path, capsys):
        # A 5-node graph pads to 8 at K=2; encode never writes 16.
        bad = write(tmp_path / "bad.k2s", "2 16 5 0\nd:100 d:100 d:110 d:010 o:0101\n")
        assert main(["decode", "--in", bad, "--out", str(tmp_path / "o.txt")]) == 2
        assert "power" in capsys.readouterr().err

    def test_missing_file_is_a_data_error(self, tmp_path):
        assert main(["encode", "--k", "2", "--in", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o.k2s")]) == 2

    def test_malformed_stream_is_a_data_error(self, tmp_path):
        bad = write(tmp_path / "bad.k2s", "2 4 4 0\nd:120\n")
        assert main(["decode", "--in", bad, "--out", str(tmp_path / "o.txt")]) == 2

    def test_perm_that_is_not_a_bijection_is_a_data_error(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.k2s", "2 4 4 0\nd:110 d:010 o:0101\nperm 1 1 2 3\n")
        assert main(["decode", "--in", bad, "--out", str(tmp_path / "o.txt")]) == 2
        assert "perm" in capsys.readouterr().err

    def test_bad_value_in_a_deep_level_names_the_token_and_level(self, tmp_path, capsys):
        # The third token sets the (0, 0) cell: a self-loop, three levels down.
        bad = write(tmp_path / "bad.k2s", "2 8 8 0\nd:100 d:100 d:110\n")
        assert main(["decode", "--in", bad, "--out", str(tmp_path / "o.txt")]) == 2
        err = capsys.readouterr().err
        assert "token 3 (level 3)" in err and "value 1 not allowed at slot 0" in err

    @pytest.mark.parametrize("vocab", ["-1 5", "0 2"])
    def test_featured_label_vocab_below_one_is_a_data_error(self, tmp_path, capsys, vocab):
        bad = write(tmp_path / "bad.k2s", f"2 4 3 1\n{vocab}\nd:1,1,1 d:1,4,2 o:4,3,0,0 d:1,0,0\n")
        assert main(["decode", "--in", bad, "--out", str(tmp_path / "o.txt")]) == 2
        assert "label vocab" in capsys.readouterr().err

    def test_zero_sigma_is_a_data_error(self, tmp_path, capsys):
        path = write(tmp_path / "d.ds", write_dataset(Dataset("d", 0, (STAR4,))))
        assert main(["eval", "--ref", path, "--gen", path, "--sigma", "0"]) == 2
        captured = capsys.readouterr()
        assert "sigma" in captured.err and captured.out == ""

    def test_undefined_ratio_is_a_data_error(self, tmp_path, capsys):
        src = write(tmp_path / "g.txt", "3 0\n")
        assert main(["stats", "--k", "2", "--in", src]) == 2


    def test_header_only_stream_with_bad_k_exits_at_once(self, tmp_path):
        bad = write(tmp_path / "bad.k2s", "1 4 4 0\n\n")
        proc = subprocess.run(
            [sys.executable, "-m", "k2seq.cli", "decode", "--in", bad,
             "--out", str(tmp_path / "o.txt")],
            capture_output=True, text=True, timeout=60, env=checkout_env())
        assert proc.returncode == 2
        assert "k must be >= 2" in proc.stderr


class TestOutputFiles:
    """Outputs are rewritten in place: the open has no ``O_TRUNC``, the
    bytes go from offset 0 and a regular file is cut to their length."""

    @pytest.mark.parametrize("old", [b"x" * 1000, b"y", b"0123456789abcdef!\n"],
                             ids=["longer-to-shorter", "shorter-to-longer", "equal-length"])
    def test_a_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old):
        out = tmp_path / "out.txt"
        out.write_bytes(old)
        inode = out.stat().st_ino
        cli._write(str(out), "0123456789abcdef\n")
        assert out.read_bytes() == b"0123456789abcdef\n"
        assert out.stat().st_ino == inode

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        out = tmp_path / "out.txt"
        real_write = cli.os.write
        monkeypatch.setattr(cli.os, "write", lambda fd, data: real_write(fd, data[:3]))
        cli._write(str(out), "0123456789abcdef\n")
        assert out.read_bytes() == b"0123456789abcdef\n"

    def test_a_hard_link_sees_the_new_output(self, tmp_path):
        src = write(tmp_path / "g.txt", serialize_edge_list(STAR4))
        out, link = tmp_path / "g.k2s", tmp_path / "link.k2s"
        out.write_text("old output, longer than the new one\n" * 3)
        os.link(out, link)
        assert main(["encode", "--k", "2", "--order", "cm", "--in", src, "--out", str(out)]) == 0
        assert link.read_text() == out.read_text() == "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 3\n"

    def test_a_symlinked_output_writes_its_target(self, tmp_path):
        target, out = tmp_path / "target.txt", tmp_path / "out.txt"
        target.write_text("old\n")
        out.symlink_to(target)
        cli._write(str(out), "new text\n")
        assert out.is_symlink() and target.read_text() == "new text\n"

    def test_a_new_output_gets_the_umask_mode(self, tmp_path):
        out = tmp_path / "new.txt"
        old = os.umask(0o027)
        try:
            cli._write(str(out), "text\n")
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o027 == 0o640

    def test_an_unencodable_text_leaves_the_file_as_it_was(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_bytes(b"before\n")
        with pytest.raises(UnicodeEncodeError):
            cli._write(str(out), "caf\u00e9\n")
        assert out.read_bytes() == b"before\n"

    def test_devnull_output_exits_0(self, tmp_path):
        src = write(tmp_path / "g.txt", serialize_edge_list(STAR4))
        assert main(["encode", "--k", "2", "--in", src, "--out", os.devnull]) == 0

    def test_a_directory_output_is_a_data_error(self, tmp_path, capsys):
        src = write(tmp_path / "g.txt", serialize_edge_list(STAR4))
        assert main(["encode", "--k", "2", "--in", src, "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("encode", "2 1\n1 0\n"), ("decode", "2 4 4 0\nd:120\n"), ("order", "3 1\n0 5\n")])
    def test_a_failed_command_leaves_an_existing_output_unchanged(self, tmp_path, command, text):
        bad = write(tmp_path / "bad.txt", text)
        out = tmp_path / "out.txt"
        out.write_bytes(b"an earlier output\n")
        options = {"encode": ["--k", "2"], "order": ["--scheme", "cm"]}.get(command, [])
        assert main([command, *options, "--in", bad, "--out", str(out)]) == 2
        assert out.read_bytes() == b"an earlier output\n"

    def test_no_output_is_opened_with_o_trunc(self, tmp_path, monkeypatch, capsys):
        src = write(tmp_path / "g.txt", serialize_edge_list(STAR4))
        ds = write(tmp_path / "d.ds", write_dataset(Dataset("d", 0, (STAR4, SINGLE_EDGE))))
        names = ("g.k2s", "back.txt", "ordered.txt", "sample.ds", "gen.ds", "table.tsv")
        outs = {name: tmp_path / name for name in names}
        for path in outs.values():
            path.write_text("an existing output, longer than most new ones\n" * 40)
        opened = []
        real_open = cli.os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", recording_open)
        calls = [
            ["encode", "--k", "2", "--order", "cm", "--in", src, "--out", str(outs["g.k2s"])],
            ["decode", "--in", str(outs["g.k2s"]), "--out", str(outs["back.txt"])],
            ["order", "--scheme", "bfs", "--in", src, "--out", str(outs["ordered.txt"])],
            ["sample", "--k", "2", "--padded-n", "4", "--out", str(outs["sample.ds"])],
            ["gen-dataset", "--family", "er", "--n", "5", "--out", str(outs["gen.ds"])],
            ["eval", "--ref", ds, "--gen", ds, "--table", str(outs["table.tsv"])],
        ]
        for argv in calls:
            assert main(argv) == 0, argv
        written = {path: flags for path, flags in opened if path in map(str, outs.values())}
        assert sorted(written) == sorted(map(str, outs.values()))
        assert not [path for path, flags in opened
                    if path in written and flags & os.O_TRUNC]
        assert outs["back.txt"].read_text() == serialize_edge_list(STAR4)


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_runs(self, tmp_path, capsys, monkeypatch):
        src = write(tmp_path / "g.txt", serialize_edge_list(STAR4))
        stream = str(tmp_path / "g.k2s")
        calls = [
            ["encode", "--k", "2", "--order", "cm", "--in", src, "--out", stream],
            ["stats", "--k", "3", "--in", src],
            ["encode", "--k", "2", "--in", src],
            ["decode", "--in", stream, "--out", str(tmp_path / "back.txt")],
            ["order", "--scheme", "nope", "--in", src, "--out", stream],
            ["stats", "--k", "2", "--order", "bfs", "--reverse", "--in", src],
            ["stats", "--help"],
            [],
            ["stats", "--k", "2", "--in", src],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        shared = [run(argv) for argv in calls]
        assert len(built) == 1
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert len(built) == 1 + len(calls)
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 1, 0, 1, 0, 0, 1, 0]


@st.composite
def mutated_stream_bytes(draw):
    """A valid encode output of a small graph with one byte flipped,
    replaced, inserted or deleted."""
    g = draw(graph_strategy(max_n=12, labeled=draw(st.booleans())))
    k = draw(st.sampled_from([2, 3]))
    order = draw(st.sampled_from(["identity", "cm"]))
    data = bytearray(write_token_stream(encode_graph(g, k, ordering=order)).encode())
    op = draw(st.sampled_from(["flip", "replace", "insert", "delete"]))
    at = draw(st.integers(0, len(data) - (op != "insert")))
    byte = draw(st.one_of(st.sampled_from(b"0123456789 ,:dop\n-"), st.integers(0, 255)))
    if op == "flip":
        data[at] ^= 1 << draw(st.integers(0, 7))
    elif op == "replace":
        data[at] = byte
    elif op == "insert":
        data.insert(at, byte)
    else:
        del data[at]
    return bytes(data)


class TestByteMutations:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mutated_stream_bytes())
    def test_decode_exits_0_or_2_and_never_raises(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "s.k2s"
            src.write_bytes(data)
            code = main(["decode", "--in", str(src), "--out", str(Path(tmp) / "g.txt")])
        assert code in (0, 2)
        if code == 0:
            # Every accepted stream is the writer's own bytes.
            text = data.decode("ascii")
            assert write_token_stream(read_token_stream(text)) == text


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        src = write(tmp_path / "g.txt", serialize_edge_list(STAR4))
        out = tmp_path / "g.k2s"
        proc = subprocess.run(
            [sys.executable, "-m", "k2seq.cli", "encode", "--k", "2",
             "--in", src, "--out", str(out)],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 0
        assert out.read_text().startswith("2 4 4 0\n")


class TestImports:
    def test_package_and_cli_import_without_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import k2seq, k2seq.cli, sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=60, env=checkout_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_planar_generator_imports_its_triangulation_on_demand(self):
        for n, seed in ((8, 3), (64, 5)):
            g = gen_planar(n, seed)
            assert g.n == n and g.m <= 3 * n - 6 and _is_connected(g)
            assert g.edges == gen_planar(n, seed).edges
        assert is_planar_by_minors(gen_planar(8, 3))
