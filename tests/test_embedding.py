"""Embedding file handling, the parsed-table cache, tokenization and document embedding."""

import errno
import hashlib
import struct
import tempfile
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subspace_lvq import atomic, embedding
from subspace_lvq.embedding import (
    CACHE_SUFFIX,
    EmbeddingTable,
    embed,
    load_embeddings,
    load_stopwords,
    preprocess,
    remove_stopwords,
    save_embeddings,
    tokenize,
)
from subspace_lvq.errors import DimensionError, EmptyDocumentError, FormatError
from subspace_lvq.synth import generate


class TestLoadEmbeddings:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        table = load_embeddings(path)
        assert table.dim == 2
        assert len(table) == 2
        np.testing.assert_array_equal(table.get("a"), [1.0, 0.0])

    def test_loaded_vectors_are_read_only(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        for table in (load_embeddings(path), load_embeddings(path)):  # parse, then cache hit
            with pytest.raises(ValueError, match="read-only"):
                table["a"][0] = 9.0
            np.testing.assert_array_equal(table["a"], [1.0, 0.0])

    def test_from_no_vectors(self):
        table = EmbeddingTable.from_vectors(3, {})
        assert table.dim == 3
        assert len(table) == 0

    def test_repr_shows_no_words_or_values(self):
        """A traceback or log line that shows a table must not print the table."""
        words = 20_000   # the embload workload's table: 20k words x 300
        table = EmbeddingTable({f"w{i}": i for i in range(words)}, np.zeros((words, 300)))
        assert len(repr(table)) < 200

    def test_tables_compare_by_words_and_vectors(self):
        vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        table = EmbeddingTable.from_vectors(2, vectors)
        assert table == EmbeddingTable.from_vectors(2, dict(vectors))
        assert table != EmbeddingTable.from_vectors(2, {**vectors, "b": np.array([0.0, 2.0])})
        assert table != EmbeddingTable.from_vectors(2, {**vectors, "c": np.array([1.0, 1.0])})
        assert table == EmbeddingTable.from_vectors(2, dict(reversed(vectors.items())))
        with pytest.raises(TypeError, match="unhashable"):
            hash(table)

    def test_expected_dim_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        with pytest.raises(DimensionError):
            load_embeddings(path, expected_dim=3)

    def test_generator_roundtrip_is_bit_exact(self, tmp_path):
        corpus = generate(docs_per_class=2, dim=7, seed=5)
        assert len(corpus.table) == 170
        path = tmp_path / "emb.txt"
        save_embeddings(corpus.table, path)
        reloaded = load_embeddings(path)
        assert set(reloaded.entries) == set(corpus.table.entries)
        for word, vec in corpus.table.entries.items():
            np.testing.assert_array_equal(reloaded.get(word), vec)

    def test_save_load_idempotent_on_entries(self, tmp_path):
        table = EmbeddingTable.from_vectors(3, {
            "x": np.array([0.1, -0.25, 1e-17]),
            "y": np.array([1.0, 2.0, 3.0]),
        })
        first = tmp_path / "a.txt"
        save_embeddings(table, first)
        loaded = load_embeddings(first)
        second = tmp_path / "b.txt"
        save_embeddings(loaded, second)
        assert first.read_text() == second.read_text()

    def test_malformed_float(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 oops\n")
        with pytest.raises(FormatError, match="malformed float"):
            load_embeddings(path)

    # float() reads each of these values: as 10.0, 12.0 and 0.3.
    @pytest.mark.parametrize("line", ["the 1_0 0.2 0.3", "the \u0661\u0662 0.2 0.3",
                                      "the 0.1 0.2 \uff10.3"])
    def test_float_text_outside_the_format_rejected(self, tmp_path, line):
        path = tmp_path / "emb.txt"
        path.write_text(f"a 0.1 0.2 0.3\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"emb.txt:2: malformed float"):
            load_embeddings(path)

    def test_word_may_hold_underscore_and_non_ascii(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("new_york 0.5 1e-3\nexpulsión -2 3.25\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table["new_york"].tolist() == [0.5, 0.001]
        assert table["expulsión"].tolist() == [-2.0, 3.25]

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(FormatError, match="inconsistent dimension"):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_embeddings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_embeddings(tmp_path / "nope.txt")

    def test_more_rows_than_counted_is_a_format_error(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        monkeypatch.setattr(embedding, "_row_capacity", lambda path: 1)
        with pytest.raises(FormatError, match="emb.txt: file changed while it was read"):
            load_embeddings(path)

    def test_duplicate_words_last_wins(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0\na 2.0\n")
        with caplog.at_level("WARNING"):
            table = load_embeddings(path)
        assert table.get("a")[0] == 2.0
        assert any("duplicate" in rec.message for rec in caplog.records)


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("The Court's decision.") == ["the", "court's", "decision"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_application_numbers_kept_long_digit_runs_dropped(self):
        assert tokenize("no. 11185/84 home") == ["no", "11185/84", "home"]
        assert tokenize("in 1984 and 11185") == ["in", "1984", "and"]

    def test_strips_subtoken_punctuation(self):
        assert tokenize("'quoted' (parenthetical) end?!") == [
            "quoted", "parenthetical", "end"]

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestStopwords:
    def test_removal_preserves_order(self):
        kept, dropped = remove_stopwords(
            ["the", "court", "is", "adjourned"], {"the", "is"})
        assert kept == ["court", "adjourned"]
        assert dropped == 2

    def test_all_stopwords(self):
        kept, dropped = remove_stopwords(["a", "a", "the"], {"a", "the"})
        assert kept == [] and dropped == 3

    def test_empty_stoplist_is_identity(self):
        tokens = ["x", "y", "x"]
        kept, dropped = remove_stopwords(tokens, frozenset())
        assert kept == tokens and dropped == 0

    def test_default_list_loads(self):
        stop = load_stopwords()
        assert "the" in stop and "and" in stop
        assert "court" not in stop

    def test_custom_file_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\n\nBar\n")
        stop = load_stopwords(path)
        assert stop == {"foo", "bar"}


class TestEmbed:
    def table(self):
        return EmbeddingTable.from_vectors(2, {
            "court": np.array([1.0, 0.0]),
            "home": np.array([0.0, 1.0]),
        })

    def test_oov_skipped_and_counted(self):
        doc = preprocess("d1", "court zzzunknown", frozenset())
        matrix = embed(doc, self.table())
        assert matrix.n_words == 1
        assert doc.dropped_oov == 1
        assert doc.coverage == pytest.approx(0.5)

    def test_full_coverage(self):
        doc = preprocess("d2", "court home", frozenset())
        matrix = embed(doc, self.table())
        assert matrix.n_words == 2
        assert doc.coverage == 1.0

    def test_repeated_word_repeats_column(self):
        doc = preprocess("d3", "court home court", frozenset())
        matrix = embed(doc, self.table())
        assert matrix.n_words == 3
        np.testing.assert_array_equal(matrix.columns[:, 0], matrix.columns[:, 2])

    def test_all_oov_raises_with_doc_id(self):
        doc = preprocess("d4", "zzz qqq", frozenset())
        with pytest.raises(EmptyDocumentError) as err:
            embed(doc, self.table())
        assert err.value.doc_id == "d4"

    @given(st.lists(st.sampled_from(["court", "home", "zzz", "law"]),
                    min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_columns_match_table_lookup(self, words):
        rng = np.random.default_rng(0)
        table = EmbeddingTable.from_vectors(3, {
            w: rng.standard_normal(3) for w in ["court", "home", "law"]})
        doc = preprocess("p", " ".join(words), frozenset())
        known = [w for w in words if w in table.entries]
        if not known:
            with pytest.raises(EmptyDocumentError):
                embed(doc, table)
            return
        matrix = embed(doc, table)
        assert matrix.tokens == known
        for j, word in enumerate(matrix.tokens):
            np.testing.assert_array_equal(matrix.columns[:, j], table.get(word))


def cache_of(path):
    return path.with_name(path.name + CACHE_SUFFIX)


def assert_same_table(a, b):
    assert a.dim == b.dim
    assert list(a.entries) == list(b.entries)
    for word, vec in a.entries.items():
        assert vec.dtype == np.float64
        assert vec.tobytes() == b.entries[word].tobytes()


_words = st.text(alphabet="abcé\t", max_size=3)
_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestEmbeddingCache:
    @given(st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.one_of(st.none(), st.tuples(_words, st.lists(_floats, min_size=dim, max_size=dim))),
        min_size=1, max_size=12)))
    # TestEmbeddingCacheThreaded runs this property again under a fixture
    # that only sets the read chunk, the same for every example.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.differing_executors])
    def test_hit_is_bit_identical_to_parse(self, lines):
        """None is a blank line; repeated words keep the last vector in first-seen order."""
        expected = {}
        for line in lines:
            if line is not None:
                expected[line[0]] = line[1]
        if not expected:
            return
        text = "".join("\n" if line is None else
                       line[0] + "".join(" " + repr(v) for v in line[1]) + "\n"
                       for line in lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.txt"
            path.write_text(text, encoding="utf-8")
            parsed = load_embeddings(path)
            assert cache_of(path).exists()
            cached = load_embeddings(path)
            assert_same_table(parsed, cached)
            assert list(parsed.entries) == list(expected)
            for word, values in expected.items():
                assert parsed.get(word).tobytes() == np.array(values).tobytes()
            for table in (parsed, cached):   # rows of one contiguous (V, D) matrix
                addresses = [v.__array_interface__["data"][0] for v in table.entries.values()]
                assert addresses == [addresses[0] + 8 * table.dim * i
                                     for i in range(len(addresses))]

    def test_hit_reads_no_text(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        parsed = load_embeddings(path)

        def fail(path):
            raise AssertionError(f"{path} was parsed although its cache is valid")

        monkeypatch.setattr(embedding, "_parse_text", fail)
        assert_same_table(parsed, load_embeddings(path))

    def test_version_3_cache_built_by_hand_is_a_hit(self, tmp_path, monkeypatch):
        """README's version-3 layout, built here without the package's writer, is read as is."""
        text = b"a 1.0 0.5\nb 0.0 1.0\na 2.0 3.0\n"
        path = tmp_path / "emb.txt"
        path.write_bytes(text)
        digest, words = hashlib.sha256(text).hexdigest().encode("ascii"), b"a\nb"
        matrix = np.array([[2.0, 3.0], [0.0, 1.0]], dtype="<f8").tobytes()
        crc = (1).to_bytes(8, "little")   # the duplicate count, then the digest, words, matrix
        crc = zlib.crc32(matrix, zlib.crc32(words, zlib.crc32(digest, zlib.crc32(crc))))
        cache = (struct.pack("<8sI64sQIQQQQ", b"SLVQEMB\0", 3, digest, 1, crc, len(text),
                             len(words), 2, 2) + text + words + matrix)
        cache_of(path).write_bytes(cache)

        def fail(path):
            raise AssertionError(f"{path} was parsed although its cache is valid")

        monkeypatch.setattr(embedding, "_parse_text", fail)
        table = load_embeddings(path)
        assert list(table) == ["a", "b"]
        assert table["a"].tolist() == [2.0, 3.0] and table["b"].tolist() == [0.0, 1.0]
        assert cache_of(path).read_bytes() == cache

    def test_edited_file_rebuilds_cache(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        load_embeddings(path)
        old_cache = cache_of(path).read_bytes()
        path.write_text("a 1.0 0.5\nb 0.0 2.0\nc 3.0 3.0\n")
        table = load_embeddings(path)
        assert table.get("b")[1] == 2.0 and "c" in table
        assert cache_of(path).read_bytes() != old_cache
        assert_same_table(table, load_embeddings(path))

    @pytest.mark.parametrize("damage", [
        "truncated", "flipped_byte", "wrong_version", "trailing_bytes", "nan_matrix", "empty",
        "duplicate_words", "not_npy", "wrong_digest", "rows_beyond_file", "float32_matrix",
        "words_not_utf8", "zero_dim", "header_sizes_disagree", "version_1", "version_2",
        "text_copy_differs", "text_copy_short", "text_longer_than_copy",
        "header_text_size_disagrees",
    ])
    def test_damaged_cache_is_rebuilt(self, tmp_path, monkeypatch, caplog, damage):
        path = tmp_path / "emb.txt"
        path.write_text("alpha 0.25 -1.5 3.0\nbeta 1e-300 2.0 -0.0\ngamma 7.0 8.0 9.0\n")
        reference = load_embeddings(path)
        cache = cache_of(path)
        good = cache.read_bytes()
        header, text, blob, matrix = read_cache_records(cache)
        if damage == "truncated":
            cache.write_bytes(good[:-7])
        elif damage == "flipped_byte":
            damaged = bytearray(good)
            damaged[-5] ^= 0x01   # inside the matrix data: every size stays consistent
            cache.write_bytes(bytes(damaged))
        elif damage == "wrong_version":
            header["version"] += 1
            write_cache_records(cache, header, text, blob, matrix)
        elif damage == "trailing_bytes":
            cache.write_bytes(good + b"\0")
        elif damage == "nan_matrix":
            matrix[1, 1] = np.nan
            header["checksum"] = checksum(header, blob, matrix)
            write_cache_records(cache, header, text, blob, matrix)
        elif damage == "empty":
            cache.write_bytes(b"")
        elif damage == "duplicate_words":
            blob = b"alpha\nbeta\nalpha"
            header["checksum"] = checksum(header, blob, matrix)
            write_cache_records(cache, header, text, blob, matrix)
        elif damage == "not_npy":   # garbage in place of the magic
            cache.write_bytes(b"garbage!" + good[8:])
        elif damage == "wrong_digest":   # the CRC covers the digest
            header["digest"] = b"0" * 64
            write_cache_records(cache, header, text, blob, matrix)
        elif damage == "rows_beyond_file":   # the header promises a fourth row
            header["rows"] = 4
            write_cache_records(cache, header, text, blob, matrix)
        elif damage == "words_not_utf8":
            blob = b"alpha\nbeta\ngamm\xff"
            header["checksum"] = checksum(header, blob, matrix)
            write_cache_records(cache, header, text, blob, matrix)
        elif damage == "float32_matrix":   # 4 bytes a value: the sizes miss the file's
            matrix = matrix.astype(np.float32)
            header["checksum"] = checksum(header, blob, matrix)
            write_cache_records(cache, header, text, blob, matrix)
        elif damage == "zero_dim":   # every other check passes on a (3, 0) matrix
            header["dim"] = 0
            header["checksum"] = checksum(header, blob)
            write_cache_records(cache, header, text, blob, matrix[:, :0])
        elif damage == "header_sizes_disagree":
            header["dim"] = 2
            write_cache_records(cache, header, text, blob, matrix)
        elif damage == "version_1":
            write_version_1_cache(cache, header, blob, matrix)
        elif damage == "version_2":
            write_version_2_cache(cache, header, blob, matrix)
        elif damage == "text_copy_differs":   # passes every check of the cache itself
            text = text.replace(b"beta", b"betb")
            write_cache_records(cache, header, text, blob, matrix)
        elif damage == "text_copy_short":   # the header still counts the full text
            write_cache_records(cache, header, text[:-3], blob, matrix)
        elif damage == "text_longer_than_copy":   # passes every check of the cache itself
            header["text_bytes"] -= 1
            write_cache_records(cache, header, text[:-1], blob, matrix)
        elif damage == "header_text_size_disagrees":
            header["text_bytes"] += 1
            write_cache_records(cache, header, text, blob, matrix)
        if damage in ("text_copy_differs", "text_longer_than_copy"):
            with monkeypatch.context() as patch:   # every other check passes
                patch.setattr(embedding, "_same_text", lambda *args: True)
                assert embedding._read_hit(path, cache) is not None
        caplog.clear()
        with caplog.at_level("INFO", logger=embedding.__name__):
            assert_same_table(reference, load_embeddings(path))
        rebuilt = [rec.getMessage() for rec in caplog.records if "rebuilding" in rec.getMessage()]
        assert len(rebuilt) == 1
        if damage in ("version_1", "version_2"):
            assert rebuilt == [f"{cache}: stale or damaged embedding cache, rebuilding"]
        assert cache.read_bytes() == good
        assert good.startswith(embedding._CACHE_MAGIC)

    def test_text_is_compared_only_on_a_hit(self, tmp_path, monkeypatch):
        """A first load parses at once; a later one compares the text with the cache's copy."""
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        calls = []
        same_text = embedding._same_text

        def spy(text, cache, *args):
            calls.append((text.name, cache))
            return same_text(text, cache, *args)

        monkeypatch.setattr(embedding, "_same_text", spy)
        parsed = load_embeddings(path)
        assert calls == [] and cache_of(path).exists()
        assert_same_table(parsed, load_embeddings(path))
        assert calls == [(str(path), cache_of(path))]

    def test_text_edited_after_the_parse_leaves_no_cache(self, tmp_path, monkeypatch, caplog):
        """A cache never pairs a copy of the new text with the table parsed from the old."""
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        parse = embedding._parse_text

        def parse_then_edit(path):
            parsed = parse(path)
            path.write_text("a 1.0 0.5\nb 0.0 2.0\n")   # same length: only the hash differs
            return parsed

        monkeypatch.setattr(embedding, "_parse_text", parse_then_edit)
        with caplog.at_level("WARNING"):
            assert load_embeddings(path).get("b")[1] == 1.0
        assert list(tmp_path.iterdir()) == [path]
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{cache_of(path)}: cannot write embedding cache: {path} changed after it was parsed"]
        monkeypatch.setattr(embedding, "_parse_text", parse)
        assert load_embeddings(path).get("b")[1] == 2.0
        assert load_embeddings(path).get("b")[1] == 2.0   # a hit on the new text

    def test_cache_replaced_between_compare_and_read_is_not_used(self, tmp_path, monkeypatch,
                                                                  caplog):
        """The text's comparison and the matrix's read must have opened the same cache."""
        path, other = tmp_path / "emb.txt", tmp_path / "other.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        load_embeddings(path)   # the cache the read opens: a table of the old text
        other.write_text("a 1.0 0.5\nb 0.0 2.0\n")   # the edit, at the same length
        load_embeddings(other)
        path.write_bytes(other.read_bytes())
        same_text = embedding._same_text

        def replace_then_compare(*args):
            cache_of(other).replace(cache_of(path))   # a valid cache whose copy is the new text
            return same_text(*args)

        monkeypatch.setattr(embedding, "_same_text", replace_then_compare)
        with caplog.at_level("INFO", logger=embedding.__name__):
            assert load_embeddings(path).get("b")[1] == 2.0
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{cache_of(path)}: stale or damaged embedding cache, rebuilding"]
        monkeypatch.setattr(embedding, "_same_text", same_text)
        monkeypatch.setattr(embedding, "_parse_text", None)   # the rewritten cache is a hit
        assert load_embeddings(path).get("b")[1] == 2.0

    def test_cache_removed_after_the_existence_check_is_rebuilt(self, tmp_path, monkeypatch,
                                                                 caplog):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        good = load_embeddings(path)
        read_hit = embedding._read_hit

        def remove_then_read(path, cache):
            cache.unlink()
            return read_hit(path, cache)

        monkeypatch.setattr(embedding, "_read_hit", remove_then_read)
        with caplog.at_level("INFO", logger=embedding.__name__):
            assert_same_table(good, load_embeddings(path))
        assert caplog.records == []
        monkeypatch.setattr(embedding, "_read_hit", read_hit)
        monkeypatch.setattr(embedding, "_parse_text", None)   # the rewritten cache is a hit
        assert_same_table(good, load_embeddings(path))

    def test_unwritable_directory_still_loads(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        real_open = atomic.os.open

        def refuse(name, *args, **kwargs):
            if Path(name).parent == tmp_path:
                raise PermissionError(errno.EACCES, "Permission denied", str(name))
            return real_open(name, *args, **kwargs)

        monkeypatch.setattr(atomic.os, "open", refuse)
        with caplog.at_level("WARNING"):
            table = load_embeddings(path)
        assert table.get("b")[1] == 1.0
        assert any("cannot write embedding cache" in rec.message for rec in caplog.records)
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_cache_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\n")
        cache_of(path).mkdir()   # the rename onto the cache path fails
        assert load_embeddings(path).get("a")[1] == 0.5
        assert sorted(tmp_path.iterdir()) == [path, cache_of(path)]
        assert cache_of(path).is_dir() and not any(cache_of(path).iterdir())

    @pytest.mark.parametrize("hit", [False, True])
    def test_duplicates_and_expected_dim_on_hit_and_miss(self, tmp_path, caplog, hit):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 2.0\nb 3.0 4.0\na 5.0 6.0\nb 7.0 8.0\n")
        if hit:
            load_embeddings(path)
            assert cache_of(path).exists()
        caplog.clear()
        with caplog.at_level("WARNING"):
            table = load_embeddings(path, expected_dim=2)
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{path}: 2 duplicate words, last occurrence kept"]
        np.testing.assert_array_equal(table.get("a"), [5.0, 6.0])
        with pytest.raises(DimensionError, match="dimension 2 does not match expected 3"):
            load_embeddings(path, expected_dim=3)

    @pytest.mark.parametrize("text", ["", "a 1.0\nb oops\n", "a 1.0 2.0\nb 1.0\n", "a inf\n",
                                      "solo\n"])
    def test_failed_parse_leaves_no_cache(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_embeddings(path)
        assert list(tmp_path.iterdir()) == [path]

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"caf\xe9 1.0\n")
        with pytest.raises(FormatError, match="UTF-8"):
            load_embeddings(path)

    def test_carriage_return_line_ends(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 1.0 2.0\r\nb 3.0 4.0\rc 5.0 6.0")
        table = load_embeddings(path)
        assert list(table.entries) == ["a", "b", "c"]
        assert_same_table(table, load_embeddings(path))

    def test_unreadable_text_beside_valid_cache(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        load_embeddings(path)
        good = cache_of(path).read_bytes()
        path.unlink()
        path.mkdir()   # opening a directory for reading fails
        (path / ("x" * 40)).touch()   # a size above a few bytes on every file system
        with pytest.raises(FormatError, match="cannot read embedding file: "):
            load_embeddings(path)
        assert cache_of(path).read_bytes() == good

    def test_no_thread_outlives_a_load(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        before = threading.active_count()
        load_embeddings(path)                          # miss
        assert threading.active_count() == before
        load_embeddings(path)                          # hit
        assert threading.active_count() == before
        path.write_text("a 1.0 0.5\nb 0.0 oops\n")
        with pytest.raises(FormatError):               # failed load
            load_embeddings(path)
        assert threading.active_count() == before


class TestEmbeddingCacheThreaded(TestEmbeddingCache):
    """Every cache case again, on the path that compares the text on a worker thread."""

    @pytest.fixture(autouse=True)
    def small_chunk(self, monkeypatch):
        monkeypatch.setattr(embedding, "_CHUNK", 4)

    def test_comparison_runs_on_a_worker_thread(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.5\nb 0.0 1.0\n")
        load_embeddings(path)
        threads = []
        same_text = embedding._same_text

        def spy(*args):
            threads.append(threading.current_thread())
            return same_text(*args)

        monkeypatch.setattr(embedding, "_same_text", spy)
        load_embeddings(path)
        assert len(threads) == 1 and threads[0] is not threading.main_thread()
        assert not threads[0].is_alive()


def test_large_table_hit_is_bit_identical_to_parse(tmp_path, monkeypatch):
    """A table above the real read chunk takes the threaded path with its own buffer size."""
    rng = np.random.default_rng(3)
    table = EmbeddingTable.from_vectors(40, {f"w{i}": rng.standard_normal(40)
                                             for i in range(1500)})
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    assert path.stat().st_size > embedding._CHUNK
    parsed = load_embeddings(path)

    def fail(path):
        raise AssertionError(f"{path} was parsed although its cache is valid")

    monkeypatch.setattr(embedding, "_parse_text", fail)
    cached = load_embeddings(path)
    assert_same_table(parsed, cached)
    assert_same_table(table, cached)


def test_hit_holds_the_matrix_and_one_read_slice(tmp_path):
    """A whole-matrix temporary (such as np.isfinite's, matrix.nbytes / 8) fails this."""
    rng = np.random.default_rng(4)
    table = EmbeddingTable.from_vectors(2000, {f"w{i}": rng.standard_normal(2000)
                                               for i in range(300)})
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    load_embeddings(path)
    load_embeddings(path)   # the first hit imports the comparing thread's module
    tracemalloc.start()
    try:
        cached = load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_table(table, cached)
    assert peak - cached.matrix.nbytes < cached.matrix.nbytes / 8


def test_miss_holds_the_matrix_and_the_parse_buffers(tmp_path):
    """Copying the text into the cache adds no buffer larger than the parse's own."""
    rng = np.random.default_rng(4)
    table = EmbeddingTable.from_vectors(2000, {f"w{i}": rng.standard_normal(2000)
                                               for i in range(300)})
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    load_embeddings(path)
    cache_of(path).unlink()
    tracemalloc.start()
    try:
        parsed = load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache_of(path).exists()
    assert_same_table(table, parsed)
    assert peak - parsed.matrix.nbytes <= 1.9e6


_HEADER_FIELDS = ("magic", "version", "digest", "duplicates", "checksum", "text_bytes",
                  "word_bytes", "rows", "dim")


def read_cache_records(cache):
    """A cache's header fields by name, its text copy, its word bytes and its (V, D) matrix."""
    data = cache.read_bytes()
    size = embedding._CACHE_HEADER.size
    header = dict(zip(_HEADER_FIELDS, embedding._CACHE_HEADER.unpack(data[:size])))
    text = data[size:size + header["text_bytes"]]
    blob = data[size + len(text):size + len(text) + header["word_bytes"]]
    matrix = np.frombuffer(data[size + len(text) + len(blob):], dtype="<f8")
    return header, text, blob, matrix.reshape(header["rows"], header["dim"]).copy()


def write_cache_records(cache, header, text, blob, matrix):
    cache.write_bytes(embedding._CACHE_HEADER.pack(*header.values()) + text + blob
                      + matrix.tobytes())


def checksum(header, *parts):
    """The CRC-32 a cache with this header stores over ``parts`` (the words, then the matrix)."""
    return embedding._checksum(header["duplicates"], header["digest"], *parts)


def write_version_2_cache(cache, header, blob, matrix):
    """The table as cache version 2 stored it: a 112-byte header, the words, the matrix."""
    head = struct.pack("<8sI64sQIQQQ", header["magic"], 2, header["digest"], header["duplicates"],
                       embedding._checksum(header["duplicates"], blob, matrix), len(blob),
                       *matrix.shape)
    cache.write_bytes(head + blob + matrix.tobytes())


def write_version_1_cache(cache, header, blob, matrix):
    """The table as cache version 1 stored it: three np.save records (meta, words, matrix)."""
    meta_dtype = np.dtype([("version", "<u4"), ("digest", "S64"), ("duplicates", "<u8"),
                           ("checksum", "<u4")])
    words = np.frombuffer(blob, dtype=np.uint8)
    meta = np.array((1, header["digest"], header["duplicates"], header["checksum"]),
                    dtype=meta_dtype)
    with cache.open("wb") as handle:
        for record in (meta, words, matrix):
            np.save(handle, record, allow_pickle=False)
