"""Binary model container: round trips, bit-exact scoring, validation, fuzzing, atomic writes."""

import functools
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_lvq import atomic
from subspace_lvq.atomic import atomic_write
from subspace_lvq.errors import FormatError
from subspace_lvq.geometry import (
    DISTANCE_KINDS,
    ORTHONORMAL_TOL,
    orthonormality_residual,
    qr_retract,
)
from subspace_lvq.model import ModelState, classify, score
from subspace_lvq.model_io import MAGIC, load_model, model_checksum, save_model
from subspace_lvq.subspace import Subspace


def build_state(rng):
    bases = [qr_retract(rng.standard_normal((12, 4))) for _ in range(2)]
    raw = rng.random(4) + 0.25
    return ModelState(
        prototypes=np.stack(bases),
        prototype_labels=("neg", "pos"),
        relevances=raw / raw.sum(),
        sigmoid_slope=5.0,
        distance_kind="chordal",
        hyperparams={"lr_prototype": 0.05, "lr_relevance": 0.005,
                     "epochs": 7, "seed": 3, "prototypes_per_class": 1},
        training_log=[(0, 0.43120984218, 0.5), (1, 0.1299871234, 0.96875)],
    )


class TestModelRoundTrip:
    def test_fields_survive(self, tmp_path):
        state = build_state(np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_model(state, path)
        loaded = load_model(path)
        assert loaded.embedding_dim == state.embedding_dim
        assert loaded.subspace_dim == state.subspace_dim
        assert loaded.sigmoid_slope == state.sigmoid_slope
        assert loaded.distance_kind == state.distance_kind
        assert loaded.prototype_labels == state.prototype_labels
        assert loaded.hyperparams == state.hyperparams
        assert loaded.training_log == state.training_log
        np.testing.assert_array_equal(loaded.relevances, state.relevances)
        np.testing.assert_array_equal(loaded.prototypes, state.prototypes)

    def test_scores_bit_exact_after_reload(self, tmp_path):
        rng = np.random.default_rng(1)
        state = build_state(rng)
        path = tmp_path / "model.bin"
        save_model(state, path)
        loaded = load_model(path)
        for i in range(25):
            doc = Subspace(doc_id=f"d{i}", basis=qr_retract(rng.standard_normal((12, 3))))
            assert score(doc, loaded, "pos") == score(doc, state, "pos")

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(build_state(np.random.default_rng(3)), path)
        loaded = load_model(path)
        with pytest.raises(ValueError, match="read-only"):
            loaded.prototypes[0, 0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            loaded.relevances[0] = 1.0

    def test_models_compare_and_hash_by_identity(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(build_state(np.random.default_rng(4)), path)
        first = load_model(path)
        assert first == first
        assert first != load_model(path)
        assert hash(first) == hash(first)

    def test_save_is_deterministic(self, tmp_path):
        state = build_state(np.random.default_rng(2))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(state, a)
        save_model(state, b)
        assert a.read_bytes() == b.read_bytes()
        assert model_checksum(a) == model_checksum(b)

    def test_magic_validation(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        state = build_state(np.random.default_rng(3))
        path = tmp_path / "model.bin"
        save_model(state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(FormatError):
            load_model(path)

    def test_no_temp_file_left_behind(self, tmp_path):
        state = build_state(np.random.default_rng(4))
        save_model(state, tmp_path / "model.bin")
        assert list(tmp_path.iterdir()) == [tmp_path / "model.bin"]

    def test_magic_is_stable(self):
        # container identification depends on this exact byte string
        assert MAGIC == b"SUBSPACE-LVQ-MODEL\n"


def edited_header_text(blob, edit):
    """A container's bytes with its JSON header text replaced by ``edit(text)``."""
    offset = len(MAGIC) + 4
    (length,) = struct.unpack_from("<Q", blob, offset)
    encoded = edit(blob[offset + 8: offset + 8 + length].decode("utf-8")).encode("utf-8")
    return (blob[:offset] + struct.pack("<Q", len(encoded)) + encoded
            + blob[offset + 8 + length:])


def edited_header(blob, edit):
    """A container's bytes with its JSON header re-encoded after ``edit(header)``."""
    def reencode(text):
        header = json.loads(text)
        edit(header)
        return json.dumps(header, sort_keys=True)

    return edited_header_text(blob, reencode)


def rewrite_header(path, edit):
    """Re-encode a saved container's JSON header after ``edit(header)``."""
    path.write_bytes(edited_header(path.read_bytes(), edit))


class TestModelValidation:
    def saved(self, tmp_path, seed=5):
        path = tmp_path / "model.bin"
        save_model(build_state(np.random.default_rng(seed)), path)
        return path

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(FormatError, match="8 bytes after the last array"):
            load_model(path)

    def test_label_and_shape_lists_must_match(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h["prototype_labels"].append("extra"))
        with pytest.raises(FormatError, match="3 prototype labels but 2 shapes"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.__setitem__("prototype_shapes", [[12], [12, 4]]),
        lambda h: h.__setitem__("prototype_labels", 5),
        lambda h: h.__setitem__("sigmoid_slope", "x"),
        lambda h: h.__setitem__("hyperparams", 3),
        lambda h: h.__setitem__("training_log", [[0, 1]]),
        lambda h: h.update(embedding_dim=1e20, prototype_shapes=[[1e20, 4], [1e20, 4]]),
        lambda h: h.update(embedding_dim=-12, prototype_shapes=[[-12, 4], [-12, 4]]),
        lambda h: h.__setitem__("sigmoid_slope", float("nan")),
        lambda h: h.__setitem__("sigmoid_slope", 0.0),
        lambda h: h.__setitem__("sigmoid_slope", -5.0),
        lambda h: h.__setitem__("sigmoid_slope", float("inf")),
        # integer fields take JSON integers only: no fractions, no booleans
        lambda h: h.update(embedding_dim=12.9, subspace_dim=4.9, relevance_len=4.2,
                           prototype_shapes=[[12.5, 4.0], [12.5, 4.0]]),
        lambda h: h.__setitem__("embedding_dim", 12.0),
        lambda h: h.__setitem__("subspace_dim", 4.0),
        lambda h: h.__setitem__("relevance_len", 4.0),
        lambda h: h.__setitem__("prototype_shapes", [[12, 4], [12.0, 4]]),
        lambda h: h.__setitem__("prototype_shapes", [[12, 4], [12, 4, 1]]),
        lambda h: h.__setitem__("training_log", [[False, 0.43, 0.5], [True, 0.13, 0.97]]),
        lambda h: h.__setitem__("training_log", [[0, 0.43, 0.5], [1.5, 0.13, 0.97]]),
        # number fields take JSON numbers only: no strings, no booleans
        lambda h: h.__setitem__("sigmoid_slope", "5.0"),
        lambda h: h.__setitem__("sigmoid_slope", True),
        lambda h: h.__setitem__("training_log", [[0, "0.5", "1"], [1, 0.13, 0.97]]),
        lambda h: h.__setitem__("training_log", [[0, 0.43, 0.5], [1, True, 0.5]]),
        # label lists are JSON arrays and hyperparams a JSON object
        lambda h: h.update(class_labels="ab", prototype_labels=["a", "b"]),
        lambda h: h.update(prototype_labels="ab", class_labels=["a", "b"]),
        lambda h: h.__setitem__("hyperparams", [["lr_prototype", 0.05]]),
    ])
    def test_malformed_header_values_rejected(self, tmp_path, edit):
        path = self.saved(tmp_path)
        rewrite_header(path, edit)
        with pytest.raises(FormatError, match="corrupt model file"):
            load_model(path)

    def test_repeated_header_key_rejected(self, tmp_path):
        """Read by a plain JSON decoder, the header would load with the last value."""
        path = self.saved(tmp_path)
        path.write_bytes(edited_header_text(
            path.read_bytes(), lambda text: text.replace("{", '{"distance_kind": "geodesic", ', 1)))
        with pytest.raises(FormatError, match=r"model.bin: repeated key 'distance_kind'"):
            load_model(path)

    def test_label_with_a_lone_surrogate_rejected(self, tmp_path):
        """Such a label loaded, and a command then failed when it wrote the label as UTF-8."""
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h.update(prototype_labels=["neg", "pos\ud800"],
                                                class_labels=["neg", "pos\ud800"]))
        assert b'"pos\\ud800"' in path.read_bytes()
        with pytest.raises(FormatError, match=r"model.bin: string holds a lone surrogate, U\+D800"):
            load_model(path)

    def test_label_with_an_escaped_surrogate_pair_loads(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h.update(prototype_labels=["neg", "pos\U0001F600"],
                                                class_labels=["neg", "pos\U0001F600"]))
        assert b'"pos\\ud83d\\ude00"' in path.read_bytes()
        assert load_model(path).prototype_labels == ("neg", "pos\U0001F600")

    @pytest.mark.parametrize("position", [0, -1])   # a relevance, a prototype entry
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, tmp_path, position, value):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        index = len(blob) - 8 if position == -1 else len(blob) - 8 * (2 * 12 * 4 + 4)
        blob[index: index + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            load_model(path)


def saved_state(tmp_path):
    """``build_state`` and the path it was saved to; ``save_model`` checks nothing."""
    state = build_state(np.random.default_rng(8))
    path = tmp_path / "model.bin"
    save_model(state, path)
    return state, path


def rewrite_arrays(path, relevances, stack):
    """Overwrite a saved container's relevances and prototype stack, the file's last bytes."""
    tail = np.concatenate([relevances, stack.ravel()]).astype("<f8").tobytes()
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - len(tail)] + tail)


def saved_with_header(tmp_path, edit):
    """``build_state`` saved, with its JSON header rewritten by ``edit(header)``."""
    _, path = saved_state(tmp_path)
    rewrite_header(path, edit)
    return path


class TestModelInvariants:
    def test_prototype_shapes_must_match_the_dimensions(self, tmp_path):
        path = saved_with_header(tmp_path, lambda h: h.update(prototype_shapes=[[12, 4], [12, 3]]))
        with pytest.raises(FormatError, match=r"prototype 1 has shape \(12, 3\), expected \(12, 4\)"):
            load_model(path)

    def test_relevance_length_must_equal_subspace_dim(self, tmp_path):
        path = saved_with_header(tmp_path, lambda h: h.update(relevance_len=3))
        with pytest.raises(FormatError, match="relevance_len 3 differs from subspace_dim 4"):
            load_model(path)

    @pytest.mark.parametrize("relevances", [
        lambda s: 3.0 * s.relevances,
        lambda s: s.relevances + np.array([0.5, -0.5, 0.0, 0.0]),
    ])
    def test_relevances_must_lie_on_the_simplex(self, tmp_path, relevances):
        state, path = saved_state(tmp_path)
        rewrite_arrays(path, relevances(state), state.prototypes)
        with pytest.raises(FormatError, match="simplex"):
            load_model(path)

    def test_prototypes_must_be_orthonormal(self, tmp_path):
        state, path = saved_state(tmp_path)
        rewrite_arrays(path, state.relevances, state.prototypes * np.array([1.0, 1.01])[:, None, None])
        with pytest.raises(FormatError, match="prototype 1 is not orthonormal"):
            load_model(path)

    @pytest.mark.parametrize("class_labels", [["neg", "zzz"], ["pos", "neg"], ["neg"]])
    def test_class_labels_must_be_the_sorted_prototype_labels(self, tmp_path, class_labels):
        path = saved_with_header(tmp_path, lambda h: h.update(class_labels=class_labels))
        with pytest.raises(FormatError, match="class_labels"):
            load_model(path)

    def test_unknown_distance_kind_rejected(self, tmp_path):
        path = saved_with_header(tmp_path, lambda h: h.update(distance_kind="cosine"))
        with pytest.raises(FormatError, match="unknown distance kind 'cosine'"):
            load_model(path)

    def test_single_class_model_rejected(self, tmp_path):
        path = saved_with_header(
            tmp_path, lambda h: h.update(class_labels=["neg"], prototype_labels=["neg", "neg"]))
        with pytest.raises(FormatError, match="fewer than two classes"):
            load_model(path)

    def test_non_string_labels_rejected(self, tmp_path):
        path = saved_with_header(tmp_path, lambda h: h.update(class_labels=["neg", 5]))
        with pytest.raises(FormatError, match="must be strings"):
            load_model(path)


@functools.cache
def saved_blob() -> bytes:
    """The bytes of a saved two-prototype model (D=12, d=4)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(build_state(np.random.default_rng(10)), path)
        return path.read_bytes()


HEADER_KEYS = ("class_labels", "distance_kind", "embedding_dim", "hyperparams",
               "prototype_labels", "prototype_shapes", "relevance_len", "sigmoid_slope",
               "subspace_dim", "training_log")

# Dimension-like values: huge, negative, zero, fractional and non-finite ones.
dimensions = st.one_of(st.integers(-2**70, 2**70), st.floats(),
                       st.sampled_from([1e20, 10**20, -12, 0, 4, 12]))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), dimensions, st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6)


def assert_invariants(model):
    assert model.embedding_dim >= 1 and model.subspace_dim >= 1
    assert math.isfinite(model.sigmoid_slope) and model.sigmoid_slope > 0
    assert model.distance_kind in DISTANCE_KINDS
    assert all(isinstance(label, str) for label in model.prototype_labels)
    assert len(model.class_labels) >= 2
    assert type(model.hyperparams) is dict
    assert all(type(e) is int and type(c) is float and type(a) is float
               for e, c, a in model.training_log)
    weights = model.relevances
    assert weights.shape == (model.subspace_dim,) and np.isfinite(weights).all()
    assert (weights >= 0).all() and abs(weights.sum() - 1.0) <= 1e-12
    assert model.prototypes.shape[0] == len(model.prototype_labels)
    assert (orthonormality_residual(model.prototypes) <= ORTHONORMAL_TOL).all()
    doc = qr_retract(np.random.default_rng(0).standard_normal((model.embedding_dim, 1)))
    label, dists = classify(Subspace("doc", doc), model)
    assert label in model.class_labels and np.isfinite(dists).all()


def load_or_reject(blob):
    """``load_model`` on ``blob``: a model meeting every invariant, or None for FormatError.

    Any other exception escapes and fails the calling test.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        path.write_bytes(blob)
        try:
            model = load_model(path)
        except FormatError:
            return None
    assert_invariants(model)
    return model


class TestContainerFuzz:
    """Damaged containers load as a valid model or raise FormatError, nothing else."""

    def test_undamaged_container_loads(self):
        assert load_or_reject(saved_blob()) is not None

    def test_every_truncation_rejected(self):
        blob = saved_blob()
        for length in range(len(blob)):
            assert load_or_reject(blob[:length]) is None

    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_bit_flips(self, positions):
        blob = bytearray(saved_blob())
        for position in positions:
            bit = position % (8 * len(blob))
            blob[bit // 8] ^= 1 << (bit % 8)
        load_or_reject(bytes(blob))

    @given(st.lists(st.sampled_from(HEADER_KEYS), min_size=2, max_size=2, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_swapped_header_values(self, keys):
        first, second = keys

        def swap(header):
            header[first], header[second] = header[second], header[first]
        load_or_reject(edited_header(saved_blob(), swap))

    @given(st.sampled_from(HEADER_KEYS), json_values)
    @settings(max_examples=300, deadline=None)
    def test_replaced_header_value(self, key, value):
        load_or_reject(edited_header(saved_blob(), lambda header: header.update({key: value})))

    @given(st.sampled_from(["embedding_dim", "subspace_dim"]), dimensions)
    @settings(max_examples=200, deadline=None)
    def test_resized_dimension(self, key, value):
        """A dimension replaced along with every header field that must agree with it."""
        def resize(header):
            header[key] = value
            shape = [header["embedding_dim"], header["subspace_dim"]]
            header["prototype_shapes"] = [shape] * len(header["prototype_labels"])
            header["relevance_len"] = header["subspace_dim"]
        load_or_reject(edited_header(saved_blob(), resize))


class TestAtomicWrite:
    def test_stale_tmp_directory_does_not_block_save(self, tmp_path):
        (tmp_path / "model.bin.tmp").mkdir()
        path = tmp_path / "model.bin"
        save_model(build_state(np.random.default_rng(6)), path)
        load_model(path)

    def test_save_fsyncs_before_rename(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(atomic.os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        save_model(build_state(np.random.default_rng(7)), tmp_path / "model.bin")
        assert len(synced) == 1

    def test_concurrent_writers_use_distinct_temp_files(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_write(path) as first, atomic_write(path) as second:
            assert len(list(tmp_path.iterdir())) == 2
            first.write(b"first")
            second.write(b"second")
        assert path.read_bytes() == b"first"
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_keeps_old_file_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write(b"partial")
                raise RuntimeError("disk full")
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]
