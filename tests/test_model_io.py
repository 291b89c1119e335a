"""Binary model container: round trips, bit-exact scoring, validation, atomic writes."""

import json
import os
import struct

import numpy as np
import pytest

from subspace_lvq import atomic
from subspace_lvq.atomic import atomic_write
from subspace_lvq.errors import FormatError
from subspace_lvq.geometry import qr_retract
from subspace_lvq.model import ModelState, Prototype, score
from subspace_lvq.model_io import MAGIC, load_model, model_checksum, save_model
from subspace_lvq.subspace import Subspace


def build_state(rng):
    bases = [qr_retract(rng.standard_normal((12, 4))) for _ in range(2)]
    raw = rng.random(4) + 0.25
    return ModelState(
        prototypes=[Prototype(basis=b, label=l) for b, l in zip(bases, ["neg", "pos"])],
        relevances=raw / raw.sum(),
        embedding_dim=12,
        subspace_dim=4,
        sigmoid_slope=5.0,
        distance_kind="chordal",
        class_labels=["neg", "pos"],
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
        assert loaded.class_labels == state.class_labels
        assert loaded.hyperparams == state.hyperparams
        assert loaded.training_log == state.training_log
        np.testing.assert_array_equal(loaded.relevances, state.relevances)
        for orig, back in zip(state.prototypes, loaded.prototypes):
            assert back.label == orig.label
            np.testing.assert_array_equal(back.basis, orig.basis)

    def test_scores_bit_exact_after_reload(self, tmp_path):
        rng = np.random.default_rng(1)
        state = build_state(rng)
        path = tmp_path / "model.bin"
        save_model(state, path)
        loaded = load_model(path)
        for i in range(25):
            doc = Subspace(doc_id=f"d{i}", basis=qr_retract(rng.standard_normal((12, 3))))
            assert score(doc, loaded, "pos") == score(doc, state, "pos")

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


def rewrite_header(path, edit):
    """Re-encode a saved container's JSON header after ``edit(header)``."""
    blob = path.read_bytes()
    offset = len(MAGIC) + 4
    (length,) = struct.unpack_from("<Q", blob, offset)
    header = json.loads(blob[offset + 8: offset + 8 + length])
    edit(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:offset] + struct.pack("<Q", len(encoded)) + encoded
                     + blob[offset + 8 + length:])


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
    ])
    def test_malformed_header_values_rejected(self, tmp_path, edit):
        path = self.saved(tmp_path)
        rewrite_header(path, edit)
        with pytest.raises(FormatError, match="corrupt model file"):
            load_model(path)

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
