"""Checkpoint format: lossless round trips and corruption detection."""

import struct

import numpy as np
import pytest

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from tapgkit.autodiff.layers import MLP, Module
from tapgkit.errors import FileFormatError


class TestRoundTrip:
    def test_arrays_round_trip_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        state = {
            "a.weight": rng.standard_normal((3, 4)),
            "b": rng.standard_normal(7).astype(np.float32),
            "scalar": np.array(3.5),
        }
        path = tmp_path / "model.tapg"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(state)
        for name in state:
            assert loaded[name].dtype == np.float64
            np.testing.assert_array_equal(loaded[name],
                                          np.asarray(state[name], dtype=np.float64))

    def test_float32_model_round_trips_losslessly(self, tmp_path):
        src = MLP(np.random.default_rng(1), [4, 8, 2])
        path = tmp_path / "mlp.tapg"
        save_checkpoint(path, src.state_dict())
        dst = MLP(np.random.default_rng(2), [4, 8, 2])
        dst.load_state_dict(load_checkpoint(path))
        for (_, a), (_, b) in zip(src.named_parameters(), dst.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_float64_values_survive_exactly(self, tmp_path):
        with T.default_dtype(np.float64):
            value = np.array([1.0 / 3.0, np.pi, 1e-300])
            path = tmp_path / "f64.tapg"
            save_checkpoint(path, {"v": value})
            np.testing.assert_array_equal(load_checkpoint(path)["v"], value)

    def test_zero_d_entry_keeps_its_shape(self, tmp_path):
        path = tmp_path / "scalars.tapg"
        save_checkpoint(path, {"zero_d": np.array(2.5), "one": np.array([2.5]),
                               "f32": np.float32(-1.25)})
        loaded = load_checkpoint(path)
        assert {name: a.shape for name, a in loaded.items()} == {
            "zero_d": (), "one": (1,), "f32": ()}
        assert loaded["zero_d"] == 2.5 and loaded["f32"] == -1.25
        # magic, count, then per entry: name length, name, rank, extents, one value
        assert path.stat().st_size == 8 + 4 + sum(
            4 + len(name) + 4 + 4 * rank + 8 for name, rank in
            (("zero_d", 0), ("one", 1), ("f32", 0)))

    def test_module_with_a_zero_d_tensor_loads_its_own_checkpoint(self, tmp_path):
        class Gained(Module):
            def __init__(self, seed):
                self.mlp = MLP(np.random.default_rng(seed), [3, 2])
                self.gain = T.parameter(np.array(float(seed)))

        path = tmp_path / "gained.tapg"
        save_checkpoint(path, Gained(3).state_dict())
        dst = Gained(1)
        dst.load_state_dict(load_checkpoint(path))
        assert dst.gain.data.shape == () and dst.gain.data == 3.0

    def test_empty_state_round_trips(self, tmp_path):
        path = tmp_path / "empty.tapg"
        save_checkpoint(path, {})
        assert load_checkpoint(path) == {}


class TestCrashSafety:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, failing_writes):
        path = tmp_path / "model.tapg"
        save_checkpoint(path, {"w": np.arange(6.0)})
        before = path.read_bytes()
        with failing_writes(), pytest.raises(OSError):
            save_checkpoint(path, {"w": np.ones(1000)})
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_checkpoint(path)["w"], np.arange(6.0))
        assert [p.name for p in tmp_path.iterdir()] == ["model.tapg"]


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tapg"
        path.write_bytes(b"NOTATAPG" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.tapg"
        save_checkpoint(path, {"x": np.ones(10)})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 12])
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "extra.tapg"
        save_checkpoint(path, {"x": np.ones(2)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        name = b"w"
        entry = (struct.pack("<I", len(name)) + name + struct.pack("<I", 1)
                 + struct.pack("<I", 2) + np.zeros(2, dtype="<f8").tobytes())
        path = tmp_path / "dup.tapg"
        path.write_bytes(MAGIC + struct.pack("<I", 2) + entry + entry)
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_entry_name_not_utf8_rejected(self, tmp_path):
        name = b"\xff"
        entry = (struct.pack("<I", len(name)) + name + struct.pack("<I", 0)
                 + np.zeros(1, dtype="<f8").tobytes())
        path = tmp_path / "name.tapg"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + entry)
        with pytest.raises(FileFormatError, match="name.tapg"):
            load_checkpoint(path)
