"""The shared dataset/checkpoint container: blocks round-trip, and no damage
to a file loads or escapes as anything but a typed i/o error (exit 4)."""

import numpy as np
import pytest

from dpawno import cli
from dpawno import container
from dpawno import datagen as dg
from dpawno import physics as ph
from dpawno import wno
from dpawno.errors import ChecksumMismatch, DatasetIoError, FormatVersionMismatch
from test_wno import randomized, small_config

TYPED = (DatasetIoError, ChecksumMismatch, FormatVersionMismatch)
CUT_STRIDE = 7  # truncate at every 7th offset
DESK = "burgers1d-missing-diffusion-desk"


def tiny_dataset():
    spec = ph.PdeSpec("burgers1d", {"nu": 0.01}, ("advection", "diffusion"),
                      "dirichlet", (-1.0, 1.0), nx=16, dt=1e-3)
    family = dg.IcFamily("sine", 2, amplitudes=(1.0, 2.0), frequencies=(1,))
    return dg.generate(spec, [family], 3, seed=0)


def write_dataset(tmp_path):
    path = tmp_path / "train.dpds"
    dg.save(tiny_dataset(), path)
    return path, dg.load


def write_checkpoint(tmp_path):
    path = tmp_path / "model.dpaw"
    wno.save_checkpoint(randomized(small_config(), 5), path)
    return path, wno.load_checkpoint


FILES = {"dataset": write_dataset, "checkpoint": write_checkpoint}


def damaged(raw):
    """(description, bytes): every byte with bit 0, 4 or 7 flipped, then the
    file cut at every CUT_STRIDE-th offset."""
    for i in range(len(raw)):
        for bit in (0, 4, 7):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            yield f"byte {i} bit {bit}", bytes(flipped)
    for cut in range(0, len(raw), CUT_STRIDE):
        yield f"cut at {cut}", raw[:cut]


def test_blocks_round_trip_as_views_of_one_payload(tmp_path):
    path = tmp_path / "x.bin"
    blocks = {"b": np.arange(6.0).reshape(2, 3), "a": np.array([np.pi]),
              "empty": np.zeros((0, 4))}
    container.write(path, b"TEST", {"note": "x"}, blocks)
    header, read = container.read(path, b"TEST")
    assert header == {"note": "x"}
    assert list(read) == ["b", "a", "empty"]
    for name, value in blocks.items():
        assert read[name].shape == value.shape
        assert np.array_equal(read[name], value)
    assert read["a"].base is read["b"].base


def test_write_error_is_typed(tmp_path):
    missing = tmp_path / "absent" / "model.dpaw"
    with pytest.raises(DatasetIoError, match="cannot write"):
        wno.save_checkpoint(randomized(small_config(), 5), missing)
    with pytest.raises(DatasetIoError, match="cannot write"):
        dg.save(tiny_dataset(), tmp_path / "absent" / "train.dpds")


@pytest.mark.parametrize("kind", sorted(FILES))
def test_every_flip_and_cut_raises_a_typed_error(tmp_path, kind):
    path, load = FILES[kind](tmp_path)
    raw = path.read_bytes()
    load(path)  # the intact file loads
    escaped = []
    for what, data in damaged(raw):
        path.write_bytes(data)
        try:
            load(path)
        except TYPED:
            continue
        except Exception as exc:  # noqa: BLE001 - any other type is the failure
            escaped.append(f"{what}: {type(exc).__name__}")
        else:
            escaped.append(f"{what}: loaded")
    assert not escaped, f"{len(escaped)} damaged files escaped: {escaped[:10]}"


# magic, version, header length, header, first payload value, digest
OFFSETS = {"magic": 0, "version": 4, "header length": 8, "header": 20,
           "payload": None, "digest": -1}


@pytest.mark.parametrize("where", list(OFFSETS))
@pytest.mark.parametrize("kind", sorted(FILES))
def test_damaged_file_exits_4(tmp_path, capsys, kind, where):
    path, _ = FILES[kind](tmp_path)
    raw = bytearray(path.read_bytes())
    offset = OFFSETS[where]
    if offset is None:
        offset = 12 + int.from_bytes(raw[8:12], "little")
    raw[offset] ^= 0x10
    path.write_bytes(bytes(raw))
    if kind == "dataset":
        argv = ["train", "--preset", DESK, "--data", str(tmp_path)]
    else:
        argv = ["reliability", "--preset", DESK, "--dpa", str(path)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith("i/o error: ")
