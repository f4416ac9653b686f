"""Parser fuzzing: truncated and bit-flipped artifacts of every format.

Each artifact comes from a MICRO run, so that no flipped digit can ask
for a large allocation. A damaged file must load or raise a ToolkitError,
never anything else (the CLI would exit 2 on anything else).
"""

import struct

import numpy as np
import pytest

from xveckit.backend import (
    all_pairs_trials,
    load_backend,
    read_embeddings,
    read_scores,
    read_trials,
    write_trials,
)
from xveckit.cli import main
from xveckit.data import Manifest, read_features
from xveckit.errors import ToolkitError
from xveckit.model import load_checkpoint

MICRO = """
num_speakers = 3
utterances_per_speaker = 5
feature_dim = 4
min_frames = 20
max_frames = 24
frame_widths = 4,4,4,4,8
segment_width = 4
batch_size = 4
epochs = 1
crop_length = 16
holdout_per_speaker = 2
lda_dim = 2
"""

FLIPS = 400  # seeded single-bit flips in the header region, and as many over the file
STRIDE_CUTS = 48  # truncations spread over the payload


def _blob_end(raw: bytes) -> int:
    """End of magic, version, metadata blob and tensor count (XVCK, XVBK)."""
    return 12 + struct.unpack_from("<I", raw, 8)[0] + 4


def _first_record_end(raw: bytes) -> int:
    """End of the XVEB header and the first utterance and speaker ids."""
    off = 16
    for _ in range(2):
        off += 4 + struct.unpack_from("<I", raw, off)[0]
    return off


def _first_line_end(raw: bytes) -> int:
    return raw.index(b"\n") + 1


# name: (file in the run directory, loader, end of header + metadata, binary)
ARTIFACTS = {
    "XVF1": ("corpus/features/spk0000_utt0000.xvf", read_features, lambda raw: 12, True),
    "XVCK": ("sys/model.ckpt", load_checkpoint, _blob_end, True),
    "XVBK": ("backend.xvbk", load_backend, _blob_end, True),
    "XVEB": ("train.xveb", read_embeddings, _first_record_end, True),
    "manifest": ("corpus/manifest.csv", Manifest.load, _first_line_end, False),
    "trials": ("trials.txt", read_trials, _first_line_end, False),
    "scores": ("scores.txt", read_scores, _first_line_end, False),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "cfg.txt"
    cfg.write_text(MICRO)
    common = ["--config", str(cfg)]
    assert main(["gen-data", "--out", str(root / "corpus")] + common) == 0
    assert main(["train", "--data", str(root / "corpus"), "--out", str(root / "sys")]
                + common) == 0
    assert main(["extract", "--model", str(root / "sys" / "model.ckpt"),
                 "--data", str(root / "corpus"), "--split", "train",
                 "--out", str(root / "train.xveb")] + common) == 0
    assert main(["train-backend", "--embeddings", str(root / "train.xveb"),
                 "--out", str(root / "backend.xvbk")] + common) == 0
    _, speakers = read_embeddings(root / "train.xveb")
    write_trials(root / "trials.txt", all_pairs_trials(speakers))
    assert main(["score", "--trials", str(root / "trials.txt"),
                 "--embeddings", str(root / "train.xveb"),
                 "--backend", str(root / "backend.xvbk"), "--scorer", "plda",
                 "--out", str(root / "scores.txt")] + common) == 0
    return root


def _loads(load, path, raw: bytes, what: str) -> bool:
    """Write `raw` to `path` and load it: True if it loaded, False if it
    raised a ToolkitError; anything else fails the test."""
    path.write_bytes(raw)
    try:
        load(path)
    except ToolkitError:
        return False
    except Exception as err:  # noqa: BLE001 - the point is to catch anything else
        pytest.fail(f"{what}: {type(err).__name__}: {err}")
    return True


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_damaged_artifact_loads_or_raises_toolkit_error(run_dir, tmp_path, name):
    rel, load, header_end, binary = ARTIFACTS[name]
    raw = (run_dir / rel).read_bytes()
    head = min(header_end(raw), len(raw))
    target = tmp_path / (run_dir / rel).name
    assert _loads(load, target, raw, f"{name} intact")

    stride = max(1, (len(raw) - head) // STRIDE_CUTS)
    for cut in [*range(head), *range(head, len(raw), stride)]:
        loaded = _loads(load, target, raw[:cut], f"{name} truncated to {cut} bytes")
        assert not (binary and loaded), f"{name} truncated to {cut} bytes loaded"

    rng = np.random.default_rng(sum(name.encode()))
    positions = np.concatenate([rng.integers(0, head, FLIPS), rng.integers(0, len(raw), FLIPS)])
    for pos, bit in zip(positions, rng.integers(0, 8, positions.size)):
        damaged = bytearray(raw)
        damaged[pos] ^= 1 << bit
        _loads(load, target, bytes(damaged), f"{name} bit {bit} of byte {pos} flipped")
