"""Fuzz tests for the file loaders: truncated and bit-flipped bytes give a
valid result or an InputError, never another exception.

Bit flips in data bytes can still give valid input, so an InputError is not
required every time; a result that does load is checked for validity.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from emofuse import data, dsp, model  # noqa: E402
from emofuse.alignment import WordSpan  # noqa: E402
from emofuse.errors import InputError  # noqa: E402


def _valid_clip(clip) -> bool:
    return clip.samples.ndim == 1 and np.abs(clip.samples).max() <= 1.0


def _valid_array(array) -> bool:
    return array.dtype == np.float64 and bool(np.all(np.isfinite(array)))


def _valid_checkpoint(ckpt) -> bool:
    return (ckpt.pool_mode in ("sum", "mean") and bool(np.all(ckpt.feature_std > 0))
            and all(np.all(np.isfinite(t.data)) for t in ckpt.params.tensors()))


def _valid_records(records) -> bool:
    return (all(isinstance(r, data.UtteranceRecord) for r in records)
            and len({r.id for r in records}) == len(records))


def _valid_table(table) -> bool:
    return all(np.all(np.isfinite(table.lookup(tok)[0])) for tok in table._vectors)


# file name -> (loader, validity check, bytes of leading structure)
CASES = {
    "clip.wav": (dsp.read_wav, _valid_clip, lambda blob: 44),
    "feat.emt": (data.load_array, _valid_array, lambda blob: 24),
    "model.emc": (model.load_checkpoint, _valid_checkpoint,
                  lambda blob: 16 + int.from_bytes(blob[12:16], "little")),
    "manifest.jsonl": (data.load_manifest, _valid_records, len),
    "emb.txt": (lambda path: data.load_embeddings(path, dimension=4), _valid_table, len),
}


def mutations(size: int, hot: int):
    """A truncation, or up to four bit flips. Half the positions fall in the
    first ``hot`` bytes, where a format keeps its structure."""
    position = st.one_of(st.integers(0, min(hot, size) - 1), st.integers(0, size - 1))
    cut = st.builds(lambda n: ("cut", n), position)
    flips = st.builds(lambda f: ("flip", f),
                      st.lists(st.tuples(position, st.integers(0, 7)), min_size=1, max_size=4))
    return st.one_of(cut, flips)


def mutate(blob: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "cut":
        return blob[:arg]
    out = bytearray(blob)
    for at, bit in arg:
        out[at] ^= 1 << bit
    return bytes(out)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """One valid file per format, written into one directory."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    dsp.write_wav(root / "clip.wav", rng.uniform(-0.5, 0.5, 800))
    data.save_array(root / "feat.emt", rng.standard_normal((34, 6)))
    checkpoint = model.Checkpoint(model.init_params(seed=0), model.FusionMode.TEMP_ALIGN_CME,
                                  np.zeros(34), np.ones(34))
    model.save_checkpoint(checkpoint, root / "model.emc")
    records = [data.UtteranceRecord(id=f"r{i}", words=[WordSpan("amber", 0, 40 + i)],
                                    label=i % 4, features_path="feat.emt") for i in range(3)]
    data.save_manifest(records, root / "manifest.jsonl")
    table = data.EmbeddingTable({tok: rng.normal(size=4) for tok in ("amber", "birch")},
                                dimension=4)
    data.save_embeddings(table, root / "emb.txt")
    return root


@pytest.mark.parametrize("name", list(CASES))
def test_original_is_valid(originals, name):
    loader, valid, _ = CASES[name]
    assert valid(loader(originals / name))


@pytest.mark.parametrize("name", list(CASES))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data())
def test_mutated_file_loads_valid_or_raises_input_error(originals, name, draw):
    loader, valid, hot = CASES[name]
    blob = (originals / name).read_bytes()
    path = originals / f"mutated-{name}"
    path.write_bytes(mutate(blob, draw.draw(mutations(len(blob), hot(blob)))))
    try:
        result = loader(path)
    except InputError:
        return
    assert valid(result)
