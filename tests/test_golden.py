"""Golden CLI transcripts: every output of a fixed matrix of CLI calls, byte for byte.

`scripts/make_golden.py` holds the matrix and wrote the transcripts and
the inputs under tests/golden/. The committed inputs must be the ones it
makes, byte for byte, so a change to a writer that the transcripts cannot
see still shows; each other test replays one group of calls against them
and compares the transcript's bytes. `fit` output goes through LAPACK's QR
factorization, whose last bits can differ on another BLAS build, and the
messages of `int()`, `float()`, `json` and argparse are Python's own: the
files pin this build (Python 3.11, numpy 2). A change that alters an output
on purpose regenerates the files
(`PYTHONPATH=src python scripts/make_golden.py`) in the same commit.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "make_golden.py"
_spec = importlib.util.spec_from_file_location("make_golden", _PATH)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

_MATRIX = make_golden.matrix()


def test_inputs_are_the_generated_ones():
    root = make_golden.REPO / make_golden.INPUTS
    want = make_golden.inputs()
    assert sorted(p.name for p in root.iterdir()) == sorted(want)
    for name, text in want.items():
        assert (root / name).read_bytes() == text.encode("utf-8"), name


def test_every_transcript_has_its_group():
    assert sorted(p.stem for p in make_golden.GOLDEN.glob("*.txt")) == sorted(_MATRIX)


@pytest.mark.parametrize("group", list(_MATRIX))
def test_transcript_replays(group):
    want = (make_golden.GOLDEN / f"{group}.txt").read_bytes().decode("utf-8")
    assert make_golden.run_group(group, _MATRIX[group]) == want
