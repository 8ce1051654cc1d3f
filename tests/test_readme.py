"""The README's code examples run as written."""

import re
from pathlib import Path

import numpy as np

from melowave.ingest import write_standard_midi

from conftest import make_sequence

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    text = README.read_text()
    library = text[text.index("## Library") :]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    seq = make_sequence([(0, 1, 60), (1, 1, 62), (2, 2, 67), (4, 1, 64), (5, 3, 60)])
    (tmp_path / "in.mid").write_bytes(write_standard_midi(seq, division=480))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    corpus = namespace["corpus"]
    assert isinstance(namespace["sig"], np.ndarray) and namespace["sig"].size == 64
    assert corpus.rows.shape[0] == len(namespace["segments"]) == len(corpus.labels)
