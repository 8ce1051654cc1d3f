"""End-to-end pins for MIDI files at divisions other than 480.

Every other CLI test writes its MIDI at division 480. Here one synthetic
tune and a few synthetic inventions are written at their minimal division
and at division 100, and the outputs of ``ingest``, ``signal --rate 3/2``,
``segment --method lbdm`` and ``exp bach --seg lbdm --contrapuntal cp`` must
match the files under ``tests/data/division_pins`` byte for byte. At rate 8
the section slices of ``exp bach`` fall between the ticks of either
division.
"""

from pathlib import Path

import pytest

from melowave.cli import main
from melowave.corpora import synthetic_inventions, synthetic_tune_families
from melowave.ingest import minimal_division, write_standard_midi

PINS = Path(__file__).parent / "data" / "division_pins"
DIVISIONS = {"minimal": None, "div100": 100}

# output file -> the command that writes it; TUNE and WORKS stand for the inputs
COMMANDS = {
    "ingest.csv": ["ingest", "TUNE"],
    "signal.csv": ["signal", "TUNE", "--rate", "3/2"],
    "segment.csv": ["segment", "TUNE", "--method", "lbdm", "--threshold", "0.4",
                    "--rate", "3/2"],
    "bach.csv": ["exp", "bach", "--corpus", "WORKS", "--seg", "lbdm", "--contrapuntal", "cp",
                 "--trace", "OUT/bach_trace.csv"],
}


def write_outputs(out: Path, division: int | None) -> None:
    """Write the inputs at ``division`` (None: their minimal division) and
    every pinned output into ``out``."""
    tune = synthetic_tune_families(0, n_families=1, min_variants=2, max_variants=2).songs[1].seq
    works_dir = out / "works"
    works_dir.mkdir(parents=True)
    (out / "tune.mid").write_bytes(write_standard_midi(tune, division))
    for work in synthetic_inventions(0, n_works=6):
        data = write_standard_midi([work.upper, work.lower], division)
        (works_dir / f"{work.work_id}.mid").write_bytes(data)
    names = {"TUNE": str(out / "tune.mid"), "WORKS": str(works_dir)}
    for name, argv in COMMANDS.items():
        argv = [names.get(a, a.replace("OUT", str(out))) for a in argv]
        assert main(argv + ["-o", str(out / name)]) == 0


def test_inputs_need_fine_ticks():
    # the minimal divisions are far coarser than 480, and coarser than the
    # 1/8 qn sample grid that the rate-8 section slices cut at
    tune = synthetic_tune_families(0, n_families=1, min_variants=2, max_variants=2).songs[1].seq
    assert minimal_division([tune]) == 4
    works = synthetic_inventions(0, n_works=6)
    assert minimal_division([seq for w in works for seq in (w.upper, w.lower)]) == 2


@pytest.mark.parametrize("name", DIVISIONS)
def test_outputs_match_pins(name, tmp_path):
    write_outputs(tmp_path, DIVISIONS[name])
    for output in [*COMMANDS, "bach_trace.csv"]:
        expected = (PINS / name / output).read_bytes()
        assert (tmp_path / output).read_bytes() == expected, output
