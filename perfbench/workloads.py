"""The benchmark's workloads: inputs made from a seed, and the melowave
commands of one pass over them.

Set-up writes MIDI files (and the folk labels) so the program receives only
files. A pass runs the workload's commands and turns their output files into
operations, each with a sha256 digest of the bytes it wrote and an error when
a check failed.

- ``folk-grid``: the tune-family grid, reduced to 16 cells (one wavelet
  scale, one LBDM threshold, k = 1..5) on 26 families x 3 variants. Time goes
  to distances and the leave-one-out decision loop; each sampled song serves
  16 cells, so stage caching shows here.
- ``bach-sweep``: ``exp bach`` over 32 configurations. Nothing is shared
  between configurations; it exercises the classifier's decision functions,
  the contrapuntal variants and MIDI ingest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

from melowave import corpora
from melowave.ingest import write_standard_midi

WORKLOADS = ("folk-grid", "bach-sweep")

# layers (tracer span names) that every traced pass of a workload must reach
LAYERS_RUN = {
    "folk-grid": {
        "signals.sample", "segmentation.boundaries", "segmentation.cut",
        "segmentation.equalize", "classifier.distances", "experiments.entry",
        "ingest.parse", "ingest.extract", "wavelet.filter", "cli.main", "corpora.load",
    },
    "bach-sweep": {
        "signals.sample", "segmentation.boundaries", "segmentation.cut",
        "segmentation.equalize", "classifier.distances", "classifier.decide",
        "experiments.entry", "ingest.parse", "ingest.extract",
        "contrapuntal.variation", "wavelet.filter", "cli.main", "corpora.load",
    },
}

# full size, and the small size the benchmark's own test uses
SIZES = {
    "folk-grid": {"full": (26, 3), "small": (4, 3)},  # families, variants per family
    "bach-sweep": {"full": 10, "small": 4},  # works
}

GRID_HEADER = "rep,seg,param,equalize,metric,k,accuracy"
GRID_TRACE_HEADER = "rep,seg,param,equalize,metric,k,item_id,true,predicted,nearest_distance"
GRID_CELLS = [
    ".".join(cell)
    for cell in itertools.product(
        ("wr", "vr"), ("ws-max.1", "lbdm.0.4"), ("pad", "interp"), ("cityblock", "euclidean")
    )
]
KS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Command:
    """One melowave invocation; its outputs go to ``out`` (a directory)."""

    op_id: str
    argv: tuple[str, ...]
    out: Path
    primary: str  # file name of the main output CSV in ``out``
    header: str  # its expected first line


@dataclass
class Op:
    op_id: str
    digest: str
    error: str | None = None


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# --------------------------------------------------------------------------- set-up


def setup(workload: str, seed: int, inputs: Path, size: str = "full") -> None:
    """Generate the workload's input files from the seed."""
    n = SIZES[workload][size]
    if workload == "folk-grid":
        families, variants = n
        corpus = corpora.synthetic_tune_families(
            seed, n_families=families, min_variants=variants, max_variants=variants
        )
        labels = [("filename", "family")]
        for song in corpus.songs:
            _write(inputs / "tunes" / f"{song.song_id}.mid", write_standard_midi(song.seq))
            labels.append((f"{song.song_id}.mid", song.family))
        _write(inputs / "labels.csv", _csv_text(labels).encode())
    else:
        for work in corpora.synthetic_inventions(seed, n_works=n):
            data = write_standard_midi([work.upper, work.lower], division=480)
            _write(inputs / "inventions" / f"{work.work_id}.mid", data)


# --------------------------------------------------------------------------- commands


def commands(workload: str, inputs: Path, out: Path) -> list[Command]:
    """The commands of one pass, in order."""
    if workload == "folk-grid":
        return [Command(
            "grid",
            (
                "grid", "--corpus", str(inputs / "tunes"), "--labels", str(inputs / "labels.csv"),
                "--scales", "1", "--thresholds", "0.4", "--ks", ",".join(map(str, KS)),
                "--jobs", "1", "-o", str(out / "grid" / "grid.csv"),
                "--trace", str(out / "grid" / "trace.csv"),
            ),
            out / "grid",
            "grid.csv",
            GRID_HEADER,
        )]
    cmds = []
    for rep, seg, cp, eq in itertools.product(
        ("wr", "vr"), ("ws-zc", "lbdm", "const", "none"), ("nc", "cp"), ("pad", "interp")
    ):
        op_id = f"{rep}.{seg}.{cp}.{eq}"
        cmds.append(Command(
            op_id,
            (
                "exp", "bach", "--corpus", str(inputs / "inventions"), "--rep", rep,
                "--seg", seg, "--contrapuntal", cp, "--equalize", eq,
                "-o", str(out / op_id / "sections.csv"), "--trace", str(out / op_id / "trace.csv"),
            ),
            out / op_id,
            "sections.csv",
            "section_index,accuracy",
        ))
    return cmds


# --------------------------------------------------------------------------- operations


def _digest_dir(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _check_accuracy(text: str) -> str | None:
    try:
        value = float(text)
    except ValueError:
        return f"accuracy {text!r}"
    return None if 0.0 <= value <= 1.0 else f"accuracy {value} outside [0, 1]"


def operations(workload: str, cmd: Command, returncode: int | str) -> list[Op]:
    """Operations of one finished command, with output checks applied."""
    if workload == "folk-grid":
        return _grid_cells(cmd, returncode)
    digest = _digest_dir(cmd.out) if cmd.out.is_dir() else ""
    if returncode != 0:
        return [Op(cmd.op_id, digest, f"exit code {returncode}")]
    primary = cmd.out / cmd.primary
    text = primary.read_text() if primary.is_file() else ""
    if not text.startswith(cmd.header):
        return [Op(cmd.op_id, digest, f"{primary.name} does not start with {cmd.header!r}")]
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if [r[0] for r in rows] != ["0", "1", "2", "mean", "std"]:
        return [Op(cmd.op_id, digest, "unexpected section rows")]
    for _, accuracy in rows[:3]:
        if (problem := _check_accuracy(accuracy)) is not None:
            return [Op(cmd.op_id, digest, problem)]
    return [Op(cmd.op_id, digest)]


def _grid_cells(cmd: Command, returncode: int | str) -> list[Op]:
    """One operation per grid cell; a cell's digest covers its result rows
    and its trace rows."""
    if returncode != 0:
        return [Op(cell, "", f"exit code {returncode}") for cell in GRID_CELLS]
    grid = (cmd.out / cmd.primary).read_text().splitlines()
    trace = (cmd.out / "trace.csv").read_text().splitlines()
    if grid[:1] != [GRID_HEADER] or trace[:1] != [GRID_TRACE_HEADER]:
        return [Op(cell, "", "unexpected grid or trace header") for cell in GRID_CELLS]
    lines: dict[str, list[str]] = {cell: [] for cell in GRID_CELLS}
    ks: dict[str, list[str]] = {cell: [] for cell in GRID_CELLS}
    errors: dict[str, str] = {}
    for line in grid[1:] + trace[1:]:
        fields = next(csv.reader([line]))
        cell = ".".join(fields[:5])
        if cell not in lines:
            errors.setdefault(cell, "unexpected cell")
        lines.setdefault(cell, []).append(line)
        if len(fields) == 7:  # a result row: rep,seg,param,equalize,metric,k,accuracy
            ks.setdefault(cell, []).append(fields[5])
            if (problem := _check_accuracy(fields[6])) is not None:
                errors.setdefault(cell, problem)
    for cell, found in ks.items():
        if found != [str(k) for k in KS]:
            errors.setdefault(cell, f"k rows {found}")
    return [
        Op(cell, hashlib.sha256("\n".join(rows).encode()).hexdigest(), errors.get(cell))
        for cell, rows in lines.items()
    ]


def zero_nearest(outs) -> tuple[int, int]:
    """(rows at distance 0, rows) over every output CSV in the directories
    ``outs`` with a ``nearest_distance`` column."""
    zeros = total = 0
    for path in sorted(path for out in outs for path in out.rglob("*.csv")):
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            if "nearest_distance" not in header:
                continue
            col = header.index("nearest_distance")
            for row in reader:
                total += 1
                zeros += float(row[col]) == 0.0
    return zeros, total
