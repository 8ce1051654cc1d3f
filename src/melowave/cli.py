"""Command-line entry point wiring all modules.

Every numeric CSV cell is written with full double precision and newline
line endings, so identical invocations produce byte-identical files. No
command uses randomness; synthetic corpora are derived from an explicit
seed flag.
"""

from __future__ import annotations

import argparse
import csv
import os
import stat
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import corpora, experiments
from .classifier import LabeledCorpus, Metric, pairwise_distances, predict_from_distances
from .contrapuntal import VariationKind, apply_variation
from .ingest import NoteSequence, extract_voice, first_track_selector
from .segmentation import Equalization, cut_segments
from .signals import RestPolicy, resample_to_length, sample_pitch_signal
from .wavelet import haar_filter, scalogram, support_samples

_BOOLEAN_KEYS = {"scalogram", "unsegmented", "grid", "zero-rest-renormalize"}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")  # their config values
_parser: argparse.ArgumentParser | None = None  # built by the first main call, then reused

# segmentation method -> the destination of its parameter flag, and the flag;
# only `segment` leaves these flags unset by default
_SEG_PARAM = {
    "ws-zc": ("seg_scale_qn", "--scale-qn"),
    "ws-max": ("seg_scale_qn", "--scale-qn"),
    "const": ("step_qn", "--step-qn"),
    "lbdm": ("threshold", "--threshold"),
}


def _fmt(value) -> str:
    if type(value) in (float, int, str):  # the common exact types before the slower ABC checks
        return repr(value) if type(value) is float else str(value)
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return str(value) if value.denominator == 1 else repr(float(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip repr, full precision
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_rows(path: str, rows) -> None:
    output = nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="")
    with output as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in rows:
            writer.writerow([cell if type(cell) is str else _fmt(cell) for cell in row])


def _load_sequence(args) -> NoteSequence:
    score = corpora.read_score(args.input)
    for message in score.dropped:
        print(f"melowave: warning: {message}", file=sys.stderr)
    selector = args.voice or first_track_selector(score, args.input)
    return extract_voice(score, selector, args.input)


def _segmentation(method: str, args) -> experiments.Segmentation:
    if method == "none":
        return experiments.Segmentation(experiments.SegMethod.NONE)
    dest, flag = _SEG_PARAM[method]
    if getattr(args, dest) is None:
        raise ValueError(f"--method {method} requires {flag}")
    return experiments.Segmentation(experiments.SegMethod(method), getattr(args, dest))


def _config(args, **fields) -> experiments.ExperimentConfig:
    """The experiment cell that the flags describe; ``fields`` replace
    flag values."""
    flags = dict(
        representation=experiments.Representation(args.rep),
        wavelet_rep_scale_qn=Fraction(args.rep_scale_qn),
        segmentation=_segmentation(args.seg, args),
        rest_policy=RestPolicy(args.rests),
        rate=Fraction(args.rate),
        equalization=Equalization(args.equalize),
        metric=Metric(args.metric),
        zero_rest_renormalize=args.zero_rest_renormalize,
    )
    return experiments.ExperimentConfig(**{**flags, **fields})


def _signal(args):
    seq = _load_sequence(args)
    policy = RestPolicy(args.rests)
    if getattr(args, "length", None) is not None:
        return resample_to_length(seq, args.length, policy)
    return sample_pitch_signal(seq, Fraction(args.rate), policy)


# --------------------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    seq = _load_sequence(args)
    rows = [("onset_qn", "duration_qn", "pitch_midi")]
    rows += [
        (float(ev.onset_qn), float(ev.duration_qn), ev.pitch_midi) for ev in seq.events
    ]
    _write_rows(args.output, rows)
    return 0


def cmd_signal(args) -> int:
    signal = _signal(args)
    rows = [("index", "value")] + [(i, v) for i, v in enumerate(signal)]
    _write_rows(args.output, rows)
    return 0


def cmd_cwt(args) -> int:
    signal = _signal(args)
    if args.scalogram:
        if not args.scales:
            raise ValueError("--scalogram requires --scales S1,S2,...")
        scales = [Fraction(s) for s in args.scales.split(",")]
        matrix = scalogram(signal, [support_samples(s, args.rate) for s in scales])
        rows = [["scale_qn"] + [f"u{i}" for i in range(matrix.shape[1])]]
        rows += [[scale] + list(row) for scale, row in zip(scales, matrix)]
    else:
        if args.scale_qn is None:
            raise ValueError("either --scale-qn or --scalogram is required")
        coeffs = haar_filter(signal, support_samples(Fraction(args.scale_qn), args.rate))
        rows = [("shift", "coefficient")] + [(u, w) for u, w in enumerate(coeffs)]
    _write_rows(args.output, rows)
    return 0


def cmd_segment(args) -> int:
    seq = _load_sequence(args)
    rate = Fraction(args.rate)
    signal = sample_pitch_signal(seq, rate, RestPolicy(args.rests))
    segmentation = _segmentation(args.method, args)
    boundaries = experiments.find_boundaries(signal, seq, segmentation, rate)
    rows = [("boundary_sample_index",)] + [(b,) for b in boundaries]
    _write_rows(args.output, rows)
    if args.segments_dir:
        directory = Path(args.segments_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for n, segment in enumerate(cut_segments(signal, boundaries)):
            seg_rows = [("index", "value")] + [(i, v) for i, v in enumerate(segment)]
            _write_rows(str(directory / f"segment_{n:03d}.csv"), seg_rows)
    return 0


def cmd_variations(args) -> int:
    signal = _signal(args)
    kinds = list(VariationKind)
    columns = [apply_variation(signal, kind) for kind in kinds]
    rows = [["index", "prime", "inversion", "retrograde", "retrograde_inversion"]]
    rows += [[i, *(col[i] for col in columns)] for i in range(len(signal))]
    _write_rows(args.output, rows)
    return 0


def _read_vectors_csv(path: str, what: str) -> tuple[np.ndarray, tuple]:
    """Rows and labels of a corpus or query CSV; blank lines are skipped. A
    corpus has a header when a cell of its first line reads ``label``, and
    takes its labels from that column, else from the first; a query CSV has
    a header when its first cell is not a number, and no labels. A line of
    another width than the first, or a value that is not a number, is an
    error that names the file and the line."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        lines = [(reader.line_num, row) for row in reader if row]
    if not lines:
        raise ValueError(f"{what} CSV {path} is empty")
    first_line, first = lines[0]
    label_col = None
    if what == "corpus":
        header = "label" in first
        label_col = first.index("label") if header else 0
    else:
        try:
            float(first[0])
            header = False
        except ValueError:
            header = True
    if header and what == "corpus" and len(lines) == 1:
        raise ValueError(f"corpus CSV {path} has a header but no rows")
    labels, vectors = [], []
    for line, row in lines[1:] if header else lines:
        where = f"{what} CSV {path}, line {line}"
        if len(row) != len(first):
            raise ValueError(f"{where}: {len(row)} values where line {first_line} has {len(first)}")
        try:
            vectors.append([float(c) for i, c in enumerate(row) if i != label_col])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if label_col is not None:
            labels.append(row[label_col])
    return np.array(vectors), tuple(labels)


def cmd_classify(args) -> int:
    experiments._check_ks((args.k,))
    corpus = LabeledCorpus(*_read_vectors_csv(args.corpus, "corpus"))
    queries, _ = _read_vectors_csv(args.queries, "query")
    width = corpus.rows.shape[1]
    if not queries.size:  # a header without vectors
        queries = queries.reshape(0, width)
    if queries.shape[1] != width:
        raise ValueError(
            f"query CSV {args.queries} has {queries.shape[1]} values per row where "
            f"corpus CSV {args.corpus} has {width}"
        )
    block = pairwise_distances(queries, corpus.rows, Metric(args.metric))
    by_k, nearest = predict_from_distances(block, corpus.labels, (args.k,))
    rows = [("query_index", "predicted_label", "nearest_distance")]
    rows += [(i, label, d) for i, (label, d) in enumerate(zip(by_k[args.k], nearest))]
    _write_rows(args.output, rows)
    return 0


_CELL_COLUMNS = ("rep", "seg", "param", "equalize", "metric", "k")
_TRACE_COLUMNS = ("item_id", "true", "predicted", "nearest_distance")


def _opened(name: str):
    """The status of the file that writing to ``name`` reaches (stdout's for
    "-"), or None if there is none yet or stdout has no descriptor."""
    try:
        return os.fstat(sys.stdout.fileno()) if name == "-" else os.stat(name)
    except (OSError, ValueError):
        return None


def _check_outputs(args) -> None:
    """Reject a --trace that writes to the file of -o, or to stdout beside
    it: the trace would replace the results, or follow them in one stream.
    Names count as one file when they resolve to one path or reach one file
    (stdout reaches the file or pipe it writes to); a character device such
    as /dev/null may take both."""
    if args.trace is None:
        return
    if args.trace == args.output == "-":
        raise ValueError("-o and --trace both write to stdout")
    names = args.output, args.trace
    files = [_opened(name) for name in names]
    if None in files:  # a file not made yet: one if the paths resolve to one
        same = "-" not in names and Path(names[0]).resolve() == Path(names[1]).resolve()
    else:
        same = os.path.samestat(*files) and not stat.S_ISCHR(files[0].st_mode)
    if same and "-" in names:
        raise ValueError("-o and --trace both write to stdout")
    if same:
        raise ValueError(f"-o and --trace name the same file: {args.trace}")


def _trace_rows(key: tuple, traces) -> list[tuple]:
    """Trace CSV rows, each led by the columns of ``key``, formatted once."""
    key = tuple(map(_fmt, key))
    return [(*key, t.item_id, t.true_label, t.predicted_label, t.nearest_distance) for t in traces]


def cmd_exp_bach(args) -> int:
    _check_outputs(args)
    works = corpora.load_bach_corpus(args.corpus, args.upper, args.lower)
    report = experiments.run_bach_experiment(
        works, _config(args), args.prefix_qn, args.contrapuntal == "cp"
    )
    rows = [("section_index", "accuracy")]
    rows += [(i, acc) for i, acc in enumerate(report.section_accuracies)]
    rows += [("mean", report.mean_accuracy), ("std", report.std_accuracy)]
    _write_rows(args.output, rows)
    if args.trace:
        _write_rows(args.trace, [_TRACE_COLUMNS, *_trace_rows((), report.traces)])
    return 0


def _folk_corpus(args) -> corpora.FolkCorpus:
    if args.synthetic_seed is not None:
        return corpora.synthetic_tune_families(
            args.synthetic_seed, n_families=args.synthetic_families
        )
    if not args.corpus or not args.labels:
        raise ValueError("exp folk needs --corpus DIR with --labels CSV, or --synthetic-seed N")
    return corpora.load_folk_corpus(args.corpus, args.labels)


def _cell_key(r) -> tuple:
    """The columns that name a folk cell in the result and trace CSVs."""
    return (
        r.representation.value,
        r.segmentation.value,
        r.param,
        r.equalization.value if r.equalization else "",
        r.metric.value,
        r.k,
    )


def _parse_list(text: str, caster):
    return tuple(caster(part) for part in text.split(",") if part)


# the flags that only the grid reads (None when not given) -> the type of their list items
_GRID_FLAGS = {"scales": Fraction, "thresholds": float, "ks": int, "jobs": None}


def cmd_exp_folk(args) -> int:
    _check_outputs(args)
    if args.grid and args.unsegmented:
        raise ValueError("the grid runs segmented cells and takes no --unsegmented")
    if args.grid and args.k is not None:
        raise ValueError("the grid takes its k values from --ks, not --k")
    if args.unsegmented and args.k is not None:
        raise ValueError("the unsegmented run is 1-NN and takes no --k")
    sweep = {name: getattr(args, name) for name in _GRID_FLAGS if getattr(args, name) is not None}
    if sweep and not args.grid:
        raise ValueError(f"only the grid reads --{next(iter(sweep))}")
    # the flags that only the unsegmented run reads (None when not given)
    whole = {name: getattr(args, name) for name in ("rep_support", "length")
             if getattr(args, name) is not None}
    if whole and not args.unsegmented:
        raise ValueError(f"only --unsegmented reads --{next(iter(whole)).replace('_', '-')}")
    corpus = _folk_corpus(args)
    if args.grid:
        reports = experiments.grid_search(
            corpus,
            _config(args),
            record_traces=bool(args.trace),
            **{name: _parse_list(value, _GRID_FLAGS[name]) if _GRID_FLAGS[name] else value
               for name, value in sweep.items()},
        )
    elif args.unsegmented:
        if "rep_support" in whole:
            whole["supports"] = _parse_list(whole.pop("rep_support"), int)
        reports = experiments.run_folk_unsegmented(corpus, _config(args), **whole)
    else:
        k = 1 if args.k is None else args.k
        reports = experiments.run_folk_segmented(corpus, _config(args), (k,))
    rows = [(*_CELL_COLUMNS, "accuracy")]
    for r in reports:
        rows.append((*_cell_key(r), f"ERROR({r.error})" if r.error else r.accuracy))
    _write_rows(args.output, rows)
    if args.trace:
        if args.grid or args.unsegmented:
            rows = [_CELL_COLUMNS + _TRACE_COLUMNS]
            for r in reports:
                rows += _trace_rows(_cell_key(r), r.traces)
        else:
            rows = [_TRACE_COLUMNS, *_trace_rows((), reports[0].traces)]
        _write_rows(args.trace, rows)
    return 0


# --------------------------------------------------------------------------- parser


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", default="-", help="output CSV path (default: stdout)")
    parser.add_argument("--config", default=None,
                        help="flat key=value file of defaults; CLI flags override it")


def _add_signal_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="input MIDI file")
    parser.add_argument("--voice", default=None,
                        help="voice selector: N, track:N or channel:N (default: first note track)")
    parser.add_argument("--rate", default="8", help="samples per quarter note (default 8)")
    parser.add_argument("--rests", choices=("represent", "remove"), default="represent",
                        help="rests become 0 or take the neighboring pitch")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melowave",
        description="Haar-wavelet melodic filtering, segmentation and classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a MIDI file to a note table")
    p.add_argument("input", help="input MIDI file")
    p.add_argument("--voice", default=None, help="voice selector: N, track:N or channel:N")
    _add_output(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("signal", help="sample a voice to a pitch signal")
    _add_signal_flags(p)
    p.add_argument("--length", type=int, default=None,
                   help="resample to exactly N samples instead of using --rate")
    _add_output(p)
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("cwt", help="Haar coefficients at one scale, or a scalogram")
    _add_signal_flags(p)
    p.add_argument("--scale-qn", default=None, help="wavelet scale in quarter notes")
    p.add_argument("--scalogram", action="store_true", help="emit a scale-by-shift matrix")
    p.add_argument("--scales", default=None, help="comma list of scales for --scalogram")
    _add_output(p)
    p.set_defaults(func=cmd_cwt)

    p = sub.add_parser("segment", help="boundary detection on a voice")
    _add_signal_flags(p)
    p.add_argument("--method", choices=("ws-zc", "ws-max", "const", "lbdm"), required=True)
    p.add_argument("--scale-qn", dest="seg_scale_qn", default=None,
                   help="wavelet scale for ws-zc/ws-max")
    p.add_argument("--step-qn", default=None, help="grid step for const")
    p.add_argument("--threshold", type=float, default=None, help="LBDM threshold in [0,1]")
    p.add_argument("--segments-dir", default=None,
                   help="also write one CSV per segment into this directory")
    _add_output(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("variations", help="contrapuntal variants of a pitch signal")
    _add_signal_flags(p)
    _add_output(p)
    p.set_defaults(func=cmd_variations)

    p = sub.add_parser("classify", help="kNN over CSV corpora")
    p.add_argument("--corpus", required=True, help="corpus CSV with a label column")
    p.add_argument("--queries", required=True, help="query vectors CSV")
    p.add_argument("--k", type=int, default=1, help="neighbors, 1..5")
    p.add_argument("--metric", choices=("euclidean", "cityblock"), default="cityblock")
    _add_output(p)
    p.set_defaults(func=cmd_classify)

    exp = sub.add_parser("exp", help="full experiment harnesses")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    p = exp_sub.add_parser("bach", help="section classification of two-part works")
    p.add_argument("--corpus", required=True, help="directory of two-part MIDI works")
    p.add_argument("--upper", default=None, help="voice selector for the upper part")
    p.add_argument("--lower", default=None, help="voice selector for the lower part")
    p.add_argument("--prefix-qn", type=int, choices=(4, 8, 16), default=16,
                   help="quarter notes of exposition used for the classifier")
    p.add_argument("--rep", choices=("wr", "vr"), default="wr",
                   help="wavelet or normalized pitch signal representation")
    p.add_argument("--rep-scale-qn", default="1", help="wavelet representation scale")
    p.add_argument("--seg", choices=("ws-zc", "lbdm", "const", "none"), default="ws-zc")
    p.add_argument("--seg-scale-qn", default="1", help="zero-crossing segmentation scale")
    p.add_argument("--step-qn", default="1", help="constant segmentation step")
    p.add_argument("--threshold", type=float, default=0.2, help="LBDM threshold")
    p.add_argument("--metric", choices=("euclidean", "cityblock"), default="cityblock")
    p.add_argument("--equalize", choices=("pad", "interp"), default="pad")
    p.add_argument("--rests", choices=("represent", "remove"), default="represent")
    p.add_argument("--contrapuntal", choices=("nc", "cp"), default="nc",
                   help="cp adds inversion/retrograde/retrograde-inversion classes")
    p.add_argument("--zero-rest-renormalize", action="store_true",
                   help="normalize over sounding samples only, re-zeroing rests")
    p.add_argument("--rate", default="8")
    p.add_argument("--trace", default=None, help="write per-item prediction CSV here")
    _add_output(p)
    p.set_defaults(func=cmd_exp_bach)

    p = exp_sub.add_parser("folk", help="tune-family classification")
    _add_folk_flags(p)
    p.set_defaults(func=cmd_exp_folk)

    p = sub.add_parser("grid", help="shortcut for: exp folk --grid")
    _add_folk_flags(p)
    p.set_defaults(func=cmd_exp_folk, grid=True)

    return parser


def _add_folk_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", default=None, help="directory of folk tune MIDI files")
    p.add_argument("--labels", default=None, help="manifest CSV: filename,family")
    p.add_argument("--synthetic-seed", type=int, default=None,
                   help="use the built-in synthetic tune-family corpus with this seed")
    p.add_argument("--synthetic-families", type=int, default=26,
                   help="family count for the synthetic corpus (default 26)")
    p.add_argument("--unsegmented", action="store_true",
                   help="whole melodies resampled to --length, 1-NN leave-one-out")
    p.add_argument("--grid", action="store_true",
                   help="sweep representations x segmentations x equalizations x metrics x k")
    p.add_argument("--rep", choices=("wr", "vr"), default="wr")
    p.add_argument("--rep-scale-qn", default="1",
                   help="wavelet representation scale (segmented runs)")
    p.add_argument("--rep-support", help="comma list of wavelet supports in samples for "
                   "--unsegmented wr (default 2,4,8,16,32,64,128,256)")
    p.add_argument("--seg", choices=("ws-max", "lbdm"), default="ws-max")
    p.add_argument("--seg-scale-qn", default="1", help="local-maxima segmentation scale")
    p.add_argument("--threshold", type=float, default=0.4, help="LBDM threshold")
    p.add_argument("--length", type=int,
                   help="fixed signal length for --unsegmented (default 1024)")
    p.add_argument("--k", type=int, default=None,
                   help="neighbors, 1..5, for a single cell (default 1)")
    p.add_argument("--metric", choices=("euclidean", "cityblock"), default="cityblock")
    p.add_argument("--equalize", choices=("pad", "interp"), default="pad")
    p.add_argument("--rests", choices=("represent", "remove"), default="remove")
    p.add_argument("--zero-rest-renormalize", action="store_true")
    p.add_argument("--rate", default="8")
    p.add_argument("--scales", help="comma list of wavelet scales for --grid "
                   "(default 1,2,4,8,16,32,64,128)")
    p.add_argument("--thresholds", help="comma list of LBDM thresholds for --grid "
                   "(default 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8)")
    p.add_argument("--ks", help="comma list of k values for --grid (default 1,2,3,4,5)")
    p.add_argument("--jobs", type=int,
                   help="parallel workers for --grid, at most one per segmentation (default 1)")
    p.add_argument("--trace", default=None, help="write per-item prediction CSV here")
    _add_output(p)


def _command(parser: argparse.ArgumentParser, argv: list[str]):
    """The parser of the command that the leading words of ``argv`` name,
    or None when they name no whole command, and how many words name it."""
    head = 0
    while subs := [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]:
        if head == len(argv) or argv[head] not in subs[0].choices:
            return None, head
        parser, head = subs[0].choices[argv[head]], head + 1
    return parser, head


def _expand_config_file(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Insert flags from a --config file after the command's words and
    before the user's flags, so the command line overrides the file. A
    line that is no ``key = value`` of the command is a one-line error."""
    at = [i for i, arg in enumerate(argv) if arg == "--config" or arg.startswith("--config=")]
    if not at:
        return argv
    if len(at) > 1:
        raise ValueError("--config may be given only once")
    (i,) = at
    if argv[i] == "--config":
        if i + 1 >= len(argv):
            raise ValueError("--config needs a file path")
        path, argv = argv[i + 1], argv[:i] + argv[i + 2 :]
    else:
        path, argv = argv[i].split("=", 1)[1], argv[:i] + argv[i + 1 :]
    command, head = _command(parser, argv)
    if command is None:  # argparse names the missing or unknown command
        return argv
    flags: list[str] = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        key = key.replace("_", "-")
        where = f"{path}, line {number}"
        if key == "config":  # argparse would take it, and nothing would read it
            raise ValueError(f"{path}: a config file cannot name another")
        if not equals:
            raise ValueError(f"{where}: expected key = value, got {line!r}")
        if f"--{key}" not in command._option_string_actions:
            raise ValueError(f"{where}: {command.prog} takes no --{key}")
        if key in _BOOLEAN_KEYS:
            if value.lower() not in _TRUE + _FALSE:
                raise ValueError(f"{where}: --{key} is true or false, got {value!r}")
            if value.lower() in _TRUE:
                flags.append(f"--{key}")
            continue
        flags.extend((f"--{key}", value))
    return argv[:head] + flags + argv[head:]


def main(argv: list[str] | None = None) -> int:
    global _parser
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser = _parser or build_parser()
    try:
        argv = _expand_config_file(argv, parser)
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader of stdout has gone: stop quietly, and send what is
        # still buffered, flushed at exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"melowave: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
