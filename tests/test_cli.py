"""Command-line interface: formats, determinism, error handling."""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from melowave.cli import main
from melowave.corpora import synthetic_inventions, synthetic_tune_families
from melowave.ingest import write_standard_midi

from conftest import make_sequence, smf, track_chunk

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"

# `exp bach` configurations pinned byte for byte in tests/data/bach_seed0
BACH_GOLDEN = {
    "nc_wr_wszc_pad": [],
    "nc_vr_const_interp": ["--rep", "vr", "--seg", "const", "--step-qn", "2",
                           "--equalize", "interp", "--metric", "euclidean"],
    "nc_vr_lbdm_pad_renorm": ["--rep", "vr", "--seg", "lbdm", "--threshold", "0.3",
                              "--zero-rest-renormalize", "--prefix-qn", "8"],
    "nc_wr_none_interp": ["--seg", "none", "--equalize", "interp", "--rests", "remove"],
    "cp_wr_lbdm_interp": ["--contrapuntal", "cp", "--seg", "lbdm", "--equalize", "interp",
                          "--rep-scale-qn", "2", "--metric", "euclidean"],
    "cp_vr_wszc_pad_renorm": ["--contrapuntal", "cp", "--rep", "vr", "--seg-scale-qn", "2",
                              "--zero-rest-renormalize"],
    "cp_vr_none_pad": ["--contrapuntal", "cp", "--rep", "vr", "--seg", "none"],
    "cp_wr_const_pad": ["--contrapuntal", "cp", "--seg", "const", "--step-qn", "1/2",
                        "--rate", "4"],
}


@pytest.fixture(scope="module")
def melody_mid(tmp_path_factory):
    path = tmp_path_factory.mktemp("midi") / "melody.mid"
    seq = make_sequence([(0, 1, 60), (1, 1, 62), (2, 1, 64), (3, 1, 65), (4, 2, 67)])
    path.write_bytes(write_standard_midi(seq, division=480))
    return path


@pytest.fixture(scope="module")
def constant_mid(tmp_path_factory):
    path = tmp_path_factory.mktemp("midi") / "constant.mid"
    path.write_bytes(write_standard_midi(make_sequence([(0, 8, 72)]), division=480))
    return path


@pytest.fixture(scope="module")
def ramp_mid(tmp_path_factory):
    # equal pitch steps: sampled at rate 1 the signal is a strict ramp,
    # whose coefficients have no interior local maxima
    path = tmp_path_factory.mktemp("midi") / "ramp.mid"
    seq = make_sequence([(i, 1, 60 + 2 * i) for i in range(8)])
    path.write_bytes(write_standard_midi(seq, division=480))
    return path


@pytest.fixture(scope="module")
def noteless_mid(tmp_path_factory):
    path = tmp_path_factory.mktemp("midi") / "silent.mid"
    path.write_bytes(smf(480, [track_chunk(b"")]))
    return path


@pytest.fixture(scope="module")
def bach_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inventions")
    for work in synthetic_inventions(0):
        data = write_standard_midi([work.upper, work.lower], division=480)
        (directory / f"{work.work_id}.mid").write_bytes(data)
    return directory


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestBasicCommands:
    def test_ingest(self, melody_mid, tmp_path):
        out = tmp_path / "notes.csv"
        assert main(["ingest", str(melody_mid), "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["onset_qn", "duration_qn", "pitch_midi"]
        assert rows[1] == ["0.0", "1.0", "60"]
        assert len(rows) == 6

    def test_signal(self, melody_mid, tmp_path):
        out = tmp_path / "signal.csv"
        assert main(["signal", str(melody_mid), "--rate", "2", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "value"]
        assert [r[1] for r in rows[1:5]] == ["60.0", "60.0", "62.0", "62.0"]

    def test_signal_fixed_length(self, melody_mid, tmp_path):
        out = tmp_path / "signal.csv"
        assert main(["signal", str(melody_mid), "--length", "64", "-o", str(out)]) == 0
        assert len(read_csv(out)) == 65

    def test_cwt_constant_is_zero(self, constant_mid, tmp_path):
        out = tmp_path / "cwt.csv"
        assert main(["cwt", str(constant_mid), "--scale-qn", "4", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["shift", "coefficient"]
        values = np.array([float(r[1]) for r in rows[1:]])
        assert np.abs(values).max() <= 1e-12

    def test_cwt_scalogram(self, melody_mid, tmp_path):
        out = tmp_path / "scalogram.csv"
        assert main([
            "cwt", str(melody_mid), "--scalogram", "--scales", "0.5,1,2", "-o", str(out)
        ]) == 0
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == ["0.5", "1", "2"]
        assert len(rows[1]) == 48 + 1  # 6 qn at rate 8

    def test_segment_monotone_has_only_defaults(self, ramp_mid, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main([
            "segment", str(ramp_mid), "--method", "ws-max", "--scale-qn", "2",
            "--rate", "1", "-o", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[0] == ["boundary_sample_index"]
        assert [r[0] for r in rows[1:]] == ["0", "8"]

    def test_segment_dumps_segments(self, melody_mid, tmp_path):
        out = tmp_path / "bounds.csv"
        seg_dir = tmp_path / "segs"
        assert main([
            "segment", str(melody_mid), "--method", "const", "--step-qn", "2",
            "-o", str(out), "--segments-dir", str(seg_dir),
        ]) == 0
        boundaries = [int(r[0]) for r in read_csv(out)[1:]]
        files = sorted(seg_dir.iterdir())
        assert len(files) == len(boundaries) - 1

    def test_variations(self, melody_mid, tmp_path):
        out = tmp_path / "var.csv"
        assert main(["variations", str(melody_mid), "--rate", "1", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "prime", "inversion", "retrograde", "retrograde_inversion"]
        prime = [float(r[1]) for r in rows[1:]]
        retro = [float(r[3]) for r in rows[1:]]
        assert retro == prime[::-1]

    def test_classify(self, tmp_path):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("label,v0,v1\nA,0,0\nB,10,10\n")
        queries = tmp_path / "queries.csv"
        queries.write_text("1,1\n9,9\n")
        out = tmp_path / "pred.csv"
        assert main([
            "classify", "--corpus", str(corpus), "--queries", str(queries),
            "--k", "1", "--metric", "cityblock", "-o", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[0] == ["query_index", "predicted_label", "nearest_distance"]
        assert [r[1] for r in rows[1:]] == ["A", "B"]
        assert float(rows[1][2]) == 2.0


# imports the CLI, runs main() on its arguments (if any) and prints the exit
# status and whether scipy was imported
_IMPORT_PROBE = """
import sys
from melowave.cli import main
code = 0
if sys.argv[1:]:
    try:
        code = main(sys.argv[1:])
    except SystemExit as stop:
        code = stop.code
print(code, "scipy" in sys.modules)
"""


class TestImportGuard:
    """scipy holds only the distance kernel: a process imports it at its
    first distance, and a command that measures none never does."""

    @staticmethod
    def probe(argv: list) -> list:
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()[-2:]

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="import"),
        pytest.param(["--help"], id="help"),
        pytest.param(["ingest", "{mid}"], id="ingest"),
        pytest.param(["signal", "{mid}", "--rate", "2"], id="signal"),
        pytest.param(["cwt", "{mid}", "--scale-qn", "1"], id="cwt"),
        pytest.param(["cwt", "{mid}", "--scalogram", "--scales", "0.5,1"], id="cwt-scalogram"),
        pytest.param(["segment", "{mid}", "--method", "ws-zc", "--scale-qn", "1",
                      "--segments-dir", "{dir}"], id="segment-ws-zc"),
        pytest.param(["segment", "{mid}", "--method", "ws-max", "--scale-qn", "1"],
                     id="segment-ws-max"),
        pytest.param(["segment", "{mid}", "--method", "const", "--step-qn", "2"],
                     id="segment-const"),
        pytest.param(["segment", "{mid}", "--method", "lbdm", "--threshold", "0.1"],
                     id="segment-lbdm"),
        pytest.param(["variations", "{mid}", "--rate", "1"], id="variations"),
    ])
    def test_commands_without_distances_leave_scipy_unloaded(self, argv, melody_mid, tmp_path):
        argv = [a.format(mid=melody_mid, dir=tmp_path / "segs") for a in argv]
        if len(argv) > 1:  # a command, which writes a CSV
            argv += ["-o", str(tmp_path / "out.csv")]
        assert self.probe(argv) == ["0", "False"]

    def test_classify_loads_scipy(self, tmp_path):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("label,v0,v1\nA,0,0\nB,10,10\n")
        queries = tmp_path / "queries.csv"
        queries.write_text("1,1\n9,9\n")
        out = tmp_path / "pred.csv"
        assert self.probe(["classify", "--corpus", str(corpus), "--queries", str(queries),
                           "--k", "1", "--metric", "cityblock", "-o", str(out)]) == ["0", "True"]
        assert out.read_bytes() == (
            b"query_index,predicted_label,nearest_distance\n0,A,2.0\n1,B,2.0\n"
        )


class TestExperimentCommands:
    def test_exp_bach(self, bach_dir, tmp_path):
        out = tmp_path / "bach.csv"
        trace = tmp_path / "trace.csv"
        assert main([
            "exp", "bach", "--corpus", str(bach_dir), "-o", str(out),
            "--trace", str(trace),
        ]) == 0
        rows = read_csv(out)
        assert rows[0] == ["section_index", "accuracy"]
        assert rows[4][0] == "mean" and rows[5][0] == "std"
        accs = [float(rows[i][1]) for i in (1, 2, 3)]
        assert float(rows[4][1]) == pytest.approx(np.mean(accs))
        trace_rows = read_csv(trace)
        assert trace_rows[0] == ["item_id", "true", "predicted", "nearest_distance"]
        assert len(trace_rows) == 1 + 45

    @pytest.mark.parametrize("contrapuntal", ["nc", "cp"])
    def test_exp_bach_lbdm_at_divisions_near_2_15(self, tmp_path, contrapuntal):
        # the lcm of these divisions is 78 bits: LBDM lays each part over its
        # least division, so the run equals the one on the least divisions
        divisions = (32692, 32706, 32712, 32716, 32718, 32748)
        out = {}
        for name, division in (("fine", divisions), ("least", [None] * 6)):
            corpus = tmp_path / name
            corpus.mkdir()
            for work, d in zip(synthetic_inventions(0, 6), division):
                data = write_standard_midi([work.upper, work.lower], division=d)
                (corpus / f"{work.work_id}.mid").write_bytes(data)
            out[name] = tmp_path / f"{name}.csv"
            assert main(["exp", "bach", "--corpus", str(corpus), "--seg", "lbdm",
                         "--contrapuntal", contrapuntal, "-o", str(out[name])]) == 0
        assert out["fine"].read_bytes() == out["least"].read_bytes()

    def test_exp_folk_segmented_cell(self, tmp_path):
        out = tmp_path / "folk.csv"
        assert main([
            "exp", "folk", "--synthetic-seed", "5", "--synthetic-families", "4", "--seg", "ws-max",
            "--seg-scale-qn", "2", "--rep-scale-qn", "2", "-o", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[0] == ["rep", "seg", "param", "equalize", "metric", "k", "accuracy"]
        assert rows[1][:6] == ["wr", "ws-max", "2", "pad", "cityblock", "1"]
        assert 0 <= float(rows[1][6]) <= 1

    def test_exp_folk_unsegmented(self, tmp_path):
        out = tmp_path / "folk.csv"
        assert main([
            "exp", "folk", "--synthetic-seed", "5", "--synthetic-families", "4", "--unsegmented", "--rep", "vr",
            "--length", "256", "-o", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[1][:2] == ["vr", "none"]
        assert 0 <= float(rows[1][6]) <= 1

    def test_grid_alias_small(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main([
            "grid", "--synthetic-seed", "12", "--synthetic-families", "3", "--scales", "1", "--thresholds", "0.4",
            "--ks", "1,2", "-o", str(out),
        ]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 2 * 2 * 2 * 2 * 2
        k1 = [r for r in rows[1:] if r[5] == "1"]
        k2 = [r for r in rows[1:] if r[5] == "2"]
        assert [r[6] for r in k1] == [r[6] for r in k2]

    def test_grid_honours_zero_rest_renormalize(self, tmp_path):
        # the flag changes vr rows when rests are represented; the grid's
        # rows must equal the single cells run with the same flags
        common = ["--synthetic-seed", "0", "--synthetic-families", "4", "--rests", "represent"]
        rows = {}
        for flags in ([], ["--zero-rest-renormalize"]):
            out = tmp_path / "grid.csv"
            assert main(["grid", *common, "--scales", "1", "--thresholds", "0.4", "--ks", "1",
                         *flags, "-o", str(out)]) == 0
            rows[bool(flags)] = [r for r in read_csv(out)[1:] if r[0] == "vr"]
        assert rows[True] != rows[False]
        for row in rows[True]:
            rep, seg, param, equalize, metric, k = row[:6]
            out = tmp_path / "cell.csv"
            param_flag = "--seg-scale-qn" if seg == "ws-max" else "--threshold"
            assert main(["exp", "folk", *common, "--rep", rep, "--seg", seg, param_flag, param,
                         "--equalize", equalize, "--metric", metric, "--k", k,
                         "--zero-rest-renormalize", "-o", str(out)]) == 0
            assert read_csv(out)[1] == row

    def test_config_file_defaults_and_override(self, bach_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prefix-qn = 8\nmetric = euclidean\n")
        out_file = tmp_path / "a.csv"
        assert main([
            "exp", "bach", "--config", str(cfg), "--corpus", str(bach_dir),
            "-o", str(out_file),
        ]) == 0
        out_override = tmp_path / "b.csv"
        assert main([
            "exp", "bach", "--config", str(cfg), "--corpus", str(bach_dir),
            "--prefix-qn", "16", "-o", str(out_override),
        ]) == 0
        baseline = tmp_path / "c.csv"
        assert main([
            "exp", "bach", "--corpus", str(bach_dir), "--prefix-qn", "8",
            "--metric", "euclidean", "-o", str(baseline),
        ]) == 0
        assert out_file.read_bytes() == baseline.read_bytes()
        assert out_file.read_bytes() != out_override.read_bytes()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, bach_dir, tmp_path):
        outputs = []
        for i in range(3):
            out = tmp_path / f"run{i}.csv"
            assert main(["exp", "bach", "--corpus", str(bach_dir), "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_grid_jobs_byte_identical(self, tmp_path):
        args = ["exp", "folk", "--synthetic-seed", "3", "--synthetic-families", "3", "--grid", "--scales", "1,2",
                "--thresholds", "0.4", "--ks", "1"]
        out1 = tmp_path / "jobs1.csv"
        out8 = tmp_path / "jobs8.csv"
        assert main(args + ["--jobs", "1", "-o", str(out1)]) == 0
        assert main(args + ["--jobs", "8", "-o", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_grid_matches_golden(self, jobs, tmp_path):
        # recorded before the grid became stage-cached; a change to either
        # file changes the grid's output and needs a note in CHANGES.md
        out, trace = tmp_path / "grid.csv", tmp_path / "trace.csv"
        assert main([
            "grid", "--synthetic-seed", "0", "--synthetic-families", "4", "--scales", "1,128",
            "--thresholds", "0.4", "--ks", "1,2,3", "--jobs", jobs,
            "-o", str(out), "--trace", str(trace),
        ]) == 0
        assert out.read_bytes() == (DATA / "grid_seed0_f4.csv").read_bytes()
        digest = (DATA / "grid_seed0_f4_trace.sha256").read_text().strip()
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest

    # the segmented-cell flags must not change the unsegmented run
    @pytest.mark.parametrize("rep, metric, cell", [
        pytest.param(rep, metric, cell, id=f"{metric}-{rep}{suffix}")
        for suffix, cell in (
            ("", []),
            ("-lbdm-interp-rate4", ["--seg", "lbdm", "--equalize", "interp", "--rate", "4"]),
        )
        for metric in ("cityblock", "euclidean")
        for rep in ("wr", "vr")
    ])
    def test_unsegmented_matches_golden(self, rep, metric, cell, tmp_path):
        # result and trace CSVs of `exp folk --unsegmented` (wr: the default
        # support sweep). The results were recorded while the unsegmented run
        # still had its own leave-one-out rule; the traces were re-recorded in
        # the grid's keyed format, one row per song and support. A change to
        # these files changes its output
        out, trace = tmp_path / "folk.csv", tmp_path / "trace.csv"
        assert main([
            "exp", "folk", "--unsegmented", "--synthetic-seed", "0",
            "--synthetic-families", "4", "--rep", rep, "--metric", metric, *cell,
            "-o", str(out), "--trace", str(trace),
        ]) == 0
        name = f"{rep}_{metric}"
        assert out.read_bytes() == (DATA / "unseg_seed0_f4" / f"{name}.csv").read_bytes()
        assert trace.read_bytes() == (DATA / "unseg_seed0_f4" / f"{name}_trace.csv").read_bytes()

    def test_unsegmented_trace_rescores_every_support(self, tmp_path):
        out, trace = tmp_path / "folk.csv", tmp_path / "trace.csv"
        supports = ["2", "8", "64"]
        assert main([
            "exp", "folk", "--unsegmented", "--synthetic-seed", "3",
            "--synthetic-families", "3", "--length", "256", "--rep-support", ",".join(supports),
            "-o", str(out), "--trace", str(trace),
        ]) == 0
        n_songs = len(synthetic_tune_families(3, n_families=3))
        results, traces = read_csv(out)[1:], read_csv(trace)
        assert traces[0] == ["rep", "seg", "param", "equalize", "metric", "k",
                             "item_id", "true", "predicted", "nearest_distance"]
        assert len(traces) == 1 + len(supports) * n_songs
        assert [row[2] for row in results] == supports
        for row in results:
            rows = [t for t in traces[1:] if t[:6] == row[:6]]
            assert len(rows) == n_songs
            assert float(row[6]) == sum(t[7] == t[8] for t in rows) / n_songs

    @pytest.mark.parametrize("name", sorted(BACH_GOLDEN))
    def test_bach_matches_golden(self, name, bach_dir, tmp_path):
        # result and trace CSVs of `exp bach` on synthetic_inventions(0),
        # recorded before segments became plain arrays; a change to these
        # files changes the invention experiment's output
        out, trace = tmp_path / "bach.csv", tmp_path / "trace.csv"
        assert main([
            "exp", "bach", "--corpus", str(bach_dir), *BACH_GOLDEN[name],
            "-o", str(out), "--trace", str(trace),
        ]) == 0
        assert out.read_bytes() == (DATA / "bach_seed0" / f"{name}.csv").read_bytes()
        assert trace.read_bytes() == (DATA / "bach_seed0" / f"{name}_trace.csv").read_bytes()


class TestErrors:
    def test_missing_input_file(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.mid")]) == 2

    def test_not_a_midi_file(self, tmp_path):
        bad = tmp_path / "bad.mid"
        bad.write_bytes(b"not midi at all")
        assert main(["ingest", str(bad)]) == 2

    @pytest.mark.parametrize("command", [
        ["ingest"], ["signal"], ["cwt", "--scale-qn", "1"], ["variations"],
        ["segment", "--method", "const", "--step-qn", "1"],
    ])
    def test_noteless_midi_one_line_error(self, noteless_mid, command, capsys):
        assert main([command[0], str(noteless_mid), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err == f"melowave: error: {noteless_mid}: the file contains no notes\n"

    def test_truncated_header_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "truncated.mid"
        bad.write_bytes(b"MThd\x15\x043\x94\xb9")
        assert main(["ingest", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == f"melowave: error: {bad}: truncated MThd chunk\n"

    @pytest.mark.parametrize("experiment", ["folk", "bach"])
    def test_corpus_parse_error_names_the_file(self, tmp_path, experiment, capsys):
        corpus = synthetic_tune_families(0, n_families=2, min_variants=2, max_variants=2)
        for song in corpus.songs:
            (tmp_path / f"{song.song_id}.mid").write_bytes(write_standard_midi(song.seq))
        bad = tmp_path / "bad.mid"
        bad.write_bytes(b"MThd\x15\x043\x94\xb9")
        manifest = tmp_path / "labels.csv"
        manifest.write_text("".join(
            f"{name},family00\n" for name in sorted(p.name for p in tmp_path.glob("*.mid"))
        ))
        args = ["--corpus", str(tmp_path), "-o", str(tmp_path / "out.csv")]
        if experiment == "folk":
            args += ["--labels", str(manifest)]
        assert main(["exp", experiment, *args]) == 2
        assert capsys.readouterr().err == f"melowave: error: {bad}: truncated MThd chunk\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("ks, message", [
        ("1,1", "k values must be distinct, got 1, 1"),
        ("7", "k must be in 1..5, got 7"),
    ])
    def test_grid_ks_one_line_error(self, ks, message, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["grid", "--synthetic-seed", "0", "--synthetic-families", "2", "--scales", "1",
                     "--thresholds", "0.4", "--ks", ks, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"melowave: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["exp-bach", "exp-folk", "grid"])
    @pytest.mark.parametrize("output, trace", [
        ("same.csv", "same.csv"), ("./same.csv", "same.csv"), ("sub/../same.csv", "same.csv"),
    ])
    def test_trace_naming_the_output_one_line_error(
        self, command, output, trace, bach_dir, tmp_path, monkeypatch, capsys
    ):
        # the trace would replace the results: an error before anything runs
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        argv = {
            "exp-bach": ["exp", "bach", "--corpus", str(bach_dir)],
            "exp-folk": ["exp", "folk", "--synthetic-seed", "0", "--synthetic-families", "2"],
            "grid": ["grid", "--synthetic-seed", "0", "--synthetic-families", "2", "--scales",
                     "1", "--thresholds", "0.4", "--ks", "1"],
        }[command]
        assert main([*argv, "-o", output, "--trace", trace]) == 2
        assert capsys.readouterr().err == (
            f"melowave: error: -o and --trace name the same file: {trace}\n"
        )
        assert not (tmp_path / "same.csv").exists()

    def test_trace_and_output_both_on_stdout_one_line_error(self, capsys):
        argv = ["exp", "folk", "--synthetic-seed", "0", "--synthetic-families", "2"]
        assert main([*argv, "-o", "-", "--trace", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "melowave: error: -o and --trace both write to stdout\n"
        assert captured.out == ""

    def test_trace_and_output_may_share_a_character_device(self, capsys):
        argv = ["exp", "folk", "--synthetic-seed", "0", "--synthetic-families", "2"]
        assert main([*argv, "-o", os.devnull, "--trace", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    def test_trace_naming_the_file_of_stdout_one_line_error(self, tmp_path, monkeypatch, capsys):
        # stdout redirected to a file that --trace names, or a --trace that
        # names the file of -o through a link
        argv = ["exp", "folk", "--synthetic-seed", "0", "--synthetic-families", "2"]
        out = tmp_path / "out.csv"
        (tmp_path / "link.csv").symlink_to(out)
        with open(out, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main([*argv, "-o", "-", "--trace", str(out)]) == 2
            assert main([*argv, "-o", str(tmp_path / "link.csv"), "--trace", "-"]) == 2
        assert capsys.readouterr().err == "melowave: error: -o and --trace both write to stdout\n" * 2
        assert main([*argv, "-o", str(out), "--trace", str(tmp_path / "link.csv")]) == 2
        assert capsys.readouterr().err == (
            f"melowave: error: -o and --trace name the same file: {tmp_path / 'link.csv'}\n"
        )
        assert out.read_text() == ""

    def test_trace_to_dev_stdout_beside_stdout_into_a_pipe_one_line_error(self):
        command = [sys.executable, "-m", "melowave.cli", "exp", "folk", "--synthetic-seed", "0",
                   "--synthetic-families", "2", "-o", "-", "--trace", "/dev/stdout"]
        proc = subprocess.run(command, capture_output=True, text=True, env=src_env(), timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "melowave: error: -o and --trace both write to stdout\n"

    @pytest.mark.parametrize("command, message", [
        (["grid", "--scales", "1", "--thresholds", "", "--ks", "1", "--k", "7"],
         "the grid takes its k values from --ks, not --k"),
        (["exp", "folk", "--grid", "--scales", "1", "--thresholds", "", "--k", "1"],
         "the grid takes its k values from --ks, not --k"),
        (["exp", "folk", "--unsegmented", "--rep", "vr", "--k", "3"],
         "the unsegmented run is 1-NN and takes no --k"),
    ], ids=["grid", "exp-folk-grid", "unsegmented"])
    def test_k_outside_single_cell_one_line_error(self, command, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*command, "--synthetic-seed", "0", "--synthetic-families", "2",
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"melowave: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [
        (["grid", "--unsegmented"], ""),
        (["exp", "folk", "--grid", "--unsegmented"], ""),
        (["grid"], "unsegmented=true\n"),
        (["exp", "folk", "--grid"], "unsegmented = yes\n"),
    ], ids=["grid", "exp-folk", "grid-config", "exp-folk-config"])
    def test_grid_unsegmented_one_line_error(self, command, config, tmp_path, capsys):
        if config:
            (tmp_path / "run.cfg").write_text(config)
            command = [*command, "--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out.csv"
        assert main([*command, "--synthetic-seed", "0", "--synthetic-families", "2",
                     "--scales", "1", "--thresholds", "", "--ks", "1", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "melowave: error: the grid runs segmented cells and takes no --unsegmented\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flags, config, flag", [
        (["--jobs", "0"], "", "jobs"),
        (["--unsegmented", "--rep", "vr", "--jobs", "-3", "--scales", "9", "--ks", "7"], "",
         "scales"),
        (["--thresholds", "0.4"], "", "thresholds"),
        (["--ks", "1,2"], "", "ks"),
        ([], "jobs = 2\n", "jobs"),
        (["--unsegmented", "--rep", "vr"], "scales=1,2\n", "scales"),
    ], ids=["jobs", "unsegmented", "thresholds", "ks", "jobs-config", "unsegmented-config"])
    def test_grid_flag_outside_grid_one_line_error(self, flags, config, flag, tmp_path, capsys):
        if config:
            (tmp_path / "run.cfg").write_text(config)
            flags = [*flags, "--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out.csv"
        assert main(["exp", "folk", "--synthetic-seed", "0", "--synthetic-families", "2",
                     *flags, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"melowave: error: only the grid reads --{flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, config, flag", [
        (["exp", "folk", "--length", "0"], "", "length"),
        (["exp", "folk", "--rep-support", "abc"], "", "rep-support"),
        (["grid", "--scales", "1", "--length", "64"], "", "length"),
        (["exp", "folk"], "length = 64\n", "length"),
        (["grid", "--scales", "1"], "rep_support = 2,4\n", "rep-support"),
    ], ids=["length", "rep-support", "grid-length", "length-config", "rep-support-config"])
    def test_unsegmented_flag_outside_unsegmented_one_line_error(
        self, command, config, flag, tmp_path, capsys
    ):
        if config:
            (tmp_path / "run.cfg").write_text(config)
            command = [*command, "--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out.csv"
        assert main([*command, "--synthetic-seed", "0", "--synthetic-families", "2",
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"melowave: error: only --unsegmented reads --{flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("form", ["--config X", "--config=X"])
    def test_repeated_config_one_line_error(self, form, tmp_path, capsys):
        # the second file would be ignored: its length = 0 would fail the run
        (tmp_path / "a.cfg").write_text("rep = vr\n")
        (tmp_path / "b.cfg").write_text("length = 0\n")
        configs = [arg for name in ("a.cfg", "b.cfg")
                   for arg in form.replace("X", str(tmp_path / name)).split()]
        out = tmp_path / "out.csv"
        assert main(["exp", "folk", "--synthetic-seed", "0", "--synthetic-families", "2",
                     "--unsegmented", *configs, "-o", str(out)]) == 2
        assert capsys.readouterr().err == "melowave: error: --config may be given only once\n"
        assert not out.exists()

    def test_config_file_naming_a_config_one_line_error(self, tmp_path, capsys):
        (tmp_path / "a.cfg").write_text(f"config = {tmp_path / 'b.cfg'}\nrep = vr\n")
        (tmp_path / "b.cfg").write_text("length = 0\n")
        out = tmp_path / "out.csv"
        assert main(["exp", "folk", "--synthetic-seed", "0", "--synthetic-families", "2",
                     "--unsegmented", "--config", str(tmp_path / "a.cfg"), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"melowave: error: {tmp_path / 'a.cfg'}: a config file cannot name another\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_grid_jobs_below_one_one_line_error(self, jobs, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["grid", "--synthetic-seed", "0", "--synthetic-families", "2", "--scales", "1",
                     "--thresholds", "", "--ks", "1", "--jobs", jobs, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"melowave: error: jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("corpus, queries, message", [
        ("label,v0,v1\nA,0,0\n\nB,1,2,3\n", "1,1\n",
         "corpus CSV {corpus}, line 4: 4 values where line 1 has 3"),
        ("label,v0,v1\nA,0,0\nB,z,1\n", "1,1\n",
         "corpus CSV {corpus}, line 3: could not convert string to float: 'z'"),
        ("A,0,0\n", "x,y\n1,1\n2\n",
         "query CSV {queries}, line 3: 1 values where line 1 has 2"),
        ("A,0,0\n", "1,1\n1,q\n",
         "query CSV {queries}, line 2: could not convert string to float: 'q'"),
    ], ids=["ragged-corpus", "bad-corpus-value", "ragged-queries", "bad-query-value"])
    def test_classify_csv_error_names_file_and_line(
        self, corpus, queries, message, tmp_path, capsys
    ):
        paths = {"corpus": tmp_path / "corpus.csv", "queries": tmp_path / "queries.csv"}
        paths["corpus"].write_text(corpus)
        paths["queries"].write_text(queries)
        out = tmp_path / "out.csv"
        assert main(["classify", "--corpus", str(paths["corpus"]),
                     "--queries", str(paths["queries"]), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"melowave: error: {message.format(**paths)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("corpus, queries, message", [
        ("label,v0,v1\nA,0,0\n", "1,1,1\n",
         "query CSV {queries} has 3 values per row where corpus CSV {corpus} has 2"),
        ("label,v0,v1\n", "1,1\n", "corpus CSV {corpus} has a header but no rows"),
        ("label\nA\nB\n", "1,1\n",
         "query CSV {queries} has 2 values per row where corpus CSV {corpus} has 0"),
    ], ids=["query-width", "header-only-corpus", "label-only-corpus"])
    def test_classify_shape_error_names_files(self, corpus, queries, message, tmp_path, capsys):
        paths = {"corpus": tmp_path / "corpus.csv", "queries": tmp_path / "queries.csv"}
        paths["corpus"].write_text(corpus)
        paths["queries"].write_text(queries)
        out = tmp_path / "out.csv"
        assert main(["classify", "--corpus", str(paths["corpus"]),
                     "--queries", str(paths["queries"]), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"melowave: error: {message.format(**paths)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "9"])
    def test_classify_k_outside_1_to_5_one_line_error(self, k, tmp_path, capsys):
        # k 9 exceeds the three corpus rows and the 1..5 rule of every other k flag
        corpus, queries = tmp_path / "corpus.csv", tmp_path / "queries.csv"
        corpus.write_text("label,v0,v1\nA,0,0\nB,10,10\nA,1,2\n")
        queries.write_text("9,9\n")
        out = tmp_path / "out.csv"
        assert main(["classify", "--corpus", str(corpus), "--queries", str(queries),
                     "--k", k, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"melowave: error: k must be in 1..5, got {k}\n"
        assert not out.exists()

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the reader of stdout is gone before the trace is written: the
        # command stops with status 1 and reports nothing
        command = [sys.executable, "-m", "melowave.cli", "exp", "folk", "--synthetic-seed", "0",
                   "--synthetic-families", "2", "--unsegmented", "--rep", "vr",
                   "--trace", "-", "-o", str(tmp_path / "out.csv")]
        with open(tmp_path / "err.txt", "wb") as err:
            proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err, env=src_env())
            proc.stdout.close()
            assert proc.wait(timeout=300) == 1
        assert (tmp_path / "err.txt").read_bytes() == b""

    @pytest.mark.parametrize("command, message", [
        (["grid", "--scales", "1", "--thresholds", "0.4", "--ks", ""],
         "k values must not be empty"),
        (["exp", "folk", "--unsegmented", "--rep", "wr", "--rep-support", ""],
         "the wavelet sweep needs at least one support"),
        (["grid", "--scales", "", "--thresholds", ""],
         "the grid has no cells: give at least one scale or threshold"),
    ])
    def test_empty_sweep_one_line_error(self, command, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*command, "--synthetic-seed", "0", "--synthetic-families", "2",
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"melowave: error: {message}\n"
        assert not out.exists()

    def test_signal_zero_length_one_line_error(self, melody_mid, capsys):
        assert main(["signal", str(melody_mid), "--length", "0"]) == 2
        assert capsys.readouterr() == ("", "melowave: error: target length must be at least 1\n")

    def test_unsegmented_zero_length_one_line_error(self, capsys):
        assert main(["exp", "folk", "--unsegmented", "--synthetic-seed", "0",
                     "--synthetic-families", "2", "--length", "0"]) == 2
        assert capsys.readouterr().err == "melowave: error: fixed length must be positive\n"

    @pytest.mark.parametrize("mode", [[], ["--unsegmented", "--length", "64"]])
    def test_duplicate_manifest_row_one_line_error(self, tmp_path, mode, capsys):
        corpus = synthetic_tune_families(0, n_families=2, min_variants=3, max_variants=3)
        lines = ["filename,family"]
        for song in corpus.songs:
            (tmp_path / f"{song.song_id}.mid").write_bytes(write_standard_midi(song.seq))
            lines.append(f"{song.song_id}.mid,{song.family}")
        lines.append(lines[1])
        manifest = tmp_path / "labels.csv"
        manifest.write_text("\n".join(lines) + "\n")
        first = corpus.songs[0].song_id
        assert main(["exp", "folk", "--corpus", str(tmp_path), "--labels", str(manifest),
                     "--seg", "ws-max", *mode, "-o", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"melowave: error: manifest {manifest} lists song {first} more than once: "
            f"{first}.mid\n"
        )
        assert not (tmp_path / "out.csv").exists()

    def test_noteless_voice_names_the_file(self, melody_mid, capsys):
        assert main(["ingest", str(melody_mid), "--voice", "5"]) == 2
        err = capsys.readouterr().err
        assert err == f"melowave: error: {melody_mid}: track 5 contains no notes\n"

    def test_unknown_flag_exits_2(self, melody_mid):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", str(melody_mid), "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_cell_param(self, melody_mid):
        assert main(["segment", str(melody_mid), "--method", "lbdm"]) == 2

    def test_folk_without_corpus(self):
        assert main(["exp", "folk"]) == 2

    def test_help_documents_swept_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["exp", "folk", "--help"])
        text = capsys.readouterr().out
        for flag in ("--rep", "--seg", "--seg-scale-qn", "--threshold", "--equalize",
                     "--metric", "--k", "--rests", "--scales", "--thresholds", "--jobs"):
            assert flag in text
