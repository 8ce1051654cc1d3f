"""Corpus loading and synthetic corpus generation.

Real corpora are directories of MIDI files: two-part works for the
invention experiment, single-voice folk tunes with a ``filename,family``
manifest for the tune-family experiments. The licensed folk collection is
not bundled, so a deterministic synthetic tune-family generator stands in
for it; a synthetic two-part generator is provided for the same reason.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .ingest import (
    MidiError,
    NoteEvent,
    NoteSequence,
    ScoreModel,
    extract_voice,
    first_track_selector,
    parse_standard_midi,
)


@dataclass(frozen=True)
class BachWork:
    """One two-part work: an upper and a lower monophonic voice."""

    work_id: str
    upper: NoteSequence
    lower: NoteSequence


@dataclass(frozen=True)
class FolkSong:
    """One tune of a family; a song without notes is rejected here, so
    every song can be sampled."""

    song_id: str
    family: str
    seq: NoteSequence

    def __post_init__(self) -> None:
        if not self.seq.events:
            raise ValueError(f"song {self.song_id} has no notes")


@dataclass(frozen=True)
class FolkCorpus:
    songs: tuple[FolkSong, ...]

    def __len__(self) -> int:
        return len(self.songs)


def read_score(path: str | Path) -> ScoreModel:
    """Parse a MIDI file; a parse error names the file."""
    try:
        return parse_standard_midi(Path(path).read_bytes())
    except MidiError as exc:
        raise MidiError(f"{path}: {exc}") from None


def _midi_files(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {directory}")
    files = sorted(p for p in directory.iterdir() if p.suffix.lower() in (".mid", ".midi"))
    if not files:
        raise FileNotFoundError(f"no MIDI files in {directory}")
    return files


def _auto_two_voices(score: ScoreModel, name: str) -> tuple[str, str]:
    """Default voice selectors: first note-bearing track is the upper part,
    second the lower; single-track files fall back to channels."""
    tracks = score.track_numbers()
    if len(tracks) >= 2:
        return (f"track:{tracks[0]}", f"track:{tracks[1]}")
    channels = score.channel_numbers()
    if len(channels) >= 2:
        return (f"channel:{channels[0]}", f"channel:{channels[1]}")
    raise ValueError(f"{name}: cannot find two voices (tracks={tracks}, channels={channels})")


def load_bach_corpus(
    directory: str | Path,
    upper_selector: str | None = None,
    lower_selector: str | None = None,
) -> list[BachWork]:
    """Load a directory of two-part MIDI works, sorted by filename."""
    works = []
    for path in _midi_files(directory):
        score = read_score(path)
        upper, lower = (upper_selector, lower_selector)
        if upper is None or lower is None:
            auto_upper, auto_lower = _auto_two_voices(score, path.name)
            upper = upper or auto_upper
            lower = lower or auto_lower
        works.append(
            BachWork(
                path.stem,
                extract_voice(score, upper, str(path)),
                extract_voice(score, lower, str(path)),
            )
        )
    return works


def load_folk_corpus(directory: str | Path, manifest: str | Path) -> FolkCorpus:
    """Load folk tunes listed in a ``filename,family`` manifest CSV."""
    directory = Path(directory)
    manifest = Path(manifest)
    if not manifest.is_file():
        raise FileNotFoundError(f"label manifest not found: {manifest}")
    songs = []
    with open(manifest, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].strip().startswith("#"):
                continue
            if [c.strip().lower() for c in row[:2]] == ["filename", "family"]:
                continue
            if len(row) < 2:
                raise ValueError(f"manifest row needs filename,family: {row!r}")
            filename, family = row[0].strip(), row[1].strip()
            path = directory / filename
            if not path.is_file():
                raise FileNotFoundError(f"manifest references a missing file: {path}")
            if any(song.song_id == path.stem for song in songs):
                raise ValueError(
                    f"manifest {manifest} lists song {path.stem} more than once: {filename}"
                )
            score = read_score(path)
            selector = first_track_selector(score, str(path))
            songs.append(FolkSong(path.stem, family, extract_voice(score, selector, str(path))))
    if not songs:
        raise ValueError(f"manifest {manifest} lists no songs")
    return FolkCorpus(tuple(songs))


_DURATIONS = (
    Fraction(1, 2),
    Fraction(1, 2),
    Fraction(1, 2),
    Fraction(1),
    Fraction(1),
    Fraction(3, 2),
)


def _random_motif(rng: np.random.Generator, center: int, n_notes: int = 8):
    """A short characteristic figure: a pitch walk plus a rhythm pattern."""
    pitch = center + int(rng.integers(-5, 6))
    steps = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5], size=n_notes - 1,
                       p=[0.04, 0.06, 0.1, 0.15, 0.15, 0.15, 0.15, 0.1, 0.06, 0.04])
    pitches = [pitch]
    for step in steps:
        pitches.append(int(np.clip(pitches[-1] + step, 40, 92)))
    durations = [_DURATIONS[i] for i in rng.integers(0, len(_DURATIONS), size=n_notes)]
    return list(zip(pitches, durations))


def synthetic_tune_families(
    seed: int,
    n_families: int = 26,
    min_variants: int = 10,
    max_variants: int = 15,
) -> FolkCorpus:
    """Deterministic stand-in for a licensed tune-family collection.

    Each family is a fixed motif sequence; each variant applies a
    transposition, sparse one-semitone perturbations and local re-timing
    (duration halving/stretching), so variants share near-exact segments.
    """
    rng = np.random.default_rng(seed)
    songs = []
    for fam in range(n_families):
        center = 55 + int(rng.integers(0, 18))
        motifs = [_random_motif(rng, center) for _ in range(3)]
        order = [0, 1, 2, 0, 1]
        base = [note for idx in order for note in motifs[idx]]
        # keep the largest dyadic scale (support 512 at rate 8) applicable
        while sum(dur for _, dur in base) < 32:
            base.extend(motifs[int(rng.integers(0, 3))])
        for var in range(int(rng.integers(min_variants, max_variants + 1))):
            transpose = int(rng.integers(-4, 5))
            events = []
            onset = Fraction(0)
            for pitch, dur in base:
                if rng.random() < 0.10:
                    pitch += int(rng.choice([-1, 1]))
                if rng.random() < 0.08:
                    dur = dur * Fraction(1, 2) if rng.random() < 0.5 else dur * Fraction(3, 2)
                if rng.random() < 0.03:
                    onset += Fraction(1, 2)  # a short rest between figures
                events.append(NoteEvent(onset, dur, int(np.clip(pitch + transpose, 36, 96))))
                onset += dur
            events.append(NoteEvent(onset, Fraction(2), int(np.clip(center + transpose, 36, 96))))
            seq = NoteSequence(tuple(events), onset + Fraction(2))
            songs.append(FolkSong(f"f{fam:02d}v{var:02d}", f"family{fam:02d}", seq))
    return FolkCorpus(tuple(songs))


def _fragment_events(
    notes, start: Fraction, rng: np.random.Generator, transpose: int, perturb: float
):
    events = []
    onset = Fraction(start)
    for pitch, dur in notes:
        if rng.random() < perturb:
            pitch += int(rng.choice([-1, 1]))
        events.append(NoteEvent(onset, dur, int(np.clip(pitch + transpose, 30, 100))))
        onset += dur
    return events, onset


def synthetic_inventions(seed: int = 0, n_works: int = 15) -> list[BachWork]:
    """Two-part works whose sections re-use exposition material, for
    exercising the invention experiment without the real corpus."""
    rng = np.random.default_rng(seed)
    works = []
    for w in range(n_works):
        center = 58 + int(rng.integers(0, 12))
        subject = [(p, Fraction(1, 2)) for p, _ in _random_motif(rng, center)]
        counter = [(p, Fraction(1, 2)) for p, _ in _random_motif(rng, center + 4)]
        upper: list[NoteEvent] = []
        lower: list[NoteEvent] = []
        # exposition: 16 qn of alternating subject/counter statements
        cursor = Fraction(0)
        for block, transpose in ((subject, 0), (counter, 0), (subject, 7), (counter, 7)):
            events, cursor = _fragment_events(block, cursor, rng, transpose, 0.0)
            upper.extend(events)
        cursor = Fraction(4)  # the lower part enters after one statement
        for block, transpose in ((subject, -12), (counter, -12), (subject, -5)):
            events, cursor = _fragment_events(block, cursor, rng, transpose, 0.0)
            lower.extend(events)
        # three sections: exposition fragments in a shuffled order with free
        # episode material in between, so whole-section matching degrades
        # while segment-level matching survives
        for part, own, other in ((upper, subject, counter), (lower, counter, subject)):
            for _ in range(3):
                cursor = part[-1].end_qn
                blocks = [own, other, own, None]
                rng.shuffle(blocks)
                for block in blocks:
                    if block is None:
                        episode = _random_motif(rng, center + int(rng.integers(-7, 8)))
                        block = [(p, Fraction(1, 2)) for p, _ in episode]
                        events, cursor = _fragment_events(block, cursor, rng, 0, 0.0)
                    else:
                        t = int(rng.integers(-9, 10))
                        events, cursor = _fragment_events(block, cursor, rng, t, 0.15)
                    part.extend(events)
        total = max(upper[-1].end_qn, lower[-1].end_qn)
        works.append(
            BachWork(
                f"inv{w:02d}",
                NoteSequence(tuple(upper), total),
                NoteSequence(tuple(lower), total),
            )
        )
    return works
