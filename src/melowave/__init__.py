"""melowave: Haar-wavelet filtering, segmentation and kNN classification of
monophonic melodies in symbolic representation."""

from .ingest import (
    MidiError,
    NoteEvent,
    NoteSequence,
    ScoreModel,
    extract_voice,
    parse_standard_midi,
    write_standard_midi,
)
from .signals import (
    RestPolicy,
    mean_normalize,
    resample_to_length,
    sample_pitch_signal,
)
from .wavelet import (
    haar_filter,
    scalogram,
    support_samples,
)
from .segmentation import (
    BoundarySet,
    Equalization,
    constant_boundaries,
    cut_segments,
    equalize_interpolate,
    equalize_zero_pad,
    lbdm_boundaries,
    local_maxima_boundaries,
    zero_crossing_boundaries,
)
from .contrapuntal import (
    VariationKind,
    apply_variation,
    invert,
    retrograde,
    retrograde_inversion,
)
from .classifier import (
    LabeledCorpus,
    Metric,
    pairwise_distances,
    predict_from_distances,
    vote,
)
from .experiments import (
    BachReport,
    ConfigError,
    ExperimentConfig,
    FolkCellReport,
    Representation,
    SegMethod,
    Segmentation,
    grid_search,
    run_bach_experiment,
    run_folk_segmented,
    run_folk_unsegmented,
)
from .corpora import (
    BachWork,
    FolkCorpus,
    FolkSong,
    load_bach_corpus,
    load_folk_corpus,
    synthetic_inventions,
    synthetic_tune_families,
)

__version__ = "0.1.0"
