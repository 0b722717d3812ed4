"""greektag: trigram HMM part-of-speech tagging for inflected languages
with feature-structured tags, stem/suffix lexical probabilities, and a
two-class chi-square stylometric deviation test."""

from .decode import tag_corpus, tag_sequence
from .errors import (
    FormatError,
    GreektagError,
    ModelError,
    SearchSpaceError,
    TagError,
)
from .model import Model, train
from .morph import (
    Lexicon,
    LexiconEntry,
    MorphAnalysis,
    PrefixRule,
    RuleSet,
    SuffixRule,
    lexical_prob,
    segment,
    train_lexicon,
)
from .stylometry import (
    CategoryCounts,
    DeviationReport,
    chi_square_cell,
    count_categories,
    render_report,
    run_test,
)
from .tags import (
    BOUNDARY,
    Tag,
    TagSchema,
    TransitionStats,
    format_tag,
)
from .text import (
    Sequence,
    Token,
    load_annotated_corpus,
    normalize,
    read_annotated_corpus,
    save_annotated_corpus,
    tokenize,
    write_annotated_corpus,
)

__version__ = "0.1.0"
