"""Annotations, feature files and synthetic corpus generation."""

from tapgkit.data.annotations import (
    ActionInstance,
    VideoAnnotation,
    check_corpus,
    check_time_axis,
    load_annotations,
    rescale_action,
    save_annotations,
)
from tapgkit.data.features import (
    SnippetBundle,
    VideoFeatureSequence,
    feature_path,
    load_features,
    save_features,
)
from tapgkit.data.synthetic import (
    SyntheticConfig,
    SyntheticCorpus,
    generate_corpus,
    load_corpus,
    write_corpus,
)

__all__ = [
    "ActionInstance", "SnippetBundle", "SyntheticConfig", "SyntheticCorpus",
    "VideoAnnotation", "VideoFeatureSequence", "check_corpus", "check_time_axis",
    "feature_path", "generate_corpus", "load_annotations", "load_corpus", "load_features",
    "rescale_action", "save_annotations", "save_features", "write_corpus",
]
