"""Ground-truth annotations: JSON schema, validation, time rescaling.

The on-disk layout maps each video id to its metadata and action list:

    {
      "<video_id>": {
        "duration": 24.0,          seconds
        "fps": 8.0,                frames per second
        "frame_count": 192,
        "subset": "training",
        "annotations": [{"segment": [3.0, 7.0], "label": "swing"}, ...]
      },
      ...
    }

Action segments live in seconds; models operate on a fixed-length snippet
axis, so :func:`rescale_action` maps seconds onto that axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from tapgkit.data.features import VideoFeatureSequence
from tapgkit.errors import AnnotationError, ConfigError, EmptyInputError
from tapgkit.files import count, number, pair, write_atomic


@dataclass
class ActionInstance:
    start: float
    end: float
    label: str

    def validate(self, duration: float, context: str) -> None:
        if not (0.0 <= self.start < self.end):
            raise AnnotationError(
                f"{context}: segment [{self.start}, {self.end}] must satisfy 0 <= start < end"
            )
        if self.end > duration + 1e-9:
            raise AnnotationError(
                f"{context}: segment end {self.end} exceeds video duration {duration}"
            )


@dataclass
class VideoAnnotation:
    video_id: str
    duration: float
    fps: float
    frame_count: int
    annotations: list[ActionInstance] = field(default_factory=list)
    subset: str = "training"

    def validate(self) -> None:
        if not (self.duration > 0 and self.fps > 0 and self.frame_count > 0):
            raise AnnotationError(
                f"{self.video_id}: duration/fps/frame_count must be positive, got "
                f"{self.duration}/{self.fps}/{self.frame_count}"
            )
        for i, action in enumerate(self.annotations):
            action.validate(self.duration, f"{self.video_id} action {i}")


def load_annotations(path) -> dict[str, VideoAnnotation]:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except ValueError as err:
        raise AnnotationError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(raw, dict):
        raise AnnotationError(f"{path}: top level must map video ids to records")
    out: dict[str, VideoAnnotation] = {}
    for video_id, rec in raw.items():
        try:
            listed, subset = rec.get("annotations", []), rec.get("subset", "training")
            if (not isinstance(listed, list) or not isinstance(subset, str)
                    or not all(isinstance(a["label"], str) for a in listed)):
                raise TypeError("need an annotations list, a string subset and string labels")
            actions = [ActionInstance(*pair(a["segment"]), a["label"]) for a in listed]
            video = VideoAnnotation(
                video_id=video_id,
                duration=number(rec["duration"]),
                fps=number(rec["fps"]),
                frame_count=count(rec["frame_count"]),
                annotations=actions,
                subset=subset,
            )
            video.validate()
        except (AttributeError, KeyError, TypeError, AnnotationError) as err:
            raise AnnotationError(f"{path}: malformed record for {video_id!r} ({err})") from err
        out[video_id] = video
    return out


def save_annotations(path, videos: dict[str, VideoAnnotation]) -> None:
    payload = {}
    for video_id, v in videos.items():
        v.validate()
        payload[video_id] = {
            "duration": v.duration,
            "fps": v.fps,
            "frame_count": v.frame_count,
            "subset": v.subset,
            "annotations": [
                {"segment": [a.start, a.end], "label": a.label} for a in v.annotations
            ],
        }
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))


def rescale_action(start: float, end: float, frame_count: int, fps: float,
                   num_snippets: int) -> tuple[float, float]:
    """Map an action from seconds onto the snippet axis [0, num_snippets].

    A video of ``frame_count`` frames is summarized by ``num_snippets``
    snippets, so one second of video covers ``num_snippets * fps /
    frame_count`` snippet units.
    """
    if frame_count <= 0 or fps <= 0 or num_snippets <= 0:
        raise AnnotationError("frame_count, fps and num_snippets must be positive")
    if not (0.0 <= start < end):
        raise AnnotationError(f"action [{start}, {end}] must satisfy 0 <= start < end")
    factor = num_snippets * fps / frame_count
    return start * factor, end * factor


def check_time_axis(annotation: VideoAnnotation, seq: VideoFeatureSequence) -> None:
    """Require ``frame_count == num_snippets x snippet_stride``.

    Labels map seconds to snippets through ``frame_count`` and decoding maps
    them back through the stride; the two agree only on one time axis.
    """
    if annotation.frame_count != seq.num_snippets * seq.snippet_stride:
        raise ConfigError(f"{annotation.video_id}: frame_count {annotation.frame_count} != "
                          f"{seq.num_snippets} snippets x stride {seq.snippet_stride}")


def check_corpus(annotations: dict[str, VideoAnnotation],
                 features: dict[str, VideoFeatureSequence]) -> None:
    """Require a corpus that one model reads: every video annotated and valid,
    with the snippet count, stream widths and stride of the first video (by
    id), on its annotation's time axis (``check_time_axis``). The first video
    that breaks a rule is named in the error.
    """
    ids = sorted(features)
    if not ids:
        raise EmptyInputError("corpus holds no videos")
    missing = [v for v in ids if v not in annotations]
    if missing:
        raise ConfigError(f"videos without annotations: {missing}")
    first = features[ids[0]]
    for vid in ids:
        seq = features[vid]
        seq.validate()
        if seq.num_snippets != first.num_snippets or seq.dims() != first.dims():
            raise ConfigError(f"{vid}: snippet count or stream widths differ "
                              f"from the rest of the corpus")
        if seq.snippet_stride != first.snippet_stride:
            raise ConfigError(f"{vid}: snippet stride differs from the rest "
                              f"of the corpus")
        check_time_axis(annotations[vid], seq)
