"""Two-stage head-modifier template generation of entity type descriptions."""

from .annotator import Annotation, annotate, apply_template, extract_heads
from .corpus import (DatasetSplit, Entity, SourceToken, VocabSet, build_vocabs,
                     filter_entities, load_jsonl, reconstruct_infobox, split_dataset,
                     tokenize)
from .errors import TypedescError
from .metrics import corpus_copy_ratio
from .stage1 import EncoderOutput, ModelDims
from .trainer import TrainConfig, TwoStageModel, train

__version__ = "0.1.0"
