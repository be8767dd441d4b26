"""Structural probing toolkit: gold tree labels, scene trees, linear
probes, and their metric suite, over externally supplied embeddings."""

from .embed_io import AlignmentMap, EmbeddingSequence, align_wordpieces, read_embeddings, write_embeddings
from .errors import DataError, StructProbeError, TrainingDiverged, ValidationError
from .grid import sweep_ranks
from .metrics import (
    EvalReport,
    evaluate_probe,
    length_binned_spearman,
    root_accuracy,
    spearman,
    uuas,
)
from .probe import (
    Probe,
    TrainConfig,
    identity_probe,
    l1_loss,
    load_probe,
    loss_gradient,
    pair_records,
    predict_depths,
    predict_distances,
    save_probe,
    train_probe,
)
from .scenetree import (
    GroundedCaption,
    PhraseAnnotation,
    SceneTree,
    construct_scene_tree,
    find_highest_node,
    visual_labels,
)
from .synth import OracleDataset, oracle_dataset, oracle_embed_tree, random_tree
from .trees import (
    ROOT,
    ConllError,
    DepTree,
    TreeLabels,
    parse_conllu,
    read_conllu,
    read_labels,
    tree_depths,
    tree_distances,
    tree_labels,
    write_labels,
)

__version__ = "0.1.0"
