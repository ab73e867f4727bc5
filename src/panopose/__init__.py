"""Panoramic multi-person pose toolkit.

Non-neural stages of a top-down panoramic pose pipeline: keypoint-schema
weight transfer for checkpoint initialization, panoramic bounding-box
geometry and shift augmentation, detection post-processing, heatmap
decoding, and set-based evaluation metrics.
"""

__version__ = "0.1.0"

from .dataio import (
    Dataset,
    LABELED_INVISIBLE,
    LABELED_VISIBLE,
    NOT_LABELED,
    load_ground_truth,
    load_predictions,
    save_dataset,
)
from .decode import decode_heatmaps
from .errors import ValidationError
from .geometry import (
    PanoramaSpec,
    apply_transform,
    crop_transform,
    invert_transform,
    iou,
    nms,
    shift_dataset,
)
from .metrics import (
    EvalConfig,
    EvalReport,
    OksParams,
    brute_force_assignment,
    default_oks_params,
    evaluate,
    min_cost_assignment,
    oks,
    ospa,
)
from .schema import (
    KeypointSchema,
    SchemaMapping,
    builtin_schema,
    default_mapping,
    load_mapping,
)
from .weights import (
    TensorMap,
    TensorRecord,
    load_tensor_map,
    remap_head_weights,
    save_tensor_map,
)
