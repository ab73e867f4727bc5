"""The crop size and the box, NMS and padding defaults, stated once and
without numpy, so that the command-line parser is built without loading
:mod:`panopose.geometry`, which exports them."""

CROP_WIDTH = 288
CROP_HEIGHT = 384
DEFAULT_NMS_IOU = 0.5
DEFAULT_BOX_MARGIN = 0.1
DEFAULT_CROP_PADDING = 1.25
