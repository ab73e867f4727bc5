"""The box, NMS and padding defaults, stated once and without numpy, so
that the command-line parser is built without loading
:mod:`panopose.geometry`, which exports them."""

DEFAULT_NMS_IOU = 0.5
DEFAULT_BOX_MARGIN = 0.1
DEFAULT_CROP_PADDING = 1.25
