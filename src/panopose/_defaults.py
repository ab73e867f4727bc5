"""The command-line parser's box, NMS and padding defaults, stated once and
without numpy, so that the parser is built without loading
:mod:`panopose.geometry`; its ``crop_transform`` takes the padding from here."""

DEFAULT_NMS_IOU = 0.5
DEFAULT_BOX_MARGIN = 0.1
DEFAULT_CROP_PADDING = 1.25
