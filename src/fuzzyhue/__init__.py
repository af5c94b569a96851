"""Fuzzy linguistic hue categories on the color wheel.

Reconstructs circular trapezoidal membership functions from published
category-boundary constants, measures category extent (wideness) and
transition-zone extent (boundary width), classifies colors and images into
fuzzy color descriptors, checks the partition invariants exactly, and
renders the partition as SVG figures.
"""

from .circle import PERIOD, Arc, wrap
from .classify import (
    ACHROMATIC,
    AchromaticGate,
    FuzzyColorDescriptor,
    HsvColor,
    classify_color,
    dominant_labels,
    hsv_to_rgb,
    image_descriptor,
    rgb_to_hsv,
)
from .formats import (
    ConfigError,
    ImageFormatError,
    PixelGrid,
    UnsupportedImageFormatError,
    dump_partition,
    export_metrics_csv,
    load_partition,
    read_image,
)
from .fuzzyset import CircularTrapezoid
from .metrics import (
    AdjacencyError,
    AsymmetryReport,
    CategoryMetrics,
    Check,
    asymmetry_report,
    boundary_width,
    check,
    metrics_table,
    wideness,
    wideness_numeric,
)
from .partition import (
    RING,
    BoundaryOrderError,
    BoundarySpec,
    HuePartition,
    InconsistentCoreError,
    PartitionError,
    builtin_colibri,
    from_boundaries,
)
from .render import PlotConfig, render_memberships, render_spectrum

__version__ = "0.1.0"

__all__ = [
    "ACHROMATIC",
    "AchromaticGate",
    "AdjacencyError",
    "Arc",
    "AsymmetryReport",
    "BoundaryOrderError",
    "BoundarySpec",
    "CategoryMetrics",
    "Check",
    "CircularTrapezoid",
    "ConfigError",
    "FuzzyColorDescriptor",
    "HsvColor",
    "HuePartition",
    "ImageFormatError",
    "InconsistentCoreError",
    "PERIOD",
    "PartitionError",
    "PixelGrid",
    "PlotConfig",
    "RING",
    "UnsupportedImageFormatError",
    "asymmetry_report",
    "boundary_width",
    "builtin_colibri",
    "check",
    "classify_color",
    "dominant_labels",
    "dump_partition",
    "export_metrics_csv",
    "from_boundaries",
    "hsv_to_rgb",
    "image_descriptor",
    "load_partition",
    "metrics_table",
    "read_image",
    "render_memberships",
    "render_spectrum",
    "rgb_to_hsv",
    "wideness",
    "wideness_numeric",
    "wrap",
]
