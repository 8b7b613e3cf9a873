"""Sparse object-map building, geometric submap matching, and frame-alignment
evaluation for monocular multi-agent localization."""

__version__ = "0.1.0"
