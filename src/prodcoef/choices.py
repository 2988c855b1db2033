"""The named modes that a stage accepts and the CLI offers as choices.

Defined here, without numpy, so that parsing arguments loads no stage.
"""

NORMALIZE_MODES = ("per-axis", "uniform")
F1_AVERAGES = ("macro", "micro", "weighted")
