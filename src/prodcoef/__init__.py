"""Point-cloud classification with dyadic product-coefficient features.

Each public name loads its submodule on first use (PEP 562), so
`import prodcoef` loads no stage and no numpy.
"""

from importlib import import_module

# Public name -> the submodule that defines it, the table __getattr__
# resolves from; written grouped by submodule.
_EXPORTS = {
    name: module
    for module, names in {
        "dyadic": ("CoefficientTree", "DyadicTree", "coefficients_from_measure", "haar_value",
                   "measure_from_coefficients", "product_coefficient"),
        "errors": ("ConsistencyError", "FormatError", "ProdcoefError", "UnsupportedError",
                   "ValidationError"),
        "evaluation": ("CrossValPlan", "EvaluationReport", "cross_validate",
                       "cross_validate_many", "macro_f1"),
        "features": ("FEATURE_COLUMNS", "NeighborhoodSpec", "extract_features"),
        "forest": ("ForestConfig", "RandomForestModel", "rf_fit", "rf_predict_labels"),
        "knn": ("KnnModel", "knn_predict_labels"),
        "las": ("LasHeaderSummary", "read_las"),
        "matrix": ("FeatureMatrix", "read_feature_csv", "write_feature_csv"),
        "pca": ("PcaModel", "fit_pca", "transform"),
        "pointcloud": ("PointCloud", "normalize_unit_cube", "read_csv"),
        "synth": ("SceneSpec", "generate_scene"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
