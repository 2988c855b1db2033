"""Point-cloud classification with dyadic product-coefficient features."""

from .dyadic import (
    CoefficientTree,
    DyadicTree,
    coefficients_from_measure,
    haar_value,
    measure_from_coefficients,
    product_coefficient,
)
from .errors import (
    ConsistencyError,
    FormatError,
    ProdcoefError,
    UnsupportedError,
    ValidationError,
)
from .evaluation import CrossValPlan, EvaluationReport, cross_validate, macro_f1
from .features import (
    FEATURE_COLUMNS,
    NeighborhoodSpec,
    SpatialIndex,
    extract_features,
)
from .forest import ForestConfig, RandomForestModel, rf_fit, rf_predict_labels
from .knn import KnnModel, knn_predict_labels
from .las import LasHeaderSummary, read_las
from .matrix import FeatureMatrix, read_feature_csv, write_feature_csv
from .pca import PcaModel, fit_pca, transform
from .pointcloud import PointCloud, normalize_unit_cube, read_csv
from .synth import SceneSpec, generate_scene

__version__ = "0.1.0"
