"""Tropical-cyclone track forecasting with function-on-function regression."""

__version__ = "0.1.0"

from .basis import (BasisSystem, basis_matrix, bspline_basis, fit_bundle,
                    fit_coefficients, gram_matrix)
from .clustering import KMeansModel, assign_batch, kmeans_fit, kmeans_seeds
from .experiment import (ExperimentConfig, ExperimentReport,
                         forecasts_to_geojson, haversine, length_study,
                         repeated_simulation)
from .ingest import (DatasetMatrix, StormRecordSet, build_matrices, extract_tail,
                     filter_min_length, parse_csv, parse_rsmc, time_grid,
                     train_test_split, write_csv)
from .regression import fit_fof, predict_trajectory, regressors
