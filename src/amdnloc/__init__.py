"""Multi-domain NLOS fingerprint localization at desk scale.

Synthesizes OFDM multipath fingerprints for 2D scenes with buildings,
segments the scene into distribution-homogeneous regions (template
matching on CFR images fused with centroid clustering of path
descriptors), and trains one affine coordinate regressor per region.
"""
from .channel import (
    NO_NOISE,
    PathRecord,
    add_noise,
    adcam,
    array_response,
    cfr_from_paths,
    cfr_stack,
    dft_matrices,
    render_image,
)
from .evaluate import cdf_curve, mean_error, run_pipeline
from .fusion import RegionLabels, Segmentation, cleanse, fuse_labels
from .localizer import (
    FeatureConfig,
    LocalizationModel,
    extract_features_adcam,
    extract_features_cfr,
    fuse_features,
    locate,
    predict,
    train,
)
from .scenegen import (
    Rect,
    Sample,
    SceneConfig,
    build_dataset,
    nlos_filter,
    scene_from_json,
    scene_to_json,
    trace_paths,
)
from .segmentation_adcam import (
    build_features,
    calinski_harabasz,
    kmeans,
    select_k,
    silhouette,
)
from .segmentation_cfr import (
    CfrLabeling,
    TemplatePair,
    extract_templates,
    match_between,
    match_within,
    segment_cfr,
)

__version__ = "0.1.0"
