"""Polarity sampling for continuous piecewise-affine generators.

Reweights a generator's latent prior by the rho-th power of its per-region
Jacobian singular-value product: rho < 0 concentrates samples on the output
density's modes, rho > 0 on the anti-modes, rho = 0 leaves the prior alone.
Ships exact density oracles for small networks and the distribution metrics
(Fréchet distance, precision/recall, NN distances, path length) used to
verify the quality/diversity control.
"""

from .cpa import (
    ActivationCode, AffineMap, CpaNetwork, Layer, affine_map, affine_maps,
    compose, fingerprint, forward, identity_net, load_model, region_code,
    region_codes, save_model,
)
from .density import (
    Histogram, RegionAtlas, analytic_density, enumerate_regions, mc_density,
    mode_regions, normalization_constant, total_variation,
)
from .errors import (
    ConfigError, InputError, ModelFormatError, PolarityError, SamplingTimeout,
    ScaleError, StateError, ValidationError,
)
from .harness import ExperimentConfig, child_seed, run_ablation, run_modes, \
    run_pareto, run_ppl, run_shift, write_csv
from .metrics import (
    DomainSampler, MetricReport, PathLengthResult, SampleSet, frechet_distance,
    nn_distances, path_length, precision_recall,
)
from .polarity import (
    LatentDomain, OnlineSampler, PolaritySampler, SamplePool, build_pool,
    polarity_weights, region_log_volumes, sample_batch, sample_online,
    truncation_sample,
)
from .spectral import (
    SpectrumTopK, log_volume, pseudo_log_det_sqrt, random_semi_orthogonal,
    sketch_spectrum, top_k_singular_values,
)
from .synth import SyntheticDataset

__version__ = "0.1.0"
