"""Polarity sampling for continuous piecewise-affine generators.

Reweights a generator's latent prior by the rho-th power of its per-region
Jacobian singular-value product: rho < 0 concentrates samples on the output
density's modes, rho > 0 on the anti-modes, rho = 0 leaves the prior alone.
Ships exact density oracles for small networks and the distribution metrics
(Fréchet distance, precision/recall, NN distances, path length) used to
verify the quality/diversity control.
"""

from .cpa import (
    CpaNetwork, Layer, affine_maps, compose, fingerprint, forward, identity_net,
    load_model, region_codes, save_model,
)
from .density import (
    Histogram, RegionAtlas, analytic_density, enumerate_regions, mc_density,
    normalization_constant, total_variation,
)
from .errors import (
    ConfigError, InputError, PolarityError, ScaleError, StateError,
    ValidationError,
)
from .harness import ExperimentConfig, child_seed, run_ablation, run_modes, \
    run_pareto, run_ppl, run_shift, write_csv
from .metrics import (
    SampleSet, frechet_distance, nn_distances, path_length, precision_recall,
)
from .polarity import (
    LatentDomain, PolaritySampler, SamplePool, build_pool, draw_latents,
    polarity_weights, region_log_volumes, sample_batch,
)
from .synth import SyntheticDataset

__version__ = "0.1.0"
