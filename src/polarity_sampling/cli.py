"""Command-line front end.

Subcommands: pool build, sample, density eval, pareto, ablate, modes,
shift, ppl, metrics.  Exit codes: 0 success, 2 configuration error,
3 numerical error.
"""

import argparse
import json
import sys

import numpy as np

from . import cpa, density, harness, metrics
from .errors import ConfigError, PolarityError
from .polarity import PolaritySampler, SamplePool, build_pool, sample_batch


# every flag once, with the argparse keywords common to the commands that take it
_FLAGS = {
    "--config": dict(help="experiment config file (JSON)"),
    "--model": dict(help="model file (JSON), in place of the config's model_path"),
    "--feature-model": dict(help="feature-space model file, in place of the "
                                 "config's feature_model_path"),
    "--pool": dict(help="pool file written by `pool build`"),
    "--seed": dict(type=int, help="default: the config seed (sample: the pool "
                                  "seed + 1)"),
    "--rho": dict(type=float, help="polarity (modes: default the config's first "
                                   "rho_grid entry)"),
    "--s": dict(type=int, help="number of draws"),
    "--points": dict(help="CSV of query points"),
    "--generated": dict(help="generated CSV"),
    "--reference": dict(help="reference CSV"),
    "--k-nn": dict(type=int, default=3),
    "--j": dict(type=int, default=3),
    "--out": dict(help="output path"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polsamp",
        description="Polarity sampling for piecewise-affine generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, descr in [("pool", "pool operations"), ("density", "density operations")]:
        groups[name] = sub.add_parser(name, help=descr).add_subparsers(
            dest=f"{name}_command", required=True)

    # command -> (help, handler, required flags, optional flags); sweeps look
    # their runner up at call time, so a patched harness is seen
    sweep = (("--config", "--out"), ("--model", "--feature-model", "--seed"))
    commands = {
        "pool build": ("score N prior draws", _cmd_pool_build, *sweep),
        "sample": ("draw latents from a pool under a polarity", _cmd_sample,
                   ("--pool", "--model", "--rho", "--s", "--out"), ("--seed",)),
        "density eval": ("analytic density at query points", _cmd_density_eval,
                         ("--config", "--rho", "--points", "--out"),
                         ("--model", "--seed")),
        "pareto": ("precision/recall/Frechet sweep over (rho, psi)",
                   lambda args: _cmd_sweep(args, harness.run_pareto), *sweep),
        "ablate": ("metrics across the (N, k) grid",
                   lambda args: _cmd_sweep(args, harness.run_ablation), *sweep),
        "modes": ("report highest-weight latents", _cmd_modes,
                  sweep[0], sweep[1] + ("--rho",)),
        "shift": ("Frechet distance to biased/uniform references across rho",
                  lambda args: _cmd_sweep(args, harness.run_shift), *sweep),
        "ppl": ("path-length sweep over rho",
                lambda args: _cmd_sweep(args, harness.run_ppl), *sweep),
        "metrics": ("metric report for two sample files", _cmd_metrics,
                    ("--generated", "--reference"), ("--k-nn", "--j", "--out")),
    }
    for name, (descr, func, required, optional) in commands.items():
        *group, leaf = name.split()
        p = (groups[group[0]] if group else sub).add_parser(leaf, help=descr)
        for flag in required + optional:
            p.add_argument(flag, required=flag in required, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _load_config(args):
    config = harness.ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.model:
        config.model_path = args.model
    if getattr(args, "feature_model", None):
        config.feature_model_path = args.feature_model
    return config


def _parses_as_float(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_points(path):
    """Comma-separated rows of finite floats.  Row 1 is a header, as the
    sample subcommand writes one, only when none of its fields parses as a
    float."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines and not any(_parses_as_float(f) for f in lines[0].split(",")):
        lines = lines[1:]
    if not any(line.strip() for line in lines):
        raise ConfigError(f"{path}: no points")
    try:
        pts = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"{path}: points must be finite numbers")
    return pts


def _write_points(path, pts):
    """The bytes of ``harness.write_csv(path, header, pts.tolist())``, with
    each distinct row formatted once: polarity draws repeat pool rows.  Rows
    are told apart by their bytes, so -0.0 and 0.0 stay distinct."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    keys = pts.view(np.dtype((np.void, pts.strides[0]))).reshape(-1)
    _, first, order = np.unique(keys, return_index=True, return_inverse=True)
    harness.write_csv(path, [f"x{d}" for d in range(pts.shape[1])],
                      pts[first].tolist(), order.tolist())


def _cmd_pool_build(args):
    config = _load_config(args)
    pool = build_pool(config.load_net(), config.load_domain(), config.n, config.k,
                      config.seed, feature_net=config.load_feature_net())
    pool.save(args.out)
    print(f"pool: {pool.n} records, {pool.regions} distinct regions -> {args.out}")


def _cmd_sample(args):
    pool = SamplePool.load(args.pool)
    net = cpa.load_model(args.model)
    pool.check_fingerprint(net)
    seed = args.seed if args.seed is not None else pool.seed + 1
    zs = sample_batch(PolaritySampler(pool, args.rho), args.s, seed)
    _write_points(args.out, zs)
    print(f"{args.s} draws at rho={args.rho} -> {args.out}")


def _cmd_density_eval(args):
    config = _load_config(args)
    net = config.load_net()
    atlas = density.enumerate_regions(
        net, config.load_domain(), config.resolution, seed=config.seed
    )
    pts = _read_points(args.points)
    dens = density.analytic_density(atlas, pts, args.rho)
    rows = np.column_stack((pts, dens)).tolist()
    header = [f"x{d}" for d in range(pts.shape[1])] + ["density"]
    harness.write_csv(args.out, header, rows)
    print(f"density at {len(rows)} points (rho={args.rho}) -> {args.out}")


def _cmd_sweep(args, runner):
    config = _load_config(args)
    header, rows = runner(config)
    harness.write_csv(args.out, header, rows)
    print(f"{len(rows)} rows -> {args.out}")


def _cmd_modes(args):
    config = _load_config(args)
    report = harness.run_modes(config, rho_extreme=args.rho)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"mode report (rho={report['rho']}) -> {args.out}")


def _cmd_metrics(args):
    generated = metrics.SampleSet(_read_points(args.generated))
    reference = metrics.SampleSet(_read_points(args.reference))
    prec, rec = metrics.precision_recall(reference, generated, args.k_nn)
    text = json.dumps({
        "frechet": metrics.frechet_distance(reference, generated),
        "precision": prec,
        "recall": rec,
        "nn_summary": metrics.nn_summary(
            metrics.nn_distances(generated, reference, args.j)
        ),
        "ppl": None,
        "config": {"k_nn": args.k_nn, "j": args.j},
    }, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"metric report -> {args.out}")
    else:
        print(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {seed}")
        args.func(args)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (PolarityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
