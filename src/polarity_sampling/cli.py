"""Command-line front end.

Subcommands: pool build, sample, density eval, pareto, ablate, modes,
shift, ppl, metrics.  Exit codes: 0 success, 2 configuration error,
3 numerical/timeout error.
"""

import argparse
import json
import sys

import numpy as np

from . import cpa, density, harness, metrics
from .errors import (
    ConfigError, InputError, ModelFormatError, PolarityError, SamplingTimeout,
    ScaleError, StateError, ValidationError,
)
from .polarity import (
    LatentDomain, PolaritySampler, SamplePool, build_pool, sample_batch,
)


def _add_common(parser):
    parser.add_argument("--model", help="model file (JSON)")
    parser.add_argument("--feature-model", help="feature-space model file")
    parser.add_argument("--pool", help="pool file")
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polsamp",
        description="Polarity sampling for piecewise-affine generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pool = sub.add_parser("pool", help="pool operations")
    pool_sub = pool.add_subparsers(dest="pool_command", required=True)
    pool_build = pool_sub.add_parser("build", help="score N prior draws")
    _add_common(pool_build)
    pool_build.set_defaults(func=_cmd_pool_build)

    # sweeps look their runner up at call time, so a patched harness is seen
    for name, descr, func in [
        ("sample", "draw latents from a pool under a polarity", _cmd_sample),
        ("pareto", "precision/recall/Frechet sweep over (rho, psi)",
         lambda args: _cmd_sweep(args, harness.run_pareto)),
        ("ablate", "metrics across the (N, k) grid",
         lambda args: _cmd_sweep(args, harness.run_ablation)),
        ("modes", "report highest-weight latents", _cmd_modes),
        ("shift", "Frechet distance to biased/uniform references across rho",
         lambda args: _cmd_sweep(args, harness.run_shift)),
        ("ppl", "path-length sweep over rho",
         lambda args: _cmd_sweep(args, harness.run_ppl)),
        ("metrics", "metric report for two sample files", _cmd_metrics),
    ]:
        p = sub.add_parser(name, help=descr)
        _add_common(p)
        p.set_defaults(func=func)
        if name == "sample":
            p.add_argument("--rho", type=float, required=True)
            p.add_argument("--s", type=int, required=True)
        if name == "modes":
            p.add_argument("--rho", type=float, help="override rho for the report")
        if name == "metrics":
            p.add_argument("--generated", required=True, help="generated CSV")
            p.add_argument("--reference", required=True, help="reference CSV")
            p.add_argument("--k-nn", type=int, default=3)
            p.add_argument("--j", type=int, default=3)

    dens = sub.add_parser("density", help="density operations")
    dens_sub = dens.add_subparsers(dest="density_command", required=True)
    dens_eval = dens_sub.add_parser("eval", help="analytic density at query points")
    _add_common(dens_eval)
    dens_eval.set_defaults(func=_cmd_density_eval)
    dens_eval.add_argument("--rho", type=float, required=True)
    dens_eval.add_argument("--points", required=True, help="CSV of query points")

    return parser


def _load_config(args):
    if not args.config:
        raise ConfigError("this command needs --config")
    config = harness.ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.model:
        config.model_path = args.model
    if getattr(args, "feature_model", None):
        config.feature_model_path = args.feature_model
    return config


def _require(value, flag):
    if not value:
        raise ConfigError(f"this command needs {flag}")
    return value


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
    header, rows = (
        [f"x{d}" for d in range(pts.shape[1])],
        [tuple(float(v) for v in row) for row in np.atleast_2d(pts)],
    )
    harness.write_csv(path, header, rows)


def _cmd_pool_build(args):
    config = _load_config(args)
    out = _require(args.out, "--out")
    net = config.load_net()
    pool = build_pool(
        net, config.load_domain(), config.n, config.k, config.seed,
        space=config.space, feature_net=config.load_feature_net(),
        eps=config.eps,
    )
    pool.save(out)
    print(f"pool: {pool.n} records, {pool.distinct_code_count()} distinct regions "
          f"-> {out}")


def _cmd_sample(args):
    pool = SamplePool.load(_require(args.pool, "--pool"))
    net = cpa.load_model(_require(args.model, "--model"))
    pool.check_fingerprint(net)
    seed = args.seed if args.seed is not None else pool.seed + 1
    zs = sample_batch(PolaritySampler(pool, args.rho), args.s, seed)
    _write_points(_require(args.out, "--out"), zs)
    print(f"{args.s} draws at rho={args.rho} -> {args.out}")


def _cmd_density_eval(args):
    config = _load_config(args)
    net = config.load_net()
    atlas = density.enumerate_regions(
        net, config.load_domain(), config.resolution, seed=config.seed
    )
    pts = _read_points(args.points)
    dens = density.analytic_density(atlas, pts, args.rho)
    rows = [tuple(float(v) for v in x) + (d,) for x, d in zip(pts, dens)]
    header = [f"x{d}" for d in range(pts.shape[1])] + ["density"]
    harness.write_csv(_require(args.out, "--out"), header, rows)
    print(f"density at {len(rows)} points (rho={args.rho}) -> {args.out}")


def _cmd_sweep(args, runner):
    config = _load_config(args)
    header, rows = runner(config)
    harness.write_csv(_require(args.out, "--out"), header, rows)
    print(f"{len(rows)} rows -> {args.out}")


def _cmd_modes(args):
    config = _load_config(args)
    report = harness.run_modes(config, rho_extreme=args.rho)
    out = _require(args.out, "--out")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"mode report (rho={report['rho']}) -> {out}")


def _cmd_metrics(args):
    generated = metrics.SampleSet(_read_points(args.generated), "generated")
    reference = metrics.SampleSet(_read_points(args.reference), "reference")
    prec, rec = metrics.precision_recall(reference, generated, args.k_nn)
    report = metrics.MetricReport(
        frechet=metrics.frechet_distance(reference, generated),
        precision=prec,
        recall=rec,
        nn_summary=metrics.nn_summary(
            metrics.nn_distances(generated, reference, args.j)
        ),
        config={"k_nn": args.k_nn, "j": args.j},
    )
    text = report.to_json(args.out)
    if args.out:
        print(f"metric report -> {args.out}")
    else:
        print(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, ModelFormatError, ValidationError, InputError,
            ScaleError, StateError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SamplingTimeout, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except PolarityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
