"""Command-line entry point: reduce, cluster, and bench subcommands.

Every flag defaults to the canonical configuration (eps=1, minPts=5, EM
k=2/runs=5/steps=100/quality=1e-10, variance threshold 0.95, SVD k=1).
Precedence: command-line flags override config-file values override the
built-in defaults. Exit status is 0 on success, 2 on usage errors, 1 on
runtime failures, each with a one-line diagnostic.
"""

import argparse
import json
import sys
import typing
from dataclasses import fields
from pathlib import Path

from .benchmark import BenchmarkConfig, fit_reducer, paired_dbscan_timing, run_full_benchmark
from .dataset import load_dataset, normalize
from .density import cluster_count, dbscan
from .errors import InvalidConfigError, RedclustError
from .model_io import save_model
from .reference import REDUCER_ORDER

# config-file key -> the types its BenchmarkConfig field accepts (NoneType where Optional)
_CONFIG_TYPES = {
    f.name: typing.get_args(f.type) or (f.type,)
    for f in fields(BenchmarkConfig)
    if f.name not in ("datasets", "reducers")
}


class UsageError(Exception):
    pass


def _validate_usage(config):
    try:
        config.validate()
    except InvalidConfigError as exc:
        raise UsageError(str(exc)) from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="redclust",
        description=(
            "Dimension reduction (svd, pca, som, fastica) feeding DBSCAN and EM "
            "mixture clustering, plus the full benchmark grid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, multi_dataset=False):
        many = {"action": "append"} if multi_dataset else {}
        p.add_argument("--dataset", required=True, help="dataset CSV path", **many)
        p.add_argument("--schema", required=True, help="schema descriptor JSON path", **many)
        p.add_argument("--config", help="JSON config file (overridden by explicit flags)")
        p.add_argument("--seed", type=int, default=None, help="base random seed (default 17)")
        p.add_argument("--out", default=None, help="output directory (default ./redclust-out)")
        p.add_argument(
            "--no-normalize",
            action="store_true",
            help="skip z-normalization of numeric attributes",
        )

    def add_reducer_flags(p):
        p.add_argument(
            "--reducer",
            choices=REDUCER_ORDER,
            default=None,
            help="reduction technique (default: pca for reduce, none for cluster)",
        )
        p.add_argument(
            "--k", type=int, default=None, help="retained dimensions for both svd and pca"
        )
        p.add_argument(
            "--variance-threshold",
            type=float,
            default=None,
            help="cumulative variance threshold for pca (default 0.95)",
        )

    p_reduce = sub.add_parser("reduce", help="fit a reducer and write the reduced dataset")
    add_common(p_reduce)
    add_reducer_flags(p_reduce)
    p_reduce.add_argument("--save-model", default=None, help="also write the fitted model JSON")

    p_cluster = sub.add_parser("cluster", help="run DBSCAN and write the assignment")
    add_common(p_cluster)
    add_reducer_flags(p_cluster)
    p_cluster.add_argument("--eps", type=float, default=None, help="DBSCAN radius (default 1)")
    p_cluster.add_argument(
        "--minpts", type=int, default=None, help="DBSCAN density threshold (default 5)"
    )

    p_bench = sub.add_parser(
        "bench", help="run the full (dataset x reducer) benchmark grid and emit reports"
    )
    add_common(p_bench, multi_dataset=True)
    add_reducer_flags(p_bench)
    p_bench.add_argument("--eps", type=float, default=None, help="DBSCAN radius (default 1)")
    p_bench.add_argument(
        "--minpts", type=int, default=None, help="DBSCAN density threshold (default 5)"
    )
    p_bench.add_argument("--em-k", type=int, default=None, help="EM mixture size (default 2)")
    p_bench.add_argument("--em-runs", type=int, default=None, help="EM restarts (default 5)")
    p_bench.add_argument(
        "--em-steps", type=int, default=None, help="EM optimization step cap (default 100)"
    )
    p_bench.add_argument(
        "--em-quality",
        type=float,
        default=None,
        help="EM absolute log-likelihood improvement threshold (default 1e-10)",
    )
    p_bench.add_argument(
        "--timing-check",
        action="store_true",
        help="also run the paired reduced-vs-unreduced DBSCAN timing comparison",
    )
    return parser


def load_config_file(path):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, encoding or a 4300+ digit int
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise UsageError(f"unknown config file keys: {sorted(unknown)}")
    for key, value in raw.items():
        _check_config_type(key, value)
    return raw


def _check_config_type(key, value):
    """Reject a value the field cannot take.

    An int fits a float field if it converts to a finite float; a bool fits
    only a bool field.
    """
    types = _CONFIG_TYPES[key]
    if type(value) in types:
        return
    if type(value) is int and float in types:
        try:
            float(value)
        except OverflowError:
            raise UsageError(
                f"config file key {key!r} must be a finite number, got an int too large for a float"
            ) from None
        return
    expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
    raise UsageError(f"config file key {key!r} must be {expected}, got {value!r}")


def merge_config(args, flag_map):
    """defaults <- config file <- explicit flags, in that order.

    ``--k`` sets both svd_k and pca_k, so it means the same in every subcommand.
    """
    config = BenchmarkConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(config, key, value)
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, key, value)
    if getattr(args, "k", None) is not None:
        if args.k < 1:
            raise UsageError(f"--k must be >= 1, got {args.k}")
        config.svd_k = config.pca_k = args.k
    if getattr(args, "no_normalize", False):
        config.normalize = False
    return config


_FLAG_MAP = {
    "seed": "seed",
    "eps": "eps",
    "minpts": "min_pts",
    "em_k": "em_k",
    "em_runs": "em_runs",
    "em_steps": "em_steps",
    "em_quality": "em_quality",
    "variance_threshold": "pca_variance_threshold",
}


def _dataset_pairs(args):
    datasets = args.dataset if isinstance(args.dataset, list) else [args.dataset]
    schemas = args.schema if isinstance(args.schema, list) else [args.schema]
    if len(datasets) != len(schemas):
        raise UsageError(
            f"--dataset given {len(datasets)} times but --schema {len(schemas)} times"
        )
    for path in datasets + schemas:
        if not Path(path).is_file():
            raise UsageError(f"no such file: {path}")
    return list(zip(datasets, schemas))


def _out_dir(args):
    return Path(args.out) if args.out else Path("redclust-out")


def _load_work(config, pair):
    ds = load_dataset(*pair)
    return ds, normalize(ds) if config.normalize else ds


def cmd_reduce(args):
    config = merge_config(args, _FLAG_MAP)
    reducer = args.reducer or "pca"
    if args.save_model and reducer in ("svd", "none"):
        raise UsageError("--save-model applies to pca, som and fastica only")
    pair = _dataset_pairs(args)[0]
    config.datasets = [pair]
    _validate_usage(config)
    ds, work = _load_work(config, pair)
    matrix = work.numeric_matrix()
    if reducer == "none":
        model, reduced_data = None, matrix
    else:
        model, reduced = fit_reducer(reducer, matrix, config, config.seed)
        reduced_data = reduced.data
    k = reduced_data.shape[1]

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{ds.name}_{reducer}_reduced.csv"
    header = ",".join(f"c{i + 1}" for i in range(k))
    lines = [header] + [",".join(repr(v) for v in row) for row in reduced_data]
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.save_model:
        save_model(model, args.save_model)
    print(f"{ds.name}: {reducer} reduced {ds.n_regular} -> {k} attributes, wrote {out_path}")
    return 0


def cmd_cluster(args):
    config = merge_config(args, _FLAG_MAP)
    reducer = args.reducer or "none"
    pair = _dataset_pairs(args)[0]
    config.datasets = [pair]
    _validate_usage(config)
    ds, work = _load_work(config, pair)

    if reducer == "none":
        assignment = dbscan(
            work.feature_rows(), eps=config.eps, min_pts=config.min_pts,
            schema=work.distance_schema(),
        )
    else:
        _, reduced = fit_reducer(reducer, work.numeric_matrix(), config, config.seed)
        assignment = dbscan(reduced.data, eps=config.eps, min_pts=config.min_pts)

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["row\tcluster\trole"]
    lines += [
        f"{i}\t{label}\t{role}"
        for i, (label, role) in enumerate(zip(assignment.labels, assignment.roles))
    ]
    (out_dir / f"{ds.name}_assignment.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {
        "dataset": ds.name,
        "reducer": reducer,
        "eps": config.eps,
        "minpts": config.min_pts,
        "performance_1_clusters": cluster_count(assignment),
        "noise_count": assignment.noise_count,
        "seed": config.seed,
        "normalized": config.normalize,
    }
    (out_dir / f"{ds.name}_clustering.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"{ds.name}: {cluster_count(assignment)} clusters, "
        f"{assignment.noise_count} noise points (eps={config.eps}, minPts={config.min_pts})"
    )
    return 0


def cmd_bench(args):
    config = merge_config(args, _FLAG_MAP)
    if args.reducer is not None:
        config.reducers = (args.reducer,)
    config.datasets = _dataset_pairs(args)
    _validate_usage(config)
    out_dir = _out_dir(args)
    reports = run_full_benchmark(config, out_dir)
    for variant, report in reports.items():
        failed = sum(1 for c in report.cells.values() if c.failed)
        print(
            f"{variant}: {len(report.cells)} cells "
            f"({len(report.dataset_names)} datasets x {len(report.config.reducers)} reducers), "
            f"{failed} failed"
        )
    if args.timing_check:
        pair = config.datasets[0]
        ds = load_dataset(*pair)
        reduced_ms, unreduced_ms = paired_dbscan_timing(ds, config)
        print(
            f"paired DBSCAN timing on {ds.name}: svd(k=1) median {reduced_ms:.1f} ms "
            f"vs unreduced {unreduced_ms:.1f} ms"
        )
    print(f"reports written under {out_dir}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"reduce": cmd_reduce, "cluster": cmd_cluster, "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RedclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
