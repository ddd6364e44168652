"""Command-line surface: generate data, train, compare methods, and print
parameter accounting.

Every run writes a manifest (command, config hash, seed, inputs, timestamps)
into an append-only run directory named by the config hash and seed. Exit
codes: 1 for configuration or usage errors, 2 for data errors, 3 for a
numeric abort during training. A run that ends in one of these errors is
marked failed in its manifest, with the exit code and the message.

The output root defaults to ./runs and can be overridden with the
AEFS_OUT_ROOT environment variable or the --out flag.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DataError,
    SyntheticSpec,
    generate_synthetic,
    read_format_a,
    read_format_b,
    write_format_b,
)
from .embedding import delta_el, delta_pae, full_param_count
from .metrics import (
    DegenerateSampleError,
    SingleClassError,
    auc,
    emit_report,
    metrics_row,
    welch_t_test,
)
from .predictors import VARIANTS
from .training import (
    METHODS,
    MODES,
    ConfigError,
    NumericAbort,
    TrainConfig,
    apply_overrides,
    evaluate,
    parse_config_text,
    prepare,
    save_checkpoint,
    train,
)

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# handled error -> (exit code, message prefix); anything else is a bug and
# escapes as a traceback
_HANDLED = {
    ConfigError: (EXIT_CONFIG, "config error"),
    DataError: (EXIT_DATA, "data error"),
    SingleClassError: (EXIT_DATA, "data error"),
    DegenerateSampleError: (EXIT_DATA, "data error"),
    NumericAbort: (EXIT_NUMERIC, "numeric abort"),
}


def _handled(exc: Exception) -> tuple[int, str]:
    """Exit code and one-line message of a handled error."""
    code, prefix = next(v for cls, v in _HANDLED.items() if isinstance(exc, cls))
    return code, f"{prefix}: {exc}"


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors, not data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@contextmanager
def _path_errors(error: type[Exception]):
    """Raise a file-system error on a user-named path (a directory where a
    file belongs, a file where a directory belongs) as `error`, one line
    naming the path."""
    try:
        yield
    except OSError as exc:
        raise error(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)) from exc


def _out_root(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    return Path(os.environ.get("AEFS_OUT_ROOT", "runs"))


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


@contextmanager
def _manifest(run_dir: Path, command: str, config_hash: str, seed: int, inputs: list[str]):
    """Keep `manifest.json` at status running while the body runs, then mark
    it done, or failed: with the exit code and message of a handled error,
    or, for any other exception, which goes on, with no exit code and the
    exception's type and first line."""
    manifest = {
        "command": command,
        "config_hash": config_hash,
        "seed": seed,
        "inputs": inputs,
        "output_dir": str(run_dir),
        "started_at": _now(),
        "finished_at": None,
        "status": "running",
        "exit_code": None,
        "error": None,
        "version": __version__,
    }

    def write(**updates):
        manifest.update(updates)
        (run_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    write()
    try:
        with _path_errors(ConfigError):  # an output the run cannot write
            yield
    except tuple(_HANDLED) as exc:
        code, message = _handled(exc)
        write(status="failed", finished_at=_now(), exit_code=code, error=message)
        raise
    except BaseException as exc:  # a bug or an interrupt: the traceback follows
        line = str(exc).split("\n", 1)[0]
        write(status="failed", finished_at=_now(),
              error=f"{type(exc).__name__}: {line}" if line else type(exc).__name__)
        raise
    write(status="done", finished_at=_now(), exit_code=0)


def _make_run_dir(root: Path, name: str, force: bool) -> Path:
    """The run directory `root/name`. An existing one is reused only with
    `force`, or when its manifest says its run failed."""
    run_dir = root / name
    if run_dir.exists() and not force and _status(run_dir) != "failed":
        raise ConfigError(
            f"run directory {run_dir} already exists; rerun with --force or a new seed")
    with _path_errors(ConfigError):
        run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _status(run_dir: Path) -> str | None:
    """The status in `run_dir/manifest.json`, None if it has none."""
    try:
        return json.loads((run_dir / "manifest.json").read_text()).get("status")
    except (OSError, ValueError, AttributeError):
        return None


def _percent(frac: Fraction) -> str:
    return f"{float(frac) * 100:g}%"


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    with _path_errors(ConfigError):
        out_dir.mkdir(parents=True, exist_ok=True)
    with _manifest(out_dir, "synth", f"synth-{args.seed}", args.seed, []):
        spec = SyntheticSpec(
            n_fields=args.fields,
            n_informative=args.informative,
            vocab_size=args.vocab,
            n_records=args.records,
            teacher_seed=args.seed,
        )
        try:
            sd = generate_synthetic(spec)
        except MemoryError as exc:
            raise DataError(f"--vocab {spec.vocab_size} or --records {spec.n_records} too "
                            f"large: {exc}") from None
        labels = sd.columns.labels
        positives = int(labels.sum())
        if not 0 < positives < labels.size:  # checked before any file is written
            raise DataError(f"--records {spec.n_records} drew {positives} positive labels of "
                            f"{labels.size}: need at least one positive and one negative")
        teacher_auc = auc(sd.teacher_logits, labels) if spec.n_informative else 0.5
        write_format_b(sd.columns, sd.schema, out_dir / "data.csv", out_dir / "schema.json")
        meta = {
            "n_fields": spec.n_fields,
            "n_informative": spec.n_informative,
            "vocab_size": spec.vocab_size,
            "n_records": spec.n_records,
            "teacher_seed": spec.teacher_seed,
            "informative_fields": sd.informative_fields,
            "teacher_auc": teacher_auc,
            "positive_rate": float(np.mean(labels)),
        }
        (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {spec.n_records} records, {spec.n_fields} fields to {out_dir}")
    print(f"teacher_auc: {teacher_auc:.4f}")
    return 0


# ---------------------------------------------------------------------------
# train

def _load_config(args) -> TrainConfig:
    config = TrainConfig()
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} not found")
        with _path_errors(ConfigError):
            text = path.read_text()
        config = parse_config_text(text)
    # each flag is stored under its config key's name, None when not given
    return apply_overrides(config, {f.name: getattr(args, f.name, None)
                                    for f in dataclasses.fields(TrainConfig)})


def _load_dataset(data_dir: Path):
    data_path = data_dir / "data.csv"
    schema_path = data_dir / "schema.json"
    with _path_errors(DataError):
        if data_path.exists() and schema_path.exists():
            columns, schema = read_format_b(data_path, schema_path)
        else:
            tsv = sorted(data_dir.glob("*.tsv")) + sorted(data_dir.glob("*.txt"))
            if not tsv:
                raise DataError(f"no data.csv+schema.json or .tsv file under {data_dir}")
            columns, schema = read_format_a(tsv[0])
    informative = None
    meta_path = data_dir / "meta.json"
    if meta_path.exists():
        informative = _json_object(meta_path).get("informative_fields")
        n = len(schema)
        if informative is not None and not (
                isinstance(informative, list) and all(_is_count(f) and f < n for f in informative)
                and len(set(informative)) == len(informative)):
            raise DataError(f"{meta_path}: informative_fields must be a list of distinct field "
                            f"positions in [0, {n}), got {informative!r}")
    return columns, schema, informative


def _json_object(path: Path) -> dict:
    """The JSON object in the file at `path`; anything else is a DataError."""
    with _path_errors(DataError):
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    return obj


def _is_count(v) -> bool:
    """A nonnegative JSON integer (JSON true and false are not)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _run_single(config: TrainConfig, data, run_dir: Path,
                dump_selection: bool = False) -> dict:
    result = train(data, config)
    dump = run_dir / "selections.jsonl" if dump_selection else None
    test_metrics = evaluate(result.fitted, data.test, config.batch_size,
                            selection_dump_path=dump,
                            informative_fields=data.informative_fields)
    # delta_pae and the selection precision are figures of early selection
    # by an auxiliary model; the other methods report a delta_pae of 0
    early = result.fitted.model.aux_embeddings is not None
    dpae = delta_pae(config.d1, config.d2, Fraction(result.fitted.k, data.n_fields)) \
        if early else Fraction(0)
    row = metrics_row(config.method, test_metrics, delta_pae=float(dpae), seed=config.seed)
    if early and data.informative_fields:
        row["selection_precision"] = test_metrics.selection_precision

    (run_dir / "config.txt").write_text(config.to_text())
    (run_dir / "train_report.jsonl").write_text(result.report.to_jsonl())
    (run_dir / "vocab_sizes.json").write_text(json.dumps(
        {"vocab_sizes": data.vocab.vocab_sizes, "total_ids": data.vocab.total_ids},
        sort_keys=True) + "\n")
    save_checkpoint(result.fitted, run_dir / "model.ckpt")
    emit_report([row], run_dir / "report.jsonl", run_dir / "report.txt")
    return row


def cmd_train(args) -> int:
    config = _load_config(args)
    data_dir = Path(args.data)
    root = _out_root(args.out)
    run_dir = _make_run_dir(root, f"{config.config_hash()}-seed{config.seed}", args.force)
    with _manifest(run_dir, "train", config.config_hash(), config.seed, [str(data_dir)]):
        columns, schema, informative = _load_dataset(data_dir)
        data = prepare(columns, schema, seed=config.seed, min_freq=config.min_freq,
                       informative_fields=informative)
        row = _run_single(config, data, run_dir, dump_selection=args.dump_selection)
    print(f"run dir: {run_dir}")
    print(f"test AUC: {row['auc']:.4f}  Logloss: {row['logloss']:.4f}")
    print(f"delta_pae: {100 * row['delta_pae']:g}%")
    if "selection_precision" in row:
        print(f"selection precision: {row['selection_precision']:.3f}")
    return 0


# ---------------------------------------------------------------------------
# compare

def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    seeds = []
    for s in filter(str.strip, args.seeds.split(",")):
        try:
            seeds.append(int(s))
        except ValueError:
            raise ConfigError(f"compare got a seed that is not an integer: {s.strip()!r}") from None
    if len(methods) < 2:
        raise ConfigError("compare needs at least 2 methods")
    if len(seeds) < 2:
        raise ConfigError("compare needs at least 2 seeds for significance")
    # a repeated seed trains an identical cell and a repeated method
    # overwrites its own cells; neither adds a sample
    for kind, values in (("method", methods), ("seed", seeds)):
        repeated = [v for v in values if values.count(v) > 1]
        if repeated:
            raise ConfigError(f"compare got a repeated {kind}: {repeated[0]}")

    base = _load_config(args)
    # every cell's config, so that a bad method or seed fails before any run
    cells = {(method, seed): apply_overrides(base, {"method": method, "seed": seed})
             for method in methods for seed in seeds}
    data_dir = Path(args.data)
    root = _out_root(args.out)
    tag = base.config_hash()
    run_dir = _make_run_dir(root, f"compare-{tag}-{'-'.join(methods)}", args.force)
    with _manifest(run_dir, "compare", tag, seeds[0], [str(data_dir)]):
        columns, schema, informative = _load_dataset(data_dir)
        prepared_by_seed: dict[int, object] = {}
        per_method: dict[str, list[dict]] = {}
        for method in methods:
            per_method[method] = []
            for seed in seeds:
                config = cells[method, seed]
                if seed not in prepared_by_seed:
                    prepared_by_seed[seed] = prepare(columns, schema, seed=seed,
                                                     min_freq=config.min_freq,
                                                     informative_fields=informative)
                cell_dir = run_dir / f"{method}-seed{seed}"
                cell_dir.mkdir(parents=True, exist_ok=True)
                row = _run_single(config, prepared_by_seed[seed], cell_dir)
                per_method[method].append(row)
                print(f"{method} seed {seed}: auc={row['auc']:.4f}", flush=True)

        rows = []
        for method, cells in per_method.items():
            aucs = [c["auc"] for c in cells]
            logs = [c["logloss"] for c in cells]
            rows.append({
                "method": method,
                "auc": float(np.mean(aucs)),
                "auc_std": float(np.std(aucs)),
                "logloss": float(np.mean(logs)),
                "delta_pae": cells[0]["delta_pae"],
                "n_seeds": len(cells),
            })
        emit_report(rows, run_dir / "report.jsonl", run_dir / "report.txt")

        ttests = []
        for i, a in enumerate(methods):
            for b in methods[i + 1:]:
                p = welch_t_test([c["auc"] for c in per_method[a]],
                                 [c["auc"] for c in per_method[b]])
                ttests.append({"method_a": a, "method_b": b, "p_auc": p})
        (run_dir / "ttests.jsonl").write_text(
            "".join(json.dumps(t, sort_keys=True) + "\n" for t in ttests))

        with open(run_dir / "report.txt", "a") as fh:
            fh.write("\npairwise Welch p-values (AUC)\n")
            for t in ttests:
                fh.write(f"{t['method_a']} vs {t['method_b']}: p={t['p_auc']:.4f}\n")
    print((run_dir / "report.txt").read_text())
    return 0


# ---------------------------------------------------------------------------
# params

def cmd_params(args) -> int:
    TrainConfig(r=args.r, d1=args.d1, d2=args.d2)  # training's rules for these flags
    vocab_path = Path(args.vocab_file)
    if not vocab_path.exists():
        raise DataError(f"vocab file {vocab_path} not found")
    obj = _json_object(vocab_path)
    if "vocab_sizes" in obj:
        sizes = obj["vocab_sizes"]
        if not (isinstance(sizes, list) and all(_is_count(v) for v in sizes)):
            raise DataError(f"{vocab_path}: vocab_sizes must be a list of nonnegative "
                            f"integers, got {sizes!r}")
        total_ids = sum(sizes)
    elif "total_ids" in obj:
        total_ids = obj["total_ids"]
        if not _is_count(total_ids):
            raise DataError(f"{vocab_path}: total_ids must be a nonnegative integer, "
                            f"got {total_ids!r}")
    else:
        raise DataError("vocab file needs a 'vocab_sizes' list or a 'total_ids' count")
    # the figures below are printed through floats
    if total_ids > sys.float_info.max:
        raise DataError(f"{vocab_path}: {len(str(total_ids))}-digit id count is too large "
                        f"for a float")

    # a keep rate below 5e-7 would round to 0: keep such a rate exact
    r = Fraction(args.r).limit_denominator(10**6) or Fraction(args.r)
    main_full = full_param_count([total_ids], args.d1)
    aux_full = full_param_count([total_ids], args.d2)
    dpae = delta_pae(args.d1, args.d2, r)
    del_ = delta_el(r)
    expected_activated = main_full * r + aux_full
    try:
        activated = float(expected_activated)
        main_m, aux_m, activated_m = main_full / 1e6, aux_full / 1e6, activated / 1e6
    except OverflowError:
        raise ConfigError("--d1 and --d2 make parameter counts too large for a float") from None

    print(f"total feature ids: {total_ids}")
    print(f"main embedding parameters (d1={args.d1}): {main_full} ({main_m:.2f}M)")
    print(f"aux embedding parameters (d2={args.d2}): {aux_full} ({aux_m:.2f}M)")
    print(f"expected activated parameters at keep rate {float(r):g}: "
          f"{activated:.0f} ({activated_m:.2f}M)")
    print(f"delta_pae: {_percent(dpae)}")
    print(f"delta_el: {_percent(del_)}")
    return 0


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="aefs", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="generate a planted-signal dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--fields", type=int, default=16)
    p.add_argument("--informative", type=int, default=8)
    p.add_argument("--vocab", type=int, default=50)
    p.add_argument("--records", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_synth)

    def add_train_flags(p):
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--r", type=float)
        p.add_argument("--d1", type=int)
        p.add_argument("--d2", type=int)
        p.add_argument("--backbone-main", dest="backbone_main", choices=VARIANTS)
        p.add_argument("--backbone-aux", dest="backbone_aux", choices=VARIANTS)
        p.add_argument("--no-eal", dest="enable_eal", action="store_false", default=None)
        p.add_argument("--no-pal", dest="enable_pal", action="store_false", default=None)
        p.add_argument("--no-topk-reweight", dest="enable_topk_reweight", action="store_false",
                       default=None)
        p.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)
        p.add_argument("--max-epochs", dest="max_epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--min-freq", dest="min_freq", type=int)
        p.add_argument("--out", help="output root (default $AEFS_OUT_ROOT or ./runs)")
        p.add_argument("--force", action="store_true",
                       help="allow writing into an existing run directory")

    p = sub.add_parser("train", help="train one method and evaluate on the test split")
    add_train_flags(p)
    p.add_argument("--dump-selection", action="store_true",
                   help="write per-instance selections for the test split")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compare", help="train a method grid and report significance")
    add_train_flags(p)
    p.add_argument("--methods", required=True, help="comma-separated method list")
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("params", help="print embedding parameter accounting")
    p.add_argument("--vocab-file", dest="vocab_file", required=True,
                   help="JSON with 'vocab_sizes' or 'total_ids'")
    p.add_argument("--d1", type=int, default=32)
    p.add_argument("--d2", type=int, default=4)
    p.add_argument("--r", type=float, default=0.5)
    p.set_defaults(fn=cmd_params)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except tuple(_HANDLED) as exc:
        code, message = _handled(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
