"""Command-line entry point wiring the pipeline stages.

Exit codes: 0 success, 1 input error, 2 runtime failure, 3 verification
failure. Every run logs a banner with the effective config digest and seed to
stderr, artifacts are written atomically, and a fixed seed reproduces output
bitwise (including under ``surface --jobs N``, which builds independent inputs
on N threads: stage 1 spends its time in large numpy calls that release the
interpreter lock, while an inversion run spends it in small autodiff ops that
hold it, so ``invert`` runs serially).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import fileio, theory, toydata
from .config import ConfigError, RunConfig, load_config, parse_overrides
from .finetune import finetune_run, load_complex_dir
from .inversion import prepare_receptor, run_inversion
from .model import PipelineModel
from .pretrain import prepare_sample, pretrain_run
from .structures import StructureError, parse_molecule, parse_pdb, write_molecule
from .surface import SurfaceError, build_patches, build_surface, sdf_value_grad


def _effective_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = load_config(Path(args.config).read_text(), cfg)
    if args.set:
        cfg = parse_overrides(args.set, cfg)
    return cfg.validate()


def _banner(command: str, cfg: RunConfig, seed: int) -> None:
    print(f"dockinv {command}: seed={seed} config-digest={cfg.digest()}", file=sys.stderr)


def _load_params(path, cfg: RunConfig, mdl: PipelineModel) -> dict:
    """A checkpoint's parameters. It is an input error unless it holds exactly
    the model's arrays, at the model's shapes."""
    params, _, _ = fileio.load_checkpoint(
        path, expected_digest=cfg.digest(),
        warn=lambda msg: print(f"warning: {msg}", file=sys.stderr))
    shapes = mdl.param_shapes()
    for name in sorted(shapes.keys() | params.keys()):
        if name not in params:
            raise InputError(f"{path}: checkpoint lacks the model's array {name!r}")
        if name not in shapes:
            raise InputError(f"{path}: checkpoint array {name!r} is not a model parameter")
        if params[name].shape != shapes[name]:
            raise InputError(f"{path}: checkpoint array {name!r} has shape "
                             f"{params[name].shape}, the model's has {shapes[name]}")
    return params


def _load_structure(path: Path):
    text = path.read_text()
    if path.suffix in (".mol", ".txt"):
        return parse_molecule(text)
    return parse_pdb(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_surface(args) -> int:
    cfg = _effective_config(args)
    _banner("surface", cfg, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = [Path(p) for p in args.inputs]
    for p in inputs:
        if not p.exists():
            print(f"error: input not found: {p}", file=sys.stderr)
            return 1

    def build(path: Path):
        structure = _load_structure(path)
        cloud, patches = build_surface(structure, cfg, seed=args.seed)
        sdf, _ = sdf_value_grad(cloud.points, structure.coords, structure.radii)
        residual = float(np.abs(sdf - cfg.r_probe).max())
        return path, cloud, patches, residual

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(build, inputs))
    for path, cloud, patches, residual in results:
        target = out_dir / (path.stem + ".mdpc")
        fileio.write_pointcloud(cloud, target)
        print(f"{path.name}: {len(cloud)} points, {len(patches.center_indices)} patches, "
              f"max residual {residual:.2e} -> {target}")
    return 0


def _load_pretrain_corpus(args, cfg: RunConfig, mdl: PipelineModel):
    if args.corpus == "toy":
        return toydata.toy_surface_corpus(args.corpus_size, cfg, mdl, seed=args.seed)
    root = Path(args.corpus)
    files = sorted(root.glob("*.mdpc"))
    if not files:
        raise FileNotFoundError(f"no .mdpc files under {root}")
    samples = []
    for f in files:
        cloud = fileio.read_pointcloud(f)
        if len(cloud) < cfg.patch_k:
            raise InputError(f"{f}: cloud has {len(cloud)} points, fewer than "
                             f"patch_k={cfg.patch_k}")
        samples.append(prepare_sample(cloud, build_patches(cloud, cfg), mdl))
    return samples


def cmd_pretrain(args) -> int:
    cfg = _effective_config(args)
    _banner("pretrain", cfg, args.seed)
    mdl = PipelineModel(cfg)
    samples = _load_pretrain_corpus(args, cfg, mdl)
    log_lines = []
    params, history = pretrain_run(
        samples, cfg, steps=args.steps, seed=args.seed, mdl=mdl,
        batch_size=args.batch_size,
        log=lambda rec: log_lines.append(json.dumps(rec)),
    )
    fileio.save_checkpoint(args.out, params, cfg.digest(), meta={"kind": "pretrain"})
    if args.log:
        fileio.atomic_write_text(args.log, "\n".join(log_lines) + "\n")
    first, last = history[0]["loss"], history[-1]["loss"]
    print(f"pretrain: {len(samples)} surfaces, {args.steps} steps, "
          f"loss {first:.4f} -> {last:.4f} -> {args.out}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _effective_config(args)
    _banner("finetune", cfg, args.seed)
    mdl = PipelineModel(cfg)
    params = _load_params(args.init, cfg, mdl) if args.init else None
    if args.corpus == "toy":
        samples, scaler = toydata.toy_complex_corpus(args.corpus_size, cfg, mdl, seed=args.seed)
    else:
        samples, scaler = load_complex_dir(args.corpus, cfg, mdl, seed=args.seed)
    log_lines = []
    params, history = finetune_run(
        samples, cfg, steps=args.steps, seed=args.seed, mdl=mdl, params=params,
        batch_size=args.batch_size,
        log=lambda rec: log_lines.append(json.dumps(rec)),
    )
    meta = {"kind": "finetune", "scaler_mean": scaler.mean, "scaler_std": scaler.std}
    fileio.save_checkpoint(args.out, params, cfg.digest(), meta=meta)
    if args.log:
        fileio.atomic_write_text(args.log, "\n".join(log_lines) + "\n")
    first, last = history[0]["loss"], history[-1]["loss"]
    print(f"finetune: {len(samples)} complexes, {args.steps} steps, "
          f"loss {first:.4f} -> {last:.4f} -> {args.out}")
    return 0


def cmd_invert(args) -> int:
    cfg = _effective_config(args)
    _banner("invert", cfg, args.seed)
    receptor_path = Path(args.receptor)
    if not receptor_path.exists():
        print(f"error: input not found: {receptor_path}", file=sys.stderr)
        return 1
    mdl = PipelineModel(cfg)
    params = (_load_params(args.checkpoint, cfg, mdl) if args.checkpoint
              else mdl.init_params(args.seed))
    structure = parse_pdb(receptor_path.read_text())
    cloud, _ = build_surface(structure, cfg, seed=args.seed)
    ctx = prepare_receptor(mdl, params, cloud)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    molecule_type = "small-molecule" if args.ligand_type == "molecule" else "protein"

    failures = 0
    for run_idx in range(args.runs):
        run_seed = args.seed * 10007 + run_idx
        result = run_inversion(ctx, mdl, params, cfg, seed=run_seed,
                               molecule_type=molecule_type, mode=args.mode)
        stem = out_dir / f"run_{run_idx:03d}"
        trace_text = "\n".join(json.dumps(rec) for rec in result.trace)
        fileio.atomic_write_text(stem.with_suffix(".trace.jsonl"), trace_text + "\n")
        if result.best is None:
            failures += 1
            print(f"run {run_idx}: repair failed, no candidate emitted", file=sys.stderr)
            continue
        if molecule_type == "small-molecule":
            fileio.atomic_write_text(stem.with_suffix(".mol"),
                                     write_molecule(result.best.structure))
        else:
            fileio.atomic_write_text(stem.with_suffix(".prot"), result.best.to_text())
        print(f"run {run_idx}: seed={run_seed} F={result.best_objective:.4f} "
              f"stop={result.stop_reason}")
    return 2 if failures == args.runs else 0


def cmd_verify(args) -> int:
    cfg = _effective_config(args)
    _banner("verify", cfg, args.seed)
    rng = np.random.default_rng(args.seed)
    reports = []

    for landscape in (theory.quadratic_1d(), theory.box_quadratic()):
        landscape.check_gradient(n_points=200)
        starts = rng.uniform(landscape.lower, landscape.upper, size=(8, len(landscape.lower)))
        reports.append(theory.verify_descent(landscape, 1.0 / landscape.smoothness, 200, starts))

    for i in range(args.instances):
        landscape = theory.random_psd_quadratic(dim=int(rng.integers(2, 6)), rng=rng)
        starts = rng.uniform(landscape.lower / 2, landscape.upper / 2,
                             size=(3, len(landscape.lower)))
        # linear convergence rate is (1 - mu/L) per step; budget for the
        # condition number so the stationarity check is meaningful
        steps = int(min(max(25.0 * landscape.smoothness / landscape.mu, 200), 50000))
        reports.append(theory.verify_descent(landscape, 1.0 / landscape.smoothness,
                                             steps, starts))

    reports.append(theory.containment_demo(seed=args.seed))

    if args.negative_control:
        landscape = theory.quadratic_1d()
        rep = theory.verify_descent(landscape, 2.0 / landscape.smoothness, 50,
                                    np.array([[1.0]]))
        rep.name = "negative-control eta=2/L"
        reports.append(rep)

    lines = []
    records = []
    for rep in reports:
        lines.extend(rep.lines())
        records.append(json.dumps({
            "name": rep.name, "passed": rep.passed,
            "violations": rep.violations,
            "details": {k: _jsonable(v) for k, v in rep.details.items()},
        }))
    text = "\n".join(lines) + "\n"
    if args.out:
        fileio.atomic_write_text(args.out, text)
        fileio.atomic_write_text(str(args.out) + ".jsonl", "\n".join(records) + "\n")
    print(text, end="")
    return 0 if all(r.passed for r in reports) else 3


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


class InputError(ValueError):
    """An input file holds a row that cannot be read, or data that the command
    cannot use."""


def _read_lines(path) -> list[str]:
    return [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]


def _float_rows(path, cols, sep=None, n_fields=None, skip=0) -> np.ndarray:
    """Fields ``cols`` of each line of ``path`` after the first ``skip``, as a
    (rows, len(cols)) float array. A short or non-numeric row, or one of other
    than ``n_fields`` fields when that is given, is an :class:`InputError`."""
    rows = []
    for ln in _read_lines(path)[skip:]:
        fields = ln.split(sep)
        try:
            if n_fields is not None and len(fields) != n_fields:
                raise ValueError
            rows.append([float(fields[c]) for c in cols])
        except (IndexError, ValueError):
            raise InputError(f"{path}: malformed row {ln!r}") from None
    return np.array(rows).reshape(-1, len(cols))


#: Number of input files a metric kind reads; the others read one or more.
_METRIC_INPUTS = {"aar": 2, "nov": 2, "div": 1, "scaling": 1}


def cmd_metrics(args) -> int:
    cfg = _effective_config(args)
    _banner("metrics", cfg, args.seed)
    kind, inputs = args.kind, args.inputs
    want = _METRIC_INPUTS.get(kind)
    if want is not None and len(inputs) != want:
        raise InputError(f"metrics --kind {kind} reads {want} input file(s), got {len(inputs)}")

    def score(metric, *operands):
        # a metric raises ValueError on data it cannot score (too few items,
        # sets of different sizes, a timing <= 0): an input error
        try:
            return metric(*operands)
        except ValueError as exc:
            raise InputError(f"{', '.join(inputs)}: {exc}") from None

    if kind == "aar":
        print(f"AAR = {score(theory.metric_aar, *map(_read_lines, inputs)):.4f}")
    elif kind == "div":
        value = score(theory.metric_div, _read_lines(inputs[0]),
                      lambda a, b: 1.0 - theory.seq_identity(a, b))
        print(f"DIV = {value:.4f}")
    elif kind == "nov":
        print(f"NOV = {score(theory.metric_nov, *map(_read_lines, inputs)):.4f}")
    elif kind == "sta-molecule":
        mols = []
        for path in inputs:
            structure = parse_molecule(Path(path).read_text())
            bonded = {(b.i, b.j) for b in structure.bonds}
            cse = float(theory.clash_count(structure.coords, cfg.clash_floor, bonded))
            mols.append({"cse": cse, "sai": theory.accessibility_proxy(structure)})
        print(f"STA = {score(theory.metric_sta_molecule, mols):.4f}")
    elif kind == "sta-protein":
        prots = []
        for path in inputs:
            rows = _float_rows(path, (1, 2), skip=1)
            prots.append({"scs": 0.0, "ssc": theory.torsion_coherence(rows[:, 0], rows[:, 1])})
        print(f"STA = {score(theory.metric_sta_protein, prots):.4f}")
    else:
        samples = _float_rows(inputs[0], (0, 1), sep=",", n_fields=2)
        gamma, err = score(theory.fit_scaling_exponent, samples)
        print(f"gamma = {gamma:.4f} +- {err:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, not argparse's 2 (subparsers too)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dockinv",
        description="Surface point-cloud docking pipeline with inversion-based ligand generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="config file (key = value lines)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override (repeatable)")

    p = sub.add_parser("surface", help="build surface point clouds")
    common(p)
    p.add_argument("inputs", nargs="+", help="structure files (.pdb or .mol)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="inputs built in parallel threads")
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining")
    common(p)
    p.add_argument("--corpus", default="toy", help="'toy' or a directory of .mdpc files")
    p.add_argument("--corpus-size", type=int, default=32)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="training log (.jsonl)")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="cascaded supervised fine-tuning")
    common(p)
    p.add_argument("--corpus", default="toy", help="'toy' or a directory of complexes")
    p.add_argument("--corpus-size", type=int, default=16)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--init", default=None, help="stage-2 checkpoint to start from")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("invert", help="generate ligands by gradient inversion")
    common(p)
    p.add_argument("--receptor", required=True, help="receptor PDB file")
    p.add_argument("--checkpoint", default=None, help="fine-tuned checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--mode", choices=("continuous-pgd", "discrete-accept"),
                   default="continuous-pgd")
    p.add_argument("--ligand-type", choices=("molecule", "protein"), default="molecule")
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("verify", help="run the theory verification harness")
    common(p)
    p.add_argument("--out", default=None, help="report path (text + .jsonl)")
    p.add_argument("--instances", type=int, default=100,
                   help="random convex instances for the descent checks")
    p.add_argument("--negative-control", action="store_true",
                   help="also run the eta=2/L control (expected to fail -> exit 3)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("metrics", help="sequence/structure metrics")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=("aar", "div", "nov", "sta-molecule", "sta-protein", "scaling"))
    p.add_argument("inputs", nargs="+")
    p.set_defaults(fn=cmd_metrics)

    return parser


#: Count options that must be at least 1 wherever a subcommand has them.
_POSITIVE_COUNTS = ("steps", "batch_size", "corpus_size", "runs", "jobs")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in _POSITIVE_COUNTS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            print(f"error: --{name.replace('_', '-')} must be >= 1, got {value}", file=sys.stderr)
            return 1
    try:
        return args.fn(args)
    except (StructureError, ConfigError, FileNotFoundError, fileio.FormatError,
            InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (SurfaceError, ValueError, RuntimeError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
