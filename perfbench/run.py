"""dockinv benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; dockinv is imported from ``src/``. The
workloads are ``receptor-prep``, ``train-toy`` and ``invert-multistart``
(see ``perfbench/NOTES.md``). One process runs a closed loop of rounds on
one thread of control, with one BLAS thread and glibc's allocator thresholds
pinned before any work.

``--trace 0`` times set-up five times (here and in four child processes, one
after another), runs at least two rounds and otherwise rounds for about
``--seconds``, then prints the end-to-end metrics.
``--trace 1`` runs round 0 untraced, ``trace_rounds`` times with span
wrappers installed, and untraced once more, then prints the per-layer
metrics. Both print a notes line
and then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os
import sys

# One BLAS thread: the workloads are one thread of control over small matrices,
# and a second OpenBLAS thread made runs slower and noisier whenever the other
# core was busy (see NOTES.md).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_SETUPS = 4

TIME_SPANS = (
    "surface.build_s", "surface.project_s", "surface.normals_s", "surface.features_s",
    "surface.patches_s", "surface.sdf_s", "equivariant.knn_s", "equivariant.conv_geometry_s",
    "equivariant.conv_s", "equivariant.attention_s", "autodiff.backward_s", "model.encode_s",
    "model.precompute_geometry_s", "model.heads_s", "model.fuse_s", "model.patch_tokens_s",
    "model.decode_tokens_s", "model.optim_s", "pretrain.step_s", "pretrain.loss_s",
    "pretrain.quantize_s", "pretrain.chamfer_s", "finetune.step_s", "finetune.forward_s",
    "finetune.pseudolabels_s", "inversion.prepare_receptor_s", "inversion.init_s",
    "inversion.decode_s", "inversion.repair_s", "inversion.objective_s",
    "inversion.state_features_s", "inversion.pgd_step_s",
)


def pin_allocator() -> bool:
    """Keep freed heap memory in the process instead of returning it.

    With glibc's default thresholds, large numpy temporaries are fresh
    mappings or trimmed heap, so their pages fault in again on every call:
    about 90,000 minor faults per 1000-point receptor encode. On a shared
    virtual machine the cost of those faults varies from minute to minute
    and spread throughput by 15-20% between runs. Returns False where
    mallopt is not available (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    ok = mallopt(m_mmap_threshold, 1 << 30)          # above any single temporary
    return bool(ok and mallopt(m_trim_threshold, (1 << 31) - 1))   # largest C int


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("receptor-prep", "train-toy", "invert-multistart"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up, print it as JSON and exit (used for set-up repeats)")
    return p.parse_args(argv)


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"set-up child failed ({out.returncode}): {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def rate(ops: float, seconds: float) -> float:
    return ops / seconds if seconds > 0 else 0.0


def phase_rate(rounds, phase: int) -> float:
    """Steps of the phase's operations over the sum of each operation's fastest time.

    Every round repeats the same operations, so operation j of one round is
    the same work as operation j of any other. Its fastest repeat is its
    time with the least interference from the rest of a shared machine.
    """
    per_op = list(zip(*(r.samples[phase] for r in rounds)))
    ops = sum(repeats[0][0] for repeats in per_op)
    return rate(ops, sum(min(s[1] for s in repeats) for repeats in per_op))


def end_to_end(args, workloads, t_start):
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setups = [time.perf_counter() - t_start]
    setups += [child_setup_s(args) for _ in range(CHILD_SETUPS)]

    rounds, walls = [], []
    # closed loop: at least two rounds, so that every operation is timed twice, then
    # stop at the round boundary nearest to the deadline (round 0 of
    # invert-multistart also tries the failing starts, so later rounds set the pace)
    while len(rounds) < 2 or sum(walls) + 0.5 * statistics.mean(walls[1:]) < args.seconds:
        t0 = time.perf_counter()
        rounds.append(wl.run_round())
        walls.append(time.perf_counter() - t0)

    problems = list(wl.setup_problems)
    for r in rounds:
        problems += r.problems
    digests = {r.digest.hexdigest() for r in rounds}
    if len(digests) > 1:
        problems.append(f"repeated rounds produced different outputs: {sorted(digests)}")
    # rounds repeat round 0's seed-determined operations (equal digests show it), and
    # invert-multistart repeats only the starts that completed, so round 0 holds every
    # operation once
    attempted, failed = rounds[0].attempted, rounds[0].failed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "phase1_per_s": (phase_rate(rounds, 0), "1/s"),
        "phase2_per_s": (phase_rate(rounds, 1), "1/s"),
    }
    notes = {
        "workload": wl.name, "seed": args.seed, "blas_threads": BLAS_THREADS,
        "allocator_pinned": args.allocator_pinned, "rounds": len(rounds),
        "measured_s": round(sum(walls), 3),
        "round0_digest": rounds[0].digest.hexdigest(),
        "fail_frac": failed / attempted, "failures": dict(rounds[0].failures),
        "setup_samples_s": setups,
        wl.phase_names[0]: metrics["phase1_per_s"][0],
        wl.phase_names[1]: metrics["phase2_per_s"][0],
        "problems": problems,
    }
    return problems, attempted, failed, metrics, notes


def per_layer(args, workloads, spans):
    tracer = spans.Tracer()
    spans.install_dockinv_spans(tracer)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    coupling_s = tracer.self_s["equivariant.coupling_s"]
    tracer.uninstall()

    base = wl.run_round()   # warms caches and the heap; the untraced reference

    rounds, walls, self_s, counts, builds = [], [], [], [], []
    spans.install_dockinv_spans(tracer)
    try:
        for _ in range(wl.trace_rounds):
            tracer.reset()
            nodes_before = spans.node_id()
            t0 = time.perf_counter()
            rounds.append(wl.run_round(checking=tracer.paused))
            walls.append(time.perf_counter() - t0)
            counts.append({**tracer.counts(), "nodes": spans.node_id() - nodes_before - 1})
            self_s.append(dict(tracer.self_s))
            builds += [(atoms, secs) for atoms, secs, ok in tracer.builds if ok]
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    after = wl.run_round()  # untraced again, as warm as the traced rounds
    untraced_wall = time.perf_counter() - t0

    problems = list(wl.setup_problems)
    for r in [base, after] + rounds:
        problems += r.problems
    digests = {r.digest.hexdigest() for r in [base, after] + rounds}
    if len(digests) > 1:
        problems.append(f"traced rounds changed the outputs: {sorted(digests)}")
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between identical traced rounds")
    calls, c, runs = counts[0]["calls"], counts[0]["counters"], counts[0]["runs"]
    missing = [s for s in wl.expected_spans if s not in calls]
    if missing:
        problems.append(f"expected spans never fired: {missing}")
    if coupling_s <= 0.0:
        problems.append("coupling solve was not traced during set-up")

    # times are means over the traced rounds; counts are the same in every round
    metrics = {name: (statistics.mean(r.get(name, 0.0) for r in self_s), "s")
               for name in TIME_SPANS}
    steps = calls.get("pretrain.step_s", 0) + calls.get("finetune.step_s", 0) \
        + c.get("objective_grad_calls", 0)
    try:
        gamma = workloads.theory.fit_scaling_exponent(builds)[0]
    except ValueError:      # needs 4 sizes with 3 successful builds each
        gamma = 0.0
    metrics.update({
        "surface.sdf_calls": (calls.get("surface.sdf_s", 0), "count"),
        "surface.sdf_pair_evals": (c.get("sdf_pair_evals", 0), "count"),
        "surface.sdf_bytes_computed": (c.get("sdf_bytes_computed", 0), "B"),
        "surface.in_band_frac": (rate(c.get("in_band", 0), c.get("candidates", 0)), "ratio"),
        "surface.scaling_gamma": (gamma, "1"),
        "equivariant.conv_calls": (calls.get("equivariant.conv_s", 0), "count"),
        "equivariant.coupling_s": (coupling_s, "s"),
        "autodiff.nodes_per_step": (rate(counts[0]["nodes"], steps), "count"),
        "autodiff.nodes_prepare": (rate(c.get("inversion.prepare_receptor_s.nodes", 0),
                                        calls.get("inversion.prepare_receptor_s", 0)), "count"),
        "finetune.pseudolabel_calls": (calls.get("finetune.pseudolabels_s", 0), "count"),
        "inversion.repair_calls": (calls.get("inversion.repair_s", 0), "count"),
        "inversion.objective_grad_calls": (c.get("objective_grad_calls", 0), "count"),
        "inversion.objective_nograd_calls": (c.get("objective_nograd_calls", 0), "count"),
        "inversion.steps_per_run": (rate(sum(s for s, _ in runs), len(runs)), "count"),
        "inversion.early_stop_frac": (rate(sum(e for _, e in runs), len(runs)), "ratio"),
        "trace.overhead_s": (statistics.mean(walls) - untraced_wall, "s"),
    })
    notes = {
        "workload": wl.name, "seed": args.seed, "blas_threads": BLAS_THREADS,
        "allocator_pinned": args.allocator_pinned, "traced_rounds": len(rounds),
        "untraced_round_s": untraced_wall, "traced_round_s": walls,
        "round0_digest": base.digest.hexdigest(), "failures": dict(base.failures),
        "counts_per_round": {"nodes": counts[0]["nodes"], **calls, **c},
        "problems": problems,
    }
    return problems, base.attempted, base.failed, metrics, notes


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    args.allocator_pinned = pin_allocator()
    if not (SRC / "dockinv" / "__init__.py").is_file():
        print(f"error: dockinv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t_start}))
        return 0
    if args.trace:
        import spans

        problems, attempted, failed, metrics, notes = per_layer(args, workloads, spans)
    else:
        problems, attempted, failed, metrics, notes = end_to_end(args, workloads, t_start)
    print(json.dumps({"notes": notes}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
