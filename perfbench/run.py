"""propcal benchmark: one command for every end-to-end and per-layer metric.

Usage (from the repository root):

    python3 perfbench/run.py --workload experiment|log-read|log-write \
        --seed N --seconds S --trace 0|1

Inputs are generated from ``--seed`` during set-up, outside every timed
region. Each propcal operation runs in a fresh process (``child.py``) that
times its work after import, so import cost shows only in ``setup_s``.
Every operation's output is checked; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced units of the same work and reports the per-layer
metrics plus the tracing overhead. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

HARD_LIMIT_S = 165.0  # whole run, set-up included; leaves room under 180 s
SETUP_PROBES = 5
LOG_RECORDS = 100_000
RBF_RECORDS = 2_000
GT_RECORDS = 2_000
J_PER_GT = 50
SECONDS_PER_SIM_SEED = 3  # experiment: one simulator seed per 3 s of --seconds
DIAGNOSE_FILES = sorted(
    [f"offset_{d}.{ext}" for d in ("dx", "dy", "dw", "dh") for ext in ("csv", "svg")]
    + ["model.json", "iou_hist.csv", "iou_hist.svg"]
)
REPORT_FILES = sorted(
    ["config.json", "per_seed.csv", "summary.csv"]
    + [f"{stem}_{arm}.{ext}" for arm in ("baseline", "pdc")
       for stem, ext in (("iou_hist", "csv"), ("iou_hist", "svg"), ("precision_by_iou", "csv"))]
)
UNIFORM_KAPPA = 1.4863877  # optimal uniform half-width in units of sigma


# Per-layer metrics a traced run reports, each read from the summed layer
# totals of one unit of work (tracing.Tracer.totals).
LAYER_METRICS = {
    "simulator.generate_dataset.s": "s",
    "simulator.base_train.s": "s",
    "simulator.finetune_baseline.s": "s",
    "simulator.finetune_pdc.s": "s",
    "simulator.evaluate.s": "s",
    "simulator.rpn_proposals.calls": "count",
    "simulator.rpn_proposals.s": "s",
    "simulator.sampled_proposals.s": "s",
    "simulator.feature_rows": "count",
    "losses.supcon.calls": "count",
    "losses.supcon.s": "s",
    "losses.supcon.anchors": "count",
    "sampling.sample_boxes_for_gt.calls": "count",
    "sampling.sample_boxes_for_gt.s": "s",
    "sampling.rows_drawn": "count",
    "sampling.accept_ratio": "ratio",
    "sampling.sample_proposals_for_gt.s": "s",
    "stats.add_many.rows": "count",
    "stats.add_many.s": "s",
    "stats.fit_optimal_uniform.s": "s",
    "diagnostics.mmd_rbf.calls": "count",
    "diagnostics.mmd_rbf.s": "s",
    "diagnostics.mmd_rbf.pooled_n": "count",
    "diagnostics.mmd_rbf.peak_mb": "MB",
    "diagnostics.median_heuristic_bandwidth.s": "s",
    "diagnostics.offset_report.s": "s",
    "diagnostics.iou_histogram.s": "s",
    "diagnostics.mmd_linear.s": "s",
    "cli.parse_log.records": "count",
    "cli.parse_log.s": "s",
    "cli.parse_log.errors": "count",
    "cli.serialize_record.records": "count",
    "cli.serialize_record.s": "s",
    "geometry.encode_offset.calls": "count",
    "geometry.iou.calls": "count",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


@dataclass
class Unit:
    """What one unit of a workload's work produced."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0                          # failed by a crash or a wrong output
    run_s: float = 0.0                      # summed in-process run time
    rss_mb: float = 0.0                     # largest process peak RSS
    items: int = 0                          # work items completed and checked
    item_s: float = 0.0                     # run time of the operations that did them
    rates: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)  # per operation: run_s, cpu_s, rss_mb
    totals: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def done(self, rate_name: str, items: int, run_s: float) -> None:
        """Count a checked operation's items towards the unit's throughput."""
        self.items += items
        self.item_s += run_s
        self.rates[rate_name] = items / run_s

    def fail(self, what: str, wrong: bool = True) -> None:
        """Count a failed operation; ``wrong=False`` marks a clean refusal."""
        self.failed += 1
        self.wrong += wrong
        self.notes.append(("FAILED " if wrong else "REFUSED ") + what)


class Runner:
    """Starts child processes inside the run's work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def child(self, unit: Unit, what: str, spec: dict) -> tuple[dict | None, str]:
        """Run one child; returns (result or None on failure, its stdout)."""
        self.count += 1
        spec = {"src": str(SRC), **spec}
        spec_path = self.work / f"spec{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(self.deadline - time.monotonic(), 1.0)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                cwd=self.work, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            unit.fail(f"{what}: timed out")
            return None, ""
        crashed = "Traceback (most recent call last)" in proc.stderr
        if proc.returncode != 0 or crashed:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            unit.fail(f"{what}: exit {proc.returncode}: {tail[0]}", wrong=crashed)
            return None, proc.stdout
        if not result_path.exists():
            unit.fail(f"{what}: no result written")
            return None, proc.stdout
        result = json.loads(result_path.read_text())
        unit.run_s += result["run_s"]
        unit.ops[what] = {"run_s": result["run_s"], "cpu_s": result["cpu_s"], "rss_mb": result["maxrss_mb"]}
        unit.rss_mb = max(unit.rss_mb, result["maxrss_mb"])
        for key, value in result.get("totals", {}).items():
            if key.endswith("peak_mb"):
                unit.totals[key] = max(unit.totals.get(key, 0.0), value)
            else:
                unit.totals[key] = unit.totals.get(key, 0) + value
        if "spans" in result:
            unit.spans.append({"process": self.count, "op": spec.get("op", ""), "rows": result["spans"]})
        return result, proc.stdout

    def import_time(self, unit: Unit) -> float | None:
        result, _ = self.child(unit, "import", {"kind": "import", "trace": False})
        return None if result is None else result["import_s"]


# Output checks. A missing or malformed output fails its check; it never
# stops the benchmark.

def _close(got, want, rtol: float = 1e-9) -> bool:
    try:
        got = np.asarray(got, dtype=np.float64)
    except (TypeError, ValueError):
        return False
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


def _read_json(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


def _printed_float(out: str) -> float:
    try:
        return float(out.split()[-1])
    except (IndexError, ValueError):
        return math.nan


def _gaussian_matches(path: Path, mu: np.ndarray, var: np.ndarray) -> bool:
    doc = _read_json(path)
    return doc.get("kind") == "gaussian" and _close(doc.get("mu"), mu) and _close(doc.get("var"), var)


def _uniform_matches(path: Path, mu: np.ndarray, var: np.ndarray) -> bool:
    """lo/hi must be mu -+ UNIFORM_KAPPA sigma; the fit's search tolerance is 1e-6 sigma."""
    doc = _read_json(path)
    try:
        lo, hi = (np.asarray(doc[k], dtype=np.float64).reshape(4) for k in ("lo", "hi"))
    except (KeyError, TypeError, ValueError):
        return False
    half_width = (hi - lo) / 2 / np.sqrt(var)
    return (doc.get("kind") == "uniform" and _close((lo + hi) / 2, mu)
            and _close(half_width, np.full(4, UNIFORM_KAPPA), 1e-5))


# Workloads. Each prepares its inputs once, then runs units of identical work.

class Experiment:
    """The paper's two-arm experiment, one run_experiment call per simulator seed."""

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seeds = gen.experiment_seeds(seed, max(1, seconds // SECONDS_PER_SIM_SEED))
        self.inputs = {"sim_seeds": self.seeds, "config": "ExperimentConfig() defaults"}

    def unit(self, runner: Runner, trace: bool, rep: int) -> Unit:
        u = Unit(attempted=len(self.seeds))
        out = runner.work / f"reports{rep}"
        result, _ = runner.child(u, "experiment", {
            "kind": "experiment", "trace": trace, "op": "experiment",
            "seeds": self.seeds, "out": str(out),
        })
        if result is None:
            u.failed = len(self.seeds)
            return u
        digest = hashlib.sha256()
        for s in result["seeds"]:
            label = f"experiment seed {s['seed']}"
            u.ops[label] = {"run_s": s["run_s"]}
            if "error" in s:
                u.fail(f"{label}: {s['error']}", wrong=False)
                continue
            outdir = Path(s["dir"])
            files = sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else []
            if files != REPORT_FILES:
                u.fail(f"{label}: report files {files}")
                continue
            if not all(math.isfinite(v) for v in s["aggregates"]) or "nan" in (outdir / "summary.csv").read_text():
                u.fail(f"{label}: NaN aggregate")
                continue
            for name in files:
                digest.update(f"{s['seed']}/{name}\0".encode() + (outdir / name).read_bytes())
        done = [s["run_s"] for s in result["seeds"] if "error" not in s]
        if done:  # refused seeds are counted as failed, not as throughput
            u.done("seeds_per_s", len(done), sum(done))
        u.notes.append(f"experiment report digest {digest.hexdigest()}")
        shutil.rmtree(out, ignore_errors=True)
        return u


class LogRead:
    """fit-stats, fit-uniform, mmd (linear, rbf) and diagnose on generated logs."""

    def __init__(self, seed: int, seconds: int, work: Path):
        log_a = gen.proposal_log(seed, LOG_RECORDS, "a")
        log_b = gen.proposal_log(seed, LOG_RECORDS, "b", shift=gen.LOG_B_SHIFT)
        self.paths = {name: work / f"{name}.jsonl" for name in ("log_a", "log_b", "head_a", "head_b")}
        log_a.write(self.paths["log_a"])
        log_b.write(self.paths["log_b"])
        log_a.write(self.paths["head_a"], RBF_RECORDS)
        log_b.write(self.paths["head_b"], RBF_RECORDS)
        off_a, off_b = log_a.offsets(), log_b.offsets()
        self.mu = off_a.mean(axis=0)
        self.var = ((off_a - self.mu) ** 2).mean(axis=0)  # two-pass reference fit
        self.mmd_linear = float(np.linalg.norm(self.mu - off_b.mean(axis=0)))
        self.inputs = {"log_a_records": LOG_RECORDS, "log_b_records": LOG_RECORDS,
                       "rbf_records_each": RBF_RECORDS}

    def unit(self, runner: Runner, trace: bool, rep: int) -> Unit:
        u = Unit(attempted=5)
        p = {k: str(v) for k, v in self.paths.items()}
        rdir = runner.work / f"read{rep}"
        rdir.mkdir()
        model, uniform, figures = rdir / "model.json", rdir / "uniform.json", rdir / "figures"

        def cli(what: str, argv: list[str]):
            return runner.child(u, what, {"kind": "cli", "trace": trace, "op": what, "argv": argv})

        r, _ = cli("fit-stats", ["fit-stats", p["log_a"], "-o", str(model)])
        if r is not None:
            if _gaussian_matches(model, self.mu, self.var):
                u.done("fit_stats_records_per_s", LOG_RECORDS, r["run_s"])
            else:
                u.fail("fit-stats: mu/var differ from the two-pass fit")

        r, _ = cli("fit-uniform", ["fit-uniform", str(model), "-o", str(uniform)])
        if r is not None and not _uniform_matches(uniform, self.mu, self.var):
            u.fail(f"fit-uniform: {_read_json(uniform)} is not mu +- {UNIFORM_KAPPA} sigma")

        r, out = cli("mmd-linear", ["mmd", p["log_a"], p["log_b"], "--kernel", "linear"])
        if r is not None:
            if _close(_printed_float(out), self.mmd_linear):
                u.done("mmd_linear_records_per_s", 2 * LOG_RECORDS, r["run_s"])
            else:
                u.fail(f"mmd linear: {out.strip()} != {self.mmd_linear!r}")

        r, out = cli("mmd-rbf", ["mmd", p["head_a"], p["head_b"], "--kernel", "rbf"])
        if r is not None:
            value = _printed_float(out)
            if math.isfinite(value) and value >= 0.0:
                u.done("mmd_rbf_records_per_s", 2 * RBF_RECORDS, r["run_s"])
            else:
                u.fail(f"mmd rbf: {value!r} is not a finite non-negative number")

        r, _ = cli("diagnose", ["diagnose", p["log_a"], "--figures", str(figures)])
        if r is not None:
            files = sorted(x.name for x in figures.iterdir()) if figures.is_dir() else []
            if files != DIAGNOSE_FILES:
                u.fail(f"diagnose: wrote {files}")
            elif not _gaussian_matches(figures / "model.json", self.mu, self.var):
                u.fail("diagnose: model.json differs from the two-pass fit")
            else:
                u.done("diagnose_records_per_s", LOG_RECORDS, r["run_s"])
        shutil.rmtree(rdir, ignore_errors=True)
        return u


class LogWrite:
    """propcal sample -J 50 with --image-size on generated ground truths."""

    def __init__(self, seed: int, seconds: int, work: Path):
        self.gts = work / "gts.jsonl"
        self.gts.write_text("\n".join(gen.ground_truths(seed, GT_RECORDS)) + "\n")
        self.model = work / "sample_model.json"
        self.model.write_text(json.dumps(gen.SAMPLE_MODEL))
        self.sample_seed = int(gen.rng_for(seed, "sample-seed").integers(2**31))
        self.inputs = {"gt_records": GT_RECORDS, "j_per_gt": J_PER_GT, "border_share": gen.BORDER_SHARE,
                       "image_size": [gen.IMAGE_W, gen.IMAGE_H], "sample_seed": self.sample_seed}
        sys.path.insert(0, str(SRC))
        from propcal.cli import LogParseError, parse_record

        self.parse_record, self.parse_error = parse_record, LogParseError
        self.passed: set[str] = set()  # digests of outputs that passed the full check

    def check(self, text: str) -> str | None:
        """The first problem with a sampled log, or None."""
        lines = text.splitlines()
        if len(lines) != GT_RECORDS * J_PER_GT:
            return f"{len(lines)} lines, expected {GT_RECORDS * J_PER_GT}"
        tol = 1e-9 * max(gen.IMAGE_W, gen.IMAGE_H)
        for line_no, line in enumerate(lines, start=1):
            try:
                x1, y1, x2, y2 = self.parse_record(line, line_no).proposal.corners()
            except self.parse_error as e:
                return f"unparsable output: {e}"
            if x1 < -tol or y1 < -tol or x2 > gen.IMAGE_W + tol or y2 > gen.IMAGE_H + tol:
                return f"line {line_no}: box outside the image"
        return None

    def unit(self, runner: Runner, trace: bool, rep: int) -> Unit:
        u = Unit(attempted=1)
        out = runner.work / f"sampled{rep}.jsonl"
        argv = ["sample", str(self.gts), "--model", str(self.model), "-J", str(J_PER_GT),
                "--seed", str(self.sample_seed), "--image-size", str(gen.IMAGE_W), str(gen.IMAGE_H),
                "-o", str(out)]
        r, _ = runner.child(u, "sample", {"kind": "cli", "trace": trace, "op": "sample", "argv": argv})
        if r is None:
            return u
        try:
            text = out.read_text(encoding="utf-8")
        except OSError:
            text = ""
        out.unlink(missing_ok=True)
        # every unit samples the same inputs with the same seed, so an output
        # byte-identical to one that passed needs no second parse
        digest = hashlib.sha256(text.encode()).hexdigest()
        problem = None if digest in self.passed else self.check(text)
        if problem:
            u.fail("sample: " + problem)
            return u
        self.passed.add(digest)
        u.done("sample_proposals_per_s", GT_RECORDS * J_PER_GT, r["run_s"])
        return u


WORKLOADS = {"experiment": Experiment, "log-read": LogRead, "log-write": LogWrite}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded by numpy, read through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, inputs: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "inputs": inputs,
    }


def measure(workload, runner: Runner, trace: bool, seconds: float) -> list[tuple[Unit, Unit | None]]:
    """Repeat units of work for about ``seconds``; at least one.

    The loop stops at the unit boundary nearest to ``seconds``: it starts
    another unit only if that unit, as long as the last one, would end less
    than half a unit past the target. Untraced runs give ``(unit, None)``
    pairs; traced runs give ``(untraced, traced)`` pairs of the same work.
    """
    pairs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain = workload.unit(runner, False, 2 * len(pairs))
        traced = workload.unit(runner, True, 2 * len(pairs) + 1) if trace else None
        pairs.append((plain, traced))
        now = time.monotonic()
        last = now - t0
        if now + last / 2 > start + seconds or now + last > runner.deadline:
            return pairs


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(pairs) -> dict[str, float]:
    """Median over traced units of each layer total, plus the tracing overhead."""
    traced = [t for _, t in pairs]

    def med(key: str) -> float:
        return _median([t.totals.get(key, 0) for t in traced])

    values = {k: med(k) for k in LAYER_METRICS}
    values["cli.serialize_record.records"] = med("cli.serialize_record.calls")
    drawn = values["sampling.rows_drawn"]
    values["sampling.accept_ratio"] = med("sampling.rows_requested") / drawn if drawn else 0.0
    plain_s = _median([p.run_s for p, _ in pairs])
    traced_s = _median([t.run_s for t in traced])
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s if plain_s else 0.0
    return values


def run(args) -> dict:
    if not (SRC / "propcal" / "__init__.py").is_file():
        raise BenchError(f"no propcal sources under {SRC}")
    t_start = time.monotonic()
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, work)
        env = environment(args, workload.inputs)
        print("env " + json.dumps(env), flush=True)
        runner = Runner(work, t_start + HARD_LIMIT_S)
        probes = Unit()
        setup = []
        if not args.trace:
            runner.import_time(Unit())  # warm-up: fills the bytecode cache, not counted
            for _ in range(SETUP_PROBES):
                probes.attempted += 1
                t = runner.import_time(probes)
                if t is not None:
                    setup.append(t)
        pairs = measure(workload, runner, bool(args.trace), args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = [probes] + [u for pair in pairs for u in pair if u is not None]
    for u in units:
        for note in u.notes:
            print(note)
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in layer_metrics(pairs).items()}
    else:
        plain = [p for p, _ in pairs]
        for name in sorted({k for u in plain for k in u.rates}):
            print(f"rate {name} {_median([u.rates[name] for u in plain if name in u.rates])!r} 1/s")
        metrics = {"items_per_s": {"value": _median([u.items / u.item_s for u in plain if u.items]), "unit": "1/s"}}
        metrics["setup_s"] = {"value": _median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": _median([u.rss_mb for u in plain]), "unit": "MB"}
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    wrong = sum(u.wrong for u in units)
    record = {
        "env": env,
        "units": [{"run_s": u.run_s, "rss_mb": u.rss_mb, "rates": u.rates, "ops": u.ops, "notes": u.notes}
                  for u in units],
        "metrics": metrics,
    }
    if args.trace:
        first = next(t for _, t in pairs)
        record["span_fields"] = list(tracing.SPAN_FIELDS)
        record["spans"] = first.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    print(f"details written to {OUT / name}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
