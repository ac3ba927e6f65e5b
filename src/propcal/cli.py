"""Command-line front end and the proposal-log file format.

Proposal logs are JSONL, one record per line::

    {"image_id": "im0", "gt": [cx, cy, w, h], "gt_class": 3,
     "proposal": [cx, cy, w, h], "source": "rpn"}

Parsing attaches line numbers to every failure; re-serializing a parsed
record reproduces the canonical form byte for byte (fixed field order,
shortest-round-trip floats). Subcommands cover the whole pipeline: fitting
offset statistics, fitting the optimal uniform alternative, sampling
calibrated proposals, a gradient self-check, MMD between two logs,
distribution diagnostics, and the synthetic experiment.

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import diagnostics
from .geometry import BBox, corners_array, encode_offsets_array
# bound only because the benchmark tracer counts geometry.encode_offset calls through this name
from .geometry import encode_offset  # noqa: F401
from .losses import supcon_grad_arrays, supcon_loss_arrays
from .sampling import SamplerConfig, sample_proposals_for_gt
from .stats import (
    DiagonalGaussian4,
    OffsetAccumulator,
    fit_optimal_uniform,
    model_from_json,
    model_to_json,
)

_SOURCES = ("rpn", "sampled")
_GT_FIELDS = ("image_id", "gt", "gt_class")
_RECORD_FIELDS = _GT_FIELDS + ("proposal", "source")


class LogParseError(ValueError):
    """A malformed proposal-log line, tagged with its 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ProposalLogRecord:
    image_id: str
    gt: BBox
    gt_class: int
    proposal: BBox
    source: str

    def __post_init__(self):
        if self.gt_class < 0:
            raise ValueError(f"gt_class must be >= 0, got {self.gt_class}")
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}, got {self.source!r}")


def _parse_box(value, name: str) -> BBox:
    if not isinstance(value, list) or len(value) != 4:
        raise ValueError(f"{name} must be a 4-element array [cx, cy, w, h]")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ValueError(f"{name} must contain numbers only")
    return BBox(*(float(v) for v in value))


def _parse_gt_fields(doc: dict) -> tuple[str, BBox, int]:
    """Validated (image_id, gt, gt_class) of a log record or a ground-truth line."""
    if not isinstance(doc["image_id"], str):
        raise ValueError("image_id must be a string")
    gt_class = doc["gt_class"]
    if not isinstance(gt_class, int) or isinstance(gt_class, bool):
        raise ValueError("gt_class must be an integer")
    if gt_class < 0:
        raise ValueError(f"gt_class must be >= 0, got {gt_class}")
    return doc["image_id"], _parse_box(doc["gt"], "gt"), gt_class


def _parse_line(text: str, line_no: int, fields: tuple[str, ...], build):
    """``build(doc)`` for a JSONL line holding an object with ``fields``; failures are LogParseErrors."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("record must be a JSON object")
        missing = [f for f in fields if f not in doc]
        if missing:
            raise ValueError(f"missing fields: {', '.join(missing)}")
        return build(doc)
    except json.JSONDecodeError as e:
        raise LogParseError(line_no, f"malformed JSON ({e.msg})") from None
    except ValueError as e:
        raise LogParseError(line_no, str(e)) from None


def _build_record(doc: dict) -> ProposalLogRecord:
    extra = sorted(set(doc) - set(_RECORD_FIELDS))
    if extra:
        raise ValueError(f"unknown fields: {', '.join(extra)}")
    return ProposalLogRecord(
        *_parse_gt_fields(doc), _parse_box(doc["proposal"], "proposal"), doc["source"]
    )


def parse_record(text: str, line_no: int = 1) -> ProposalLogRecord:
    return _parse_line(text, line_no, _RECORD_FIELDS, _build_record)


def parse_log(lines: Iterable[str], lenient: bool = False) -> tuple[list[ProposalLogRecord], list[str]]:
    """Parse a JSONL proposal log.

    Strict mode raises on the first bad line; lenient mode skips bad lines
    and returns their error messages alongside the good records. Blank
    lines are ignored in both modes.
    """
    records: list[ProposalLogRecord] = []
    errors: list[str] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(parse_record(line, line_no))
        except LogParseError as e:
            if not lenient:
                raise
            errors.append(str(e))
    return records, errors


def serialize_record(rec: ProposalLogRecord) -> str:
    """Canonical single-line JSON form; parse/serialize is idempotent."""
    doc = {
        "image_id": rec.image_id,
        "gt": [rec.gt.cx, rec.gt.cy, rec.gt.w, rec.gt.h],
        "gt_class": rec.gt_class,
        "proposal": [rec.proposal.cx, rec.proposal.cy, rec.proposal.w, rec.proposal.h],
        "source": rec.source,
    }
    return json.dumps(doc)


def _read_log(path: str, lenient: bool) -> list[ProposalLogRecord]:
    """The records of a log; raises ValueError when it holds none."""
    with open(path, encoding="utf-8") as fh:
        records, errors = parse_log(fh, lenient=lenient)
    for msg in errors:
        print(f"{path}: skipped {msg}", file=sys.stderr)
    if errors:
        print(f"{path}: skipped {len(errors)} malformed lines", file=sys.stderr)
    if not records:
        raise ValueError(f"{path} contains no records")
    return records


def _record_boxes(records: list[ProposalLogRecord]) -> tuple[np.ndarray, np.ndarray]:
    """(proposals, gts) of the records as (n, 4) arrays."""
    props = np.array([(r.proposal.cx, r.proposal.cy, r.proposal.w, r.proposal.h) for r in records])
    gts = np.array([(r.gt.cx, r.gt.cy, r.gt.w, r.gt.h) for r in records])
    return props.reshape(-1, 4), gts.reshape(-1, 4)


def _log_offsets(props: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Offset of each proposal against its gt; raises ValueError if one overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = encode_offsets_array(props, gts)
    finite = np.isfinite(offsets).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"record {i + 1}: offset {offsets[i].tolist()} is not finite")
    return offsets


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + ("\n" if text else ""))


# Subcommand implementations. Each returns an exit code.

def _cmd_fit_stats(args) -> int:
    acc = OffsetAccumulator()
    acc.add_many(_log_offsets(*_record_boxes(_read_log(args.log, args.lenient))))
    _write_or_print(model_to_json(acc.finalize()), args.output)
    return 0


def _cmd_fit_uniform(args) -> int:
    model = model_from_json(Path(args.model).read_text())
    if not isinstance(model, DiagonalGaussian4):
        print("error: fit-uniform requires a gaussian model", file=sys.stderr)
        return 1
    _write_or_print(model_to_json(fit_optimal_uniform(model)), args.output)
    return 0


def _cmd_sample(args) -> int:
    model = model_from_json(Path(args.model).read_text())
    config = SamplerConfig(model=model, j_per_instance=args.j, seed=args.seed)
    image_size = tuple(args.image_size) if args.image_size else None
    lines = []
    gt_index: dict[str, int] = {}
    with open(args.gts, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            image_id, gt, gt_class = _parse_line(line, line_no, _GT_FIELDS, _parse_gt_fields)
            idx = gt_index.get(image_id, 0)
            gt_index[image_id] = idx + 1
            for prop in sample_proposals_for_gt(
                gt, gt_class, config, image_size, gt_index=idx, image_id=image_id
            ):
                lines.append(
                    serialize_record(
                        ProposalLogRecord(image_id, gt, gt_class, prop.box, "sampled")
                    )
                )
    _write_or_print("\n".join(lines), args.output)
    return 0


def _cmd_supcon_check(args) -> int:
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    worst = 0.0
    for _ in range(5):
        z = rng.normal(size=(12, 8))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=12)
        analytic = supcon_grad_arrays(z, labels, 0.2)
        fd = np.zeros_like(z)
        eps = 1e-5
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += eps
                zm[i, j] -= eps
                fd[i, j] = (
                    supcon_loss_arrays(zp, labels, 0.2) - supcon_loss_arrays(zm, labels, 0.2)
                ) / (2 * eps)
        denom = max(float(np.linalg.norm(fd)), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - fd)) / denom)
    print(f"max relative error: {worst:.3e}")
    return 0 if worst <= 1e-5 else 1


def _cmd_mmd(args) -> int:
    sets = []
    for path in (args.log_a, args.log_b):
        records = _read_log(path, args.lenient)
        props, gts = _record_boxes(records)
        sets.append(corners_array(props) if args.raw_corners else _log_offsets(props, gts))
    if args.kernel == "linear":
        value = diagnostics.mmd_linear(sets[0], sets[1])
    else:
        value = diagnostics.mmd_rbf(sets[0], sets[1])
    print(repr(value))
    return 0


def _cmd_diagnose(args) -> int:
    props, gts = _record_boxes(_read_log(args.log, args.lenient))
    report = diagnostics.offset_report(_log_offsets(props, gts))
    outdir = Path(args.figures)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, hist in zip(("dx", "dy", "dw", "dh"), report.histograms):
        (outdir / f"offset_{name}.csv").write_text(diagnostics.histogram_to_csv(hist))
        (outdir / f"offset_{name}.svg").write_text(
            diagnostics.histogram_to_svg(hist, f"offset {name}")
        )
    (outdir / "model.json").write_text(model_to_json(report.gaussian) + "\n")
    hist = diagnostics.iou_histogram(props, gts, np.linspace(0, 1, 11))
    (outdir / "iou_hist.csv").write_text(diagnostics.histogram_to_csv(hist))
    (outdir / "iou_hist.svg").write_text(diagnostics.histogram_to_svg(hist, "proposal IoU"))
    print(f"wrote 11 files to {outdir}")
    return 0


def _cmd_simulate(args) -> int:
    from .simulator import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_json(Path(args.config).read_text())
    report = run_experiment(config, out_root=args.out)
    n = report.n_seeds
    print(f"config {report.config_hash}: {n} seeds")
    print(
        f"mean_iou        baseline={report.mean_iou[0]:.4f} pdc={report.mean_iou[1]:.4f} "
        f"pdc_wins={report.iou_wins}/{n}"
    )
    print(
        f"novel_accuracy  baseline={report.mean_novel_acc[0]:.4f} pdc={report.mean_novel_acc[1]:.4f} "
        f"pdc_wins={report.acc_wins}/{n}"
    )
    print(
        f"mmd_novel       baseline={report.mean_mmd[0]:.4f} pdc={report.mean_mmd[1]:.4f} "
        f"pdc_wins={report.mmd_wins}/{n}"
    )
    print(f"reports: {report.output_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propcal",
        description="Proposal distribution calibration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-stats", help="fit Gaussian offset statistics from a proposal log")
    p.add_argument("log")
    p.add_argument("-o", "--output", default=None, help="model JSON path (default: stdout)")
    p.add_argument("--lenient", action="store_true", help="skip malformed lines")
    p.set_defaults(func=_cmd_fit_stats)

    p = sub.add_parser("fit-uniform", help="fit the max-overlap uniform to a Gaussian model")
    p.add_argument("model")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_fit_uniform)

    p = sub.add_parser("sample", help="sample calibrated proposals for ground truths")
    p.add_argument("gts", help="JSONL of {image_id, gt, gt_class}")
    p.add_argument("--model", required=True, help="offset model JSON")
    p.add_argument("-J", "--j", type=int, default=50, help="proposals per instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", type=float, nargs=2, metavar=("W", "H"), default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("supcon-check", help="check contrastive gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_supcon_check)

    p = sub.add_parser("mmd", help="maximum mean discrepancy between two proposal logs")
    p.add_argument("log_a")
    p.add_argument("log_b")
    p.add_argument("--kernel", choices=("linear", "rbf"), default="linear")
    p.add_argument("--raw-corners", action="store_true",
                   help="compare corner coordinates instead of encoded offsets")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=_cmd_mmd)

    p = sub.add_parser("diagnose", help="offset and IoU distribution reports for a log")
    p.add_argument("log")
    p.add_argument("--figures", required=True, help="output directory")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("simulate", help="run the synthetic baseline-vs-calibrated experiment")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out", default="propcal-reports", help="report root directory")
    p.set_defaults(func=_cmd_simulate)

    return parser


def dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse handles usage errors and --help
        return int(e.code or 0)
    try:
        return int(args.func(args))
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
