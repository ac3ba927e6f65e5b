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
import re
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import diagnostics
from .geometry import BBox, corners_array, encode_offsets_array, valid_boxes_array
# bound only because the benchmark tracer counts geometry.encode_offset calls through this name
from .geometry import encode_offset  # noqa: F401
from .losses import supcon_grad_arrays, supcon_loss_arrays
from .sampling import SamplerConfig, build_calibrated_set, philox_rng
# bound only because the benchmark tracer patches sample_proposals_for_gt through this name
from .sampling import sample_proposals_for_gt  # noqa: F401
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
_RECORD_KEYS = frozenset(_RECORD_FIELDS)
_INT64_MAX = 2**63 - 1  # gt_class is an int64 column
_FLOAT4 = (float,) * 4
# Logs are read with errors="surrogateescape", which maps a byte that is not
# valid UTF-8 to one of these code points, so the bad line can be named
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


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
    try:
        coords = [float(v) for v in value]
    except OverflowError:
        raise ValueError(f"{name} holds an integer beyond the float range") from None
    return BBox(*coords)


def _parse_gt_fields(doc: dict) -> tuple[str, BBox, int]:
    """Validated (image_id, gt, gt_class) of a log record or a ground-truth line."""
    if not isinstance(doc["image_id"], str):
        raise ValueError("image_id must be a string")
    gt_class = doc["gt_class"]
    if not isinstance(gt_class, int) or isinstance(gt_class, bool):
        raise ValueError("gt_class must be an integer")
    if gt_class < 0:
        raise ValueError(f"gt_class must be >= 0, got {gt_class}")
    if gt_class > _INT64_MAX:
        raise ValueError("gt_class holds an integer beyond the int64 range")
    return doc["image_id"], _parse_box(doc["gt"], "gt"), gt_class


def _parse_line(text: str, line_no: int, fields: tuple[str, ...], build):
    """``build(doc)`` for a JSONL line holding an object with ``fields``; failures are LogParseErrors."""
    if not text.isascii() and (bad := _ESCAPED_BYTE.search(text)):
        raise LogParseError(line_no, f"not valid UTF-8 (byte 0x{ord(bad.group()) - 0xdc00:02x})")
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
    except RecursionError:
        raise LogParseError(line_no, "malformed JSON (nested too deeply)") from None
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


@dataclass(frozen=True, eq=False)  # field-wise == is ambiguous on arrays
class ProposalColumns:
    """The records of a proposal log as columns, one row per record in line order."""

    image_id: list[str]
    gt: np.ndarray        # (n, 4) float64
    gt_class: np.ndarray  # (n,) int64
    proposal: np.ndarray  # (n, 4) float64
    source: list[str]
    line_no: np.ndarray   # (n,) int64, the 1-based line each row was read from

    def __len__(self) -> int:
        return len(self.image_id)


def _checked_boxes(coords: list[float], line_nos: list[int], texts: list[str],
                   lenient: bool, errors: list[tuple[int, str]]) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2, 4) gt/proposal boxes of the rows and the mask of rows whose boxes are valid.

    A row with a non-finite value or a size <= 0 is re-run through
    ``parse_record`` for its message: raised in strict mode, appended to
    ``errors`` as (line_no, message) in lenient mode.
    """
    boxes = np.array(coords, dtype=np.float64).reshape(-1, 2, 4)
    valid = valid_boxes_array(boxes).all(axis=1)
    for i in np.flatnonzero(~valid).tolist():
        try:
            parse_record(texts[i], line_nos[i])
        except LogParseError as e:
            if not lenient:
                raise
            errors.append((line_nos[i], str(e)))
    return boxes, valid


def parse_log(lines: Iterable[str], lenient: bool = False) -> tuple[ProposalColumns, list[str]]:
    """Parse a JSONL proposal log into columns.

    Each decoded line gets a cheap accept test: exactly the record fields, a
    string id with no escaped byte, an int64 class >= 0, a known source and
    two lists of four floats. A line that fails it goes through
    ``parse_record``, the one validator, which raises its message or returns
    the record (integer coordinates, say). Finite values and positive sizes are then checked on
    the arrays, and every row they refuse is re-run through ``parse_record``.
    So the columns and messages are those of parsing line by line: strict
    mode raises on the first bad line; lenient mode skips bad lines and
    returns their messages in line order. Blank lines are ignored in both
    modes.
    """
    line_nos: list[int] = []
    texts: list[str] = []  # kept for the messages of rows the array checks refuse
    image_id: list[str] = []
    gt_class: list[int] = []
    source: list[str] = []
    coords: list[float] = []  # gt then proposal, eight per row
    errors: list[tuple[int, str]] = []
    for line_no, line in enumerate(lines, start=1):
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError):
            doc = None
        if not (type(doc) is dict and doc.keys() == _RECORD_KEYS
                and type(iid := doc["image_id"]) is str and (iid.isascii() or not _ESCAPED_BYTE.search(iid))
                and type(cls := doc["gt_class"]) is int and 0 <= cls <= _INT64_MAX
                and (src := doc["source"]) in _SOURCES
                and type(gt := doc["gt"]) is list and tuple(map(type, gt)) == _FLOAT4
                and type(prop := doc["proposal"]) is list and tuple(map(type, prop)) == _FLOAT4):
            if not line.strip():
                continue
            try:
                rec = parse_record(line, line_no)
            except LogParseError as e:
                if not lenient:
                    _checked_boxes(coords, line_nos, texts, False, errors)  # raises an earlier bad line
                    raise
                errors.append((line_no, str(e)))
                continue
            iid, cls, src = rec.image_id, rec.gt_class, rec.source
            gt, prop = astuple(rec.gt), astuple(rec.proposal)
        line_nos.append(line_no)
        texts.append(line)
        image_id.append(iid)
        gt_class.append(cls)
        source.append(src)
        coords.extend(gt)
        coords.extend(prop)
    boxes, valid = _checked_boxes(coords, line_nos, texts, lenient, errors)
    if not valid.all():
        image_id = [v for v, ok in zip(image_id, valid.tolist()) if ok]
        source = [v for v, ok in zip(source, valid.tolist()) if ok]
    columns = ProposalColumns(
        image_id, boxes[valid, 0], np.array(gt_class, dtype=np.int64)[valid], boxes[valid, 1], source,
        np.array(line_nos, dtype=np.int64)[valid],
    )
    return columns, [message for _, message in sorted(errors)]


def _format_records(image_id: str, gt, gt_class: int, proposals, source: str) -> list[str]:
    """Canonical lines of the records that share one gt, one per proposal [cx, cy, w, h].

    Each line is what ``json.dumps`` writes for the record's fields in order.
    Coordinates must be Python ints or finite floats, which it writes as
    their ``repr``.
    """
    head = (f'{{"image_id": {json.dumps(image_id)}, "gt": [{", ".join(map(repr, gt))}], '
            f'"gt_class": {gt_class}, "proposal": [')
    tail = f'], "source": {json.dumps(source)}}}'
    return [head + ", ".join(map(repr, box)) + tail for box in proposals]


def serialize_record(rec: ProposalLogRecord) -> str:
    """Canonical single-line JSON form; parse/serialize is idempotent."""
    gt, prop = rec.gt, rec.proposal
    (line,) = _format_records(rec.image_id, (gt.cx, gt.cy, gt.w, gt.h), rec.gt_class,
                              [(prop.cx, prop.cy, prop.w, prop.h)], rec.source)
    return line


def _read_log(path: str, lenient: bool) -> ProposalColumns:
    """The records of a log; raises ValueError when it holds none."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        columns, errors = parse_log(fh, lenient=lenient)
    for msg in errors:
        print(f"{path}: skipped {msg}", file=sys.stderr)
    if errors:
        print(f"{path}: skipped {len(errors)} malformed lines", file=sys.stderr)
    if not len(columns):
        raise ValueError(f"{path} contains no records")
    return columns


def _log_offsets(cols: ProposalColumns) -> np.ndarray:
    """Offset of each proposal against its gt; raises ValueError naming the line of one that overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = encode_offsets_array(cols.proposal, cols.gt)
    finite = np.isfinite(offsets).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"line {cols.line_no[i]}: offset {offsets[i].tolist()} is not finite")
    return offsets


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + ("\n" if text else ""))


# Subcommand implementations. Each returns an exit code.

def _cmd_fit_stats(args) -> int:
    cols = _read_log(args.log, args.lenient)
    acc = OffsetAccumulator()
    acc.add_many(_log_offsets(cols))
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
    if image_size and not all(0 < v < np.inf for v in image_size):
        raise ValueError(f"--image-size must be two positive, finite numbers, got {args.image_size}")
    # the lines and the draws are freed before the text is written
    _write_or_print("\n".join(_sampled_lines(args.gts, config, image_size)), args.output)
    return 0


def _sampled_lines(path: str, config: SamplerConfig, image_size) -> list[str]:
    """The ``sample`` records of the gt lines of ``path``, in file order; every line is checked before any draw."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        records = [_parse_line(line, line_no, _GT_FIELDS, _parse_gt_fields)
                   for line_no, line in enumerate(fh, start=1) if line.strip()]
    boxes = np.array([gt.as_array() for _, gt, _ in records]).reshape(-1, 4)
    props = build_calibrated_set(boxes, config, image_size, [image_id for image_id, _, _ in records])
    props = props.reshape(len(records), config.j_per_instance, 4)
    return [line for (image_id, _, gt_class), gt, rows in zip(records, boxes.tolist(), props)
            for line in _format_records(image_id, gt, gt_class, rows.tolist(), "sampled")]


def _cmd_supcon_check(args) -> int:
    rng = philox_rng(args.seed)
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
        cols = _read_log(path, args.lenient)
        if args.raw_corners:
            sets.append(corners_array(cols.proposal))
        else:
            sets.append(_log_offsets(cols))
    if args.kernel == "linear":
        value = diagnostics.mmd_linear(sets[0], sets[1])
    else:
        value = diagnostics.mmd_rbf(sets[0], sets[1])
    print(repr(value))
    return 0


def _cmd_diagnose(args) -> int:
    cols = _read_log(args.log, args.lenient)
    report = diagnostics.offset_report(_log_offsets(cols))
    outdir = Path(args.figures)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, hist in zip(("dx", "dy", "dw", "dh"), report.histograms):
        (outdir / f"offset_{name}.csv").write_text(diagnostics.histogram_to_csv(hist))
        (outdir / f"offset_{name}.svg").write_text(
            diagnostics.histogram_to_svg(hist, f"offset {name}")
        )
    (outdir / "model.json").write_text(model_to_json(report.gaussian) + "\n")
    hist = diagnostics.iou_histogram(cols.proposal, cols.gt, diagnostics.IOU_EDGES)
    (outdir / "iou_hist.csv").write_text(diagnostics.histogram_to_csv(hist))
    (outdir / "iou_hist.svg").write_text(diagnostics.histogram_to_svg(hist, "proposal IoU"))
    print(f"wrote 11 files to {outdir}")
    return 0


def _cmd_simulate(args) -> int:
    from .simulator import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_json(Path(args.config).read_text())
    # a diverging head overflows in numpy before evaluate reports it as one error line
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_experiment(config, out_root=args.out)
    n = report.n_seeds
    print(f"config {report.config_hash}: {n} seeds")
    for metric, (b, p), wins in report.comparisons():
        print(f"{metric:<16}baseline={b:.4f} pdc={p:.4f} pdc_wins={wins}/{n}")
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
