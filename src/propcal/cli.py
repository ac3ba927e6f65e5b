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
import contextlib
import io
import json
import math
import os
import re
import stat
import sys
from array import array
from collections import deque
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import diagnostics
from .geometry import BBox, _is_integer, corners_array, encode_offsets_array, four_floats, valid_boxes_array
# bound only because the benchmark tracer counts geometry.encode_offset calls through this name
from .geometry import encode_offset  # noqa: F401
from .losses import supcon_grad_arrays, supcon_loss_arrays
from .sampling import SamplerConfig, build_calibrated_set, philox_rng
# bound only because the benchmark tracer patches sample_proposals_for_gt through this name
from .sampling import sample_proposals_for_gt  # noqa: F401
from .stats import fit_gaussian, fit_optimal_uniform, model_from_json, model_to_json

_SOURCES = ("rpn", "sampled")
_GT_FIELDS = ("image_id", "gt", "gt_class")
_RECORD_FIELDS = _GT_FIELDS + ("proposal", "source")
_INT64_MAX = 2**63 - 1  # gt_class is an int64 column
# Logs are read with errors="surrogateescape", which maps a byte that is not
# valid UTF-8 to one of these code points, so the bad line can be named
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# The canonical line serialize_record writes: a printable-ASCII id with no escape, eight JSON numbers that
# json reads as floats, a class of at most 18 digits (so int64); parse_record reads it to the same values.
# No nested optional group, which re runs through its slow generic repeat: a fraction or a lookahead for the
# exponent, then the exponent or nothing.
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+|(?=[eE]))(?:[eE][-+]?[0-9]+|))"
_BOX = r"\[" + ", ".join([_FLOAT] * 4) + r"\]"
_CANONICAL_RECORD = re.compile(
    r'\{"image_id": "[ !#-\[\]-~]*", "gt": ' + _BOX + r', "gt_class": (0|[1-9][0-9]{0,17}), '
    r'"proposal": ' + _BOX + r', "source": "(?:rpn|sampled)"\}\n?')
_RANGE_BYTES = 4 << 20  # a log is split into ranges of at least this size, one per CPU
_BLOCK_BYTES = 1 << 20  # a range is decoded in blocks of about this size
_CHUNK_LINES = 2048  # sample formats its output in chunks of this many lines, about 0.4 MB of text
_worker_fn = None  # in a worker of _ordered_map, the function it maps; None in every other process


class LogParseError(ValueError):
    """A malformed proposal-log line, tagged with its 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

    def __reduce__(self):  # the default rebuilds from args, which hold only the formatted text
        return type(self), (self.line_no, self.message)


@dataclass(frozen=True)
class ProposalLogRecord:
    image_id: str
    gt: BBox
    gt_class: int
    proposal: BBox
    source: str

    def __post_init__(self):
        _check_id_and_class(self.image_id, self.gt_class)
        object.__setattr__(self, "gt_class", int(self.gt_class))  # a numpy integer prints as its digits
        for name in ("gt", "proposal"):
            if not isinstance(box := getattr(self, name), BBox):
                raise ValueError(f"{name} must be a BBox, got {type(box).__name__}")
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}, got {self.source!r}")


def _parse_box(value, name: str) -> BBox:
    coords = four_floats(value, name)
    try:
        return BBox(*coords)
    except ValueError as e:  # a refused box names its field
        raise ValueError(f"{name}: {e}") from None


def _check_id_and_class(image_id, gt_class) -> None:
    """The image_id and gt_class rules of parsed and built records alike, so a record's line always parses."""
    if not isinstance(image_id, str):
        raise ValueError("image_id must be a string")
    if not _is_integer(gt_class):
        raise ValueError("gt_class must be an integer")
    if gt_class < 0:
        raise ValueError(f"gt_class must be >= 0, got {gt_class}")
    if gt_class > _INT64_MAX:
        raise ValueError("gt_class holds an integer beyond the int64 range")


def _parse_gt_fields(doc: dict) -> tuple[str, BBox, int]:
    """Validated (image_id, gt, gt_class) of a log record or a ground-truth line."""
    _check_id_and_class(doc["image_id"], doc["gt_class"])
    return doc["image_id"], _parse_box(doc["gt"], "gt"), doc["gt_class"]


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

    gt: np.ndarray        # (n, 4) float64
    gt_class: np.ndarray  # (n,) int64
    proposal: np.ndarray  # (n, 4) float64
    line_no: np.ndarray   # (n,) int64, the 1-based line each row was read from

    def __len__(self) -> int:
        return len(self.line_no)


def parse_log(lines: Iterable[str], lenient: bool = False) -> tuple[ProposalColumns, list[str]]:
    """Parse a JSONL proposal log into columns.

    Every field of a line is checked, but only gt, gt_class, proposal and
    the line number are kept; image ids and sources are not. A line in the
    canonical form ``serialize_record`` writes is read from the
    ``_CANONICAL_RECORD`` match groups, its coordinates into an
    ``array("d")``. Any other non-blank line goes through ``parse_record``,
    the one validator, which raises its message or returns the record
    (integer coordinates or another key order, say). Finite values and
    positive sizes are then checked on the arrays, and a row they refuse
    gets the message ``parse_record`` gives its boxes, from the row's own
    values. So the columns and messages are those of parsing line by line:
    strict mode raises on the first bad line, reading no further than a line
    ``parse_record`` refuses, but past a canonical line whose box the array
    check refuses; lenient mode skips bad lines and returns their messages
    in line order. Blank lines are ignored in both modes. No line's text is
    kept past its own step.
    """
    return _merge_parts([_parse_lines(lines, lenient)], lenient)


def _parse_lines(lines: Iterable[str], lenient: bool) -> tuple[ProposalColumns, list[LogParseError], int]:
    """``parse_log``'s columns, its errors in line order and the number of lines read; raises no LogParseError.

    In strict mode the errors end at the first line ``parse_record`` refuses,
    and the line count is that line's number.
    """
    line_no = 0
    line_nos: list[int] = []
    gt_class: list[int] = []
    coords = array("d")  # gt then proposal, eight per row
    errors: list[LogParseError] = []
    canonical = _CANONICAL_RECORD.fullmatch
    for line_no, line in enumerate(lines, start=1):
        if m := canonical(line):
            gx, gy, gw, gh, cls, px, py, pw, ph = m.groups()
            coords.fromlist([float(gx), float(gy), float(gw), float(gh),
                             float(px), float(py), float(pw), float(ph)])
        elif not line.strip():
            continue
        else:
            try:
                rec = parse_record(line, line_no)
            except LogParseError as e:
                e.__traceback__ = e.__context__ = None  # their frames hold the line's text
                errors.append(e)
                if not lenient:
                    break  # no later line can be the first bad one
                continue
            cls = rec.gt_class
            coords.extend(astuple(rec.gt) + astuple(rec.proposal))
        line_nos.append(line_no)
        gt_class.append(int(cls))
    boxes = np.frombuffer(coords, dtype=np.float64).reshape(-1, 2, 4)
    valid = valid_boxes_array(boxes).all(axis=1)
    for i in np.flatnonzero(~valid).tolist():
        try:  # the box checks of parse_record, in its order
            _parse_box(boxes[i, 0].tolist(), "gt")
            _parse_box(boxes[i, 1].tolist(), "proposal")
        except ValueError as e:
            errors.append(LogParseError(line_nos[i], str(e)))
    errors.sort(key=lambda e: e.line_no)
    columns = ProposalColumns(boxes[valid, 0], np.array(gt_class, dtype=np.int64)[valid], boxes[valid, 1],
                              np.array(line_nos, dtype=np.int64)[valid])
    return columns, errors, line_no


def _format_records(image_id: str, gt, gt_class: int, proposals, source: str) -> list[str]:
    """Canonical lines of the records that share one gt, one per proposal [cx, cy, w, h].

    Each line is what ``json.dumps`` writes for the record's fields in order.
    Coordinates must be finite Python floats, which it writes as their
    ``repr``.
    """
    head = (f'{{"image_id": {json.dumps(image_id)}, "gt": [{", ".join(map(repr, gt))}], '
            f'"gt_class": {gt_class}, "proposal": [')
    tail = f'], "source": {json.dumps(source)}}}'
    return [f"{head}{cx!r}, {cy!r}, {w!r}, {h!r}{tail}" for cx, cy, w, h in proposals]


def serialize_record(rec: ProposalLogRecord) -> str:
    """Canonical single-line JSON form; parse/serialize is idempotent."""
    (line,) = _format_records(rec.image_id, astuple(rec.gt), rec.gt_class, [astuple(rec.proposal)], rec.source)
    return line


def _line_ranges(fh) -> list[tuple[int, int]]:
    """Line-aligned byte ranges ``[start, end)`` covering the binary file ``fh``, one per worker of the reading.

    A regular file gets ``_map_workers(size // _RANGE_BYTES)`` ranges; anything
    else gets one range. Every cut sits right after a ``\\n`` byte, so no
    ``\\r\\n`` pair and no UTF-8 sequence is split. The file is left at its start.
    """
    st = os.fstat(fh.fileno())
    n = _map_workers(st.st_size // _RANGE_BYTES) if stat.S_ISREG(st.st_mode) else 1
    if n < 2:
        return [(0, st.st_size)]
    cuts = [0]
    for i in range(1, n):
        fh.seek(max(st.st_size * i // n - 1, cuts[-1]))
        fh.readline()  # the cut follows the first \n at or after the target
        if fh.tell() < st.st_size:
            cuts.append(fh.tell())
    fh.seek(0)
    cuts.append(st.st_size)
    return list(zip(cuts, cuts[1:]))


def _range_lines(fh, size: int | float) -> Iterator[str]:
    """The next ``size`` bytes of the binary file ``fh`` (all of it for ``math.inf``) as text lines.

    Blocks of about ``_BLOCK_BYTES``, each extended to the next ``\\n``, are
    decoded one at a time as UTF-8 with universal newlines; a byte that is not
    valid UTF-8 becomes a surrogate escape, which ``parse_record`` names.
    """
    while size > 0 and (block := fh.read(min(_BLOCK_BYTES, size))):
        if len(block) < size and not block.endswith(b"\n"):
            block += fh.readline()
        size -= len(block)
        yield from io.TextIOWrapper(io.BytesIO(block), encoding="utf-8", errors="surrogateescape")


def _parse_range(path: str, start: int, end: int, lenient: bool) -> tuple[ProposalColumns, list[LogParseError], int]:
    """``_parse_lines`` of the bytes ``[start, end)`` of a file; line numbers count from the range's start."""
    with open(path, "rb") as fh:
        fh.seek(start)
        return _parse_lines(_range_lines(fh, end - start), lenient)


def _parse_ranges(path: str, ranges: list[tuple[int, int]], lenient: bool) -> tuple[ProposalColumns, list[str]]:
    """``parse_log`` of a file split into line-aligned ranges, each read by a worker of ``_ordered_map``.

    Each earlier range was read to its end unless it already failed in strict
    mode, so its line count shifts the rows and messages of the later ones.
    """
    return _merge_parts(list(_ordered_map(lambda r: _parse_range(path, *r, lenient), ranges)), lenient)


def _map_workers(n_tasks: int) -> int:
    """The forked workers ``_ordered_map`` runs ``n_tasks`` tasks on: one per CPU, at most one per task.

    1 means the tasks run inline: for one task, on one CPU, inside a worker
    (a nested map) or on a platform that cannot fork.
    """
    if _worker_fn is not None or n_tasks < 2:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        return 1
    import multiprocessing

    return min(cpus, n_tasks) if "fork" in multiprocessing.get_all_start_methods() else 1


def _start_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _run_task(task):
    return _worker_fn(task)


def _ordered_map(fn: Callable, tasks: Sequence) -> Iterator:
    """``fn(task)`` for each task, yielded in task order, computed by ``_map_workers(len(tasks))`` workers.

    The workers are forked, so ``fn`` reaches them without pickling and may
    close over the caller's data; tasks and results are pickled. At most two
    tasks per worker are in flight, so results wait for a slow consumer in
    bounded memory, and the caller only collects them. With one worker each
    task runs here as its result is taken. A worker's exception is raised
    here, and a worker that died raises ``BrokenProcessPool``, a
    RuntimeError; ``dispatch`` reports either as one line. Every worker is
    joined before the generator ends, raises or is closed.
    """
    workers = _map_workers(len(tasks))
    if workers < 2:
        yield from map(fn, tasks)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import numpy and propcal again, and could not be handed fn
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn,))
    try:
        in_flight: deque = deque()
        for task in tasks:
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(_run_task, task))
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _merge_parts(parts: list, lenient: bool) -> tuple[ProposalColumns, list[str]]:
    """``parse_log``'s result from the ``_parse_lines`` results of consecutive parts of one log, in line order.

    Each part's line count shifts the later parts. Strict mode raises the first error; one part is not copied.
    """
    errors: list[LogParseError] = []
    offset = 0
    for columns, part_errors, n_lines in parts:
        errors += [LogParseError(e.line_no + offset, e.message) for e in part_errors]
        if errors and not lenient:
            raise errors[0]
        columns.line_no[:] += offset  # in place: the dataclass is frozen, its arrays are not
        offset += n_lines
    columns = parts[0][0] if len(parts) == 1 else ProposalColumns(*(
        np.concatenate([getattr(part, name) for part, _, _ in parts]) for name in vars(parts[0][0])))
    return columns, [str(e) for e in errors]


def _read_log(path: str, lenient: bool) -> ProposalColumns:
    """The records of a log; raises ValueError when it holds none.

    A regular file of ``2 * _RANGE_BYTES`` or more is read by up to one
    worker per CPU (``_parse_ranges``); the columns and messages are those
    of ``parse_log``'s single pass.
    """
    with open(path, "rb") as fh:
        ranges = _line_ranges(fh)
        if len(ranges) > 1:
            columns, errors = _parse_ranges(path, ranges, lenient)
        else:
            columns, errors = parse_log(_range_lines(fh, math.inf), lenient)
    for msg in errors:
        print(f"{path}: skipped {msg}", file=sys.stderr)
    if errors:
        print(f"{path}: skipped {len(errors)} malformed lines", file=sys.stderr)
    if not len(columns):
        raise ValueError(f"{path} contains no records")
    return columns


def _log_offsets(cols: ProposalColumns) -> np.ndarray:
    """Offset of each proposal against its gt; raises ValueError naming the line of one that overflows."""
    offsets = encode_offsets_array(cols.proposal, cols.gt)
    finite = np.isfinite(offsets).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"line {cols.line_no[i]}: offset {offsets[i].tolist()} is not finite")
    return offsets


def _write_lines(lines: Iterable[str], path: str | None) -> None:
    """Write each line and a newline to ``path``, or to stdout when it is None.

    A "line" may hold several lines joined by newlines. When the writing
    fails, ``path`` is removed again while it is still the regular file this
    opened, so a failed command leaves all of its lines or no file.
    """
    if path is None:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        return
    opened = None
    try:
        with open(path, "w", encoding="utf-8") as out:
            opened = os.fstat(out.fileno())
            out.writelines(f"{line}\n" for line in lines)
    except BaseException:
        if opened is not None and stat.S_ISREG(opened.st_mode):
            with contextlib.suppress(OSError):
                if os.path.samestat(os.lstat(path), opened):
                    os.unlink(path)
        raise


# Subcommand implementations. Each returns an exit code.

def _cmd_fit_stats(args) -> int:
    cols = _read_log(args.log, args.lenient)
    _write_lines([model_to_json(fit_gaussian(_log_offsets(cols)))], args.output)
    return 0


def _cmd_fit_uniform(args) -> int:
    model = model_from_json(Path(args.model).read_text(encoding="utf-8"))
    _write_lines([model_to_json(fit_optimal_uniform(model))], args.output)
    return 0


def _cmd_sample(args) -> int:
    model = model_from_json(Path(args.model).read_text(encoding="utf-8"))
    config = SamplerConfig(model=model, j_per_instance=args.j, seed=args.seed)
    image_size = tuple(args.image_size) if args.image_size else None
    if image_size and not all(0 < v < np.inf for v in image_size):
        raise ValueError(f"--image-size must be two positive, finite numbers, got {args.image_size}")
    with contextlib.closing(_sampled_lines(args.gts, config, image_size)) as chunks:
        _write_lines(chunks, args.output)  # the closing joins the workers of a write that failed
    return 0


def _sampled_lines(path: str, config: SamplerConfig, image_size) -> Iterator[str]:
    """The ``sample`` records of the gt lines of ``path`` in file order, ``_CHUNK_LINES`` lines to a text.

    Every gt line is checked and every proposal drawn before this returns;
    the texts, their lines joined by newlines, are then formatted by the
    workers of ``_ordered_map`` as they are taken.
    """
    with open(path, "rb") as fh:
        records = [_parse_line(line, line_no, _GT_FIELDS, _parse_gt_fields)
                   for line_no, line in enumerate(_range_lines(fh, math.inf), start=1) if line.strip()]
    boxes = np.array([gt.as_array() for _, gt, _ in records]).reshape(-1, 4)
    props = build_calibrated_set(boxes, config, image_size, [image_id for image_id, _, _ in records])
    j, size = config.j_per_instance, _CHUNK_LINES

    def chunk(start: int) -> str:  # lines [start, start + size) of the output; gt g has lines [g * j, (g + 1) * j)
        stop = min(start + size, len(props))
        lines = []
        for g in range(start // j, (stop - 1) // j + 1):
            image_id, _, gt_class = records[g]
            rows = props[max(start, g * j):min(stop, (g + 1) * j)].tolist()
            lines += _format_records(image_id, boxes[g].tolist(), gt_class, rows, "sampled")
        return "\n".join(lines)

    return _ordered_map(chunk, range(0, len(props), size))


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
        sets.append(corners_array(cols.proposal) if args.raw_corners else _log_offsets(cols))
    value = (diagnostics.mmd_linear if args.kernel == "linear" else diagnostics.mmd_rbf)(*sets)
    if not np.isfinite(value):
        raise ValueError(f"mmd is not finite ({value!r}): the compared values overflow float64")
    print(repr(value))
    return 0


def _cmd_diagnose(args) -> int:
    cols = _read_log(args.log, args.lenient)
    report = diagnostics.offset_report(_log_offsets(cols))
    outdir = Path(args.figures)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, hist in zip(("dx", "dy", "dw", "dh"), report.histograms):
        diagnostics.write_histogram(outdir / f"offset_{name}", hist, f"offset {name}")
    _write_lines([model_to_json(report.gaussian)], str(outdir / "model.json"))
    hist = diagnostics.iou_histogram(cols.proposal, cols.gt, diagnostics.IOU_EDGES)
    diagnostics.write_histogram(outdir / "iou_hist", hist, "proposal IoU")
    print(f"wrote 11 files to {outdir}")
    return 0


def _cmd_simulate(args) -> int:
    from .simulator import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
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
        # an overflow in numpy is reported by the command as one error line, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return int(args.func(args))
    except (ValueError, RuntimeError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
