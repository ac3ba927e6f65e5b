"""Hypothesis over the argument vectors of every subcommand.

Paths are drawn from a small set of real, empty, malformed and missing files
and numbers from negative, huge, fractional and non-numeric spellings;
``simulate`` gets small experiment configs with out-of-range values, wrong
JSON types and malformed JSON. Each argv runs in process through
``dispatch``: it must exit 0, 1 or 2 without an escaping exception or a
warning, and an exit of 1 must end stderr with one ``error:`` line (after any
``skipped`` lines of a lenient read).
"""

import contextlib
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from propcal.cli import dispatch
from propcal.simulator import ExperimentConfig

LOG = "".join(
    f'{{"image_id": "im{i // 4}", "gt": [{100 + 7 * i}.5, {80 + 3 * i}.25, 40.0, 30.0], "gt_class": {i % 3}, '
    f'"proposal": [{102 + 7 * i}.0, {79 + 3 * i}.0, 44.0, 27.5], "source": "rpn"}}\n'
    for i in range(12)
)
FILES = {
    "log": LOG,
    "mixed-log": LOG + '{"image_id": "x", "gt": [1, 2, 0, 4]}\n\n' + LOG.replace("40.0", "40", 1),
    "gts": "".join(f'{{"image_id": "im{i}", "gt": [{50 + 40 * i}, 120.5, 30, 24.0], "gt_class": {i}}}\n'
                   for i in range(5)),
    "model": '{"kind": "gaussian", "mu": [0.02, -0.01, 0.04, 0.03], "var": [0.0144, 0.0144, 0.01, 0.01]}',
    "uniform-model": '{"kind": "uniform", "lo": [-0.2, -0.2, -0.1, -0.1], "hi": [0.2, 0.2, 0.1, 0.1]}',
    "empty": "",
    "malformed": '{"image_id": "im0", "gt": [1.0, 2.0\n',
    "not-utf8": b'{"image_id": "\xff", "gt": [1.0, 2.0, 3.0, 4.0], "gt_class": 0}\n',
}
INPUTS = [*FILES, "missing", "dir"]  # "missing" is never written; "dir" is a directory
OUTPUTS = ["new", "dir", "missing-dir/out"]  # a fresh path, a directory, a path under no directory
HUGE = [str(2**46), str(2**63), str(2**64), str(10**30)]  # 2**46 draws per gt overflow any address space
NUMBERS = ["-1", "0", "1", "3", "0.5", "1e3", "-0", "nan", "inf", "-inf", "1e400", "abc", *HUGE]

path = st.sampled_from(INPUTS)
number = st.one_of(st.sampled_from(["1", "3", *HUGE]), st.sampled_from(NUMBERS))  # a valid int half the time
count = st.one_of(st.sampled_from(HUGE), number)  # -J, whose huge values reach the draw allocation


def _mostly(name):
    """``name`` half the time, so a run gets past its input checks; any input path otherwise."""
    return st.one_of(st.just(name), path)


def _opt(*parts):
    """The tokens ``parts`` or nothing."""
    return st.one_of(st.just([]), st.tuples(*parts).map(list))


def _argv(*parts):
    return st.tuples(*parts).map(lambda groups: [tok for group in groups for tok in group])


def _flag(name):
    return st.sampled_from([[], [name]])


output = _opt(st.sampled_from(["-o", "--output"]), st.sampled_from(OUTPUTS).map(lambda p: "out:" + p))
figures = st.sampled_from(["new", "missing-dir/figs", "dir"]).map(lambda p: "out:" + p)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv-inputs")
    for name, content in FILES.items():
        target = root / name
        target.write_bytes(content) if isinstance(content, bytes) else target.write_text(content)
    (root / "dir").mkdir()
    return root


def _run(argv) -> tuple[int, list[str]]:
    """Run ``argv`` in process; check it exits 0, 1 or 2 with no warning and return the code and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        rc = dispatch(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert [str(w.message) for w in caught] == [], argv
    return rc, err.getvalue().splitlines()


def _check(inputs, argv) -> int:
    """Run ``argv`` with its names made real paths; check how it ends and return its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "dir").mkdir()
        real = [str(Path(tmp, tok[4:])) if tok.startswith("out:") else
                str(inputs / tok) if tok in INPUTS else tok for tok in argv]
        rc, lines = _run(real)
    if rc == 1:
        assert lines and lines[-1].startswith("error: "), (real, lines)
        assert all(": skipped " in line for line in lines[:-1]), (real, lines)
    elif rc == 0:
        assert all(": skipped " in line for line in lines), (real, lines)
    return rc


fuzz = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz
@given(_argv(st.just(["fit-stats"]), _mostly("mixed-log").map(lambda p: [p]), output, _flag("--lenient")))
def test_fit_stats_argv(inputs, argv):
    _check(inputs, argv)


@fuzz
@given(_argv(st.just(["fit-uniform"]), _mostly("model").map(lambda p: [p]), output))
def test_fit_uniform_argv(inputs, argv):
    _check(inputs, argv)


@settings(fuzz, max_examples=150)
@given(_argv(st.just(["sample"]), _mostly("gts").map(lambda p: [p]), _mostly("model").map(lambda p: ["--model", p]),
             _opt(st.sampled_from(["-J", "--j"]), count), _opt(st.just("--seed"), number),
             _opt(st.just("--image-size"), number, number), output))
def test_sample_argv(inputs, argv):
    _check(inputs, argv)


@fuzz
@given(_argv(st.just(["mmd"]), st.tuples(_mostly("log"), _mostly("mixed-log")).map(list),
             _opt(st.just("--kernel"), st.sampled_from(["linear", "rbf", "poly"])),
             _flag("--raw-corners"), _flag("--lenient")))
def test_mmd_argv(inputs, argv):
    _check(inputs, argv)


@fuzz
@given(_argv(st.just(["diagnose"]), _mostly("log").map(lambda p: [p]), _opt(st.just("--figures"), figures),
             _flag("--lenient")))
def test_diagnose_argv(inputs, argv):
    _check(inputs, argv)


@fuzz
@given(_argv(st.just(["supcon-check"]), _opt(st.just("--seed"), number)))
def test_supcon_check_argv(inputs, argv):
    _check(inputs, argv)


# a config small enough to run in well under a second: at most 2 base and 2
# novel classes, 10 instances per class, 5 epochs and one seed
SMALL_CONFIG = st.fixed_dictionaries({
    "c_base": st.integers(1, 2), "c_novel": st.integers(1, 2), "k_shot": st.integers(1, 3),
    "base_per_class": st.integers(1, 10), "test_per_class": st.integers(1, 10),
    "epochs_base": st.integers(1, 5), "epochs_finetune": st.integers(1, 5), "j_per_instance": st.integers(0, 5),
    "seeds": st.integers(0, 2**64 - 1).map(lambda seed: [seed]),
})
# out of range for some field, of the wrong JSON type, or far from the defaults; no
# integer above 0 outside a list, so no value asks for a large allocation or a long run
ODD = [-1, 0, -0.5, 0.5, 1.5, 1e6, 1e300, "2", "nan", True, None, {}, [], [1], [0, 0], [-1], [2**64], [0.5],
       [0.1, 0.1, 0.1], [0.0, 0.0, 3.0, 3.0], [0.5, 0.5, 0.5, 0.5]]
FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)] + ["bogus"]
CONFIG = st.one_of(
    st.tuples(SMALL_CONFIG, st.dictionaries(st.sampled_from(FIELDS), st.sampled_from(ODD), max_size=2))
    .map(lambda parts: json.dumps({**parts[0], **parts[1]})),
    st.sampled_from(["", "{", '{"seeds": [0]', "[]", "null", "1", "{'seeds': [0]}", '{"c_base": NaN}',
                     '{"lam": Infinity}', b'{"seeds": [0], "bogus\xff": 1}']),
)
REPORT_FILES = sorted(["config.json", "per_seed.csv", "summary.csv"] + [
    f"{stem}_{arm}.{ext}" for arm in ("baseline", "pdc")
    for stem, ext in (("iou_hist", "csv"), ("iou_hist", "svg"), ("precision_by_iou", "csv"))])


@settings(fuzz, max_examples=60)
@given(CONFIG)
def test_simulate_argv(text):
    with tempfile.TemporaryDirectory() as tmp:
        config, reports = Path(tmp, "config.json"), Path(tmp, "reports")
        config.write_bytes(text) if isinstance(text, bytes) else config.write_text(text)
        rc, lines = _run(["simulate", str(config), "--out", str(reports)])
        if rc == 0:
            (outdir,) = reports.iterdir()
            assert sorted(p.name for p in outdir.iterdir()) == REPORT_FILES, text
            assert "nan" not in (outdir / "summary.csv").read_text().lower(), text
    if rc == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (text, lines)


@pytest.mark.parametrize("argv", [[], ["bogus"], ["fit-stats"], ["sample", "gts"], ["mmd", "log", "log", "--bogus"]])
def test_usage_errors_exit_2(inputs, argv):
    assert _check(inputs, argv) == 2
