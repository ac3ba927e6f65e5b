"""One measured propcal process: import, optionally trace, run, report.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds ``src`` (the checkout's ``src`` directory), ``kind`` and
``trace``. Kinds:

* ``import``: import ``propcal.cli`` and ``propcal.simulator`` and stop;
* ``cli``: run ``propcal.cli.dispatch(argv)`` as the ``propcal`` script
  does, exiting with its code;
* ``experiment``: call ``run_experiment`` once per seed in ``seeds`` with the
  default config, writing reports under ``out``.

RESULT receives the import and run times (the run timed after import), the
peak RSS of this process and, when traced, the spans and layer totals. A
crash leaves RESULT unwritten and a traceback on stderr.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _run_experiment(spec) -> dict:
    from propcal.simulator import ExperimentConfig, run_experiment

    seeds = []
    for seed in spec["seeds"]:
        t0 = time.perf_counter()
        try:
            report = run_experiment(ExperimentConfig(seeds=(seed,)), out_root=spec["out"])
        except (ValueError, RuntimeError) as e:
            # run_experiment refused this seed with an error of its own; the
            # seed fails alone and the rest still run
            seeds.append({"seed": seed, "error": f"{type(e).__name__}: {e}",
                          "run_s": time.perf_counter() - t0})
            continue
        seeds.append({
            "seed": seed,
            "run_s": time.perf_counter() - t0,
            "dir": str(report.output_dir),
            "aggregates": [*report.mean_iou, *report.mean_novel_acc, *report.mean_mmd],
        })
    return {"seeds": seeds}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = str(Path(spec["src"]).resolve())
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import propcal.cli

    if spec["kind"] != "cli":
        import propcal.simulator  # noqa: F401  (the cli imports it lazily)
    import_s = time.perf_counter() - t0
    if not str(Path(propcal.cli.__file__).resolve()).startswith(src):
        print(f"propcal imported from {propcal.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer, install

        tracer = Tracer(op=spec.get("op", ""))
        install(tracer)

    result = {"import_s": import_s}
    code = 0
    t1 = time.perf_counter()
    c1 = time.process_time()
    if spec["kind"] == "cli":
        sid = tracer.begin("cli.dispatch") if tracer else None
        code = propcal.cli.dispatch(spec["argv"])
        if tracer:
            tracer.end(sid)
    elif spec["kind"] == "experiment":
        result.update(_run_experiment(spec))
    result["run_s"] = time.perf_counter() - t1
    result["cpu_s"] = time.process_time() - c1
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()
        result["totals"] = tracer.totals()
        result["spans"] = tracer.finished_spans()
    sys.stdout.flush()
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
