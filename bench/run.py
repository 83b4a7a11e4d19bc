#!/usr/bin/env python3
"""mixcast benchmark: the real CLI, end to end, with checked outputs and a
layer trace taken from outside the package.

Run from the repository root:

    python3 bench/run.py --workload eval_gmm --seed 3 --seconds 40 --trace 0
    python3 bench/run.py --workload eval_gmm --seed 3 --seconds 40 --trace 1
    python3 bench/run.py --workload wide_det --smoke      # tiny sizes, checks only

Closed loop with one client: every command is a child process
(`python -m mixcast ...`) started only after the previous one ended, with
OPENBLAS_NUM_THREADS=1. The seed picks the generated dataset and the
training seed. Set-up (an interpreter warm-up, then the workload's inputs)
runs several times and reports its median; the timed flow then repeats
until --seconds have passed (at least three times) and reports medians
over the repeats. Every command's outputs are checked; a failed check
counts as a failed operation and makes the run exit with code 1.

train_gmm and eval_gmm are the workloads of BENCHMARK.json; each
exercises the layers the other bypasses. wide_det (det model, CSV I/O,
three interpreter start-ups) runs by hand and in the tests.

--trace 0 reports the end-to-end metrics. --trace 1 runs the same flow
in this process through `cli.main`, once plain and once with the layer
wrappers of tracer.py installed, and reports per-layer figures; the
difference of the two walls is the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. Everything else (the full metric tables, provenance) is
printed above it and written to <work>/result.json, with the spans in
<work>/trace.jsonl.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# CLI defaults the expected counts rest on: 48 steps per session,
# t_h = t_f = 10, batch size 32, 2001 CRPS points, splits 0.7/0.1/0.2.
SESSION_STEPS = 48
HORIZON = 10
WINDOWS_PER_SESSION = SESSION_STEPS - 2 * HORIZON + 1
BATCH_SIZE = 32

# Stated tolerance of the reported CRPS against the closed form. On trained
# gmm checkpoints the 2001-point trapezoid reads high, because broad
# low-weight components stretch its grid: on eval_gmm over 45 seeds the
# worst horizon step is off by 1.2e-2 to 5.7e-2 (crps_mean by about 4e-3
# to 9e-3). The tolerance admits that known bias and catches gross errors;
# an exact CRPS should tighten it. det must match exactly.
CRPS_REL_TOL = 0.1

SETUP_REPEATS = 3
# A cheap set-up repeats until this many seconds have passed, for a steadier median.
SETUP_SECONDS = 10.0
MAX_SETUP_REPEATS = 15
MIN_REPEATS = 3
STARTUP_REPEATS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer figures that every workload produces: times that are non-zero
# on every flow, and computed counts (0 where a flow never reaches the
# layer). The full table, with layer-specific times, is printed.
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "data.self_s": "s",
    "model.self_s": "s",
    "data.ingest_csv.s": "s",
    "data.prepare_splits.s": "s",
    "data.ingest_csv.cells": "count",
    "data.windows": "count",
    "data.export_csv.bytes": "bytes",
    "model.backward.calls": "count",
    "gmm.MixtureBatch.validate.calls": "count",
    "metrics.crps.cdf_evals": "count",
    "intervals.mask_bytes": "bytes",
}
COMPUTED_COUNTS = ("data.ingest_csv.cells", "data.windows", "data.export_csv.bytes",
                   "model.backward.calls", "metrics.crps.cdf_evals", "intervals.mask_bytes")


@dataclass(frozen=True)
class Workload:
    nodes: int
    sessions: int
    variant: str
    epochs: int
    setup: tuple  # commands that build the inputs before timing
    flow: tuple  # the timed commands, in order


WORKLOADS = {
    "train_gmm": Workload(50, 30, "gmm", 18, ("generate",), ("train",)),
    "eval_gmm": Workload(50, 10, "gmm", 18, ("generate", "train"), ("evaluate",)),
    "wide_det": Workload(500, 10, "det", 6, (), ("generate", "train", "evaluate")),
}
SMOKE = {"nodes": 4, "sessions": 10, "epochs": 2}


def split_sessions(n: int):
    """(train, val, test) session counts of the default 0.7/0.1/0.2 split."""
    n_train = max(1, min(int(round(0.7 * n)), n - 2))
    n_val = max(1, min(int(round(0.1 * n)), n - n_train - 1))
    return n_train, n_val, n - n_train - n_val


def expected_steps(wl: Workload) -> int:
    n_train = split_sessions(wl.sessions)[0]
    return wl.epochs * math.ceil(n_train * WINDOWS_PER_SESSION / BATCH_SIZE)


def expected_elements(wl: Workload) -> int:
    return split_sessions(wl.sessions)[2] * WINDOWS_PER_SESSION * wl.nodes * HORIZON


def command_args(cmd: str, wl: Workload, seed: int, work: Path) -> list:
    out = ["--out", str(work)]
    if cmd == "version":
        return ["--version"]
    if cmd == "generate":
        return ["generate", "--nodes", str(wl.nodes), "--sessions", str(wl.sessions),
                "--seed", str(seed), "--name", "data", *out]
    if cmd == "train":
        gmm = ["--k", "5", "--lr", "0.002"] if wl.variant == "gmm" else []
        return ["train", "--data", str(work / "data"), "--variant", wl.variant, *gmm,
                "--epochs", str(wl.epochs), "--seed", str(seed), "--name", "model", *out]
    if cmd == "evaluate":
        return ["evaluate", "--checkpoint", str(work / "model.ckpt.npz"),
                "--data", str(work / "data"), "--name", "eval", *out]
    raise ValueError(cmd)


@dataclass
class CommandRun:
    cmd: str
    wall_s: float
    rss_mb: float | None
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, what: str, errors: list) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)
            for e in errors:
                print(f"check failed: {what}: {e}", file=sys.stderr)
        return not errors


class Spawner:
    """Starts the CLI children one at a time through spawner.py, a helper
    process that holds no data, so that each child's peak RSS is its own."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        self._busy = False

    def run(self, args: list, work: Path) -> CommandRun:
        self._busy = True
        self._proc.stdin.write(json.dumps({"args": args, "work": str(work)}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner helper ended with code {self._proc.wait()}")
        self._busy = False
        return CommandRun(args[0].lstrip("-"), *json.loads(reply))

    def close(self):
        """Stop the helper and wait for it. Idle, it ends at the end of its
        input; mid-command, SIGTERM makes it kill and reap the child first."""
        if self._busy:
            self._proc.terminate()
        with contextlib.suppress(OSError):
            self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def run_in_process(mx, args: list) -> CommandRun:
    """One CLI command through cli.main in this process (for tracing)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            mx.cli.main(args=args, prog_name="mixcast", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except mx.click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:  # the benchmark must go on to report the failure
            traceback.print_exc()
            code = 1
    return CommandRun(args[0], time.perf_counter() - start, None, code,
                      out.getvalue(), err.getvalue())


class Modules:
    """The package under test, imported from the checkout's src/."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import click
        import numpy
        from mixcast import cli, data, metrics, model  # cli loads the other layers too

        import mixcast
        import oracle

        self.package, self.click, self.np, self.oracle = mixcast, click, numpy, oracle
        self.cli, self.data, self.model, self.metrics = cli, data, model, metrics


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Output checks per command; the closed-form CRPS reference is
    computed once per (checkpoint, dataset) pair."""

    def __init__(self, mx: Modules, wl: Workload, work: Path):
        self.mx, self.wl, self.work = mx, wl, work
        self._reference = {}

    def check(self, run: CommandRun) -> tuple:
        """(errors, figures) for one finished command."""
        if run.returncode != 0:
            return [f"exit code {run.returncode}: {run.stderr.strip()[-300:]}"], {}
        try:
            if run.cmd == "generate":
                return self._generate(), {}
            if run.cmd == "train":
                return self._train(run)
            if run.cmd == "evaluate":
                return self._evaluate()
        except (OSError, KeyError, ValueError) as err:
            return [f"{run.cmd} outputs unreadable: {err!r}"], {}
        return [], {}

    def _generate(self):
        manifest = self.mx.data.read_manifest(self.work / "data.manifest.json")
        errors = []
        if (len(manifest.node_ids), manifest.sessions) != (self.wl.nodes, self.wl.sessions):
            errors.append(f"manifest has {len(manifest.node_ids)} nodes, "
                          f"{manifest.sessions} sessions")
        rows = (self.work / "data.csv").read_bytes().count(b"\n") - 1
        if rows != self.wl.sessions * SESSION_STEPS:
            errors.append(f"csv has {rows} data rows")
        return errors

    def _train(self, run: CommandRun):
        errors = []
        self.mx.model.load_checkpoint(self.work / "model.ckpt.npz")
        log = (self.work / "model.log").read_text()
        steps = len(re.findall(r"^epoch=\d+ step=\d+ ", log, flags=re.M))
        if steps != expected_steps(self.wl):
            errors.append(f"log has {steps} step lines, expected {expected_steps(self.wl)}")
        found = re.search(r"best val loss (\S+) at epoch", run.stdout)
        best = float(found.group(1)) if found else math.nan
        if not math.isfinite(best):
            errors.append(f"best val loss {best!r} is not finite")
        return errors, {"best_val_loss": best, "steps": steps}

    def reference_crps(self):
        """Closed-form per-element CRPS of the checkpoint's test-split
        forecasts in raw units, prepared the way cli.evaluate_run does."""
        mx, work = self.mx, self.work
        ckpt = work / "model.ckpt.npz"
        key = (_sha256(ckpt), _sha256(work / "data.csv"))
        if key not in self._reference:
            params, mcfg, _, extra = mx.model.load_checkpoint(ckpt)
            dataset, manifest = mx.cli.load_dataset(work / "data")
            worked = mx.cli.apply_quality(dataset, extra.get("coverage_fraction", 1.0),
                                          extra.get("coverage_seed", 0),
                                          extra.get("resolution_factor", 1))
            t_h = extra.get("input_steps", mcfg.backbone.input_steps)
            splits = mx.data.prepare_splits(worked, t_h, mcfg.horizon, manifest.split_fractions)
            test, nrm = splits.test, splits.normalizer
            preds = mx.model.predict(params, mcfg, test.inputs)
            y = test.targets_raw
            if mcfg.variant == "det":
                crps = mx.np.abs(nrm.inverse(preds) - y)
            else:
                mb = preds.scale_shift(nrm.std, nrm.mean)
                crps = mx.oracle.mixture_crps(mb.weights, mb.means, mb.variances, y)
            self._reference[key] = crps
        return self._reference[key]

    def _evaluate(self):
        path = self.work / "eval.report.txt"
        report = self.mx.metrics.report_from_text(path.read_text())
        errors = []
        if report.meta.get("elements") != str(expected_elements(self.wl)):
            errors.append(f"meta.elements {report.meta.get('elements')} != "
                          f"{expected_elements(self.wl)}")
        rel = self.mx.oracle.crps_rel_err(report, self.reference_crps())
        if self.wl.variant == "det":
            if rel != 0.0 or report.crps_mean != report.mae:
                errors.append(f"det crps {report.crps_mean!r} vs mae {report.mae!r}, "
                              f"crps_rel_err {rel!r}: must be exact")
        else:
            if not rel <= CRPS_REL_TOL:
                errors.append(f"crps_rel_err {rel!r} above tolerance {CRPS_REL_TOL}")
            coverage = [cov for _, cov in report.calibration_curve]
            if any(b < a for a, b in zip(coverage, coverage[1:])):
                errors.append(f"calibration curve decreases: {coverage}")
            if not (math.isfinite(report.avg_width) and report.avg_width > 0):
                errors.append(f"avg_width {report.avg_width!r}")
        return errors, {"crps_rel_err": rel, "report_sha256": _sha256(path)}


def run_commands(cmds, wl, seed, work, checker, tally, runner):
    """Run commands in order, checking each; stop at the first failure.
    Returns the runs and the figures the checks read, or None."""
    runs, figures = [], {}
    for cmd in cmds:
        run = runner(command_args(cmd, wl, seed, work))
        runs.append(run)
        errors, found = checker.check(run)
        if not tally.record(f"{cmd} (seed {seed})", errors):
            return None
        figures.update(found)
    return runs, figures


def flow_figures(runs, figures, wl) -> dict:
    by_cmd = {r.cmd: r for r in runs}
    out = {
        "wall_s": sum(r.wall_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }
    if "train" in by_cmd:
        out["train_steps_per_s"] = expected_steps(wl) / by_cmd["train"].wall_s
        out["best_val_loss"] = figures["best_val_loss"]
    if "evaluate" in by_cmd:
        out["eval_elements_per_s"] = expected_elements(wl) / by_cmd["evaluate"].wall_s
        out["crps_rel_err"] = figures["crps_rel_err"]
        out["report_sha256"] = figures["report_sha256"]
    return out


def fresh(work: Path):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)


def set_up(wl, seed, work, checker, tally, spawner, repeats, seconds=0.0):
    """Build the inputs from scratch at least `repeats` times and for at
    least `seconds`; keep the last build."""
    reps = []
    start = time.perf_counter()
    while len(reps) < repeats or (time.perf_counter() - start < seconds
                                  and len(reps) < MAX_SETUP_REPEATS):
        fresh(work)
        done = run_commands(("version", *wl.setup), wl, seed, work, checker, tally,
                            lambda a: spawner.run(a, work))
        if done is None:
            return None
        figures = flow_figures(*done, wl)
        reps.append(dict(figures, setup_s=figures.pop("wall_s")))
    return reps


def provenance(mx, seed, reports) -> dict:
    blas = mx.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "OPENBLAS_NUM_THREADS=1",
        "git_commit": commit or None,
        "seed": seed,
        "report_sha256": sorted(reports),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _median(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else None


def measure(mx, wl, seed, work, seconds, smoke, tally, spawner):
    """--trace 0: end-to-end figures over set-up and timed repeats."""
    checker = Checker(mx, wl, work)
    setups = set_up(wl, seed, work, checker, tally, spawner,
                    *((1, 0.0) if smoke else (SETUP_REPEATS, SETUP_SECONDS)))
    if setups is None:
        return {}, {}, []
    reps = []
    start = time.perf_counter()
    min_reps = 1 if smoke else MIN_REPEATS
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        done = run_commands(wl.flow, wl, seed, work, checker, tally,
                            lambda a: spawner.run(a, work))
        if done is None:
            break
        reps.append(flow_figures(*done, wl))
    results = {"setup_s": _median(setups, "setup_s")}
    for key in ("wall_s", "peak_rss_mb", "train_steps_per_s", "eval_elements_per_s",
                "best_val_loss", "crps_rel_err"):
        results[key] = _median(reps, key)
    results["error_rate"] = tally.failed / max(tally.attempted, 1)
    results = {k: v for k, v in results.items() if v is not None}
    detail = {"repeats": len(reps), "setup_repeats": len(setups),
              "flow_reps": reps, "setup_reps": setups}
    reports = {r["report_sha256"] for r in reps if "report_sha256" in r}
    return results, detail, reports


def trace(mx, wl, seed, work, smoke, tally, spawner):
    """--trace 1: per-layer figures from one traced in-process flow."""
    from tracer import Tracer, summarize

    checker = Checker(mx, wl, work)
    if set_up(wl, seed, work, checker, tally, spawner, 1) is None:
        return {}, {}, []
    startups = []
    for _ in range(1 if smoke else STARTUP_REPEATS):
        run = spawner.run(["--version"], work)
        if tally.record("--version", checker.check(run)[0]):
            startups.append(run.wall_s)

    def flow(tracer=None):
        runs = []
        for cmd in wl.flow:
            args = command_args(cmd, wl, seed, work)
            if tracer is None:
                runs.append(run_in_process(mx, args))
                continue
            tracer.install(mx.package)
            try:
                with tracer.span(f"cli.{cmd}"):
                    runs.append(run_in_process(mx, args))
            finally:
                tracer.uninstall()
        reports = set()
        for run in runs:
            errors, found = checker.check(run)
            tally.record(f"{run.cmd} in process (seed {seed})", errors)
            if "report_sha256" in found:
                reports.add(found["report_sha256"])
        return sum(r.wall_s for r in runs), reports

    plain_wall, reports = flow()
    tracer = Tracer()
    traced_wall, traced_reports = flow(tracer)
    tracer.write(work / "trace.jsonl")
    layers = summarize(tracer.spans)
    if startups:
        layers["cli.startup_s"] = statistics.median(startups)
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["trace.spans"] = len(tracer.spans)
    calls = layers.get("model.backward.calls")
    if "train" in wl.flow and calls is not None:
        tally.record("model.backward.calls", [] if calls == expected_steps(wl) else
                     [f"{calls} calls, expected {expected_steps(wl)}"])
    return layers, {"untraced_wall_s": plain_wall}, reports | traced_reports


def _unit(name: str) -> str:
    named = {"peak_rss_mb": "MB", "train_steps_per_s": "1/s", "eval_elements_per_s": "1/s",
             "best_val_loss": "loss", "crps_rel_err": "ratio", "error_rate": "ratio",
             **PER_LAYER}
    if name in named:
        return named[name]
    if ".ms_" in name:
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def print_table(title, values):
    print(title)
    for name in sorted(values):
        label = " computed" if name in COMPUTED_COUNTS else ""
        print(f"  {name:40s} {values[name]!r:>24} {_unit(name)}{label}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; checks outputs only")
    ap.add_argument("--work", type=Path, default=ROOT / ".bench_work",
                    help="output root; each run replaces <work>/<workload>-<seed>")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "mixcast" / "__init__.py").is_file():
        print(f"error: no mixcast package under {SRC}; run from a mixcast checkout",
              file=sys.stderr)
        return 2
    # Before numpy loads: the reference predictions made in this process
    # must match the children's bit for bit.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    seed = args.seed % 2**31
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = replace(wl, **SMOKE)
    work = (args.work / f"{args.workload}-{seed}").resolve()
    fresh(work)
    spawner = Spawner()
    try:
        mx = Modules()
        tally = Tally()
        if args.trace:
            values, detail, reports = trace(mx, wl, seed, work, args.smoke, tally, spawner)
        else:
            values, detail, reports = measure(mx, wl, seed, work, args.seconds, args.smoke,
                                              tally, spawner)
    finally:
        spawner.close()
    if args.trace:
        wanted = PER_LAYER
        print_table(f"per-layer, {args.workload}, seed {seed} (traced in-process flow)", values)
    else:
        wanted = END_TO_END
        print_table(f"end-to-end, {args.workload}, seed {seed}, {detail.get('repeats', 0)} "
                    f"repeats (closed loop, 1 client)", values)
    prov = provenance(mx, seed, reports)
    print("provenance " + json.dumps(prov, sort_keys=True))

    correct = tally.failed == 0 and bool(args.trace or all(name in values for name in wanted))
    if args.trace:
        # A layer that no span reached has spent nothing: an empty sum.
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in wanted.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in wanted.items() if name in values}
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "values": values, "detail": detail, "provenance": prov, "errors": tally.errors,
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
