"""matorus benchmark: CLI workloads in fresh processes, with a correctness
gate, optional layer tracing and a record of the machine.

    python3 perfbench/run.py --workload solve-n2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed 1]
    python3 perfbench/run.py --self-test [--workload solve-n2]

Run it from the root of a checkout; it uses the package under ``src/``.
One workload run is a closed loop: one task per process, one process at a
time, started again until ``--seconds`` have passed (at least three
times). With ``--trace 0`` it reports the end-to-end metrics, medians over
the tasks; with ``--trace 1`` it runs one untraced task and then traced
tasks, and reports the per-layer metrics. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3  # before the tasks, and as many after
MIN_TASKS = 3  # per run even when --seconds has passed: a median of three
DEADLINE_S = 170.0
# One thread per task process. On the 2-vCPU reference box OpenBLAS's
# default pool spins a second thread and a two-thread sweep contends for
# the GIL; with either, tasks ran slower, and two-thread sweeps took 2-3x
# as long whenever the host took CPU time away.
THREADS = {"MA_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import B_TOL, GAUDUCHON_TOL, WORKLOADS  # noqa: E402
import tracer as tracing  # noqa: E402


class Timeout(Exception):
    pass


# ---------------------------------------------------------------------------
# Child processes


class Runner:
    def __init__(self, workload, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.env.update(THREADS)

    def spawn(self, args, log_path):
        """Run ``python3 launch.py args``; returns (exit code, peak RSS MB)."""
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "launch.py"), *args],
                env=self.env, cwd=str(ROOT), stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                while True:
                    pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        proc.kill()
                        _, status, ru = os.wait4(proc.pid, 0)
                        proc.returncode = os.waitstatus_to_exitcode(status)
                        raise Timeout(f"{args[0]} run passed the {DEADLINE_S:.0f} s deadline")
                    time.sleep(0.005)
            except BaseException:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, ru.ru_maxrss / 1024.0

    def setup_s(self, cfg_path, log_path) -> float:
        t0 = time.perf_counter()
        rc, _ = self.spawn(["setup", str(cfg_path), self.workload.task], log_path)
        dt = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"setup probe failed (exit {rc}); see {log_path}")
        return dt

    def task(self, mode, cfg_path, tdir: Path) -> dict:
        """One CLI task; returns its timing record (rc, task_s, cpu_s, ...)."""
        tdir.mkdir(parents=True)
        timing = tdir / "timing.json"
        out = tdir / "out"
        rc, rss = self.spawn(
            [mode, str(timing), self.workload.task, "--config", str(cfg_path), "--out", str(out)],
            tdir / "log.txt",
        )
        rec = {"mode": mode, "launcher_rc": rc, "peak_rss_mb": rss, "out": out, "dir": tdir}
        if rc == 0 and timing.is_file():
            rec.update(json.loads(timing.read_text()))
        return rec


# ---------------------------------------------------------------------------
# Correctness gate


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _check_solve(w, cfg, out, summary):
    from matorus.fieldio import deserialize
    from matorus.problems import metric_from_spec, rhs_from_spec
    from matorus.solver import SolverConfig, ma_log_residual

    tol = SolverConfig(**cfg.get("solver", {})).newton_tol
    errors = []
    b = summary["b"]
    if not summary["sup_residual"] <= tol:
        errors.append(f"sup_residual {summary['sup_residual']:.3e} > newton_tol {tol:.1e}")
    if not summary["min_eigen_gprime"] > 0.0:
        errors.append(f"min_eigen_gprime {summary['min_eigen_gprime']:.3e} <= 0")
    if w.b is not None and not abs(b - w.b) <= B_TOL:
        errors.append(f"b = {b!r}, recorded {w.b!r} (tolerance {B_TOL:.0e})")
    phi = deserialize(out / "phi.field")
    grid = phi.grid
    g = metric_from_spec(grid, cfg["metric"])
    F = rhs_from_spec(grid, cfg["rhs"])
    resid = float(abs(ma_log_residual(g, phi, F, b).values).max())
    if not resid <= tol:
        errors.append(f"recomputed residual from phi.field {resid:.3e} > {tol:.1e}")
    return errors


def _check_gauduchon(w, cfg, out, summary):
    from matorus.fieldio import deserialize
    from matorus.geometry import gauduchon_residual
    from matorus.problems import metric_from_spec

    errors = []
    if not summary["residual"] <= GAUDUCHON_TOL:
        errors.append(f"residual {summary['residual']:.3e} > {GAUDUCHON_TOL:.0e}")
    v = deserialize(out / "v.field")
    g = metric_from_spec(v.grid, cfg["metric"])
    resid = gauduchon_residual(g, v)
    if not resid <= GAUDUCHON_TOL:
        errors.append(f"recomputed residual from v.field {resid:.3e} > {GAUDUCHON_TOL:.0e}")
    if not float(v.values.min()) > 0.0:
        errors.append("conformal weight v is not positive")
    return errors


def _check_sweep_entries(w, out, summary):
    """One error list per sweep entry, in scale order."""
    with open(out / "sweep.csv", newline="") as fh:
        b_of = {}
        for row in csv.DictReader(fh):
            b_of.setdefault(row["s"], row["b"])
    status = {e["s"]: e for e in summary["entries"]}
    result = []
    for s in w.scales:
        errs = []
        entry = status.get(s)
        if entry is None or entry["status"] != "ok":
            errs.append(f"sweep entry s={s}: {entry and entry['error']}")
        elif w.b is not None:
            b = float(b_of.get(repr(s), "nan"))
            if not abs(b - w.b[s]) <= B_TOL:
                errs.append(f"sweep entry s={s}: b = {b!r}, recorded {w.b[s]!r}")
        result.append(errs)
    return result


def _check(w, cfg, out) -> tuple:
    """(task errors, per-entry error lists) of one task's artifacts."""
    summary = json.loads((out / "summary.json").read_text())
    if w.task == "solve":
        return _check_solve(w, cfg, out, summary), []
    if w.task == "gauduchon":
        return _check_gauduchon(w, cfg, out, summary), []
    return [], [errs for errs in _check_sweep_entries(w, out, summary) if errs]


def gate(w, cfg, rec, store, key, checked: dict) -> tuple:
    """(attempted, failed, errors) for one task. The task is one operation;
    each sweep entry is one more. ``checked`` maps artifact digests to
    their check results, so byte-identical artifacts are checked once."""
    entries = len(w.scales) if w.task == "sweep" else 0
    attempted = 1 + entries
    out = rec["out"]
    if rec.get("rc") != 0 or not (out / "summary.json").is_file():
        return attempted, attempted, [f"task failed (rc={rec.get('rc')}); see {rec['dir']}"]
    digest = _digest(out)
    if digest not in checked:
        checked[digest] = _check(w, cfg, out)
    task_errors, entry_errors = list(checked[digest][0]), checked[digest][1]
    if digest != store["digest"].setdefault(key, digest):
        task_errors.append("artifacts differ from an earlier run of the same commit and seed")
    failed = bool(task_errors) + len(entry_errors)
    return attempted, failed, task_errors + [e for errs in entry_errors for e in errs]


# ---------------------------------------------------------------------------
# Environment


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")) if caches.is_dir() else ():
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                env[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the record must not stop the run
        env["blas"] = f"unknown ({type(exc).__name__})"
    env.update(THREADS)
    return env


def _steal_s():
    """Seconds of CPU time the hypervisor took from this machine so far
    (all CPUs), or None where the kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _src_hash() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def _load_store(path: Path) -> dict:
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    for part in ("digest", "counters", "task_s"):
        store.setdefault(part, {})
    return store


def _save_store(path: Path, store: dict) -> None:
    tmp = path.with_suffix(f".tmp-{os.getpid()}")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# One workload run


def run_workload(w, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    runner = Runner(w, time.monotonic() + DEADLINE_S)
    base = WORK / w.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    cfg = w.config(seed)
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    store_path = WORK / "store.json"
    store = _load_store(store_path)
    commit_key = f"{_src_hash()}/{w.name}"
    seed_key = f"{commit_key}/{seed}"

    steal0 = _steal_s()
    # Set-up cost users pay on every run; one warm-up probe first fills
    # the bytecode cache, which users do not pay every time. Half the
    # probes run before the tasks and half after, because the machine's
    # speed drifts over seconds.
    runner.setup_s(cfg_path, base / "setup-warmup.log")
    setup = [runner.setup_s(cfg_path, base / f"setup-{i}.log") for i in range(SETUP_PROBES)]

    tasks, errors = [], []
    timed_out = False
    mode = "trace" if trace else "plain"
    untraced_s = store["task_s"].get(commit_key)
    try:
        if trace and untraced_s is None:
            # Overhead needs an untraced time of this commit; make one.
            tasks.append(runner.task("plain", cfg_path, base / "reference"))
            if tasks[0].get("rc") == 0:
                untraced_s = store["task_s"][commit_key] = tasks[0]["task_s"]
        loop_start = time.perf_counter()
        done = 0
        while done < MIN_TASKS or time.perf_counter() - loop_start < seconds:
            tasks.append(runner.task(mode, cfg_path, base / f"task-{len(tasks)}"))
            done += 1
        setup += [runner.setup_s(cfg_path, base / f"setup-after-{i}.log")
                  for i in range(SETUP_PROBES)]
    except Timeout as exc:
        timed_out = True
        errors.append(str(exc))

    steal1 = _steal_s()
    sys.path.insert(0, str(SRC))
    # A run cut by the deadline counts its unfinished task as failed.
    attempted = failed = int(timed_out)
    checked = {}
    for rec in tasks:
        a, f, errs = gate(w, cfg, rec, store, seed_key, checked)
        attempted += a
        failed += f
        errors += errs

    timed = [t for t in tasks if t["mode"] == mode and t.get("rc") == 0]
    metrics = {}
    if timed and not trace:
        metrics = {
            "task_s": statistics.median(t["task_s"] for t in timed),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(t["cpu_s"] for t in timed),
            "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in timed),
        }
        store["task_s"][commit_key] = metrics["task_s"]
    elif timed:
        per_task = []
        for t in timed:
            if t["missing"]:
                print(f"warning: trace hooks not found: {t['missing']}", file=sys.stderr)
            m = tracing.layer_metrics([tuple(s) for s in t["spans"]])
            m["trace.accounted_share"] = m.pop("trace.accounted_s") / t["task_s"]
            m["trace.task_s"] = t["task_s"]
            m["trace.overhead_s"] = t["task_s"] - untraced_s if untraced_s else 0.0
            m["trace.spans"] = len(t["spans"])
            m["trace.span_cost_s"] = len(t["spans"]) * t["span_cost_s"]
            per_task.append(m)
            counters = {c: m[c] for c in tracing.WORK_COUNTERS}
            known = store["counters"].setdefault(seed_key, counters)
            if counters != known:
                failed += 1
                diff = {c: (known.get(c), v) for c, v in counters.items() if known.get(c) != v}
                errors.append(f"work counters differ from an earlier traced run: {diff}")
        metrics = {name: statistics.median(m[name] for m in per_task) for name in per_task[0]}
    _save_store(store_path, store)

    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        # Every metric BENCHMARK.json names must be reported, and no other.
        errors.append(f"metrics differ from BENCHMARK.json {kind}: "
                      f"{sorted(set(metrics) ^ set(units))}")
        failed = max(failed, 1)
        metrics = {k: metrics.get(k, 0.0) for k in units}
    result = {
        "correct": failed == 0 and not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    env = environment()
    # Time stolen by the hypervisor while measuring: a large value marks a
    # run whose wall times are unreliable.
    env["steal_s"] = steal1 - steal0 if steal0 is not None and steal1 is not None else None
    record = {
        "workload": w.name, "seed": seed, "trace": trace, "tasks": len(timed),
        "task_s_each": [t["task_s"] for t in timed],
        "setup_probes_s": setup, "errors": errors, "environment": env,
        "config": cfg, **result,
    }
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for t in tasks:
        shutil.rmtree(t["dir"], ignore_errors=True)
    return record


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']} seed {rec['seed']} trace {int(rec['trace'])}: "
          f"{rec['tasks']} timed task(s)")
    for name, m in rec["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    ratio = rec["failed"] / rec["attempted"]
    print(f"  fail_ratio = {ratio:.4g} ({rec['failed']} failed of {rec['attempted']} operations)")
    for err in rec["errors"]:
        print(f"  FAILED CHECK: {err}")
    print("  environment: " + json.dumps(rec["environment"], sort_keys=True))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced then traced")
    ap.add_argument("--self-test", action="store_true",
                    help="two traced runs per workload must give identical work counters")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running task is killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "matorus" / "cli.py").is_file():
        print(f"error: no matorus package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    WORK.mkdir(exist_ok=True)

    if args.workload:
        names = [args.workload]
    elif args.all or args.self_test:
        names = [wl["name"] for wl in spec["workloads"]]
    else:
        ap.error("give --workload, --all or --self-test")

    if args.self_test:
        ok = True
        for name in names:
            # The second run must reproduce the counters the first stored.
            recs = [run_workload(WORKLOADS[name], args.seed, 0, True, spec) for _ in range(2)]
            for rec in recs:
                print_record(rec)
                share = rec["metrics"]["trace.accounted_share"]["value"]
                ok &= rec["correct"] and 0.9 <= share <= 1.0
        print("self-test " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1

    if args.all:
        table = []
        for name in names:
            for trace in (False, True):
                rec = run_workload(WORKLOADS[name], args.seed, seconds, trace, spec)
                print_record(rec)
                table.append(rec)
        (WORK / "all.json").write_text(json.dumps(table, indent=1, sort_keys=True))
        ok = all(r["correct"] for r in table)
        print(json.dumps({"correct": ok,
                          "attempted": sum(r["attempted"] for r in table),
                          "failed": sum(r["failed"] for r in table),
                          "metrics": {f"{r['workload']}/{k}": v for r in table if not r["trace"]
                                      for k, v in r["metrics"].items()}}))
        return 0

    rec = run_workload(WORKLOADS[names[0]], args.seed, seconds, bool(args.trace), spec)
    print_record(rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
