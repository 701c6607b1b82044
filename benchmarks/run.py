"""Benchmark of the levy-transience CLI: end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload radial_cold --seed 1 --seconds 20 --trace 0

Each repetition of a workload is a fresh Python process (benchmarks/worker.py)
that imports the CLI from ./src and runs the workload's commands in-process,
so start-up and cold caches are paid as a CLI user pays them. Repetitions
go on while the next is expected to end within --seconds (at least one
runs). With --trace 0 the last stdout line holds the end-to-end metrics
(medians over the run); with --trace 1 it holds the per-layer metrics of
traced repetitions, each paired with an untraced one to measure the tracing
overhead. Inputs come from --seed only. See benchmarks/HOW_TO_RUN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprint.json"
SETUP_PROBES = 3           # import-only processes before and after
PROCESS_TIMEOUT_S = 170
THREADS_ENV = "LEVY_TRANSIENCE_THREADS"
# Mean burst time of the worker's speed probe at the reference speed, a
# fixed constant. On the machine of BENCH_1.json the mean burst took 2.4 to
# 4.5 ms as that machine's speed drifted.
# wall_s and setup_s are the measured times of a process, less the share of
# its life the hypervisor gave its CPU to others (steal), scaled by
# REF_PROBE_S / (the mean probe burst time in that process): the times it
# would have taken on an unshared CPU that runs the probe at this speed.
# The probe is timed in thread CPU time, which steal does not enter.
REF_PROBE_S = 0.0035
# Workers run on this one CPU, with the probe beside the commands (the
# program's default is one worker thread), unless a command sets a thread
# count.
PIN_CPU = min(os.sched_getaffinity(0))

# End-to-end metrics that only some workloads have. They are reported in the
# summary line and the result file; the last line carries the metrics that
# BENCHMARK.json declares for every workload.
WORKLOAD_METRICS = {
    "radial_cold": {"verdicts_per_s": "1/s"},
    "kappa_star": {},
    "monte_carlo": {"path_steps_per_s": "1/s",
                    "marginal_samples_per_s": "1/s"},
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, a worker died)."""


def _declared(root: Path):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child_env(root: Path):
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _steal_s(cpu):
    """Steal time of `cpu` so far (Linux /proc/stat); 0 where unreported."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def _spawn(root, args, env, log: Path | None = None, pin=True):
    """Run a worker, pinned to PIN_CPU if `pin`; return (clock at spawn,
    its stdout, the share of its life that was steal on PIN_CPU)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    preexec = (lambda: os.sched_setaffinity(0, {PIN_CPU})) if pin else None
    steal0 = _steal_s(PIN_CPU)
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=PROCESS_TIMEOUT_S,
                          preexec_fn=preexec)
    life = time.monotonic() - t_spawn
    steal_share = 0.0
    if pin:
        steal_share = min(max((_steal_s(PIN_CPU) - steal0) / life, 0.0), 0.9)
    if log is not None:
        log.write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return t_spawn, proc.stdout, steal_share


def _scaled(seconds, probe_s, steal_share):
    return (seconds * (1.0 - steal_share) * REF_PROBE_S
            / statistics.fmean(probe_s))


def _import_probe(root, env):
    """Spawn-to-imported time of an import-only worker, scaled."""
    t_spawn, out, steal_share = _spawn(root, [], env)
    info = json.loads(out.strip().splitlines()[-1])
    src = (root / "src").resolve()
    if src not in Path(info["package_file"]).resolve().parents:
        raise BenchError(f"imported {info['package_file']}, not the copy "
                         f"under {src}")
    return _scaled(info["t_imported"] - t_spawn, info["probe_s"],
                   steal_share)


def _rep(root, env, ops, rep_dir: Path, trace: bool, run_id: str):
    """One workload repetition in a fresh process; returns its record."""
    rep_dir.mkdir(parents=True)
    spec = {"ops": ops, "trace": trace, "run_id": run_id,
            "out_dir": str(rep_dir), "result_path": str(rep_dir / "rep.json")}
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    pin = not any(op.get("env") for op in ops)
    t_spawn, _, steal_share = _spawn(root, [str(spec_path)], env,
                                     rep_dir / "worker.log", pin=pin)
    rec = json.loads((rep_dir / "rep.json").read_text())
    rec["wall_raw_s"] = rec["t_done"] - t_spawn
    rec["setup_raw_s"] = rec["t_imported"] - t_spawn
    rec["probe_mean_s"] = statistics.fmean(rec["probe_s"])
    rec["steal_share"] = steal_share
    rec["wall_s"] = _scaled(rec["wall_raw_s"], rec["probe_s"], steal_share)
    rec["setup_s"] = _scaled(rec["setup_raw_s"], rec["probe_s"], steal_share)
    return rec


def _check_rep(rec, ops, rep_dir, pins):
    outs = {op["name"]: rep_dir / op["name"] for op in ops}
    by_name = {r["name"]: r for r in rec["ops"]}
    failures = {}
    for op in ops:
        reasons = wl.check(op, by_name[op["name"]], outs, pins)
        if reasons:
            failures[op["name"]] = reasons
    return failures


def _rep_metrics(workload, rec, ops):
    """Workload-specific throughput of one untraced repetition."""
    dur = {r["name"]: r["t_end"] - r["t_start"] for r in rec["ops"]}
    out = {}
    if workload == "radial_cold":
        n = sum(len(op["expect"]["kappas"]) for op in ops)
        out["verdicts_per_s"] = n / sum(dur[op["name"]] for op in ops)
    elif workload == "monte_carlo":
        euler = next(op for op in ops if op["kind"] == "simulate_euler")
        out["path_steps_per_s"] = (euler["expect"]["path_steps"]
                                   / dur[euler["name"]])
        names = [op["name"] for op in ops if op["kind"] in
                 ("simulate_exact", "validate_sampler")]
        draws = sum(rec["marginal_draws"].get(n, 0) for n in names) + sum(
            op["expect"].get("samples", 0) for op in ops)
        out["marginal_samples_per_s"] = draws / sum(dur[n] for n in names)
    return out


def _median(values):
    return {"value": statistics.median(values), "samples": len(values),
            "all": list(values)}


def _profile_checks(workload, layers):
    """Shares the profile predicts; reported, not part of `correct`."""
    get = layers.get
    checks = {}
    if workload == "radial_cold":
        share = get("quadrature.jump_symbol_value.busy_s", 0.0) / max(
            get("classifier.classify.busy_s", 0.0), 1e-12)
        checks["jump_symbol_value_share_of_classify"] = {
            "value": share, "expect": ">= 0.8", "ok": share >= 0.8}
    elif workload == "kappa_star":
        octave = get("octave_integrals.busy_s", 0.0)
        jvs = get("quadrature.jump_symbol_value.busy_s", 0.0)
        checks["octave_integrals_over_jump_symbol_value"] = {
            "value": octave / max(jvs, 1e-12),
            "expect": "> 1", "ok": octave > jvs}
    else:
        share = get("analytic.busy_s", 0.0) / max(
            get("cli.command.busy_s", 0.0), 1e-12)
        checks["analytic_share_of_commands"] = {
            "value": share, "expect": "<= 0.02", "ok": share <= 0.02}
    return checks


OCTAVE_LAYERS = ("quadrature.integrate_origin", "quadrature.integrate_tail",
                 "quadrature.tail_cumulative")
ANALYTIC_LAYERS = ("quadrature.jump_symbol_value", "classifier.classify",
                   "index_rules.pruitt_indices", "classifier.kappa_boundary")


def _traced_layers(spans_file: Path, ops):
    spans, counts = tracing.read_spans(spans_file)
    t2 = next((i for i, op in enumerate(ops)
               if op["name"] == "simulate_euler_threads2"), None)
    layers, table = tracing.layer_metrics(spans, counts, threads2_op=t2)
    main = [s for s in spans if s[5] != t2]

    def busy(*names):
        return tracing.union((s[2], s[3]) for s in main if s[1] in names)

    # Busy times the profile checks compare (not declared metrics).
    layers["classifier.classify.busy_s"] = busy("classifier.classify")
    layers["octave_integrals.busy_s"] = busy(*OCTAVE_LAYERS)
    layers["analytic.busy_s"] = busy(*OCTAVE_LAYERS, *ANALYTIC_LAYERS)
    layers["cli.command.busy_s"] = busy(tracing.CLI_COMMAND)
    return layers, {k: dict(v) for k, v in table.items()}


def _environment(root: Path, threads_before):
    git = "not a git checkout"
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or git
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git,
        "source_sha256": digest.hexdigest(),
        "levy_transience_threads_cleared": True,
        "levy_transience_threads_before": threads_before,
        "platform": platform.platform(),
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, scale=wl.FULL_SCALE, pins="auto"):
    """Run one workload; return the full result record."""
    run_dir = HERE / "out" / (f"{workload}-s{seed}-t{int(trace)}"
                              + ("-smoke" if scale == wl.SMOKE_SCALE else ""))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    # Paths handed to the program are relative to the root it runs in.
    rel_dir = Path(os.path.relpath(run_dir, root))
    ops = wl.generate(workload, seed, rel_dir / "models", scale)
    if pins == "auto":
        pins = None
        if seed == wl.DEFAULT_SEED and scale == wl.FULL_SCALE:
            pins = json.loads(FINGERPRINTS.read_text()).get(workload, {}) \
                if FINGERPRINTS.exists() else {}
    threads_before = os.environ.get(THREADS_ENV)
    env = _child_env(root)
    _import_probe(root, env)       # untimed: byte-compiles, warms the cache

    traced_ops = ops + ([wl.threads2_op(ops)] if workload == "monte_carlo"
                        else [])
    # Import-only probes before and after the repetitions, so that the
    # set-up median spans the run rather than one moment of it.
    probes = 0 if trace else SETUP_PROBES
    setup = [_import_probe(root, env) for _ in range(probes)]
    reps, traced, failures, attempted = [], [], {}, 0
    t0 = time.monotonic()
    # Start another repetition only while it is expected to end in time.
    while not reps or (time.monotonic() - t0) * (len(reps) + 1) / len(reps) \
            <= seconds:
        i = len(reps)
        plan = [(False, ops)] + ([(True, traced_ops)] if trace else [])
        for is_traced, rep_ops in plan:
            tag = f"rep{i}" + ("-traced" if is_traced else "")
            rep_dir = rel_dir / tag
            rec = _rep(root, env, rep_ops, rep_dir, is_traced,
                       f"{workload}-s{seed}-{tag}")
            attempted += len(rep_ops)
            for name, reasons in _check_rep(rec, rep_ops, rep_dir,
                                            pins).items():
                failures[f"{tag}/{name}"] = reasons
            (traced if is_traced else reps).append((rec, rep_dir))
    setup += [_import_probe(root, env) for _ in range(probes)]

    untraced = {"wall_s": [r["wall_s"] for r, _ in reps],
                "setup_s": setup + [r["setup_s"] for r, _ in reps],
                "peak_rss_mb": [r["peak_rss_mb"] for r, _ in reps],
                "wall_raw_s": [r["wall_raw_s"] for r, _ in reps],
                "probe_mean_s": [r["probe_mean_s"] for r, _ in reps],
                "steal_share": [r["steal_share"] for r, _ in reps]}
    for rec, _ in reps:
        for name, value in _rep_metrics(workload, rec, ops).items():
            untraced.setdefault(name, []).append(value)
    e2e = {name: _median(values) for name, values in untraced.items()}
    e2e["error_rate"] = {"value": len(failures) / attempted,
                         "samples": attempted}

    result = {
        "workload": workload, "why": wl.WHY[workload], "seed": seed,
        "seconds": seconds, "trace": trace, "scale": scale,
        "environment": dict(_environment(root, threads_before),
                            numpy_imported=reps[0][0]["numpy"],
                            scipy_imported=reps[0][0]["scipy"]),
        "attempted": attempted, "failed": len(failures),
        "failures": failures, "fingerprint_checked": pins is not None,
        "end_to_end": e2e,
        "ops": {op["name"]: op["args"] for op in traced_ops},
    }
    if trace:
        per_rep = []
        for rec, rep_dir in traced:
            layers, table = _traced_layers(Path(rec["spans_file"]),
                                           traced_ops)
            layers["cli.import_s"] = rec["import_s"]
            per_rep.append((layers, table))
        names = per_rep[0][0].keys()
        layer = {n: _median([p[0][n] for p in per_rep]) for n in names}
        # Traced minus untraced wall_s over the same commands: the
        # two-thread rerun only the traced repetition makes is left out.
        base = {op["name"] for op in ops}
        traced_wall = [r["wall_s"] - r["wall_s"] / r["wall_raw_s"] * sum(
            o["t_end"] - o["t_start"] for o in r["ops"]
            if o["name"] not in base) for r, _ in traced]
        layer["trace.overhead_s"] = {
            "value": statistics.median(traced_wall)
            - statistics.median(r["wall_s"] for r, _ in reps),
            "samples": len(traced)}
        result["per_layer"] = layer
        result["layer_table"] = per_rep[-1][1]
        result["missing_layers"] = sorted({name for rec, _ in traced
                                           for name in rec["missing_layers"]})
        result["profile_checks"] = _profile_checks(
            workload, {n: v["value"] for n, v in layer.items()})
    (run_dir / "result.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def result_line(result, declared):
    """The last stdout line: exactly the declared metrics of this mode."""
    e2e_units, layer_units = declared
    units = layer_units if result["trace"] else e2e_units
    source = result["per_layer" if result["trace"] else "end_to_end"]
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": source[name]["value"], "unit": unit}
                        for name, unit in units.items()}}


def _report(result, declared):
    e2e_units, layer_units = declared
    units = dict(e2e_units, error_rate="ratio", wall_raw_s="s",
                 probe_mean_s="s", steal_share="ratio",
                 **WORKLOAD_METRICS[result["workload"]])
    section = "end_to_end"
    if result["trace"]:
        units, section = layer_units, "per_layer"
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])}: {result['why']}")
    for name, unit in units.items():
        m = result[section][name]
        print(f"{name:52s} {m['value']:.6g} {unit} (n={m['samples']})")
    for name, reasons in result["failures"].items():
        print(f"FAILED {name}: {'; '.join(reasons)}")
    for name, chk in result.get("profile_checks", {}).items():
        print(f"profile {name} = {chk['value']:.4g} (expect {chk['expect']}): "
              f"{'ok' if chk['ok'] else 'NOT MET'}")
    summary = {"workload": result["workload"], "seed": result["seed"],
               "metrics": {n: {"value": result[section][n]["value"],
                               "samples": result[section][n]["samples"],
                               "unit": u} for n, u in units.items()}}
    print("summary " + json.dumps(summary, sort_keys=True))


def pin(root: Path):
    """Record the default-seed fingerprints of every workload."""
    pins = {}
    for workload in wl.WORKLOADS:
        result = run_workload(root, workload, wl.DEFAULT_SEED, 0, False,
                              pins=None)
        if result["failed"]:
            raise BenchError(f"{workload} fails before pinning: "
                             f"{result['failures']}")
        run_dir = HERE / "out" / f"{workload}-s{wl.DEFAULT_SEED}-t0"
        ops = wl.generate(workload, wl.DEFAULT_SEED, run_dir / "models")
        pins[workload] = {op["name"]: wl.fingerprint(op, run_dir / "rep0"
                                                     / op["name"])
                          for op in ops}
    FINGERPRINTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run of every workload, untraced and traced, "
                         "asserting that every metric and check is emitted")
    ap.add_argument("--pin", action="store_true",
                    help="re-record the default-seed fingerprints")
    ap.add_argument("--write", type=Path, default=None,
                    help="with --workload all: write every result to a file")
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "levy_transience" / "cli.py").is_file():
            raise BenchError(f"no program at {root / 'src/levy_transience'}; "
                             "run from the repository root")
        declared = _declared(root)
        if args.smoke:
            import smoke
            return smoke.run_smoke(root, declared)
        if args.pin:
            return pin(root)
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else json.loads(
            (root / "BENCHMARK.json").read_text())["run_seconds"]
        if args.workload == "all":
            results = {f"{w}/trace{t}": run_workload(root, w, args.seed,
                                                     seconds, bool(t))
                       for w in wl.WORKLOADS for t in (0, 1)}
            for result in results.values():
                _report(result, declared)
            if args.write:
                args.write.write_text(json.dumps(results, indent=1,
                                                 sort_keys=True) + "\n")
            return 0
        result = run_workload(root, args.workload, args.seed, seconds,
                              bool(args.trace))
        _report(result, declared)
        print(json.dumps(result_line(result, declared)))
        return 0
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
