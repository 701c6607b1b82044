"""One workload repetition in a fresh interpreter.

Usage: ``python3 worker.py SPEC.json`` runs the CLI operations listed in
the spec in-process and writes a result JSON; ``python3 worker.py`` with no
argument only imports the CLI and prints the clock reading after the import
(and the times of a few probe bursts, run after that reading).
The importing process is the one whose start-up is measured, so nothing
but ``sys`` and ``time`` is imported before the CLI.

While the commands of a repetition run, a probe thread times a
fixed burst of Python and numpy work every ``PROBE_PERIOD_S`` seconds, in
its own CPU time. The machine's speed drifts (neighbours on the host), and
the probe's mean burst time lets the runner scale the repetition's wall
time to a fixed reference speed. The runner pins the process to one CPU
(unless a command asks for more threads), so the probe measures the CPU
the commands run on.
"""

import sys
import time

t_import0 = time.monotonic()
import levy_transience.cli as cli  # noqa: E402
t_imported = time.monotonic()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import click  # noqa: E402
import numpy  # noqa: E402

PROBE_PERIOD_S = 0.2
IMPORT_PROBE_BURSTS = 10
_PROBE_X = numpy.linspace(0.05, 40.0, 256)


def _probe_burst():
    """Thread CPU time of a fixed burst of work (about 5 ms): Python
    arithmetic, then numpy calls on small arrays, as the program mixes."""
    t0 = time.thread_time()
    acc = 0.0
    for k in range(1, 6000):
        acc += math.sin(k * 0.37) / k
    for k in range(200):
        acc += float(numpy.sum(numpy.cos(_PROBE_X * (1.0 + 1e-3 * k))
                               * numpy.exp(-_PROBE_X)))
    return time.thread_time() - t0


class SpeedProbe(threading.Thread):
    """Runs `_probe_burst` now and then every PROBE_PERIOD_S seconds."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self._halt = threading.Event()

    def run(self):
        while True:
            self.samples.append(_probe_burst())
            if self._halt.wait(PROBE_PERIOD_S):
                return

    def finish(self):
        self._halt.set()
        self.join()
        return self.samples


def _run_op(op, out: Path):
    """Run one CLI command; return its exit code, error and clock readings."""
    args = list(op["args"]) + ["--out", str(out)]
    saved = {k: os.environ.get(k) for k in op.get("env", {})}
    os.environ.update(op.get("env", {}))
    code, error = 0, None
    t0 = time.monotonic()
    try:
        cli.main.main(args=args, prog_name="levy-transience",
                      standalone_mode=False)
    except SystemExit as exc:
        code = 0 if exc.code is None else (
            exc.code if isinstance(exc.code, int) else 1)
    except click.ClickException as exc:
        code, error = exc.exit_code, f"usage error: {exc.format_message()}"
    except Exception as exc:  # a crash is a failed operation, not a crash here
        code, error = 1, repr(exc)
    t1 = time.monotonic()
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    return {"name": op["name"], "exit_code": code, "error": error,
            "t_start": t0, "t_end": t1}


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    probe = SpeedProbe()
    probe.start()
    results = []
    for i, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = i
        results.append(_run_op(op, Path(spec["out_dir"]) / op["name"]))
    t_done = time.monotonic()
    probe_s = probe.finish()

    import scipy
    from levy_transience.montecarlo import SimConfig, _marginal_grid

    # Exact-marginal draws per simulate command: paths x time nodes, from the
    # program's own grid.
    draws = {op["name"]: op["expect"]["sim_config"]["paths"] * len(
        _marginal_grid(SimConfig(**op["expect"]["sim_config"])))
        for op in spec["ops"] if "sim_config" in op["expect"]}
    payload = {
        "t_imported": t_imported, "t_done": t_done,
        "import_s": t_imported - t_import0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": results, "marginal_draws": draws, "probe_s": probe_s,
        "package_file": cli.__file__,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    if tracer is not None:
        payload["spans_file"] = str(tracer.write(Path(spec["out_dir"])))
        payload["missing_layers"] = tracer.missing
    Path(spec["result_path"]).write_text(json.dumps(payload))


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        probe_s = [_probe_burst() for _ in range(IMPORT_PROBE_BURSTS)]
        print(json.dumps({"t_imported": t_imported,
                          "import_s": t_imported - t_import0,
                          "probe_s": probe_s,
                          "package_file": cli.__file__}))
