"""Run `spintherm` in this process with every public function traced.

    python3 perfbench/traced_run.py TRACE.json run --preset fig3 --threads 1 ...

Everything after TRACE.json is passed to spintherm.cli.main.  Run it with a
single worker: spans are recorded only in this process.  The aggregated
trace is written to TRACE.json when the run ends.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer


def _two_site(tr, args, kwargs, result):
    # Input read, result written, and the reshaped temporary: 3 arrays of 2**L complex128.
    tr.counters["two_site_bytes_computed"] += 3 * args[0].size * 16


def _walk(tr, args, kwargs, result):
    tr.counters["checkpoints"] += len(result)


def _bootstrap(tr, args, kwargs, result):
    tr.counters["resamples"] += args[2] if len(args) > 2 else kwargs["n_resamples"]


def _emit(tr, args, kwargs, result):
    tr.counters["output_bytes"] += sum(Path(p).stat().st_size for p in result.values())


def main(argv: list[str]) -> int:
    trace_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer(watch=("apply_circuit", "evolve_with_checkpoints"))
    tracer.hook("apply_two_site", _two_site)
    tracer.hook("evolve_with_checkpoints", _walk)
    tracer.hook("bootstrap_sigma", _bootstrap)
    tracer.hook("emit_results", _emit)
    tracer.install()
    import spintherm.cli

    rc = spintherm.cli.main(cli_args)
    trace_path.write_text(json.dumps({"rc": rc, **tracer.snapshot()}, indent=1, sort_keys=True))
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
