"""Child processes of the benchmark.

    python3 perfbench/child.py setup <workload> <seed>
        Time a workload's set-up in a fresh interpreter: importing bpbmod,
        building the spaces and inputs, warming caches.  Prints the seconds.

    python3 perfbench/child.py cli <spans.json> <bpbmod arguments...>
        Run one bpbmod command as ``python -m bpbmod.cli`` would, with the
        layers traced; the spans go to <spans.json>.
"""

import sys
import time

t0 = time.perf_counter()


def setup(workload: str, seed: int) -> None:
    import workloads

    workloads.WORKLOADS[workload]().setup(seed)
    print(repr(time.perf_counter() - t0))


def cli(spans: str, argv: list[str]) -> int:
    import traceback
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import bpbmod.cli
    import_ms = (time.perf_counter() - start) * 1e3
    from tracer import Tracer

    tracer = Tracer()
    tracer.import_ms.append(import_ms)
    tracer.install()
    try:
        return bpbmod.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        tracer.uninstall()
        tracer.dump(spans)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1] == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
