"""The service child of ``telemetry_service``: ``run_service`` over the
telemetry program with durability on, until terminated."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT / "src"), str(_ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.serve import ProgramRegistry, ServiceConfig, run_service  # noqa: E402

from bench.programs import telemetry_factory  # noqa: E402

EXECUTOR_WORKERS = 2


def service_config(data_dir: str) -> ServiceConfig:
    """Durability on: a checkpoint (the service's own fsync + rename)
    after every settle."""
    return ServiceConfig(
        data_dir=data_dir, checkpoint_every_settles=1, executor_workers=EXECUTOR_WORKERS
    )


def telemetry_registry() -> ProgramRegistry:
    registry = ProgramRegistry()
    registry.register("telemetry", telemetry_factory)
    return registry


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--ready-file", required=True)
    args = ap.parse_args(argv)
    run_service(telemetry_registry(), service_config(args.data_dir), ready_file=args.ready_file)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
