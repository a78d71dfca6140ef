"""Command-line entry point.

    flowspec run CONFIG [--out DIR] [--seed N] [--backend fd|fourier]
    flowspec models

``--seed`` and ``--backend`` are written into the loaded JSON object before
it is validated, so ``report.json``'s ``config`` records what ran.

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
failure (indeterminate index, capacity of the dense solver or of the SDE
path store, LAPACK breakdown;
a defective eigenproblem can only surface in ``stationary``, the one task
that reads an eigenvector, by inverse iteration: the others need eigenvalues
only).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .exceptions import FlowspecError, NumericalError, ValidationError
from .models import list_models
from .reporting import RunConfig, _read_config, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowspec",
        description="Spectral and trajectory diagnostics of noisy flows on meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the tasks in a JSON run config")
    p_run.add_argument("config", help="path to the run configuration (JSON)")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the simulation seed")
    p_run.add_argument("--backend", default=None, choices=["fd", "fourier"],
                       help="override the operator backend")

    sub.add_parser("models", help="list the registered model names")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "models":
            for name in list_models():
                print(name)
            return 0

        data = _read_config(args.config)
        if isinstance(data, dict):  # anything else is refused by from_dict
            if args.backend is not None:
                data["backend"] = args.backend
            sim = data.get("simulate") or {}
            if args.seed is not None and isinstance(sim, dict):
                data["simulate"] = {**sim, "seed": args.seed}
        doc = run(RunConfig.from_dict(data), out_dir=args.out)
        print(doc.path)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FlowspecError as exc:
        # remaining library errors are configuration-shaped (bad degree,
        # unsupported mesh for the requested task, deterministic limit)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
