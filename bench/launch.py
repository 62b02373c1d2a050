"""Child-process entry points of the benchmark.

``run.py`` starts every process that imports biozpipe through this file
(or ``python -m biozpipe.cli`` for an untraced CLI run), with the
checkout's ``src`` on PYTHONPATH and the BLAS thread count pinned.

    python bench/launch.py cli [--spans FILE] -- <biozpipe arguments>
    python bench/launch.py stream --seed N --seconds S --setups K
                                  --result FILE [--spans FILE]
    python bench/launch.py health --run DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_checkout_package():
    """Import biozpipe, refusing any copy but the checkout's own."""
    import biozpipe

    if SRC.resolve() not in Path(biozpipe.__file__).resolve().parents:
        sys.exit(f"biozpipe imported from {biozpipe.__file__}, "
                 f"not from {SRC}")


def main(argv):
    parser = argparse.ArgumentParser(prog="launch.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--spans")
    p_cli.add_argument("args", nargs=argparse.REMAINDER)
    p_stream = sub.add_parser("stream")
    p_stream.add_argument("--seed", type=int, required=True)
    p_stream.add_argument("--seconds", type=float, required=True)
    p_stream.add_argument("--setups", type=int, required=True)
    p_stream.add_argument("--result", required=True)
    p_stream.add_argument("--spans")
    p_health = sub.add_parser("health")
    p_health.add_argument("--run", required=True)
    p_health.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    _import_checkout_package()
    from tracer import Tracer

    tracer = Tracer() if getattr(args, "spans", None) else None
    if args.mode == "cli":
        from biozpipe import cli

        if tracer is not None:
            tracer.install()
        cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args
        code = cli.main(cli_args)
        if tracer is not None:
            tracer.dump(args.spans)
        return code

    if args.mode == "stream":
        import stream

        result = stream.run(args.seed, args.seconds, args.setups, tracer)
        if tracer is not None:
            tracer.dump(args.spans)
    else:
        import health

        result = health.run_dir_health(args.run)
    with open(args.result, "w", encoding="ascii") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
