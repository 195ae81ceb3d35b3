"""Command-line entry points: the daemon and the scenario-replay client."""

from __future__ import annotations

import argparse
import sys

from .server import ServerStartupError, load_server_config, run_server

# The replay client's scenario ids and timeout, written out so that `serve`
# never imports it; a test pins them equal to `scenarios`'.
SCENARIO_ORDER = ("S1", "S2", "S3", "E1")
DEFAULT_TIMEOUT_MS = 2000


def _add_scenario_commands(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="scenario_command", required=True)
    run = sub.add_parser("run", help="replay scenarios against a running server")
    run.add_argument("scenario", choices=list(SCENARIO_ORDER) + ["all"])
    run.add_argument("--server", required=True, metavar="ADDR:PORT")
    run.add_argument("--secret", required=True, metavar="HEX",
                     help="shared secret, hex encoded")
    run.add_argument("--delivery-log", required=True, metavar="PATH",
                     help="server-side OTP delivery log to read challenges from")
    run.add_argument("--timeout-ms", type=int, default=DEFAULT_TIMEOUT_MS)


def _scenario_run(args: argparse.Namespace) -> int:
    from . import scenarios

    host, _, port = args.server.rpartition(":")
    if not host or not port.isdigit():
        print(f"--server must be ADDR:PORT, got {args.server!r}", file=sys.stderr)
        return 2
    try:
        secret = bytes.fromhex(args.secret)
    except ValueError:
        print("--secret must be hex encoded", file=sys.stderr)
        return 2
    ids = scenarios.SCENARIO_ORDER if args.scenario == "all" else (args.scenario,)
    return scenarios.run_all((host, int(port)), secret, args.delivery_log,
                             args.timeout_ms, ids)


def _serve(args: argparse.Namespace) -> int:
    try:
        config = load_server_config(args.config)
        run_server(config)
    except (ServerStartupError, OSError, ValueError) as exc:
        print(f"server startup failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_fixtures(args: argparse.Namespace) -> int:
    from .scenarios import write_demo_fixtures

    config_path = write_demo_fixtures(args.directory, port=args.port)
    print(config_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxradius",
        description="Context-aware multi-factor authentication over RADIUS-style UDP")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the authentication daemon")
    serve.add_argument("--config", required=True, metavar="PATH")

    scenario = sub.add_parser("scenario", help="scenario-replay client")
    _add_scenario_commands(scenario)

    fixtures = sub.add_parser("write-fixtures",
                              help="write demo config, user store and delivery log")
    fixtures.add_argument("directory")
    fixtures.add_argument("--port", type=int, default=1812)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "scenario":
        return _scenario_run(args)
    return _write_fixtures(args)


def scenario_main(argv: list[str] | None = None) -> int:
    """The bare `scenario run ...` form of the replay client."""
    parser = argparse.ArgumentParser(
        prog="scenario", description="scenario-replay client")
    _add_scenario_commands(parser)
    return _scenario_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
