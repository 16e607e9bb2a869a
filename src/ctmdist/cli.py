"""Command-line entry points: gen-grid, partition, run, bench, diff.

`--config FILE` supplies flag defaults from a JSON object keyed by flag
name (dashes or underscores); explicit flags win.  `OTMD_LOG` sets the log
level.  Exit codes: 0 success, 2 scenario/config error, 3 protocol error,
4 internal assertion.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import gridgen, partition as part, runner
from .comm import DEFAULT_TIMEOUT, tcp_listener
from .errors import CtmError, ScenarioError
from .partition import DecoderMap
from .scenario import load_scenario, save_scenario


def _setup_logging() -> None:
    level = os.environ.get("OTMD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmdist",
        description="Distributed cell-transmission traffic simulator",
    )
    parser.add_argument("--config", help="JSON file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grid", help="generate a synthetic tiled grid scenario")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument(
        "--demand-vph-per-lane",
        type=float,
        default=gridgen.DEFAULT_DEMAND_VPH_PER_LANE,
    )
    p.add_argument("--link-length", type=float, default=gridgen.DEFAULT_LINK_LENGTH)
    p.add_argument("--lanes", type=int, default=gridgen.DEFAULT_LANES)
    p.add_argument("--dt", type=float, default=gridgen.DEFAULT_DT)
    p.add_argument("--steps", type=int, default=gridgen.DEFAULT_STEPS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("partition", help="split a scenario into fragments")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--import", dest="import_file", help="use an external partition file")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("run", help="run a scenario")
    p.add_argument("--scenario")
    p.add_argument("--fragments-dir")
    p.add_argument("--mode", choices=["seq", "local", "tcp"], default="seq")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump")
    p.add_argument("--dump-every", type=int, default=runner.DEFAULT_DUMP_EVERY)
    p.add_argument("--metrics")
    p.add_argument("--timing")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    spawn_help = "tcp: not read; without --worker-index, tcp always forks its workers here"
    p.add_argument("--spawn-local", action="store_true", help=spawn_help)
    p.add_argument("--worker-index", type=int, help="tcp: join as this worker")
    p.add_argument("--roster", help="tcp: worker_index host port lines")

    p = sub.add_parser("bench", help="scaling benchmark over worker counts")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n-list", default="1,2,4")
    p.add_argument("--steps", type=int)
    p.add_argument("--transport", choices=["local", "tcp"], default="local")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("diff", help="compare two state dumps")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tol", type=float)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    probe, _ = parser.parse_known_args(argv)
    if probe.config:
        try:
            with open(probe.config, "r", encoding="utf-8") as f:
                overrides = json.load(f)
        except (OSError, ValueError) as e:
            raise ScenarioError(f"cannot read config {probe.config}: {e}") from None
        if not isinstance(overrides, dict):
            raise ScenarioError("config file must hold a JSON object")
        defaults = {key.replace("-", "_"): value for key, value in overrides.items()}
        parser.set_defaults(**defaults)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for subparser in action.choices.values():
                    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_grid(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise ScenarioError("grid dimensions must be >= 1")
    scenario = gridgen.generate_grid(
        rows=args.rows,
        cols=args.cols,
        demand_vph_per_lane=args.demand_vph_per_lane,
        link_length=args.link_length,
        lanes=args.lanes,
        dt=args.dt,
        steps=args.steps,
    )
    save_scenario(scenario, args.out)
    nodes, links = len(scenario.nodes), len(scenario.links)
    print(f"wrote {args.out}: {nodes} nodes, {links} links")
    return 0


def _decoder_path(out_dir: str, i: int, j: int) -> str:
    return os.path.join(out_dir, f"decoder_{i}_to_{j}.json")


def _fragment_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"fragment_{index}.json")


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_decoder(path: str) -> DecoderMap:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return DecoderMap.from_doc(json.load(f))
    except (OSError, ValueError, OverflowError) as e:
        raise ScenarioError(f"cannot read decoder map {path}: {e}") from None
    except (KeyError, TypeError) as e:
        raise ScenarioError(f"decoder map {path}: missing or malformed field {e}") from None


def cmd_partition(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.import_file:
        node_partition = part.load_partition(args.import_file, scenario)
        if node_partition.n != args.n:
            raise ScenarioError(
                f"imported partition has {node_partition.n} subsets, --n is {args.n}"
            )
    else:
        node_partition = part.partition_nodes(scenario, args.n, args.seed)
    subs = part.build_subnetworks(scenario, node_partition)
    metagraph = part.build_metagraph(subs)

    os.makedirs(args.out_dir, exist_ok=True)
    for sub in subs:
        save_scenario(sub.fragment, _fragment_path(args.out_dir, sub.index))
    edges = [
        {"a": i, "b": j, "overlap_links": list(links)}
        for (i, j), links in sorted(metagraph.edges.items())
    ]
    _write_json(os.path.join(args.out_dir, "metagraph.json"), {"n": metagraph.n, "edges": edges})
    for sub in subs:
        for nb in sub.neighbors():
            decoder = part.build_decoder_map(sub, nb)
            _write_json(_decoder_path(args.out_dir, sub.index, nb), decoder.to_doc())
    part.save_partition(node_partition, os.path.join(args.out_dir, "partition.txt"))
    print(
        f"wrote {len(subs)} fragments, metagraph, and decoder maps to {args.out_dir}"
    )
    return 0


def _load_fragment(fragments_dir: str, index: int) -> part.Subnetwork:
    """Subnetwork `index` of a partition directory; errors name the file."""
    path = _fragment_path(fragments_dir, index)
    try:
        sub = part.Subnetwork(load_scenario(path))
    except (OSError, ScenarioError) as e:
        raise ScenarioError(f"fragment {path}: {e}") from None
    if sub.index != index:
        raise ScenarioError(f"fragment {path}: subnetwork metadata gives index {sub.index}")
    return sub


def _load_fragments_dir(fragments_dir: str) -> list:
    subs = []
    while os.path.exists(_fragment_path(fragments_dir, len(subs))):
        subs.append(_load_fragment(fragments_dir, len(subs)))
    if not subs:
        raise ScenarioError(f"no fragment_*.json files in {fragments_dir}")
    return subs


def _load_decoders(fragments_dir: str, sub) -> dict[int, tuple]:
    """(send map, receive map) by neighbor from `sub`'s decoder files, None
    for a file that is absent."""
    decoders = {}
    for nb in sub.neighbors():
        paths = [_decoder_path(fragments_dir, *ends) for ends in ((sub.index, nb), (nb, sub.index))]
        decoders[nb] = tuple(_load_decoder(p) if os.path.exists(p) else None for p in paths)
    return decoders


def _write_run_outputs(args, result) -> None:
    if args.dump:
        runner.write_dump(result.rows, args.dump)
    if args.metrics:
        _write_json(args.metrics, result.metrics)
    if args.timing:
        _write_json(args.timing, result.timing)


def _parse_roster(path: str) -> dict[int, tuple[str, int]]:
    roster = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise ScenarioError(f"cannot read roster {path}: {e}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ScenarioError(f"roster {path} line {lineno}: expected 'index host port'")
        try:
            index, port = int(parts[0]), int(parts[2])
        except ValueError:
            raise ScenarioError(
                f"roster {path} line {lineno}: index and port must be integers"
            ) from None
        if not 0 < port < 65536:
            raise ScenarioError(f"roster {path} line {lineno}: port {port} outside 1..65535")
        if index in roster:
            raise ScenarioError(f"roster {path} line {lineno}: worker {index} listed twice")
        roster[index] = (parts[1], port)
    return roster


def cmd_run(args) -> int:
    if args.steps is not None and args.steps < 1:
        raise ScenarioError("--steps must be >= 1")
    dump_every = args.dump_every if args.dump_every and args.dump_every > 0 else None

    if args.mode == "seq":
        if not args.scenario:
            raise ScenarioError("--mode seq needs --scenario")
        scenario = load_scenario(args.scenario)
        result = runner.run_sequential(scenario, steps=args.steps, dump_every=dump_every)
    elif args.mode == "tcp" and args.worker_index is not None:
        return _run_tcp_join(args, dump_every)
    elif args.mode not in ("local", "tcp"):
        raise ScenarioError(f"unknown mode {args.mode}")
    elif args.fragments_dir:
        subs = _load_fragments_dir(args.fragments_dir)
        decoders = {sub.index: _load_decoders(args.fragments_dir, sub) for sub in subs}
        result = runner.run_distributed(
            subs=subs,
            decoders=decoders,
            transport=args.mode,
            steps=args.steps,
            dump_every=dump_every,
            timeout=args.timeout,
        )
    elif args.scenario:
        scenario = load_scenario(args.scenario)
        result = runner.run_distributed(
            scenario,
            args.n,
            transport=args.mode,
            seed=args.seed,
            steps=args.steps,
            dump_every=dump_every,
            timeout=args.timeout,
        )
    else:
        raise ScenarioError(f"--mode {args.mode} needs --scenario or --fragments-dir")

    _write_run_outputs(args, result)
    final = result.metrics["per_step"]["in_network"][-1]
    print(
        f"ran {result.metrics['steps']} steps; vehicles in network: {final:.6f}; "
        f"max conservation error: {result.metrics['conservation_max_abs_error']:.3e}"
    )
    return 0


def _run_tcp_join(args, dump_every) -> int:
    """Join a roster-described TCP run as one worker (externally launched)."""
    if not args.fragments_dir or not args.roster:
        raise ScenarioError("tcp join mode needs --fragments-dir and --roster")

    sub = _load_fragment(args.fragments_dir, args.worker_index)
    decoders = _load_decoders(args.fragments_dir, sub)
    roster = _parse_roster(args.roster)
    for index in (sub.index, *sub.neighbors()):
        if index not in roster:
            raise ScenarioError(f"roster {args.roster} has no line for worker {index}")
    rows, per_step, timing = runner.run_tcp_worker(
        sub,
        roster,
        tcp_listener(*roster[sub.index]),
        decoders,
        args.steps or sub.fragment.sim.steps,
        dump_every,
        args.timeout,
    )
    base = args.dump or os.path.join(args.fragments_dir, "dump")
    runner.write_dump(rows, f"{base}.worker{sub.index}.csv")
    if args.metrics:
        _write_json(args.metrics, {"per_step": per_step, "timing": timing})
    print(f"worker {sub.index} finished; partial dump at {base}.worker{sub.index}.csv")
    return 0


def cmd_bench(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError:
        raise ScenarioError(f"bad --n-list {args.n_list!r}") from None
    if not n_list or any(n < 1 for n in n_list):
        raise ScenarioError("--n-list entries must be >= 1")
    report = runner.benchmark(
        scenario, n_list, steps=args.steps, transport=args.transport, seed=args.seed
    )
    if args.out:
        _write_json(args.out, report)
    header = (
        f"{'n':>4} {'setup':>9} {'comm':>9} {'compute':>9} {'total':>9} {'speedup':>8} "
        f"{'compute speedup':>16} {'ideal rate':>11}"
    )
    print(header)
    for row in report["rows"]:
        ideal = f"{row['ideal_rate']:.4f}" if row["ideal_rate"] is not None else "-"
        compute_speedup = (
            f"{row['compute_speedup']:.2f}" if row["compute_speedup"] is not None else "-"
        )
        print(
            f"{row['n']:>4} {row['setup_s']:>9.3f} {row['comm_s']:>9.3f} "
            f"{row['compute_s']:>9.3f} {row['total_s']:>9.3f} {row['speedup']:>8.2f} "
            f"{compute_speedup:>16} {ideal:>11}"
        )
    if not report["total_time_monotone_nonincreasing"]:
        print("warning: total time is not monotone nonincreasing over n")
    return 0


def cmd_diff(args) -> int:
    with open(args.a, "r", encoding="utf-8") as f:
        text_a = f.read()
    with open(args.b, "r", encoding="utf-8") as f:
        text_b = f.read()
    divergence = runner.diff_dumps(text_a, text_b, tol=args.tol)
    if divergence is None:
        print("equal")
        return 0
    print(f"differ: {divergence}")
    return 1


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = _apply_config(parser, argv)
        handler = {
            "gen-grid": cmd_gen_grid,
            "partition": cmd_partition,
            "run": cmd_run,
            "bench": cmd_bench,
            "diff": cmd_diff,
        }[args.command]
        return handler(args)
    except CtmError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
