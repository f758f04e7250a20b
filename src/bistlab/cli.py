"""Command-line front end for batch experiments.

Subcommands:

  inspect       netlist statistics and the post-scan profile
  faults        fault universe sizes, optionally exported as a list
  atpg          deterministic pool generation and export
  campaign      one full two-phase run with cost report and event log
  sweep         campaign grid over th1 / th2_ratio / polynomial sets
  verify-table1 regression check of the packaged reference dataset

Configuration precedence is flags over config file over environment
(BENCH_DIR) over built-in defaults. The config file is plain
``key = value`` text with ``#`` comments; keys are the long flag names
with dashes as underscores. Every report embeds the full effective
configuration, so any output can be reproduced from its own header.

Exit codes: 0 success, 1 usage or bad parameter, 2 unreadable or
malformed input file, 3 regression failure.
"""

import argparse
import concurrent.futures
import itertools
import sys

from . import _polytab
from .atpg import (
    BadChar,
    BadLength,
    build_deterministic_pool,
    export_vectors,
)
from .faultsim import (
    collapse_faults,
    enumerate_faults,
    export_faults,
)
from .netlist import (
    NetlistError,
    circuit_profile,
    full_scan_transform,
    levelize,
    load_bench,
    resolve_bench_path,
)
from .report import (
    compute_cost_model,
    compute_improvements,
    emit_report,
    reference_rows,
    verify_reference,
)
from .scheduler import (
    CampaignConfig,
    InvalidRatio,
    export_event_log,
    run_campaign,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this interface promises 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_value(text):
    text = text.strip()
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def read_config_file(path):
    """Plain key = value lines, '#' comments, blank lines ignored."""
    values = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{line_no}: expected 'key = value', got {raw!r}"
                )
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = _parse_value(val)
    return values


def _parse_poly_spec(spec):
    """'7,3,0' -> (7, 3, 0); schedules join specs with ';'."""
    entries = []
    for part in str(spec).split(";"):
        part = part.strip()
        if part:
            entries.append(tuple(int(x) for x in part.split(",")))
    return tuple(entries)


def _load_circuit(args):
    path = resolve_bench_path(args.bench, args.bench_dir)
    try:
        return load_bench(path)
    except NetlistError as exc:
        raise NetlistError(f"{path}: {exc}") from None


def _campaign_config(args):
    polys = None
    if getattr(args, "poly", None):
        polys = tuple(
            itertools.chain.from_iterable(_parse_poly_spec(p)
                                          for p in args.poly)
        )
    return CampaignConfig(
        seed=args.seed,
        th1=args.th1,
        th2_ratio=args.th2_ratio,
        th2=args.th2,
        poly_exponents=polys,
        unload_interval=args.unload_interval,
        detection_mode=args.detection_mode,
        target_coverage=args.target_coverage,
        cycle_budget=args.cycle_budget,
        collapse=not args.no_collapse,
        backtrack_budget=args.backtrack_budget,
        vector_file=args.vector_file,
    )


def _effective_config(args, cfg):
    """Everything a rerun needs, in a stable order."""
    pairs = [("bench", args.bench)]
    if getattr(args, "bench_dir", None):
        pairs.append(("bench_dir", args.bench_dir))
    pairs += [
        ("seed", cfg.seed),
        ("th1", cfg.th1),
        ("th2_ratio", cfg.th2_ratio),
        ("th2", cfg.th2),
        ("poly", cfg.poly_exponents),
        ("unload_interval", cfg.unload_interval),
        ("detection_mode", cfg.detection_mode),
        ("target_coverage", cfg.target_coverage),
        ("cycle_budget", cfg.cycle_budget),
        ("collapse", cfg.collapse),
        ("backtrack_budget", cfg.backtrack_budget),
        ("vector_file", cfg.vector_file),
    ]
    return pairs


def _header_lines(pairs):
    return "".join(f"# {k} = {v}\n" for k, v in pairs)


def _write_out(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# -- subcommand bodies ------------------------------------------------------


def _cmd_inspect(args):
    net = _load_circuit(args)
    kinds = {}
    for g in net.gates:
        kinds[g.kind] = kinds.get(g.kind, 0) + 1
    print(f"{net.name}: {len(net.primary_inputs)} PI,"
          f" {len(net.primary_outputs)} PO,"
          f" {kinds.get('DFF', 0)} DFF, {len(net.gates)} gates")
    print("gate kinds:",
          ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())))
    scanned = levelize(full_scan_transform(net))
    prof = circuit_profile(scanned)
    level = [0] * scanned.n_nets
    for g in scanned.gates:
        level[g.output] = 1 + max(level[i] for i in g.inputs)
    print(f"after scan transform: {prof.pis} PI + {prof.ppis} PPI ->"
          f" {prof.pos} PO + {prof.ppos} PPO,"
          f" scan length {prof.scan_length}")
    print(f"combinational gates: {prof.gate_count},"
          f" logic depth {max(level, default=0)}")
    return 0


def _cmd_faults(args):
    net = full_scan_transform(_load_circuit(args))
    fs = enumerate_faults(net)
    raw = len(fs.all)
    collapsed = collapse_faults(fs, net)
    col = len(collapsed.all)
    print(f"{net.name}: {raw} faults, {col} after equivalence collapsing")
    ref = {r["circuit"]: r["faults"] for r in reference_rows()}
    if net.name in ref:
        target = ref[net.name]
        closer = "raw" if abs(raw - target) <= abs(col - target) else "collapsed"
        print(f"reference lists {target} faults for {net.name};"
              f" the {closer} universe is the closer match")
    if args.export:
        text = export_faults(net, collapsed if args.collapsed else fs)
        _write_out(args.export, text)
        which = "collapsed" if args.collapsed else "raw"
        print(f"exported {which} fault list to {args.export}")
    return 0


def _cmd_atpg(args):
    net = full_scan_transform(_load_circuit(args))
    fs = enumerate_faults(net)
    if not args.no_collapse:
        fs = collapse_faults(fs, net)
    pool = build_deterministic_pool(
        net, fs, budget=args.backtrack_budget, fill_seed=args.seed
    )
    live = len(fs.all) - fs.untestable_count()
    covered = sum(pool.detects_at_build)
    print(f"{net.name}: {len(pool)} vectors cover {covered}/{live}"
          f" testable faults ({fs.untestable_count()} proven untestable,"
          f" {len(pool.backtracked)} hit the backtrack budget)")
    if args.export:
        _write_out(args.export,
                   export_vectors(pool, detects=pool.detects_at_build))
        print(f"exported vectors to {args.export}")
    return 0


def _cmd_campaign(args):
    net = _load_circuit(args)
    try:
        cfg = _campaign_config(args)
        result = run_campaign(net, cfg)
    except (InvalidRatio, ValueError) as exc:
        print(f"campaign: bad configuration: {exc}", file=sys.stderr)
        return 1
    header = _header_lines(_effective_config(args, cfg))
    rep = compute_improvements(
        compute_cost_model(result.accounting.adv, result.profile,
                           result.accounting)
    )
    doc = emit_report([rep], args.format)
    if args.format == "csv":
        doc = header + doc
    print(result.summary())
    if result.signature is not None:
        print("signature:", result.signature)
    _write_out(args.out, doc)
    if args.events:
        _write_out(args.events, header + export_event_log(result))
    return 0


def _sweep_cell(task):
    """One grid point; module-level so process pools can ship it."""
    bench_path, cfg_kwargs = task
    net = load_bench(bench_path)
    result = run_campaign(net, CampaignConfig(**cfg_kwargs))
    a = result.accounting
    return {
        "th1": cfg_kwargs["th1"],
        "th2_ratio": cfg_kwargs["th2_ratio"],
        "poly": cfg_kwargs["poly_exponents"],
        "seed": cfg_kwargs["seed"],
        "adv": a.adv,
        "pmdv": a.pmdv,
        "prtp_ph1": a.prtp_ph1,
        "prtp_ph2": a.prtp_ph2,
        "cycles": a.cycles,
        "coverage": result.coverage,
        "terminated_by": result.terminated_by,
    }


def _cmd_sweep(args):
    bench_path = resolve_bench_path(args.bench, args.bench_dir)
    th1_grid = [float(x) for x in args.th1_grid.split(",")]
    ratio_grid = [float(x) for x in args.th2_ratio_grid.split(",")]
    poly_grid = [None]
    if args.poly_set:
        poly_grid = [_parse_poly_spec(s) for s in args.poly_set]
    try:
        tasks = []
        for th1, ratio, polys in itertools.product(
                th1_grid, ratio_grid, poly_grid):
            kwargs = dict(
                seed=args.seed,
                th1=th1,
                th2_ratio=ratio,
                poly_exponents=polys,
                unload_interval=args.unload_interval,
                detection_mode=args.detection_mode,
                target_coverage=args.target_coverage,
                cycle_budget=args.cycle_budget,
                collapse=not args.no_collapse,
                backtrack_budget=args.backtrack_budget,
                vector_file=args.vector_file,
            )
            CampaignConfig(**kwargs)  # validate before any work starts
            tasks.append((bench_path, kwargs))
    except (InvalidRatio, ValueError) as exc:
        print(f"sweep: bad configuration: {exc}", file=sys.stderr)
        return 1
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(t) for t in tasks]
    cols = ("th1", "th2_ratio", "poly", "seed", "adv", "pmdv",
            "prtp_ph1", "prtp_ph2", "cycles", "coverage", "terminated_by")
    lines = [
        f"# bench = {args.bench}",
        f"# seed = {args.seed}",
        f"# jobs = {args.jobs}",
        ",".join(cols),
    ]
    for row in rows:
        lines.append(",".join(_csv_field(row[c]) for c in cols))
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def _csv_field(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    s = str(v)
    return '"' + s.replace('"', '""') + '"' if "," in s else s


def _missing_degrees_line():
    """Which reference rows have no table polynomial, or None."""
    missing = sorted((r["scan_length"], r["circuit"]) for r in reference_rows()
                     if r["scan_length"] not in _polytab.TAPS)
    if not missing:
        return None
    degrees = " or ".join(str(n) for n, _ in missing)
    rows = " and ".join(f"{c} (scan {n})" for n, c in missing)
    return (f"the shipped polynomial table has no degree {degrees}:"
            f" {rows} need --poly")


def _cmd_verify_table1(args):
    ok, lines = verify_reference()
    print("\n".join(lines))
    note = _missing_degrees_line()
    if note:
        print(note)
    if not ok:
        return 3
    print("all reference rows verified")
    return 0


# -- wiring ------------------------------------------------------------------


def _add_bench(p):
    p.add_argument("--bench", required=True,
                   help="circuit name or .bench path")
    p.add_argument("--bench-dir", default=None,
                   help="directory searched before BENCH_DIR and bundled data")


def _add_campaign_flags(p):
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--th1", type=float, default=0.85)
    p.add_argument("--th2-ratio", type=float, default=None)
    p.add_argument("--th2", type=int, default=None)
    p.add_argument("--poly", action="append", default=None,
                   metavar="EXPONENTS",
                   help="polynomial as exponents '7,3,0'; repeat or join"
                        " with ';' for a schedule")
    p.add_argument("--unload-interval", type=int, default=32)
    p.add_argument("--detection-mode", choices=("direct", "signature"),
                   default="direct")
    p.add_argument("--target-coverage", type=float, default=1.0)
    p.add_argument("--cycle-budget", type=int, default=10_000_000)
    _add_pool_flags(p)


def _add_pool_flags(p):
    """Fault universe and deterministic-vector source of a campaign."""
    p.add_argument("--no-collapse", action="store_true")
    p.add_argument("--backtrack-budget", type=int, default=10 ** 6)
    p.add_argument("--vector-file", default=None,
                   help="deterministic vectors from a file instead of search")


def build_parser():
    top = _Parser(prog="bistlab",
                  description="hybrid scan BIST experiments")
    top.add_argument("--config", default=None,
                     help="key = value defaults file")
    sub = top.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("inspect", help="netlist statistics")
    _add_bench(p)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("faults", help="fault universe sizes")
    _add_bench(p)
    p.add_argument("--export", default=None, help="write fault list here")
    p.add_argument("--collapsed", action="store_true",
                   help="export the collapsed universe instead of the raw one")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("atpg", help="deterministic pool generation")
    _add_bench(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-collapse", action="store_true")
    p.add_argument("--backtrack-budget", type=int, default=10 ** 6)
    p.add_argument("--export", default=None, help="write vectors here")
    p.set_defaults(func=_cmd_atpg)

    p = sub.add_parser("campaign", help="one full two-phase run")
    _add_bench(p)
    _add_campaign_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="report path, '-' for stdout")
    p.add_argument("--events", default=None, help="event log CSV path")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("sweep", help="campaign grid")
    _add_bench(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--th1-grid", default="0.85")
    p.add_argument("--th2-ratio-grid", default="0.5")
    p.add_argument("--poly-set", action="append", default=None,
                   help="one schedule per occurrence, e.g. '7,3,0;7,1,0'")
    p.add_argument("--unload-interval", type=int, default=32)
    p.add_argument("--detection-mode", choices=("direct", "signature"),
                   default="direct")
    p.add_argument("--target-coverage", type=float, default=1.0)
    p.add_argument("--cycle-budget", type=int, default=10_000_000)
    _add_pool_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-table1",
                       help="regression-check the reference dataset")
    p.set_defaults(func=_cmd_verify_table1)

    return top


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    top = build_parser()

    # first pass only to find --config; file values become defaults so
    # that explicit flags still win
    probe = _Parser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config:
        try:
            values = read_config_file(known.config)
        except OSError as exc:
            print(f"cannot read config file: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        for action in top._subparsers._group_actions[0].choices.values():
            usable = {
                a.dest for a in action._actions if a.dest != "help"
            }
            action.set_defaults(
                **{k: v for k, v in values.items() if k in usable}
            )

    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    if not getattr(args, "command", None):
        top.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"input file problem: {exc}", file=sys.stderr)
        return 2
    except (NetlistError, BadLength, BadChar) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except (InvalidRatio, ValueError) as exc:
        print(f"bad parameter: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
